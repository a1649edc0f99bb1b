"""Smoke tests: every script under demos/ and every fenced python block of
README.md runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_blocks_found():
    assert len(README_BLOCKS) >= 3


@pytest.mark.parametrize(
    "block", README_BLOCKS, ids=[f"block-{i}" for i in range(len(README_BLOCKS))]
)
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
