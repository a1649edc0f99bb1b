"""activetest benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload union-da --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``. Prints every metric by name with its unit, the environment, and
as the last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. The full result, and with
``--trace 1`` the spans, go to ``perfbench/out/``.

Exit codes: 0 when the correctness gate passes, 1 when it fails, 2 when
the program or BENCHMARK.json is missing or the arguments are invalid.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# Pinned before numpy loads, so BLAS and OpenMP run one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECTIONS = ("end_to_end", "per_layer")  # reported with --trace 0 and --trace 1


def add_program_to_path() -> bool:
    """Put the checkout's ``src/`` first on the import path; False when the
    checkout holds no program or no BENCHMARK.json."""
    src = ROOT / "src"
    if not (src / "activetest" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def result_line(result: dict, declared: dict) -> dict:
    """The last line: the declared metrics of the run's section, with units."""
    values = result.get(SECTIONS[result["trace"]], {})
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared[SECTIONS[result["trace"]]]
            if m["name"] in values
        },
    }


def _print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:<14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not add_program_to_path():
        print(f"error: no activetest program under {ROOT / 'src'} or no BENCHMARK.json", file=sys.stderr)
        return 2
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(bench.WORKLOADS)}")
    declared = bench.declared_metrics()
    units = {m["name"]: m["unit"] for group in declared.values() for m in group}
    result = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    e2e = result["end_to_end"]

    print(
        f"activetest benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} ({result['load']})"
    )
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    _print_metrics(
        f"end to end: {e2e['operations']} operations of {result['attempted']} attempted, "
        f"{result['rounds']} rounds of {result['trials_per_round']}",
        {k: v for k, v in e2e.items() if k not in ("operations", "op_seconds")},
        units | {"trial_s_p90": "s"},
    )
    if "trial_s_p90" not in e2e:
        print(f"  trial_s_p90 not reported: fewer than {bench.P90_MIN_SAMPLES} operations")
    if args.trace:
        _print_metrics("per layer, per operation (cells computed from argument shapes):", result["per_layer"], units)
        for key in ("missing_targets", "uncounted_layers"):
            if result[key]:
                print(f"  {key}: {', '.join(result[key])}")
    for line in result["errors"] + result["gate_failures"]:
        print(f"  {line}")
    print("correctness gate: " + ("pass" if result["correct"] else "FAIL"))

    bench.OUT_DIR.mkdir(exist_ok=True)
    stem = bench.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    stem.with_suffix(".json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    if spans is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")

    line = result_line(result, declared)
    print(json.dumps(line))
    return 0 if line["correct"] and len(line["metrics"]) == len(declared[SECTIONS[args.trace]]) else 1


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
