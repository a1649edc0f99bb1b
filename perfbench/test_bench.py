"""Self-tests of the benchmark: run with ``python -m pytest perfbench``."""

import json
import re
import time

import pytest

import run

assert run.add_program_to_path(), "run from a checkout that holds src/activetest"

import activetest.harness  # noqa: E402
import activetest.intervals  # noqa: E402
import bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_declares_every_metric_once():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture(scope="module", params=list(bench.WORKLOADS))
def smoke(request):
    """One round of one trial per workload, traced and untraced."""
    return bench.measure(request.param, seed=7, seconds=0, trace=True, rounds=1, trials=1)


def test_smoke_run_passes_gate(smoke):
    assert smoke["correct"], smoke["gate_failures"] + smoke["errors"]
    assert smoke["attempted"] == 1 and smoke["failed"] == 0
    assert not smoke["missing_targets"] and not smoke["uncounted_layers"]


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_are_exactly_the_declared_ones(smoke, trace):
    line = run.result_line(dict(smoke, trace=trace), bench.declared_metrics())
    section = SPEC[run.SECTIONS[trace]]
    assert list(line["metrics"]) == [m["name"] for m in section]
    assert all(line["metrics"][m["name"]]["unit"] == m["unit"] for m in section)
    assert set(smoke["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}


def test_gate_fails_on_a_wrong_closed_form(monkeypatch):
    monkeypatch.setitem(bench.CLOSED_FORMS, "union-da", 0.25)
    result = bench.measure("union-da", seed=7, seconds=0, trace=False, rounds=1, trials=1)
    assert not result["correct"]
    assert "closed form" in result["gate_failures"][0]


def test_instrumentation_patches_every_namespace_and_restores():
    original = activetest.intervals.exact_distance_to_intervals
    with tracing.Instrumentation(tracing.Tracer()):
        wrapped = activetest.harness.exact_distance_to_intervals
        assert wrapped is not original
        assert activetest.intervals.exact_distance_to_intervals is wrapped
    assert activetest.harness.exact_distance_to_intervals is original
    assert activetest.intervals.exact_distance_to_intervals is original


def test_counting_is_excluded_from_span_and_parent_self_time():
    tracer = tracing.Tracer()

    def count(args, result, tracer, span):
        time.sleep(0.05)
        return {"labels": len(args["points"])}

    child = tracer.wrap("core.query_many", "child", lambda points: time.sleep(0.02), count, False)
    parent = tracer.wrap("knn.estimator", "parent", lambda: [child([1, 2]), child([3])], None, True)
    t0 = time.perf_counter()
    parent()
    wall = time.perf_counter() - t0
    m = tracing.layer_metrics(tracer, 1, wall, wall)
    assert [s.trial for s in tracer.spans] == [0, 0, 0]
    assert m["core.query_many.calls"] == 2 and m["core.query_many.labels"] == 3
    assert 0.04 <= m["core.query_many.self_s"] < 0.09
    assert m["knn.estimator.self_s"] < 0.02
    assert tracer.counting_s >= 0.1
    # top-level spans plus harness self time account for the traced wall time
    top = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    assert top + m["harness.self_s"] == pytest.approx(wall)
