"""Workloads, measurement and correctness gate of the activetest benchmark.

Every workload goes through the harness's public ``run_trials``. A run is a
closed loop in one process and one thread (``workers=1``): rounds back to
back, each round one ``run_trials`` call per estimator config at a seed
derived from the run's seed, until the run's seconds are spent. One
operation is one trial; in ``small-estimates`` it is row i of each of the
round's four reports, summed.

With tracing on, the same rounds are run a second time under
:mod:`tracing`'s wrappers, and that pass's outputs and receipts must equal
the untraced pass's.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from activetest.harness import TrialConfig, run_trials

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# Rounds a run makes even when they outlast its seconds: set-up time is the
# median over rounds.
MIN_ROUNDS = 3
# Tolerance of the exact truths against their closed forms.
TRUTH_TOL = 1e-9
# A timing percentile is reported only with at least this many samples.
P90_MIN_SAMPLES = 100


@dataclass(frozen=True)
class Estimate:
    algorithm: str
    eps: float
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    estimates: tuple[Estimate, ...]
    trials_per_round: int


# Why each workload, and which layers it stresses, is recorded in
# BENCHMARK.json. intervals-large-d uses an 80,000-point truth grid: 40
# cells per period at d=2000 put every edge of the target on a cell
# boundary, which grid_interval_sample needs to be exact; the default
# 100,000-point grid puts cell midpoints on the edges and reads 0.14965.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("union-da", (Estimate("union-da", 0.1, {}),), 1),
        Workload(
            "intervals-large-d",
            (Estimate("intervals-da", 0.2, {"d": 2000, "grid": 80_000}),),
            4,
        ),
        Workload("best-k", (Estimate("best-k", 0.2, {"p": 2, "n": 200}),), 2),
        Workload(
            "small-estimates",
            (
                Estimate("knn-soft", 0.1, {"k": 25, "p": 2}),
                Estimate("knn-hard", 0.1, {"k": 25}),
                Estimate("star-hard", 0.15, {"n": 8, "k": 5, "gamma": 0.3}),
                Estimate("aga", 0.05, {"n": 200, "gamma": 0.1}),
            ),
            100,
        ),
    )
}

# Exact truths known in closed form, by algorithm.
CLOSED_FORMS = {"union-da": 0.2, "intervals-da": 0.15, "knn-hard": 0.5, "aga": 0.5}


@dataclass
class Round:
    seed: int
    setup_s: float
    reports: list | None  # one list of TrialRow per estimate; None if one raised
    error: str | None


def round_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_round(workload: Workload, seed: int, trials: int) -> Round:
    """One run_trials call per estimate; set-up is each call's wall time
    minus its trials' ``millis``."""
    setup_s, reports = 0.0, []
    for est in workload.estimates:
        config = TrialConfig(est.algorithm, eps=est.eps, trials=trials, seed=seed, params=est.params)
        t0 = time.perf_counter()
        try:
            report = run_trials(config, workers=1)
        except Exception as exc:  # counted as failed operations, reported, not a crash
            return Round(seed, setup_s, None, f"{est.algorithm}: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        setup_s += wall - sum(r.millis for r in report.rows) / 1000.0
        reports.append(report.rows)
    return Round(seed, setup_s, reports, None)


def run_pass(workload, seed, trials, *, seconds=None, rounds=None):
    """Rounds back to back: exactly ``rounds``, or while the next round is
    expected to end within ``seconds`` (at least MIN_ROUNDS). Returns the
    rounds and the pass's wall time."""
    done: list[Round] = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if rounds is not None:
            if len(done) == rounds:
                break
        elif len(done) >= MIN_ROUNDS and elapsed * (len(done) + 1) / len(done) > seconds:
            break
        done.append(run_round(workload, round_seed(seed, len(done)), trials))
    return done, time.perf_counter() - t0


def operations(rounds: list[Round]) -> list[dict]:
    """Row i of every report of a round, combined into one operation."""
    ops = []
    for rnd in rounds:
        if rnd.reports is None:
            continue
        for rows in zip(*rnd.reports):
            ops.append(
                {
                    "seconds": sum(r.millis for r in rows) / 1000.0,
                    "queries": sum(r.queries for r in rows),
                    "unlabeled": sum(r.unlabeled for r in rows),
                    "abs_error": float(np.mean([r.abs_error for r in rows])),
                    "miss": not all(r.success for r in rows),
                }
            )
    return ops


def receipts(rounds: list[Round]) -> list:
    """Everything a round reports except timings."""
    return [
        rnd.error
        if rnd.reports is None
        else [
            [(r.trial, r.output, r.truth, r.abs_error, r.success, r.queries, r.unlabeled) for r in rows]
            for rows in rnd.reports
        ]
        for rnd in rounds
    ]


def gate(workload: Workload, rounds: list[Round]) -> list[str]:
    """Correctness failures: truths off their closed forms, non-finite
    outputs."""
    failures = []
    for rnd in rounds:
        for est, rows in zip(workload.estimates, rnd.reports or ()):
            closed = CLOSED_FORMS.get(est.algorithm)
            if closed is not None and abs(rows[0].truth - closed) > TRUTH_TOL:
                failures.append(
                    f"{est.algorithm} seed {rnd.seed}: truth {rows[0].truth!r} != closed form {closed}"
                )
            if not all(math.isfinite(r.output) for r in rows):
                failures.append(f"{est.algorithm} seed {rnd.seed}: non-finite output")
    return failures


def end_to_end(rounds: list[Round], trials: int) -> dict:
    ops = operations(rounds)
    secs = np.array([op["seconds"] for op in ops])
    attempted = len(rounds) * trials
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not ops:
        return {"operations": 0, "failed_frac": 1.0, "peak_rss_mb": peak_rss_mb}
    m = {
        "operations": len(ops),
        "op_seconds": secs.tolist(),
        "setup_s": float(np.median([r.setup_s for r in rounds if r.reports is not None])),
        "trial_s_p50": float(np.median(secs)),
        "trials_per_s": len(ops) / float(secs.sum()),
        "queries_per_trial": float(np.mean([op["queries"] for op in ops])),
        "unlabeled_per_trial": float(np.mean([op["unlabeled"] for op in ops])),
        "abs_error_mean": float(np.mean([op["abs_error"] for op in ops])),
        "miss_frac": float(np.mean([op["miss"] for op in ops])),
        "failed_frac": (attempted - len(ops)) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    if len(ops) >= P90_MIN_SAMPLES:
        m["trial_s_p90"] = float(np.quantile(secs, 0.9))
    return m


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def declared_metrics() -> dict[str, list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def measure(name: str, seed: int, seconds: float, trace: bool, *, rounds=None, trials=None) -> dict:
    """Run one workload; returns the full result, including every metric
    computed and, with ``trace``, the traced pass's spans.

    ``rounds`` and ``trials`` fix the run's size instead of its seconds,
    for smoke tests.
    """
    workload = WORKLOADS[name]
    trials = trials or workload.trials_per_round
    plain, plain_wall = run_pass(workload, seed, trials, seconds=seconds, rounds=rounds)
    e2e = end_to_end(plain, trials)
    failures = gate(workload, plain)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "load": "closed loop, 1 process, 1 thread, workers=1",
        "rounds": len(plain),
        "trials_per_round": trials,
        "attempted": len(plain) * trials,
        "failed": len(plain) * trials - e2e["operations"],
        "errors": [r.error for r in plain if r.error],
        "end_to_end": e2e,
    }
    if trace:
        tracer = tracing.Tracer()
        with tracing.Instrumentation(tracer) as inst:
            traced, traced_wall = run_pass(workload, seed, trials, rounds=len(plain))
        if receipts(traced) != receipts(plain):
            failures.append("traced outputs or receipts differ from the untraced run")
        layers = tracing.layer_metrics(tracer, max(e2e["operations"], 1), traced_wall, plain_wall)
        # end-to-end figures that can read 0 or vary with the seed ride here, unbounded
        for key in ("unlabeled_per_trial", "abs_error_mean", "miss_frac", "failed_frac"):
            if key in e2e:
                layers[key] = e2e[key]
        result["per_layer"] = layers
        result["missing_targets"] = inst.missing
        result["uncounted_layers"] = sorted(tracer.uncounted)
        result["spans"] = list(tracer.records())
    result["gate_failures"] = failures
    result["correct"] = not failures and e2e["operations"] > 0
    return result
