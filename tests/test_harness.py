"""Tests for the trial harness, report formats, bundled instances, and CLI."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields, make_dataclass, replace

import numpy as np
import pytest

from activetest import (
    ActivePool,
    LabelOracle,
    MetricSpace,
    TrialConfig,
    TrialReport,
    TrialRow,
    TruncatedBudget,
    WeightedSample,
    best_k_grid,
    block_noise_target,
    bundled_best_k,
    composition_segment_sample,
    distance_to_truncated_composition,
    exact_distance_to_intervals,
    exact_interval_block_da,
    grid_interval_sample,
    interval_block_spec,
    noisy_interval_target,
    registered_algorithms,
    run_trials,
    striped_union_target,
)
from activetest.cli import _trial_config, build_parser, main
import activetest
from activetest import harness, intervals, star_instance_from_json
from activetest.bandit import _StarSpace
from activetest.harness import (
    _REGISTRY,
    _build_best_k,
    _build_compose_da,
    _build_knn_hard,
    _build_knn_soft,
    _build_star_hard,
    _build_union_da,
    _wilson_interval,
    check_params,
)

# noiseless periodic target: distance zero, one cheap agnostic-route trial
_FAST_PARAMS = {"d": 4, "flips": False, "grid": 2000}


def _traced_peak(fn) -> int:
    """tracemalloc's peak above the memory held before fn runs."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def _fast_config(trials=2, seed=3, tolerance=None):
    return TrialConfig(
        "intervals-da",
        eps=0.25,
        trials=trials,
        seed=seed,
        tolerance=tolerance,
        params=_FAST_PARAMS,
    )


class TestTrialConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig("", eps=0.1)
        with pytest.raises(ValueError):
            TrialConfig("aga", eps=0.0)
        with pytest.raises(ValueError):
            TrialConfig("aga", eps=0.1, trials=0)
        with pytest.raises(ValueError):
            TrialConfig("aga", eps=0.1, tolerance=0.0)

    def test_json_round_trip(self):
        cfg = _fast_config(trials=5, tolerance=0.3)
        back = TrialConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="invalid parameter: bogus"):
            TrialConfig.from_json('{"algorithm": "aga", "eps": 0.1, "bogus": 1}')
        with pytest.raises(ValueError):
            TrialConfig.from_json('{"eps": 0.1}')
        with pytest.raises(ValueError):
            TrialConfig.from_json("[1, 2]")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("trials", 2.7),
            ("trials", True),
            ("seed", 1.9),
            ("seed", -1),
            ("eps", "0.05"),
            ("eps", None),
            ("tolerance", math.inf),
            ("tolerance", math.nan),
            ("params", [1, 2]),
        ],
    )
    def test_from_json_rejects_mistyped_fields(self, key, value):
        text = json.dumps({"algorithm": "aga", "eps": 0.1, key: value})
        with pytest.raises(ValueError, match="invalid parameter"):
            TrialConfig.from_json(text)

    def test_integral_floats_are_typed(self):
        cfg = TrialConfig.from_json(
            '{"algorithm": "aga", "eps": 0.1, "trials": 3.0, "seed": 2.0, "tolerance": 1}'
        )
        assert (cfg.trials, cfg.seed, cfg.tolerance) == (3, 2, 1.0)
        assert type(cfg.trials) is type(cfg.seed) is int and type(cfg.tolerance) is float


def _strip_millis(report_csv: str) -> list:
    out = []
    for line in report_csv.strip().split("\n"):
        if line.startswith("#"):
            out.append(line)
        else:
            out.append(",".join(line.split(",")[:-1]))
    return out


# Label-bill ledger: per-trial (queries, unlabeled) of two seeded trials for
# every registered algorithm. A change to a bill edits its row here and
# names the proof step that allows it in the estimator's docstring.
# union-da boosts each median over the min(s, num_blocks) distinct drawn
# blocks, not over the s draws (disjoint_union_plan). best-k takes a plain
# Hoeffding mean of T' = chernoff_iterations(eps/3, 1/(9G)) draws per grid
# point: 329 * (1 + 40 * 1) at eps=0.3, n=60, p=1 (best_k). intervals-da
# labels its draw and solves it exactly whenever the composition route
# would bill at least as many labels (44,901 here): an exact answer on the
# draw has no estimation error, and the wrapper's eps/2 already covers the
# draw error (interval_da). aga splits eps into bias and sampling: q pulls
# misclassify an arm with probability at most 0.1*eps (Hoeffding), which
# moves the estimate's expectation by at most that, and s arms cover the
# other 0.9*eps with probability 2/3 (Hoeffding): 28 * 196 at eps=0.2,
# gamma=0.1 (aga_schedule).
_LABEL_BILLS = [
    ("intervals-da", 0.2, {"d": 10}, (81, 81)),
    ("intervals-da", 0.2, {"d": 400, "grid": 8000}, (3219, 3219)),
    ("compose-da", 0.25, {"m": 30}, (3195, 6370)),
    ("union-da", 0.1, {}, (31800, 36533)),
    ("knn-soft", 0.3, {"n": 40, "k": 5}, (30, 0)),
    ("knn-hard", 0.3, {"n": 40, "k": 5}, (60, 0)),
    ("best-k", 0.3, {"n": 60, "p": 1}, (13489, 0)),
    ("aga", 0.2, {"n": 40}, (5488, 0)),
    ("star-hard", 0.2, {"n": 2, "k": 2, "c1": 0.2, "c2": 0.5}, (69, 0)),
]


class TestLabelBills:
    def test_every_algorithm_has_a_bill(self):
        assert sorted({row[0] for row in _LABEL_BILLS}) == registered_algorithms()

    @pytest.mark.parametrize(
        "algorithm, eps, params, bill",
        _LABEL_BILLS,
        ids=[f"{row[0]}-{i}" for i, row in enumerate(_LABEL_BILLS)],
    )
    def test_bill(self, algorithm, eps, params, bill):
        rep = run_trials(TrialConfig(algorithm, eps=eps, trials=2, seed=7, params=params))
        assert [(r.queries, r.unlabeled) for r in rep.rows] == [bill, bill]

    def test_union_da_plan_sizes_the_pool(self):
        info = _build_union_da(0.1, {}, np.random.default_rng(0)).info
        assert info == {"s": 2313, "reps": 53, "pool": 36533}

    # union-da outputs, as float hex, recorded before its repetitions were
    # batched into one label call and one row-batched kernel call per block;
    # batching regroups the work but must not change a bit of the answer
    _UNION_DA_OUTPUTS = {
        5: ["0x1.771ccc7221c77p-3", "0x1.78b7d3bd84187p-3"],
        11: ["0x1.7dcc2876d3217p-3", "0x1.73fca72fda630p-3"],
        29: ["0x1.776e665d554c4p-3", "0x1.83511189f5182p-3"],
    }

    def test_union_da_trial_work_guard(self, monkeypatch):
        # Work guard, no timing: one bundled union-da trial after a warm-up
        # peaks at about 900 KB under tracemalloc, where gathering each
        # block pool twice, labeling through an index copy and preparing a
        # block's rows at once peaked at 2,774 KB. It labels each drawn
        # block in one call and merges every row in vectorized rounds, the
        # heap loop taking none.
        bundle = _build_union_da(0.1, {}, np.random.default_rng(0))
        bundle.run_trial(np.random.default_rng(1))
        heaps, labels = [], []
        heap, query_many = intervals._merge_heap, LabelOracle.query_many
        monkeypatch.setattr(intervals, "_merge_heap", lambda *a: heaps.append(1) or heap(*a))
        monkeypatch.setattr(
            LabelOracle,
            "query_many",
            lambda self, pts: labels.append(len(pts)) or query_many(self, pts),
        )
        peak = _traced_peak(lambda: bundle.run_trial(np.random.default_rng(1)))
        assert peak < 1600 * 1024, peak
        assert heaps == []
        assert labels == [15900, 15900]

    @pytest.mark.parametrize("seed", sorted(_UNION_DA_OUTPUTS))
    def test_union_da_seeded_outputs_pinned(self, seed):
        rep = run_trials(TrialConfig("union-da", eps=0.1, trials=2, seed=seed))
        assert [r.output.hex() for r in rep.rows] == self._UNION_DA_OUTPUTS[seed]
        assert [(r.queries, r.unlabeled) for r in rep.rows] == [(31800, 36533)] * 2

    @pytest.mark.parametrize(
        "algorithm, eps, params",
        [row[:3] for row in _LABEL_BILLS],
        ids=[f"{row[0]}-{i}" for i, row in enumerate(_LABEL_BILLS)],
    )
    def test_receipt_bills_every_label_spent(self, algorithm, eps, params, monkeypatch):
        # labels counted at the oracle, whoever holds it; aga's pulls at its arms
        labels, arm_sets = [], []
        query_many = LabelOracle.query_many

        def counting(self, points):
            labels.append(len(points))
            return query_many(self, points)

        class CountedArms(harness.ArmSet):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                arm_sets.append(self)

        monkeypatch.setattr(LabelOracle, "query_many", counting)
        monkeypatch.setattr(harness, "ArmSet", CountedArms)
        config = TrialConfig(algorithm, eps=eps, seed=7, params=params)
        bundle, (seq,) = harness._build_bundle(config)
        labels.clear()
        receipt = bundle.run_trial(np.random.default_rng(seq))
        spent = sum(labels) + sum(int(arms.pulls.sum()) for arms in arm_sets)
        assert receipt.queries_used == spent > 0


# The benchmark's configurations, plus compose-da at its defaults:
# algorithm -> (eps, params).
_SEEDED_CONFIGS = {
    "knn-soft": (0.1, {"k": 25, "p": 2}),
    "knn-hard": (0.1, {"k": 25}),
    "star-hard": (0.15, {"n": 8, "k": 5, "gamma": 0.3}),
    "best-k": (0.2, {"p": 2, "n": 200}),
    "intervals-da": (0.2, {"d": 2000, "grid": 80_000}),
    "compose-da": (0.15, {}),
    "aga": (0.05, {"n": 200, "gamma": 0.1}),
}


class TestKnnSeededOutputs:
    # (outputs as float hex, truth as float hex, bill per trial) of three
    # trials. The k-NN rows were recorded before the k-NN rankings were
    # memoized per instance, and bill only queries; the intervals-da,
    # compose-da and aga rows, billing (queries, unlabeled), before every
    # estimator returned one Receipt. Neither change may move a bit.
    _PINNED = {
        ("knn-soft", 3): (
            ["0x1.82d82d82d82d8p-3", "0x1.3e93e93e93e94p-3", "0x1.ddddddddddddep-3"],
            "0x1.3b38bb327095ap-3",
            270,
        ),
        ("knn-soft", 17): (
            ["0x1.3e93e93e93e94p-3", "0x1.b05b05b05b05bp-3", "0x1.1111111111111p-3"],
            "0x1.4683720fe7d4ap-3",
            270,
        ),
        ("knn-hard", 3): (
            ["0x1.16c16c16c16c1p-1", "0x1.0b60b60b60b61p-1", "0x1.1111111111111p-1"],
            "0x1.0000000000001p-1",
            2340,
        ),
        ("knn-hard", 17): (
            ["0x1.b05b05b05b05bp-2", "0x1.0b60b60b60b61p-1", "0x1.2222222222222p-1"],
            "0x1.0000000000001p-1",
            2340,
        ),
        ("star-hard", 3): (
            ["0x1.e3d70a3d70a3ep-2", "0x1.e3d70a3d70a3ep-2", "0x1.0cccccccccccdp-1"],
            "0x1.0157f936075adp-1",
            240,
        ),
        ("star-hard", 17): (
            ["0x1.351eb851eb852p-1", "0x1.0cccccccccccdp-1", "0x1.9333333333333p-2"],
            "0x1.071263016a13ep-1",
            240,
        ),
        ("best-k", 3): (
            ["0x1.15a6e3a5861ecp-3", "0x1.0ac3a860dcba6p-3", "0x1.177bb0afecfe7p-3"],
            "0x1.0a1ac07336ea5p-3",
            229862,
        ),
        ("best-k", 17): (
            ["0x1.0a8641fdb9750p-3", "0x1.0c96a3550d1e5p-3", "0x1.0c49ba5e353ffp-3"],
            "0x1.08d4fdf3b6458p-3",
            229862,
        ),
        ("intervals-da", 3): (
            ["0x1.d6cdfa1d6ce38p-5", "0x1.cb191d68cd429p-5", "0x1.dbe4f5e664612p-5"],
            "0x1.333333333335dp-3",
            (16095, 16095),
        ),
        ("intervals-da", 17): (
            ["0x1.df750c8cab391p-5", "0x1.e282d6d20c847p-5", "0x1.d8d72ba10315cp-5"],
            "0x1.333333333335dp-3",
            (16095, 16095),
        ),
        ("compose-da", 3): (
            ["0x1.51ff71af6457ep-5", "0x1.7a849e010cd12p-5", "0x1.2b7447872e3bep-5"],
            "0x1.99999999999a0p-5",
            (24867, 28244),
        ),
        ("compose-da", 17): (
            ["0x1.2c71489be76a8p-5", "0x1.54f674ed8fe3ep-5", "0x1.4d0e6c47c66e8p-5"],
            "0x1.99999999999a0p-5",
            (24867, 28244),
        ),
        ("aga", 3): (
            ["0x1.eea9e56ae84e9p-2", "0x1.d9dc2beb32468p-2", "0x1.e56ae84e97677p-2"],
            "0x1.0000000000000p-1",
            (117395, 0),
        ),
        ("aga", 17): (
            ["0x1.10c22ac352a2fp-1", "0x1.0e726b7c3e693p-1", "0x1.fc88611561a95p-2"],
            "0x1.0000000000000p-1",
            (117395, 0),
        ),
    }

    @pytest.mark.parametrize("algorithm, seed", sorted(_PINNED))
    def test_seeded_outputs_pinned(self, algorithm, seed):
        eps, params = _SEEDED_CONFIGS[algorithm]
        rep = run_trials(TrialConfig(algorithm, eps=eps, trials=3, seed=seed, params=params))
        outputs, truth, bill = self._PINNED[algorithm, seed]
        bill = bill if isinstance(bill, tuple) else (bill, 0)
        assert [r.output.hex() for r in rep.rows] == outputs
        assert [r.truth.hex() for r in rep.rows] == [truth] * 3
        assert [(r.queries, r.unlabeled) for r in rep.rows] == [bill] * 3

    @pytest.mark.parametrize("algorithm", ["knn-soft", "knn-hard", "star-hard", "best-k"])
    def test_threads_sharing_the_memo_match_serial(self, algorithm):
        eps, params = _SEEDED_CONFIGS[algorithm]
        config = TrialConfig(algorithm, eps=eps, trials=24, seed=11, params=params)
        serial = run_trials(config)
        threaded = run_trials(config, workers=4)
        assert _strip_millis(serial.to_csv()) == _strip_millis(threaded.to_csv())

    @pytest.mark.parametrize(
        "build, eps, space_type",
        [
            (_build_knn_soft, 0.1, MetricSpace),
            (_build_knn_hard, 0.1, MetricSpace),
            (_build_star_hard, 0.15, _StarSpace),
            (_build_best_k, 0.2, MetricSpace),
        ],
    )
    def test_trials_rank_nothing_after_set_up(self, build, eps, space_type, monkeypatch):
        bundle = build(eps, {}, np.random.default_rng(4))
        ranked = []
        fresh = space_type.ranking

        def counting(self, x_ids, pool, k=None):
            ranked.append(np.size(x_ids))
            return fresh(self, x_ids, pool, k)

        monkeypatch.setattr(space_type, "ranking", counting)
        for seed in range(20):
            bundle.run_trial(np.random.default_rng(seed))
        assert ranked == []


class TestRunTrials:
    def test_zero_distance_instance_always_succeeds(self):
        rep = run_trials(_fast_config())
        assert rep.success_rate == 1.0
        assert all(r.truth == 0.0 and r.output == 0.0 for r in rep.rows)
        assert all(r.queries == r.unlabeled > 0 for r in rep.rows)
        assert [r.trial for r in rep.rows] == [0, 1]

    def test_deterministic_modulo_millis(self):
        a = run_trials(_fast_config())
        b = run_trials(_fast_config())
        assert _strip_millis(a.to_csv()) == _strip_millis(b.to_csv())
        ja, jb = json.loads(a.to_json()), json.loads(b.to_json())
        for row in ja["rows"] + jb["rows"]:
            row.pop("millis")
        assert ja == jb

    def test_worker_count_does_not_change_rows(self):
        serial = run_trials(_fast_config(trials=4))
        threaded = run_trials(_fast_config(trials=4), workers=3)
        assert _strip_millis(serial.to_csv()) == _strip_millis(threaded.to_csv())

    def test_tolerance_resolution(self):
        assert run_trials(_fast_config()).tolerance == 0.25
        assert run_trials(_fast_config(tolerance=0.07)).tolerance == 0.07
        star = TrialConfig(
            "star-hard",
            eps=0.2,
            seed=5,
            params={"n": 2, "k": 2, "c1": 0.2, "c2": 0.5},
        )
        assert run_trials(star).tolerance == pytest.approx(0.4)

    def test_success_flag_matches_tolerance(self):
        rep = run_trials(
            TrialConfig("knn-soft", eps=0.3, trials=3, seed=9, params={"n": 40, "k": 5})
        )
        for r in rep.rows:
            assert r.success == (r.abs_error <= rep.tolerance)
            assert r.abs_error == pytest.approx(abs(r.output - r.truth))

    def test_compose_da_default_pool_size(self):
        # The pool is sized from ERM_SAMPLE_CONSTANT and ORACLE_REPETITIONS;
        # seeded compose-da outputs depend on it staying the same.
        sizes = {
            eps: _build_compose_da(eps, {}, np.random.default_rng(0)).info["pool"]
            for eps in (0.1, 0.15, 0.2)
        }
        assert sizes == {0.1: 97319, 0.15: 37557, 0.2: 18746}

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_trials(TrialConfig("quantum-da", eps=0.1))

    def test_unknown_instance_parameter(self):
        with pytest.raises(ValueError, match="invalid parameter: radius"):
            run_trials(TrialConfig("aga", eps=0.2, params={"radius": 3}))

    def test_fractional_int_parameter_rejected(self):
        with pytest.raises(ValueError, match="invalid parameter: grid"):
            run_trials(TrialConfig("intervals-da", 0.2, params={"d": 4, "grid": 2000.5}))

    def test_parameters_typed_by_declaration(self):
        typed = check_params("intervals-da", {"d": 4.0, "flips": 0, "grid": None})
        assert typed == {"d": 4, "flips": False, "grid": None}
        assert [type(v) for v in typed.values()] == [int, bool, type(None)]
        assert check_params("intervals-da", {"flips": True}) == {"flips": True}
        (flip,) = check_params("knn-soft", {"flip": 1}).values()
        assert flip == 1.0 and type(flip) is float
        for algorithm, bad in [
            ("intervals-da", {"d": True}),
            ("intervals-da", {"d": None}),
            ("intervals-da", {"d": float("inf")}),
            ("intervals-da", {"flips": 2}),
            ("knn-soft", {"flip": "1"}),
            ("knn-soft", {"flip": float("nan")}),
            ("knn-soft", {"flip": float("-inf")}),
        ]:
            (key,) = bad
            with pytest.raises(ValueError, match=f"invalid parameter: {key}"):
                check_params(algorithm, bad)

    @pytest.mark.parametrize(
        "algorithm, params",
        [
            ("knn-soft", {"flip": 2}),
            ("best-k", {"flip": -1}),
            ("aga", {"good_frac": 2}),
            ("star-hard", {"good_frac": -1}),
        ],
    )
    def test_probability_outside_unit_interval_rejected_before_drawing(self, algorithm, params):
        (key,) = params
        with pytest.raises(ValueError, match=f"invalid parameter: {key}"):
            run_trials(TrialConfig(algorithm, eps=0.2, params=params))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"invalid parameter: {key}"):
            harness._REGISTRY[algorithm].build(0.2, params, rng)
        assert rng.bit_generator.state == state

    def test_truth_oracle_guard(self):
        with pytest.raises(ValueError, match="truth oracle unavailable"):
            run_trials(TrialConfig("knn-soft", eps=0.3, params={"n": 100_001}))

    def test_registry_contents(self):
        assert registered_algorithms() == [
            "aga",
            "best-k",
            "compose-da",
            "intervals-da",
            "knn-hard",
            "knn-soft",
            "star-hard",
            "union-da",
        ]


class TestTrialReport:
    @pytest.fixture
    def report(self):
        return run_trials(_fast_config())

    def test_aggregate_fields(self, report):
        agg = report.aggregate()
        assert agg["trials"] == 2
        assert agg["successes"] == 2
        assert agg["success_rate"] == 1.0
        assert 0.0 <= agg["ci_low"] <= agg["ci_high"] <= 1.0
        assert agg["tolerance"] == 0.25
        assert agg["mean_abs_error"] == 0.0
        assert agg["total_queries"] == agg["total_unlabeled"] > 0

    def test_csv_layout(self, report):
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "trial,output,truth,abs_error,success,queries,unlabeled,millis"
        assert len(lines) == 4
        assert lines[-1].startswith("# aggregate ")
        first = lines[1].split(",")
        assert first[0] == "0" and first[4] == "1"

    def test_json_mirror(self, report):
        obj = json.loads(report.to_json())
        assert set(obj) == {"config", "rows", "aggregate"}
        assert obj["config"]["algorithm"] == "intervals-da"
        assert len(obj["rows"]) == 2
        assert set(obj["rows"][0]) == {
            "trial",
            "output",
            "truth",
            "abs_error",
            "success",
            "queries",
            "unlabeled",
            "millis",
        }

    def test_rows_are_slotted_and_serialize_unchanged(self, report):
        # A run keeps every row, so rows carry no per-instance __dict__;
        # the reports read the same as from plain dict-backed rows.
        assert not hasattr(report.rows[0], "__dict__")
        plain_row = make_dataclass(
            "PlainRow", [(f.name, f.type) for f in fields(TrialRow)], frozen=True
        )
        plain = replace(report, rows=[plain_row(**asdict(r)) for r in report.rows])
        assert hasattr(plain.rows[0], "__dict__")
        assert plain.to_csv() == report.to_csv()
        assert plain.to_json() == report.to_json()

    def test_wilson_interval_matches_scipy_bit_for_bit(self):
        from scipy import stats
        from scipy.stats._binomtest import BinomTestResult

        # binomtest(k, n) is the BinomTestResult below plus a p-value that
        # proportion_ci never reads and that costs most of a millisecond,
        # so every (k, n) builds the result directly; whole rows of n also
        # go through binomtest itself.
        for n in range(1, 301):
            for k in range(n + 1):
                result = BinomTestResult(
                    k=k, n=n, alternative="two-sided", statistic=k / n, pvalue=math.nan
                )
                ci = result.proportion_ci(method="wilson")
                assert _wilson_interval(k, n) == (ci.low, ci.high), (k, n)
        for n in (1, 2, 57, 300):
            for k in range(n + 1):
                ci = stats.binomtest(k, n).proportion_ci(method="wilson")
                assert _wilson_interval(k, n) == (ci.low, ci.high), (k, n)

    def test_reports_do_not_import_scipy(self):
        script = (
            "import sys\n"
            "from activetest import TrialConfig, run_trials\n"
            "report = run_trials(TrialConfig('intervals-da', eps=0.25, trials=2, seed=3,"
            f" params={_FAST_PARAMS!r}))\n"
            "report.aggregate(), report.to_csv(), report.to_json()\n"
            "assert 'scipy' not in sys.modules\n"
        )
        src = os.path.dirname(os.path.dirname(activetest.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_write_dispatch(self, report, tmp_path):
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        report.write(csv_path)
        report.write(json_path)
        assert csv_path.read_text() == report.to_csv()
        assert json.loads(json_path.read_text())["aggregate"]["trials"] == 2
        with pytest.raises(ValueError, match="unknown output format"):
            report.write(tmp_path / "r.txt")


class TestBundledInstances:
    def test_noisy_interval_truth(self):
        sample = grid_interval_sample(noisy_interval_target(5), grid_points=2000)
        alpha, _ = exact_distance_to_intervals(sample, 5)
        assert alpha == pytest.approx(0.15, abs=1e-12)
        clean = grid_interval_sample(noisy_interval_target(5, flips=False), 2000)
        assert exact_distance_to_intervals(clean, 5)[0] == 0.0
        with pytest.raises(ValueError):
            noisy_interval_target(0)

    def test_default_truth_grid_is_exact_at_large_d(self):
        # 100,000 cells at d=2000 would put cell midpoints on the target's
        # edges; the default grid is rounded up to a multiple of 20*d
        rep = run_trials(TrialConfig("intervals-da", eps=0.2, seed=1, params={"d": 2000}))
        assert abs(rep.rows[0].truth - 0.15) <= 1e-12

    def test_truth_grid_must_align_with_periods(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            run_trials(TrialConfig("intervals-da", eps=0.25, params={"d": 4, "grid": 2010}))
        with pytest.raises(ValueError, match="invalid parameter"):
            run_trials(TrialConfig("intervals-da", eps=0.25, params={"d": 4, "grid": 0}))

    def test_grid_sample_is_normalized(self):
        s = grid_interval_sample(noisy_interval_target(3), 100)
        s.require_normalized()
        assert len(s) == 100

    def test_large_d_truth_build_work_guard(self):
        # Work guard, no timing: building the intervals-da bundle at
        # d=2,000 on the 80,000-point grid peaks at about 1,800 KB under
        # tracemalloc, where full weights, an out-of-place label rule and
        # sorting the grid peaked at 3,900 KB.
        params = {"d": 2000, "grid": 80_000, "flips": True}
        build = lambda: harness._build_intervals_da(0.2, params, np.random.default_rng(0))
        assert build().truth.hex() == "0x1.333333333335dp-3"
        peak = _traced_peak(build)
        assert peak < 3000 * 1024, peak

    def test_sorted_grid_solve_work_guard(self, monkeypatch):
        # The exact solve of that grid, already in order, does not sort it
        # and peaks at about 1,100 KB, where sorting it peaked at 2,580 KB;
        # only the witness's 2,000 intervals are sorted.
        sample = grid_interval_sample(noisy_interval_target(2000), 80_000)
        exact_distance_to_intervals(sample, 2000)
        sizes, argsort = [], np.argsort
        monkeypatch.setattr(
            np, "argsort", lambda a, *r, **k: sizes.append(np.size(a)) or argsort(a, *r, **k)
        )
        peak = _traced_peak(lambda: exact_distance_to_intervals(sample, 2000))
        assert peak < 1400 * 1024, peak
        assert sizes == [2000]

    def test_grid_sample_weights_are_one_read_only_value(self):
        s = grid_interval_sample(noisy_interval_target(3), 60)
        assert s.weights.shape == (60,) and s.weights.strides == (0,)
        assert s.weights[0] == 1 / 60
        with pytest.raises(ValueError):
            s.weights[0] = 0.5

    def test_block_noise_truth_at_exact_budget(self):
        m = 4
        mask = np.array([True, False, False, False])
        target = block_noise_target(m, mask)
        sample, ids = composition_segment_sample(m, target)
        spec = interval_block_spec(m)
        tight = distance_to_truncated_composition(
            sample, ids, spec, TruncatedBudget(total=2 * m, cap=30)
        )
        # the stripes of the one marked block survive: 0.1 block fraction
        assert tight == pytest.approx(0.1 / m, abs=1e-12)
        loose = distance_to_truncated_composition(
            sample, ids, spec, TruncatedBudget(total=2 * m + 25, cap=30)
        )
        assert loose == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            block_noise_target(3, mask)

    def test_segment_sample_structure(self):
        m = 6
        sample, ids = composition_segment_sample(m, block_noise_target(m, np.zeros(m, bool)))
        sample.require_normalized()
        assert set(np.unique(ids)) == set(range(m))
        for i in range(m):
            assert sample.weights[ids == i].sum() == pytest.approx(1 / m)

    def test_striped_union_conditional_distance(self):
        mids = 0.5 + (np.arange(1000) + 0.5) / 2000.0
        pool = ActivePool(mids, LabelOracle(striped_union_target()))
        (alpha,) = exact_interval_block_da(1)(pool, 1, 0.1, None)
        assert alpha == pytest.approx(0.4, abs=1e-12)
        assert pool.oracle.used == 1000

    def test_striped_union_parity_matches_float_mod(self):
        # the integer parity test labels exactly as np.mod(floor, 2) == 0
        # on random points of [0, 1) and on every stripe edge and its
        # floating-point neighbours
        edges = np.append(0.5 + 0.1 * np.arange(5), np.nextafter(1.0, 0.0))
        pts = np.concatenate(
            [
                np.random.default_rng(41).random(20_000),
                edges,
                np.nextafter(edges, 0.0),
                np.nextafter(edges, 1.0),
            ]
        )
        s = np.floor((pts - 0.5) / 0.1)
        want = ((pts >= 0.5) & (np.mod(s, 2) == 0)).astype(np.int8)
        np.testing.assert_array_equal(striped_union_target().eval_many(pts), want)

    def test_block_estimator_reads_each_slice_alone(self):
        # estimate r is the exact distance of slice r solved on its own,
        # so the rows of the one kernel call stay independent
        rng = np.random.default_rng(31)
        target = striped_union_target()
        for reps, n, d in [(1, 7, 1), (5, 40, 1), (9, 13, 2), (53, 6, 1)]:
            pts = np.round(rng.random(reps * n) * 30) / 30
            pool = ActivePool(pts, LabelOracle(target))
            got = exact_interval_block_da(d)(pool, reps, 0.1, None)
            labels = target.eval_many(pts)
            want = [
                exact_distance_to_intervals(WeightedSample.uniform(p, l), d)[0]
                for p, l in zip(pts.reshape(reps, n), labels.reshape(reps, n))
            ]
            assert got.tolist() == want
            assert pool.oracle.used == reps * n

    def test_bundled_best_k_table_matches_grid(self):
        k_star, table, loss = bundled_best_k(0.2, 1, seed=2, n=60)
        assert [k for k, _ in table] == best_k_grid(60, 1, 0.2)
        assert k_star in dict(table)
        assert 0.0 <= loss <= 1.0


class TestCli:
    def test_trial_command_with_csv_out(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code = main(
            [
                "intervals-da",
                "--eps",
                "0.25",
                "--d",
                "4",
                "--trials",
                "2",
                "--seed",
                "3",
                "--constants",
                "flips=0,grid=2000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "success_rate=1.000" in printed
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("trial,output")
        assert lines[-1].startswith("# aggregate")

    def test_trial_command_json_out(self, tmp_path):
        out = tmp_path / "rep.json"
        assert (
            main(
                [
                    "knn-soft",
                    "--eps",
                    "0.3",
                    "--k",
                    "5",
                    "--p",
                    "1",
                    "--trials",
                    "2",
                    "--seed",
                    "4",
                    "--constants",
                    "n=40",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        obj = json.loads(out.read_text())
        assert obj["config"]["params"] == {"n": 40, "k": 5, "p": 1}

    def test_best_k_prints_table(self, capsys):
        assert main(["best-k", "--p", "1", "--eps", "0.2", "--seed", "1", "--constants", "n=60"]) == 0
        printed = capsys.readouterr().out
        assert "k_star=" in printed
        assert "grid table" in printed

    # intervals-da's sample constants are module constants, not keys: the
    # labeled ones activetest.intervals', the unlabeled draw's
    # activetest.active_reduction's
    @pytest.mark.parametrize(
        "command, key",
        [("aga", "bogus"), ("intervals-da", "unlabeled"), ("intervals-da", "agnostic"),
         ("intervals-da", "label")],
    )
    def test_unknown_constant_exits_2(self, command, key, capsys):
        assert main([command, "--constants", f"{key}=1"]) == 2
        assert f"unknown constant: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, constant",
        [
            ("union-da", "block_pool=299.9"),
            ("intervals-da", "flips=2"),
            ("compose-da", "lam=inf"),
            ("knn-soft", "flip=nan"),
            ("gen-star-hard", "gamma=nan"),
            ("gen-star-hard", "c1=inf"),
            ("gen-star-soft", "coin=nan"),
            ("union-da", "pool=-5"),
            ("compose-da", "pool=-5"),
            ("union-da", "block_pool=-1000"),
            ("union-da", "block_pool=0"),
        ],
    )
    def test_invalid_constant_value_exits_2(self, command, constant, capsys):
        assert main([command, "--constants", constant]) == 2
        key = constant.split("=")[0]
        assert f"error: invalid parameter: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["knn-soft", "--constants", "flip=2"],
            ["best-k", "--constants", "flip=-1"],
            ["aga", "--constants", "good_frac=2"],
            ["star-hard", "--constants", "good_frac=-1"],
            ["gen-star-hard", "--out", "star.json", "--constants", "good_frac=2"],
        ],
    )
    def test_probability_outside_unit_interval_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        key = argv[-1].split("=")[0]
        assert f"error: invalid parameter: {key}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_compose_da_without_blocks_exits_2(self, capsys):
        assert main(["compose-da", "--constants", "m=0"]) == 2
        assert "error: invalid parameter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["union-da", "--eps", "0.1", "--trials", "3", "--seed", "1", "--constants", "pool=5000"],
            ["compose-da", "--constants", "pool=500"],
        ],
    )
    def test_short_pool_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error: insufficient pool" in capsys.readouterr().err

    def test_star_hard_subcommand(self, capsys):
        assert main(["star-hard", "--trials", "1"]) == 0
        assert "star-hard eps=0.15 trials=1" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", registered_algorithms())
    def test_constant_keys_are_declared_params_minus_flags(self, algorithm):
        declared = _REGISTRY[algorithm].params
        flags = {"d", "k", "p"} & set(declared)
        constants = sorted(set(declared) - flags)
        parser = build_parser()
        args = parser.parse_args([algorithm, "--constants", ",".join(f"{k}=1" for k in constants)])
        params = _trial_config(args).params
        assert set(params) == set(declared)
        assert all(params[key] == declared[key][1] for key in flags)
        for key in sorted(flags) + ["bogus"]:
            args = parser.parse_args([algorithm, "--constants", f"{key}=1"])
            with pytest.raises(ValueError, match=f"unknown constant: {key}"):
                _trial_config(args)

    def test_malformed_constant_exits_2(self):
        assert main(["aga", "--constants", "gamma"]) == 2

    def test_bad_flag_raises_system_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["intervals-da", "--nope"])
        assert exc.value.code == 2

    def test_gen_star_round_trip(self, tmp_path, capsys):
        from activetest import star_instance_from_json, star_metadata

        out = tmp_path / "star.json"
        code = main(
            [
                "gen-star-hard",
                "--eps",
                "0.3",
                "--d",
                "2",
                "--k",
                "2",
                "--seed",
                "6",
                "--constants",
                "c1=0.2,c2=0.5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        si = star_instance_from_json(out.read_text())
        meta = json.loads((tmp_path / "star.meta.json").read_text())
        assert star_metadata(si) == meta
        assert meta["n"] == 2 and meta["k"] == 2

    def test_gen_star_hard_defaults_write_the_star_hard_instance(self, tmp_path, monkeypatch):
        out = tmp_path / "star.json"
        assert main(["gen-star-hard", "--out", str(out)]) == 0
        written = star_instance_from_json(out.read_text())
        scored = []
        build = harness.build_star_instance_hard
        monkeypatch.setattr(
            harness, "build_star_instance_hard", lambda *a, **kw: scored.append(build(*a, **kw)) or scored[-1]
        )
        _build_star_hard(_REGISTRY["star-hard"].eps, {}, np.random.default_rng(0))
        (si,) = scored
        assert (written.N, written.m, written.instance.space.n) == (si.N, si.m, si.instance.space.n)
        assert (written.n, written.k, written.constants) == (si.n, si.k, si.constants)

    def test_gen_star_soft(self, tmp_path):
        out = tmp_path / "soft.json"
        code = main(
            [
                "gen-star-soft",
                "--eps",
                "0.3",
                "--p",
                "1",
                "--seed",
                "7",
                "--constants",
                "c2=0.5,c3=0.02",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["metric"] == "star"
        assert obj["star"]["n"] == 1

    def test_gen_star_requires_out(self, capsys):
        assert main(["gen-star-soft"]) == 2
        assert "missing --out" in capsys.readouterr().err

    def test_gen_star_rejects_non_json(self, tmp_path):
        assert main(["gen-star-hard", "--out", str(tmp_path / "star.txt")]) == 2

    def test_run_suite_subset(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        code = main(["run-suite", "--criteria", "3,4", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count("PASS") == 2
        assert "2/2 criteria passed" in printed
        payload = json.loads(out.read_text())
        assert [r["number"] for r in payload] == [3, 4]
        assert all(r["passed"] for r in payload)

    def test_run_suite_bad_criteria_exits_2(self):
        assert main(["run-suite", "--criteria", "three"]) == 2
