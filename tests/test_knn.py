"""Tests for metric spaces, k-NN predictors, and the loss estimators."""

import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from activetest import (
    BudgetExceededError,
    Distribution,
    KnnInstance,
    LabelOracle,
    MetricSpace,
    TargetFunction,
    TrialConfig,
    best_k,
    best_k_grid,
    chernoff_iterations,
    estimate_hard_error,
    estimate_loss_lipschitz,
    estimate_soft_loss_pth,
    estimate_weighted_nn_loss,
    exact_hard_error,
    exact_soft_loss,
    exact_soft_loss_table,
    exact_weighted_nn_loss,
    id_distribution,
    knn_instance_from_json,
    knn_instance_to_json,
    knn_predict_hard,
    knn_predict_soft,
    lipschitz_inner_samples,
    loss_stability_bound,
    run_trials,
    verify_triangle,
)
from activetest import knn
from activetest.bandit import _StarSpace
from activetest.harness import _NEED_TWO_THIRDS, _TRIALS, _build_best_k


@pytest.fixture
def line_instance():
    coords = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    labels = [0, 0, 1, 1, 0, 1]
    return KnnInstance(
        MetricSpace.euclidean1d(coords),
        np.arange(6),
        LabelOracle(TargetFunction.from_labels(labels)),
    )


class TestMetricSpace:
    def test_euclidean_cross(self):
        space = MetricSpace.euclidean1d([0.0, 0.5, 2.0])
        np.testing.assert_allclose(space.cross([0, 2], [1]), [[0.5], [1.5]])
        assert space.dist(0, 2) == 2.0
        assert space.n == 3

    def test_explicit_matrix(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        space = MetricSpace.explicit(m)
        assert space.dist(0, 1) == 1.0
        assert verify_triangle(space)

    def test_id_range_checked(self):
        space = MetricSpace.euclidean1d([0.0, 1.0])
        with pytest.raises(ValueError, match="domain mismatch"):
            space.cross([0], [2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        # argsort ranked a NaN last: ranking([2], 4) read [[2, 0, 3, 1]]
        with pytest.raises(ValueError, match="invalid parameter"):
            MetricSpace.euclidean1d([0.0, bad, 0.5, 1.0])
        payload = {"metric": "euclidean1d", "points": [0.0, bad], "pool_indices": [0, 1], "labels": [0, 1]}
        with pytest.raises(ValueError, match="invalid parameter"):
            knn_instance_from_json(json.dumps(payload))

    def test_triangle_violation_detected(self):
        bad = np.array(
            [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
        )
        assert not verify_triangle(MetricSpace.explicit(bad))

    def test_triangle_sampled_path(self):
        rng = np.random.default_rng(0)
        coords = rng.random(600)
        m = np.abs(coords[:, None] - coords[None, :])
        assert verify_triangle(MetricSpace.explicit(m), samples=5000, seed=1)


class TestKnnInstance:
    def test_ranking_prefix_property(self, line_instance):
        lesser = line_instance.pool[line_instance.ranking([3], 2)]
        greater = line_instance.pool[line_instance.ranking([3], 4)]
        np.testing.assert_array_equal(greater[:, :2], lesser)

    def test_stable_tie_break(self):
        space = MetricSpace.euclidean1d([0.0, 1.0, -1.0])
        inst = KnnInstance(space, [1, 2], TargetFunction.from_labels([0, 0, 0]))
        # both pool points are at distance 1 from id 0: earlier pool slot wins
        np.testing.assert_array_equal(inst.pool[inst.ranking([0], 1)], [[1]])

    def test_empty_pool_rejected(self):
        space = MetricSpace.euclidean1d([0.0, 1.0])
        with pytest.raises(ValueError):
            KnnInstance(space, [], TargetFunction.constant(0))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=2, max_size=12, unique=True))
    def test_ranking_sorts_distances(self, coords):
        space = MetricSpace.euclidean1d(coords)
        inst = KnnInstance(
            space, np.arange(len(coords)), TargetFunction.constant(0)
        )
        rank = inst.ranking(np.arange(len(coords)))
        d = space.cross(np.arange(len(coords)), np.arange(len(coords)))
        sorted_d = np.take_along_axis(d, rank, axis=1)
        assert np.all(np.diff(sorted_d, axis=1) >= 0)


def _assert_top_k_is_argsort_prefix(inst, x):
    full = np.argsort(inst.space.cross(x, inst.pool), axis=1, kind="stable")
    n = inst.size
    for k in sorted({1, max(1, n // 2), max(1, n - 1), n}):
        assert np.array_equal(inst.ranking(x, k), full[:, :k])
    assert np.array_equal(inst.ranking(x), full)


class TestTopKRanking:
    """ranking(x, k) is exactly the stable full argsort's k-prefix."""

    def test_euclidean_duplicate_and_mirrored_coords(self):
        # coordinates on a coarse lattice symmetric about 0: repeated points
        # and points mirrored about a query tie, and the shuffled pool makes
        # ties break by pool position rather than by id
        rng = np.random.default_rng(40)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            coords = rng.integers(-4, 5, size=n) / 4.0
            space = MetricSpace.euclidean1d(coords)
            pool = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            x = rng.integers(0, n, size=int(rng.integers(1, 12)))
            _assert_top_k_is_argsort_prefix(
                KnnInstance(space, pool, TargetFunction.constant(0)), x
            )

    def test_explicit_integer_matrix(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(2, 25))
            upper = np.triu(rng.integers(1, 4, size=(n, n)), 1).astype(float)
            space = MetricSpace.explicit(upper + upper.T)
            pool = rng.integers(0, n, size=int(rng.integers(1, 2 * n)))
            _assert_top_k_is_argsort_prefix(
                KnnInstance(space, pool, TargetFunction.constant(0)), np.arange(n)
            )


# Coordinates with many ties: a coarse lattice (repeated points, points
# mirrored about a query), optionally with a far point from which every
# lattice point rounds to one distance.
_lattice_coords = st.tuples(
    st.lists(st.integers(-6, 6), min_size=1, max_size=30),
    st.sampled_from([None, 2.0**60, -(2.0**60)]),
).map(lambda c: np.array([v / 4.0 for v in c[0]] + ([] if c[1] is None else [c[1]])))


class TestLineRanking:
    """A line ranks from its sorted coordinates, exactly as the stable
    argsort of its distance matrix would."""

    @settings(max_examples=150, deadline=None)
    @given(coords=_lattice_coords, data=st.data())
    def test_matches_stable_argsort(self, coords, data):
        n = coords.shape[0]
        space = MetricSpace.euclidean1d(coords)
        ids = st.integers(0, n - 1)
        pool = np.array(data.draw(st.lists(ids, min_size=1, max_size=2 * n + 2)))
        x = np.array(data.draw(st.lists(ids, min_size=1, max_size=12)))
        k = data.draw(st.integers(1, pool.size))
        want = np.argsort(space.cross(x, pool), axis=1, kind="stable")[:, :k]
        got = space.ranking(x, pool, k)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def _ranked_and_repaired(self, monkeypatch, space, x, pool, k):
        # The ranking, checked against the stable argsort, and the distance
        # rows handed to the repair.
        rows = []
        fresh = knn._stable_top_k

        def recording(d, width):
            rows.append(d.copy())
            return fresh(d, width)

        monkeypatch.setattr(knn, "_stable_top_k", recording)
        got = space.ranking(x, pool, k)
        monkeypatch.undo()
        assert np.array_equal(got, np.argsort(space.cross(x, pool), axis=1, kind="stable")[:, :k])
        return got, rows

    def test_untied_rows_skip_the_repair(self, monkeypatch):
        rng = np.random.default_rng(44)
        space = MetricSpace.euclidean1d(rng.random(300))
        for k in (1, 7, 100, 150, 200):
            _, rows = self._ranked_and_repaired(monkeypatch, space, np.arange(300), np.arange(200), k)
            assert rows == []

    def test_repair_runs_only_on_flagged_rows(self, monkeypatch):
        # Pool positions 0-2 share the coordinate 0; positions 3-5 sit at
        # 5, 6 and 8. At k=1 the query at 2 has the window [0, 5], which
        # leaves the equally near positions 0 and 1 outside, and the query
        # at 7 has 6 and 8 mirrored; 6.25 and 4 have no tie at or before
        # the k-th distance.
        space = MetricSpace.euclidean1d([0.0, 0.0, 0.0, 5.0, 6.0, 8.0, 2.0, 7.0, 6.25, 4.0])
        pool = np.arange(6)
        got, rows = self._ranked_and_repaired(monkeypatch, space, [8, 6, 9, 7], pool, 1)
        assert got[1].tolist() == [0]
        assert len(rows) == 1 and np.array_equal(rows[0], space.cross([6, 7], pool))
        # at k=2 the window from 0 holds all three equal coordinates
        _, rows = self._ranked_and_repaired(monkeypatch, space, [8, 9, 0, 1], pool, 2)
        assert rows == []
        # at k=2 from 7, 6 and 8 are the two nearest: still a tie
        _, rows = self._ranked_and_repaired(monkeypatch, space, [7, 8], pool, 2)
        assert len(rows) == 1 and np.array_equal(rows[0], space.cross([7], pool))
        # From 2**60 away every pool point rounds to one distance. At k=1
        # each window holds only a pair of equal coordinates, and the other
        # coordinate, just outside, has the lowest pool position.
        for far, coords in [(-(2.0**60), [0.25, 0.0, 0.0]), (2.0**60, [0.0, 0.25, 0.25])]:
            space = MetricSpace.euclidean1d(coords + [far])
            got, rows = self._ranked_and_repaired(monkeypatch, space, [3], [0, 1, 2], 1)
            assert got.tolist() == [[0]] and len(rows) == 1

    def test_peak_memory(self):
        # Work guard, no timing: 500 ids at k=25 over a 500-point pool. The
        # 500 x 500 distance matrix and its selection peaked at 4.6 MB; the
        # 50-wide windows peak near 0.65 MB.
        space = MetricSpace.euclidean1d(np.random.default_rng(45).random(500))
        inst = KnnInstance(space, np.arange(500), TargetFunction.constant(0))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            inst.ranking(np.arange(500), 25)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 2 * 2**20, peak


def _memo_space(kind: str, rng):
    # Coarse distances, so rankings tie and break by pool position.
    if kind == "euclidean1d":
        return MetricSpace.euclidean1d(rng.integers(-4, 5, size=int(rng.integers(2, 30))) / 4.0)
    if kind == "explicit":
        n = int(rng.integers(2, 25))
        upper = np.triu(rng.integers(1, 4, size=(n, n)), 1).astype(float)
        return MetricSpace.explicit(upper + upper.T)
    n, m, b = (int(v) for v in rng.integers(1, 4, size=3))
    slots = 10 * n * m
    return _StarSpace(n, m, b, 1.0 + (rng.permutation(slots)[: n * m] + 0.5) / slots)


class TestRankingMemo:
    """The memo serves exactly the rankings the space computes afresh."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["euclidean1d", "explicit", "star"]),
        seed=st.integers(0, 2**32 - 1),
        warm=st.booleans(),
        batches=st.lists(
            st.tuples(st.lists(st.integers(0, 10**6), min_size=1, max_size=12), st.integers(1, 60)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_interleaved_batches_match_argsort(self, kind, seed, warm, batches):
        rng = np.random.default_rng(seed)
        space = _memo_space(kind, rng)
        pool = rng.integers(0, space.n, size=int(rng.integers(1, 2 * space.n + 1)))
        inst = KnnInstance(space, pool, TargetFunction.constant(0))
        if warm:
            every = np.arange(space.n)
            for k in range(1, inst.size):
                inst.ranking(every, k)
        for raw, k in batches:
            # ids repeat within and across batches; k runs past the pool size
            x = np.asarray(raw) % space.n
            want = np.argsort(space.cross(x, pool), axis=1, kind="stable")[:, :k]
            got = inst.ranking(x, k)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for k, (ids, rows) in inst._memo.items():
            assert k <= inst.size and rows.shape == (ids.size, k)
            assert np.all(np.diff(ids) > 0)

    def test_star_keys_share_explicit_distance_rows(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            space = _memo_space("star", rng)
            pool = rng.integers(0, space.n, size=int(rng.integers(1, 2 * space.star_size + 2)))
            ids = np.arange(space.n)
            # every id, pooled or not, ranks as in the explicit matrix
            explicit = KnnInstance(space.to_explicit(), pool, TargetFunction.constant(0))
            inst = KnnInstance(space, pool, TargetFunction.constant(0))
            for k in range(1, inst.size + 1):
                assert np.array_equal(inst.ranking(ids, k), explicit.ranking(ids, k))

    def test_full_rankings_share_the_pool_width(self, monkeypatch):
        space = MetricSpace.euclidean1d(np.linspace(0.0, 1.0, 9))
        inst = KnnInstance(space, np.arange(0, 9, 2), TargetFunction.constant(0))
        ranked = []
        fresh = MetricSpace.ranking

        def counting(self, x_ids, pool, k=None):
            ranked.extend(np.atleast_1d(x_ids).tolist())
            return fresh(self, x_ids, pool, k)

        monkeypatch.setattr(MetricSpace, "ranking", counting)
        want = np.argsort(space.cross(np.arange(9), inst.pool), axis=1, kind="stable")
        for x, k in [([4, 1, 4], None), (range(9), inst.size), ([8, 0], inst.size + 3)]:
            assert np.array_equal(inst.ranking(x, k), want[list(x)])
        assert list(inst._memo) == [inst.size]
        assert inst._memo[inst.size][1].dtype == np.uint8
        assert sorted(ranked) == list(range(9))

    @pytest.mark.parametrize("k", [0, -2, 2.5, True])
    def test_bad_width_rejected(self, k):
        space = MetricSpace.euclidean1d(np.linspace(0.0, 1.0, 9))
        inst = KnnInstance(space, np.arange(0, 9, 2), TargetFunction.constant(0))
        with pytest.raises(ValueError, match="invalid k"):
            inst.ranking(np.arange(9), k)
        assert inst._memo == {}

    def test_each_id_ranked_once_per_width(self, monkeypatch):
        space = MetricSpace.euclidean1d(np.linspace(0.0, 1.0, 20))
        inst = KnnInstance(space, np.arange(0, 20, 3), TargetFunction.constant(0))
        ranked = []
        fresh = MetricSpace.ranking

        def counting(self, x_ids, pool, k=None):
            ranked.extend(np.atleast_1d(x_ids).tolist())
            return fresh(self, x_ids, pool, k)

        monkeypatch.setattr(MetricSpace, "ranking", counting)
        inst.ranking([3, 3, 5], 2)
        inst.ranking([5, 7, 3, 7], 2)
        assert ranked == [3, 5, 7]
        inst.ranking([3], 4)
        assert ranked == [3, 5, 7, 3]

    def test_with_oracle_shares_memo_counts_labels_apart(self):
        rng = np.random.default_rng(43)
        space = MetricSpace.euclidean1d(rng.random(30))
        target = TargetFunction.from_labels(rng.integers(0, 2, size=30))
        inst = KnnInstance(space, np.arange(10), target)
        a, b = inst.with_oracle(LabelOracle(target)), inst.with_oracle(target)
        assert a._memo is inst._memo and b._memo is inst._memo
        assert a.space is inst.space and a.pool is inst.pool
        a.ranking(np.arange(10, 20), 3)
        ids, _ = inst._memo[3]
        assert np.array_equal(ids, np.arange(10, 20))
        assert np.array_equal(b.ranking([12], 3), inst.ranking([12], 3))
        a.oracle.query_many(np.arange(5))
        b.oracle.query_many(np.arange(2))
        assert (inst.oracle.used, a.oracle.used, b.oracle.used) == (0, 5, 2)
        assert isinstance(b.oracle, LabelOracle) and b.oracle is not inst.oracle


class TestPredictors:
    def test_soft_and_hard(self, line_instance):
        # neighbors of id 2 at k=3: ids 2, 1, 3 -> labels 1, 0, 1
        assert knn_predict_soft(line_instance, 2, 3) == pytest.approx(2 / 3)
        assert knn_predict_hard(line_instance, 2, 3) == 1
        # exact tie votes 0
        assert knn_predict_soft(line_instance, 2, 2) == pytest.approx(0.5)
        assert knn_predict_hard(line_instance, 2, 2) == 0

    def test_k_validation(self, line_instance):
        with pytest.raises(ValueError, match="invalid k"):
            knn_predict_soft(line_instance, 0, 0)
        with pytest.raises(ValueError, match="invalid k"):
            knn_predict_soft(line_instance, 0, 7)


class TestBoolCounts:
    """True is an int in Python; as a neighbor count or a power it must fail
    loudly, not run at 1."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda inst, d: knn_predict_soft(inst, 0, True),
            lambda inst, d: estimate_soft_loss_pth(inst, d, True, 1, 0.2, seed=0),
            lambda inst, d: estimate_hard_error(inst, d, True, 0.2, seed=0),
            lambda inst, d: estimate_loss_lipschitz(inst, d, True, abs, 1.0, 0.3, seed=0),
            lambda inst, d: exact_soft_loss(inst, d, True, 1),
            lambda inst, d: exact_hard_error(inst, d, True),
        ],
        ids=["predict", "soft", "hard", "lipschitz", "exact-soft", "exact-hard"],
    )
    def test_bool_k_rejected(self, line_instance, call):
        with pytest.raises(ValueError, match="invalid k"):
            call(line_instance, id_distribution(np.arange(6)))
        assert line_instance.oracle.used == 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda inst, d: best_k_grid(20, True, 0.2),
            lambda inst, d: best_k(inst, d, True, 0.2, seed=0),
            lambda inst, d: estimate_soft_loss_pth(inst, d, 3, True, 0.2, seed=0),
            lambda inst, d: estimate_weighted_nn_loss(inst, lambda r: 1.0 / (1.0 + r), d, True, 0.2, seed=0),
            lambda inst, d: exact_soft_loss_table(inst, d, True),
            lambda inst, d: loss_stability_bound(True, 1, 2),
        ],
        ids=["grid", "best-k", "soft", "weighted", "exact-table", "stability"],
    )
    def test_bool_p_rejected(self, line_instance, call):
        with pytest.raises(ValueError, match="invalid parameter"):
            call(line_instance, id_distribution(np.arange(6)))
        assert line_instance.oracle.used == 0

    @pytest.mark.parametrize("n", [True, 20.0, 0])
    def test_grid_size_must_be_a_positive_int(self, n):
        with pytest.raises(ValueError, match="invalid parameter"):
            best_k_grid(n, 1, 0.2)

    def test_cached_grid_is_a_fresh_list(self):
        grid = best_k_grid(200, 2, 0.2)
        grid.append(-1)
        assert best_k_grid(200, np.int64(2), np.float64(0.2)) == grid[:-1]


class TestSoftLossEstimator:
    def test_exact_query_count(self, line_instance):
        eps, p = 0.2, 2
        est = estimate_soft_loss_pth(
            line_instance, id_distribution(np.arange(6)), 3, p, eps, seed=5
        )
        t = chernoff_iterations(eps, 1 / 3)
        assert est.queries_used == t * (p + 1)
        assert line_instance.oracle.used == est.queries_used
        assert 0.0 <= est.value <= 1.0

    def test_zero_loss_instance(self):
        inst = KnnInstance(
            MetricSpace.euclidean1d(np.arange(5.0)),
            np.arange(5),
            TargetFunction.constant(1),
        )
        est = estimate_soft_loss_pth(
            inst, id_distribution(np.arange(5)), 2, 1, 0.3, seed=6
        )
        assert est.value == 0.0

    def test_reproducible(self, line_instance):
        dist = id_distribution(np.arange(6))
        a = estimate_soft_loss_pth(line_instance, dist, 3, 1, 0.25, seed=7)
        b = estimate_soft_loss_pth(line_instance, dist, 3, 1, 0.25, seed=7)
        assert a.value == b.value

    def test_near_exact_loss_at_small_eps(self, line_instance):
        dist = id_distribution(np.arange(6))
        truth = exact_soft_loss(line_instance, dist, 3, 1)
        est = estimate_soft_loss_pth(line_instance, dist, 3, 1, 0.05, seed=8)
        assert est.value == pytest.approx(truth, abs=0.05)


class TestExactOracles:
    def test_table_matches_single_k(self, line_instance):
        dist = id_distribution(np.arange(6))
        table = exact_soft_loss_table(line_instance, dist, 2)
        assert table.shape == (6,)
        for k in (1, 3, 6):
            assert table[k - 1] == pytest.approx(exact_soft_loss(line_instance, dist, k, 2))

    def test_hard_error_hand_value(self, line_instance):
        # k=1 on the pool itself: every point is its own neighbor
        assert exact_hard_error(line_instance, id_distribution(np.arange(6)), 1) == 0.0

    def test_weighted_probs(self, line_instance):
        probs = np.array([1.0, 0, 0, 0, 0, 0])
        val = exact_hard_error(line_instance, id_distribution(np.arange(6), probs), 3)
        # id 0 neighbors at k=3: 0,1,2 -> vote 0, truth 0
        assert val == 0.0

    def test_oracle_not_charged(self, line_instance):
        exact_soft_loss_table(line_instance, id_distribution(np.arange(6)), 3)
        exact_hard_error(line_instance, id_distribution(np.arange(6)), 3)
        assert line_instance.oracle.used == 0

    @pytest.mark.parametrize(
        "dist",
        [Distribution.uniform01(), Distribution.finite([1.0, 2.5], [0.5, 0.5])],
        ids=["uniform01", "non-integral-atom"],
    )
    @pytest.mark.parametrize(
        "oracle",
        [
            lambda inst, dist: exact_soft_loss(inst, dist, 3, 1),
            lambda inst, dist: exact_hard_error(inst, dist, 3),
            lambda inst, dist: exact_soft_loss_table(inst, dist, 1),
            lambda inst, dist: exact_weighted_nn_loss(inst, np.exp, dist, 1),
        ],
        ids=["soft", "hard", "table", "weighted"],
    )
    def test_non_id_test_distribution_rejected(self, line_instance, oracle, dist):
        with pytest.raises(ValueError, match="domain mismatch"):
            oracle(line_instance, dist)


@pytest.mark.parametrize(
    "oracle, estimator",
    [
        (exact_soft_loss, estimate_soft_loss_pth),
        (exact_hard_error, estimate_hard_error),
        (exact_soft_loss_table, best_k),
        (exact_weighted_nn_loss, estimate_weighted_nn_loss),
    ],
)
def test_oracle_takes_its_estimators_parameters(oracle, estimator):
    # An oracle's truth is for the instance, test distribution and
    # parameters its estimator samples: the same names, minus eps and seed.
    names = [n for n in inspect.signature(estimator).parameters if n not in ("eps", "seed")]
    assert list(inspect.signature(oracle).parameters) == names


class TestHardErrorEstimator:
    def test_exact_query_count(self, line_instance):
        eps, k = 0.25, 3
        est = estimate_hard_error(
            line_instance, id_distribution(np.arange(6)), k, eps, seed=9
        )
        t = chernoff_iterations(eps, 1 / 3)
        assert est.queries_used == t * (k + 1) == line_instance.oracle.used

    def test_zero_error_instance(self):
        inst = KnnInstance(
            MetricSpace.euclidean1d(np.arange(4.0)),
            np.arange(4),
            TargetFunction.constant(0),
        )
        est = estimate_hard_error(inst, id_distribution(np.arange(4)), 2, 0.3, seed=10)
        assert est.value == 0.0


class TestLipschitzEstimator:
    def test_inner_sample_formula(self):
        t = 50
        assert lipschitz_inner_samples(2.0, 0.2, t) == math.ceil(
            2.0 * 4.0 * math.log(12.0 * t) / 0.04
        )
        with pytest.raises(ValueError):
            lipschitz_inner_samples(0.0, 0.2, 10)

    def test_query_count_and_zero_loss(self):
        inst = KnnInstance(
            MetricSpace.euclidean1d(np.arange(6.0)),
            np.arange(6),
            TargetFunction.constant(0),
        )
        eps = 0.3
        est = estimate_loss_lipschitz(
            inst, id_distribution(np.arange(6)), 3, lambda z: z, 1.0, eps, seed=11
        )
        t = chernoff_iterations(eps / 2, 1 / 6)
        w = lipschitz_inner_samples(1.0, eps, t)
        assert est.queries_used == t * (w + 1) == inst.oracle.used
        assert est.value == 0.0

    def test_loss_outside_unit_interval_rejected(self, line_instance):
        with pytest.raises(ValueError, match="invalid parameter"):
            estimate_loss_lipschitz(
                line_instance, id_distribution(np.arange(6)), 3, lambda z: 2.0, 1.0, 0.3, seed=11
            )


class TestWeightedNnEstimator:
    def test_matches_uniform_k_sampling_in_value(self, line_instance):
        # weights = indicator of the 3 nearest reproduces the soft 3-NN loss
        dist = id_distribution(np.arange(6))
        truth = exact_soft_loss(line_instance, dist, 3, 1)

        def weights_of(dists):
            cut = np.sort(dists)[2]
            w = (dists <= cut).astype(float)
            return w

        wnn = exact_weighted_nn_loss(line_instance, weights_of, dist, 1)
        assert wnn == pytest.approx(truth)

        est = estimate_weighted_nn_loss(line_instance, weights_of, dist, 1, 0.1, seed=12)
        t = chernoff_iterations(0.1, 1 / 3)
        assert est.queries_used == t * 2 == line_instance.oracle.used
        assert est.value == pytest.approx(truth, abs=0.1)

    def test_degenerate_weights_rejected(self, line_instance):
        # a zero, infinite or NaN total leaves no distribution to draw from
        for fill in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="degenerate weights"):
                estimate_weighted_nn_loss(
                    line_instance,
                    lambda d: np.full(6, fill),
                    id_distribution(np.arange(6)),
                    1,
                    0.3,
                    seed=13,
                )


class TestBestK:
    def test_grid_shape(self):
        grid = best_k_grid(200, 2, 0.2)
        assert grid[0] == 1
        assert grid == sorted(set(grid))
        assert all(1 <= k <= 200 for k in grid)
        r = 2 / (2 - 0.2 / 3)
        assert math.floor(r ** len(grid)) >= 1

    def test_grid_covers_every_k_within_ratio(self):
        eps, p, n = 0.3, 1, 60
        grid = best_k_grid(n, p, eps)
        r = p / (p - eps / 3)
        for k in range(1, n + 1):
            assert any(g <= k <= g * r or k <= g <= k * r for g in grid)

    def test_search_returns_grid_point_and_table(self):
        rng = np.random.default_rng(14)
        coords = rng.random(40)
        labels = (coords > 0.5).astype(int)
        inst = KnnInstance(
            MetricSpace.euclidean1d(coords),
            np.arange(40),
            TargetFunction.from_labels(labels),
        )
        k_star, table = best_k(inst, id_distribution(np.arange(40)), 1, 0.3, seed=15)
        grid = best_k_grid(40, 1, 0.3)
        assert [k for k, _ in table] == grid
        assert k_star in grid
        t = chernoff_iterations(0.1, 1 / (9 * len(grid)))
        assert inst.oracle.used == t * (1 + len(grid) * 1)

    def test_stability_bound(self):
        assert loss_stability_bound(2, 10, 20) == 2 * (1 - 0.5)
        assert loss_stability_bound(1, 5, 5) == 0.0
        with pytest.raises(ValueError):
            loss_stability_bound(1, 10, 5)

    def test_stability_bound_holds_on_exact_table(self):
        rng = np.random.default_rng(16)
        coords = rng.random(20)
        inst = KnnInstance(
            MetricSpace.euclidean1d(coords),
            np.arange(20),
            TargetFunction.from_labels(rng.integers(0, 2, size=20)),
        )
        for p in (1, 2):
            table = exact_soft_loss_table(inst, id_distribution(np.arange(20)), p)
            for k1 in range(1, 21):
                for k2 in range(k1, 21):
                    bound = loss_stability_bound(p, k1, k2)
                    assert abs(table[k1 - 1] - table[k2 - 1]) <= bound + 1e-12


class TestJson:
    def test_euclidean_round_trip(self, line_instance):
        text = knn_instance_to_json(line_instance)
        back = knn_instance_from_json(text)
        np.testing.assert_array_equal(back.pool, line_instance.pool)
        np.testing.assert_array_equal(
            back.oracle.target.eval_many(np.arange(6)),
            line_instance.oracle.target.eval_many(np.arange(6)),
        )
        assert back.space.kind == "euclidean1d"

    def test_explicit_round_trip(self):
        m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        inst = KnnInstance(
            MetricSpace.explicit(m), [0, 2], TargetFunction.from_labels([1, 0, 1])
        )
        back = knn_instance_from_json(knn_instance_to_json(inst))
        np.testing.assert_array_equal(back.space.matrix, m)
        np.testing.assert_array_equal(back.pool, [0, 2])

    def test_non_binary_label_rejected(self):
        payload = json.dumps(
            {
                "metric": "euclidean1d",
                "points": [0.0, 1.0, 2.0],
                "pool_indices": [0, 1],
                "labels": [0, 2, 1],
            }
        )
        with pytest.raises(ValueError, match="invalid parameter"):
            knn_instance_from_json(payload)

    def test_unknown_metric_rejected(self):
        payload = json.dumps(
            {"metric": "hyperbolic", "points": [0], "pool_indices": [0], "labels": [0]}
        )
        with pytest.raises(ValueError):
            knn_instance_from_json(payload)

    def test_fractional_pool_entry_rejected(self, line_instance):
        # 0.5 is not truncated to id 0 and read as a valid pool.
        obj = json.loads(knn_instance_to_json(line_instance))
        obj["pool_indices"][0] = 0.5
        with pytest.raises(ValueError, match="domain mismatch"):
            knn_instance_from_json(json.dumps(obj))


class _RecordingOracle(LabelOracle):
    """Label oracle that keeps a copy of every batch it is asked for."""

    def __init__(self, target):
        super().__init__(target)
        self.batches = []

    def query_many(self, points):
        self.batches.append(np.array(points, copy=True))
        return super().query_many(points)


# Reference estimators: the per-draw path (rank every draw, then
# take_along_axis over the ranking, then the product of label differences).


def _reference_draws(inst, dist, n, rng):
    x = np.rint(np.asarray(dist.draw(n, rng), dtype=float)).astype(np.intp)
    return x, inst.oracle.query_many(x)


def _reference_best_k(inst, dist, p, eps, seed):
    # One uniform per draw and column, shared by the grid: grid point k
    # reads rank floor(u * k); one label call per grid point.
    rng = np.random.default_rng(seed)
    grid = best_k_grid(inst.size, p, eps)
    t = chernoff_iterations(eps / 3.0, 1.0 / (9.0 * len(grid)))
    x, fx = _reference_draws(inst, dist, t, rng)
    rank = inst.ranking(x)
    u = rng.random((t, p))
    table = []
    for k in grid:
        j = np.floor(u * k).astype(np.intp)
        chosen = np.take_along_axis(rank[:, :k], j, axis=1)
        fj = inst.oracle.query_many(inst.pool[chosen].ravel()).reshape(t, p)
        vals = np.prod(np.abs(fj - fx[:, None]).astype(float), axis=1)
        table.append((k, float(vals.mean())))
    return grid[int(np.argmin([v for _, v in table]))], table


def _reference_soft(inst, dist, k, p, eps, seed):
    rng = np.random.default_rng(seed)
    t = chernoff_iterations(eps, 1.0 / 3.0)
    x, fx = _reference_draws(inst, dist, t, rng)
    j = rng.integers(0, k, size=(t, p))
    chosen = np.take_along_axis(inst.pool[inst.ranking(x, k)], j, axis=1)
    fj = inst.oracle.query_many(chosen.ravel()).reshape(t, p)
    return float(np.prod(np.abs(fj - fx[:, None]).astype(float), axis=1).mean())


def _reference_lipschitz(inst, dist, k, loss, lipschitz, eps, seed):
    rng = np.random.default_rng(seed)
    t = chernoff_iterations(eps / 2.0, 1.0 / 6.0)
    w = lipschitz_inner_samples(lipschitz, eps, t)
    x, fx = _reference_draws(inst, dist, t, rng)
    j = rng.integers(0, k, size=(t, w))
    chosen = np.take_along_axis(inst.pool[inst.ranking(x, k)], j, axis=1)
    fj = inst.oracle.query_many(chosen.ravel()).reshape(t, w)
    return float(np.mean([float(loss(z)) for z in np.abs(fj.mean(axis=1) - fx)]))


def _reference_hard(inst, dist, k, eps, seed):
    rng = np.random.default_rng(seed)
    t = chernoff_iterations(eps, 1.0 / 3.0)
    x, fx = _reference_draws(inst, dist, t, rng)
    fj = inst.oracle.query_many(inst.pool[inst.ranking(x, k)].ravel()).reshape(t, k)
    pred = (fj.mean(axis=1) > 0.5).astype(np.int8)
    return float(np.abs(pred - fx).astype(float).mean())


def _reference_weighted(inst, weights, dist, p, eps, seed):
    # One rng.choice over the normalized weights per draw.
    rng = np.random.default_rng(seed)
    t = chernoff_iterations(eps, 1.0 / 3.0)
    x, fx = _reference_draws(inst, dist, t, rng)
    chosen = np.empty((t, p), dtype=np.intp)
    for i, xi in enumerate(x):
        w = np.asarray(weights(inst.space.cross([xi], inst.pool)[0]), dtype=float)
        chosen[i] = rng.choice(inst.size, size=p, replace=True, p=w / w.sum())
    fj = inst.oracle.query_many(inst.pool[chosen].ravel()).reshape(t, p)
    return float(np.prod(np.abs(fj - fx[:, None]).astype(float), axis=1).mean())


def _equivalence_case(name):
    rng = np.random.default_rng(31)
    if name == "repeats":
        # 12 test ids with uneven weights, each drawn many times
        space = MetricSpace.euclidean1d(rng.random(42))
        pool = np.arange(30)
        dist = id_distribution(np.arange(30, 42), rng.dirichlet(np.ones(12)))
    elif name == "distinct":
        # every draw is a different id: a random permutation of 0..n-1
        space = MetricSpace.euclidean1d(rng.random(4100))
        pool = np.arange(4070, 4100)
        dist = Distribution.from_inverse_cdf(lambda u: np.argsort(u).astype(float))
    else:
        # Hamming distance between 5-bit strings: many tied distances, and a
        # shuffled pool so that ties break by pool position, not by id
        bits = (np.arange(32)[:, None] >> np.arange(5)) & 1
        matrix = (bits[:, None, :] != bits[None, :, :]).sum(axis=2).astype(float)
        space = MetricSpace.explicit(matrix)
        pool = rng.permutation(32)[:16]
        dist = id_distribution(np.arange(32))
    target = TargetFunction.from_labels(rng.integers(0, 2, size=space.n))
    return (lambda: KnnInstance(space, pool, _RecordingOracle(target))), dist


class TestDistinctRankingEquivalence:
    """Each estimator ranks distinct test ids once; seeded outputs, label
    bills and every queried batch must equal the per-draw reference."""

    @pytest.fixture(params=["repeats", "distinct", "ties"])
    def case(self, request):
        return _equivalence_case(request.param)

    @staticmethod
    def _assert_same_queries(new, ref):
        assert new.oracle.used == ref.oracle.used
        assert len(new.oracle.batches) == len(ref.oracle.batches)
        for a, b in zip(new.oracle.batches, ref.oracle.batches):
            np.testing.assert_array_equal(a, b)

    def test_case_draw_multiplicity(self):
        make, dist = _equivalence_case("repeats")
        x = dist.draw(500, 0)
        assert np.unique(x).size == 12
        make, dist = _equivalence_case("distinct")
        x = dist.draw(4000, 0)
        assert np.unique(x).size == 4000

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_best_k(self, case, p):
        # best_k labels the whole grid in one call where the reference makes
        # one per grid point, so the label streams are compared end to end.
        make, dist = case
        new, ref = make(), make()
        got = best_k(new, dist, p, 0.45, seed=p)
        assert got == _reference_best_k(ref, dist, p, 0.45, seed=p)
        assert new.oracle.used == ref.oracle.used
        assert len(new.oracle.batches) == 2
        np.testing.assert_array_equal(
            np.concatenate(new.oracle.batches), np.concatenate(ref.oracle.batches)
        )

    def test_soft_loss_pth(self, case):
        make, dist = case
        new, ref = make(), make()
        est = estimate_soft_loss_pth(new, dist, 7, 2, 0.1, seed=4)
        assert est.value == _reference_soft(ref, dist, 7, 2, 0.1, seed=4)
        self._assert_same_queries(new, ref)

    def test_loss_lipschitz(self, case):
        make, dist = case
        new, ref = make(), make()
        est = estimate_loss_lipschitz(new, dist, 4, np.square, 1.0, 0.3, seed=5)
        assert est.value == _reference_lipschitz(ref, dist, 4, np.square, 1.0, 0.3, seed=5)
        self._assert_same_queries(new, ref)

    def test_hard_error(self, case):
        make, dist = case
        new, ref = make(), make()
        est = estimate_hard_error(new, dist, 5, 0.1, seed=6)
        assert est.value == _reference_hard(ref, dist, 5, 0.1, seed=6)
        self._assert_same_queries(new, ref)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize(
        "weights",
        [
            lambda d: np.exp(-4.0 * d),
            lambda d: 1.0 / (1.0 + d) ** 2,
            lambda d: (d <= np.sort(d)[2]).astype(float),
        ],
        ids=["exp", "inverse-square", "three-nearest"],
    )
    def test_weighted_nn_loss(self, case, weights, p):
        make, dist = case
        new, ref = make(), make()
        est = estimate_weighted_nn_loss(new, weights, dist, p, 0.1, seed=7 + p)
        assert est.value == _reference_weighted(ref, weights, dist, p, 0.1, seed=7 + p)
        assert est.queries_used == ref.oracle.used
        self._assert_same_queries(new, ref)


def test_best_k_ranks_each_distinct_test_id_once(monkeypatch):
    # Work guard, no timing: on the bundled n=200, p=2 search (874 test
    # draws over 200 distinct test ids) the ranked rows must not exceed the
    # distinct test ids, so a return to per-draw ranking fails here.
    bundle = _build_best_k(0.2, {"n": 200, "p": 2}, np.random.default_rng(0))
    rows = []
    ranking = KnnInstance.ranking

    def counting_ranking(self, x_ids, k=None):
        out = ranking(self, x_ids, k)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(KnnInstance, "ranking", counting_ranking)
    bundle.info["search"](np.random.default_rng(1))
    assert 0 < sum(rows) <= bundle.info["n"]


def _count_label_calls(monkeypatch):
    calls = []
    query_many = LabelOracle.query_many

    def counting_query_many(self, points):
        calls.append(len(points))
        return query_many(self, points)

    monkeypatch.setattr(LabelOracle, "query_many", counting_query_many)
    return calls


def test_best_k_labels_the_grid_in_one_call(monkeypatch):
    # Work guard, no timing: the bundled n=200, p=2 search makes one label
    # call for its 874 test draws and one for its 131 * 874 * 2 = 228,988
    # grid labels, so a return to a call per grid point fails here.
    bundle = _build_best_k(0.2, {"n": 200, "p": 2}, np.random.default_rng(0))
    calls = _count_label_calls(monkeypatch)
    bundle.info["search"](np.random.default_rng(1))
    assert calls == [874, 131 * 874 * 2]


@pytest.mark.parametrize("per_call", [10, 1])
def test_best_k_chunks_whole_grid_points(monkeypatch, per_call):
    # With the per-call limit lowered to `per_call` grid points' labels, the
    # grid takes ceil(G*T'*p / limit) calls after the test draws' call, and
    # the choice, table and bill match the one-call search.
    bundle = _build_best_k(0.2, {"n": 200, "p": 2}, np.random.default_rng(0))
    calls = _count_label_calls(monkeypatch)
    one_call = bundle.info["search"](np.random.default_rng(1))
    g, t = 131, 874
    limit = per_call * t * 2
    monkeypatch.setattr(knn, "_GRID_CHUNK_LABELS", limit)
    calls.clear()
    assert bundle.info["search"](np.random.default_rng(1)) == one_call
    assert len(calls) == math.ceil(g * t * 2 / limit) + 1
    assert calls[1:] == [limit] * (len(calls) - 2) + [(g % per_call or per_call) * t * 2]


def test_best_k_trial_peak_memory():
    # Work guard, no timing: one bundled n=200, p=2, eps=0.2 search after a
    # warm-up peaks at 2,590 KB under tracemalloc. Building all 228,988 grid
    # ids through a float64 product, its int32 cast and one gather peaked at
    # 3,085 KB.
    bundle = _build_best_k(0.2, {"n": 200, "p": 2}, np.random.default_rng(0))
    search = bundle.info["search"]
    search(np.random.default_rng(1))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        search(np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 2900 * 1024, peak


def _old_grid_ids(flat, rows, u, ks):
    # The build the block build replaced: a float64 (G, T', p) product cast
    # to int32, the draws' row offsets broadcast over the columns, and one
    # gather.
    j = (u * np.asarray(ks, dtype=float)[:, None, None]).astype(np.int32)
    return flat[j + rows[:, None]]


def _old_grid_stream(inst, dist, p, eps, seed):
    # Every grid label id best_k asks for, in order, built the old way.
    rng = np.random.default_rng(seed)
    grid = best_k_grid(inst.size, p, eps)
    t = chernoff_iterations(eps / 3.0, 1.0 / (9.0 * len(grid)))
    x, _ = _reference_draws(inst, dist, t, rng)
    ux, inv = np.unique(x, return_inverse=True)
    flat = inst.pool[inst.ranking(ux)].ravel()
    u = rng.random((t, p))
    return _old_grid_ids(flat, (inv * inst.size).astype(np.int32), u, grid).ravel()


class TestGridIds:
    @pytest.mark.parametrize("block", [16, 5])
    @pytest.mark.parametrize("g", [1, 17, 37, None])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_block_build_matches_one_gather(self, monkeypatch, p, g, block):
        # Grids of 1, 17 and 37 points are no multiple of either block size;
        # the whole n=200 grid has 84, 131 and 160 points for p = 1, 2, 3.
        monkeypatch.setattr(knn, "_GRID_BLOCK_ROWS", block)
        rng = np.random.default_rng(40 + p)
        size, t = 200, 301
        grid = best_k_grid(size, p, 0.2)[:g]
        nbr = rng.integers(0, 10**6, size=(29, size))
        inv = rng.integers(0, 29, size=t)
        u = rng.random((t, p))
        u[0], u[1] = 0.0, np.nextafter(1.0, 0.0)
        ids = knn._grid_ids(nbr.ravel(), np.repeat(inv * size, p), u.ravel(), grid)
        want = _old_grid_ids(nbr.ravel(), (inv * size).astype(np.int32), u, grid)
        assert ids.dtype == np.intp
        np.testing.assert_array_equal(ids, want.reshape(len(grid), t * p))

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("name", ["repeats", "distinct", "ties"])
    def test_chunked_search_labels_the_old_ids(self, monkeypatch, name, p):
        # Calls of 4 grid points' labels, built in blocks of 3 grid points:
        # the grid calls, concatenated, ask for the old build's ids in order.
        make, dist = _equivalence_case(name)
        new, ref = make(), make()
        grid = best_k_grid(new.size, p, 0.45)
        t = chernoff_iterations(0.15, 1.0 / (9.0 * len(grid)))
        monkeypatch.setattr(knn, "_GRID_CHUNK_LABELS", 4 * t * p)
        monkeypatch.setattr(knn, "_GRID_BLOCK_ROWS", 3)
        best_k(new, dist, p, 0.45, seed=p)
        calls = [len(b) for b in new.oracle.batches[1:]]
        assert calls == [4 * t * p] * (len(grid) // 4) + [len(grid) % 4 * t * p] * (len(grid) % 4 > 0)
        np.testing.assert_array_equal(
            np.concatenate(new.oracle.batches[1:]), _old_grid_stream(ref, dist, p, 0.45, p)
        )


class TestCoupledRanks:
    def test_extreme_uniforms_hit_the_end_ranks(self):
        ks = np.arange(1, 10**6 + 1)
        top = knn._coupled_ranks(np.array([[np.nextafter(1.0, 0.0)]]), ks)
        np.testing.assert_array_equal(top[:, 0, 0], ks - 1)
        bottom = knn._coupled_ranks(np.array([[0.0]]), ks)
        assert not bottom.any()

    def test_ranks_do_not_decrease_along_the_grid(self):
        grid = best_k_grid(5000, 3, 0.05)
        u = np.random.default_rng(17).random((500, 3))
        j = knn._coupled_ranks(u, grid)
        assert j.shape == (len(grid), 500, 3)
        assert np.all(np.diff(j, axis=0) >= 0)
        assert np.all(j < np.asarray(grid)[:, None, None])

    def test_budget_refuses_the_grid_call_whole(self):
        # G = 131, T' = 874, p = 2: the bill is 874 * (1 + 131 * 2) = 229,862
        # labels; one label short, the grid call is refused before any grid
        # label is charged.
        rng = np.random.default_rng(18)
        space = MetricSpace.euclidean1d(rng.random(400))
        target = TargetFunction.from_labels(rng.integers(0, 2, size=400))
        dist = id_distribution(np.arange(200, 400))
        bill = 874 * (1 + 131 * 2)
        inst = KnnInstance(space, np.arange(200), LabelOracle(target, budget=bill))
        best_k(inst, dist, 2, 0.2, seed=19)
        assert inst.oracle.used == bill
        inst = KnnInstance(space, np.arange(200), LabelOracle(target, budget=bill - 1))
        with pytest.raises(BudgetExceededError):
            best_k(inst, dist, 2, 0.2, seed=19)
        assert inst.oracle.used == 874


def test_bundled_best_k_search_bill():
    # The benchmark's configuration: G = 131 grid points, T' = 874 shared
    # test draws, 874 * (1 + 131 * 2) = 229,862 labels per search.
    bundle = _build_best_k(0.2, {"n": 200, "p": 2}, np.random.default_rng(0))
    _, table, used = bundle.info["search"](np.random.default_rng(1))
    g = len(table)
    assert g == 131
    assert used == chernoff_iterations(0.2 / 3, 1 / (9 * g)) * (1 + g * 2) == 229_862


def test_bundled_best_k_accuracy():
    # 30 seeded searches at n=60, p=1, eps=0.3: the chosen k's exact loss is
    # within eps of the exact best at least as often as the acceptance
    # suite's 2/3 rule demands, scaled from its trial count to 30.
    cfg = TrialConfig("best-k", eps=0.3, trials=30, seed=5, params={"n": 60, "p": 1})
    rep = run_trials(cfg)
    assert rep.successes >= math.ceil(30 * _NEED_TWO_THIRDS / _TRIALS)
