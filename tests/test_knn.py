"""Tests for metric spaces, k-NN predictors, and the loss estimators."""

import json
import math

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
        lesser = line_instance.neighbor_ids([3], 2)
        greater = line_instance.neighbor_ids([3], 4)
        np.testing.assert_array_equal(greater[:, :2], lesser)

    def test_stable_tie_break(self):
        space = MetricSpace.euclidean1d([0.0, 1.0, -1.0])
        inst = KnnInstance(space, [1, 2], TargetFunction.from_labels([0, 0, 0]))
        # both pool points are at distance 1 from id 0: earlier pool slot wins
        np.testing.assert_array_equal(inst.neighbor_ids([0], 1), [[1]])

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
        assert np.array_equal(inst.neighbor_ids(x, k), inst.pool[full[:, :k]])
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
            assert k < inst.size and rows.shape == (ids.size, k)
            assert np.all(np.diff(ids) > 0)

    def test_star_keys_share_explicit_distance_rows(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            space = _memo_space("star", rng)
            pool = rng.integers(0, space.n, size=int(rng.integers(1, 2 * space.star_size + 2)))
            keys = space.ranking_keys(pool)
            d = space.to_explicit().matrix[:, pool]
            assert np.array_equal(d, d[keys])
            ids = np.arange(space.n)
            leaf = ids % space.star_size >= space.m
            folded = leaf & ~np.isin(ids, pool)
            assert np.array_equal(keys[~folded], ids[~folded])
            # one key per star that has an off-pool leaf
            stars = np.unique(ids[folded] // space.star_size)
            assert np.unique(keys[folded]).size == stars.size
            explicit = KnnInstance(space.to_explicit(), pool, TargetFunction.constant(0))
            inst = KnnInstance(space, pool, TargetFunction.constant(0))
            for k in range(1, inst.size + 1):
                assert np.array_equal(inst.ranking(ids, k), explicit.ranking(ids, k))

    def test_full_rankings_bypass_the_memo(self):
        space = MetricSpace.euclidean1d(np.linspace(0.0, 1.0, 9))
        inst = KnnInstance(space, np.arange(0, 9, 2), TargetFunction.constant(0))
        inst.ranking(np.arange(9))
        inst.ranking(np.arange(9), inst.size)
        inst.ranking(np.arange(9), inst.size + 3)
        assert inst._memo == {}
        inst.ranking(np.arange(9), 2)
        assert list(inst._memo) == [2]

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
        truth = exact_soft_loss(line_instance, np.arange(6), None, 3, 1)
        est = estimate_soft_loss_pth(line_instance, dist, 3, 1, 0.05, seed=8)
        assert est.value == pytest.approx(truth, abs=0.05)


class TestExactOracles:
    def test_table_matches_single_k(self, line_instance):
        table = exact_soft_loss_table(line_instance, np.arange(6), None, 2)
        assert table.shape == (6,)
        for k in (1, 3, 6):
            assert table[k - 1] == pytest.approx(
                exact_soft_loss(line_instance, np.arange(6), None, k, 2)
            )

    def test_hard_error_hand_value(self, line_instance):
        # k=1 on the pool itself: every point is its own neighbor
        assert exact_hard_error(line_instance, np.arange(6), None, 1) == 0.0

    def test_weighted_probs(self, line_instance):
        probs = np.array([1.0, 0, 0, 0, 0, 0])
        val = exact_hard_error(line_instance, np.arange(6), probs, 3)
        # id 0 neighbors at k=3: 0,1,2 -> vote 0, truth 0
        assert val == 0.0

    def test_oracle_not_charged(self, line_instance):
        exact_soft_loss_table(line_instance, np.arange(6), None, 3)
        exact_hard_error(line_instance, np.arange(6), None, 3)
        assert line_instance.oracle.used == 0


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
        truth = exact_soft_loss(line_instance, np.arange(6), None, 3, 1)

        def weights_of(dists):
            cut = np.sort(dists)[2]
            w = (dists <= cut).astype(float)
            return w

        wnn = exact_weighted_nn_loss(
            line_instance, weights_of, np.arange(6), None, 1
        )
        assert wnn == pytest.approx(truth)

        est = estimate_weighted_nn_loss(
            line_instance, weights_of, id_distribution(np.arange(6)), 1, 0.1, seed=12
        )
        t = chernoff_iterations(0.1, 1 / 3)
        assert est.queries_used == t * 2 == line_instance.oracle.used
        assert est.value == pytest.approx(truth, abs=0.1)

    def test_degenerate_weights_rejected(self, line_instance):
        with pytest.raises(ValueError, match="degenerate weights"):
            estimate_weighted_nn_loss(
                line_instance,
                lambda d: np.zeros(6),
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
            table = exact_soft_loss_table(inst, np.arange(20), None, p)
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
    chosen = np.take_along_axis(inst.neighbor_ids(x, k), j, axis=1)
    fj = inst.oracle.query_many(chosen.ravel()).reshape(t, p)
    return float(np.prod(np.abs(fj - fx[:, None]).astype(float), axis=1).mean())


def _reference_lipschitz(inst, dist, k, loss, lipschitz, eps, seed):
    rng = np.random.default_rng(seed)
    t = chernoff_iterations(eps / 2.0, 1.0 / 6.0)
    w = lipschitz_inner_samples(lipschitz, eps, t)
    x, fx = _reference_draws(inst, dist, t, rng)
    j = rng.integers(0, k, size=(t, w))
    chosen = np.take_along_axis(inst.neighbor_ids(x, k), j, axis=1)
    fj = inst.oracle.query_many(chosen.ravel()).reshape(t, w)
    return float(np.mean([float(loss(z)) for z in np.abs(fj.mean(axis=1) - fx)]))


def _reference_hard(inst, dist, k, eps, seed):
    rng = np.random.default_rng(seed)
    t = chernoff_iterations(eps, 1.0 / 3.0)
    x, fx = _reference_draws(inst, dist, t, rng)
    fj = inst.oracle.query_many(inst.neighbor_ids(x, k).ravel()).reshape(t, k)
    pred = (fj.mean(axis=1) > 0.5).astype(np.int8)
    return float(np.abs(pred - fx).astype(float).mean())


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


def test_best_k_ranks_each_distinct_test_id_once(monkeypatch):
    # Work guard, no timing: on the bundled n=200, p=2 search (874 test
    # draws over 200 distinct test ids) the ranked rows must not exceed the
    # distinct test ids, so a return to per-draw ranking fails here.
    bundle = _build_best_k(0.2, {"n": 200, "p": 2}, np.random.default_rng(0))
    rows = []
    ranking = KnnInstance.ranking

    def counting_ranking(self, x_ids):
        out = ranking(self, x_ids)
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
