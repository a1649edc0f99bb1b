"""Tests for the truncated-composition solver and the block samplers."""

import itertools
import math

import numpy as np
import pytest

from activetest import (
    ActivePool,
    CompositionSpec,
    InsufficientPoolError,
    IntervalUnion,
    LabelOracle,
    TargetFunction,
    TruncatedBudget,
    WeightedSample,
    at_most_k_ones_spec,
    block_sample_count,
    choose_block_indices,
    composition_da,
    composition_plan,
    disjoint_union_da,
    disjoint_union_plan,
    distance_to_truncated_composition,
    exact_distance_to_intervals,
    interval_block_spec,
    uniform_block_index,
)
from activetest import intervals
from activetest.composition import ERM_SAMPLE_CONSTANT, ORACLE_REPETITIONS
from activetest.core import chernoff_iterations, median_repetitions


class TestTruncatedBudget:
    def test_fields(self):
        b = TruncatedBudget(total=7.5, cap=2)
        assert b.total == 7.5
        assert b.cap == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedBudget(total=-1.0, cap=2)
        with pytest.raises(ValueError):
            TruncatedBudget(total=3.0, cap=-1)
        bad = ((2, 1.7), (2, 2.0), (1, True), (math.nan, 2), (2, math.nan), (math.inf, 2), (2, math.inf))
        for total, cap in bad:
            with pytest.raises(ValueError, match="invalid parameter"):
                TruncatedBudget(total=total, cap=cap)


class TestUniformBlockIndex:
    def test_half_open_cut(self):
        idx = uniform_block_index([0.0, 0.25, 0.2500001, 0.5, 0.99, 1.0], 4)
        np.testing.assert_array_equal(idx, [0, 0, 1, 1, 3, 3])

    def test_all_blocks_reachable(self):
        rng = np.random.default_rng(0)
        idx = uniform_block_index(rng.random(2000), 8)
        assert set(np.unique(idx)) == set(range(8))


class TestAtMostKOnesSpec:
    def test_curve_drops_heaviest_ones_first(self):
        spec = at_most_k_ones_spec(1)
        s = WeightedSample(
            np.arange(4.0), np.array([0.1, 0.4, 0.2, 0.3]), labels=[1, 1, 0, 1]
        )
        (curve,) = spec.cost_curves(s, np.array([0, 4]), 4)
        np.testing.assert_allclose(curve, [0.8, 0.4, 0.1, 0.0, 0.0])
        assert spec.cost_curves(s, np.array([0, 4]), 2)[0, 2] == pytest.approx(0.1)

    def test_blocks_in_one_call_match_blocks_alone(self):
        # empty blocks between non-empty ones, one block of zeros only
        spec = at_most_k_ones_spec(4)
        s = WeightedSample(
            np.arange(5.0), np.array([0.1, 0.4, 0.2, 0.3, 0.25]), labels=[1, 1, 0, 0, 1]
        )
        edges = np.array([0, 0, 2, 4, 5, 5])
        curves = spec.cost_curves(s, edges, 3)
        assert curves.shape == (5, 4)
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            sub = WeightedSample(s.points[a:b], s.weights[a:b], s.labels[a:b])
            alone = spec.cost_curves(sub, np.array([0, b - a]), 3)[0]
            assert curves[i].tobytes() == alone.tobytes()
        np.testing.assert_array_equal(curves[[0, 2, 4]], 0.0)


def _brute_truncated(sample, ids, spec, budget):
    # every block's curve from a call on that block alone
    total = int(math.floor(budget.total))
    cap = min(int(budget.cap), total)
    curves = []
    for i in range(spec.num_blocks):
        mask = ids == i
        sub = WeightedSample(
            sample.points[mask], sample.weights[mask], sample.labels[mask]
        )
        curves.append(spec.cost_curves(sub, np.array([0, len(sub)]), cap)[0])
    best = math.inf
    for alloc in itertools.product(range(cap + 1), repeat=spec.num_blocks):
        if sum(alloc) > total:
            continue
        # a curve is flat past its last entry
        best = min(best, sum(c[min(k, len(c) - 1)] for c, k in zip(curves, alloc)))
    return best


class TestTruncatedDistance:
    def test_hand_instance(self):
        # two blocks, one unit of budget: spend it where the ones are heavy
        spec = at_most_k_ones_spec(2)
        s = WeightedSample(
            np.arange(4.0),
            np.array([0.4, 0.1, 0.3, 0.2]),
            labels=[1, 1, 1, 0],
        )
        ids = np.array([0, 0, 1, 1])
        out = distance_to_truncated_composition(
            s, ids, spec, TruncatedBudget(total=1, cap=1)
        )
        assert out == pytest.approx(0.4)

    @pytest.mark.parametrize("builder", [at_most_k_ones_spec, interval_block_spec])
    def test_matches_brute_force(self, builder):
        rng = np.random.default_rng(17)
        for _ in range(40):
            m = int(rng.integers(1, 5))
            spec = builder(m)
            n = int(rng.integers(m, 15))
            pts = rng.random(n)
            w = rng.random(n)
            w /= w.sum()
            labels = rng.integers(0, 2, size=n)
            s = WeightedSample(pts, w, labels)
            ids = rng.integers(0, m, size=n)
            budget = TruncatedBudget(
                total=int(rng.integers(0, 6)), cap=int(rng.integers(1, 4))
            )
            got = distance_to_truncated_composition(s, ids, spec, budget)
            assert got == pytest.approx(_brute_truncated(s, ids, spec, budget), abs=1e-12)

    def test_flat_tails_match_every_k_knapsack(self):
        # reference: the knapsack DP over every k <= kmax, at budgets beyond
        # brute-force reach
        def every_k(curves, total, kmax):
            dp = np.zeros(total + 1)
            for curve in curves:
                new = np.full(total + 1, np.inf)
                for k in range(kmax + 1):
                    new[k:] = np.minimum(new[k:], dp[: total + 1 - k] + curve[k])
                dp = new
            return float(dp.min())

        rng = np.random.default_rng(23)
        for trial in range(60):
            m = int(rng.integers(1, 7))
            cap = int(rng.integers(0, 41))
            total = int(rng.integers(0, 3 * cap + 2))
            curves = []
            for _ in range(m):
                # convex head: positive decrements in descending order
                drops = np.sort(np.round(rng.random(int(rng.integers(0, 6))), 2))[::-1]
                head = drops.sum() - np.concatenate(([0.0], np.cumsum(drops)))
                tail = np.full(cap + 1, head[-1])
                if trial % 2:
                    # upward drift within the monotonicity tolerance
                    tail += np.cumsum(rng.random(cap + 1)) * 1e-14
                curves.append(np.concatenate((head, tail))[: cap + 1])
            spec = CompositionSpec(
                num_blocks=m,
                cost_curves=lambda s, edges, kmax: np.array([c[: kmax + 1] for c in curves]),
            )
            sample = WeightedSample.uniform(rng.random(m), labels=np.zeros(m, dtype=int))
            got = distance_to_truncated_composition(
                sample, np.arange(m), spec, TruncatedBudget(total=total, cap=cap)
            )
            assert got == pytest.approx(every_k(curves, total, min(cap, total)), abs=1e-12)

    def test_cap_relaxation_is_monotone(self):
        spec = at_most_k_ones_spec(3)
        rng = np.random.default_rng(5)
        pts = rng.random(12)
        w = np.full(12, 1 / 12)
        labels = rng.integers(0, 2, size=12)
        s = WeightedSample(pts, w, labels)
        ids = rng.integers(0, 3, size=12)
        loose = distance_to_truncated_composition(
            s, ids, spec, TruncatedBudget(total=6, cap=6)
        )
        tight = distance_to_truncated_composition(
            s, ids, spec, TruncatedBudget(total=6, cap=1)
        )
        assert loose <= tight + 1e-12

    def test_validation(self):
        spec = at_most_k_ones_spec(2)
        s = WeightedSample.uniform(np.arange(4.0), labels=[0, 1, 0, 1])
        ids = np.array([0, 0, 1, 1])
        budget = TruncatedBudget(total=2, cap=1)
        with pytest.raises(ValueError, match="partition violation"):
            distance_to_truncated_composition(s, ids[:3], spec, budget)
        with pytest.raises(ValueError, match="partition violation"):
            distance_to_truncated_composition(s, np.array([0, 0, 1, 2]), spec, budget)
        with pytest.raises(ValueError, match="partition violation"):
            distance_to_truncated_composition(s, ids.astype(float), spec, budget)
        unlabeled = WeightedSample.uniform(np.arange(4.0))
        with pytest.raises(ValueError, match="domain mismatch"):
            distance_to_truncated_composition(unlabeled, ids, spec, budget)

    @pytest.mark.parametrize(
        "curve",
        [
            lambda kmax: np.arange(kmax + 1.0),  # increasing
            lambda kmax: np.array([1.0, 0.9, 0.2, 0.2])[: kmax + 1],  # not convex
        ],
    )
    def test_non_monotone_curve_rejected(self, curve):
        spec = CompositionSpec(
            num_blocks=1, cost_curves=lambda s, edges, kmax: curve(kmax)[None]
        )
        s = WeightedSample.uniform(np.zeros(2), labels=[0, 1])
        with pytest.raises(ValueError, match="invalid class parameter"):
            distance_to_truncated_composition(
                s, np.zeros(2, dtype=int), spec, TruncatedBudget(total=2, cap=2)
            )

    @pytest.mark.parametrize("shape", [(1, 3), (3, 2), (2,), (2, 3, 1), (2, 4), (2, 0)])
    def test_curve_array_of_another_shape_rejected(self, shape):
        spec = CompositionSpec(num_blocks=2, cost_curves=lambda s, edges, kmax: np.zeros(shape))
        s = WeightedSample.uniform(np.zeros(2), labels=[0, 1])
        with pytest.raises(ValueError, match="invalid class parameter"):
            distance_to_truncated_composition(
                s, np.array([0, 1]), spec, TruncatedBudget(total=2, cap=2)
            )

    def test_one_curve_call_and_one_kernel_call_per_solve(self, monkeypatch):
        # Work guard, no timing: the solver asks the spec once for every
        # block's curve, empty blocks included, and the interval spec
        # answers with one kernel call, so a call per block fails here.
        kernel_calls, curve_calls = [], []
        kernel = intervals._merge_curve
        monkeypatch.setattr(
            intervals, "_merge_curve", lambda *a: kernel_calls.append(1) or kernel(*a)
        )
        spec = interval_block_spec(6)
        counted = CompositionSpec(6, lambda *a: curve_calls.append(1) or spec.cost_curves(*a))
        rng = np.random.default_rng(31)
        s = WeightedSample.uniform(rng.random(60), labels=rng.integers(0, 2, size=60))
        ids = spec.block_of(s.points)
        ids[ids == 2] = 3  # block 2 left empty
        budget = TruncatedBudget(total=4, cap=2)
        got = distance_to_truncated_composition(s, ids, counted, budget)
        assert curve_calls == [1] and kernel_calls == [1]
        assert got == pytest.approx(_brute_truncated(s, ids, spec, budget), abs=1e-12)


class TestBlockSamplers:
    def test_choose_block_indices(self):
        idx = choose_block_indices(10, 4, np.random.default_rng(1))
        assert idx.shape == (4,)
        assert np.all(np.diff(idx) > 0)
        full = choose_block_indices(3, 9, np.random.default_rng(2))
        np.testing.assert_array_equal(full, [0, 1, 2])

    def test_block_sample_count_formula(self):
        assert block_sample_count(0.25, 0.5) == max(
            1, math.ceil(0.5 * (1 / (0.25 * 0.25) + 1 / 0.0625))
        )
        with pytest.raises(ValueError):
            block_sample_count(0.0, 0.5)
        with pytest.raises(ValueError):
            block_sample_count(0.1, 0.0)


class TestCompositionPlan:
    @pytest.mark.parametrize("m", [1, 40, 10_000])
    @pytest.mark.parametrize(
        "lam,eps,mu", [(2.0, 0.15, 0.5), (1.0, 0.3, 0.5), (0.5, 0.25, 2.0), (41.0, 0.1, 0.0244)]
    )
    def test_matches_inline_formulas(self, m, lam, eps, mu):
        plan = composition_plan(m, lam, eps, mu)
        # composition_da's former inline sizing, then the compose-da pool's
        # copy of the erm formula
        l = min(m, block_sample_count(eps, mu))
        d_knap = int(math.floor((1.0 + mu / 2.0) * lam * l))
        erm = max(
            1,
            math.ceil(
                ERM_SAMPLE_CONSTANT * 2.0 * max(d_knap, 1) * math.log(2.0 / eps) / (eps / 2.0) ** 2
            ),
        )
        assert plan == {
            "l": l,
            "total": d_knap,
            "cap": max(1, int(math.floor(4.0 * lam / eps))),
            "erm_samples": erm,
            "repetitions": ORACLE_REPETITIONS,
        }
        erm_scale = ERM_SAMPLE_CONSTANT * 2.0 * max(1, math.floor((1.0 + mu / 2.0) * lam * l))
        assert plan["erm_samples"] == max(
            1, math.ceil(erm_scale * math.log(2.0 / eps) / (eps / 2.0) ** 2)
        )

    @pytest.mark.parametrize("m", [0, -3])
    def test_no_blocks_rejected(self, m):
        with pytest.raises(ValueError, match="invalid parameter"):
            composition_plan(m, 2.0, 0.15, 0.5)

    def test_erm_samples_override(self):
        plan = composition_plan(40, 2.0, 0.15, 0.5, erm_samples=50)
        assert plan == {**composition_plan(40, 2.0, 0.15, 0.5), "erm_samples": 50}


class TestCompositionDa:
    def test_zero_distance_target_estimates_zero(self):
        # the target is one interval per block, well inside the budget
        target = TargetFunction(IntervalUnion([[0.0, 0.5]]).evaluate)
        rng = np.random.default_rng(8)
        pool = ActivePool(rng.random(400), LabelOracle(target))
        out = composition_da(
            pool,
            interval_block_spec(10),
            2.0,
            0.25,
            0.5,
            seed=9,
            erm_samples=50,
        )
        assert out.value == 0.0
        assert pool.oracle.used == out.queries_used == 50 * 3
        assert out.unlabeled_used == pool.unlabeled_used

    def test_label_spend_scales_with_erm_and_repetitions(self):
        target = TargetFunction.constant(0)
        rng = np.random.default_rng(12)
        pool = ActivePool(rng.random(800), LabelOracle(target))
        composition_da(
            pool,
            interval_block_spec(6),
            1.0,
            0.3,
            0.5,
            seed=13,
            erm_samples=40,
        )
        assert pool.oracle.used == 40 * ORACLE_REPETITIONS

    def test_insufficient_pool(self):
        pool = ActivePool(
            np.random.default_rng(0).random(30), LabelOracle(TargetFunction.constant(0))
        )
        with pytest.raises(InsufficientPoolError):
            composition_da(
                pool, interval_block_spec(4), 1.0, 0.3, 0.5, seed=1, erm_samples=50
            )

    def test_validation(self):
        pool = ActivePool(np.zeros(10), LabelOracle(TargetFunction.constant(0)))
        spec = interval_block_spec(4)
        with pytest.raises(ValueError, match="invalid parameter"):
            composition_da(pool, spec, 1.0, 1.5, 0.5)
        with pytest.raises(ValueError, match="invalid parameter"):
            composition_da(pool, spec, 1.0, 0.3, 0.0)
        with pytest.raises(ValueError, match="invalid parameter"):
            composition_da(pool, spec, 0.0, 0.3, 0.5)
        no_partition = CompositionSpec(
            num_blocks=4, cost_curves=lambda s, edges, kmax: np.zeros((len(edges) - 1, kmax + 1))
        )
        with pytest.raises(ValueError, match="partition violation"):
            composition_da(pool, no_partition, 1.0, 0.3, 0.5)

    @pytest.mark.parametrize("bad", [-1, 4, 0.5])
    def test_bad_block_ids_rejected(self, bad):
        # an id of -1 would read block m - 1 and one of m past the end
        pool = ActivePool(
            np.random.default_rng(3).random(800), LabelOracle(TargetFunction.constant(0))
        )
        spec = CompositionSpec(
            4,
            interval_block_spec(4).cost_curves,
            block_of=lambda pts: np.where(pts < 0.5, bad, 1),
        )
        with pytest.raises(ValueError, match="partition violation"):
            composition_da(pool, spec, 1.0, 0.3, 0.5, seed=1, erm_samples=50)

    def test_each_drawn_point_mapped_to_its_block_once(self):
        # the hits' block ids from the draw loop feed the solver: block_of
        # sees exactly the points read, none of them again per repetition
        spec = interval_block_spec(10)
        mapped = []

        def block_of(pts):
            mapped.append(len(pts))
            return spec.block_of(pts)

        pool = ActivePool(
            np.random.default_rng(8).random(400),
            LabelOracle(TargetFunction(IntervalUnion([[0.0, 0.5]]).evaluate)),
        )
        counted = CompositionSpec(10, spec.cost_curves, block_of=block_of)
        out = composition_da(pool, counted, 2.0, 0.25, 0.5, seed=9, erm_samples=50)
        assert sum(mapped) == out.unlabeled_used
        assert out == composition_da(
            ActivePool(np.random.default_rng(8).random(400), pool.oracle),
            spec, 2.0, 0.25, 0.5, seed=9, erm_samples=50,
        )


def _block_of_halves(pts):
    return (np.asarray(pts) >= 0.5).astype(np.intp)


class TestDisjointUnionDa:
    def test_mean_of_blockwise_estimates(self):
        eps = 0.4
        s = chernoff_iterations(eps / 4.0, 1.0 / 9.0)
        rng = np.random.default_rng(44)
        points = rng.random(s + 6000)
        pool = ActivePool(points, LabelOracle(TargetFunction.constant(0)))

        def per_block(sub, reps, inner_eps, inner_rng):
            pts, _ = sub.take_rest()
            return [0.4 if part.min() >= 0.5 else 0.0 for part in pts.reshape(reps, -1)]

        out = disjoint_union_da(
            pool,
            per_block,
            eps,
            num_blocks=2,
            block_of=_block_of_halves,
            block_pool_size=3,
            seed=45,
        )
        expected = float(np.mean(np.where(points[:s] >= 0.5, 0.4, 0.0)))
        assert out.value == pytest.approx(expected, abs=1e-12)
        assert (out.queries_used, out.unlabeled_used) == (0, len(points))

    def test_blocks_without_enough_points_raise(self):
        rng = np.random.default_rng(46)
        pool = ActivePool(rng.random(300), LabelOracle(TargetFunction.constant(0)))
        with pytest.raises(InsufficientPoolError, match="insufficient pool"):
            disjoint_union_da(
                pool,
                lambda sub, reps, e, r: np.ones(reps),
                0.4,
                num_blocks=2,
                block_of=_block_of_halves,
                block_pool_size=10**6,
                seed=47,
            )

    def test_interval_blocks_end_to_end(self):
        # left half constant 0, right half striped: union distance 0.2 at d=1
        def target_fn(pts):
            pts = np.asarray(pts)
            return (
                (pts >= 0.5) & (((pts - 0.5) // 0.1).astype(int) % 2 == 0)
            ).astype(np.int8)

        target = TargetFunction(target_fn)
        eps = 0.4
        s, reps = disjoint_union_plan(eps, 2)
        rng = np.random.default_rng(48)
        pool = ActivePool(rng.random(s + 2 * reps * 60 + 4000), LabelOracle(target))

        def per_block(sub, reps, inner_eps, inner_rng):
            pts, idx = sub.take_rest()
            labels = sub.label(idx)
            return [
                exact_distance_to_intervals(WeightedSample.uniform(p, l), 1)[0]
                for p, l in zip(pts.reshape(reps, -1), labels.reshape(reps, -1))
            ]

        out = disjoint_union_da(
            pool,
            per_block,
            eps,
            num_blocks=2,
            block_of=_block_of_halves,
            block_pool_size=60,
            seed=49,
        )
        assert out.value == pytest.approx(0.2, abs=0.15)
        assert out.queries_used == pool.oracle.used == 2 * reps * 60

    @pytest.mark.parametrize(
        "bad",
        [
            lambda reps: 0.0,
            lambda reps: np.zeros(reps - 1),
            lambda reps: np.zeros(reps + 1),
            lambda reps: np.zeros((reps, 1)),
            lambda reps: np.r_[np.zeros(reps - 1), np.nan],
            lambda reps: np.r_[np.inf, np.zeros(reps - 1)],
            lambda reps: ["x"] * reps,
            lambda reps: {r: 0.0 for r in range(reps)},
            lambda reps: None,
        ],
    )
    def test_callback_must_return_reps_finite_estimates(self, bad):
        s, _ = disjoint_union_plan(0.4, 2)
        pool = ActivePool(
            np.random.default_rng(53).random(s + 400), LabelOracle(TargetFunction.constant(0))
        )
        with pytest.raises(ValueError, match="invalid estimate"):
            disjoint_union_da(
                pool,
                lambda sub, reps, e, r: bad(reps),
                0.4,
                num_blocks=2,
                block_of=_block_of_halves,
                block_pool_size=2,
                seed=54,
            )

    def test_slice_rule_is_not_checked(self):
        # the docstring leaves the slice rule to the callback: one that
        # labels and averages the whole block pool for every repetition
        # passes unnoticed
        s, _ = disjoint_union_plan(0.4, 2)
        pool = ActivePool(
            np.random.default_rng(55).random(s + 400), LabelOracle(TargetFunction.constant(0))
        )
        seen = []

        def per_block(sub, reps, inner_eps, inner_rng):
            pts, idx = sub.take_rest()
            sub.label(idx)
            seen.append((reps, pts.shape[0]))
            return np.full(reps, pts.mean())

        out = disjoint_union_da(
            pool,
            per_block,
            0.4,
            num_blocks=2,
            block_of=_block_of_halves,
            block_pool_size=2,
            seed=56,
        )
        assert seen and all(n == 2 * reps for reps, n in seen)
        assert 0.0 < out.value < 1.0

    def test_plan_bounds_distinct_blocks_not_draws(self):
        assert disjoint_union_plan(0.1, 2) == (2313, 53)
        assert median_repetitions(1.0 / 18.0) == 53
        s = chernoff_iterations(0.4 / 4.0, 1.0 / 9.0)
        assert disjoint_union_plan(0.4, 1) == (s, median_repetitions(1.0 / 9.0))
        # more blocks than draws: at most s of them are distinct
        old_reps = median_repetitions(1.0 / (9.0 * s))
        assert disjoint_union_plan(0.4, s) == (s, old_reps)
        assert disjoint_union_plan(0.4, 10 * s) == (s, old_reps)

    @staticmethod
    def _counted_run(eps, num_blocks, block_of, extra):
        s, _ = disjoint_union_plan(eps, num_blocks)
        pool = ActivePool(
            np.random.default_rng(50).random(s + extra),
            LabelOracle(TargetFunction.constant(0)),
        )
        calls: dict[int, int] = {}
        invoked: list[int] = []

        def per_block(sub, reps, inner_eps, inner_rng):
            pts, _ = sub.take_rest()
            (b,) = np.unique(block_of(pts))
            invoked.append(int(b))
            for part in pts.reshape(reps, -1):
                (b,) = np.unique(block_of(part))
                calls[int(b)] = calls.get(int(b), 0) + 1
            return np.zeros(reps)

        disjoint_union_da(
            pool,
            per_block,
            eps,
            num_blocks=num_blocks,
            block_of=block_of,
            block_pool_size=1,
            seed=51,
        )
        # one callback per distinct drawn block, each handed all its slices
        assert sorted(invoked) == sorted(set(invoked)) == sorted(calls)
        return calls

    def test_reps_per_distinct_block(self):
        calls = self._counted_run(0.1, 2, _block_of_halves, 500)
        assert calls == {0: 53, 1: 53}

    def test_more_blocks_than_draws_keeps_draw_bound(self):
        s, reps = disjoint_union_plan(0.4, 1000)
        assert reps == median_repetitions(1.0 / (9.0 * s))

        def first_block(pts):
            return np.zeros(np.asarray(pts).shape[0], dtype=np.intp)

        assert self._counted_run(0.4, 1000, first_block, reps) == {0: reps}

    @pytest.mark.parametrize("bad_id", [2, -1])
    @pytest.mark.parametrize("where", ["draws", "rest"])
    def test_block_ids_outside_partition_rejected(self, bad_id, where):
        eps = 0.4
        s, _ = disjoint_union_plan(eps, 2)
        points = np.full(s + 50, 0.25)
        points[0 if where == "draws" else s + 10] = 7.0

        def block_of(pts):
            pts = np.asarray(pts)
            return np.where(pts > 1.0, bad_id, _block_of_halves(pts))

        pool = ActivePool(points, LabelOracle(TargetFunction.constant(0)))
        with pytest.raises(ValueError, match="partition violation"):
            disjoint_union_da(
                pool,
                lambda sub, reps, e, r: np.zeros(reps),
                eps,
                num_blocks=2,
                block_of=block_of,
                block_pool_size=1,
            )

    def test_non_integer_block_ids_rejected(self):
        # ids in [0, 1.9) would truncate to 0 and 1, inside the partition
        pool = ActivePool(
            np.random.default_rng(52).random(3000), LabelOracle(TargetFunction.constant(0))
        )
        with pytest.raises(ValueError, match="partition violation"):
            disjoint_union_da(
                pool,
                lambda sub, reps, e, r: np.zeros(reps),
                0.4,
                num_blocks=2,
                block_of=lambda p: p * 1.9,
                block_pool_size=1,
            )

    @pytest.mark.parametrize("num_blocks", [0, -2, 1.0, 2.5, True, None])
    def test_num_blocks_must_be_positive_int(self, num_blocks):
        pool = ActivePool(np.zeros(5), LabelOracle(TargetFunction.constant(0)))
        with pytest.raises(ValueError, match="partition violation"):
            disjoint_union_da(
                pool,
                lambda sub, reps, e, r: np.zeros(reps),
                0.4,
                num_blocks=num_blocks,
                block_of=_block_of_halves,
                block_pool_size=1,
            )

    @pytest.mark.parametrize("size", [0, -3])
    def test_block_pool_size_below_one_rejected_before_drawing(self, size):
        pool = ActivePool(np.full(5000, 0.75), LabelOracle(TargetFunction.constant(0)))
        with pytest.raises(ValueError, match="invalid parameter"):
            disjoint_union_da(
                pool,
                lambda sub, reps, e, r: np.zeros(reps),
                0.4,
                num_blocks=2,
                block_of=_block_of_halves,
                block_pool_size=size,
            )
        assert pool.unlabeled_used == pool.oracle.used == 0

    def test_eps_validation(self):
        pool = ActivePool(np.zeros(5), LabelOracle(TargetFunction.constant(0)))
        with pytest.raises(ValueError):
            disjoint_union_da(
                pool,
                lambda sub, reps, e, r: np.zeros(reps),
                1.5,
                num_blocks=2,
                block_of=_block_of_halves,
                block_pool_size=5,
            )
