"""Tests for Bernoulli arms, good-arm counting, and the star constructions."""

import json
import math

import numpy as np
import pytest
from scipy.stats import binom

from activetest import (
    ArmSet,
    KnnInstance,
    TargetFunction,
    aga_schedule,
    build_star_instance_hard,
    build_star_instance_soft,
    chernoff_iterations,
    exact_hard_error,
    good_arm_means,
    hard_gamma,
    id_distribution,
    natural_aga,
    pull,
    pull_many,
    recover_good_fraction,
    star_hard_plan,
    star_instance_from_json,
    star_instance_to_json,
    star_metadata,
    star_soft_plan,
    verify_triangle,
)
from activetest.bandit import AGA_BIAS_SHARE, _assemble, _StarSpace
from activetest.harness import _NEED_TWO_THIRDS, _TRIALS, _build_star_hard


class TestArmSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArmSet([])
        with pytest.raises(ValueError):
            ArmSet([0.5, 1.2])
        with pytest.raises(ValueError):
            ArmSet([0.5], gamma=0.7)

    def test_good_mask(self):
        arms = ArmSet([0.9, 0.1, 0.7])
        np.testing.assert_array_equal(arms.good_mask(0.2), [True, False, True])

    def test_good_mask_regime_violation(self):
        arms = ArmSet([0.9, 0.55])
        with pytest.raises(ValueError, match="parameter regime violated"):
            arms.good_mask(0.2)

    def test_pull_counters_and_determinism_at_extremes(self):
        arms = ArmSet([0.0, 1.0])
        assert pull(arms, 0, seed=0) == 0
        draws = pull_many(arms, 1, 5, seed=1)
        np.testing.assert_array_equal(draws, np.ones(5))
        np.testing.assert_array_equal(arms.pulls, [1, 5])
        with pytest.raises(ValueError):
            pull(arms, 2)
        with pytest.raises(ValueError):
            pull_many(arms, 0, -1)


class TestAgaSchedule:
    def test_formula(self):
        eps, gamma, f = 0.1, 0.2, AGA_BIAS_SHARE
        s, q = aga_schedule(eps, gamma)
        assert s == chernoff_iterations((1 - f) * eps, 1 / 3)
        assert q == math.ceil(math.log(1 / (f * eps)) / (2 * gamma**2))
        assert aga_schedule(0.05, 0.1) == (443, 265)

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 0.2, 0.5])
    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.3, 0.5])
    def test_proof_step_holds_exactly(self, eps, gamma):
        # Bias: a majority of q pulls misclassifies a good arm (mean 1/2+gamma,
        # at most q/2 positives) or a bad one (mean 1/2-gamma, more than q/2)
        # with probability at most f*eps, by the exact binomial tails.
        # Sampling: Hoeffding's two-sided tail at (1-f)*eps over s arms.
        f = AGA_BIAS_SHARE
        s, q = aga_schedule(eps, gamma)
        half = q // 2
        assert binom.cdf(half, q, 0.5 + gamma) <= f * eps
        assert binom.sf(half, q, 0.5 - gamma) <= f * eps
        assert 2 * math.exp(-2 * s * ((1 - f) * eps) ** 2) <= 1 / 3

    def test_validation(self):
        with pytest.raises(ValueError):
            aga_schedule(0.0, 0.2)
        with pytest.raises(ValueError):
            aga_schedule(0.1, 0.6)


class TestNaturalAga:
    def test_extremes_are_exact(self):
        all_good = ArmSet(np.full(7, 0.9))
        assert natural_aga(all_good, 0.3, 0.2, seed=2).value == 1.0
        all_bad = ArmSet(np.full(7, 0.1))
        assert natural_aga(all_bad, 0.3, 0.2, seed=3).value == 0.0

    def test_pull_count_is_schedule_product(self):
        arms = ArmSet(np.where(np.arange(10) < 5, 0.9, 0.1))
        out = natural_aga(arms, 0.4, 0.2, seed=4)
        s, q = aga_schedule(0.2, 0.4)
        assert arms.pulls.sum() == s * q == out.queries_used
        assert out.unlabeled_used == 0
        assert abs(out.value - 0.5) <= 0.2

    @pytest.mark.parametrize("good_frac", [0.1, 0.5, 0.9])
    def test_seeded_accuracy_on_skewed_and_balanced_packs(self, good_frac):
        # 300 seeded estimates at eps=0.2, gamma=0.1 over 200 arms land within
        # eps of the good fraction at least as often as the acceptance suite's
        # 2/3 rule demands, scaled from its trial count to 300.
        eps, gamma, trials = 0.2, 0.1, 300
        means = good_arm_means(200, gamma, good_frac)
        truth = np.mean(means > 0.5)
        hits = sum(
            abs(natural_aga(ArmSet(means), gamma, eps, seed=seed).value - truth) <= eps
            for seed in range(trials)
        )
        assert hits >= math.ceil(trials * _NEED_TWO_THIRDS / _TRIALS)

    @pytest.mark.parametrize("n", [1, 7, 200, 10_000])
    def test_pulls_do_not_depend_on_arm_count(self, n):
        arms = ArmSet(good_arm_means(n, 0.1, 0.5))
        natural_aga(arms, 0.1, 0.2, seed=n)
        s, q = aga_schedule(0.2, 0.1)
        assert arms.pulls.sum() == s * q == 28 * 196

    def test_gap_violation_spends_nothing(self):
        arms = ArmSet([0.9, 0.5])
        with pytest.raises(ValueError, match="parameter regime violated"):
            natural_aga(arms, 0.2, 0.1, seed=5)
        assert arms.pulls.sum() == 0


class TestPlans:
    def test_hard_gamma(self):
        assert hard_gamma(100, 0.2) == pytest.approx(
            math.sqrt(math.log(5.0) / 100)
        )
        assert hard_gamma(1, 0.2, constant=10.0) == 0.5
        with pytest.raises(ValueError):
            hard_gamma(0, 0.2)

    def test_soft_plan_formulas(self):
        plan = star_soft_plan(2, 0.25, constants=(1.0, 0.5, 0.1))
        assert plan["k"] == math.ceil(4 / 0.0625)
        assert plan["b"] == math.ceil(6 / 0.25)
        assert plan["N"] == math.ceil(0.5 * (1 + plan["b"]) * plan["k"])
        assert plan["m"] == math.ceil(0.1 * plan["N"] ** 2 / (1 + plan["b"]))
        assert plan["points"] == plan["m"] * (1 + plan["b"])

    def test_hard_plan_formulas(self):
        plan = star_hard_plan(4, 3, 0.25, constants=(0.5, 0.01))
        assert plan["b"] == math.ceil(3 / 0.25)
        assert plan["N"] == math.ceil(0.5 * (1 + plan["b"]) * 4 * (3 + math.log(4.0)))
        assert plan["m"] == math.ceil(0.01 * plan["N"] ** 2 / ((1 + plan["b"]) * 4))
        assert plan["points"] == 4 * plan["m"] * (1 + plan["b"])

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            star_soft_plan(0, 0.2)
        with pytest.raises(ValueError):
            star_hard_plan(2, 2, 0.2, constants=(0.0, 1.0))


def _tiny_hard_instance(seed=7):
    return build_star_instance_hard(
        2, [0.9, 0.1], 2, 0.3, constants=(0.2, 0.5), seed=seed
    )


def _all_ids(si):
    return id_distribution(np.arange(si.instance.space.n))


def _center_mask(space: _StarSpace) -> np.ndarray:
    # Each star holds its m centers first, then its leaves.
    return np.arange(space.n) % space.star_size < space.m


class TestStarGeometry:
    def test_distance_structure(self):
        si = _tiny_hard_instance()
        space = si.instance.space
        m, size = si.m, space.star_size
        # two centers of star 0
        assert space.dist(0, 1) == 1.0
        # two leaves of star 0
        assert space.dist(m, m + 1) == 2.0
        # center to a leaf of its own star: that center's radius
        assert space.dist(0, m) == pytest.approx(space.radii[0])
        assert 1.0 < space.dist(0, m) < 2.0
        # across stars
        assert space.dist(0, size) == 10.0
        assert space.dist(0, 0) == 0.0

    def test_is_a_metric(self):
        si = _tiny_hard_instance()
        assert verify_triangle(si.instance.space.to_explicit())

    def test_labels_and_pool(self):
        si = _tiny_hard_instance()
        center = _center_mask(si.instance.space)
        assert np.all(si.labels[~center] == 0)
        assert si.instance.pool.shape == (si.N,)
        assert np.count_nonzero(center) == 2 * si.m
        assert np.count_nonzero(~center) == 2 * si.m * si.b

    @pytest.mark.parametrize(
        "n_stars, m, b, radii",
        [
            (0, 1, 1, []),
            (1, 0, 1, []),
            (1, 2, -3, [1.2, 1.4]),
            (1, 1.5, 1, [1.2]),
            (2.0, 1, 1, [1.2, 1.4]),
            (1, 1, 0.5, [1.2]),
        ],
    )
    def test_bad_sizes_rejected(self, n_stars, m, b, radii):
        with pytest.raises(ValueError, match="invalid parameter"):
            _StarSpace(n_stars, m, b, radii)

    def test_soft_construction_labels(self):
        si = build_star_instance_soft(1, 0.3, 0.0, constants=(1.0, 0.5, 0.02), seed=8)
        assert si.n == 1
        center = _center_mask(si.instance.space)
        assert np.all(si.labels[~center] == 1)
        assert np.all(si.labels[center] == 0)  # coin mean zero
        sure = build_star_instance_soft(1, 0.3, 1.0, constants=(1.0, 0.5, 0.02), seed=8)
        assert np.all(sure.labels == 1)
        with pytest.raises(ValueError):
            build_star_instance_soft(1, 0.3, 1.5)


def _random_star_space(rng, min_stars: int = 1) -> _StarSpace:
    n = int(rng.integers(min_stars, 4))
    m, b = (int(v) for v in rng.integers(1, 4, size=2))
    slots = 10 * n * m
    radii = 1.0 + (rng.permutation(slots)[: n * m] + 0.5) / slots
    return _StarSpace(n, m, b, radii)


def _random_star_pool(rng, space: _StarSpace, short: bool) -> np.ndarray:
    # Uniform draws, so ids repeat; a short star 0 keeps a single pool point.
    pool = rng.integers(0, space.n, size=int(rng.integers(2, 2 * space.star_size + 2)))
    if short:
        pool = np.append(pool[pool >= space.star_size], rng.integers(0, space.star_size))
    return pool


def _random_hard_instance(rng, short: bool):
    space = _random_star_space(rng, 2 if short else 1)
    ids = np.arange(space.n)
    labels = np.zeros(space.n, dtype=np.int8)
    centers = ids[ids % space.star_size < space.m]
    labels[centers] = rng.integers(0, 2, size=centers.shape[0])
    pool = _random_star_pool(rng, space, short)
    k = int(rng.integers(1, pool.shape[0] + 1))
    return _assemble(space, labels, pool, k, (), None)


class TestStarRanking:
    """The star-local ranking is exactly the stable argsort's k-prefix."""

    def test_matches_argsort_prefix(self):
        rng = np.random.default_rng(50)
        short_seen = 0
        for i in range(150):
            short = i % 3 == 0
            space = _random_star_space(rng, 2 if short else 1)
            pool = _random_star_pool(rng, space, short)
            inst = KnnInstance(space, pool, TargetFunction.constant(0))
            # every pool id is queried, plus off-pool ids
            x = np.concatenate([np.unique(pool), rng.integers(0, space.n, size=5)])
            full = np.argsort(space.cross(x, pool), axis=1, kind="stable")
            n = inst.size
            star0 = np.count_nonzero(pool < space.star_size)
            for k in sorted({1, max(1, n // 2), max(1, n - 1), n}):
                assert np.array_equal(inst.ranking(x, k), full[:, :k])
                short_seen += bool(np.any(x < space.star_size)) and star0 < k
            assert np.array_equal(inst.ranking(x), full)
        assert short_seen >= 50

    def test_bundled_setup_computes_only_in_star_cells(self, monkeypatch):
        # Work guard, no timing: the bundled star-hard truth ranks all
        # 30,408 ids of 8 stars against a 1,739-point pool; the rankings
        # are read off the star layout, so set-up computes no distance at
        # all (neither cross nor _within is called), and the memo hands
        # the space each id exactly once.
        cells, full, ranked = [], [], []
        for name in ("cross", "_within"):
            method = getattr(_StarSpace, name)

            def counting(self, *args, _method=method, **kwargs):
                out = _method(self, *args, **kwargs)
                cells.append(out.size)
                return out

            monkeypatch.setattr(_StarSpace, name, counting)
        ranking = KnnInstance.ranking

        def counting_ranking(self, x_ids, k=None):
            full.append(np.size(x_ids) * self.size)
            return ranking(self, x_ids, k)

        monkeypatch.setattr(KnnInstance, "ranking", counting_ranking)
        space_ranking = _StarSpace.ranking

        def recording_space_ranking(self, x_ids, pool, k):
            ranked.append(np.atleast_1d(x_ids))
            return space_ranking(self, x_ids, pool, k)

        monkeypatch.setattr(_StarSpace, "ranking", recording_space_ranking)
        _build_star_hard(0.15, {}, np.random.default_rng(0))
        assert sum(full) > 3000 * 1700
        assert sum(cells) == 0
        assert np.array_equal(np.sort(np.concatenate(ranked)), np.arange(30408))

    def test_layout_order_matches_argsort_on_edge_layouts(self):
        # The layout order against the stable argsort of cross, on layouts
        # that reach each case: a pooled id repeated more often than the
        # row is wide, stars with no pool point, stars of centers only
        # (b = 0), and queries that are pooled centers, pooled leaves and
        # off-pool leaves, at widths 1, k and the whole pool.
        rng = np.random.default_rng(52)
        seen = dict.fromkeys(("repeat", "empty", "b0", "center", "leaf", "off"), 0)
        for i in range(240):
            n, m = (int(v) for v in rng.integers(1, 4, size=2))
            b = 0 if i % 3 == 0 else int(rng.integers(1, 4))
            slots = 10 * n * m
            radii = 1.0 + (rng.permutation(slots)[: n * m] + 0.5) / slots
            space = _StarSpace(n, m, b, radii)
            size = int(rng.integers(1, 2 * space.star_size))
            pool = rng.integers(0, space.n, size=size)
            if i % 2:
                twin = rng.choice(pool)
                at = rng.integers(0, pool.shape[0] + 1, size=int(rng.integers(4, 8)))
                pool = np.insert(pool, at, twin)
            if n > 1 and i % 4 < 2:
                pool = pool[pool >= space.star_size]
                pool = np.append(pool, rng.integers(space.star_size, space.n, size=2))
            k = int(rng.integers(2, 4))
            x = rng.permutation(space.n)
            full = np.argsort(space.cross(x, pool), axis=1, kind="stable")
            for width in (1, k, pool.shape[0]):
                assert np.array_equal(space.ranking(x, pool, width), full[:, :width])
            pooled = np.isin(x, pool)
            center = x % space.star_size < m
            seen["repeat"] += np.bincount(pool).max() > k
            seen["empty"] += np.unique(pool // space.star_size).shape[0] < n
            seen["b0"] += b == 0
            seen["center"] += np.any(pooled & center)
            seen["leaf"] += np.any(pooled & ~center)
            seen["off"] += np.any(~pooled & ~center)
        assert min(seen.values()) >= 40, seen


class TestStarHardError:
    def test_matches_full_enumeration(self):
        rng = np.random.default_rng(51)
        cases = [_tiny_hard_instance()] + [
            _random_hard_instance(rng, short=i % 5 == 0) for i in range(60)
        ]
        for si in cases:
            test_dist = _all_ids(si)
            # The star instance ranks each id from its star's template; the
            # explicit copy ranks every id of its full distance matrix.
            fast = exact_hard_error(si.instance, test_dist, si.k)
            explicit = KnnInstance(
                si.instance.space.to_explicit(), si.instance.pool, si.instance.oracle
            )
            slow = exact_hard_error(explicit, test_dist, si.k)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_invalid_k(self):
        si = _tiny_hard_instance()
        with pytest.raises(ValueError, match="invalid k"):
            exact_hard_error(si.instance, _all_ids(si), 0)

    def test_recover_good_fraction(self):
        assert recover_good_fraction(0.25, 4) == pytest.approx(0.3125)
        assert recover_good_fraction(0.99, 2) == 1.0
        assert recover_good_fraction(-0.1, 2) == 0.0
        with pytest.raises(ValueError):
            recover_good_fraction(0.5, 0)


class TestStarJson:
    def test_round_trip(self):
        si = _tiny_hard_instance()
        back = star_instance_from_json(star_instance_to_json(si))
        assert star_metadata(back) == star_metadata(si)
        np.testing.assert_array_equal(back.labels, si.labels)
        np.testing.assert_array_equal(back.instance.pool, si.instance.pool)
        assert (back.m, back.b, back.n, back.N) == (si.m, si.b, si.n, si.N)
        np.testing.assert_allclose(
            back.instance.space.radii, si.instance.space.radii
        )
        assert exact_hard_error(back.instance, _all_ids(back), si.k) == exact_hard_error(
            si.instance, _all_ids(si), si.k
        )

    def test_wrong_metric_rejected(self):
        with pytest.raises(ValueError):
            star_instance_from_json(json.dumps({"metric": "euclidean1d"}))

    @pytest.mark.parametrize(
        "key, value", [("k", 2.7), ("k", 0), ("k", 1000), ("N", -5)]
    )
    def test_bad_k_or_pool_size_rejected(self, key, value):
        # k must be an integer the pool can serve and N the pool's length;
        # neither is truncated or taken on trust.
        obj = json.loads(star_instance_to_json(_tiny_hard_instance()))
        obj[key] = value
        with pytest.raises(ValueError, match="invalid parameter"):
            star_instance_from_json(json.dumps(obj))

    def test_fractional_pool_entry_rejected(self):
        obj = json.loads(star_instance_to_json(_tiny_hard_instance()))
        obj["pool_indices"][0] = 0.5
        with pytest.raises(ValueError, match="domain mismatch"):
            star_instance_from_json(json.dumps(obj))

    @pytest.mark.parametrize("key", ["n", "m", "b"])
    def test_fractional_star_size_rejected(self, key):
        # A size of 2.5 is not truncated to 2 and read as a valid instance.
        obj = json.loads(star_instance_to_json(_tiny_hard_instance()))
        obj["star"][key] += 0.5
        with pytest.raises(ValueError, match="invalid parameter"):
            star_instance_from_json(json.dumps(obj))

    def test_label_shape_checked(self):
        si = _tiny_hard_instance()
        obj = json.loads(star_instance_to_json(si))
        obj["labels"] = obj["labels"][:-1]
        with pytest.raises(ValueError):
            star_instance_from_json(json.dumps(obj))
