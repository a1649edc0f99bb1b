"""Tests for targets, oracles, pools, receipts, weighted samples, and shared
counts."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from activetest import (
    ActivePool,
    BudgetExceededError,
    Distribution,
    InsufficientPoolError,
    LabelOracle,
    Receipt,
    TargetFunction,
    WeightedSample,
    chernoff_iterations,
    median_repetitions,
    relative_entropy,
)
from activetest.core import as_generator, spawn_seeds


class TestTargetFunction:
    def test_from_labels_reads_by_id(self):
        labels = [0, 1, 1, 0, 1]
        tf = TargetFunction.from_labels(labels)
        np.testing.assert_array_equal(tf.eval_many(np.arange(5)), labels)
        np.testing.assert_array_equal(tf.eval_many([4, 3, 3]), [1, 0, 0])

    def test_from_labels_rejects_non_binary(self):
        for labels in ([0, 2, 1], [-1, 0], [0.5, 1.0], [0, 300]):
            with pytest.raises(ValueError, match="invalid parameter"):
                TargetFunction.from_labels(labels)
        tf = TargetFunction.from_labels(np.array([True, False]))
        np.testing.assert_array_equal(tf.eval_many([0, 1]), [1, 0])

    def test_constant(self):
        tf = TargetFunction.constant(1)
        out = tf.eval_many(np.linspace(0, 1, 7))
        assert out.dtype == np.int8
        assert np.all(out == 1)
        np.testing.assert_array_equal(TargetFunction.constant(0).eval_many([0.37]), [0])

    def test_vectorized_callable_cast_to_int8(self):
        tf = TargetFunction(lambda x: x > 0.5)
        out = tf.eval_many([0.2, 0.7])
        assert out.dtype == np.int8
        np.testing.assert_array_equal(out, [0, 1])

    def test_wrong_shaped_labels_rejected(self):
        # a scalar would broadcast silently against the queried points
        for fn in (lambda x: 1, lambda x: np.ones(x.shape[0] + 1)):
            oracle = LabelOracle(TargetFunction(fn))
            with pytest.raises(ValueError, match="domain mismatch"):
                oracle.query_many(np.zeros(3))


class TestLabelOracle:
    def test_counts_every_query_including_repeats(self):
        oracle = LabelOracle(TargetFunction.constant(0))
        oracle.query_many([0.5])
        oracle.query_many([0.5, 0.5])
        oracle.query_many(np.zeros(3))
        assert oracle.used == 6
        assert oracle.remaining is None

    def test_budget_enforced(self):
        oracle = LabelOracle(TargetFunction.constant(1), budget=2)
        np.testing.assert_array_equal(oracle.query_many([0.1]), [1])
        assert oracle.remaining == 1
        with pytest.raises(BudgetExceededError):
            oracle.query_many([0.1, 0.2])
        # the failed batch charged nothing
        assert oracle.used == 1


class TestActivePool:
    @pytest.fixture
    def pool(self):
        target = TargetFunction(lambda pts: pts < 0.5)
        points = np.array([0.1, 0.6, 0.3, 0.9, 0.2])
        return ActivePool(points, LabelOracle(target))

    def test_take_advances_cursor(self, pool):
        pts, idx = pool.take(2)
        np.testing.assert_array_equal(pts, [0.1, 0.6])
        np.testing.assert_array_equal(idx, [0, 1])
        assert pool.unlabeled_used == 2
        assert pool.remaining == 3
        rest, rest_idx = pool.take_rest()
        assert rest.shape == (3,)
        np.testing.assert_array_equal(rest_idx, [2, 3, 4])

    def test_take_past_end_raises(self, pool):
        with pytest.raises(InsufficientPoolError):
            pool.take(6)
        with pytest.raises(ValueError):
            pool.take(-1)

    def test_label_charges_oracle_and_checks_range(self, pool):
        _, idx = pool.take(3)
        labels = pool.label(idx)
        np.testing.assert_array_equal(labels, [1, 0, 1])
        assert pool.oracle.used == 3
        with pytest.raises(ValueError, match="domain mismatch"):
            pool.label([5])

    def test_query_points_redirect_labeling(self):
        # pool coordinates are ranks, queries must hit the real positions
        target = TargetFunction(lambda pts: pts > 10)
        pool = ActivePool(
            np.array([0.25, 0.75]),
            LabelOracle(target),
            query_points=np.array([5.0, 15.0]),
        )
        np.testing.assert_array_equal(pool.label([0, 1]), [0, 1])

    def test_query_points_length_mismatch(self):
        with pytest.raises(ValueError, match="domain mismatch"):
            ActivePool(
                np.zeros(3),
                LabelOracle(TargetFunction.constant(0)),
                query_points=np.zeros(2),
            )


class TestReceipt:
    def test_defaults_and_frozen(self):
        r = Receipt(0.25, 30)
        assert (r.value, r.queries_used, r.unlabeled_used, r.witness) == (0.25, 30, 0, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.value = 0.5


class TestWeightedSample:
    def test_uniform_weights(self):
        s = WeightedSample.uniform([0.1, 0.2, 0.3])
        np.testing.assert_allclose(s.weights, 1 / 3)
        assert len(s) == 3
        s.require_normalized()

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedSample(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            WeightedSample(np.zeros(2), np.array([0.5, -0.5]))
        with pytest.raises(ValueError):
            WeightedSample(np.zeros(2), np.full(2, 0.5), labels=np.zeros(3))
        with pytest.raises(ValueError):
            WeightedSample(np.zeros(2), np.full(2, 0.7)).require_normalized()

    def test_nan_weight_or_point_rejected(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            WeightedSample(np.array([0.1, 0.2, 0.3]), np.array([np.nan, 0.5, 0.5]))
        with pytest.raises(ValueError, match="invalid parameter"):
            WeightedSample(np.array([0.1, np.nan, 0.3]), np.full(3, 1 / 3), labels=[1, 0, 1])
        # integer points (ids) have no NaN to check
        assert len(WeightedSample(np.arange(3), np.full(3, 1 / 3))) == 3

    @pytest.mark.parametrize(
        "labels",
        [[1, 2, 1], [1, -1, 1], np.array([1, 256, 1]), [1.0, 0.5, 1.0], np.array([0, 1, 3], np.int8)],
    )
    def test_non_binary_label_rejected(self, labels):
        # exact_distance_to_intervals reads a label as the sign 2*label - 1:
        # [1, 2, 1] gave 0.0 and [1, -1, 1] gave 1/3 at d=1. 256 and 0.5
        # would cast to the int8 label 0.
        with pytest.raises(ValueError, match="invalid parameter"):
            WeightedSample(np.array([0.1, 0.5, 0.9]), np.full(3, 1 / 3), labels=labels)
        with pytest.raises(ValueError, match="invalid parameter"):
            WeightedSample.from_json(
                {"points": [0.1, 0.5, 0.9], "weights": [1 / 3] * 3, "labels": np.asarray(labels).tolist()}
            )

    @pytest.mark.parametrize("labels", [[1, 0, 1], [True, False, True], [1.0, 0.0, 1.0]])
    def test_binary_labels_read_as_int8(self, labels):
        s = WeightedSample(np.array([0.1, 0.5, 0.9]), np.full(3, 1 / 3), labels=labels)
        assert s.labels.dtype == np.int8 and s.labels.tolist() == [1, 0, 1]

    def test_json_round_trip(self):
        s = WeightedSample(
            np.array([0.4, 0.1]), np.array([0.25, 0.75]), labels=np.array([1, 0])
        )
        t = WeightedSample.from_json(s.to_json())
        np.testing.assert_array_equal(t.points, s.points)
        np.testing.assert_array_equal(t.weights, s.weights)
        np.testing.assert_array_equal(t.labels, s.labels)
        u = WeightedSample.from_json(WeightedSample.uniform([1.0]).to_json())
        assert u.labels is None

    def test_empty_uniform(self):
        s = WeightedSample.uniform(np.zeros(0))
        assert len(s) == 0


class TestDistribution:
    def test_uniform01_reproducible(self):
        d = Distribution.uniform01()
        np.testing.assert_array_equal(d.draw(10, seed=3), d.draw(10, seed=3))
        x = d.draw(100, seed=0)
        assert np.all((0 <= x) & (x < 1))

    def test_finite_draws_from_atoms(self):
        d = Distribution.finite([1.0, 2.0, 5.0], [0.2, 0.3, 0.5])
        x = d.draw(2000, seed=1)
        assert set(np.unique(x)) <= {1.0, 2.0, 5.0}
        assert np.mean(x == 5.0) == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("seed", range(40))
    def test_finite_draw_is_rng_choice(self, seed):
        # same draws and same generator state afterwards as numpy's choice,
        # on uniform and non-uniform probabilities, zeros included
        shape = np.random.default_rng(seed + 1000)
        n = int(shape.integers(1, 60))
        atoms = shape.permutation(n) + 0.5
        probs = np.full(n, 1.0 / n) if seed % 2 else shape.random(n) * (shape.random(n) > 0.2)
        probs = probs / probs.sum() if probs.sum() > 0 else np.full(n, 1.0 / n)
        dist = Distribution.finite(atoms, probs)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (0, 1, int(shape.integers(2, 500))):
            np.testing.assert_array_equal(
                dist.draw(size, ours), theirs.choice(atoms, size=size, p=probs)
            )
            assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random() == theirs.random()

    def test_direct_finite_construction_derives_cdf(self):
        atoms, probs = [1.0, 2.0, 5.0], [0.25, 0.25, 0.5]
        direct = Distribution("finite", atoms=atoms, probs=probs)
        assert direct == Distribution("finite", atoms=atoms, probs=probs)
        np.testing.assert_array_equal(
            direct.draw(300, 7), np.random.default_rng(7).choice(atoms, size=300, p=probs)
        )
        with pytest.raises(TypeError):
            Distribution("finite", atoms=atoms, probs=probs, cdf=np.ones(3))

    def test_finite_validation(self):
        with pytest.raises(ValueError):
            Distribution.finite([1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            Distribution.finite([1.0, 2.0], [0.7, 0.7])
        with pytest.raises(ValueError):
            Distribution.finite([1.0, 2.0], [1.5, -0.5])

    def test_inverse_cdf(self):
        d = Distribution.from_inverse_cdf(lambda u: 2.0 * u)
        x = d.draw(50, seed=2)
        assert np.all((0 <= x) & (x < 2))


class TestRelativeEntropy:
    def test_zero_on_diagonal(self):
        for x in (0.0, 0.25, 1.0):
            assert relative_entropy(x, max(x, 1e-12) if x else 0.0) >= 0.0
        assert relative_entropy(0.5, 0.5) == 0.0
        assert relative_entropy(0.0, 0.0) == 0.0
        assert relative_entropy(1.0, 1.0) == 0.0

    def test_known_value(self):
        expected = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
        assert relative_entropy(0.75, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_infinite_divergence_raises(self):
        with pytest.raises(ValueError, match="infinite divergence"):
            relative_entropy(0.5, 0.0)
        with pytest.raises(ValueError, match="infinite divergence"):
            relative_entropy(0.5, 1.0)
        with pytest.raises(ValueError):
            relative_entropy(1.5, 0.5)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_pinsker_floor(self, x, y):
        assert relative_entropy(x, y) >= 2.0 * (x - y) ** 2 - 1e-12


class TestSampleCounts:
    def test_chernoff_formula(self):
        assert chernoff_iterations(0.1, 1 / 3) == int(np.ceil(np.log(6.0) / 0.02))
        assert chernoff_iterations(0.05, 1 / 3) > chernoff_iterations(0.1, 1 / 3)
        with pytest.raises(ValueError):
            chernoff_iterations(0.0, 0.5)
        with pytest.raises(ValueError):
            chernoff_iterations(0.1, 1.5)

    def test_median_repetitions(self):
        assert median_repetitions(np.exp(-1.0)) == 18
        assert median_repetitions(0.99) == 1
        with pytest.raises(ValueError):
            median_repetitions(0.0)

    def test_empirical_coverage(self):
        # the advertised 2/3 success is comfortably met by fair coin means
        rng = np.random.default_rng(11)
        t = chernoff_iterations(0.1, 1 / 3)
        means = rng.random((200, t)).mean(axis=1)
        assert np.mean(np.abs(means - 0.5) <= 0.1) > 0.9


class TestSeeds:
    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g
        assert as_generator(5).random() == np.random.default_rng(5).random()

    def test_spawn_seeds_distinct(self):
        seqs = spawn_seeds(7, 4)
        assert len(seqs) == 4
        draws = {np.random.default_rng(s).random() for s in seqs}
        assert len(draws) == 4
