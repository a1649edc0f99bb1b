"""Tests for the query-to-active reduction and its pool sizing."""

import math

import numpy as np
import pytest

from activetest import (
    Distribution,
    LabelOracle,
    Receipt,
    TargetFunction,
    activeize_da,
    active_sample_size,
)
from activetest import active_reduction


class TestActiveSampleSize:
    def test_da_formula(self):
        for vc, eps in [(4, 0.1), (10, 0.25), (1, 0.4)]:
            expected = math.ceil(0.1 * vc * math.log(1 / eps) / eps**2)
            assert active_sample_size(vc, eps) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            active_sample_size(0, 0.1)
        with pytest.raises(ValueError):
            active_sample_size(4, 1.0)


def _label_all_distance_to_zero(pool, eps, rng):
    # labels every pool point once and bills them; the value is the
    # weight of the ones
    pts, idx = pool.take_rest()
    labels = pool.label(idx)
    return Receipt(float(np.mean(labels == 1)), len(idx), len(idx))


class TestActiveizeDa:
    def test_estimates_distance_to_constant_zero(self):
        target = TargetFunction(lambda pts: pts < 0.3)
        res = activeize_da(
            _label_all_distance_to_zero, 20, 0.2, Distribution.uniform01(), target, seed=5
        )
        assert res.value == pytest.approx(0.3, abs=0.1)

    def test_label_count_equals_inner_algorithms(self):
        oracle = LabelOracle(TargetFunction.constant(0))
        res = activeize_da(
            _label_all_distance_to_zero, 3, 0.25, Distribution.uniform01(), oracle, seed=1
        )
        n = active_sample_size(3, 0.25)
        assert oracle.used == res.queries_used == n
        assert res.unlabeled_used == n

    def test_bills_the_whole_draw_as_unlabeled(self):
        def label_none(pool, eps, rng):
            return Receipt(0.0, 0)

        res = activeize_da(
            label_none, 4, 0.3, Distribution.uniform01(), TargetFunction.constant(0), seed=0
        )
        assert res == Receipt(0.0, 0, active_sample_size(4, 0.3))

    def test_runs_at_half_accuracy(self):
        seen = {}

        def spy(pool, eps, rng):
            seen["eps"] = eps
            seen["points"] = pool.points
            seen["next"] = rng.random()
            return Receipt(0.0, 0)

        activeize_da(spy, 4, 0.3, Distribution.uniform01(), TargetFunction.constant(0), seed=0)
        assert seen["eps"] == pytest.approx(0.15)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(seen["points"], rng.random(active_sample_size(4, 0.3)))
        # the run continues the generator that made the draw
        assert seen["next"] == rng.random()

    def test_off_support_query_rejected(self):
        oracle = LabelOracle(TargetFunction.constant(0))

        def rogue(pool, eps, rng):
            return Receipt(float(pool.label([len(pool)])[0]), 1)

        with pytest.raises(ValueError, match="domain mismatch"):
            activeize_da(rogue, 2, 0.3, Distribution.uniform01(), oracle, seed=0)
        assert oracle.used == 0

    def test_sample_constant_shrinks_pool(self, monkeypatch):
        # the constant is the module's, read at each call
        base = active_sample_size(2, 0.2)
        monkeypatch.setattr(active_reduction, "UNLABELED_SAMPLE_CONSTANT", 0.05)
        oracle = LabelOracle(TargetFunction.constant(1))
        res = activeize_da(
            _label_all_distance_to_zero, 2, 0.2, Distribution.uniform01(), oracle, seed=2
        )
        assert oracle.used == res.unlabeled_used == math.ceil(0.05 * 2 * math.log(5.0) / 0.04)
        assert oracle.used < base
