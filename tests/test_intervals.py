"""Tests for interval unions, the exact merge kernel, and its approximation."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from activetest import (
    ActivePool,
    Distribution,
    InsufficientPoolError,
    IntervalUnion,
    LabelOracle,
    Receipt,
    TargetFunction,
    WeightedSample,
    active_sample_size,
    composition_plan,
    exact_distance_to_intervals,
    interval_block_spec,
    interval_da,
    interval_da_plan,
    interval_da_uniform,
    interval_error_curve,
    rank_positions,
)
from activetest.composition import ORACLE_REPETITIONS
from activetest import active_reduction, intervals
from activetest.intervals import _merge_curve


class TestIntervalUnion:
    def test_sorted_disjoint_closed(self):
        u = IntervalUnion([[0.6, 0.8], [0.1, 0.3]])
        assert len(u) == 2
        np.testing.assert_array_equal(u.intervals, [[0.1, 0.3], [0.6, 0.8]])
        assert u.measure() == pytest.approx(0.4)
        np.testing.assert_array_equal(
            u.contains([0.0, 0.1, 0.2, 0.3, 0.5, 0.6, 0.8, 0.9]),
            [False, True, True, True, False, True, True, False],
        )
        assert u.evaluate([0.2]).dtype == np.int8

    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalUnion([[0.5, 0.4]])
        with pytest.raises(ValueError):
            IntervalUnion([[0.1, 0.5], [0.4, 0.9]])
        with pytest.raises(ValueError):
            IntervalUnion([[0.0, 0.5], [0.5, 0.9]])  # touching counts as overlap

    def test_nan_end_rejected(self):
        for bad in ([[0.1, math.nan]], [[math.nan, 0.5]], [[0.1, 0.2], [0.5, math.nan]]):
            with pytest.raises(ValueError, match="invalid class parameter"):
                IntervalUnion(bad)

    def test_empty(self):
        u = IntervalUnion()
        assert len(u) == 0
        assert u.measure() == 0.0
        assert not u.contains([0.5])[0]

    def test_as_target_and_json(self):
        u = IntervalUnion([[0.2, 0.4]])
        tf = u.as_target()
        assert tf(0.3) == 1
        assert tf(0.5) == 0
        assert IntervalUnion.from_json(u.to_json()) == u


def _brute_interval_distance(points, weights, labels, d):
    """Minimum disagreement over all labelings of the distinct positions
    with at most d runs of ones in sorted order; a labeling gives every
    point at one position the same label."""
    uniq, pos = np.unique(np.asarray(points, dtype=float), return_inverse=True)
    n = len(uniq)
    g = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    runs = np.count_nonzero(np.diff(g, axis=1, prepend=0) == 1, axis=1)
    err = (g[:, pos] != np.asarray(labels)) @ np.asarray(weights, dtype=float)
    return float(err[runs <= d].min())


def _full_dp_curve(points, weights, labels, kmax):
    """Reference curve: the uncompressed (inside/outside x k) DP over every
    distinct position and every k up to kmax."""
    uniq, pos = np.unique(np.asarray(points, dtype=float), return_inverse=True)
    lab = np.asarray(labels)
    w = np.asarray(weights, dtype=float)
    w0 = np.bincount(pos, weights=w * (lab == 0), minlength=len(uniq))
    w1 = np.bincount(pos, weights=w * (lab == 1), minlength=len(uniq))
    inside = np.full(kmax + 1, np.inf)
    outside = np.full(kmax + 1, np.inf)
    outside[0] = 0.0
    for i in range(len(uniq)):
        opened = np.concatenate(([np.inf], outside[:-1]))
        inside, outside = (
            w0[i] + np.minimum(inside, opened),
            w1[i] + np.minimum(outside, inside),
        )
    return np.minimum.accumulate(np.minimum(inside, outside))


def _stress_instance(rng, n_runs, max_run):
    """Positions on a coarse lattice (so some repeat), labels in long pure
    runs with some positions holding both labels, and some zero weights."""
    lengths = rng.integers(1, max_run + 1, size=n_runs)
    labels = np.repeat(np.arange(n_runs) % 2 ^ rng.integers(0, 2), lengths)
    n = labels.shape[0]
    pts = np.sort(rng.integers(0, max(2, int(0.8 * n)), size=n)) / n
    flip = rng.random(n) < 0.1
    labels = np.where(flip, 1 - labels, labels)
    w = rng.random(n) * (rng.random(n) > 0.2)
    w[0] += 1e-3
    perm = rng.permutation(n)
    return pts[perm], w[perm] / w.sum(), labels[perm]


class TestExactDistance:
    def test_hand_instance(self):
        # ones at the ends, zero in the middle: one interval must pay
        s = WeightedSample.uniform(
            np.array([0.1, 0.3, 0.5, 0.7, 0.9]), labels=[1, 1, 0, 1, 1]
        )
        alpha2, w2 = exact_distance_to_intervals(s, 2)
        assert alpha2 == 0.0
        assert len(w2) == 2
        alpha1, w1 = exact_distance_to_intervals(s, 1)
        assert alpha1 == pytest.approx(0.2)
        assert len(w1) <= 1

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_matches_brute_force(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            pts = rng.random(n)
            w = rng.random(n)
            w /= w.sum()
            labels = rng.integers(0, 2, size=n)
            s = WeightedSample(pts, w, labels)
            alpha, witness = exact_distance_to_intervals(s, d)
            assert alpha == pytest.approx(
                _brute_interval_distance(pts, w, labels, d), abs=1e-12
            )
            assert len(witness) <= d
            # the witness achieves the optimum on the sample
            disagreement = float(w[witness.evaluate(pts) != labels].sum())
            assert disagreement == pytest.approx(alpha, abs=1e-12)

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_run_compressed_instances(self, d):
        # repeated positions with mixed labels, zero weights and long pure
        # runs; small instances against brute force, the rest against the
        # uncompressed DP
        rng = np.random.default_rng(70 + d)
        for n_runs, max_run in [(5, 4)] * 40 + [(11, 40)] * 20:
            pts, w, labels = _stress_instance(rng, int(rng.integers(1, n_runs + 1)), max_run)
            if len(np.unique(pts)) <= 12:
                expected = _brute_interval_distance(pts, w, labels, d)
            else:
                expected = _full_dp_curve(pts, w, labels, d)[d]
            alpha, witness = exact_distance_to_intervals(WeightedSample(pts, w, labels), d)
            assert alpha == pytest.approx(expected, abs=1e-12)
            assert len(witness) <= d
            assert np.all(np.isin(witness.intervals, pts))
            disagreement = float(w[witness.evaluate(pts) != labels].sum())
            assert disagreement == pytest.approx(alpha, abs=1e-12)

    def test_validation(self):
        s = WeightedSample.uniform(np.array([0.5]), labels=[1])
        with pytest.raises(ValueError, match="invalid class parameter"):
            exact_distance_to_intervals(s, -1)
        with pytest.raises(ValueError, match="domain mismatch"):
            exact_distance_to_intervals(WeightedSample.uniform(np.array([0.5])), 1)
        unnormalized = WeightedSample(np.array([0.5]), np.array([0.3]), [1])
        with pytest.raises(ValueError):
            exact_distance_to_intervals(unnormalized, 1)

    def test_bool_budget_rejected(self):
        # True is not the budget 1
        s = WeightedSample.uniform(np.array([0.1, 0.5, 0.9]), labels=[1, 0, 1])
        with pytest.raises(ValueError, match="invalid class parameter"):
            exact_distance_to_intervals(s, True)
        assert exact_distance_to_intervals(s, np.int64(1))[0] == pytest.approx(1 / 3)

    def test_nan_point_rejected(self):
        # the NaN point's label 0 would vanish from the sorted row and the
        # distance read 0.0 with the witness [0.1, 0.9]
        with pytest.raises(ValueError, match="invalid parameter"):
            exact_distance_to_intervals(
                WeightedSample.uniform(np.array([0.1, math.nan, 0.9]), labels=[1, 0, 1]), 1
            )

    def test_empty_sample_rejected(self):
        # weights of an empty sample cannot be normalized
        empty = WeightedSample(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int8))
        with pytest.raises(ValueError):
            exact_distance_to_intervals(empty, 3)

    def test_duplicate_positions_grouped(self):
        # equal positions must share a label in any interval labeling
        s = WeightedSample.uniform(np.array([0.5, 0.5, 0.5, 0.2]), labels=[1, 0, 1, 0])
        alpha, _ = exact_distance_to_intervals(s, 3)
        assert alpha == pytest.approx(0.25)


class TestErrorCurve:
    def test_non_increasing_and_endpoints(self):
        rng = np.random.default_rng(9)
        pts = rng.random(30)
        w = np.full(30, 1 / 30)
        labels = rng.integers(0, 2, size=30)
        curve = interval_error_curve(pts, w, labels, kmax=10)
        assert curve.shape == (11,)
        assert np.all(np.diff(curve) <= 1e-15)
        assert curve[0] == pytest.approx(w[labels == 1].sum())

    def test_matches_exact_solver(self):
        rng = np.random.default_rng(10)
        pts = rng.random(12)
        w = np.full(12, 1 / 12)
        labels = rng.integers(0, 2, size=12)
        curve = interval_error_curve(pts, w, labels, kmax=5)
        s = WeightedSample(pts, w, labels)
        for k in range(6):
            assert curve[k] == pytest.approx(
                exact_distance_to_intervals(s, k)[0], abs=1e-12
            )

    def test_matches_full_dp_past_flat_point(self):
        rng = np.random.default_rng(11)
        padded = 0
        for _ in range(30):
            pts, w, labels = _stress_instance(rng, int(rng.integers(1, 12)), 40)
            kmax = int(rng.integers(0, 30))
            curve = interval_error_curve(pts, w, labels, kmax)
            assert curve.shape == (kmax + 1,)
            np.testing.assert_allclose(
                curve, _full_dp_curve(pts, w, labels, kmax), rtol=0, atol=1e-12
            )
            # past the one-runs of the best free labeling the curve is flat
            # at the unconstrained optimum
            pos = np.unique(pts, return_inverse=True)[1]
            w0 = np.bincount(pos, weights=w * (labels == 0))
            w1 = np.bincount(pos, weights=w * (labels == 1))
            free = (w1 > w0).astype(int)
            r = int(np.count_nonzero(np.diff(free, prepend=0) == 1))
            if r < kmax:
                padded += 1
                np.testing.assert_allclose(curve[r:], curve[-1], rtol=0, atol=1e-12)
                assert curve[-1] == pytest.approx(np.minimum(w0, w1).sum(), abs=1e-12)
        assert padded >= 10

    def test_whole_curve_matches_full_dp(self):
        # 1,200 instances cycling through all-0 labels, all-1 labels, a
        # single position and the mixed stress shape (repeated positions
        # with both labels, zero weights), at kmax = 0, below P and past P
        rng = np.random.default_rng(12)
        past = below = 0
        for i in range(1200):
            pts, w, labels = _stress_instance(rng, int(rng.integers(1, 9)), 6)
            if i % 6 == 0:
                labels = np.zeros_like(labels)
            elif i % 6 == 1:
                labels = np.ones_like(labels)
            elif i % 6 == 2:
                pts = np.full_like(pts, 0.5)
            pos = np.unique(pts, return_inverse=True)[1]
            v = np.bincount(pos, weights=w * (2 * labels - 1.0))
            p = int(np.count_nonzero(np.diff((v > 0).astype(int), prepend=0) == 1))
            kmax = (0, int(rng.integers(0, p + 1)), p + int(rng.integers(1, 4)))[i % 3]
            past += kmax > p
            below += kmax < p
            curve = interval_error_curve(pts, w, labels, kmax)
            assert curve.shape == (kmax + 1,)
            np.testing.assert_allclose(
                curve, _full_dp_curve(pts, w, labels, kmax), rtol=0, atol=1e-12
            )
        assert past >= 300 and below >= 300

    def test_curve_is_convex(self):
        # the best sum of k disjoint subarrays is concave in k, so the
        # curve's second differences are nonnegative
        rng = np.random.default_rng(13)
        for _ in range(200):
            pts, w, labels = _stress_instance(rng, int(rng.integers(3, 30)), 8)
            curve = interval_error_curve(pts, w, labels, 20)
            assert np.all(np.diff(curve, 2) >= -1e-12)

    def test_zero_distance_is_exact(self):
        # labels drawn from a union of at most d intervals, random weights
        # and repeated points: the distance reads exactly 0.0, not a
        # rounding residue of total minus covered weight
        rng = np.random.default_rng(14)
        for _ in range(300):
            d = int(rng.integers(1, 6))
            edges = np.sort(rng.random(2 * d))
            union = IntervalUnion(edges.reshape(-1, 2))
            pts = rng.choice(rng.random(40), size=60)
            w = rng.random(60) * (rng.random(60) > 0.1) + 1e-9
            s = WeightedSample(pts, w / w.sum(), union.evaluate(pts))
            alpha, witness = exact_distance_to_intervals(s, d)
            assert alpha == 0.0
            assert len(witness) <= d
            assert np.array_equal(witness.evaluate(pts), s.labels)
            curve = interval_error_curve(s.points, s.weights, s.labels, d + 2)
            assert np.all(curve[d:] == 0.0)

    def test_negative_kmax_rejected(self):
        with pytest.raises(ValueError):
            interval_error_curve(np.zeros(1), np.ones(1), np.zeros(1), -1)

    def test_bool_kmax_rejected(self):
        # True would read as kmax 1, a two-entry curve
        with pytest.raises(ValueError, match="invalid class parameter"):
            interval_error_curve(np.zeros(1), np.ones(1), np.zeros(1), kmax=True)

    def test_nan_point_rejected(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            interval_error_curve([0.1, math.nan, 0.9], np.full(3, 1 / 3), [1, 0, 1], 1)

    def test_curve_at_d_is_exact_distance_bit_for_bit(self):
        # union-da's per-block estimator reads the curve at d in place of
        # exact_distance_to_intervals, so the two must agree exactly, on
        # uniform weights (as in its blocks) and on the stress shape
        rng = np.random.default_rng(15)
        for i in range(5000):
            pts, w, labels = _stress_instance(rng, int(rng.integers(1, 9)), 6)
            if i % 2:
                w = np.full(pts.shape[0], 1.0 / pts.shape[0])
            d = int(rng.integers(0, 6))
            alpha, _ = exact_distance_to_intervals(WeightedSample(pts, w, labels), d)
            assert interval_error_curve(pts, w, labels, d)[d] == alpha


@st.composite
def _row_batches(draw):
    """Equal-length rows on a small lattice, so positions repeat with
    mixed labels; all-0 and all-1 rows; uniform or uneven weights, zeros
    included; and a stop from 0 up past most rows' positive segments."""
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(1, 9))
    lattice = draw(st.integers(1, 2 * n))
    uniform = draw(st.booleans())
    pts, weights, labels = [], [], []
    for _ in range(rows):
        pts.append(draw(st.lists(st.integers(0, lattice - 1), min_size=n, max_size=n)))
        kind = draw(st.sampled_from(["mixed", "zeros", "ones"]))
        if kind == "mixed":
            labels.append(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        else:
            labels.append([int(kind == "ones")] * n)
        if uniform:
            weights.append([1.0 / n] * n)
        else:
            weights.append([w / 7.0 for w in draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))])
    stop = draw(st.integers(0, 5))
    return (*_grid_rows(np.asarray(pts) / lattice, np.asarray(weights), np.asarray(labels)), stop)


@st.composite
def _ragged_batches(draw):
    """Rows of 0 to 9 points each, empty rows among them, on one small
    lattice with uneven weights, zeros included; mixed, all-0 and all-1
    rows, the kernel resolving the pure ones without a sort."""
    lens = draw(st.lists(st.integers(0, 9), min_size=1, max_size=7))
    n, lattice = sum(lens), draw(st.integers(1, 12))
    pts = draw(st.lists(st.integers(0, lattice - 1), min_size=n, max_size=n))
    labels = []
    for m in lens:
        kind = draw(st.sampled_from(["mixed", "zeros", "ones"]))
        if kind == "mixed":
            labels += draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
        else:
            labels += [int(kind == "ones")] * m
    weights = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    offsets = np.concatenate(([0], np.cumsum(lens))).astype(int)
    stop = draw(st.integers(0, 5))
    return (
        np.asarray(pts, dtype=float) / lattice,
        np.asarray(weights, dtype=float) / 7.0,
        np.asarray(labels, dtype=np.int8),
        offsets,
        stop,
    )


@st.composite
def _increasing_rows(draw):
    """One row of 1 to 12 distinct positions in increasing order with
    mixed, all-0 or all-1 labels, equal or uneven weights (zeros
    included), a stop from 0 up to past its positive segments, and a
    shuffle of its positions."""
    n = draw(st.integers(1, 12))
    pts = sorted(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True)))
    kind = draw(st.sampled_from(["mixed", "zeros", "ones"]))
    if kind == "mixed":
        labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:
        labels = [int(kind == "ones")] * n
    if draw(st.booleans()):
        weights = [1.0 / n] * n
    else:
        weights = [w / 7.0 for w in draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))]
    stop = draw(st.integers(0, (n + 1) // 2))
    perm = draw(st.permutations(range(n)))
    return (
        np.asarray(pts, dtype=float) / 40,
        np.asarray(weights, dtype=float),
        np.asarray(labels, dtype=np.int8),
        stop,
        np.asarray(perm, dtype=np.intp),
    )


def _grid_rows(pts, weights, labels):
    """The rows of (rows, n) arrays as the kernel's flat arrays and evenly
    spaced offsets."""
    rows, n = pts.shape
    return pts.ravel(), np.ravel(weights), np.ravel(labels), np.arange(rows + 1) * n


class TestRowKernel:
    @staticmethod
    def _check_rows(pts, weights, labels, offsets, stop, brute=True):
        batch = _merge_curve(pts, weights, labels, offsets, stop)
        assert len(batch) == len(offsets) - 1
        for (costs, spans), a, b in zip(batch, offsets[:-1], offsets[1:]):
            p, w, lab = pts[a:b], weights[a:b], labels[a:b]
            ((alone_costs, alone_spans),) = _merge_curve(p, w, lab, [0, b - a], stop)
            assert (costs.shape, costs.tobytes()) == (alone_costs.shape, alone_costs.tobytes())
            assert (spans.shape, spans.tobytes()) == (alone_spans.shape, alone_spans.tobytes())
            assert spans.dtype == np.float64 and spans.shape[1:] == (2,)
            assert len(spans) <= stop
            witness = IntervalUnion(spans)
            missed = float(w[witness.evaluate(p) != lab].sum())
            assert missed == pytest.approx(costs[-1], abs=1e-12)
            if brute:
                expected = _brute_interval_distance(p, w, lab, stop)
                assert costs[-1] == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=400, deadline=None)
    @given(_row_batches())
    def test_rows_match_one_row_kernel_and_brute_force(self, batch):
        self._check_rows(*batch)

    @settings(max_examples=400, deadline=None)
    @given(_ragged_batches())
    def test_ragged_rows_match_one_row_kernel_and_brute_force(self, batch):
        self._check_rows(*batch)

    def test_ragged_rows_with_empty_rows_between(self):
        # a composition solve's shape: blocks of very different sizes, tied
        # and untied, with empty blocks before, between and after them, and
        # rows long enough to take the vectorized rounds
        rng = np.random.default_rng(20)
        for lens in ([0, 5, 0, 0, 17, 1, 0, 40, 0], [3, 0, 2], [0, 0], [900, 0, 1, 1200]):
            offsets = np.concatenate(([0], np.cumsum(lens)))
            n = offsets[-1]
            pts = rng.random(n)
            pts[::3] = np.round(pts[::3] * 16) / 16
            labels = (rng.random(n) < 0.5).astype(np.int8)
            weights = rng.random(n)
            for stop in (0, 2):
                self._check_rows(pts, weights, labels, offsets, stop, brute=max(lens) <= 17)
                self._paths_agree(pts, weights, labels, offsets, stop)

    def test_mixed_batch_merged_and_unmerged_rows(self):
        # union-da's shape: striped rows merge past the stop, all-0 rows
        # and rows already within it do not; tied and untied rows together
        rng = np.random.default_rng(16)
        merged = unmerged = 0
        for _ in range(40):
            rows, n, stop = int(rng.integers(2, 12)), int(rng.integers(1, 60)), int(rng.integers(0, 4))
            pts = rng.random((rows, n))
            pts[::2] = np.round(pts[::2] * 8) / 8
            stripes = (np.floor(pts * 10) % 2).astype(np.int8)
            labels = np.where(rng.random((rows, 1)) < 0.3, 0, stripes)
            weights = rng.random((rows, n))
            self._check_rows(*_grid_rows(pts, weights, labels), stop, brute=False)
            for costs, _ in _merge_curve(*_grid_rows(pts, weights, labels), stop):
                merged += costs.shape[0] > 1
                unmerged += costs.shape[0] == 1
        assert merged >= 50 and unmerged >= 50

    def test_empty_rows(self):
        out = _merge_curve(*_grid_rows(np.zeros((3, 0)), np.zeros((3, 0)), np.zeros((3, 0))), 2)
        assert [(c.tolist(), s.shape) for c, s in out] == [([0.0], (0, 2))] * 3

    @staticmethod
    def _bits(rows):
        return [(c.shape, c.tobytes(), s.shape, s.tobytes()) for c, s in rows]

    def _paths_agree(self, pts, weights, labels, offsets, stop):
        """Every row that merges at all on the rounds path, then every row
        on the heap loop alone: the same bits. Returns how many rows the
        rounds handed to the heap loop."""
        tails = []
        heap = intervals._merge_heap
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intervals, "ROUNDS_MIN_MERGES", 1)
            mp.setattr(intervals, "_merge_heap", lambda *a: tails.append(1) or heap(*a))
            rounds = _merge_curve(pts, weights, labels, offsets, stop)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intervals, "ROUNDS_MIN_MERGES", math.inf)
            alone = _merge_curve(pts, weights, labels, offsets, stop)
        assert self._bits(rounds) == self._bits(alone)
        return len(tails)

    @settings(max_examples=200, deadline=None)
    @given(_row_batches())
    def test_rounds_match_heap_loop_bit_for_bit(self, batch):
        self._paths_agree(*batch)

    @settings(max_examples=200, deadline=None)
    @given(_ragged_batches())
    def test_ragged_rounds_match_heap_loop_bit_for_bit(self, batch):
        self._paths_agree(*batch)

    @settings(max_examples=200, deadline=None)
    @given(_ragged_batches(), st.integers(1, 12))
    def test_chunks_do_not_change_a_bit(self, batch, chunk):
        # rows are prepared in chunks of about _CHUNK_POINTS points; any
        # cut between rows gives every row the bits it gets in one chunk
        whole = _merge_curve(*batch)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intervals, "_CHUNK_POINTS", chunk)
            chunked = _merge_curve(*batch)
        assert self._bits(chunked) == self._bits(whole)

    def test_pure_rows_are_not_sorted(self, monkeypatch):
        # an all-0 row costs exactly [0.0] and an all-1 row on positive
        # weights is one span at stop >= 1, both read without a sort
        rng = np.random.default_rng(17)
        pts = rng.random((4, 50))
        labels = np.array([[0] * 50, [1] * 50, [0] * 50, [1] * 50], dtype=np.int8)
        weights = np.full(pts.shape, 0.02)
        sorted_shapes, argsort = [], np.argsort
        monkeypatch.setattr(
            np,
            "argsort",
            lambda a, *r, **k: sorted_shapes.append(np.shape(a)) or argsort(a, *r, **k),
        )
        out = _merge_curve(*_grid_rows(pts, weights, labels), 2)
        assert all(50 not in shape for shape in sorted_shapes)
        assert [c.tolist() for c, _ in out] == [[0.0]] * 4
        spans = [s.tolist() for _, s in out]
        assert spans[::2] == [[], []]
        assert spans[1::2] == [[[p.min(), p.max()]] for p in pts[1::2]]

    def test_zero_weight_splits_an_all_one_row(self):
        # a zero weight is a nonpositive segment, so this all-1 row is two
        # positive segments, not one pure span
        pts = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        weights = np.array([0.25, 0.25, 0.0, 0.25, 0.25])
        labels = np.ones(5, dtype=np.int8)
        cases = [(2, [0.0], [[0.1, 0.2], [0.4, 0.5]]), (1, [0.0, 0.0], [[0.1, 0.5]])]
        for stop, costs, spans in cases:
            ((c, s),) = _merge_curve(pts, weights, labels, [0, 5], stop)
            assert (c.tolist(), s.tolist()) == (costs, spans)

    @pytest.mark.parametrize(
        "rows, n, stop, uniform",
        [(1, 16_095, 2000, True), (1, 16_095, 2000, False), (8, 3000, 10, False)],
    )
    def test_rounds_match_heap_loop_on_large_noisy_rows(self, rows, n, stop, uniform):
        # intervals-large-d's shape: 16,095 points, a target of 2,000
        # intervals, label noise, stop at d=2000; uniform weights as its
        # draws carry, whose steps tie in long runs, or uneven ones, whose
        # steps do not; and a batch at a low stop, which merges merged
        # segments again, so a sum taken in another order shows
        rng = np.random.default_rng(16)
        pts = rng.random((rows, n))
        labels = (np.floor(pts * 2 * stop) % 2 == 0) ^ (rng.random(pts.shape) < 0.15)
        weights = np.full(pts.shape, 1.0) if uniform else rng.random(pts.shape)
        weights /= weights.sum(axis=1, keepdims=True)
        self._paths_agree(*_grid_rows(pts, weights, labels.astype(np.int8)), stop)
        for costs, spans in _merge_curve(*_grid_rows(pts, weights, labels), stop):
            assert costs.shape[0] > intervals.ROUNDS_MIN_MERGES and len(spans) == stop

    def test_monotone_row_hands_its_tail_to_the_heap(self):
        # alternating labels on weights rising along the line: each round
        # merges one segment, so the round cap hands the rest to the heap
        n = 2001
        pts = np.arange(n, dtype=float)[None] / n
        labels = (np.arange(n) % 2 == 0).astype(np.int8)[None]
        weights = (1.0 + np.arange(n) / n)[None] / n
        assert self._paths_agree(*_grid_rows(pts, weights, labels), 0) == 1

    def test_tied_row_hands_its_tail_to_the_heap(self):
        # alternating labels on equal weights: every |v| ties, one segment
        # is safe a round, and the tail's heap, seeded with far fewer keys
        # than the row has, must start from every key tied with its
        # 3*rem-th smallest
        n = 2001
        pts = np.arange(n, dtype=float)[None] / n
        labels = (np.arange(n) % 2 == 0).astype(np.int8)[None]
        weights = np.full((1, n), 1.0 / n)
        assert self._paths_agree(*_grid_rows(pts, weights, labels), 900) == 1
        # the same rows among others in one call: each hands its own tail
        noisy = np.random.default_rng(18).random((1, n)) < 0.5
        rows = np.concatenate((labels, noisy, labels)).astype(np.int8)
        batch = _grid_rows(np.repeat(pts, 3, axis=0), np.repeat(weights, 3, axis=0), rows)
        assert self._paths_agree(*batch, 900) == 2

    @staticmethod
    def _unsorted(pts, weights, labels, stop):
        """The one-row kernel's answer, failing if it sorts."""
        sorts, argsort = [], np.argsort
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "argsort", lambda a, *r, **k: sorts.append(1) or argsort(a, *r, **k))
            out = _merge_curve(pts, weights, labels, [0, pts.shape[0]], stop)
        assert sorts == []
        return out

    @settings(max_examples=400, deadline=None)
    @given(_increasing_rows())
    def test_increasing_row_matches_its_shuffle(self, row):
        # a strictly increasing row is its own order; shuffled, it takes
        # the argsort, which gives the identity back: the same bytes
        pts, weights, labels, stop, perm = row
        in_order = self._unsorted(pts, weights, labels, stop)
        shuffled = _merge_curve(pts[perm], weights[perm], labels[perm], [0, pts.shape[0]], stop)
        assert self._bits(in_order) == self._bits(shuffled)

    @pytest.mark.parametrize("stop", [0, 40, 900])
    def test_long_increasing_row_matches_its_shuffle(self, stop):
        # rows long enough for the vectorized rounds: random labels on
        # uneven weights, and alternating labels on equal weights, whose
        # round cap hands a tail to the seeded heap
        rng = np.random.default_rng(21)
        n = 3001
        pts = (np.arange(n) + 0.5) / n
        perm = rng.permutation(n)
        cases = [
            ((rng.random(n) < 0.5).astype(np.int8), rng.random(n) / n),
            ((np.arange(n) % 2 == 0).astype(np.int8), np.full(n, 1.0 / n)),
        ]
        for labels, weights in cases:
            in_order = self._unsorted(pts, weights, labels, stop)
            shuffled = _merge_curve(pts[perm], weights[perm], labels[perm], [0, n], stop)
            assert self._bits(in_order) == self._bits(shuffled)
            self._paths_agree(pts, weights, labels, [0, n], stop)

    @pytest.mark.parametrize("flaw", ["tie", "nan", "descent"])
    def test_row_with_one_flaw_takes_the_sort(self, flaw, monkeypatch):
        # one tie, one NaN or one descent in an otherwise increasing row:
        # the row is sorted, and the rounds match the heap loop alone
        rng = np.random.default_rng(22)
        n = 3001
        pts = (np.arange(n) + 0.5) / n
        i = n // 2
        if flaw == "tie":
            pts[i + 1] = pts[i]
        elif flaw == "nan":
            pts[i] = math.nan
        else:
            pts[[i, i + 1]] = pts[[i + 1, i]]
        labels = (rng.random(n) < 0.5).astype(np.int8)
        weights = rng.random(n) / n
        sizes, argsort = [], np.argsort
        monkeypatch.setattr(
            np, "argsort", lambda a, *r, **k: sizes.append(np.size(a)) or argsort(a, *r, **k)
        )
        for stop in (0, 40):
            self._paths_agree(pts, weights, labels, [0, n], stop)
        assert sizes == [n] * 4


class TestBlockSpec:
    def test_block_curves_match_restricted_dp(self):
        spec = interval_block_spec(4)
        rng = np.random.default_rng(3)
        pts = rng.random(40)
        labels = (pts * 7 % 1 > 0.5).astype(np.int8)
        blocks = spec.block_of(pts)
        order = np.argsort(blocks, kind="stable")
        by_block = WeightedSample(pts[order], np.full(40, 1 / 40.0), labels[order])
        edges = np.concatenate(([0], np.cumsum(np.bincount(blocks, minlength=4))))
        for kmax in (1, 3, 12):
            curves = spec.cost_curves(by_block, edges, kmax)
            width = curves.shape[1]
            assert curves.shape[0] == 4 and 0 < width <= kmax + 1
            for i in range(4):
                mask = blocks == i
                expected = interval_error_curve(
                    pts[mask], np.full(mask.sum(), 1 / 40.0), labels[mask], kmax
                )
                # bit for bit up to the width, flat past it
                assert curves[i].tobytes() == expected[:width].tobytes()
                assert np.all(expected[width:] == expected[width - 1])
            # cut where the block with the most positive segments goes flat
            assert width == kmax + 1 or np.any(curves[:, -2] > curves[:, -1])

    def test_empty_block_is_free(self):
        spec = interval_block_spec(2)
        empty = WeightedSample(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int8))
        assert spec.cost_curves(empty, np.array([0, 0]), 2).tolist() == [[0.0]]
        # empty blocks before and between non-empty ones read 0 in the
        # same call
        s = WeightedSample(np.array([0.1, 0.2, 0.6]), np.full(3, 1 / 3), np.array([1, 0, 1]))
        curves = spec.cost_curves(s, np.array([0, 0, 2, 2, 3]), 2)
        assert curves.tolist() == [[0.0, 0.0], [1 / 3, 0.0], [0.0, 0.0], [1 / 3, 0.0]]


class TestRankPositions:
    def test_values_and_ties(self):
        r = rank_positions(np.array([0.9, 0.1, 0.5]))
        np.testing.assert_allclose(r, [5 / 6, 1 / 6, 0.5])
        tied = rank_positions(np.array([0.4, 0.4]))
        np.testing.assert_allclose(np.sort(tied), [0.25, 0.75])
        assert tied[0] < tied[1]  # earlier draw wins the tie


class TestPlan:
    def test_route_threshold(self):
        assert interval_da_plan(0.2, 40)["route"] == "agnostic"
        assert interval_da_plan(0.2, 41)["route"] == "composition"

    def test_agnostic_samples_do_not_depend_on_d(self):
        q = {interval_da_plan(0.2, d)["samples"] for d in (1, 7, 40)}
        assert len(q) == 1

    def test_composition_parameters(self):
        plan = interval_da_plan(0.2, 100)
        assert plan["m"] == math.floor(0.2 * 100 / 8)
        assert plan["lam"] == pytest.approx(100 / plan["m"])
        assert plan["lam_eff"] == pytest.approx(1.025 * plan["lam"])
        assert plan["eps_inner"] == pytest.approx(0.1)
        assert plan["mu"] == pytest.approx(1.05 / 1.025 - 1.0)
        assert plan["repetitions"] == ORACLE_REPETITIONS == 3
        sizing = composition_plan(
            plan["m"],
            plan["lam_eff"],
            plan["eps_inner"],
            plan["mu"],
            erm_samples=plan["erm_samples"],
        )
        assert {k: plan[k] for k in sizing} == sizing
        # label spend is a function of eps alone
        assert (
            plan["erm_samples"]
            == interval_da_plan(0.2, 5000)["erm_samples"]
            == math.ceil(6.5e-3 * math.log(5.0) / 0.2**6)
        )

    def test_sample_constants_are_read_at_call_time(self, monkeypatch):
        agnostic = interval_da_plan(0.2, 10)["samples"]
        composition = interval_da_plan(0.2, 100)["erm_samples"]
        monkeypatch.setattr(intervals, "AGNOSTIC_SAMPLE_CONSTANT", 2.0)
        monkeypatch.setattr(intervals, "COMPOSITION_LABEL_CONSTANT", 13e-3)
        assert interval_da_plan(0.2, 10)["samples"] == pytest.approx(2 * agnostic, abs=1)
        assert interval_da_plan(0.2, 100)["erm_samples"] == pytest.approx(2 * composition, abs=1)
        monkeypatch.setattr(active_reduction, "UNLABELED_SAMPLE_CONSTANT", 0.2)
        res = interval_da(Distribution.uniform01(), TargetFunction.constant(0), 0.3, 1, seed=0)
        assert res.unlabeled_used == math.ceil(0.2 * 2 * math.log(1 / 0.3) / 0.3**2)

    def test_validation(self):
        with pytest.raises(ValueError):
            interval_da_plan(0.5, 10)
        with pytest.raises(ValueError):
            interval_da_plan(0.2, -1)

    def test_bool_budget_rejected(self):
        # True would plan d=1, and both estimators would run at d=1
        with pytest.raises(ValueError, match="invalid class parameter"):
            interval_da_plan(0.2, True)
        pool = _uniform_pool(10, TargetFunction.constant(0), seed=0)
        with pytest.raises(ValueError, match="invalid class parameter"):
            interval_da_uniform(pool, 0.2, True)
        assert pool.unlabeled_used == 0


def _uniform_pool(n, target, seed):
    rng = np.random.default_rng(seed)
    return ActivePool(rng.random(n), LabelOracle(target))


class TestDaUniform:
    def test_agnostic_route_zero_distance(self):
        target = IntervalUnion([[0.2, 0.3], [0.6, 0.9]]).as_target()
        plan = interval_da_plan(0.25, 8)
        pool = _uniform_pool(plan["samples"] + 10, target, seed=21)
        res = interval_da_uniform(pool, 0.25, 8, seed=22)
        assert res.value == 0.0
        assert len(res.witness) <= 8
        assert res.queries_used == plan["samples"]
        assert res.unlabeled_used == plan["samples"]

    def test_composition_route_zero_distance(self):
        target = IntervalUnion([[0.0, 0.5]]).as_target()
        pool = _uniform_pool(1000, target, seed=23)
        res = interval_da_uniform(pool, 0.2, 100, seed=24)
        assert res.value == 0.0
        assert res.witness is None
        plan = interval_da_plan(0.2, 100)
        assert res.queries_used == plan["erm_samples"] * plan["repetitions"]
        assert res.unlabeled_used >= res.queries_used

    def test_receipt_keeps_a_distance_one_ulp_above_one(self):
        # 230 weights of 1/230 sum to 1.0000000000000002; the receipt must
        # carry the exact solver's value, not reject it
        pool = _uniform_pool(230, TargetFunction.constant(1), seed=27)
        res = interval_da_uniform(pool, 0.4, 0, seed=28)
        assert res.value == 1.0000000000000002
        assert res.queries_used == res.unlabeled_used == 230

    def test_insufficient_pool(self):
        target = TargetFunction.constant(0)
        pool = _uniform_pool(50, target, seed=25)
        with pytest.raises(InsufficientPoolError):
            interval_da_uniform(pool, 0.2, 100, seed=26)


class TestDaWrapper:
    def test_small_budget_labels_whole_draw(self):
        union = IntervalUnion([[0.1, 0.4]])
        res = interval_da(
            Distribution.uniform01(), union.as_target(), 0.3, 2, seed=30
        )
        n_unl = active_sample_size(4, 0.3)
        assert res.unlabeled_used == n_unl
        assert res.queries_used == n_unl
        assert res.value == 0.0
        assert res.witness is not None

    def test_large_budget_composition(self):
        union = IntervalUnion([[0.0, 0.5]])
        res = interval_da(
            Distribution.uniform01(), union.as_target(), 0.4, 1000, seed=31
        )
        assert res.value == 0.0
        assert res.witness is None
        inner = interval_da_plan(0.2, 1000)
        assert res.queries_used == inner["erm_samples"] * inner["repetitions"]
        assert res.unlabeled_used == active_sample_size(2000, 0.4)

    def test_composition_bill_over_draw_labels_draw(self):
        # at eps=0.4, d=100 the composition route would bill 492 labels
        # against a 115-point draw, so the draw is labeled and solved
        union = IntervalUnion([[0.1, 0.3], [0.5, 0.6]])
        res = interval_da(
            Distribution.uniform01(), union.as_target(), 0.4, 100, seed=33
        )
        inner = interval_da_plan(0.2, 100)
        assert inner["route"] == "composition"
        assert inner["erm_samples"] * inner["repetitions"] == 492
        assert res.queries_used == res.unlabeled_used == 115
        draws = Distribution.uniform01().draw(115, np.random.default_rng(33))
        labels = union.evaluate(draws)
        assert len(res.witness) <= 100
        disagreement = np.count_nonzero(res.witness.evaluate(draws) != labels) / 115
        assert disagreement == pytest.approx(res.value, abs=1e-12)

    @pytest.mark.parametrize("d, exact", [(5579, True), (5580, False)])
    def test_route_switches_at_crossover(self, d, exact):
        # at eps=0.2 the composition bill is 44,901 labels and the draw is
        # ceil(0.1 * 2d * ln 5 / 0.04) points, which passes it at d = 5580
        bill = 3 * interval_da_plan(0.1, d)["erm_samples"]
        n_unl = active_sample_size(2 * d, 0.2)
        assert bill == 44901 and (n_unl <= bill) == exact
        oracle = LabelOracle(IntervalUnion([[0.0, 0.5]]).as_target())
        res = interval_da(Distribution.uniform01(), oracle, 0.2, d, seed=34)
        assert res.unlabeled_used == n_unl
        assert res.queries_used == oracle.used == (n_unl if exact else bill)
        assert (res.witness is not None) == exact
        assert res.value == 0.0

    def test_composition_route_queries_pinned(self):
        # every estimate on this route reads 0.0, so the receipt alone cannot
        # show a change in generator order; the queried points can
        union = IntervalUnion([[0.1, 0.3], [0.5, 0.6], [0.8, 0.85]])
        digest, batches = hashlib.sha256(), []

        def record(pts):
            digest.update(pts.dtype.str.encode())
            digest.update(pts.tobytes())
            batches.append(pts.shape[0])
            return union.evaluate(pts)

        target = TargetFunction.from_callable(lambda x: union.contains([x])[0], record)
        res = interval_da(Distribution.uniform01(), target, 0.2, 5580, seed=34)
        assert res == Receipt(0.0, 44901, 44904, None)
        assert batches == [14967] * 3
        assert digest.hexdigest() == (
            "969b0c91c173a8b9b042e1322f4517e8a5dc579048338d96a89cd45ed2472aaa"
        )

    def test_accepts_oracle_and_charges_it(self):
        oracle = LabelOracle(TargetFunction.constant(1))
        res = interval_da(Distribution.uniform01(), oracle, 0.3, 1, seed=32)
        assert oracle.used == res.queries_used
        # constant 1 is a single interval: distance zero
        assert res.value == 0.0

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            interval_da(Distribution.uniform01(), TargetFunction.constant(0), 0.6, 3)

    @pytest.mark.parametrize(
        "eps, d, error",
        [(0.2, -1, "invalid class parameter"), (0.2, 2.5, "invalid class parameter"),
         (0.2, True, "invalid class parameter"), (0.6, 3, "invalid parameter"), (0.2, 3, None)],
    )
    def test_bad_input_raises_before_drawing(self, eps, d, error):
        draws = []

        def inverse_cdf(u):
            draws.append(u.shape[0])
            return u

        dist = Distribution.from_inverse_cdf(inverse_cdf)
        if error is None:
            interval_da(dist, TargetFunction.constant(0), eps, d, seed=0)
            assert draws == [active_sample_size(2 * d, eps)]
            return
        with pytest.raises(ValueError, match=error):
            interval_da(dist, TargetFunction.constant(0), eps, d, seed=0)
        assert draws == []
