"""Unions of intervals on the line: exact empirical distance and its
label-frugal distance approximation.

The exact solver is one greedy segment-merging kernel, O(n log n) for any
interval budget; it gives both the exact distance with a witness and the
error curve over every budget. A row needing many merges runs most of
them as vectorized rounds in numpy and hands the rest to a heap loop,
with the heap loop's result bit for bit; one call solves many ragged
rows, such as every block of a composition solve. The approximation
solves small problems exactly on labeled draws and routes large interval
budgets through the block-composition estimator, whose label spend is a
function of the accuracy alone, not of the interval budget.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .active_reduction import activeize_da
from .composition import (
    CompositionSpec,
    composition_da,
    composition_plan,
    uniform_block_index,
    _draws_for_hits,
)
from .core import (
    ActivePool,
    LabelOracle,
    Receipt,
    TargetFunction,
    WeightedSample,
)

__all__ = [
    "IntervalUnion",
    "exact_distance_to_intervals",
    "interval_error_curve",
    "interval_block_spec",
    "interval_da_plan",
    "interval_da_uniform",
    "interval_da",
    "rank_positions",
]

# Labeled subsample for the small-budget route: ceil(C * 2d * ln(1/eps) /
# eps^2), 2d being the shatter dimension of d intervals.
AGNOSTIC_SAMPLE_CONSTANT = 1.0

# Per-repetition ERM subsample for the composition route:
# ceil(C * ln(1/eps) / eps^6). Deliberately a function of eps alone so the
# label count is identical for every interval budget d; the d-free bounds
# lambda <= 16/eps and the block-sample formula are folded into C. Tuned so
# the Monte Carlo acceptance battery runs in seconds with margin to spare.
COMPOSITION_LABEL_CONSTANT = 6.5e-3

# A row of the interval kernel needing at least this many merges runs
# vectorized rounds of safe merges before the heap loop takes the rest; a
# row needing fewer takes the heap loop alone. Where the two paths break
# even, measured on random rows on a 2-vCPU x86-64 host (Python 3.11,
# numpy 2.4): near 256 merges for rows of about twice as many segments,
# the shape of a block curve at stop 0 (0.65 ms each); near 60 merges for
# rows of six times as many. Rows with fewer segments per merge pay the
# rounds' fixed numpy cost for too little work.
ROUNDS_MIN_MERGES = 256


class IntervalUnion:
    """A sorted union of pairwise disjoint, non-adjacent closed intervals."""

    def __init__(self, intervals=()):
        if not isinstance(intervals, np.ndarray):
            intervals = list(intervals)
        arr = np.asarray(intervals, dtype=float).reshape(-1, 2)
        if arr.size:
            if np.any(arr[:, 0] > arr[:, 1]):
                raise ValueError("invalid class parameter")
            order = np.argsort(arr[:, 0], kind="stable")
            arr = arr[order]
            if np.any(arr[1:, 0] <= arr[:-1, 1]):
                raise ValueError("invalid class parameter")
        self.intervals = arr

    def __len__(self) -> int:
        return int(self.intervals.shape[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalUnion) and np.array_equal(
            self.intervals, other.intervals
        )

    def __repr__(self) -> str:
        return f"IntervalUnion({self.intervals.tolist()})"

    def measure(self) -> float:
        if not len(self):
            return 0.0
        return float((self.intervals[:, 1] - self.intervals[:, 0]).sum())

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        if not len(self):
            return np.zeros(pts.shape, dtype=bool)
        lo = np.searchsorted(self.intervals[:, 0], pts, side="right") - 1
        ok = lo >= 0
        inside = np.zeros(pts.shape, dtype=bool)
        inside[ok] = pts[ok] <= self.intervals[lo[ok], 1]
        return inside

    def evaluate(self, points) -> np.ndarray:
        return self.contains(points).astype(np.int8)

    def as_target(self) -> TargetFunction:
        return TargetFunction.from_callable(
            lambda x: bool(self.contains([x])[0]), lambda pts: self.evaluate(pts)
        )

    def to_json(self) -> dict:
        return {"intervals": [[float(a), float(b)] for a, b in self.intervals]}

    @classmethod
    def from_json(cls, obj: dict) -> "IntervalUnion":
        return cls(obj["intervals"])


def _merge_curve(points, weights, labels, offsets, stop: int):
    """The one interval kernel: O(n log n) greedy segment merging, by rows.

    Row r, positions offsets[r] up to offsets[r + 1] of the flat arrays,
    is its own problem; an empty row costs 0. With v = w1 - w0 per
    distinct position, a union covering positions S disagrees with weight
    W1 - sum(v over S), so the least disagreement with at most k intervals
    is W1 minus the best sum of at most k disjoint subarrays of v. Maximal
    runs of v > 0 and v <= 0 form alternating segments, the nonpositive
    ones at both ends dropped; with P positive segments the cost at k >= P
    is the base sum(min(w0, w1)). The best sum is concave in k, and its
    optimal step from k to k-1 merges the live segment of least |value| b
    with both neighbours into one of value a+b+c (the exchange argument
    for k maximum disjoint subarrays): a positive b is given up, a
    nonpositive one covered, either for |b|. -inf sentinels at the ends
    absorb a given-up end segment. Costs are accumulated upward from the
    exact base, never taken as W1 minus the covered weight, so distance
    zero reads exactly 0.0.

    Equal-length rows sort in one 2-D argsort, ragged ones each on its own
    slice, which gives each row the permutation it gets alone; the sort
    need not be stable, as equal positions are summed before their order
    is read. Tie grouping, segment split and segment sums run once over
    all rows, row starts being forced cuts, so each row's result is the
    one it gets alone. The merges run per row in :func:`_merge_row`:
    vectorized rounds of safe merges for a row needing at least
    ROUNDS_MIN_MERGES of them, the heap loop for a row needing fewer and
    for what the rounds leave, and the same bits either way.

    Returns one (costs, spans) per row: costs[j] is the cost at P - j
    intervals for j = 0..P - min(stop, P); spans is a (min(stop, P), 2)
    float array of the (first, last) positions of the live positive
    segments at the stop, a union attaining costs[-1].
    """
    pts = np.asarray(points, dtype=float)
    # lead[r] is row r's first position in the flat arrays
    lead = np.asarray(offsets, dtype=np.intp)
    rows, lens = lead.shape[0] - 1, np.diff(lead)
    if rows and np.all(lens == lens[0]):
        order = np.argsort(pts.reshape(rows, lens[0]), axis=1)
        order += lead[:-1, None]
        order = order.ravel()
    else:
        order = np.arange(pts.shape[0])
        for a, b in zip(lead[:-1].tolist(), lead[1:].tolist()):
            if b - a > 1:
                order[a:b] = np.argsort(pts[a:b]) + a
    pts = pts[order]
    w = np.asarray(weights, dtype=float)[order]
    lab = np.asarray(labels)[order]
    w0 = np.where(lab == 0, w, 0.0)
    w1 = np.where(lab == 1, w, 0.0)
    # a lone point carries one label, so only rows with repeated
    # positions pay a base; the spare last cell takes the end rows' starts
    base = np.zeros(rows)
    new = np.ones(pts.shape[0] + 1, dtype=bool)
    np.not_equal(pts[1:], pts[:-1], out=new[1:-1])
    new[lead] = True
    if not new.all():
        first = np.flatnonzero(new[:-1])
        pts, w0, w1 = pts[first], np.add.reduceat(w0, first), np.add.reduceat(w1, first)
        grouped = np.searchsorted(first, lead)
        least = np.minimum(w0, w1)
        for r in np.flatnonzero(np.diff(grouped) < lens):
            base[r] = least[grouped[r] : grouped[r + 1]].sum()
        lead = grouped
    v = w1 - w0
    up = v > 0
    cut = np.ones(v.shape[0] + 1, dtype=bool)
    np.not_equal(up[1:], up[:-1], out=cut[1:-1])
    cut[lead] = True
    starts = np.flatnonzero(cut[:-1])
    val = np.add.reduceat(v, starts)
    # row r keeps segments a..b-1, its nonpositive ends dropped; they
    # alternate from a positive one, so P = (b - a + 1) // 2 of them are
    # positive. bound[j] is where segment j ends and the next begins.
    seg = np.searchsorted(starts, lead).tolist()
    pos = up[starts].tolist()
    bound = np.append(starts, v.shape[0])
    out = []
    for r in range(rows):
        a, b = seg[r], seg[r + 1]
        if a < b:
            a, b = a + (not pos[a]), b - (not pos[b - 1])
        out.append(_merge_row(pts, val[a:b], bound[a : b + 1], base[r], stop))
    return out


def _merge_row(pts, val, lo, base: float, stop: int):
    """One row of :func:`_merge_curve`: val are the row's segment values
    between its nonpositive ends, lo their first positions plus the
    position past the last; merges until `stop` positive segments are
    live. Returns (costs, spans).

    The heap loop of :func:`_merge_heap` pops the live segment of least
    key (|v|, index). A row needing at least ROUNDS_MIN_MERGES merges
    first runs :func:`_merge_rounds`, which merges in rounds, each at once,
    the segments the heap would merge with the same neighbours. A live
    segment x is safe when its key is below those of its two neighbours
    and of the two segments beyond them. A merged segment's |v| is at
    least that of each segment it absorbs, and of two equal |v| the left
    one pops first, so nothing the heap pops before x can absorb a
    neighbour of x: merging x early computes the same (left + x) + right
    and commutes with every earlier pop. No two safe segments share a
    neighbour, and the least key is always safe. With rem merges left, x
    is among the heap's if fewer than rem live keys lie below its own, as
    each pop below it removes at least one of them.

    The heap loop takes a row needing fewer merges, and whatever merges
    the rounds leave when a row needs more rounds than the cap, as when
    its |v| rise along the line. The heap pops steps in non-decreasing
    order, so sorting the popped |v| of both restores its order, equal
    steps being equal values, and the costs accumulate bit for bit as
    from the heap loop alone.
    """
    k = (val.shape[0] + 1) // 2
    if k == 0:
        # no positive segment, such as an all-0 row: the base alone
        return np.array([base]), np.zeros((0, 2))
    if k - stop < ROUNDS_MIN_MERGES:
        val, lo = [-math.inf] + val.tolist() + [-math.inf], [0] + lo.tolist()
        steps, spans = _merge_heap(pts, val, lo, stop)
        return np.add.accumulate([base] + steps), spans
    val, lo, steps = _merge_rounds(val, lo, k - stop)
    if k - steps.shape[0] > stop:
        tail, spans = _merge_heap(pts, val[1:-1].tolist(), lo[1:-1].tolist(), stop)
        steps = np.append(steps, tail)
    else:
        live = np.flatnonzero(val > 0)
        spans = np.column_stack((pts[lo[live]], pts[lo[live + 1] - 1]))
    return np.add.accumulate(np.append(base, np.sort(steps))), spans


def _merge_heap(pts, val, lo, stop: int):
    """Heap loop of :func:`_merge_row` over lists: val are the live
    segments' values between -inf sentinels and lo their first positions,
    the sentinels' included. Returns the popped |value| steps in pop
    order and the spans."""
    # segments 1..segs between the sentinels in a doubly linked list whose
    # spare last cell takes the writes past either end; a merge keeps the
    # middle index, so index order stays line order and a span ends where
    # the next live segment starts
    segs = len(val) - 2
    prev, nxt = list(range(-1, segs + 2)), list(range(1, segs + 4))
    alive = [True] * (segs + 2)
    heap = [(abs(x), i) for i, x in enumerate(val[1:-1], 1)]
    heapq.heapify(heap)
    k, steps = (segs + 1) // 2, []
    while k > stop:
        step, i = heapq.heappop(heap)
        if not alive[i]:
            continue
        left, right = prev[i], nxt[i]
        alive[left] = alive[right] = False
        val[i] = val[left] + val[i] + val[right]
        lo[i], prev[i], nxt[i] = lo[left], prev[left], nxt[right]
        nxt[prev[i]] = prev[nxt[i]] = i
        if val[i] > -math.inf:
            heapq.heappush(heap, (abs(val[i]), i))
        steps.append(step)
        k -= 1
    ends = [
        p
        for i in range(1, segs + 1)
        if alive[i] and val[i] > 0
        for p in (lo[i], lo[nxt[i]] - 1)
    ]
    return steps, pts.take(ends).reshape(-1, 2)


def _merge_rounds(val, lo, rem: int):
    """Rounds of safe merges for :func:`_merge_row`, until `rem` merges
    are done or for twice as many rounds as `rem` has bits, which keeps a
    row that merges one segment a round at O(n log n). Each round merges
    every safe segment whose key is among the rem smallest live ones, the
    rem-th found by one partition, ties going by index. Returns the live
    segments' values and first positions between double sentinels, the
    sentinels' included, and the popped |value| of each merge.
    """
    # two sentinels a side stand in for the segments beyond the ends; the
    # inner ones absorb a given-up end segment, whose merge reads -inf
    val = np.concatenate(([-math.inf] * 2, val, [-math.inf] * 2))
    lo = np.concatenate(([0, 0], lo, lo[-1:]))
    steps = []
    for _ in range(2 * rem.bit_length()):
        key = np.abs(val)
        mid = key[2:-2]
        # below the left keys and not above the right ones: of equal |v|
        # the left one has the smaller key
        i = np.flatnonzero(
            (mid < np.minimum(key[1:-3], key[:-4])) & (mid <= np.minimum(key[3:-1], key[4:]))
        )
        if rem < mid.shape[0]:
            kth = np.partition(mid, rem - 1)[rem - 1]
            quota = rem - np.count_nonzero(mid < kth)
            ki = mid[i]
            i = i[(ki < kth) | ((ki == kth) & (np.cumsum(mid == kth)[i] <= quota))]
        steps.append(mid[i])
        i += 2
        val[i] = (val[i - 1] + val[i]) + val[i + 1]
        lo[i] = lo[i - 1]
        keep = np.ones(val.shape[0], dtype=bool)
        keep[i - 1] = keep[i + 1] = False
        val, lo = val[keep], lo[keep]
        rem -= i.shape[0]
        if rem == 0:
            break
    return val, lo, np.concatenate(steps)


def interval_error_curve(points, weights, labels, kmax: int) -> np.ndarray:
    """Minimum disagreement weight against a union of at most k intervals,
    for every k = 0..kmax in one merge pass, O(n log n); flat past the
    number P of positive segments."""
    if kmax < 0:
        raise ValueError("invalid class parameter")
    ((costs, _),) = _merge_curve(points, weights, labels, [0, len(points)], 0)
    return costs[::-1][np.minimum(np.arange(kmax + 1), costs.shape[0] - 1)]


def exact_distance_to_intervals(
    sample: WeightedSample, d: int
) -> tuple[float, IntervalUnion]:
    """Exact empirical distance from the sample's labeling to the nearest
    union of at most d intervals, plus an optimal witness.

    Greedy segment merging stops at min(d, P) intervals, P being the
    number of positive segments; the witness is the live positive
    segments, each from its first to its last position. O(n log n).
    """
    if not isinstance(d, (int, np.integer)) or d < 0:
        raise ValueError("invalid class parameter")
    if sample.labels is None:
        raise ValueError("domain mismatch")
    sample.require_normalized()
    ((costs, spans),) = _merge_curve(
        sample.points, sample.weights, sample.labels, [0, len(sample)], int(d)
    )
    return float(costs[-1]), IntervalUnion(spans)


def interval_block_spec(m: int) -> CompositionSpec:
    """Composition over the even cut of [0,1] whose block classes are unions
    of at most k intervals inside the block: one kernel call gives every
    block's curve, cut where the one with most positive segments goes flat."""

    def curves(s, edges, kmax):
        # costs[i][k] is block i's cost at k = 0..P_i intervals
        costs = [c[::-1] for c, _ in _merge_curve(s.points, s.weights, s.labels, edges, 0)]
        lens = np.array([c.shape[0] for c in costs])
        k = np.arange(min(kmax + 1, lens.max()))
        first = np.cumsum(lens) - lens
        return np.concatenate(costs)[first[:, None] + np.minimum(k, lens[:, None] - 1)]

    return CompositionSpec(m, curves, block_of=lambda pts: uniform_block_index(pts, m))


def rank_positions(points: np.ndarray) -> np.ndarray:
    """Map draws to (i-0.5)/N by increasing value, ties broken by draw index."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    order = np.lexsort((np.arange(n), pts))
    ranks = np.empty(n)
    ranks[order] = (np.arange(n) + 0.5) / n
    return ranks


def interval_da_plan(eps: float, d: int) -> dict:
    """Resolve the route and derived parameters of the interval DA.

    Budgets d <= 8/eps go to agnostic learning on a labeled subsample.
    Larger ones cut [0,1] into m = floor(eps*d/8) blocks and run the
    composition estimator with inflated per-block rate lam_eff =
    (1+eps/8)*d/m (block boundaries split at most m intervals), inner
    accuracy eps/2 and bi-criteria slack 1+mu = (1+eps/4)/(1+eps/8); the
    estimator's :func:`composition_plan`, with erm_samples a function of
    eps alone, is merged in. Removing the ceil(eps*k/2) shortest intervals
    of a (1+eps/4)d-interval witness costs under eps/2 + 1/d, so the
    bi-criteria answer already satisfies the plain contract at eps. The
    sample constants are the module's, read at each call.
    """
    if not (0.0 < eps < 0.5):
        raise ValueError("invalid parameter")
    if not isinstance(d, (int, np.integer)) or d < 0:
        raise ValueError("invalid class parameter")
    d = int(d)
    if d <= 8.0 / eps:
        # Sized at the route threshold rather than at d, so the label spend
        # on this route is a function of the accuracy alone.
        vc = 2 * math.ceil(8.0 / eps)
        q = math.ceil(AGNOSTIC_SAMPLE_CONSTANT * vc * math.log(1.0 / eps) / eps**2)
        return {"route": "agnostic", "samples": q}
    m = math.floor(eps * d / 8.0)
    lam = d / m
    lam_eff = (1.0 + eps / 8.0) * lam
    eps_inner = eps / 2.0
    mu = (1.0 + eps / 4.0) / (1.0 + eps / 8.0) - 1.0
    q_rep = math.ceil(COMPOSITION_LABEL_CONSTANT * math.log(1.0 / eps) / eps**6)
    return {
        "route": "composition",
        "m": m,
        "lam": lam,
        "lam_eff": lam_eff,
        "eps_inner": eps_inner,
        "mu": mu,
        **composition_plan(m, lam_eff, eps_inner, mu, erm_samples=q_rep),
    }


def _label_and_solve(pool: ActivePool, n: int, d: int) -> Receipt:
    """Label the pool's next n points and solve their empirical distribution
    exactly, witness included; the bill is n labels on n unlabeled draws."""
    pts, idx = pool.take(n)
    sample = WeightedSample.uniform(pts, pool.label(idx))
    alpha, witness = exact_distance_to_intervals(sample, d)
    return Receipt(alpha, n, n, witness)


def interval_da_uniform(
    pool: ActivePool,
    eps: float,
    d: int,
    *,
    seed: int | None | np.random.Generator = None,
) -> Receipt:
    """Distance approximation for unions of at most d intervals under the
    uniform distribution on [0,1].

    For the true distance alpha the output is at most alpha+eps and more
    than alpha-eps, each with probability at least 2/3. On the composition
    route the label spend depends on eps only, and the receipt is
    :func:`composition_da`'s.
    """
    plan = interval_da_plan(eps, d)
    if plan["route"] == "agnostic":
        return _label_and_solve(pool, plan["samples"], d)
    return composition_da(
        pool,
        interval_block_spec(plan["m"]),
        plan["lam_eff"],
        plan["eps_inner"],
        plan["mu"],
        seed=seed,
        erm_samples=plan["erm_samples"],
    )


def _composition_pool_size(plan: dict) -> int:
    need = plan["erm_samples"] * plan["repetitions"]
    return 2 * _draws_for_hits(need, plan["l"] / plan["m"]) + 4 * plan["m"] + 64


def interval_da(
    dist,
    target: TargetFunction | LabelOracle,
    eps: float,
    d: int,
    *,
    seed: int | None | np.random.Generator = None,
) -> Receipt:
    """Distance approximation under an unknown distribution, through
    :func:`activeize_da`.

    The reduction draws n_unl points for the shatter dimension 2d and runs
    on their empirical distribution at accuracy eps/2; the remaining eps/2
    covers the sampling error of the draw. eps and d are checked before
    anything is drawn. The whole draw is labeled and solved exactly, with
    the witness in the original coordinates, when d is small or when the
    composition route would bill erm_samples * repetitions >= n_unl labels:
    an exact answer on the draw has no estimation error, so only the draw
    error remains. With the default constants that route is cheaper only
    above d* of about 5,600 at eps=0.2 and about 81,000 at eps=0.1. There
    the draws are mapped to rank-uniform positions (ties by draw index) and
    :func:`interval_da_uniform` runs on a synthetic pool resampled from the
    empirical atoms; labels are charged to the real oracle at the original
    coordinates, and the resample adds no unlabeled cost because the
    empirical distribution is known: the receipt bills the n_unl draws.
    """
    if not (0.0 < eps < 0.5):
        raise ValueError("invalid parameter")
    plan = interval_da_plan(eps / 2.0, d)

    def solve(pool: ActivePool, eps_run: float, rng: np.random.Generator) -> Receipt:
        n_unl = len(pool)
        if plan["route"] == "agnostic" or plan["erm_samples"] * plan["repetitions"] >= n_unl:
            return _label_and_solve(pool, n_unl, d)
        ranks = rank_positions(pool.points)
        atom_idx = rng.integers(0, n_unl, size=_composition_pool_size(plan))
        synth = ActivePool(ranks[atom_idx], pool.oracle, query_points=pool.points[atom_idx])
        return interval_da_uniform(synth, eps_run, d, seed=rng)

    return activeize_da(solve, 2 * max(d, 1), eps, dist, target, seed=seed)
