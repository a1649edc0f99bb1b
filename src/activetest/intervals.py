"""Unions of intervals on the line: exact empirical distance and its
label-frugal distance approximation.

The exact solver is one greedy segment-merging kernel, O(n log n) for any
interval budget; it gives both the exact distance with a witness and the
error curve over every budget. One call solves many ragged rows, such as
every block of a composition solve or every repetition of a disjoint-union
block: it prepares them in bounded chunks, resolves pure rows unsorted,
and runs the merges of every row at once as vectorized rounds in numpy,
with the heap loop's result bit for bit. The approximation
solves small problems exactly on labeled draws and routes large interval
budgets through the block-composition estimator, whose label spend is a
function of the accuracy alone, not of the interval budget.
"""

from __future__ import annotations

import heapq
import itertools
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

# A kernel call runs its merges as vectorized rounds over every row at once
# when it needs at least this many merges per bit of its largest row's
# merge count, about the number of rounds it takes; a call needing fewer
# takes the heap loop row by row. Measured on a 2-vCPU x86-64 host (Python
# 3.11, numpy 2.4), heap loop against rounds: one row of 400/1,200 random
# points, stop 0 (106/303 merges), 179/572 us against 259/308 us; 10/20/53
# union-da rows of 2 merges, 55/113/267 us against 78/86/107 us; 30 rows
# of 20 points, stop 0 (156 merges), 270 against 215 us.
ROUNDS_MIN_MERGES = 16

# Rows are prepared in chunks of about this many points, so the sort and
# segment temporaries of a call stay a few chunk-sized arrays however many
# rows it holds. Each chunk costs about 30 us of fixed numpy work. Measured
# on the same host, union-da (blocks of 53 rows of 300 points) in 25 s
# perfbench runs, trial p50 and peak RSS against 2.84 ms and 48.1 MB before
# chunking: 2048 points, 1.76 ms and 51.2 MB; 3072, 1.56 ms and 52.3 MB;
# 8192, 1.37 ms and 54.5 MB. The trial's tracemalloc peak is the same at
# each, about 900 KB: perfbench keeps every round, about 1 KB each, so its
# peak RSS grows with the rounds a run fits, and 2048 keeps it within 10%.
_CHUNK_POINTS = 2048


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


class _Rows:
    """The kernel's answer for every row, flat: row r's costs are
    costs[cost_at[r]:cost_at[r + 1]] and its spans spans[span_at[r]:
    span_at[r + 1]]. Iterating yields one (costs, spans) view per row."""

    __slots__ = ("costs", "cost_at", "spans", "span_at")

    def __init__(self, costs, cost_at, spans, span_at):
        self.costs, self.cost_at, self.spans, self.span_at = costs, cost_at, spans, span_at

    def __len__(self) -> int:
        return self.cost_at.shape[0] - 1

    def __iter__(self):
        c, s = self.cost_at.tolist(), self.span_at.tolist()
        for r in range(len(c) - 1):
            yield self.costs[c[r] : c[r + 1]], self.spans[s[r] : s[r + 1]]

    def at_stop(self) -> np.ndarray:
        """Each row's cost at the stop, its last cost."""
        return self.costs[self.cost_at[1:] - 1]


def _merge_curve(points, weights, labels, offsets, stop: int) -> _Rows:
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

    Rows are prepared in chunks of about _CHUNK_POINTS points
    (:func:`_chunk_segments`), so the sort and segment temporaries stay
    chunk-sized however many rows the call holds; only each row's
    segments (value, first and last position) outlive its chunk. A pure
    row is resolved there unsorted: with no 1 label it costs exactly
    [0.0], and with every label 1 on positive weights it is one positive
    segment, so at stop >= 1 it costs [0.0] with the span (min, max). The
    merges then run for every row at once (:func:`_merge_rounds`): rounds
    of safe merges with per-row keys and merges left, a row that hits its
    round cap going on to the heap loop. A call needing fewer than
    ROUNDS_MIN_MERGES merges per bit of its largest row's merge count takes
    the heap loop row by row instead (:func:`_merge_heap`). Either way
    every row gets the bits it gets alone and on the heap loop alone.

    Returns a :class:`_Rows`: row r's costs[j] is its cost at P - j
    intervals for j = 0..P - min(stop, P), and its spans a (min(stop, P),
    2) float array of the (first, last) positions of the live positive
    segments at the stop, a union attaining its last cost.
    """
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    lab = np.asarray(labels)
    lead = np.asarray(offsets, dtype=np.intp)
    rows = lead.shape[0] - 1
    # chunks of about equal points, each at most _CHUNK_POINTS unless it is
    # one longer row
    total = int(lead[-1] - lead[0]) if rows else 0
    bounds = [0, rows] if rows else [0]
    if total > _CHUNK_POINTS:
        count = -(-total // _CHUNK_POINTS)
        cuts = np.searchsorted(lead, lead[0] + np.arange(1, count) * (total / count))
        bounds = sorted({0, rows, *cuts.tolist()})
    parts = [
        _chunk_segments(
            pts[lead[a] : lead[b]], w[lead[a] : lead[b]], lab[lead[a] : lead[b]],
            lead[a : b + 1] - lead[a], stop, a,
        )
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    if not parts:
        empty = np.zeros(0)
        parts = [(empty, np.zeros(0, dtype=np.intp), empty, empty, empty, None)]
    if len(parts) == 1:
        base, nseg, val, first, last, whole = parts[0]
    else:
        base, nseg, val, first, last = (np.concatenate(x) for x in zip(*(p[:5] for p in parts)))
        whole = [p[5] for p in parts if p[5] is not None]
        whole = tuple(np.concatenate(x) for x in zip(*whole)) if whole else None
    spans = [] if whole is None else [whole]
    # trimmed rows alternate from a positive segment: P = (nseg + 1) // 2
    merges = np.maximum((nseg + 1) // 2 - stop, 0)
    moving = merges > 0
    which = None if moving.all() else moving.nonzero()[0]
    if which is not None and val.size:
        seg_row = np.repeat(np.arange(rows), nseg)
        mine = moving[seg_row]
        # live positive segments of rows already within the stop
        still = ~mine & (val > 0)
        spans.append((seg_row[still], first[still], last[still]))
        val, first, last, nseg = val[mine], first[mine], last[mine], nseg[which]
    who = got = None
    if nseg.size and (which is None or which.size):
        if merges.sum() < ROUNDS_MIN_MERGES * int(merges.max()).bit_length():
            # the heap pops each row's steps in order, rows in order
            who, got, ends = _merge_heap_rows(val, first, last, nseg, stop)
        else:
            who, got, ends = _merge_rounds(val, first, last, nseg, stop)
            if nseg.size == 1:
                got = np.sort(got)
            else:
                order = np.lexsort((got, who))
                who, got = who[order], got[order]
        if which is not None:
            who, ends = which[who], (which[ends[0]], *ends[1:])
        spans.append(ends)
    return _assemble(base, merges, who, got, spans)


def _chunk_segments(p, w, lab, lead, stop: int, r0: int):
    """Row preparation for :func:`_merge_curve` on one chunk: p, w, lab its
    flat slices, lead its row offsets from 0, r0 its first row. Returns
    each row's base and count of trimmed segments, those segments' values
    and first and last positions in row order, and the (rows, first, last)
    of the all-1 rows resolved whole, or None.

    Only mixed rows are sorted. Equal-length ones sort in one 2-D argsort,
    ragged ones each on its own slice, which gives each row the
    permutation it gets alone; the sort need not be stable, as equal
    positions are summed before their order is read. Without repeated
    positions v is +-w straight from the labels: the sign of a zero
    weight's v is not w1 - w0's, which can flip only the sign of a
    zero-valued nonpositive segment and never its |value|, so no cost or
    span reads it. w0 and w1 are built only where positions repeat. Tie
    grouping, segment split and segment sums run once over the chunk, row
    starts being forced cuts."""
    rows = lead.shape[0] - 1
    lens = lead[1:] - lead[:-1]
    n = int(lens[0]) if rows == 1 or np.all(lens == lens[0]) else None
    ones = _row_counts(lab == 1, lead, n)
    mixed = ones > 0
    whole = None
    if stop >= 1:
        full = mixed & (ones == lens)
        if full.any():
            full &= _row_counts(w > 0, lead, n) == lens
            at = np.flatnonzero(full)
            if at.size:
                mixed &= ~full
                filled = lead[:-1][lens > 0]
                at_f = np.searchsorted(filled, lead[at])
                lows, highs = np.minimum.reduceat(p, filled), np.maximum.reduceat(p, filled)
                whole = at + r0, lows[at_f], highs[at_f]
    base, nseg = np.zeros(rows), np.zeros(rows, dtype=np.intp)
    sel = None if mixed.all() else mixed.nonzero()[0]
    if sel is not None and not sel.size:
        return base, nseg, np.zeros(0), np.zeros(0), np.zeros(0), whole
    if n is not None:
        grid = p.reshape(rows, n)
        order = np.argsort(grid if sel is None else grid[sel], axis=1)
        if rows > 1:
            order += (n * (np.arange(rows) if sel is None else sel))[:, None]
        order = order.ravel()
        mlead = np.arange(0, order.shape[0] + 1, n)
    else:
        sel = np.arange(rows) if sel is None else sel
        mlead = np.zeros(sel.shape[0] + 1, dtype=np.intp)
        np.cumsum(lens[sel], out=mlead[1:])
        order = np.empty(mlead[-1], dtype=np.intp)
        for r, a, b in zip(sel.tolist(), mlead[:-1].tolist(), mlead[1:].tolist()):
            order[a:b] = np.argsort(p[lead[r] : lead[r + 1]]) + lead[r]
    ps = p[order]
    new = np.empty(ps.shape[0] + 1, dtype=bool)
    np.not_equal(ps[1:], ps[:-1], out=new[1:-1])
    new[mlead] = True
    if new.all():
        v = lab[order].astype(float)
        v *= 2.0
        v -= 1.0
        v *= w[order]
    else:
        # a lone point carries one label, so only rows with repeated
        # positions pay a base; the spare last cell takes the end rows' starts
        ws, ls = w[order], lab[order]
        w0 = np.where(ls == 0, ws, 0.0)
        w1 = np.where(ls == 1, ws, 0.0)
        at = np.flatnonzero(new[:-1])
        ps, w0, w1 = ps[at], np.add.reduceat(w0, at), np.add.reduceat(w1, at)
        grouped = np.searchsorted(at, mlead)
        least = np.minimum(w0, w1)
        mixed_rows = np.arange(rows) if sel is None else sel
        for i in np.flatnonzero(np.diff(grouped) < np.diff(mlead)).tolist():
            base[mixed_rows[i]] = least[grouped[i] : grouped[i + 1]].sum()
        mlead = grouped
        v = w1 - w0
    up = v > 0
    cut = np.empty(v.shape[0] + 1, dtype=bool)
    np.not_equal(up[1:], up[:-1], out=cut[1:-1])
    cut[mlead] = True
    starts = cut[:-1].nonzero()[0]
    val, first, last = np.add.reduceat(v, starts), ps[starts], ps[cut[1:].nonzero()[0]]
    # drop each row's nonpositive end segments; a row of one nonpositive
    # segment drops it once and counts it twice, hence the clip at 0
    if mlead.shape[0] == 2:
        head, tail = int(not up[0]), int(not up[-1])
        count = max(starts.shape[0] - head - tail, 0)
        val, first, last = (x[head : head + count] for x in (val, first, last))
    else:
        seg = np.searchsorted(starts, mlead)
        head, tail = ~up[mlead[:-1]], ~up[mlead[1:] - 1]
        count = np.diff(seg)
        if (head | tail).any():
            count -= head
            count -= tail
            np.maximum(count, 0, out=count)
            keep = np.ones(starts.shape[0], dtype=bool)
            keep[seg[:-1][head]] = False
            keep[seg[1:][tail] - 1] = False
            val, first, last = val[keep], first[keep], last[keep]
    if sel is None:
        nseg[:] = count
    else:
        nseg[sel] = count
    return base, nseg, val, first, last, whole


def _row_counts(mask, lead, n) -> np.ndarray:
    """True entries of a flat mask in each row, all n long unless n is None."""
    if lead.shape[0] == 2:
        return np.array([np.count_nonzero(mask)])
    if n is not None:
        return np.count_nonzero(mask.reshape(lead.shape[0] - 1, n), axis=1)
    total = np.zeros(mask.shape[0] + 1, dtype=np.intp)
    np.cumsum(mask, out=total[1:])
    return total[lead[1:]] - total[lead[:-1]]


def _assemble(base, merges, who, got, spans) -> _Rows:
    """Flat costs and spans from each row's base and merge count, every
    merge's row and step, sorted by row and step, and the (rows, first,
    last) of every live positive segment at the stop, in line order within
    a row. Sorted steps are the heap's pop order, equal steps being equal
    values, and each row accumulates upward from its base one step at a
    time, as np.add.accumulate does on the row alone."""
    rows = base.shape[0]
    if len(spans) == 1:
        owner, first, last = spans[0]
    elif spans:
        owner, first, last = (np.concatenate(x) for x in zip(*spans))
    else:
        owner, first, last = np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0)
    if rows == 1:
        costs = base if who is None else np.concatenate((base, got))
        np.add.accumulate(costs, out=costs)
        cost_at, span_at = np.array([0, costs.shape[0]]), np.array([0, first.shape[0]])
        return _Rows(costs, cost_at, _pairs(first, last), span_at)
    if who is None:
        costs, cost_at = base, np.arange(rows + 1)
    else:
        cost_at = np.zeros(rows + 1, dtype=np.intp)
        np.cumsum(merges + 1, out=cost_at[1:])
        costs = np.empty(cost_at[-1])
        costs[cost_at[:-1]] = base
        # the i-th step follows the bases of rows 0..who[i]
        costs[np.arange(got.shape[0]) + who + 1] = got
        long = np.flatnonzero(merges)
        size = merges[long] + 1
        # rows of like length accumulate together, padded with zeros
        band = np.frexp(size.astype(float))[1]
        for b in sorted(set(band.tolist())):
            r, n = long[band == b], size[band == b]
            cols = np.arange(int(n.max()))
            ok = cols < n[:, None]
            at = cost_at[r][:, None] + np.where(ok, cols, 0)
            costs[at[ok]] = np.add.accumulate(np.where(ok, costs[at], 0.0), axis=1)[ok]
    order = np.argsort(owner, kind="stable")
    span_at = np.zeros(rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner, minlength=rows), out=span_at[1:])
    return _Rows(costs, cost_at, _pairs(first[order], last[order]), span_at)


def _pairs(first, last) -> np.ndarray:
    out = np.empty((first.shape[0], 2))
    out[:, 0], out[:, 1] = first, last
    return out


def _merge_heap_rows(val, first, last, nseg, stop: int, seeded: bool = False):
    """The heap loop of :func:`_merge_heap` row by row: val, first and last
    are the rows' segments back to back, nseg their counts. A seeded row's
    heap starts from its keys up to the 3*rem-th smallest, ties included
    (:func:`_merge_rounds` seeds the rows it leaves at their cap). Returns
    every pop's (rows, steps) and the (rows, first, last) of the spans."""
    lead = [0, *itertools.accumulate(nseg.tolist())]
    keys = np.abs(val) if seeded else None
    val, first, last = val.tolist(), first.tolist(), last.tolist()
    who, got, owner, ends = [], [], [], []
    for r in range(nseg.shape[0]):
        a, b = lead[r], lead[r + 1]
        seeds, cut = None, 3 * ((b - a + 1) // 2 - stop)
        if seeded and cut < b - a:
            t = np.partition(keys[a:b], cut - 1)[cut - 1]
            seeds = (np.flatnonzero(keys[a:b] <= t) + 1).tolist()
        pops, spans = _merge_heap(
            [-math.inf] + val[a:b] + [-math.inf],
            [0.0] + first[a:b] + [0.0],
            [0.0] + last[a:b] + [0.0],
            stop,
            seeds,
        )
        who += [r] * len(pops)
        got += pops
        owner += [r] * len(spans)
        ends += spans
    ends = np.array(ends, dtype=float).reshape(-1, 2)
    owner = np.array(owner, dtype=np.intp)
    return np.array(who, dtype=np.intp), np.array(got, dtype=float), (owner, ends[:, 0], ends[:, 1])


def _merge_heap(val, first, last, stop: int, seeds):
    """Heap loop over lists: val are the live segments' values between
    -inf sentinels, first and last their end positions, the sentinels'
    included; the heap starts from the segments at indices `seeds`, or
    all of them when None. Pops the live segment of least key (|v|, index)
    until `stop` positive segments are live. Returns the popped |value|
    steps in pop order and the (first, last) of each live positive
    segment."""
    # segments 1..segs between the sentinels in a doubly linked list whose
    # spare last cell takes the writes past either end; a merge keeps the
    # middle index, so index order stays line order
    segs = len(val) - 2
    prev, nxt = list(range(-1, segs + 2)), list(range(1, segs + 4))
    alive = [True] * (segs + 2)
    if seeds is None:
        seeds = range(1, segs + 1)
    heap = [(abs(val[i]), i) for i in seeds]
    heapq.heapify(heap)
    k, steps = (segs + 1) // 2, []
    while k > stop:
        step, i = heapq.heappop(heap)
        if not alive[i]:
            continue
        left, right = prev[i], nxt[i]
        alive[left] = alive[right] = False
        val[i] = val[left] + val[i] + val[right]
        first[i], last[i] = first[left], last[right]
        prev[i], nxt[i] = prev[left], nxt[right]
        nxt[prev[i]] = prev[nxt[i]] = i
        if val[i] > -math.inf:
            heapq.heappush(heap, (abs(val[i]), i))
        steps.append(step)
        k -= 1
    spans = [(first[i], last[i]) for i in range(1, segs + 1) if alive[i] and val[i] > 0]
    return steps, spans


def _merge_rounds(val, first, last, nseg, stop: int):
    """Rounds of safe merges over every row at once, for
    :func:`_merge_curve`; arguments and returns as :func:`_merge_heap_rows`.

    The heap loop pops the live segment of least key (|v|, index). Each
    round merges at once, in every row, the segments the heap would merge
    with the same neighbours. A live segment x is safe when its key is
    below those of its two neighbours and of the two segments beyond them.
    A merged segment's |v| is at least that of each segment it absorbs,
    and of two equal |v| the left one pops first, so nothing the heap pops
    before x can absorb a neighbour of x: merging x early computes the
    same (left + x) + right and commutes with every earlier pop. No two
    safe segments share a neighbour, and a row's least key is always
    safe. With rem merges left in its row, x is among the heap's if fewer
    than rem live keys of its row lie below its own, as each pop below it
    removes at least one of them: its rank in the row, ties by index, is
    below rem. One row reads its rem-th key off one partition, counting
    ties by index only when more keys tie it than it has places left; many
    rows rank every slot in one lexsort by (row, key).

    A row merges until its merges are done or for twice as many rounds as
    its rem has bits, which keeps a row that merges one segment a round,
    as when its |v| rise along the line, at O(n log n); the heap loop then
    takes what it has left. The heap pops steps in non-decreasing order,
    so the sorted steps of both are its order. A segment the heap pops
    within rem pops has fewer than 3*rem live keys below its own, as each
    pop removes at most three live segments, so the tail's heap starts
    from the live keys up to the 3*rem-th smallest, ties included.
    """
    rows = nseg.shape[0]
    rem = (nseg + 1) // 2 - stop
    cap = 2 * np.frexp(rem.astype(float))[1]
    # slots: two leading -inf sentinels, then each row's segments and two
    # -inf sentinels of its own; a merge keeps the middle slot and drops
    # both neighbours, so -inf slots stay two deep between rows. lo is the
    # first segment a slot covers, so live slot x covers segments lo[x] up
    # to lo[x + 1] - 1; a row's sentinels and a -inf merged slot hold where
    # the live segments before them end.
    owner = np.repeat(np.arange(rows), nseg + 2)
    at = np.arange(owner.shape[0]) - 2 * owner
    end = np.cumsum(nseg)[owner]
    V = np.full(owner.shape[0] + 2, -math.inf)
    V[2:][at < end] = val
    lo = np.zeros(V.shape[0], dtype=np.intp)
    np.minimum(at, end, out=lo[2:])
    # one row keeps its merges left in q; many keep them per row in quota,
    # a row's quota dropping to 0 at its cap, and rank by row in rid
    rid = np.concatenate(([0, 0], owner)) if rows > 1 else None
    q, quota, rounds, who, got = int(rem[0]), rem.copy(), 0, [], []
    while True:
        key = np.abs(V)
        pair = np.minimum(key[:-1], key[1:])
        mid = key[2:-2]
        j = ((mid < pair[:-3]) & (mid <= pair[3:])).nonzero()[0] + 2
        if rid is None:
            # mid is the row's live segments
            if q < mid.shape[0]:
                part = np.partition(mid, q - 1)
                kth, kj = part[q - 1], key[j]
                tied = kj == kth
                if not tied.any():
                    j = j[kj < kth]
                elif not np.any(part[q:] == kth):
                    j = j[kj <= kth]
                else:
                    # more keys tie the q-th than it has places left: the
                    # leftmost ones, by index
                    places = q - np.count_nonzero(part[: q - 1] < kth)
                    last_tie = np.flatnonzero(mid == kth)[places - 1] + 2
                    j = j[(kj < kth) | (tied & (j <= last_tie))]
            q -= j.shape[0]
        else:
            o = np.lexsort((key, rid))
            rank = np.empty(o.shape[0], dtype=np.intp)
            rank[o] = np.arange(o.shape[0])
            rj = rid[j]
            ok = rank[j] - np.searchsorted(rid, rj) < quota[rj]
            j, rj = j[ok], rj[ok]
            who.append(rj)
            quota -= np.bincount(rj, minlength=rows)
        got.append(key[j])
        V[j] = (V[j - 1] + V[j]) + V[j + 1]
        lo[j] = lo[j - 1]
        keep = np.ones(V.shape[0], dtype=bool)
        keep[j - 1] = keep[j + 1] = False
        V, lo = V[keep], lo[keep]
        rounds += 1
        if rid is None:
            if q == 0 or rounds == cap[0]:
                break
            continue
        rid = rid[keep]
        quota[cap == rounds] = 0
        if not quota.any():
            break
    got = np.concatenate(got)
    if rid is None:
        who, rem[0], rid = [np.zeros(got.shape[0], dtype=np.intp)], q, np.zeros_like(lo)
    else:
        rem -= np.bincount(np.concatenate(who), minlength=rows)
    # the live positive segments of the rows done are their spans
    x = np.flatnonzero(V > 0)
    x = x[rem[rid[x]] == 0]
    ends = [(rid[x], first[lo[x]], last[lo[x + 1] - 1])]
    capped = rem > 0
    if capped.any():
        # the heap loop takes the live segments of the rows left at their cap
        x = np.flatnonzero((V > -math.inf) & capped[rid])
        which = np.flatnonzero(capped)
        counts = np.bincount(rid[x], minlength=rows)[which]
        tail_who, tail_got, tail = _merge_heap_rows(
            V[x], first[lo[x]], last[lo[x + 1] - 1], counts, stop, True
        )
        who.append(which[tail_who])
        got = np.concatenate((got, tail_got))
        ends.append((which[tail[0]], *tail[1:]))
    return np.concatenate(who), got, tuple(np.concatenate(e) for e in zip(*ends))


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
        # block i's cost at k intervals is its flat cost at P_i - k
        out = _merge_curve(s.points, s.weights, s.labels, edges, 0)
        lens = np.diff(out.cost_at)
        k = np.arange(min(kmax + 1, lens.max()))
        return out.costs[out.cost_at[1:, None] - 1 - np.minimum(k, lens[:, None] - 1)]

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
