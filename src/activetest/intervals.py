"""Unions of intervals on the line: exact empirical distance and its
label-frugal distance approximation.

The exact solver is one greedy segment-merging kernel, O(n log n) for any
interval budget; it gives both the exact distance with a witness and the
error curve over every budget. The approximation solves small problems
exactly on labeled draws and routes large interval budgets through the
block-composition estimator, whose label spend is a function of the
accuracy alone, not of the interval budget.
"""

from __future__ import annotations

import dataclasses
import heapq
import math

import numpy as np

from .active_reduction import active_sample_size
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
    as_generator,
)

__all__ = [
    "IntervalUnion",
    "exact_distance_to_intervals",
    "interval_error_curve",
    "interval_block_spec",
    "shrink_interval_union",
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

# Unlabeled draws for the unknown-distribution wrapper:
# ceil(C * 2d * ln(1/eps) / eps^2).
UNLABELED_SAMPLE_CONSTANT = 0.1


class IntervalUnion:
    """A sorted union of pairwise disjoint, non-adjacent closed intervals."""

    def __init__(self, intervals=()):
        arr = np.asarray(list(intervals), dtype=float).reshape(-1, 2)
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


def _merge_curve(points, weights, labels, stop: int):
    """The one interval kernel: greedy segment merging in O(n log n),
    row-batched.

    Each row of the (rows, n) arrays is its own problem. With v = w1 - w0
    per distinct position, a union covering positions S disagrees with
    weight W1 - sum(v over S), so the least disagreement with at most k
    intervals is W1 minus the best sum of at most k disjoint subarrays of
    v. Maximal runs of v > 0 and v <= 0 form alternating segments, the
    nonpositive ones at both ends dropped; with P positive segments the
    cost at k >= P is the base sum(min(w0, w1)). The best sum is concave
    in k, and its optimal step from k to k-1 merges the live segment of
    least |value| b with both neighbours into one of value a+b+c (the
    exchange argument for k maximum disjoint subarrays): a positive b is
    given up, a nonpositive one covered, either for |b|. -inf sentinels
    at the ends absorb a given-up end segment. Costs are accumulated
    upward from the exact base, never taken as W1 minus the covered
    weight, so distance zero reads exactly 0.0.

    The sort, tie grouping, segment split and segment sums run once over
    all rows, row starts being forced cuts; the sort need not be stable,
    as equal positions are summed before their order is read; a row with
    P <= stop takes no merge step. Each row's result is the one it gets
    alone.

    Returns one (costs, spans) per row: costs[j] is the cost at P - j
    intervals for j = 0..P - min(stop, P); spans are the (first, last)
    positions of the live positive segments at the stop, a union
    attaining costs[-1].
    """
    pts = np.asarray(points, dtype=float)
    rows, n = pts.shape
    if n == 0:
        return [(np.zeros(1), []) for _ in range(rows)]
    # lead[r] is row r's first position in the flattened rows
    lead = np.arange(rows + 1) * n
    order = np.argsort(pts, axis=1)
    order += lead[:-1, None]
    order = order.ravel()
    pts = pts.ravel()[order]
    w = np.asarray(weights, dtype=float).ravel()[order]
    lab = np.asarray(labels).ravel()[order]
    w0 = np.where(lab == 0, w, 0.0)
    w1 = np.where(lab == 1, w, 0.0)
    # a lone point carries one label, so only rows with repeated
    # positions pay a base
    base = np.zeros(rows)
    grid = pts.reshape(rows, n)
    tied = grid[:, 1:] == grid[:, :-1]
    if tied.any():
        new = np.ones((rows, n), dtype=bool)
        new[:, 1:] = ~tied
        first = np.flatnonzero(new)
        pts, w0, w1 = pts[first], np.add.reduceat(w0, first), np.add.reduceat(w1, first)
        lead = np.append(np.searchsorted(first, lead[:-1]), first.shape[0])
        least = np.minimum(w0, w1)
        for r in np.flatnonzero(np.diff(lead) < n):
            base[r] = least[lead[r] : lead[r + 1]].sum()
    v = w1 - w0
    up = v > 0
    cut = np.ones(v.shape[0], dtype=bool)
    np.not_equal(up[1:], up[:-1], out=cut[1:])
    cut[lead[:-1]] = True
    starts = np.flatnonzero(cut)
    val = np.add.reduceat(v, starts)
    # row r keeps segments a..b-1, its nonpositive ends dropped; they
    # alternate from a positive one, so P = (b - a + 1) // 2 of them are
    # positive. bound[j] is where segment j ends and the next begins.
    seg = np.searchsorted(starts, lead).tolist()
    pos = up[starts].tolist()
    bound = np.append(starts, v.shape[0])
    out = []
    for r in range(rows):
        a, b = seg[r] + (not pos[seg[r]]), seg[r + 1] - (not pos[seg[r + 1] - 1])
        out.append(_merge_row(pts, val[a:b].tolist(), bound[a : b + 1].tolist(), base[r], stop))
    return out


def _merge_row(pts, val, lo, base: float, stop: int):
    """Heap loop of :func:`_merge_curve` for one row: val are the row's
    segment values between its nonpositive ends, lo their first positions
    plus the position past the last; merges until `stop` positive
    segments are live."""
    # segments 1..segs between the sentinels, each with its first position
    # lo, in a doubly linked list whose spare last cell takes the writes
    # past either end; a merge keeps the middle index, so index order stays
    # line order and a span ends where the next live segment starts
    val = [-math.inf] + val + [-math.inf]
    lo = [0] + lo
    segs = len(val) - 2
    prev, nxt = list(range(-1, segs + 2)), list(range(1, segs + 4))
    alive = [True] * (segs + 2)
    heap = [(abs(x), i) for i, x in enumerate(val[1:-1], 1)]
    heapq.heapify(heap)
    k, steps = (segs + 1) // 2, [base]
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
    spans = [
        (pts[lo[i]], pts[lo[nxt[i]] - 1])
        for i in range(1, segs + 1)
        if alive[i] and val[i] > 0
    ]
    return np.add.accumulate(steps), spans


def interval_error_curve(points, weights, labels, kmax: int) -> np.ndarray:
    """Minimum disagreement weight against a union of at most k intervals,
    for every k = 0..kmax in one merge pass, O(n log n); flat past the
    number P of positive segments."""
    if kmax < 0:
        raise ValueError("invalid class parameter")
    ((costs, _),) = _merge_curve([points], [weights], [labels], 0)
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
        [sample.points], [sample.weights], [sample.labels], int(d)
    )
    return float(costs[-1]), IntervalUnion(spans)


def interval_block_spec(m: int) -> CompositionSpec:
    """Composition over the even cut of [0,1] whose block classes are unions
    of at most k intervals inside the block."""

    def curve(i, sample_i, kmax):
        if len(sample_i) == 0:
            return np.zeros(kmax + 1)
        return interval_error_curve(
            sample_i.points, sample_i.weights, sample_i.labels, kmax
        )

    return CompositionSpec(
        num_blocks=m,
        block_cost_curve=curve,
        block_of=lambda pts: uniform_block_index(pts, m),
    )


def shrink_interval_union(g: IntervalUnion, d: int, eps: float) -> IntervalUnion:
    """Drop the ceil(eps*k/2) shortest intervals when the union has k > d of
    them; the removed uniform measure is at most eps/2 + 1/d."""
    if eps <= 0 or eps >= 1:
        raise ValueError("invalid parameter")
    if d <= 2.0 / eps:
        raise ValueError("parameter regime violated")
    k = len(g)
    if k <= d:
        return g
    if k > (1.0 + eps / 2.0) * d + 1e-9:
        raise ValueError("parameter regime violated")
    remove = math.ceil(eps * k / 2.0)
    lengths = g.intervals[:, 1] - g.intervals[:, 0]
    order = np.argsort(lengths, kind="stable")
    keep = np.setdiff1d(np.arange(k), order[:remove])
    return IntervalUnion(g.intervals[keep])


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
    """Distance approximation under an unknown distribution.

    Draws one unlabeled sample and works on its empirical distribution at
    accuracy eps/2; the remaining eps/2 covers the sampling error of the
    draw. The whole draw is labeled and solved exactly, with the witness
    in the original coordinates, when d is small or when the composition
    route would bill erm_samples * repetitions >= n_unl labels: an exact
    answer on the draw has no estimation error, so only the draw error
    remains. With the default constants that route is cheaper only above
    d* of about 5,600 at eps=0.2 and about 81,000 at eps=0.1. There the
    draws are mapped to rank-uniform positions (ties by draw index) and
    the composition estimator runs on a synthetic pool resampled from the
    empirical atoms; labels are charged to the real oracle at the original
    coordinates, and the resample adds no unlabeled cost because the
    empirical distribution is known: the receipt bills the n_unl draws.
    """
    if not (0.0 < eps < 0.5):
        raise ValueError("invalid parameter")
    rng = as_generator(seed)
    oracle = target if isinstance(target, LabelOracle) else LabelOracle(target)
    n_unl = active_sample_size(
        2 * max(d, 1), eps, kind="da", constant=UNLABELED_SAMPLE_CONSTANT
    )
    draws = np.asarray(dist.draw(n_unl, rng), dtype=float)
    eps_run = eps / 2.0
    plan = interval_da_plan(eps_run, d)
    if plan["route"] == "agnostic" or plan["erm_samples"] * plan["repetitions"] >= n_unl:
        return _label_and_solve(ActivePool(draws, oracle), n_unl, d)
    ranks = rank_positions(draws)
    synth = _composition_pool_size(plan)
    atom_idx = rng.integers(0, n_unl, size=synth)
    inner_pool = ActivePool(ranks[atom_idx], oracle, query_points=draws[atom_idx])
    inner = interval_da_uniform(inner_pool, eps_run, d, seed=rng)
    return dataclasses.replace(inner, unlabeled_used=n_unl)
