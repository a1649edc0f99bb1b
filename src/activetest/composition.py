"""Distance estimation for properties composed blockwise over a partition.

A composition property puts an independent class on each of m equal-mass
blocks and a global budget on the total class parameter. Its empirical
distance gives that budget to the largest decrements of convex per-block
cost curves, got in one call; its active estimator subsamples blocks, so
labels scale with the number of sampled blocks rather than with m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ActivePool,
    InsufficientPoolError,
    Receipt,
    WeightedSample,
    _read_only,
    as_generator,
    chernoff_iterations,
    median_repetitions,
)

__all__ = [
    "CompositionSpec",
    "TruncatedBudget",
    "distance_to_truncated_composition",
    "composition_da",
    "composition_plan",
    "disjoint_union_da",
    "disjoint_union_plan",
    "choose_block_indices",
    "block_sample_count",
    "at_most_k_ones_spec",
    "uniform_block_index",
]

# Sampled block count: l = ceil(C * (1/(eps*mu^2) + 1/eps^2)), capped at m.
BLOCK_SAMPLE_CONSTANT = 0.5

# Standalone ERM subsample per repetition: ceil(C * 2*floor(d') * ln(2/eps) /
# (eps/2)^2), d' the truncated budget, about 34.5 ERM points per budgeted
# interval at eps=0.45. Measured there on the interval route (noisy target,
# truth 0.15; composition_da at this default, l = 794 blocks, 528,444
# labels a repetition): 1,585,332 labels at d = 20,000 and 80,000 alike,
# estimates 0.1148 and 0.1151 at d = 20,000 and 0.1151 and 0.1146 at
# d = 80,000 (seeds 100 and 101), ERM's optimistic bias of about 0.035.
ERM_SAMPLE_CONSTANT = 0.1

# Median of 3 repetitions, each sized for failure <= 1/6: the median fails
# with probability 2/27 < 1/12, the success level the analysis asks of the
# truncated oracle.
ORACLE_REPETITIONS = 3


@dataclass(frozen=True)
class CompositionSpec:
    """Blockwise structure of a composition property.

    cost_curves(sample, edges, kmax), called once per solve, gets the
    labeled sample sorted stably by block: block i is rows edges[i] up to
    edges[i + 1], possibly none. It returns a (len(edges) - 1, w) array,
    1 <= w <= kmax + 1, row i being [cost(0..w-1)] for block i's points,
    cost(k) their exact distance to the class at parameter k, read as flat
    past the row's end; each row non-increasing and convex, within 1e-12.
    No curve reads a block index. block_of maps points to integer block
    ids in [0, num_blocks).
    """

    num_blocks: int
    cost_curves: Callable[[WeightedSample, np.ndarray, int], np.ndarray]
    block_of: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class TruncatedBudget:
    """Finite total class-parameter budget with a whole-number per-block cap."""

    total: float
    cap: int

    def __post_init__(self):
        whole_cap = float(self.cap).is_integer() and self.cap >= 0
        if not (math.isfinite(self.total) and self.total >= 0 and whole_cap):
            raise ValueError("invalid parameter")


def uniform_block_index(points, m: int) -> np.ndarray:
    """Block index under the even cut of [0,1]: first block [0, 1/m], then
    half-open ((i-1)/m, i/m]."""
    pts = np.asarray(points, dtype=float)
    idx = np.ceil(pts * m).astype(np.intp) - 1
    return np.clip(idx, 0, m - 1)


def at_most_k_ones_spec(num_blocks: int, block_of=None) -> CompositionSpec:
    """Toy composition for tests: block class = labelings with at most k ones."""

    def curves(sample, edges, kmax):
        out = np.empty((len(edges) - 1, kmax + 1))
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            ones = np.sort(sample.weights[a:b][sample.labels[a:b] == 1])[::-1]
            saved = np.concatenate(([0.0], np.cumsum(ones)))
            out[i] = float(ones.sum()) - saved[np.minimum(np.arange(kmax + 1), ones.shape[0])]
        return np.maximum(out, 0.0)

    return CompositionSpec(num_blocks, curves, block_of=block_of)


def distance_to_truncated_composition(
    sample: WeightedSample,
    block_ids,
    spec: CompositionSpec,
    budget: TruncatedBudget,
) -> float:
    """Exact empirical distance to the truncated composition: minimize the sum
    of per-block costs over allocations with k_i <= cap and sum k_i <=
    floor(total).

    Convex curves have non-increasing decrements cost(k-1) - cost(k), so
    the optimum takes the floor(total) largest positive decrements over all
    blocks (Gross 1956): exchanging an untaken larger decrement for a taken
    smaller one never costs more. The distance is the sum of the curves'
    minima plus the positive decrements left untaken, summed upward from
    the exact minima so that a zero distance reads exactly 0.0. A flat tail
    holds no positive decrement, so a curve cut short of kmax + 1 entries
    gives the same distance. A curve array of another shape, or a curve
    that increases or is not convex by more than 1e-12, raises ValueError.
    """
    ids = np.asarray(block_ids)
    if ids.shape[0] != len(sample):
        raise ValueError("partition violation")
    if ids.size and (
        np.any(ids < 0) or np.any(ids >= spec.num_blocks) or not np.issubdtype(ids.dtype, np.integer)
    ):
        raise ValueError("partition violation")
    if sample.labels is None:
        raise ValueError("domain mismatch")
    total = int(math.floor(budget.total))
    kmax = min(int(budget.cap), total)
    ids = ids.astype(np.intp)
    order = np.argsort(ids, kind="stable")
    by_block = WeightedSample(sample.points[order], sample.weights[order], sample.labels[order])
    edges = np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=spec.num_blocks))))
    curves = np.asarray(spec.cost_curves(by_block, edges, kmax), dtype=float)
    width = curves.shape[-1] if curves.ndim == 2 else 0
    if not 0 < width <= kmax + 1 or len(curves) != spec.num_blocks:
        raise ValueError("invalid class parameter")
    drop = curves[:, :-1] - curves[:, 1:]
    if np.any(drop < -1e-12) or np.any(drop[:, 1:] > drop[:, :-1] + 1e-12):
        raise ValueError("invalid class parameter")
    # row-major order takes the positive drops block by block
    gains = drop[drop > 0]
    untaken = gains.shape[0] - total
    rest = np.partition(gains, untaken - 1)[:untaken].sum() if untaken > 0 else 0.0
    return float(curves.min(axis=1).sum() + rest)


def choose_block_indices(m: int, l: int, rng) -> np.ndarray:
    """l distinct block indices, uniform without replacement."""
    return np.sort(as_generator(rng).choice(m, size=min(l, m), replace=False))


def block_sample_count(eps: float, mu: float) -> int:
    if not (0.0 < eps) or not (0.0 < mu):
        raise ValueError("invalid parameter")
    return max(1, math.ceil(BLOCK_SAMPLE_CONSTANT * (1.0 / (eps * mu * mu) + 1.0 / (eps * eps))))


def _draws_for_hits(hits: int, rate: float) -> int:
    """Draws so that at least `hits` land in a probability-`rate` event with
    probability comfortably above 11/12 (multiplicative Chernoff padding)."""
    pad = hits + 2.0 * math.sqrt(3.0 * hits) + 6.0
    return math.ceil(pad / rate)


def composition_plan(
    m: int, lam: float, eps: float, mu: float, *, erm_samples: int | None = None
) -> dict:
    """Sizing of :func:`composition_da` over m blocks at per-block rate lam:
    l = min(m, block_sample_count(eps, mu)) blocks, budget total =
    floor((1+mu/2)*lam*l) with cap = max(1, floor(4*lam/eps)), erm_samples
    labels per repetition (default from ERM_SAMPLE_CONSTANT) and the
    median's ORACLE_REPETITIONS."""
    if m < 1 or not (0.0 < eps < 1.0) or mu <= 0 or lam <= 0:
        raise ValueError("invalid parameter")
    l = min(m, block_sample_count(eps, mu))
    total = int(math.floor((1.0 + mu / 2.0) * lam * l))
    if erm_samples is None:
        scale = ERM_SAMPLE_CONSTANT * 2.0 * max(total, 1)
        erm_samples = max(1, math.ceil(scale * math.log(2.0 / eps) / (eps / 2.0) ** 2))
    cap = max(1, int(math.floor(4.0 * lam / eps)))
    return {
        "l": l, "total": total, "cap": cap, "erm_samples": int(erm_samples),
        "repetitions": ORACLE_REPETITIONS,
    }


def composition_da(
    pool: ActivePool,
    spec: CompositionSpec,
    lam: float,
    eps: float,
    mu: float,
    *,
    seed: int | None | np.random.Generator = None,
    erm_samples: int | None = None,
) -> Receipt:
    """Bi-criteria distance approximation for a composition with per-block
    rate lam over m blocks.

    Samples l blocks without replacement, pulls unlabeled points until
    enough land in them, and takes the median of the exact truncated solver
    over the repetitions, each on its own erm_samples labeled points, all
    sized by :func:`composition_plan`. For the true distance alpha to the
    budget-lam*m composition, the output exceeds alpha-eps unless the
    function is within alpha of the (1+mu)-inflated budget, and stays below
    alpha+eps when it is within alpha of the base budget, each with
    probability at least 2/3. The receipt bills erm_samples * repetitions
    labels and every pool point read.
    """
    m = spec.num_blocks
    plan = composition_plan(m, lam, eps, mu, erm_samples=erm_samples)
    if spec.block_of is None:
        raise ValueError("partition violation")
    rng = as_generator(seed)
    l, q = plan["l"], plan["erm_samples"]
    chosen = choose_block_indices(m, l, rng)
    need = q * plan["repetitions"]
    chosen_set = np.zeros(m, dtype=bool)
    chosen_set[chosen] = True
    hit_idx: list[np.ndarray] = []
    hit_blocks: list[np.ndarray] = []
    have = read = 0
    goal = _draws_for_hits(need, l / m)
    while have < need:
        chunk = min(max(goal, 64), pool.remaining)
        if chunk == 0:
            raise InsufficientPoolError("insufficient pool")
        pts, idx = pool.take(chunk)
        read += chunk
        blocks = _checked_block_ids(spec.block_of, pts, m)
        mask = chosen_set[blocks]
        hit_idx.append(np.flatnonzero(mask) + idx.start)
        hit_blocks.append(blocks[mask])
        have += int(mask.sum())
        goal = _draws_for_hits(need - have, l / m) if have < need else 0
    idx_hit = np.concatenate(hit_idx)[:need]
    pts_hit = pool.points[idx_hit]
    # the solver sees the chosen blocks, which are sorted, as 0..l-1
    ids_hit = np.searchsorted(chosen, np.concatenate(hit_blocks)[:need])
    sub_spec = CompositionSpec(l, spec.cost_curves)
    budget = TruncatedBudget(total=plan["total"], cap=plan["cap"])
    estimates = []
    for r in range(plan["repetitions"]):
        sl = slice(r * q, (r + 1) * q)
        sample = WeightedSample.uniform(pts_hit[sl], pool.label(idx_hit[sl]))
        estimates.append(distance_to_truncated_composition(sample, ids_hit[sl], sub_spec, budget))
    return Receipt(float(_median(np.array(estimates))), need, read)


def disjoint_union_plan(eps: float, num_blocks: int) -> tuple[int, int]:
    """(s, reps) for :func:`disjoint_union_da`: s block draws and the median
    repetitions behind each distinct drawn block's estimate.

    The output misses by eps only if the mean over the s draws misses its
    expectation by eps/4 (Hoeffding, probability <= 1/9) or some distinct
    drawn block's median misses by eps/2. At most min(s, num_blocks) blocks
    are distinct, so boosting each median to failure 1/(9*min(s,
    num_blocks)) bounds the second event by 1/9 too (union bound). Together
    the failure is <= 2/9 < 1/3 and the error <= 3*eps/4 < eps.
    The median stays, unlike best_k's Hoeffding mean: each per-block
    estimate is an exact interval distance on block_pool_size points, not a
    bounded mean of i.i.d. draws, so Hoeffding does not apply to it.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("invalid parameter")
    is_int = isinstance(num_blocks, (int, np.integer)) and not isinstance(num_blocks, bool)
    if not is_int or num_blocks < 1:
        raise ValueError("partition violation")
    s = chernoff_iterations(eps / 4.0, 1.0 / 9.0)
    return s, median_repetitions(1.0 / (9.0 * min(s, int(num_blocks))))


def _median(values: np.ndarray):
    """np.median of finite values, bit for bit: the middle one, or the mean
    of the middle two. np.median's NaN check imports numpy.ma, about 1.3 MB,
    for values already known finite."""
    h = values.shape[0] // 2
    if values.shape[0] % 2:
        return np.partition(values, h)[h]
    part = np.partition(values, [h - 1, h])
    return (part[h - 1] + part[h]) / 2.0


def _checked_block_ids(block_of, points: np.ndarray, num_blocks: int) -> np.ndarray:
    """block_of's ids for the points, in the integer dtype it chose."""
    ids = np.asarray(block_of(points))
    if not np.issubdtype(ids.dtype, np.integer) or ids.shape != points.shape[:1]:
        raise ValueError("partition violation")
    if ids.size and (ids.min() < 0 or ids.max() >= num_blocks):
        raise ValueError("partition violation")
    return ids


def disjoint_union_da(
    pool: ActivePool,
    per_block_da: Callable[[ActivePool, int, float, np.random.Generator], np.ndarray],
    eps: float,
    *,
    num_blocks: int,
    block_of: Callable[[np.ndarray], np.ndarray],
    block_pool_size: int,
    seed: int | None | np.random.Generator = None,
) -> Receipt:
    """Distance approximation over a disjoint union of blocks with unknown
    block masses.

    Draws s = chernoff_iterations(eps/4, 1/9) block indices by reading fresh
    unlabeled points, then estimates each distinct drawn block at accuracy
    eps/2, boosted to success 1 - 1/(9*min(s, num_blocks)) by a median of
    reps = ceil(18*ln(9*min(s, num_blocks))) repetitions. One estimate is
    kept per distinct block, so the union bound runs over those blocks, not
    over the s draws (:func:`disjoint_union_plan`): at eps=0.1 with two
    blocks that is 53 repetitions instead of 179. Returns the mean of the
    per-block medians over the s draws.

    per_block_da(block_pool, reps, eps/2, rng) is called once per distinct
    drawn block. block_pool holds reps * block_pool_size fresh points of
    that block, slice r (points r*block_pool_size up to (r+1)*
    block_pool_size) being repetition r. It returns the reps estimates,
    estimate r read from slice r only: the median argument needs the
    repetitions independent. Nothing here checks that rule, as the one
    pool lets the callback label any of its points: a callback that reads
    across slices, or fits one model to the whole block pool, voids the
    boost without an error. block_pool is read-only: its points cannot be
    written, and its take and label hand out read-only views of its points
    and query points, not copies. Anything but reps finite numbers raises
    ValueError. block_of must map every pool point to an integer id in
    [0, num_blocks); a drawn block with fewer than reps * block_pool_size
    pool points left raises InsufficientPoolError, and a block_pool_size
    below 1 raises ValueError. The receipt bills every label the callbacks
    spend and the whole pool, all of which is read.
    """
    if block_pool_size < 1:
        raise ValueError("invalid parameter")
    s, reps = disjoint_union_plan(eps, num_blocks)
    rng = as_generator(seed)
    draw_pts, _ = pool.take(s)
    drawn_blocks = _checked_block_ids(block_of, draw_pts, num_blocks)
    rest_pts, rest_idx = pool.take_rest()
    rest_blocks = _checked_block_ids(block_of, rest_pts, num_blocks)
    blocks, per_draw = np.unique(drawn_blocks, return_inverse=True)
    medians = np.empty(blocks.shape[0])
    need = reps * block_pool_size
    queries_before = pool.oracle.used
    # a pool whose oracle reads its own points hands them to the block pool
    # as its query points too, so they are gathered once
    own = pool.query_points is pool.points
    for j, b in enumerate(blocks):
        sel = np.flatnonzero(rest_blocks == b)[:need]
        if sel.shape[0] < need:
            raise InsufficientPoolError("insufficient pool")
        query = None if own else pool.query_points[rest_idx.start + sel]
        block_pool = ActivePool(_read_only(rest_pts[sel]), pool.oracle, query_points=query)
        out = per_block_da(block_pool, reps, eps / 2.0, rng)
        try:
            vals = np.asarray(out, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError("invalid estimate") from exc
        if vals.shape != (reps,) or not np.all(np.isfinite(vals)):
            raise ValueError("invalid estimate")
        medians[j] = _median(vals)
    return Receipt(
        float(medians[per_draw].mean()), pool.oracle.used - queries_before, s + len(rest_pts)
    )
