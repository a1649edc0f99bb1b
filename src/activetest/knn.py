"""k-nearest-neighbor prediction over finite metric spaces and
label-frugal estimators of its loss.

Points are integer ids into a finite metric space. A pool of candidate
neighbors ranks by distance, ties broken by pool position. The estimators
draw and label their test points in one pass, then rank each distinct
test point once (only its k nearest when k is fixed) or, weighted,
evaluate its weights once. `best_k` reads the neighbors of every grid
point from one shared set of uniforms (common random numbers) and labels
them in one call. Predictors read a fully labeled pool for free; the
estimators pay for every label through the instance's oracle and report
exact query counts.

Estimator accuracy contracts are additive-eps with success probability
at least 2/3; iteration counts come from `chernoff_iterations`. Each has
an exact enumeration oracle for verification at desk scale, taking the
estimator's parameters minus `eps` and `seed`.
"""

from __future__ import annotations

import copy
import functools
import json
import math

import numpy as np

from .core import (
    Distribution,
    LabelOracle,
    Receipt,
    TargetFunction,
    _is_int,
    as_generator,
    chernoff_iterations,
)

__all__ = [
    "MetricSpace",
    "KnnInstance",
    "id_distribution",
    "verify_triangle",
    "knn_predict_soft",
    "knn_predict_hard",
    "estimate_soft_loss_pth",
    "estimate_loss_lipschitz",
    "estimate_weighted_nn_loss",
    "estimate_hard_error",
    "lipschitz_inner_samples",
    "best_k",
    "best_k_grid",
    "loss_stability_bound",
    "exact_soft_loss",
    "exact_soft_loss_table",
    "exact_hard_error",
    "exact_weighted_nn_loss",
    "knn_instance_to_json",
    "knn_instance_from_json",
]

# Most labels `best_k` asks for in one oracle call. The grid is cut into
# whole grid points so that each call's id array stays within 8 MB, unless
# one grid point alone needs more.
_GRID_CHUNK_LABELS = 2**20
# Grid points whose neighbor ids `_grid_ids` builds in one pass; at the
# bundled n=200, p=2, eps=0.2 search a block is 16 x 1,748 ids (224 KB).
_GRID_BLOCK_ROWS = 16


class _IdSpace:
    """What every metric here shares: points are the ids 0..n-1, checked
    before use. Subclasses supply ``n`` and ``cross``."""

    def _check_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n):
            raise ValueError("domain mismatch")
        return ids

    def dist(self, a: int, b: int) -> float:
        return float(self.cross([a], [b])[0, 0])


class MetricSpace(_IdSpace):
    """Finite point set with a symmetric distance, addressed by id.

    Two kinds: "euclidean1d" stores one finite coordinate per point,
    "explicit" stores the full distance matrix. Explicit matrices must be
    square, symmetric, nonnegative, and zero on the diagonal; the triangle
    inequality is not enforced at construction (see `verify_triangle`).
    """

    def __init__(self, kind: str, *, coords=None, matrix=None):
        if kind == "euclidean1d":
            c = np.asarray(coords, dtype=float)
            if c.ndim != 1 or c.shape[0] == 0 or not np.isfinite(c).all():
                raise ValueError("invalid parameter")
            self.coords = c
            self.matrix = None
        elif kind == "explicit":
            m = np.asarray(matrix, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
                raise ValueError("invalid parameter")
            if (
                np.any(m < 0.0)
                or np.any(np.diag(m) != 0.0)
                or not np.array_equal(m, m.T)
            ):
                raise ValueError("invalid parameter")
            self.matrix = m
            self.coords = None
        else:
            raise ValueError("invalid parameter")
        self.kind = kind

    @classmethod
    def euclidean1d(cls, coords) -> "MetricSpace":
        return cls("euclidean1d", coords=coords)

    @classmethod
    def explicit(cls, matrix) -> "MetricSpace":
        return cls("explicit", matrix=matrix)

    @property
    def n(self) -> int:
        if self.kind == "euclidean1d":
            return int(self.coords.shape[0])
        return int(self.matrix.shape[0])

    def cross(self, x_ids, y_ids) -> np.ndarray:
        """Distance matrix between two id vectors, shape (len(x), len(y))."""
        x = self._check_ids(np.atleast_1d(x_ids))
        y = self._check_ids(np.atleast_1d(y_ids))
        if self.kind == "euclidean1d":
            return np.abs(self.coords[x][:, None] - self.coords[y][None, :])
        return self.matrix[np.ix_(x, y)]

    def ranking(self, x_ids, pool: np.ndarray, k: int) -> np.ndarray:
        """Stable ranking of pool positions by distance from each query id,
        cut to k; see `KnnInstance.ranking`. A line ranks from its sorted
        coordinates (`_line_top_k`), an explicit matrix by selection over
        its distance rows (`_stable_top_k`)."""
        if self.kind == "euclidean1d":
            return _line_top_k(self, x_ids, pool, k)
        return _stable_top_k(self.cross(x_ids, pool), k)


def _line_top_k(space: MetricSpace, x_ids, pool: np.ndarray, k: int) -> np.ndarray:
    """Exactly ``_stable_top_k(space.cross(x_ids, pool), k)`` on a line,
    without the distance matrix.

    The pool's coordinates are stable-sorted once, so equal coordinates
    keep pool order. On each side of a query's insertion point distances
    grow outward, so its k nearest lie among the k sorted positions on
    either side: a window of min(2k, N) positions, clipped at the ends.
    Distances along a window fall then rise, and a stable sort of the
    window merges those two runs. Its order is the stable argsort's except
    where the window's coordinate order and the pool order can disagree on
    a tie: two different coordinates at one distance no greater than the
    k-th, or a position outside the window at that distance (only the
    window's two outer neighbors need checking; coordinates are finite, so
    padding the line with -inf and inf gives every window both). Those
    rows, and only those, are ranked by `_stable_top_k` on their own
    distance rows.
    """
    x = space._check_ids(np.atleast_1d(x_ids))
    pool = space._check_ids(pool)
    n = pool.shape[0]
    k = min(k, n)
    w = min(2 * k, n)
    coords = space.coords[pool]
    order = np.argsort(coords, kind="stable")
    line = np.concatenate(([-np.inf], coords[order], [np.inf]))
    q = space.coords[x]
    start = np.clip(np.searchsorted(line[1:-1], q) - k, 0, n - w)
    # Distances as `cross` computes them, q - c; at full width every
    # window is the whole line.
    if w == n:
        d = q[:, None] - line[None, 1:-1]
    else:
        d = q[:, None] - np.lib.stride_tricks.sliding_window_view(line[1:-1], w)[start]
    np.abs(d, out=d)
    rank = np.argsort(d, axis=1, kind="stable")
    d.sort(axis=1)  # the distances in rank order
    kth = d[:, k - 1 : k]
    flag = np.minimum(np.abs(q - line[start]), np.abs(q - line[start + w + 1])) <= kth[:, 0]
    # Coordinates are looked up only on rows with equal distances.
    tied = np.flatnonzero(((d[:, 1:] == d[:, :-1]) & (d[:, 1:] <= kth)).any(axis=1))
    if tied.size:
        c = line[1 + start[tied, None] + rank[tied]]
        t = d[tied]
        differ = (t[:, 1:] == t[:, :-1]) & (c[:, 1:] != c[:, :-1]) & (t[:, 1:] <= kth[tied])
        flag[tied] |= differ.any(axis=1)
    out = np.take(order, rank[:, :k] if w == n else rank[:, :k] + start[:, None])
    if flag.any():
        out[flag] = _stable_top_k(space.cross(x[flag], pool), k)
    return out


def _stable_top_k(d: np.ndarray, k: int) -> np.ndarray:
    """Exactly ``np.argsort(d, axis=1, kind="stable")[:, :k]``: how an
    explicit matrix ranks, and how a line ranks the rows its windows
    cannot (see `_line_top_k`).

    Below the row length it selects instead of sorting: np.partition finds
    each row's k-th smallest distance, every position strictly nearer is
    kept, and of the ties at that distance the earliest positions fill the
    remaining slots (a running count over the tie mask, skipped when no
    row has more than k positions at or below it). Only the k kept
    positions, in ascending position order, are then stable-sorted.
    """
    n = d.shape[1]
    if k >= n:
        return np.argsort(d, axis=1, kind="stable")
    kth = np.partition(d, k - 1, axis=1)[:, k - 1 : k]
    keep = d <= kth
    if np.count_nonzero(keep) > d.shape[0] * k:
        tie = d == kth
        room = k - np.count_nonzero(keep & ~tie, axis=1)[:, None]
        keep &= ~tie | (np.cumsum(tie, axis=1, dtype=np.int32) <= room)
    cols = np.nonzero(keep)[1].reshape(d.shape[0], k)
    order = np.argsort(np.take_along_axis(d, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def verify_triangle(
    space: MetricSpace,
    *,
    exhaustive_limit: int = 512,
    samples: int = 20000,
    seed: int | None | np.random.Generator = 0,
    atol: float = 1e-9,
) -> bool:
    """Check the triangle inequality, exhaustively when the space is small
    enough and on sampled triples otherwise."""
    n = space.n
    if space.kind == "euclidean1d":
        return True
    m = space.matrix
    if n <= exhaustive_limit:
        for k in range(n):
            if np.any(m > m[:, k][:, None] + m[k][None, :] + atol):
                return False
        return True
    rng = as_generator(seed)
    a, b, c = rng.integers(0, n, size=(3, samples))
    return bool(np.all(m[a, b] <= m[a, c] + m[c, b] + atol))


class KnnInstance:
    """A neighbor pool inside a metric space plus a label oracle.

    The ranking of any query point is the pool sorted by distance, ties
    broken by pool position; the k nearest are always a prefix of the
    ranking, for every k.

    The space supplies ``n``, ``cross(x_ids, y_ids)`` and ``ranking(x_ids,
    pool, k)``. An explicit `MetricSpace` selects from its distance rows
    with `_stable_top_k`. A 1-d one sorts the pool's coordinates once and
    ranks each query inside the 2k sorted positions around it, which hold
    its k nearest because distances grow outward on either side; it builds
    no distance matrix except for rows with a tie it cannot order
    (`_line_top_k`). The star metric of `activetest.bandit` reads each row
    off its star's layout. Pool entries must be integral ids.

    Rankings cost no labels and depend only on the space and the pool, so
    the instance memoizes them by id: for each width k, up to the pool
    size, it keeps every id ranked so far, sorted, with its k-prefix row,
    and ranks an id at most once per width. Its `with_oracle` copies share
    that memo, so a truth builder and every trial on the same pool rank
    each neighborhood once between them. The memo holds only the rows
    asked for, rows ranked x k positions per width (one byte each for a
    pool of up to 256). Every returned ranking is the one the space would
    compute afresh, so outputs are unchanged bit for bit.
    """

    def __init__(self, space: MetricSpace, pool, oracle):
        self.space = space
        self.pool = _as_ids(space, pool)
        if self.pool.ndim != 1 or self.pool.shape[0] == 0:
            raise ValueError("invalid parameter")
        if isinstance(oracle, TargetFunction):
            oracle = LabelOracle(oracle)
        self.oracle = oracle
        # Width k -> (ids, rows): ids sorted and distinct, rows[i] the
        # k-prefix ranking of ids[i]. A miss publishes a new pair and never
        # writes into a published one, so a concurrent reader sees the old
        # or the new pair whole; two concurrent misses may drop one merge,
        # which costs a later re-rank, never a wrong row.
        self._memo: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Rows are kept in the narrowest type that holds a pool position,
        # so a full-width entry adds little to a trial's peak memory.
        self._row_dtype = np.min_scalar_type(self.size - 1)

    def with_oracle(self, oracle) -> "KnnInstance":
        """The same space, pool and ranking memo under another oracle, whose
        label count is its own."""
        twin = copy.copy(self)
        twin.oracle = LabelOracle(oracle) if isinstance(oracle, TargetFunction) else oracle
        return twin

    @property
    def size(self) -> int:
        return int(self.pool.shape[0])

    def ranking(self, x_ids, k: int | None = None) -> np.ndarray:
        """Pool positions sorted by distance from each query id, ties broken
        by the lower pool position: exactly ``np.argsort(space.cross(x_ids,
        pool), axis=1, kind="stable")[:, :k]``. Shape (len(x_ids),
        min(k, size)); the whole pool when k is None. Rows come from the
        memo (see the class docstring)."""
        if k is not None and (not _is_int(k) or k < 1):
            raise ValueError("invalid k")
        k = self.size if k is None else min(int(k), self.size)
        x = self.space._check_ids(np.atleast_1d(x_ids))
        ids, rows = self._memo.get(k, (x[:0], None))
        if not ids.size:
            ids, pos = np.unique(x, return_inverse=True)
            rows = self.space.ranking(ids, self.pool, k).astype(self._row_dtype)
            self._memo[k] = (ids, rows)
            return rows[pos].astype(np.intp)
        pos = np.searchsorted(ids, x)
        known = np.take(ids, pos, mode="clip") == x
        if not known.all():
            new = np.unique(x[~known])
            at = np.searchsorted(ids, new)
            ids = np.insert(ids, at, new)
            rows = np.insert(rows, at, self.space.ranking(new, self.pool, k), axis=0)
            self._memo[k] = (ids, rows)
            pos = np.searchsorted(ids, x)
        return rows[pos].astype(np.intp)


def id_distribution(ids, probs=None) -> Distribution:
    """Distribution over point ids, uniform unless probs given."""
    ids = np.asarray(ids, dtype=np.intp)
    if probs is None:
        probs = np.full(ids.shape[0], 1.0 / ids.shape[0])
    return Distribution.finite(ids.astype(float), probs)


def _check_k(inst: KnnInstance, k) -> int:
    if not _is_int(k) or not (1 <= int(k) <= inst.size):
        raise ValueError("invalid k")
    return int(k)


def _check_eps(eps: float, upper: float = 1.0) -> float:
    if not (0.0 < eps < upper):
        raise ValueError("invalid parameter")
    return float(eps)


def _check_p(p) -> int:
    if not _is_int(p) or int(p) < 1:
        raise ValueError("invalid parameter")
    return int(p)


def _as_ids(space: _IdSpace, vals) -> np.ndarray:
    # Pool entries and the points of a test distribution may be floats;
    # each must be an id.
    vals = np.asarray(vals, dtype=float)
    ids = np.rint(vals).astype(np.intp)
    if np.any(np.abs(vals - ids) > 1e-9):
        raise ValueError("domain mismatch")
    return space._check_ids(ids)


def _draw_ids(inst: KnnInstance, test_dist: Distribution, n: int, rng):
    # n test draws labeled in one call: their labels fx, the distinct ids
    # ux, and each draw's index inv into ux.
    x = _as_ids(inst.space, test_dist.draw(n, rng))
    fx = inst.oracle.query_many(x)
    ux, inv = np.unique(x, return_inverse=True)
    return fx, ux, inv


def _ranked_test_draws(
    inst: KnnInstance, test_dist: Distribution, n: int, rng, k: int | None = None
):
    # Row inv[i] of nbr is the pool sorted by distance from test draw i, cut
    # to its k nearest when k is given.
    fx, ux, inv = _draw_ids(inst, test_dist, n, rng)
    rank = inst.ranking(ux, k)
    # Ids overwrite the positions in place: no second pool-sized block.
    return fx, np.take(inst.pool, rank, out=rank), inv


def _test_atoms(inst: KnnInstance, test_dist: Distribution):
    # The ids and probabilities an exact oracle enumerates.
    if test_dist.kind != "finite":
        raise ValueError("domain mismatch")
    return _as_ids(inst.space, test_dist.atoms), test_dist.probs


def _pool_labels(inst: KnnInstance) -> np.ndarray:
    # Free read of the hypothetical fully labeled pool; estimators never
    # use this path.
    return inst.oracle.target.eval_many(inst.pool)


def _all_differ(fj: np.ndarray, fx: np.ndarray):
    # Draws whose p neighbor labels fj[..., i, :] all differ from the test
    # label fx[i], counted along the draw axis; for 0/1 labels this is the
    # sum of the products of the p label differences. By column, as
    # short-axis reductions are slow.
    hit = fj[..., 0] != fx
    for c in range(1, fj.shape[-1]):
        hit &= fj[..., c] != fx
    return np.count_nonzero(hit, axis=-1)


def _soft_many(inst: KnnInstance, x_ids, k: int) -> np.ndarray:
    labels = _pool_labels(inst)[inst.ranking(x_ids, k)]
    return labels.mean(axis=1)


def knn_predict_soft(inst: KnnInstance, x: int, k: int) -> float:
    """Mean label of the k nearest pool points of x.

    Models the fully labeled predictor: labels are read from the target
    without charging the oracle.
    """
    k = _check_k(inst, k)
    return float(_soft_many(inst, [int(x)], k)[0])


def knn_predict_hard(inst: KnnInstance, x: int, k: int) -> int:
    """Strict majority vote over the k nearest; an exact tie yields 0."""
    return int(knn_predict_soft(inst, x, k) > 0.5)


def estimate_soft_loss_pth(
    inst: KnnInstance,
    test_dist: Distribution,
    k: int,
    p: int,
    eps: float,
    *,
    seed: int | None | np.random.Generator = None,
) -> Receipt:
    """Estimate the p-th power loss of the soft k-NN predictor.

    Each of T = chernoff_iterations(eps, 1/3) iterations draws a test
    point x, queries its label, draws p neighbor indices uniformly with
    replacement from the k nearest, queries their labels, and records the
    product of the p absolute label differences. The mean of the products
    is an unbiased estimate of the expected p-th power loss and is within
    eps of it with probability at least 2/3. Spends exactly T*(p+1)
    queries.
    """
    k = _check_k(inst, k)
    p = _check_p(p)
    eps = _check_eps(eps)
    rng = as_generator(seed)
    t = chernoff_iterations(eps, 1.0 / 3.0)
    fx, nbr, inv = _ranked_test_draws(inst, test_dist, t, rng, k)
    j = rng.integers(0, k, size=(t, p))
    fj = inst.oracle.query_many(nbr[inv[:, None], j].ravel()).reshape(t, p)
    return Receipt(float(_all_differ(fj, fx) / t), t * (p + 1))


def lipschitz_inner_samples(lipschitz: float, eps: float, iterations: int) -> int:
    """Neighbor labels per iteration so that each iteration's soft mean is
    accurate enough for an L-Lipschitz loss: ceil(2*L^2*ln(12*T)/eps^2)."""
    if lipschitz <= 0 or iterations < 1:
        raise ValueError("invalid parameter")
    eps = _check_eps(eps)
    return max(
        1, math.ceil(2.0 * lipschitz**2 * math.log(12.0 * iterations) / eps**2)
    )


def estimate_loss_lipschitz(
    inst: KnnInstance,
    test_dist: Distribution,
    k: int,
    loss,
    lipschitz: float,
    eps: float,
    *,
    seed: int | None | np.random.Generator = None,
) -> Receipt:
    """Estimate E_x[loss(|soft prediction - f(x)|)] for an L-Lipschitz loss
    mapping [0,1] to [0,1].

    Runs T = chernoff_iterations(eps/2, 1/6) iterations; each queries a
    fresh test point's label plus w = lipschitz_inner_samples(L, eps, T)
    labels drawn uniformly with replacement from its k nearest, and
    applies the loss to |sample mean - f(x)|, calling it once per distinct
    value. Within eps with probability at least 2/3; spends exactly
    T*(w+1) queries. A loss value outside [0, 1] raises ValueError.
    """
    k = _check_k(inst, k)
    eps = _check_eps(eps)
    rng = as_generator(seed)
    t = chernoff_iterations(eps / 2.0, 1.0 / 6.0)
    w = lipschitz_inner_samples(lipschitz, eps, t)
    fx, nbr, inv = _ranked_test_draws(inst, test_dist, t, rng, k)
    j = rng.integers(0, k, size=(t, w))
    fj = inst.oracle.query_many(nbr[inv[:, None], j].ravel()).reshape(t, w)
    z, at = np.unique(np.abs(fj.mean(axis=1) - fx), return_inverse=True)
    vals = np.array([float(loss(zi)) for zi in z])
    if not np.all((vals >= 0.0) & (vals <= 1.0)):
        raise ValueError("invalid parameter")
    return Receipt(float(vals[at].mean()), t * (w + 1))


def _normalized_weights(inst: KnnInstance, wts) -> np.ndarray:
    wts = np.asarray(wts, dtype=float)
    if wts.shape != (inst.size,) or np.any(wts < 0.0):
        raise ValueError("invalid parameter")
    total = wts.sum()
    if not 0.0 < total < np.inf:
        raise ValueError("degenerate weights")
    return wts / total


def estimate_weighted_nn_loss(
    inst: KnnInstance,
    weights,
    test_dist: Distribution,
    p: int,
    eps: float,
    *,
    seed: int | None | np.random.Generator = None,
) -> Receipt:
    """p-th power loss of the weighted nearest-neighbor predictor.

    `weights` maps a vector of distances from a test point to the pool to
    nonnegative sampling weights over the pool, with a positive finite sum.
    Neighbor indices are drawn from the normalized weights instead of
    uniformly over the k nearest; otherwise identical to
    estimate_soft_loss_pth, including the T*(p+1) query count.

    `weights` is called once per distinct test point. Each draw's p
    neighbors are ``rng.choice(N, p, p=probs)`` of its point's normalized
    weights, in numpy's own algorithm: the cumsum of probs divided by its
    last entry, searched (side="right") at p uniforms, with the uniforms of
    all draws taken in one ``rng.random((T, p))`` call.
    """
    p = _check_p(p)
    eps = _check_eps(eps)
    rng = as_generator(seed)
    t = chernoff_iterations(eps, 1.0 / 3.0)
    fx, ux, inv = _draw_ids(inst, test_dist, t, rng)
    u = rng.random((t, p))
    chosen_pos = np.empty((t, p), dtype=np.intp)
    # The draws of each distinct point, in the order of ux.
    draws_of = np.split(np.argsort(inv, kind="stable"), np.cumsum(np.bincount(inv))[:-1])
    for rows, dists in zip(draws_of, inst.space.cross(ux, inst.pool)):
        cdf = np.cumsum(_normalized_weights(inst, weights(dists)))
        cdf /= cdf[-1]
        chosen_pos[rows] = cdf.searchsorted(u[rows], side="right")
    fj = inst.oracle.query_many(inst.pool[chosen_pos].ravel()).reshape(t, p)
    return Receipt(float(_all_differ(fj, fx) / t), t * (p + 1))


def estimate_hard_error(
    inst: KnnInstance,
    test_dist: Distribution,
    k: int,
    eps: float,
    *,
    seed: int | None | np.random.Generator = None,
) -> Receipt:
    """Estimate the misclassification rate of the hard k-NN predictor.

    Each of T = chernoff_iterations(eps, 1/3) iterations queries a test
    point's label and all k nearest labels, then compares the strict
    majority vote to the truth. Within eps with probability at least 2/3;
    spends exactly T*(k+1) queries.
    """
    k = _check_k(inst, k)
    eps = _check_eps(eps)
    rng = as_generator(seed)
    t = chernoff_iterations(eps, 1.0 / 3.0)
    fx, nbr, inv = _ranked_test_draws(inst, test_dist, t, rng, k)
    fj = inst.oracle.query_many(nbr[inv].ravel()).reshape(t, k)
    pred = (fj.mean(axis=1) > 0.5).astype(np.int8)
    vals = np.abs(pred - fx).astype(float)
    return Receipt(float(vals.mean()), t * (k + 1))


def best_k_grid(n: int, p: int, eps: float) -> list[int]:
    """Geometric candidate grid: floor and ceil of r^i for i = 0..t with
    r = p/(p - eps/3) and t = floor(log_r n), deduplicated and clamped to
    [1, n]. Any k has a grid neighbor within ratio r, so by the stability
    bound its loss is within p*(1 - 1/r) = eps/3 of a grid point's."""
    p = _check_p(p)
    eps = _check_eps(eps, upper=0.5)
    if not _is_int(n) or n < 1:
        raise ValueError("invalid parameter")
    return list(_geometric_grid(int(n), p, eps))


@functools.lru_cache(maxsize=64)
def _geometric_grid(n: int, p: int, eps: float) -> tuple[int, ...]:
    # Keyed by checked plain ints and a float, so True never shares 1's key.
    r = p / (p - eps / 3.0)
    t = int(math.floor(math.log(n) / math.log(r))) if n > 1 else 0
    grid: set[int] = set()
    for i in range(t + 1):
        v = r**i
        grid.add(min(max(int(math.floor(v)), 1), n))
        grid.add(min(max(int(math.ceil(v)), 1), n))
    return tuple(sorted(grid))


def _coupled_ranks(u: np.ndarray, ks, out: np.ndarray | None = None) -> np.ndarray:
    """Rank floor(u*k) for each k in ks and each uniform u in [0, 1) of the
    array u: a (len(ks), *u.shape) intp array, written into out when given.
    Rounding to nearest keeps u*k below k, so the rank lies in {0..k-1}, and
    it does not decrease as k grows. Each product is truncated as it is
    stored, exactly as ``astype`` would, so no float64 copy is kept."""
    k = np.asarray(ks, dtype=float).reshape((-1,) + (1,) * u.ndim)
    if out is None:
        out = np.empty(k.shape[:1] + u.shape, dtype=np.intp)
    return np.multiply(u, k, out=out, casting="unsafe")


def _grid_ids(flat, off, u, ks):
    # The neighbor ids of grid points ks, shaped (len(ks), u.size) for the
    # flat uniforms u and their draws' row offsets off into flat. Rank,
    # offset and gather run in place on the output, _GRID_BLOCK_ROWS grid
    # points at a time, so no product or index array beside it is live.
    # Every index is in range (rank < k <= row length), so the gather
    # clips rather than raises: under "raise" numpy gathers into a copy of
    # `out` and copies it back.
    ids = np.empty((len(ks), u.size), dtype=np.intp)
    for lo in range(0, len(ks), _GRID_BLOCK_ROWS):
        hi = lo + _GRID_BLOCK_ROWS
        block = _coupled_ranks(u, ks[lo:hi], out=ids[lo:hi])
        block += off
        np.take(flat, block, out=block, mode="clip")
    return ids


def best_k(
    inst: KnnInstance,
    test_dist: Distribution,
    p: int,
    eps: float,
    *,
    seed: int | None | np.random.Generator = None,
) -> tuple[int, list[tuple[int, float]]]:
    """Search for an eps-approximately-best neighbor count.

    Estimates the p-th power loss at each of the G grid points of
    best_k_grid as the plain mean of T' = chernoff_iterations(eps/3,
    1/(9G)) draws. Each draw's all-differ indicator lies in [0,1], so by
    Hoeffding each grid estimate is within eps/3 with probability at least
    1 - 1/(9G), and a union bound over the grid fails with probability at
    most 1/9; the median trick would buy the same bound with about 30
    times the draws. Returns the grid point with the smallest estimate and
    the full (k, estimate) table. The winner's true loss is within eps of
    the best over all k in {1..N} with probability at least 2/3. Spends
    T'*(1 + G*p) queries.

    The grid shares its randomness. Test points and their labels are
    drawn once, and each distinct test point is ranked once per instance
    (full-width memo rows, shared with the truth builder). Neighbor
    draws are coupled (common random numbers): one uniform u per draw and
    column, and grid point k reads rank floor(u*k) of the draw's ranking.
    For a fixed k the T' draws stay i.i.d., so each grid estimate keeps
    its Hoeffding bound, and the union bound needs only these per-k
    marginals; the coupling across k does not enter it. u is uniform on
    the 2**53 multiples of 2**-53 in [0, 1), so each rank receives the
    floor or the ceil of 2**53/k of them, up to rounding at the rank
    edges, and floor(u*k) is within k*2**-53 of uniform on {0..k-1} in
    total variation.

    The neighbor ids of all grid points are built in one contiguous array,
    grid point by grid point, draw by draw, column by column, and labeled
    in one oracle call. They are built in place, _GRID_BLOCK_ROWS grid
    points at a time: each block's ranks are truncated straight into the
    ids' memory, offset to their draws' rankings and gathered there, so no
    float product or index array is kept beside the ids. Past
    _GRID_CHUNK_LABELS labels the grid is cut into chunks of whole grid
    points, one call each. The oracle charges each call before reading a
    label, so a budget short of a chunk refuses that chunk whole.
    """
    p = _check_p(p)
    eps = _check_eps(eps, upper=0.5)
    rng = as_generator(seed)
    grid = best_k_grid(inst.size, p, eps)
    total = chernoff_iterations(eps / 3.0, 1.0 / (9.0 * len(grid)))
    fx, nbr, inv = _ranked_test_draws(inst, test_dist, total, rng)
    # Draw by draw, column by column: the memory order of a (T', p) array.
    u = rng.random(total * p)
    off = np.repeat(inv * inst.size, p)
    flat = nbr.ravel()
    step = max(1, _GRID_CHUNK_LABELS // (total * p))
    hits = []
    for lo in range(0, len(grid), step):
        ids = _grid_ids(flat, off, u, grid[lo : lo + step])
        fj = inst.oracle.query_many(ids.ravel()).reshape(len(ids), total, p)
        hits.append(_all_differ(fj, fx))
    losses = np.concatenate(hits) / total
    table = [(k, float(v)) for k, v in zip(grid, losses)]
    return grid[int(np.argmin(losses))], table


def loss_stability_bound(p: int, k1: int, k2: int) -> float:
    """Upper bound p*(1 - k1/k2) on the change of the p-th power loss when
    the neighbor count grows from k1 to k2."""
    if not (1 <= k1 <= k2):
        raise ValueError("invalid parameter")
    return _check_p(p) * (1.0 - k1 / k2)


# Exact oracles: each enumerates the atoms of a finite test distribution,
# weighted by its probs as given, and reads labels without charging. A test
# distribution that is not finite, or has an atom that is not an id of the
# space, raises ValueError("domain mismatch").


def exact_soft_loss_table(inst: KnnInstance, test_dist: Distribution, p: int = 1) -> np.ndarray:
    """Exact p-th power loss of the soft predictor for every k = 1..N, the
    truth `best_k` searches."""
    p = _check_p(p)
    ids, probs = _test_atoms(inst, test_dist)
    rank = inst.ranking(ids)
    labels = _pool_labels(inst)[rank].astype(float)
    fhat = np.cumsum(labels, axis=1) / np.arange(1, inst.size + 1)
    fx = inst.oracle.target.eval_many(ids).astype(float)
    err1 = np.abs(fhat - fx[:, None])
    return (probs[:, None] * err1**p).sum(axis=0)


def exact_soft_loss(inst: KnnInstance, test_dist: Distribution, k: int, p: int) -> float:
    """Exact p-th power loss at a single k, the truth of
    `estimate_soft_loss_pth`."""
    k = _check_k(inst, k)
    p = _check_p(p)
    ids, probs = _test_atoms(inst, test_dist)
    err1 = np.abs(_soft_many(inst, ids, k) - inst.oracle.target.eval_many(ids))
    return float((probs * err1**p).sum())


def exact_hard_error(inst: KnnInstance, test_dist: Distribution, k: int) -> float:
    """Exact misclassification rate of the hard predictor, the truth of
    `estimate_hard_error`."""
    k = _check_k(inst, k)
    ids, probs = _test_atoms(inst, test_dist)
    pred = (_soft_many(inst, ids, k) > 0.5).astype(float)
    err = np.abs(pred - inst.oracle.target.eval_many(ids))
    return float((probs * err).sum())


def exact_weighted_nn_loss(inst: KnnInstance, weights, test_dist: Distribution, p: int) -> float:
    """Exact weighted-neighbor p-th power loss, the truth of
    `estimate_weighted_nn_loss`."""
    p = _check_p(p)
    ids, probs = _test_atoms(inst, test_dist)
    pool_labels = _pool_labels(inst).astype(float)
    fx = inst.oracle.target.eval_many(ids).astype(float)
    out = 0.0
    for i, dists in enumerate(inst.space.cross(ids, inst.pool)):
        err1 = np.abs(pool_labels - fx[i]) @ _normalized_weights(inst, weights(dists))
        out += probs[i] * err1**p
    return float(out)


def knn_instance_to_json(inst: KnnInstance, labels=None) -> str:
    """Serialize an instance; labels default to the target evaluated on
    every point of the space."""
    n = inst.space.n
    if labels is None:
        labels = inst.oracle.target.eval_many(np.arange(n))
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (n,):
        raise ValueError("invalid parameter")
    obj = {
        "points": (
            inst.space.coords.tolist()
            if inst.space.kind == "euclidean1d"
            else list(range(n))
        ),
        "metric": inst.space.kind,
        "pool_indices": inst.pool.tolist(),
        "labels": labels.tolist(),
    }
    if inst.space.kind == "explicit":
        obj["distances"] = inst.space.matrix.tolist()
    return json.dumps(obj)


def knn_instance_from_json(text: str) -> KnnInstance:
    obj = json.loads(text)
    if obj["metric"] == "euclidean1d":
        space = MetricSpace.euclidean1d(obj["points"])
    elif obj["metric"] == "explicit":
        space = MetricSpace.explicit(obj["distances"])
        if len(obj["points"]) != space.n:
            raise ValueError("invalid parameter")
    else:
        raise ValueError("invalid parameter")
    labels = np.asarray(obj["labels"])
    if labels.shape != (space.n,):
        raise ValueError("invalid parameter")
    return KnnInstance(
        space, obj["pool_indices"], TargetFunction.from_labels(labels)
    )
