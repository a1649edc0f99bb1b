"""Bernoulli arm sets, good-arm-fraction estimation, and star-metric
instance generators that reduce neighbor-loss estimation to arm problems.

An arm is good at gap gamma when its mean is at least 1/2+gamma and bad
when at most 1/2-gamma. `natural_aga` estimates the fraction of good arms
to additive eps by sampling arms and classifying each by a majority of
pulls; its pull count is exact and independent of the number of arms.
`aga_schedule` splits eps between bias and sampling: enough pulls that
each arm is misclassified with probability at most AGA_BIAS_SHARE*eps
(Hoeffding), which moves the estimate's expectation by at most that much,
and enough arms that their mean covers the rest of eps (Hoeffding again).

The star generators build adversarial k-NN fixtures: a star has m hub
points ("centers") pairwise at distance 1, each with its own radius in
(1,2) to every leaf; leaves sit pairwise at distance 2, and distinct
stars are far apart (distance 10). The radii are distinct, yet rankings
still tie: centers of one star tie at 1, its leaves at 2, a center's
distances to the leaves of its star at its radius, and all cross-star
distances at 10; ties go to pool position. Every distance inside a star
is at most 2, below the cross-star 10, so a query ranks the pool points
of its own star first and then every other pool point in pool order; the
star metric reads each ranking off this layout without any distance. The
soft generator labels leaves 1 and centers by independent coins; the hard
generator labels leaves 0 and the centers of star j by independent pulls
of arm j, so the hard misclassification rate carries the good-arm
fraction.

Lower-bound statements about these constructions (query-count floors for
loss estimation and for good-arm counting) are mathematical impossibility
results: they constrain every algorithm and cannot be implemented or
verified empirically. This package records them as documentation only;
the only executable artifact related to them is the `relative_entropy`
utility and its Pinsker-inequality check. The proofs' unspecified
constants are exposed as generator parameters with default 1.0; shrink
them to scale instances down (sizes grow quadratically through m).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Receipt,
    TargetFunction,
    _is_int,
    as_generator,
    chernoff_iterations,
)
from .knn import KnnInstance, MetricSpace, _IdSpace

__all__ = [
    "ArmSet",
    "StarInstance",
    "good_arm_means",
    "aga_schedule",
    "natural_aga",
    "star_soft_plan",
    "star_hard_plan",
    "build_star_instance_soft",
    "build_star_instance_hard",
    "star_metadata",
    "star_instance_to_json",
    "star_instance_from_json",
    "recover_good_fraction",
]

# Share of aga's eps spent on per-arm misclassification bias; the rest goes
# to sampling arms (aga_schedule). Fixed, not solved for: at eps=0.05,
# gamma=0.1 the best share (about 0.087) saves 0.4% of the pulls.
AGA_BIAS_SHARE = 0.1


class ArmSet:
    """Bernoulli arms with per-arm pull counters, which `natural_aga`
    advances. Means may be any values in [0,1]: the good/bad dichotomy at a
    gap is enforced only by the operations that take one.
    """

    def __init__(self, means):
        self.means = np.asarray(means, dtype=float)
        if (
            self.means.ndim != 1
            or self.means.shape[0] == 0
            or np.any(self.means < 0.0)
            or np.any(self.means > 1.0)
        ):
            raise ValueError("invalid parameter")
        self.pulls = np.zeros(self.means.shape[0], dtype=np.int64)

    @property
    def n(self) -> int:
        return int(self.means.shape[0])

    def good_mask(self, gamma: float) -> np.ndarray:
        """Which arms are good at gap gamma; raises if any arm is neither
        good nor bad."""
        if not (0.0 < gamma <= 0.5):
            raise ValueError("invalid parameter")
        gap = np.abs(self.means - 0.5)
        if np.any(gap < gamma - 1e-12):
            raise ValueError("parameter regime violated")
        return self.means >= 0.5


def good_arm_means(n: int, gamma: float, good_frac: float) -> np.ndarray:
    """Means of n arms: the first round(good_frac*n) are good at 1/2+gamma,
    the rest bad at 1/2-gamma. A good_frac outside [0, 1] raises
    ``invalid parameter: good_frac``."""
    if not 0.0 <= good_frac <= 1.0:
        raise ValueError("invalid parameter: good_frac")
    good = int(round(good_frac * n))
    return np.where(np.arange(n) < good, 0.5 + gamma, 0.5 - gamma)


def aga_schedule(eps: float, gamma: float) -> tuple[int, int]:
    """Arms sampled and pulls per arm, with f = AGA_BIAS_SHARE:
    q = ceil(ln(1/(f*eps))/(2*gamma^2)) and
    s = chernoff_iterations((1-f)*eps, 1/3).

    Proof step: by Hoeffding, a majority of q pulls misclassifies an arm
    at gap gamma with probability at most exp(-2*q*gamma^2) <= f*eps, so
    the indicator "sampled arm called good" has expectation within f*eps
    of the good fraction; by Hoeffding, the mean of s such indicators is
    within (1-f)*eps of that expectation with probability at least 2/3.
    Per-arm errors need not hold jointly, so there is no union bound over
    the s arms. At eps=0.05, gamma=0.1 the bill is 443 * 265 = 117,395
    pulls."""
    if not (0.0 < eps < 1.0) or not (0.0 < gamma <= 0.5):
        raise ValueError("invalid parameter")
    f = AGA_BIAS_SHARE
    s = chernoff_iterations((1.0 - f) * eps, 1.0 / 3.0)
    q = math.ceil(math.log(1.0 / (f * eps)) / (2.0 * gamma**2))
    return s, q


def natural_aga(
    arms: ArmSet,
    gamma: float,
    eps: float,
    seed: int | None | np.random.Generator = None,
) -> Receipt:
    """Estimate the fraction of good arms to additive eps, succeeding with
    probability at least 2/3.

    Picks s arms uniformly with replacement, pulls each q times, and
    calls an arm good when strictly more than half its pulls are
    positive. Requires every arm to be good or bad at gap gamma. Spends
    exactly s*q pulls (aga_schedule), independent of the number of arms;
    the receipt bills them as queries.
    The proof step is aga_schedule's: each arm's misclassification biases
    the estimate by at most AGA_BIAS_SHARE*eps in expectation, and
    Hoeffding over the s sampled arms covers the rest of eps.
    """
    arms.good_mask(gamma)
    rng = as_generator(seed)
    s, q = aga_schedule(eps, gamma)
    picked = rng.integers(0, arms.n, size=s)
    positives = rng.binomial(q, arms.means[picked])
    np.add.at(arms.pulls, picked, q)
    return Receipt(float(np.mean(positives > q / 2.0)), s * q)


class _StarSpace(_IdSpace):
    """Structured metric over n stars without materializing the matrix.

    Star j occupies ids [j*(m+L), (j+1)*(m+L)) with its m centers first
    and L = b*m leaves after. Distances: 0 on the diagonal, 1 between
    centers of one star, radii[center] between a center and any leaf of
    its star, 2 between leaves of one star, and 10 across stars.
    """

    kind = "star"
    CROSS_STAR = 10.0

    def __init__(self, n_stars: int, m: int, b: int, radii: np.ndarray):
        if not all(_is_int(v) for v in (n_stars, m, b)):
            raise ValueError("invalid parameter")
        if min(n_stars, m) < 1 or b < 0:
            raise ValueError("invalid parameter")
        self.n_stars, self.m, self.b = int(n_stars), int(m), int(b)
        self.star_size = self.m * (1 + self.b)
        self.radii = np.asarray(radii, dtype=float)
        if self.radii.shape != (self.n_stars * self.m,):
            raise ValueError("invalid parameter")
        if np.any(self.radii <= 1.0) or np.any(self.radii >= 2.0):
            raise ValueError("invalid parameter")
        if np.unique(self.radii).shape[0] != self.radii.shape[0]:
            raise ValueError("invalid parameter")

    @property
    def n(self) -> int:
        return self.n_stars * self.star_size

    def _within(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Distances between broadcast id arrays as if they shared one star:
        # 1 between two centers, 2 between two leaves, else the radius of
        # the center among them; 0 on the diagonal.
        cx, cy = x % self.star_size < self.m, y % self.star_size < self.m
        star, within = np.divmod(np.where(cx, x, y), self.star_size)
        r = self.radii[star * self.m + np.minimum(within, self.m - 1)]
        return np.where(x == y, 0.0, np.where(cx & cy, 1.0, np.where(cx | cy, r, 2.0)))

    def cross(self, x_ids, y_ids) -> np.ndarray:
        x = self._check_ids(np.atleast_1d(x_ids))[:, None]
        y = self._check_ids(np.atleast_1d(y_ids))[None, :]
        same = x // self.star_size == y // self.star_size
        return np.where(same, self._within(x, y), self.CROSS_STAR)

    def ranking(self, x_ids, pool: np.ndarray, k: int) -> np.ndarray:
        """Exactly the stable ranking of cross(x_ids, pool), cut to k, read
        off the layout. A query x of star s sees four distance classes, in
        increasing order: 0 at the positions holding x; 1 (x a center) or
        a center's own radius in (1, 2) (x a leaf) at star s's pooled
        centers; x's radius in (1, 2) (x a center) or 2 (x a leaf) at star
        s's pooled leaves; 10 everywhere else. So the row is x's positions,
        star s's pooled centers (by position, or by radius and then
        position for a leaf x, radii being distinct), its pooled leaves,
        then every other position, each block in position order. Only the
        first block depends on x: a row is x's positions and then one of
        star s's two templates, center or leaf, with x removed. An id that
        is not in the pool has no position at distance 0 and appears in no
        template, so its row is its template verbatim; only pooled ids are
        fixed up. No distance is computed."""
        x = self._check_ids(np.atleast_1d(x_ids))
        width = min(k, pool.shape[0])
        x_star, x_within = np.divmod(x, self.star_size)
        pool_star, pool_within = np.divmod(pool, self.star_size)
        queried = np.bincount(x_star, minlength=self.n_stars) > 0
        templates = np.empty((np.count_nonzero(queried), 2, width), dtype=np.intp)
        for i, s in enumerate(np.flatnonzero(queried)):
            own = pool_star == s
            cen = np.flatnonzero(own & (pool_within < self.m))
            radius = self.radii[s * self.m + pool_within[cen]]
            near = cen[np.argsort(radius, kind="stable")]  # for a leaf query
            tail = np.flatnonzero(own & (pool_within >= self.m)), np.flatnonzero(~own)
            templates[i] = [np.concatenate([c, *tail])[:width] for c in (cen, near)]
        # Flat row 2*i + leaf: the i-th queried star's center or leaf template.
        flat = 2 * (np.cumsum(queried) - 1)[x_star] + (x_within >= self.m)
        rows = np.take(templates.reshape(-1, width), flat, axis=0)
        pooled = np.zeros(self.n, dtype=bool)
        pooled[pool] = True
        fix = np.flatnonzero(pooled[x])
        if fix.size:
            # A pooled x's positions (ascending in the stably id-sorted
            # pool), then its template without them: the first `width`
            # kept cells always fill the row.
            xf, tmpl = x[fix], rows[fix]
            by_id = np.argsort(pool, kind="stable")
            lo, hi = (np.searchsorted(pool[by_id], xf, side) for side in ("left", "right"))
            col = np.arange(width)
            mine = by_id[np.minimum(lo[:, None] + col, pool.shape[0] - 1)]
            keep = np.hstack([col < (hi - lo)[:, None], pool[tmpl] != xf[:, None]])
            keep &= np.cumsum(keep, axis=1) <= width
            rows[fix] = np.hstack([mine, tmpl])[keep].reshape(fix.size, width)
        return rows

    def to_explicit(self) -> MetricSpace:
        ids = np.arange(self.n)
        return MetricSpace.explicit(self.cross(ids, ids))


@dataclass
class StarInstance:
    """Generated k-NN instance over star geometry plus its parameters.

    k is the neighbor count the construction targets. The sizes are read
    off the instance: n is the star count (1 for the soft construction),
    m the centers per star, b the leaf multiplier (b*m leaves per star),
    and N the pool size.
    """

    instance: KnnInstance
    k: int
    constants: tuple
    seed: int | None
    labels: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.instance.space.n_stars

    @property
    def m(self) -> int:
        return self.instance.space.m

    @property
    def b(self) -> int:
        return self.instance.space.b

    @property
    def N(self) -> int:
        return self.instance.size


def star_soft_plan(p: int, eps: float, constants: tuple = (1.0, 1.0, 1.0)) -> dict:
    """Size formulas of the single-star construction: k = ceil(c1*p^2/eps^2),
    b = ceil(6/eps), N = ceil(c2*(1+b)*k), m = ceil(c3*N^2/(1+b))."""
    if not _is_int(p) or p < 1 or not (0.0 < eps < 1.0):
        raise ValueError("invalid parameter")
    c1, c2, c3 = (float(c) for c in constants)
    if min(c1, c2, c3) <= 0.0:
        raise ValueError("invalid parameter")
    k = math.ceil(c1 * p**2 / eps**2)
    b = math.ceil(6.0 / eps)
    n_pool = math.ceil(c2 * (1 + b) * k)
    m = math.ceil(c3 * n_pool**2 / (1 + b))
    return {"k": k, "b": b, "N": n_pool, "m": m, "points": m * (1 + b)}


def star_hard_plan(
    n_arms: int, k: int, eps: float, constants: tuple = (1.0, 1.0)
) -> dict:
    """Size formulas of the n-star construction: b = ceil(3/eps),
    N = ceil(c1*(1+b)*n*(k+ln(1/eps))), m = ceil(c2*N^2/((1+b)*n))."""
    if not all(_is_int(v) and v >= 1 for v in (n_arms, k)) or not (0.0 < eps < 1.0):
        raise ValueError("invalid parameter")
    c1, c2 = (float(c) for c in constants)
    if min(c1, c2) <= 0.0:
        raise ValueError("invalid parameter")
    b = math.ceil(3.0 / eps)
    n_pool = math.ceil(c1 * (1 + b) * n_arms * (k + math.log(1.0 / eps)))
    m = math.ceil(c2 * n_pool**2 / ((1 + b) * n_arms))
    return {
        "k": k,
        "b": b,
        "N": n_pool,
        "m": m,
        "points": n_arms * m * (1 + b),
    }


def _distinct_radii(count: int, rng) -> np.ndarray:
    # Uniform(1,2) with re-draws on (measure-zero) collisions.
    radii = 1.0 + rng.random(count)
    while np.unique(radii).shape[0] != count:
        radii = 1.0 + rng.random(count)
    return radii


def _assemble(space: _StarSpace, labels, pool, k: int, constants, seed):
    labels = np.asarray(labels, dtype=np.int8)
    inst = KnnInstance(space, pool, TargetFunction.from_labels(labels))
    return StarInstance(inst, k, constants, seed, labels)


def build_star_instance_soft(
    p: int,
    eps: float,
    coin_mean: float,
    constants: tuple = (1.0, 1.0, 1.0),
    seed: int | None | np.random.Generator = None,
) -> StarInstance:
    """Single star whose leaves are labeled 1 and whose centers carry
    independent coins of the given mean; the pool is N uniform draws from
    the star.

    The construction's guarantees are stated for eps below 1/(6*sqrt(e))
    (about 0.101); larger eps still builds the geometry and is useful at
    desk scale.
    """
    if not (0.0 <= coin_mean <= 1.0):
        raise ValueError("invalid parameter")
    rng = as_generator(seed)
    plan = star_soft_plan(p, eps, constants)
    m, b = plan["m"], plan["b"]
    space = _StarSpace(1, m, b, _distinct_radii(m, rng))
    labels = np.ones(space.n, dtype=np.int8)
    labels[:m] = (rng.random(m) < coin_mean).astype(np.int8)
    pool = rng.integers(0, space.n, size=plan["N"])
    return _assemble(space, labels, pool, plan["k"], tuple(constants), _seed_repr(seed))


def build_star_instance_hard(
    n_arms: int,
    arm_means,
    k: int,
    eps: float,
    constants: tuple = (1.0, 1.0),
    seed: int | None | np.random.Generator = None,
) -> StarInstance:
    """n identical stars; leaves are labeled 0 and the centers of star j
    by independent pulls of arm j, so hard k-NN error encodes the
    good-arm fraction (see recover_good_fraction).

    The construction's guarantees are stated for eps below 1/4; larger
    eps still builds the geometry.
    """
    arms = ArmSet(arm_means)
    if arms.n != n_arms:
        raise ValueError("invalid parameter")
    rng = as_generator(seed)
    plan = star_hard_plan(n_arms, k, eps, constants)
    m, b = plan["m"], plan["b"]
    space = _StarSpace(n_arms, m, b, _distinct_radii(n_arms * m, rng))
    labels = np.zeros(space.n, dtype=np.int8)
    ids = np.arange(space.n)
    within = ids % space.star_size
    center_ids = ids[within < m]
    star = center_ids // space.star_size
    labels[center_ids] = (rng.random(center_ids.shape[0]) < arms.means[star]).astype(
        np.int8
    )
    pool = rng.integers(0, space.n, size=plan["N"])
    return _assemble(space, labels, pool, plan["k"], tuple(constants), _seed_repr(seed))


def _seed_repr(seed):
    return None if isinstance(seed, np.random.Generator) else seed


def star_instance_to_json(si: StarInstance) -> str:
    """Serialize a star instance compactly: structural parameters and the
    per-center radii stand in for the quadratic distance matrix."""
    inst = si.instance
    obj = {
        "metric": "star",
        "star": {
            "n": si.n,
            "m": si.m,
            "b": si.b,
            "radii": inst.space.radii.tolist(),
        },
        "pool_indices": inst.pool.tolist(),
        "labels": np.asarray(si.labels, dtype=int).tolist(),
        "k": si.k,
        "N": si.N,
        "constants": list(si.constants),
        "seed": si.seed,
    }
    return json.dumps(obj)


def star_instance_from_json(text: str) -> StarInstance:
    obj = json.loads(text)
    if obj.get("metric") != "star":
        raise ValueError("invalid parameter")
    s = obj["star"]
    space = _StarSpace(s["n"], s["m"], s["b"], np.asarray(s["radii"], dtype=float))
    labels = np.asarray(obj["labels"], dtype=np.int8)
    if labels.shape != (space.n,):
        raise ValueError("invalid parameter")
    si = _assemble(
        space, labels, obj["pool_indices"], obj["k"], tuple(obj.get("constants", ())), obj.get("seed")
    )
    if type(si.k) is not int or not 1 <= si.k <= si.N or obj["N"] != si.N:
        raise ValueError("invalid parameter")
    return si


def star_metadata(si: StarInstance) -> dict:
    """Sidecar metadata emitted alongside the instance JSON."""
    return {
        "m": si.m,
        "b": si.b,
        "n": si.n,
        "k": si.k,
        "N": si.N,
        "constants": list(si.constants),
        "seed": si.seed,
    }


def recover_good_fraction(error_estimate: float, b: int) -> float:
    """Invert the hard-star reduction: leaves are a b/(1+b) share of each
    star, so the good-arm fraction is about the error times (1+b)/b."""
    if b < 1:
        raise ValueError("invalid parameter")
    return float(min(1.0, max(0.0, error_estimate * (1 + b) / b)))
