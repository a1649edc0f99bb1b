"""Shared primitives: targets, label oracles, pools, weighted samples, distributions.

Everything downstream runs in the same access model: an algorithm owns a pool
of unlabeled points and may spend label queries only on pool members, against
a hard budget counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BudgetExceededError",
    "InsufficientPoolError",
    "TargetFunction",
    "LabelOracle",
    "ActivePool",
    "Receipt",
    "WeightedSample",
    "Distribution",
    "relative_entropy",
    "chernoff_iterations",
    "median_repetitions",
    "as_generator",
    "spawn_seeds",
]

# Hoeffding: a median of r independent estimates, each within tolerance with
# probability >= 2/3, misses only if half the repetitions miss, which happens
# with probability <= exp(-2r(2/3-1/2)^2) = exp(-r/18).
MEDIAN_BOOST_FACTOR = 18.0


class BudgetExceededError(RuntimeError):
    """Raised when a label query would push an oracle past its budget."""


class InsufficientPoolError(RuntimeError):
    """Raised when an algorithm needs more unlabeled points than the pool holds."""


def as_generator(seed: int | None | np.random.Generator) -> np.random.Generator:
    """Normalize a seed or generator into a numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    """Derive `count` independent child seed sequences from one master seed."""
    return np.random.SeedSequence(seed).spawn(count)


class TargetFunction:
    """A deterministic binary labeling of the domain.

    Wraps a scalar callable plus an optional vectorized form. Use the
    constructors for the common cases (label arrays indexed by point id,
    indicator of an interval union, constants).
    """

    def __init__(self, fn: Callable, fn_many: Callable | None = None):
        self._fn = fn
        self._fn_many = fn_many

    def __call__(self, point) -> int:
        return int(self._fn(point))

    def eval_many(self, points) -> np.ndarray:
        if self._fn_many is not None:
            return np.asarray(self._fn_many(np.asarray(points)), dtype=np.int8)
        return np.asarray([int(self._fn(p)) for p in np.asarray(points)], dtype=np.int8)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "TargetFunction":
        arr = np.asarray(labels)
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("invalid parameter")
        arr = arr.astype(np.int8)
        return cls(lambda i: arr[int(i)], lambda ids: arr[np.asarray(ids, dtype=np.intp)])

    @classmethod
    def constant(cls, bit: int) -> "TargetFunction":
        b = int(bit)
        return cls(lambda _: b, lambda pts: np.full(np.shape(pts), b, dtype=np.int8))

    @classmethod
    def from_callable(cls, fn: Callable, fn_many: Callable | None = None) -> "TargetFunction":
        return cls(fn, fn_many)


class LabelOracle:
    """Budgeted access to a target's labels.

    `budget=None` means unlimited. `used` counts every query, including
    repeat queries of the same point.
    """

    def __init__(self, target: TargetFunction, budget: int | None = None):
        self.target = target
        self.budget = budget
        self.used = 0

    def _charge(self, n: int) -> None:
        if self.budget is not None and self.used + n > self.budget:
            raise BudgetExceededError("budget exceeded")
        self.used += n

    def query(self, point) -> int:
        self._charge(1)
        return int(self.target(point))

    def query_many(self, points) -> np.ndarray:
        pts = np.asarray(points)
        self._charge(int(pts.shape[0]))
        return self.target.eval_many(pts)

    @property
    def remaining(self) -> int | None:
        return None if self.budget is None else self.budget - self.used


class ActivePool:
    """An ordered pool of i.i.d. unlabeled draws plus a label oracle.

    Label queries go through :meth:`label`, which only accepts indices into
    the pool, so every spent label provably targets a pool member. `take`
    hands out the next unread points as a read-only view with their indices
    as a range, which `label` reads as a slice, so neither is copied;
    `unlabeled_used` is how many have been read so far.

    `query_points`, when given, holds the representation the oracle
    understands for each pool point (used by reductions that relabel the
    pool's coordinates but must still charge queries to the real target).
    """

    def __init__(
        self,
        points: np.ndarray,
        oracle: LabelOracle,
        query_points: np.ndarray | None = None,
    ):
        self.points = np.asarray(points)
        self.oracle = oracle
        self.query_points = self.points if query_points is None else np.asarray(query_points)
        if self.query_points.shape[0] != self.points.shape[0]:
            raise ValueError("domain mismatch")
        self._cursor = 0

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @property
    def unlabeled_used(self) -> int:
        return self._cursor

    @property
    def remaining(self) -> int:
        return len(self) - self._cursor

    def take(self, n: int) -> tuple[np.ndarray, range]:
        """Return the next `n` points, a read-only view, and their indices;
        raises once the pool runs dry."""
        if n < 0:
            raise ValueError("invalid parameter")
        a = self._cursor
        if a + n > len(self):
            raise InsufficientPoolError("insufficient pool")
        self._cursor += n
        return _read_only(self.points[a : a + n]), range(a, a + n)

    def take_rest(self) -> tuple[np.ndarray, range]:
        return self.take(self.remaining)

    def label(self, indices) -> np.ndarray:
        if isinstance(indices, range) and indices.step == 1:
            if indices and (indices.start < 0 or indices.stop > len(self)):
                raise ValueError("domain mismatch")
            view = self.query_points[indices.start : indices.stop]
            return self.oracle.query_many(_read_only(view))
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise ValueError("domain mismatch")
        return self.oracle.query_many(self.query_points[idx])


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class Receipt:
    """An estimate and its bill: the value, the labels queried for it (arm
    pulls for bandit estimators), the unlabeled draws read, and, when the
    estimator solved its labeled points exactly, a witness attaining the
    value. The value is not range-checked: an exact distance may read a
    rounding above 1.0."""

    value: float
    queries_used: int
    unlabeled_used: int = 0
    witness: object = None


@dataclass
class WeightedSample:
    """Points with nonnegative weights (a finite measure) and optional labels.

    Duplicated points stay distinct atoms; weights are expected to sum to 1
    (within 1e-9) wherever a sample stands in for a distribution.
    """

    points: np.ndarray
    weights: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.weights.shape[0] != self.points.shape[0]:
            raise ValueError("domain mismatch")
        if self.labels is not None and self.labels.shape[0] != self.points.shape[0]:
            raise ValueError("domain mismatch")
        if np.any(self.weights < 0):
            raise ValueError("invalid parameter")

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @classmethod
    def uniform(cls, points, labels=None) -> "WeightedSample":
        pts = np.asarray(points)
        n = pts.shape[0]
        if n == 0:
            return cls(pts, np.zeros(0), labels)
        return cls(pts, np.full(n, 1.0 / n), labels)

    def require_normalized(self, tol: float = 1e-9) -> None:
        if abs(float(self.weights.sum()) - 1.0) > tol:
            raise ValueError("invalid parameter")

    def to_json(self) -> dict:
        out = {
            "points": [float(p) for p in np.asarray(self.points, dtype=float)],
            "weights": [float(w) for w in self.weights],
        }
        if self.labels is not None:
            out["labels"] = [int(b) for b in self.labels]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "WeightedSample":
        return cls(
            np.asarray(obj["points"], dtype=float),
            np.asarray(obj["weights"], dtype=float),
            np.asarray(obj["labels"], dtype=np.int8) if "labels" in obj else None,
        )


@dataclass(frozen=True)
class Distribution:
    """A seeded point source over the reals or a finite support.

    kind is one of "uniform01", "finite", "inverse_cdf". Drawing with equal
    seeds reproduces equal sequences. A finite distribution derives its CDF
    from probs once, at construction, and draws by numpy's own
    ``Generator.choice`` algorithm on it, so its draws and the generator's
    state afterwards are those of ``rng.choice(atoms, size=n, p=probs)``.
    """

    kind: str
    atoms: np.ndarray | None = None
    probs: np.ndarray | None = None
    inverse_cdf: Callable | None = None
    cdf: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "finite":
            cdf = np.asarray(self.probs, dtype=float).cumsum()
            cdf /= cdf[-1]
            object.__setattr__(self, "cdf", cdf)

    @classmethod
    def uniform01(cls) -> "Distribution":
        return cls("uniform01")

    @classmethod
    def finite(cls, atoms, probs) -> "Distribution":
        atoms = np.asarray(atoms, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if atoms.shape[0] != probs.shape[0] or np.any(probs < 0):
            raise ValueError("invalid parameter")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError("invalid parameter")
        return cls("finite", atoms=atoms, probs=probs)

    @classmethod
    def from_inverse_cdf(cls, fn: Callable) -> "Distribution":
        return cls("inverse_cdf", inverse_cdf=fn)

    def draw(self, n: int, seed: int | None | np.random.Generator = None) -> np.ndarray:
        rng = as_generator(seed)
        if self.kind == "uniform01":
            return rng.random(n)
        if self.kind == "finite":
            return np.asarray(self.atoms)[self.cdf.searchsorted(rng.random(n), side="right")]
        if self.kind == "inverse_cdf":
            return np.asarray(self.inverse_cdf(rng.random(n)))
        raise ValueError("invalid parameter")


def relative_entropy(x: float, y: float) -> float:
    """Binary KL divergence D(x||y) in nats, with the 0*log(0)=0 convention."""
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError("invalid parameter")
    if y in (0.0, 1.0):
        if x == y:
            return 0.0
        raise ValueError("infinite divergence")
    total = 0.0
    if x > 0.0:
        total += x * math.log(x / y)
    if x < 1.0:
        total += (1.0 - x) * math.log((1.0 - x) / (1.0 - y))
    return total


def chernoff_iterations(eps: float, delta: float) -> int:
    """Hoeffding sample count: mean of this many [0,1] draws lands within
    `eps` of its expectation with probability at least 1-delta."""
    if not (0.0 < eps < 1.0) or not (0.0 < delta < 1.0):
        raise ValueError("invalid parameter")
    return math.ceil(math.log(2.0 / delta) / (2.0 * eps * eps))


def median_repetitions(delta: float) -> int:
    """Repetitions so the median of 2/3-confidence estimates fails with
    probability at most `delta`."""
    if not (0.0 < delta < 1.0):
        raise ValueError("invalid parameter")
    return max(1, math.ceil(MEDIAN_BOOST_FACTOR * math.log(1.0 / delta)))
