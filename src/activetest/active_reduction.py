"""Wrappers that turn query algorithms into active ones.

A query algorithm may ask for the label of any support point of a known
distribution. Drawing one unlabeled pool and handing the algorithm its
empirical distribution preserves testing and distance-approximation
guarantees while adding zero label queries, so the wrapped algorithm's
label count is exactly the original's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .core import LabelOracle, TargetFunction, WeightedSample, as_generator

__all__ = [
    "QueryAlgorithm",
    "active_sample_size",
    "activeize_pt",
    "activeize_da",
]

# Pool sizes: testing needs C * vc/eps * ln(1/eps) draws, distance
# approximation C * vc/eps^2 * ln(1/eps).
PT_SAMPLE_CONSTANT = 1.0
DA_SAMPLE_CONSTANT = 1.0


@dataclass
class QueryAlgorithm:
    """A membership-query algorithm over a known weighted sample.

    `run(sample, oracle, eps, rng)` must spend labels only through `oracle`
    (its `query`, `query_many`, `used` and `remaining`) and only on the
    sample's support (in particular never on weight-zero points).
    `declared_queries` is optional metadata for budget cross-checks.
    """

    run: Callable[[WeightedSample, LabelOracle, float, np.random.Generator], Any]
    declared_queries: int | None = None


def active_sample_size(
    vc_dim: int,
    eps: float,
    *,
    kind: str = "da",
    constant: float | None = None,
) -> int:
    """Unlabeled draw count for the query-to-active reduction."""
    if not (0.0 < eps < 1.0) or vc_dim <= 0:
        raise ValueError("invalid parameter")
    if kind == "pt":
        c = PT_SAMPLE_CONSTANT if constant is None else constant
        return math.ceil(c * vc_dim * math.log(1.0 / eps) / eps)
    if kind == "da":
        c = DA_SAMPLE_CONSTANT if constant is None else constant
        return math.ceil(c * vc_dim * math.log(1.0 / eps) / eps**2)
    raise ValueError("invalid parameter")


def _run_on_empirical(
    alg: QueryAlgorithm,
    vc_dim: int,
    eps: float,
    dist,
    target: TargetFunction | LabelOracle,
    kind: str,
    seed,
    constant,
):
    rng = as_generator(seed)
    oracle = target if isinstance(target, LabelOracle) else LabelOracle(target)
    n = active_sample_size(vc_dim, eps, kind=kind, constant=constant)
    draws = dist.draw(n, rng)
    sample = WeightedSample.uniform(draws)
    # restrict the oracle to the drawn support so a buggy query algorithm
    # cannot silently spend labels off-pool
    return alg.run(sample, _SupportRestrictedOracle(oracle, draws), eps / 2.0, rng)


class _SupportRestrictedOracle:
    """A label oracle that answers only on the drawn support. It exposes no
    target, so every label a query algorithm reads is charged."""

    def __init__(self, inner: LabelOracle, support):
        self._inner = inner
        self._support = np.asarray(support)

    @property
    def used(self) -> int:
        return self._inner.used

    @property
    def remaining(self) -> int | None:
        return self._inner.remaining

    def query_many(self, points) -> np.ndarray:
        pts = np.asarray(points)
        if not np.isin(pts, self._support).all():
            raise ValueError("domain mismatch")
        return self._inner.query_many(pts)

    def query(self, point) -> int:
        return int(self.query_many([point])[0])


def activeize_pt(
    alg: QueryAlgorithm,
    vc_dim: int,
    eps: float,
    dist,
    target: TargetFunction | LabelOracle,
    *,
    seed: int | None | np.random.Generator = None,
    sample_constant: float | None = None,
) -> int:
    """Active property tester from a query tester: one pool of
    C*vc/eps*ln(1/eps) draws, the query algorithm run on its empirical
    distribution at accuracy eps/2."""
    return int(
        _run_on_empirical(alg, vc_dim, eps, dist, target, "pt", seed, sample_constant)
    )


def activeize_da(
    alg: QueryAlgorithm,
    vc_dim: int,
    eps: float,
    dist,
    target: TargetFunction | LabelOracle,
    *,
    seed: int | None | np.random.Generator = None,
    sample_constant: float | None = None,
) -> float:
    """Active distance approximation from a query one; pool grows to
    C*vc/eps^2*ln(1/eps) draws so empirical distances transfer at eps/2."""
    return float(
        _run_on_empirical(alg, vc_dim, eps, dist, target, "da", seed, sample_constant)
    )
