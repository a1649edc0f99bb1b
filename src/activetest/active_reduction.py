"""The query-to-active reduction.

A query algorithm may ask for the label of any support point of a known
distribution. Drawing one unlabeled pool and running the algorithm on its
empirical distribution at accuracy eps/2 preserves its distance-approximation
guarantee and adds no label query: the algorithm labels through the pool,
which answers only for its own points, so the reduction's label count is
exactly the algorithm's.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .core import ActivePool, LabelOracle, Receipt, TargetFunction, as_generator

__all__ = [
    "active_sample_size",
    "activeize_da",
]

# Unlabeled draws for the reduction: ceil(C * vc * ln(1/eps) / eps^2).
UNLABELED_SAMPLE_CONSTANT = 0.1


def active_sample_size(vc_dim: int, eps: float) -> int:
    """Unlabeled draw count for the query-to-active reduction at VC
    dimension vc_dim and accuracy eps; the constant is read at each call."""
    if not (0.0 < eps < 1.0) or vc_dim <= 0:
        raise ValueError("invalid parameter")
    return math.ceil(UNLABELED_SAMPLE_CONSTANT * vc_dim * math.log(1.0 / eps) / eps**2)


def activeize_da(
    run: Callable[[ActivePool, float, np.random.Generator], Receipt],
    vc_dim: int,
    eps: float,
    dist,
    target: TargetFunction | LabelOracle,
    *,
    seed: int | None | np.random.Generator = None,
) -> Receipt:
    """Active distance approximation from a query one: draw
    :func:`active_sample_size` points from `dist`, pool them with the
    target's oracle and return ``run(pool, eps / 2, rng)``'s receipt, billed
    for the whole draw as unlabeled."""
    rng = as_generator(seed)
    oracle = target if isinstance(target, LabelOracle) else LabelOracle(target)
    n = active_sample_size(vc_dim, eps)
    pool = ActivePool(np.asarray(dist.draw(n, rng), dtype=float), oracle)
    return dataclasses.replace(run(pool, eps / 2.0, rng), unlabeled_used=n)
