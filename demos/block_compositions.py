"""Compositions over block partitions: truncated distances and active runs.

A composition splits the domain into blocks and, per block, charges a convex
cost curve for editing the restriction of a function into the block's
class. The truncated distance relaxes a total budget and a per-block cap by
a factor (1 + mu) and is computed exactly by spending the budget on the
largest marginal cost decrements over all blocks. This script walks a tiny
hand example, then lets the sampling estimators reproduce truncated
distances from label queries alone, and closes with a disjoint union whose
block masses are never revealed to the algorithm.
"""

import numpy as np

from activetest import (
    ActivePool,
    LabelOracle,
    TargetFunction,
    TrialConfig,
    TruncatedBudget,
    WeightedSample,
    at_most_k_ones_spec,
    disjoint_union_da,
    disjoint_union_plan,
    distance_to_truncated_composition,
    exact_distance_to_intervals,
    run_trials,
)


def truncated_distance_section():
    # two blocks of three ids; block classes are "at most k ones"
    sample = WeightedSample.uniform(
        np.arange(6, dtype=float), labels=[1, 1, 1, 0, 1, 1]
    )
    ids = np.array([0, 0, 0, 1, 1, 1])
    spec = at_most_k_ones_spec(2)
    print("cheapest edit into 'at most k ones per block, total k budgeted':")
    print(f"  {'total':>5} {'cap':>3} {'distance':>8}")
    for total in (0, 1, 2, 3, 6):
        budget = TruncatedBudget(total=total, cap=3)
        d = distance_to_truncated_composition(sample, ids, spec, budget)
        print(f"  {total:>5} {3:>3} {d:>8.4f}")
    print("  relaxing the budget can only shrink the distance")


def composition_estimate_section():
    config = TrialConfig(
        "compose-da",
        eps=0.25,
        trials=3,
        seed=11,
        params={"m": 30, "lam": 2.0, "noisy_blocks": 15},
    )
    report = run_trials(config)
    print("\nsampled composition estimates vs the exact truncated distance:")
    for row in report.rows:
        print(
            f"  trial {row.trial}: estimate={row.output:.4f} truth={row.truth:.4f}"
            f" labels={row.queries}"
        )
    agg = report.aggregate()
    print(f"  success rate at tolerance {report.tolerance}: {agg['success_rate']:.2f}")


def disjoint_union_section():
    # left half is constantly 0; the right half alternates in 0.1 stripes,
    # so its distance to one interval is 0.4 and the union distance is 0.2
    def stripes(pts):
        pts = np.asarray(pts)
        return ((pts >= 0.5) & (((pts - 0.5) // 0.1).astype(int) % 2 == 0)).astype(
            np.int8
        )

    target = TargetFunction.from_callable(lambda x: stripes([x])[0], stripes)
    eps = 0.4
    s, reps = disjoint_union_plan(eps, 2)
    rng = np.random.default_rng(48)
    pool = ActivePool(rng.random(s + 2 * reps * 80 + 4000), LabelOracle(target))

    # one call per drawn block; repetition r reads only its own slice r
    def per_block(sub, reps, inner_eps, inner_rng):
        pts, idx = sub.take_rest()
        labels = sub.label(idx)
        return [
            exact_distance_to_intervals(WeightedSample.uniform(p, l), 1)[0]
            for p, l in zip(pts.reshape(reps, -1), labels.reshape(reps, -1))
        ]

    out = disjoint_union_da(
        pool,
        per_block,
        eps,
        num_blocks=2,
        block_of=lambda pts: (np.asarray(pts) >= 0.5).astype(np.intp),
        block_pool_size=80,
        seed=49,
    )
    print("\ndisjoint union of two blocks with hidden masses:")
    print(f"  estimate={out:.4f}  truth=0.2000  labels spent={pool.oracle.used}")
    print(f"  ({s} block draws, per-block medians of {reps} runs)")


def main():
    truncated_distance_section()
    composition_estimate_section()
    disjoint_union_section()


if __name__ == "__main__":
    main()
