"""Distance to unions of intervals: exact solver, error curve, active runs.

The walk starts from a labeled sample whose 1-region is three intervals with
a stripe of flipped labels, computes the exact edit distance to every
interval budget, and then reruns the measurement actively, paying for labels
only on pool points. The final section shows the label bill of the
composition route staying flat while the interval budget grows 16-fold.
"""

import numpy as np

from activetest import (
    Distribution,
    LabelOracle,
    TargetFunction,
    exact_distance_to_intervals,
    grid_interval_sample,
    interval_da,
    interval_da_plan,
    interval_error_curve,
    noisy_interval_target,
)


def exact_section():
    target = noisy_interval_target(3, flips=True)
    sample = grid_interval_sample(target, grid_points=1200)
    alpha, witness = exact_distance_to_intervals(sample, 3)
    print("exact distance to <=3 intervals:", f"{alpha:.4f}")
    print("witness intervals:")
    for lo, hi in witness.intervals:
        print(f"  [{lo:.4f}, {hi:.4f}]")

    curve = interval_error_curve(sample.points, sample.weights, sample.labels, 8)
    print("\ndisagreement weight by interval budget k:")
    for k, value in enumerate(curve):
        bar = "#" * int(round(40 * value))
        print(f"  k={k}  {value:.4f} {bar}")
    return target, alpha


def active_section(target, alpha):
    dist = Distribution.uniform01()
    oracle = LabelOracle(target)
    result = interval_da(dist, oracle, eps=0.2, d=3, seed=7)
    print("\nactive estimate at eps=0.2, d=3 (agnostic route):")
    print(f"  estimate={result.value:.4f}  grid truth={alpha:.4f}")
    print(f"  labels spent={result.queries_used}  unlabeled draws={result.unlabeled_used}")
    print(f"  witness intervals returned: {len(result.witness)}")


def flat_budget_section():
    print("\ncomposition-route label plan (eps=0.3), budget d sweeping:")
    print(f"  {'d':>6} {'blocks':>7} {'labels':>7}")
    for d in (200, 800, 3200):
        plan = interval_da_plan(0.3, d)
        labels = plan["erm_samples"] * plan["repetitions"]
        print(f"  {d:>6} {plan['m']:>7} {labels:>7}")
    print("  the label column is determined by eps alone")


def budget_enforcement_section():
    target = noisy_interval_target(2, flips=False)
    oracle = LabelOracle(target, budget=10)
    try:
        interval_da(Distribution.uniform01(), oracle, eps=0.2, d=2, seed=3)
    except Exception as exc:
        print(f"\nwith a 10-label budget the run aborts: {type(exc).__name__}: {exc}")
        print(f"labels charged before the stop: {oracle.used} (failed batches charge nothing)")


def main():
    target, alpha = exact_section()
    active_section(target, alpha)
    flat_budget_section()
    budget_enforcement_section()


if __name__ == "__main__":
    main()
