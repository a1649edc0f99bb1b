"""Loss estimation for k-NN predictors with label queries on demand.

The instance is a noisy threshold on the line: the pool's left half leans
toward label 0 and the right half toward 1, with a band of exceptions in the
middle. Every estimator touches only a budgeted number of labels, and each
estimate is printed next to the exact value computed by full enumeration.
"""

import numpy as np

from activetest import (
    KnnInstance,
    MetricSpace,
    TargetFunction,
    best_k,
    best_k_grid,
    estimate_hard_error,
    estimate_soft_loss_pth,
    estimate_weighted_nn_loss,
    exact_hard_error,
    exact_soft_loss,
    exact_weighted_nn_loss,
    id_distribution,
    loss_stability_bound,
)


def build_instance(n=400, seed=5):
    # pool and test interleave along the line so neighbors stay informative
    rng = np.random.default_rng(seed)
    coords = np.sort(rng.random(n))
    labels = (coords > 0.5).astype(np.int8)
    band = (coords > 0.35) & (coords < 0.65)
    labels[band] = rng.integers(0, 2, band.sum()).astype(np.int8)
    inst = KnnInstance(
        MetricSpace.euclidean1d(coords),
        pool=np.arange(0, n, 2),
        oracle=TargetFunction.from_labels(labels),
    )
    test = id_distribution(np.arange(1, n, 2))
    return inst, test


def soft_and_hard_section(inst, test):
    k, p, eps = 15, 2, 0.1
    soft = estimate_soft_loss_pth(inst, test, k, p, eps, seed=21)
    truth = exact_soft_loss(inst, test, k, p)
    print(f"soft k-NN loss (k={k}, p={p}):")
    print(f"  estimate={soft.value:.4f}  exact={truth:.4f}  labels={soft.queries_used}")

    hard = estimate_hard_error(inst, test, k, eps, seed=22)
    htruth = exact_hard_error(inst, test, k)
    print(f"hard k-NN error (k={k}):")
    print(f"  estimate={hard.value:.4f}  exact={htruth:.4f}  labels={hard.queries_used}")


def weighted_section(inst, test):
    # weight pool points by an exponential kernel of their distance
    def kernel(dist_row):
        return np.exp(-40.0 * dist_row)

    est = estimate_weighted_nn_loss(inst, kernel, test, 1, eps=0.1, seed=23)
    truth = exact_weighted_nn_loss(inst, kernel, test, 1)
    print("kernel-weighted neighbor loss (exp(-40 d) sampling weights):")
    print(f"  estimate={est.value:.4f}  exact={truth:.4f}  labels={est.queries_used}")


def best_k_section(inst, test):
    p, eps = 1, 0.2
    grid = best_k_grid(inst.size, p, eps)
    chosen, table = best_k(inst, test, p, eps, seed=24)
    print(f"neighbor-count search over a {len(grid)}-point grid:")
    shown = [row for row in table if row[0] <= 8 or row[0] == chosen]
    shown += table[-3:]
    for k, value in shown:
        marker = " <- chosen" if k == chosen else ""
        print(f"  k={k:>3}  estimated loss={value:.4f}{marker}")
    print(f"  ... ({len(table) - len(shown)} grid rows elided)")
    exact = {k: exact_soft_loss(inst, test, k, p) for k, _ in table}
    best_exact = min(exact.values())
    print(f"  exact loss at chosen k: {exact[chosen]:.4f}  best on grid: {best_exact:.4f}")
    print(
        "  skipping k=20 for k=21 can cost at most"
        f" {loss_stability_bound(p, 20, 21):.4f} loss, so the sparse grid is safe"
    )


def main():
    inst, test = build_instance()
    soft_and_hard_section(inst, test)
    weighted_section(inst, test)
    best_k_section(inst, test)
    print(f"\ntotal labels charged to the oracle: {inst.oracle.used}")


if __name__ == "__main__":
    main()
