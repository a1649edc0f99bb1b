"""Good-arm fraction estimation and the star-geometry reduction to k-NN.

The first half treats the bandit problem directly: arms are biased coins at
0.5 +/- gamma, and the estimator has to report the fraction leaning high.
The second half embeds the same arms into a metric space of stars. Each
arm's pulls label the centers of one star, the leaves are labeled 0, and the
hard k-NN error of the resulting instance encodes the good-arm fraction, so
a generic error estimator becomes an arm auditor.
"""

import numpy as np

from activetest import (
    ArmSet,
    KnnInstance,
    LabelOracle,
    TargetFunction,
    aga_schedule,
    build_star_instance_hard,
    estimate_hard_error,
    id_distribution,
    natural_aga,
    recover_good_fraction,
    star_exact_hard_error,
    star_instance_from_json,
    star_instance_to_json,
    star_metadata,
)


def direct_section():
    gamma, eps = 0.25, 0.1
    means = np.where(np.arange(12) < 7, 0.5 + gamma, 0.5 - gamma)
    s, q = aga_schedule(eps, gamma)
    out = natural_aga(ArmSet(means, gamma=gamma), gamma, eps, seed=31)
    print("direct estimate of the good-arm fraction (12 arms, 7 good):")
    print(f"  schedule: {s} sampled arms x {q} pulls each = {s * q} pulls")
    print(f"  estimate={out.value:.4f}  truth={7 / 12:.4f}  pulls billed={out.queries_used}")


def reduction_section():
    # fresh 8-arm pack: 4 good at 0.8, 4 bad at 0.2, gap 0.3
    gamma, k, eps = 0.3, 5, 0.15
    means = np.where(np.arange(8) < 4, 0.5 + gamma, 0.5 - gamma)
    si = build_star_instance_hard(len(means), means, k, eps, (1.5, 0.01), seed=32)
    meta = star_metadata(si)
    print("\nstar embedding of an 8-arm pack (half good at gap 0.3):")
    print(
        f"  {meta['n']} stars, {meta['m']} centers each, leaf multiplier {meta['b']},"
        f" pool size {meta['N']}, {si.instance.space.n} points total"
    )

    exact = star_exact_hard_error(si, k)
    print(f"  exact hard {k}-NN error: {exact:.4f}")
    print(f"  fraction recovered from it: {recover_good_fraction(exact, si.b):.4f}")

    inst = KnnInstance(
        si.instance.space, si.instance.pool, LabelOracle(TargetFunction.from_labels(si.labels))
    )
    test = id_distribution(np.arange(si.instance.space.n))
    est = estimate_hard_error(inst, test, k, eps, seed=33)
    recovered = recover_good_fraction(est.value, si.b)
    print(f"  sampled error={est.value:.4f} using {est.queries_used} labels")
    print(f"  recovered fraction={recovered:.4f}  truth=0.5000")
    return si


def serialization_section(si):
    text = star_instance_to_json(si)
    back = star_instance_from_json(text)
    same = np.array_equal(back.labels, si.labels) and back.N == si.N
    print("\nserialization:")
    print(f"  JSON payload: {len(text)} bytes; round trip intact: {same}")


def main():
    direct_section()
    si = reduction_section()
    serialization_section(si)


if __name__ == "__main__":
    main()
