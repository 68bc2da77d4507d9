"""Certify optimality of a designed cloner through the semidefinite dual.

For a designed profile with cost weights x, the witness matrix Z is PSD,
annihilates the complete-positivity matrix G_opt + iK, and its pairing
-i Tr[Z K] equals the achieved cost, which closes the duality gap.  A
random scan over feasible noise matrices shows none undercuts the bound.
"""

import numpy as np

from gaussclone import (
    build_certificate,
    build_problem,
    design_from_weights,
    random_feasible_cost_scan,
    verify_certificate,
)


def main():
    profile, weights = design_from_weights(np.array([1.0, 2.0, 5.0]), 1, 3)
    print("designed 1->3 noises:", np.round(profile.noises, 6))
    print("lagrange multiplier: ", weights.lagrange)

    problem = build_problem(profile, weights)
    cert = build_certificate(problem)
    print(f"\ndual bound on the matrix cost: {cert.dual_bound:.10f}")

    report = verify_certificate(problem, cert)
    print(f"min eigenvalue of Z:           {report['min_eig_z']:.3e}")
    print("\ncertificate report:")
    for key in (
        "trace_cost_discrepancy",
        "z_annihilates_a_rel",
        "duality_gap",
        "normalization_residual",
    ):
        print(f"  {key:26s} {report[key]:.3e}")
    print("  passed:", report["passed"])

    scan = random_feasible_cost_scan(problem, cert, 5000, np.random.default_rng(0))
    print("\nrandom feasible scan (5000 samples):")
    print(f"  min sampled cost   = {scan['min_cost']:.10f}")
    print(f"  dual bound         = {cert.dual_bound:.10f}")
    print(f"  margin above bound = {scan['min_cost'] - cert.dual_bound:.3e}")
    print("  passed:", scan["passed"])


if __name__ == "__main__":
    main()
