"""Walk through the noise-tradeoff surface for asymmetric Gaussian cloning.

A profile (n_1, ..., n_M) of added thermal noises is optimal exactly when
(sum sqrt(n_k))^2 = (M - N)(n_tot + 1).  This script completes partial
profiles to the surface, designs profiles from cost weights, and traces
the infinite-M partial-estimation limit.
"""

import numpy as np

from gaussclone import (
    InfeasibleDesignError,
    design_from_weights,
    estimation_tradeoff,
    residual,
    solve_last_noise,
    symmetric_profile,
)


def main():
    print("== symmetric designs ==")
    for n, m in [(1, 2), (1, 3), (2, 3), (3, 5)]:
        p = symmetric_profile(n, m)
        print(
            f"  {n}->{m}: n = {p.noises[0]:.6f}, F = {p.fidelities()[0]:.6f}, "
            f"surface residual = {residual(p):.2e}"
        )

    print("\n== completing a partial profile ==")
    print("  1->2 with n_1 = 0.25 gives n_2 =", solve_last_noise([0.25], 1, 2))
    print("  1->3 with n_1 = n_2 = 0.5 gives n_3 =", solve_last_noise([0.5, 0.5], 1, 3))
    try:
        solve_last_noise([0.1, 0.1], 1, 3)
    except InfeasibleDesignError as exc:
        print("  1->3 with n_1 = n_2 = 0.1 is infeasible:", exc)

    print("\n== designing from cost weights ==")
    for weights in ([1.0, 1.0], [1.0, 4.0], [1.0, 10.0]):
        p, _ = design_from_weights(weights, 1, 2)
        print(
            f"  weights {weights}: noises = {np.round(p.noises, 6)}, "
            f"fidelities = {np.round(p.fidelities(), 6)}"
        )

    print("\n== quantum copy vs classical estimate ==")
    print("  n_F      n_G       F        G")
    for n_f in (0.1, 0.5, 1.0, 2.0, 10.0):
        pt = estimation_tradeoff(n_f)
        print(
            f"  {pt.n_f:<8.3f} {pt.n_g:<9.4f} "
            f"{pt.fidelity_quantum:<8.4f} {pt.fidelity_estimate:.4f}"
        )
    print("  (n_F = n_G = 1 is the self-dual point: F = G = 1/2)")


if __name__ == "__main__":
    main()
