"""Synthesize both physical realizations of an asymmetric cloner and show
they implement the same Gaussian channel.

The amplifier scheme taps the input, amplifies with a phase-insensitive
gain, and distributes through an M-mode interferometer.  The feedforward
scheme replaces the amplifier with a heterodyne measurement on the tap and
conditional displacements on the outputs.
"""

import numpy as np

from gaussclone import (
    NoiseProfile,
    amplifier_output_state,
    build_interferometer,
    channel_from_amplifier,
    clone_marginal,
    feedforward_params,
    gain_and_transmittance,
    mode_amplitudes,
    scheme_equivalence_check,
    verify_circuit,
)


def main():
    profile = NoiseProfile(1, 2, np.array([0.25, 1.0]))
    print("profile: 1->2 with noises", profile.noises, "fidelities", np.round(profile.fidelities(), 4))

    g, t = gain_and_transmittance(profile)
    print(f"\n== amplifier scheme ==\n  gain g = {g:.6f}, tap transmittance t = {t:.6f}")
    circ = build_interferometer(profile)
    print("  interferometer V =")
    print(np.array2string(circ.V, precision=6))
    ch = channel_from_amplifier(circ, profile)
    print("  channel noise matrix G (x block) =")
    print(np.array2string(ch.G[:2, :2], precision=6))

    out = amplifier_output_state(circ, profile, 0.7 + 0.2j)
    print("\n  clone amplitudes for input alpha = 0.7+0.2j:", np.round(mode_amplitudes(out), 10))
    for j in range(2):
        marg = clone_marginal(out, j)
        print(f"  clone {j}: thermal noise {marg.thermal_noise:.6f} (target {profile.noises[j]})")

    ff = feedforward_params(profile)
    print("\n== feedforward scheme ==")
    print(f"  tap reflectance = {ff.r_tap:.6f}")
    print("  displacement gains =", np.round(ff.gains, 6))
    print("  splitting reflectances =", np.round(ff.reflectances, 6))

    report = scheme_equivalence_check(profile)
    print("\n== equivalence ==")
    print(f"  output-state discrepancy = {report['discrepancy']:.3e}  passed = {report['passed']}")

    print("\n== invariant checks ==")
    for scheme in ("amplifier", "feedforward"):
        _, checks = verify_circuit(profile, scheme)
        print(f"  {scheme}:")
        for key, value in checks.items():
            print(f"    {key:24s} {value}")


if __name__ == "__main__":
    main()
