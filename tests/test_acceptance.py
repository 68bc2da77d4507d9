"""End-to-end acceptance checks with pinned tolerances.

Each test prints one pass/fail line; the full set is echoed again in the
terminal summary.  These run against headline analytic values, so every
tolerance here is deliberate and should not be loosened.
"""

import numpy as np

from gaussclone import (
    NoiseProfile,
    SimConfig,
    amplifier_output_state,
    build_certificate,
    build_interferometer,
    build_problem,
    channel_from_amplifier,
    clone_output_cov,
    coherent_state,
    design_from_weights,
    estimation_tradeoff,
    g_opt_matrix,
    mode_amplitudes,
    random_feasible_cost_scan,
    residual,
    run,
    scheme_equivalence_check,
    solve_last_noise,
    symmetric_profile,
    verify_certificate,
)
from gaussclone.circuits import noise_gram_matrix

from conftest import a_opt_matrix, acceptance_lines, random_optimal_profile


def record(num, label, ok):
    line = f"criterion {num:2d}: {label}: {'PASS' if ok else 'FAIL'}"
    print(line)
    acceptance_lines.append(line)
    assert ok, line


def shared_profiles(count=200, m_max=8, seed=100):
    rng = np.random.default_rng(seed)
    return [random_optimal_profile(rng, m_max=m_max)[0] for _ in range(count)]


PROFILES_200 = shared_profiles()


def test_criterion_1_one_to_two_noise_product():
    ok = abs(solve_last_noise([0.5], 1, 2) - 0.5) < 1e-12
    rng = np.random.default_rng(101)
    for n1 in rng.uniform(1e-3, 10.0, 10):
        n2 = solve_last_noise([float(n1)], 1, 2)
        ok = ok and abs(n1 * n2 - 0.25) < 1e-12
    record(1, "1->2 tradeoff n_1 n_2 = 1/4", ok)


def test_criterion_2_third_clone_completion():
    ok = abs(solve_last_noise([0.5, 0.5], 1, 3) - 2.0) < 1e-12
    record(2, "completion of (1/2, 1/2) to M=3 gives n_3 = 2", ok)


def test_criterion_3_symmetric_designs():
    ok = abs(symmetric_profile(1, 2).fidelities()[0] - 2 / 3) < 1e-12
    for m in range(2, 11):
        for n in range(1, m):
            p = symmetric_profile(n, m)
            ok = ok and np.max(np.abs(p.noises - (m - n) / (m * n))) < 1e-12
            ok = ok and abs(residual(p)) < 1e-12
    record(3, "symmetric designs: F = 2/3 at 1->2, n = (M-N)/(MN) up to M=10", ok)


def test_criterion_4_estimation_tradeoff():
    ok = True
    for n_f in np.geomspace(1e-2, 1e2, 100):
        pt = estimation_tradeoff(float(n_f))
        ok = ok and abs(pt.n_g - (n_f + 1) ** 2 / (4 * n_f)) < 1e-12
        f = pt.fidelity_quantum
        ok = ok and abs(pt.fidelity_estimate - 4 * f * (1 - f) / (4 * f * (1 - f) + 1)) < 1e-12
    ok = ok and abs(estimation_tradeoff(1.0).n_g - 1.0) < 1e-12
    # finite-M approach: with M-1 equal classical clones the optimal last
    # noise lands back on the curve (the branch with n_F <= 1 is optimal)
    for n_f in (0.3, 0.5):
        n_g = estimation_tradeoff(n_f).n_g
        m = 10**4
        recovered = solve_last_noise(np.full(m - 1, n_g), 1, m)
        ok = ok and abs(recovered - n_f) < 1e-3
        ok = ok and abs((recovered + 1) ** 2 / (4 * recovered) - n_g) < 1e-3
    record(4, "estimation tradeoff curve and M -> infinity limit", ok)


def test_criterion_5_amplifier_circuit_correctness():
    rng = np.random.default_rng(105)
    ok = True
    for i, profile in enumerate(PROFILES_200):
        m, n = profile.m_out, profile.n_in
        circ = build_interferometer(profile)
        ok = ok and np.max(np.abs(circ.V.T @ circ.V - np.eye(m))) < 1e-10
        ch = channel_from_amplifier(circ, profile)
        s_expected = np.zeros((2 * m, 2))
        s_expected[:m, 0] = 1 / np.sqrt(n)
        s_expected[m:, 1] = 1 / np.sqrt(n)
        ok = ok and np.max(np.abs(ch.S - s_expected)) < 1e-10
        ok = ok and np.max(np.abs(ch.G - g_opt_matrix(profile))) < 1e-10
        n_alphas = 20 if i == 0 else 1
        for _ in range(n_alphas):
            alpha = complex(rng.normal(), rng.normal())
            out = amplifier_output_state(circ, profile, alpha)
            ok = ok and np.max(np.abs(mode_amplitudes(out) - alpha)) < 1e-10
    record(5, "amplifier scheme reproduces the optimal channel on 200 profiles", ok)


def test_criterion_6_scheme_equivalence():
    # the absolute 1e-9 holds at M <= 8, where the discrepancy's terms have
    # size about 2 n_tot <= 2M / N; test_verify_circuit_accuracy_at_large_m
    # checks it against that size at M = 10^4 and 10^5
    ok = True
    for profile in PROFILES_200:
        ok = ok and scheme_equivalence_check(profile)["discrepancy"] < 1e-9
    record(6, "amplifier and feedforward outputs agree on 200 profiles", ok)


def test_criterion_7_complete_positivity():
    ok = True
    for profile in PROFILES_200:
        ok = ok and np.linalg.eigvalsh(a_opt_matrix(profile))[0] >= -1e-10
    # scaling the noises moves the residual linearly: residual(c n) = (c-1)(M-N)
    for profile in PROFILES_200[:50]:
        m, n = profile.m_out, profile.n_in
        for sign, bound in ((-1, "infeasible"), (+1, "feasible")):
            c = 1.0 + sign * 0.05 / (m - n)
            perturbed = NoiseProfile(n, m, c * profile.noises)
            assert abs(residual(perturbed) - sign * 0.05) < 1e-9
            min_eig = np.linalg.eigvalsh(a_opt_matrix(perturbed))[0]
            if sign < 0:
                ok = ok and min_eig < -1e-4
            else:
                ok = ok and min_eig >= -1e-10
    record(7, "CP matrix PSD on the surface, indefinite off the infeasible side", ok)


def test_criterion_8_certificate_suite():
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(100):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, m))
        profile, weights = design_from_weights(rng.uniform(0.1, 10.0, m), n, m)
        problem = build_problem(profile, weights)
        cert = build_certificate(problem)
        report = verify_certificate(problem, cert)
        z_scale = max(1.0, float(np.max(np.abs(cert.Z))))
        ok = ok and report["min_eig_z"] >= -1e-9 * z_scale
        ok = ok and report["z_annihilates_a_rel"] < 1e-9
        ok = ok and report["duality_gap"] < 1e-9 * max(1.0, abs(report["matrix_cost"]))
        ok = ok and report["normalization_residual"] < 1e-9
        scan = random_feasible_cost_scan(problem, cert, 10**3, rng)
        ok = ok and scan["min_cost"] >= cert.dual_bound - 1e-9
    record(8, "dual certificate verified on 100 random weighted instances", ok)


def test_criterion_9_monte_carlo():
    profile = symmetric_profile(1, 2)
    alpha = 0.8 - 0.3j
    config = SimConfig(profile=profile, alpha=alpha, shots=10**6, seed=2024, shards=4)
    result = run(config)
    target = clone_output_cov(profile)
    ok = bool(np.allclose(np.diag(target), 2.0) and np.allclose(target[0, 1], 1.0))
    ok = ok and np.max(np.abs(result.clone_cov - target) / result.cov_se) < 5.0
    mean_quads = np.concatenate(
        [np.sqrt(2) * result.clone_means.real, np.sqrt(2) * result.clone_means.imag]
    )
    target_mean = coherent_state([alpha, alpha]).mean
    ok = ok and np.max(np.abs(mean_quads - target_mean) / result.mean_se) < 5.0
    repeat = run(config)
    ok = ok and np.array_equal(repeat.clone_cov, result.clone_cov)
    ok = ok and np.array_equal(repeat.clone_means, result.clone_means)
    record(9, "10^6-shot Monte Carlo matches the symmetric 1->2 statistics", ok)


def test_criterion_10_surface_matrix_singularity():
    rng = np.random.default_rng(110)
    ok = True
    for _ in range(1000):
        if rng.random() < 0.5:
            profile, _ = random_optimal_profile(rng, m_max=6)
            on_surface = True
        else:
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, m))
            profile = NoiseProfile(n, m, rng.uniform(0.05, 3.0, m))
            if abs(residual(profile)) < 0.01:
                continue
            on_surface = False
        m, n = profile.m_out, profile.n_in
        mat = np.eye(m) - np.ones((m, m)) / n + noise_gram_matrix(profile)
        min_abs_eig = np.min(np.abs(np.linalg.eigvalsh(mat)))
        ok = ok and (min_abs_eig < 1e-9) == on_surface
    record(10, "noise surface coincides with singularity of I - H/N + F", ok)
