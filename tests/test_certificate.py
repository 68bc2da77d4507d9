import tracemalloc

import numpy as np
import pytest

from gaussclone import (
    CostWeights,
    NoiseProfile,
    build_certificate,
    build_problem,
    design_from_weights,
    random_feasible_cost_scan,
    symmetric_profile,
    verify_certificate,
    weights_from_profile,
)
from gaussclone import certificate
from gaussclone.certificate import extremal_equation_residual, matrix_cost

from conftest import random_optimal_profile


def block_diagonalize_unitary(m):
    """Unitary U = (1/sqrt 2) [[I, iI], [iI, I]] that block-diagonalizes the
    certificate algebra."""
    eye = np.eye(m)
    return np.block([[eye, 1j * eye], [1j * eye, eye]]) / np.sqrt(2)


def solved_instance(weights_values, n, m):
    w = CostWeights(np.asarray(weights_values, dtype=float))
    profile = design_from_weights(w, n, m)
    problem = build_problem(profile, w)
    return problem, build_certificate(problem)


def test_a_opt_psd_symmetric():
    problem, _ = solved_instance([1.0, 1.0], 1, 2)
    eigs = np.linalg.eigvalsh(problem.A_opt)
    assert eigs[0] > -1e-10
    assert abs(eigs[0]) < 1e-10  # boundary of the CP cone


def test_a_opt_block_diagonalization():
    rng = np.random.default_rng(31)
    for _ in range(10):
        profile, w = random_optimal_profile(rng, m_max=6)
        problem = build_problem(profile, w)
        m, n = profile.m_out, profile.n_in
        u = block_diagonalize_unitary(m)
        f, h = problem.F_mat, problem.H_mat
        target = np.zeros((2 * m, 2 * m), dtype=complex)
        target[:m, :m] = 2 * f + 2 * np.eye(m) - 2 * h / n
        target[m:, m:] = 2 * f
        assert np.max(np.abs(u @ problem.A_opt @ u.conj().T - target)) < 1e-10


def test_noise_gram_always_psd():
    rng = np.random.default_rng(32)
    for _ in range(10):
        m = int(rng.integers(2, 7))
        profile = NoiseProfile(1, m, rng.uniform(0, 3, m))
        f = np.outer(np.sqrt(profile.noises), np.sqrt(profile.noises))
        assert np.linalg.eigvalsh(f)[0] > -1e-12


def test_certificate_symmetric_1_to_2():
    problem, cert = solved_instance([1.0, 1.0], 1, 2)
    assert cert.lam == pytest.approx(-1.0, abs=1e-10)
    assert cert.eta == pytest.approx(-1.0, abs=1e-10)
    assert np.allclose(cert.Y, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-10)
    assert np.linalg.eigvalsh(cert.Z)[0] > -1e-10
    # multiplier normalization: eta Tr[X^1/2 F X^1/2] = -n_tot = -1
    assert cert.eta * np.trace(problem.F_mat) == pytest.approx(-1.0, abs=1e-12)


def test_phi_is_rank_one_projector():
    rng = np.random.default_rng(33)
    for _ in range(10):
        profile, w = random_optimal_profile(rng, m_max=6)
        problem = build_problem(profile, w)
        cert = build_certificate(problem)
        xh = np.diag(np.sqrt(w.weights))
        phi = -cert.eta * (xh @ problem.F_mat @ xh)
        assert np.max(np.abs(phi @ phi - phi)) < 1e-9


def test_verify_certificate_symmetric():
    problem, cert = solved_instance([1.0, 1.0], 1, 2)
    report = verify_certificate(problem, cert)
    assert report["passed"]
    assert report["duality_gap"] < 1e-10


def test_verify_certificate_random_suite():
    rng = np.random.default_rng(34)
    for _ in range(25):
        profile, w = random_optimal_profile(rng, m_max=5)
        problem = build_problem(profile, w)
        cert = build_certificate(problem)
        report = verify_certificate(problem, cert)
        assert report["passed"], report
        assert extremal_equation_residual(profile, w) < 1e-8


def test_extremal_simplification_identity():
    # X F (I - (M-N)^-1 H) = (1 / (lam (M-N))) X F X on solved designs
    rng = np.random.default_rng(35)
    for _ in range(10):
        profile, w = random_optimal_profile(rng, m_max=5)
        problem = build_problem(profile, w)
        m, n = profile.m_out, profile.n_in
        x = np.diag(w.weights)
        lhs = x @ problem.F_mat @ (np.eye(m) - problem.H_mat / (m - n))
        rhs = x @ problem.F_mat @ x / (w.lagrange * (m - n))
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(1.0, np.max(np.abs(rhs)))


def test_certificate_block_diagonalization():
    rng = np.random.default_rng(36)
    for _ in range(10):
        profile, w = random_optimal_profile(rng, m_max=5)
        problem = build_problem(profile, w)
        cert = build_certificate(problem)
        m = profile.m_out
        inv_xh = np.diag(1 / np.sqrt(w.weights))
        v = np.zeros((2 * m, 2 * m))
        v[:m, :m] = inv_xh
        v[m:, m:] = inv_xh
        z_tilde = v @ cert.Z @ v.conj().T
        u = block_diagonalize_unitary(m)
        bd = u @ z_tilde @ u.conj().T
        xh = np.diag(np.sqrt(w.weights))
        phi = -cert.eta * (xh @ problem.F_mat @ xh)
        target = np.zeros((2 * m, 2 * m), dtype=complex)
        target[:m, :m] = 2 * phi
        target[m:, m:] = 2 * np.eye(m) - 2 * phi
        assert np.max(np.abs(bd - target)) < 1e-9
        assert np.linalg.eigvalsh(target[:m, :m])[0] > -1e-9
        assert np.linalg.eigvalsh(target[m:, m:])[0] > -1e-9


def test_perturbed_g_stays_above_bound():
    rng = np.random.default_rng(37)
    problem, cert = solved_instance([1.0, 1.0], 1, 2)
    for _ in range(20):
        w = rng.standard_normal((4, 4))
        delta = 1e-3 * (w @ w.T)
        g = problem.G_opt + delta
        pairing = np.real(np.trace(cert.Z @ (g + 1j * problem.K)))
        assert pairing >= -1e-9
        assert matrix_cost(g, problem.weights) >= cert.dual_bound - 1e-12


def test_random_feasible_scan():
    rng = np.random.default_rng(38)
    problem, cert = solved_instance([1.0, 1.0], 1, 2)
    report = random_feasible_cost_scan(problem, cert, 10**4, rng)
    assert report["passed"]
    assert report["min_cost"] >= cert.dual_bound - 1e-9
    assert report["min_dual_pairing"] >= -1e-9
    # G_opt itself saturates the bound
    assert matrix_cost(problem.G_opt, problem.weights) == pytest.approx(
        cert.dual_bound, abs=1e-10
    )


def _loop_scan(problem, cert, trials, rng):
    """Trial-by-trial dense scan, the reference for the stacked one."""
    d = problem.G_opt.shape[0]
    min_cost = np.inf
    min_dual_pairing = np.inf
    for trial in range(trials):
        if trial % 2 == 0:
            w = rng.standard_normal((d, d))
            g = problem.G_opt + (w @ w.T) * rng.uniform(0.0, 1.0) / d
        else:
            q = rng.standard_normal((d, d))
            q = (q + q.T) * rng.uniform(0.5, 3.0)
            mu = float(np.linalg.eigvalsh(q + 1j * problem.K)[0])
            g = q + max(0.0, -mu) * np.eye(d)
        cost = matrix_cost(g, problem.weights)
        pairing = float(np.real(np.trace(cert.Z @ (g + 1j * problem.K))))
        min_cost = min(min_cost, cost)
        min_dual_pairing = min(min_dual_pairing, pairing)
    return min_cost, min_dual_pairing


# block sizes: 3 trials for M <= 8, so blocks start on both parities and the
# last one is short; 1 trial at M = 30; and the default constant at M = 8
@pytest.mark.parametrize(
    "m_out, block_values",
    [(2, 3 * 4**2), (5, 3 * 10**2), (8, 3 * 16**2), (30, 60**2), (8, None)],
)
def test_scan_matches_loop_oracle(monkeypatch, m_out, block_values):
    rng = np.random.default_rng(40 + m_out)
    problem, cert = solved_instance(rng.uniform(0.1, 10.0, m_out), 1, m_out)
    if block_values is not None:
        monkeypatch.setattr(certificate, "SCAN_BLOCK_VALUES", block_values)
    # every short prefix too, so that a trial evaluated as the wrong family
    # shows up in a minimum
    for trials in (*range(1, 14), 101 if block_values else 1001):
        rng_loop, rng_scan = np.random.default_rng(7), np.random.default_rng(7)
        min_cost, min_dual_pairing = _loop_scan(problem, cert, trials, rng_loop)
        report = random_feasible_cost_scan(problem, cert, trials, rng_scan)
        assert rng_scan.bit_generator.state == rng_loop.bit_generator.state
        assert report["trials"] == trials
        assert report["min_cost"] == pytest.approx(min_cost, rel=1e-12)
        # the pairing is a difference of terms of size |dual_bound| that
        # cancel to within a few percent, so both sides carry rounding of
        # that size
        assert report["min_dual_pairing"] == pytest.approx(
            min_dual_pairing, rel=1e-12, abs=1e-12 * abs(cert.dual_bound)
        )


def test_scan_memory_does_not_grow_with_trials():
    problem, cert = solved_instance(np.linspace(1.0, 8.0, 8), 1, 8)
    peaks = []
    for trials in (10**3, 10**4):
        tracemalloc.start()
        try:
            random_feasible_cost_scan(problem, cert, trials, np.random.default_rng(9))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_scan_rejects_zero_trials():
    problem, cert = solved_instance([1.0, 1.0], 1, 2)
    with pytest.raises(ValueError):
        random_feasible_cost_scan(problem, cert, 0, np.random.default_rng(0))


def test_dual_scale_covariance():
    # scaling all weights leaves the design unchanged and scales the bound
    rng = np.random.default_rng(39)
    x = rng.uniform(0.1, 10.0, 3)
    for c in (0.5, 3.0):
        w1 = CostWeights(x.copy())
        w2 = CostWeights(c * x)
        p1 = design_from_weights(w1, 1, 3)
        p2 = design_from_weights(w2, 1, 3)
        assert np.allclose(p1.noises, p2.noises, atol=1e-9)
        c1 = build_certificate(build_problem(p1, w1))
        c2 = build_certificate(build_problem(p2, w2))
        assert c2.dual_bound == pytest.approx(c * c1.dual_bound, rel=1e-9)


def test_weights_from_profile_roundtrip():
    profile = symmetric_profile(2, 4)
    w = weights_from_profile(profile)
    assert np.all(w.weights > 0)
    problem = build_problem(profile, w)
    cert = build_certificate(problem)
    assert verify_certificate(problem, cert)["passed"]


def test_build_certificate_requires_solved_multiplier():
    profile = symmetric_profile(1, 2)
    w = CostWeights(np.array([1.0, 1.0]))  # no multiplier attached
    problem = build_problem(profile, w)
    with pytest.raises(ValueError):
        build_certificate(problem)


def test_build_problem_rejects_off_surface():
    w = CostWeights(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        build_problem(NoiseProfile(1, 2, np.array([0.5, 1.0])), w)
