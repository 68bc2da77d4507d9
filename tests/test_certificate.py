import dataclasses
import math
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
from gaussclone.certificate import CertifiedProblem, extremal_equation_residual, k_matrix
from gaussclone.circuits import g_opt_matrix, noise_gram_matrix

from conftest import a_opt_matrix, random_optimal_profile


def matrix_cost(g, weights):
    """Cost in the channel-matrix picture: sum x_j (G_jj + G_{M+j,M+j})."""
    m = weights.weights.size
    diag = np.diag(g)
    return float(weights.weights @ (diag[:m] + diag[m:]))


def _dense_report(profile, weights):
    """The certificate of `weights`, optimal or not, built and checked with
    dense 2M x 2M complex algebra: the reference for the closed forms.
    Returns the report values and max|Z|."""
    m, n = profile.m_out, profile.n_in
    g_opt, a_opt, k = g_opt_matrix(profile), a_opt_matrix(profile), k_matrix(n, m)
    f_mat = noise_gram_matrix(profile)
    eta = 1.0 / (weights.lagrange * (m - n))
    x = np.diag(weights.weights)
    y = -x - 2.0 * eta * (x @ f_mat @ x)
    z = np.block([[x, 1j * y], [-1j * y, x]])
    dual_bound = float(np.real(-1j * np.trace(z @ k)))
    cost = matrix_cost(g_opt, weights)
    z_scale = float(np.max(np.abs(z)))
    za = float(np.max(np.abs(z @ a_opt)))
    x_half = np.sqrt(weights.weights)
    return {
        "trace_cost_discrepancy": abs(float(np.real(np.trace(z @ g_opt))) - cost),
        "z_annihilates_a_rel": za / (z_scale * float(np.max(np.abs(a_opt)))),
        "min_eig_z": float(np.linalg.eigvalsh(z)[0]),
        "duality_gap": abs(cost - dual_bound),
        "normalization_residual": abs(eta * float(np.sum(x_half * f_mat.diagonal() * x_half)) + 1),
        "matrix_cost": cost,
        "dual_bound": dual_bound,
        "z_scale": z_scale,
    }


def block_diagonalize_unitary(m):
    """Unitary U = (1/sqrt 2) [[I, iI], [iI, I]] that block-diagonalizes the
    certificate algebra."""
    eye = np.eye(m)
    return np.block([[eye, 1j * eye], [1j * eye, eye]]) / np.sqrt(2)


def solved_instance(weights_values, n, m):
    problem = build_problem(*design_from_weights(weights_values, n, m))
    return problem, build_certificate(problem)


def test_a_opt_psd_symmetric():
    problem, _ = solved_instance([1.0, 1.0], 1, 2)
    eigs = np.linalg.eigvalsh(a_opt_matrix(problem.profile))
    assert eigs[0] > -1e-10
    assert abs(eigs[0]) < 1e-10  # boundary of the CP cone


def test_a_opt_block_diagonalization():
    rng = np.random.default_rng(31)
    for _ in range(10):
        profile, w = random_optimal_profile(rng, m_max=6)
        problem = build_problem(profile, w)
        m, n = profile.m_out, profile.n_in
        u = block_diagonalize_unitary(m)
        f, h = noise_gram_matrix(profile), np.ones((m, m))
        target = np.zeros((2 * m, 2 * m), dtype=complex)
        target[:m, :m] = 2 * f + 2 * np.eye(m) - 2 * h / n
        target[m:, m:] = 2 * f
        assert np.max(np.abs(u @ a_opt_matrix(profile) @ u.conj().T - target)) < 1e-10


def test_noise_gram_always_psd():
    rng = np.random.default_rng(32)
    for _ in range(10):
        m = int(rng.integers(2, 7))
        profile = NoiseProfile(1, m, rng.uniform(0, 3, m))
        f = np.outer(np.sqrt(profile.noises), np.sqrt(profile.noises))
        assert np.linalg.eigvalsh(f)[0] > -1e-12


def test_certificate_symmetric_1_to_2():
    problem, cert = solved_instance([1.0, 1.0], 1, 2)
    assert problem.weights.lagrange == pytest.approx(-1.0, abs=1e-10)
    assert cert.eta == pytest.approx(-1.0, abs=1e-10)
    z = cert.Z
    assert np.allclose(z[:2, 2:], 1j * np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-10)
    assert np.linalg.eigvalsh(z)[0] > -1e-10
    # multiplier normalization: eta Tr[X^1/2 F X^1/2] = -n_tot = -1
    f_mat = noise_gram_matrix(problem.profile)
    assert cert.eta * np.trace(f_mat) == pytest.approx(-1.0, abs=1e-12)


def test_phi_is_rank_one_projector():
    rng = np.random.default_rng(33)
    for _ in range(10):
        profile, w = random_optimal_profile(rng, m_max=6)
        problem = build_problem(profile, w)
        cert = build_certificate(problem)
        xh = np.diag(np.sqrt(w.weights))
        phi = -cert.eta * (xh @ noise_gram_matrix(profile) @ xh)
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
        f_mat = noise_gram_matrix(profile)
        lhs = x @ f_mat @ (np.eye(m) - np.ones((m, m)) / (m - n))
        rhs = x @ f_mat @ x / (w.lagrange * (m - n))
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
        phi = -cert.eta * (xh @ noise_gram_matrix(profile) @ xh)
        target = np.zeros((2 * m, 2 * m), dtype=complex)
        target[:m, :m] = 2 * phi
        target[m:, m:] = 2 * np.eye(m) - 2 * phi
        assert np.max(np.abs(bd - target)) < 1e-9
        assert np.linalg.eigvalsh(target[:m, :m])[0] > -1e-9
        assert np.linalg.eigvalsh(target[m:, m:])[0] > -1e-9


def test_perturbed_g_stays_above_bound():
    rng = np.random.default_rng(37)
    problem, cert = solved_instance([1.0, 1.0], 1, 2)
    g_opt, k = g_opt_matrix(problem.profile), k_matrix(1, 2)
    for _ in range(20):
        w = rng.standard_normal((4, 4))
        delta = 1e-3 * (w @ w.T)
        g = g_opt + delta
        pairing = np.real(np.trace(cert.Z @ (g + 1j * k)))
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
    assert matrix_cost(g_opt_matrix(problem.profile), problem.weights) == pytest.approx(
        cert.dual_bound, abs=1e-10
    )


def _loop_scan(problem, cert, trials, rng):
    """Trial-by-trial dense scan, the reference for the stacked one."""
    g_opt = g_opt_matrix(problem.profile)
    k = k_matrix(problem.profile.n_in, problem.profile.m_out)
    z = cert.Z
    d = g_opt.shape[0]
    min_cost = np.inf
    min_dual_pairing = np.inf
    for trial in range(trials):
        if trial % 2 == 0:
            w = rng.standard_normal((d, d))
            g = g_opt + (w @ w.T) * rng.uniform(0.0, 1.0) / d
        else:
            q = rng.standard_normal((d, d))
            q = (q + q.T) * rng.uniform(0.5, 3.0)
            mu = float(np.linalg.eigvalsh(q + 1j * k)[0])
            g = q + max(0.0, -mu) * np.eye(d)
        cost = matrix_cost(g, problem.weights)
        pairing = float(np.real(np.trace(z @ (g + 1j * k))))
        min_cost = min(min_cost, cost)
        min_dual_pairing = min(min_dual_pairing, pairing)
    return min_cost, min_dual_pairing


# block sizes: 3 trials for M <= 8, so blocks start on both parities and the
# last one is short; 1 trial at M = 30; and the default constant at M = 8;
# the last case puts one weight at 10^11.5, where costs reach 1e12
@pytest.mark.parametrize(
    "m_out, block_values, huge_weight",
    [
        pytest.param(2, 3 * 4**2, None, id="2-48"),
        pytest.param(5, 3 * 10**2, None, id="5-300"),
        pytest.param(8, 3 * 16**2, None, id="8-768"),
        pytest.param(30, 60**2, None, id="30-3600"),
        pytest.param(8, None, None, id="8-None"),
        pytest.param(5, 3 * 10**2, 10**11.5, id="5-300-huge"),
    ],
)
def test_scan_matches_loop_oracle(monkeypatch, m_out, block_values, huge_weight):
    rng = np.random.default_rng(40 + m_out)
    x = rng.uniform(0.1, 10.0, m_out)
    if huge_weight is not None:
        x[0] = huge_weight
    problem, cert = solved_instance(x, 1, m_out)
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


def count_eigensolves(monkeypatch):
    """Patch np.linalg.eigvalsh to record how many matrices it is given."""
    eigvalsh = np.linalg.eigvalsh
    solved = []

    def counting_eigvalsh(a, *args, **kwargs):
        solved.append(len(a) if a.ndim == 3 else 1)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return solved


def test_scan_skips_most_eigensolves_and_stays_exact(monkeypatch):
    problem, cert = solved_instance(np.random.default_rng(48).uniform(0.1, 10.0, 8), 1, 8)
    rng_loop, rng_scan = np.random.default_rng(11), np.random.default_rng(11)
    min_cost, _ = _loop_scan(problem, cert, 1000, rng_loop)
    solved = count_eigensolves(monkeypatch)
    report = random_feasible_cost_scan(problem, cert, 1000, rng_scan)
    # N = 1 gives the weakest bound (c = 0); of the 500 odd trials, few
    # come near the minimum
    assert sum(solved) < 50
    assert rng_scan.bit_generator.state == rng_loop.bit_generator.state
    assert report["min_cost"] == pytest.approx(min_cost, rel=1e-12)


class LoudEvenTrials:
    """A generator whose even trials draw normals 1000 times larger, so
    their costs dwarf the odd trials' and the odd trials set the minimum."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.trial = 0

    def standard_normal(self, size=None, out=None):
        z = self.rng.standard_normal(size, out=out)
        if self.trial % 2 == 0:
            z *= 1e3
        self.trial += 1
        return z

    def random(self):
        return self.rng.random()

    def uniform(self, low, high):
        return self.rng.uniform(low, high)


@pytest.mark.parametrize("n_in", [1, 3])
def test_scan_pruning_is_exact_when_odd_trials_set_the_minimum(monkeypatch, n_in):
    problem, cert = solved_instance(np.random.default_rng(5).uniform(0.1, 10.0, 5), n_in, 5)
    min_cost, _ = _loop_scan(problem, cert, 1000, LoudEvenTrials(1))
    solved = count_eigensolves(monkeypatch)
    report = random_feasible_cost_scan(problem, cert, 1000, LoudEvenTrials(1))
    # the first block's odd trials face only even costs and are all
    # solved; later blocks leave out some but not all
    assert 0 < sum(solved) < 500
    assert report["min_cost"] == pytest.approx(min_cost, rel=1e-12)


def test_a_fully_pruned_scan_never_builds_k(monkeypatch):
    """iK is built only for a block with an odd trial left after the prune:
    at N = 2, M = 8 none is left in 1000 trials; at N = 1, where the
    interlacing bound is weakest, some are."""
    weights = np.random.default_rng(48).uniform(0.1, 10.0, 8)
    instances = {n_in: solved_instance(weights, n_in, 8) for n_in in (1, 2)}
    pruned = random_feasible_cost_scan(*instances[2], 1000, np.random.default_rng(11))

    def no_k(*args):
        raise AssertionError("k_matrix was built")

    monkeypatch.setattr(certificate, "k_matrix", no_k)
    solved = count_eigensolves(monkeypatch)
    assert random_feasible_cost_scan(*instances[2], 1000, np.random.default_rng(11)) == pruned
    assert solved == []
    with pytest.raises(AssertionError, match="k_matrix was built"):
        random_feasible_cost_scan(*instances[1], 1000, np.random.default_rng(11))


def test_scan_fails_when_the_dual_bound_is_infinite():
    problem, cert = solved_instance([1.0, 2.0, 5.0], 1, 3)
    cert = dataclasses.replace(cert, dual_bound=math.inf)
    report = random_feasible_cost_scan(problem, cert, 20, np.random.default_rng(0))
    assert report["min_dual_pairing"] == -math.inf and report["passed"] is False


def test_scan_scales_are_the_uniform_draws():
    """The scan takes uniform(0, 1) and uniform(0.5, 3) as r and 0.5 + 2.5 r
    from random(): the same values and generator state."""
    rng_uniform, rng_random = np.random.default_rng(3), np.random.default_rng(3)
    for low, high in ((0.0, 1.0), (0.5, 3.0)):
        expected = [rng_uniform.uniform(low, high) for _ in range(10**4)]
        r = np.array([rng_random.random() for _ in range(10**4)])
        assert np.array_equal(low + (high - low) * r, expected)
    assert rng_random.bit_generator.state == rng_uniform.bit_generator.state


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
        p1, w1 = design_from_weights(x, 1, 3)
        p2, w2 = design_from_weights(c * x, 1, 3)
        assert np.allclose(p1.noises, p2.noises, atol=1e-9)
        c1 = build_certificate(build_problem(p1, w1))
        c2 = build_certificate(build_problem(p2, w2))
        assert c2.dual_bound == pytest.approx(c * c1.dual_bound, rel=1e-9)


def test_certificate_is_exact_under_a_power_of_two_scale_of_the_weights():
    # the products of two entries of v are taken on v times a power of two:
    # in raw units they overflowed to an infinite dual bound at 2^600
    rng = np.random.default_rng(40)
    for m, n in ((2, 1), (5, 2), (30, 3)):
        profile, w = design_from_weights(rng.uniform(0.1, 10.0, m), n, m)
        problem = build_problem(profile, w)
        cert = build_certificate(problem)
        report = verify_certificate(problem, cert)
        for j in (-600, -1, 1, 600):
            scaled = CostWeights(np.ldexp(w.weights, j), np.ldexp(w.lagrange, j))
            problem = build_problem(profile, scaled)
            cert_scaled = build_certificate(problem)
            assert cert_scaled.dual_bound == np.ldexp(cert.dual_bound, j)
            scaled_report = verify_certificate(problem, cert_scaled)
            assert scaled_report["passed"]
            assert scaled_report["z_annihilates_a_rel"] == report["z_annihilates_a_rel"]
            assert scaled_report["duality_gap"] == np.ldexp(report["duality_gap"], j)


@pytest.mark.parametrize("j", [-600, -200, -40, 0, 40, 600])
def test_verdicts_fail_a_wrong_certificate_at_every_weight_scale(j):
    # the extremality check, the duality gap, min_eig_z and the scan pairing
    # carry the size of the weights and are held to TOL in that size: with
    # an absolute floor of TOL, a halved dual bound, 1.001x non-extremal
    # weights and a scan against a doubled bound all passed from j = -40 down
    profile, w = design_from_weights(np.ldexp([1.0, 2.0, 5.0], j), 1, 3)
    problem = build_problem(profile, w)
    cert = build_certificate(problem)
    assert verify_certificate(problem, cert)["passed"]
    halved = dataclasses.replace(cert, dual_bound=cert.dual_bound / 2)
    assert not verify_certificate(problem, halved)["passed"]
    with pytest.raises(ValueError, match="not extremal"):
        build_problem(profile, CostWeights(w.weights * 1.001, w.lagrange))
    rng = np.random.default_rng(41)
    assert random_feasible_cost_scan(problem, cert, 20, rng)["passed"]
    doubled = dataclasses.replace(cert, dual_bound=cert.dual_bound * 2)
    assert not random_feasible_cost_scan(problem, doubled, 20, rng)["passed"]


def test_weights_from_profile_roundtrip():
    profile = symmetric_profile(2, 4)
    w = weights_from_profile(profile)
    assert np.all(w.weights > 0)
    problem = build_problem(profile, w)
    cert = build_certificate(problem)
    assert verify_certificate(problem, cert)["passed"]


def test_build_problem_rejects_off_surface():
    w = CostWeights(np.array([1.0, 1.0]), -1.0)
    with pytest.raises(ValueError):
        build_problem(NoiseProfile(1, 2, np.array([0.5, 1.0])), w)


def assert_matches_dense_oracle(problem, min_eig_rel=0.0):
    """Compare every report value with the dense oracle; `min_eig_rel`
    allows for the O(eps^2) error of the one Newton step off the optimum."""
    cert = build_certificate(problem)
    report = verify_certificate(problem, cert)
    dense = _dense_report(problem.profile, problem.weights)
    cost = dense["matrix_cost"]
    assert report["dual_bound"] == pytest.approx(dense["dual_bound"], rel=1e-12)
    assert report["matrix_cost"] == pytest.approx(cost, rel=1e-12)
    assert abs(report["duality_gap"] - dense["duality_gap"]) <= 1e-12 * max(1.0, abs(cost))
    for key in ("z_annihilates_a_rel", "normalization_residual"):
        assert abs(report[key] - dense[key]) <= 1e-12, key
    assert abs(report["min_eig_z"] - dense["min_eig_z"]) <= 1e-12 * max(
        1.0, dense["z_scale"]
    ) + min_eig_rel * abs(dense["min_eig_z"])
    assert dense["trace_cost_discrepancy"] <= 1e-12 * max(1.0, abs(cost))
    assert report["trace_cost_discrepancy"] == 0.0
    return report


def test_closed_forms_match_dense_oracle():
    rng = np.random.default_rng(41)
    for _ in range(200):
        profile, weights = random_optimal_profile(rng, m_max=40)
        assert assert_matches_dense_oracle(CertifiedProblem(profile, weights))["passed"]


def test_closed_forms_match_dense_oracle_off_optimum():
    """A multiplier or weights moved off the optimum break the normalization
    and the extremal equation; the closed forms must see the same breach."""
    rng = np.random.default_rng(43)
    for _ in range(50):
        profile, weights = random_optimal_profile(rng, m_max=12)
        x, lam = weights.weights, weights.lagrange
        x_moved = x * (1.0 + 1e-4 * rng.standard_normal(x.size))
        for x2, lam2 in ((x, lam * (1 + 1e-4)), (x, lam * (1 - 1e-4)), (x_moved, lam)):
            problem = CertifiedProblem(profile, CostWeights(x2, lam2))
            assert not assert_matches_dense_oracle(problem, min_eig_rel=1e-2)["passed"]


# the extreme weight ratios pinned in test_properties
@pytest.mark.parametrize(
    "n_in, excess, index, log_ratio",
    [(1, 1, 0, 12.0), (2, 1, 1, -12.0), (3, 1, 3, -12.0), (4, 1, 4, -12.0), (1, 4, 4, 12.0)],
)
def test_closed_forms_match_dense_oracle_at_extreme_ratios(n_in, excess, index, log_ratio):
    m_out = n_in + excess
    x = np.ones(m_out)
    x[index % m_out] = 10.0**log_ratio
    profile, weights = design_from_weights(x, n_in, m_out)
    assert assert_matches_dense_oracle(CertifiedProblem(profile, weights))["passed"]


# one weight far above the rest gives noises of 1e5 and more, whose surface
# residual rounds to a few ulps of S^2 = (sum sqrt n)^2, far above 1e-9
@pytest.mark.parametrize(
    "m_out, index, weight", [(51, 0, 1e9), (5, 0, 10**11.5), (5, 4, 10**11.5)]
)
def test_certificate_passes_with_one_huge_weight(m_out, index, weight):
    x = np.ones(m_out)
    x[index] = weight
    problem, cert = solved_instance(x, 1, m_out)
    assert verify_certificate(problem, cert)["passed"]
    scan = random_feasible_cost_scan(problem, cert, 200, np.random.default_rng(3))
    assert scan["passed"]


def test_certificate_at_large_m():
    """Certificates pass at M up to 1e5 from O(M) memory."""
    rng = np.random.default_rng(42)
    for m_out in (10**3, 10**4, 10**5):
        for n_in in (1, 3):
            profile, weights = design_from_weights(rng.uniform(0.1, 10.0, m_out), n_in, m_out)
            tracemalloc.start()
            try:
                problem = build_problem(profile, weights)
                cert = build_certificate(problem)
                report = verify_certificate(problem, cert)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report["passed"], (m_out, n_in, report)
            if m_out == 10**4:
                assert peak < 2 * 2**20
