import numpy as np
import pytest

from gaussclone import (
    NoiseProfile,
    OffSurfaceError,
    amplifier_output_state,
    build_interferometer,
    channel_from_amplifier,
    clone_marginal,
    clone_output_cov,
    cp_min_eigenvalue,
    feedforward_output_state,
    feedforward_params,
    g_opt_matrix,
    gain_and_transmittance,
    mode_amplitudes,
    noise_gram_matrix,
    scheme_equivalence_check,
    symmetric_profile,
    vacuum_state,
    verify_circuit,
)
from gaussclone.circuits import splitting_amplitudes
from gaussclone.core import apply_channel, coherent_state, identity_channel

from conftest import random_optimal_profile


def test_gain_and_transmittance_symmetric():
    g, t = gain_and_transmittance(symmetric_profile(1, 2))
    assert g == pytest.approx(np.sqrt(2), abs=1e-12)
    assert t == pytest.approx(1.0, abs=1e-12)
    g, t = gain_and_transmittance(symmetric_profile(1, 3))
    assert g == pytest.approx(np.sqrt(3), abs=1e-12)
    assert t == pytest.approx(1.0, abs=1e-12)


def test_gain_and_transmittance_asymmetric():
    profile = NoiseProfile(1, 2, np.array([0.25, 1.0]))
    g, t = gain_and_transmittance(profile)
    assert g == pytest.approx(1.5, abs=1e-12)
    assert t == pytest.approx(np.sqrt(0.8), abs=1e-12)


def test_gain_and_transmittance_rejects_off_surface():
    with pytest.raises(OffSurfaceError):
        gain_and_transmittance(NoiseProfile(1, 2, np.array([0.5, 1.0])))


def test_interferometer_symmetric_last_column():
    circ = build_interferometer(symmetric_profile(1, 2))
    assert np.allclose(np.abs(circ.V[:, -1]), 1 / np.sqrt(2))
    assert np.allclose(circ.V.T @ circ.V, np.eye(2), atol=1e-10)


def test_interferometer_unitarity_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        profile, _ = random_optimal_profile(rng)
        circ = build_interferometer(profile)
        m = profile.m_out
        assert np.max(np.abs(circ.V.T @ circ.V - np.eye(m))) < 1e-10
        assert np.allclose(circ.V[:, -1], np.sqrt(profile.noises / profile.n_tot))


def test_clone_amplitudes_preserved():
    profile = NoiseProfile(1, 2, np.array([0.25, 1.0]))
    circ = build_interferometer(profile)
    alpha = 1 + 0.5j
    out = amplifier_output_state(circ, profile, alpha)
    assert np.max(np.abs(mode_amplitudes(out) - alpha)) < 1e-12


def test_channel_matches_analytic_matrices():
    rng = np.random.default_rng(22)
    for _ in range(20):
        profile, _ = random_optimal_profile(rng)
        circ = build_interferometer(profile)
        ch = channel_from_amplifier(circ, profile)
        m, n = profile.m_out, profile.n_in
        s_expected = np.zeros((2 * m, 2))
        s_expected[:m, 0] = 1 / np.sqrt(n)
        s_expected[m:, 1] = 1 / np.sqrt(n)
        assert np.max(np.abs(ch.S - s_expected)) < 1e-10
        assert np.max(np.abs(ch.G - g_opt_matrix(profile))) < 1e-10
        assert cp_min_eigenvalue(ch) >= -1e-10


def test_channel_symmetric_g_diagonal():
    profile = symmetric_profile(1, 2)
    ch = channel_from_amplifier(build_interferometer(profile), profile)
    assert np.allclose(np.diag(ch.G), 1.0, atol=1e-12)


def test_identity_cloner_channel():
    # N = M is the trivial cloner: identity channel, G = 0
    ch = identity_channel(3)
    st = apply_channel(ch, vacuum_state(3))
    assert np.allclose(st.cov, np.eye(6))
    assert np.allclose(ch.G, 0.0)


def test_kappa_gram_identity_and_rank():
    rng = np.random.default_rng(23)
    for _ in range(20):
        profile, _ = random_optimal_profile(rng)
        circ = build_interferometer(profile)
        m, n = profile.m_out, profile.n_in
        target = np.eye(m) - np.ones((m, m)) / n + noise_gram_matrix(profile)
        assert np.max(np.abs(circ.kappa @ circ.kappa.T - target)) < 1e-10
        eigs = np.linalg.eigvalsh(target)
        assert eigs[0] > -1e-9
        assert np.sum(eigs > 1e-9) <= m - 1


def test_feedforward_symmetric_parameters():
    circ = feedforward_params(symmetric_profile(1, 2))
    assert circ.r_tap == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert np.allclose(circ.gains, np.sqrt(0.5))
    assert circ.reflectances[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_feedforward_zero_noise_gain():
    profile = NoiseProfile(2, 3, np.array([0.0, 0.5, 0.5]))
    assert abs(profile.noises[0]) < 1e-12
    circ = feedforward_params(profile)
    assert circ.gains[0] == 0.0


def test_feedforward_reflectances_in_range():
    rng = np.random.default_rng(24)
    for _ in range(30):
        profile, _ = random_optimal_profile(rng)
        circ = feedforward_params(profile)
        assert np.all(circ.reflectances >= 0.0)
        assert np.all(circ.reflectances <= 1.0)
        assert 0.0 <= circ.r_tap <= 1.0
        g, t = gain_and_transmittance(profile)
        assert t <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "noises", [(0.5, 0.5, 2.0), (2.0, 0.5, 0.5), (0.5, 0.5, 2.0, 2.0)]
)
def test_feedforward_zero_amplitude_clone_gets_none(noises):
    # n_j = (1 + n_tot) / (M - N) gives clone j a closed-form amplitude of 0;
    # a reflectance of 1 - 2e-16 used to leak 1.5e-8 into the next clone, and
    # two such clones at the end leave no beam for the last splitter
    profile = NoiseProfile(1, len(noises), np.array(noises))
    circ = feedforward_params(profile)
    zero = np.array(noises) == 2.0
    amps = splitting_amplitudes(circ)
    assert np.all(amps[zero] == 0.0)
    assert np.allclose(amps[~zero], np.sqrt(0.5), atol=1e-15)
    assert scheme_equivalence_check(profile)["passed"]


def test_scheme_equivalence_symmetric_and_random():
    report = scheme_equivalence_check(symmetric_profile(1, 2))
    assert report["discrepancy"] < 1e-9
    rng = np.random.default_rng(25)
    profile, _ = random_optimal_profile(rng, n_in=2, m_out=5)
    report = scheme_equivalence_check(profile)
    assert report["discrepancy"] < 1e-9


def test_verify_circuit_reports_each_scheme():
    rng = np.random.default_rng(28)
    profile, _ = random_optimal_profile(rng, n_in=2, m_out=5)
    circ, report = verify_circuit(profile, "amplifier")
    assert np.array_equal(circ.V, build_interferometer(profile).V)
    assert set(report) == {
        "unitarity_residual", "kappa_gram_residual", "g_opt_residual",
        "cp_min_eigenvalue", "transmittance", "passed",
    }
    assert report["passed"] and report["transmittance"] == circ.t
    circ, report = verify_circuit(profile, "feedforward")
    assert np.array_equal(circ.gains, feedforward_params(profile).gains)
    assert set(report) == {
        "reflectances_in_range", "gain_noise_residual", "scheme_discrepancy", "passed",
    }
    assert report["passed"] and report["scheme_discrepancy"] < 1e-9
    with pytest.raises(ValueError, match="unknown scheme"):
        verify_circuit(profile, "teleporter")
    with pytest.raises(OffSurfaceError):
        verify_circuit(NoiseProfile(1, 2, np.array([0.5, 1.0])), "feedforward")


def test_verify_circuit_fails_on_negative_cp_eigenvalue(monkeypatch):
    monkeypatch.setattr("gaussclone.circuits.cp_min_eigenvalue", lambda channel: -1e-6)
    _, report = verify_circuit(symmetric_profile(1, 3), "amplifier")
    assert report["cp_min_eigenvalue"] == -1e-6 and not report["passed"]


def test_scheme_equivalence_rejects_off_surface():
    with pytest.raises(OffSurfaceError):
        scheme_equivalence_check(NoiseProfile(1, 2, np.array([0.5, 1.0])))


def test_output_covariance_matches_clone_target():
    rng = np.random.default_rng(26)
    for _ in range(10):
        profile, _ = random_optimal_profile(rng)
        circ = build_interferometer(profile)
        out = amplifier_output_state(circ, profile, 0.4 + 0.9j)
        assert np.max(np.abs(out.cov - clone_output_cov(profile))) < 1e-10


def test_clone_statistics_covariant_and_isotropic():
    rng = np.random.default_rng(27)
    profile, _ = random_optimal_profile(rng, n_in=1, m_out=3)
    circ = build_interferometer(profile)
    ref = amplifier_output_state(circ, profile, 0.0)
    for _ in range(20):
        alpha = complex(rng.normal(), rng.normal())
        out = amplifier_output_state(circ, profile, alpha)
        assert np.max(np.abs(out.cov - ref.cov)) < 1e-12
        assert np.max(np.abs(mode_amplitudes(out) - alpha)) < 1e-10
        for j in range(profile.m_out):
            marg = clone_marginal(out, j)
            assert marg.thermal_noise == pytest.approx(profile.noises[j], abs=1e-10)


def test_feedforward_output_matches_clone_target():
    profile = NoiseProfile(1, 2, np.array([0.25, 1.0]))
    circ = feedforward_params(profile)
    out = feedforward_output_state(circ, 1, 0.3 - 0.7j)
    assert np.max(np.abs(out.cov - clone_output_cov(profile))) < 1e-12
    assert np.max(np.abs(mode_amplitudes(out) - (0.3 - 0.7j))) < 1e-12
    target = coherent_state([0.3 - 0.7j, 0.3 - 0.7j])
    assert np.allclose(out.mean, target.mean, atol=1e-12)
