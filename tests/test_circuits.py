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
    design_from_weights,
    feedforward_params,
    g_opt_matrix,
    gain_and_transmittance,
    mode_amplitudes,
    noise_gram_matrix,
    scheme_equivalence_check,
    symmetric_profile,
    verify_circuit,
)
from gaussclone import circuits
from gaussclone.cli import load_circuit
from gaussclone.circuits import _amplifier_moments, _clone_state, _live_columns
from gaussclone.core import (
    GaussianChannel,
    GaussianState,
    coherent_state,
    within,
)

from conftest import (
    FIXTURES,
    apply_channel,
    cp_min_eigenvalue,
    feedforward_output_state,
    identity_channel,
    random_optimal_profile,
    splitting_amplitudes,
    vacuum_state,
)


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
    for amps in (circ.splitting, splitting_amplitudes(circ)):
        assert np.all(amps[zero] == 0.0)
        assert np.allclose(amps[~zero], np.sqrt(0.5), atol=1e-15)
    assert scheme_equivalence_check(profile)["passed"]


# (N, M, log10 of the last weight) of every design on the one-extreme-weight
# grid whose splitting fractions, multiplied down the splitter chain, lost
# half their digits to a reflectance near 1 and failed the scheme check
CHAIN_FAILURES = [
    (1, 3, -9.0), (1, 3, -8.5), (1, 3, -8.0), (1, 5, -8.5), (1, 5, -8.0),
    (2, 5, -9.0), (2, 5, -8.5), (2, 5, -8.0), (2, 20, -8.0),
]


@pytest.mark.parametrize("n_in, m_out, log_weight", CHAIN_FAILURES)
def test_feedforward_passes_with_a_reflectance_near_one(n_in, m_out, log_weight):
    weights = np.ones(m_out)
    weights[-1] = 10.0**log_weight
    profile, _ = design_from_weights(weights, n_in, m_out)
    assert not _dense_scheme_equivalence(profile)["passed"]
    _, report = verify_circuit(profile, "feedforward")
    assert report["passed"] and report["scheme_discrepancy"] < 1e-12


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
    # B + P = 2I - 2H/3 has its least eigenvalue 0 along u = (1, 1, 1) / sqrt(3),
    # so B - delta u u^T moves the CP margin by -delta but each entry of B by
    # delta / 3: at delta = 3e-9 the G_opt residual stays within max|B| = 4/3
    # and the margin does not, so the CP margin is the only check that fails
    # u is the noise column v_M, so the dip lies in span{v_1, v_M}, where the
    # check compresses B +- P; it enters through the two-column derivation
    profile = symmetric_profile(1, 3)
    ch = channel_from_amplifier(build_interferometer(profile), profile)
    s, b = ch.S[:3, 0], ch.G[:3, :3]
    u = np.linalg.eigh(b + np.eye(3) - np.outer(s, s))[1][:, 0]
    moments = circuits._amplifier_moments
    for shift in (1e-6, 3e-9):
        dip = shift * np.outer(u, u)
        shifted = GaussianChannel(1, 3, ch.S, ch.G - np.kron(np.eye(2), dip))

        def dipped(*columns, dip=dip):
            gains, block = moments(*columns)
            return gains, block - dip

        monkeypatch.setattr(circuits, "_amplifier_moments", dipped)
        _, report = verify_circuit(profile, "amplifier")
        assert report["cp_min_eigenvalue"] == pytest.approx(cp_min_eigenvalue(shifted), abs=1e-12)
        assert report["cp_min_eigenvalue"] < -1e-9 and not report["passed"]
    assert within(report["g_opt_residual"], np.max(np.abs(b - dip)))


def test_scheme_equivalence_rejects_off_surface():
    with pytest.raises(OffSurfaceError):
        scheme_equivalence_check(NoiseProfile(1, 2, np.array([0.5, 1.0])))


def test_scheme_equivalence_bounds_covariance_relative_to_its_size(monkeypatch):
    # noises near 289 make max|cov| about 579, so an absolute 1e-9 bound on
    # the covariance would fail both shifts and a missing one pass both
    profile, _ = design_from_weights(np.array([1e6, 1.0, 1.0, 1.0]), 1, 4)
    moments = circuits._feedforward_moments
    for rel, passed in ((5e-10, True), (2e-9, False)):
        def shifted(circ, amp_in, rel=rel):
            amps, block = moments(circ, amp_in)
            return amps, block + rel * np.max(np.abs(block))

        monkeypatch.setattr(circuits, "_feedforward_moments", shifted)
        assert scheme_equivalence_check(profile)["passed"] == passed


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


# -- oracles: the dense composition and the Gram-Schmidt loop ----------------


def _gram_schmidt_loop(fixed_cols, dim):
    """Modified Gram-Schmidt completion of `fixed_cols` over the canonical
    basis, skipping basis vectors with less than 1e-8 left, and the number
    of basis vectors skipped."""
    cols = [c / np.linalg.norm(c) for c in fixed_cols]
    skipped = 0
    for i in range(dim):
        if len(cols) == dim:
            break
        v = np.zeros(dim)
        v[i] = 1.0
        for c in cols:
            v -= (c @ v) * c
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            skipped += 1
            continue
        cols.append(v / norm)
    return np.column_stack(cols), skipped


def _loop_interferometer(profile):
    """V and kappa built with r = sqrt(1 - t^2) on two branches: the signal
    column lack / (r sqrt(N)) for r > 1e-9, none at the symmetric point."""
    g, t = gain_and_transmittance(profile)
    m, sqrt_n = profile.m_out, np.sqrt(profile.n_in)
    r = np.sqrt(max(0.0, 1.0 - t * t))
    col_noise = np.sqrt(profile.noises / profile.n_tot)
    if r > 1e-9:
        col_sig = (1.0 - col_noise * g * t * sqrt_n) / (r * sqrt_n)
        ordered, skipped = _gram_schmidt_loop([col_sig, col_noise], m)
        v = np.column_stack([ordered[:, 0], ordered[:, 2:], ordered[:, 1]])
    else:
        ordered, skipped = _gram_schmidt_loop([col_noise], m)
        v = np.roll(ordered, -1, axis=1)
    kappa = v[:, : m - 1].copy()
    kappa[:, 0] = v[:, 0] * t - v[:, m - 1] * g * r
    return v, kappa, skipped


def _dense_channel(circ, profile):
    """(S, G) from the 2(M + 1)-dimensional product of the beam splitter,
    the amplifier and the interferometer on modes (a, b_1..b_{M-1}, c)."""
    m = profile.m_out
    t, g = circ.t, circ.g
    r = np.sqrt(max(0.0, 1.0 - t * t))
    amp_noise = np.sqrt(max(0.0, g * g - 1.0))
    total = m + 1

    def embed(mix):
        z = np.zeros_like(mix)
        return np.block([[mix, z], [z, mix]])

    bs = np.eye(total)
    bs[0, 0], bs[0, 1], bs[1, 0], bs[1, 1] = t, -r, r, t
    amp = np.eye(2 * total)
    amp[0, 0] = amp[m, m] = g
    amp[0, m] = amp[m, 0] = amp_noise
    # the p block's conjugate coupling flips sign
    amp[total, total] = amp[total + m, total + m] = g
    amp[total, total + m] = amp[total + m, total] = -amp_noise
    mix = np.zeros((total, total))
    mix[:m, 0] = circ.V[:, m - 1]
    mix[:m, 1:m] = circ.V[:, : m - 1]
    mix[m, m] = 1.0
    t_total = embed(mix) @ amp @ embed(bs)
    clone_rows = np.r_[0:m, total : total + m]
    s_chan = t_total[np.ix_(clone_rows, [0, total])]
    cov_out = (t_total @ t_total.T)[np.ix_(clone_rows, clone_rows)]
    g_chan = cov_out - s_chan @ s_chan.T
    return GaussianChannel(1, m, s_chan, 0.5 * (g_chan + g_chan.T))


def test_structured_circuit_matches_oracles():
    rng = np.random.default_rng(31)
    profiles = [random_optimal_profile(rng, m_max=40)[0] for _ in range(200)]
    profiles += [load_circuit(str(path))[1] for path in sorted(FIXTURES.glob("*.amplifier.json"))]
    skips = 0
    for profile in profiles:
        circ = build_interferometer(profile)
        v, kappa, skipped = _loop_interferometer(profile)
        skips += skipped > 0
        # both completions lose orthogonality on nearly dependent basis
        # vectors, the loop by up to 2.4e-12 on these designs
        assert np.max(np.abs(circ.V - v)) < 1e-11
        assert np.max(np.abs(circ.kappa - kappa)) < 1e-11
        ch = channel_from_amplifier(circ, profile)
        dense = _dense_channel(circ, profile)
        assert np.max(np.abs(ch.S - dense.S)) < 1e-12
        assert np.max(np.abs(ch.G - dense.G)) < 1e-12
        _, report = verify_circuit(profile, "amplifier")
        scale = max(1.0, np.max(np.abs(ch.G)))
        assert abs(report["cp_min_eigenvalue"] - cp_min_eigenvalue(ch)) < 1e-12 * scale
    # the loop skips a basis vector in the fixture gs_skip_1to6 at least
    assert skips >= 1


def test_verify_circuit_passes_on_symmetric_and_near_symmetric_designs():
    # the tap reflectance used to be sqrt(1 - t^2), which loses half the
    # digits near the symmetric point t = 1 and made 105 of these fail
    profiles = [symmetric_profile(n, m) for m in range(2, 31) for n in range(1, m)]
    for m, n in ((2, 1), (3, 1), (3, 2), (20, 1), (20, 2)):
        for eps in (0.0, 1e-12, -1e-12, 1e-8, -1e-8, 1e-6, -1e-6, 1e-4, -1e-4):
            weights = np.ones(m)
            weights[-1] += eps
            profiles.append(design_from_weights(weights, n, m)[0])
    for profile in profiles:
        for scheme in ("amplifier", "feedforward"):
            _, report = verify_circuit(profile, scheme)
            assert report["passed"], (profile, scheme, report)
        out = amplifier_output_state(build_interferometer(profile), profile, 1.0)
        assert np.max(np.abs(mode_amplitudes(out) - 1.0)) < 1e-12


def test_verify_circuit_accuracy_at_large_m():
    rng = np.random.default_rng(32)
    for m in (100, 500, 1000):
        for n in (1, 3):
            profile, _ = random_optimal_profile(rng, n_in=n, m_out=m)
            _, amp = verify_circuit(profile, "amplifier")
            _, ff = verify_circuit(profile, "feedforward")
            assert amp["passed"] and ff["passed"]
            # largest seen, all at N = 1 (TOL is 1e-9, and max|B| is about 2):
            # V^T V 1.7e-12 and kappa kappa^T 2.3e-12 at M = 500; B 1.5e-13
            # and the scheme discrepancy 1.5e-13 at M = 1000; the CP margin
            # -4.5e-11 at M = 500, where t^2 + r^2 misses 1 by 1.2e-13 and
            # the compression of B + P has entries of size g^2 = 1 + n_tot
            assert max(amp["unitarity_residual"], amp["kappa_gram_residual"]) < 1e-11
            assert amp["g_opt_residual"] < 1e-12 and ff["scheme_discrepancy"] < 1e-12
            assert abs(amp["cp_min_eigenvalue"]) < 1e-10


def test_amplifier_check_and_channel_solve_no_eigenproblem_above_two_by_two(monkeypatch):
    profile, _ = random_optimal_profile(np.random.default_rng(37), n_in=2, m_out=40)
    shapes = []
    for name in ("eigvalsh", "eigh", "eig"):
        def recorded(a, *args, solve=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    circ, report = verify_circuit(profile, "amplifier")
    channel_from_amplifier(circ, profile)
    assert report["passed"]
    # the CP margin comes from the 2 x 2 compressions onto span{v_1, v_M}
    assert shapes and max(max(shape[-2:]) for shape in shapes) == 2, shapes



# -- oracles: the dense scheme comparison and amplifier check ----------------


def _dense_output_states(profile, alpha):
    """Both schemes' output states as 2M x 2M matrices: the amplifier's
    through its composed channel, the feedforward's with the splitting
    fractions multiplied down the splitter chain."""
    m = profile.m_out
    amp_in = np.sqrt(profile.n_in) * alpha
    channel = channel_from_amplifier(build_interferometer(profile), profile)
    st_amp = apply_channel(channel, coherent_state([amp_in]))
    ff = feedforward_params(profile)
    t_tap = np.sqrt(1.0 - ff.r_tap**2)
    amps = splitting_amplitudes(ff) * t_tap * amp_in + ff.gains * (ff.r_tap * amp_in)
    mean = np.concatenate([np.sqrt(2) * amps.real, np.sqrt(2) * amps.imag])
    block = np.eye(m) + 2.0 * np.outer(ff.gains, ff.gains)
    z = np.zeros_like(block)
    return st_amp, GaussianState(m, mean, np.block([[block, z], [z, block]]))


def _dense_scheme_equivalence(profile, alpha=0.8 - 0.3j):
    st_amp, st_ff = _dense_output_states(profile, alpha)
    mean_diff = float(np.max(np.abs(st_amp.mean - st_ff.mean)))
    cov_diff = float(np.max(np.abs(st_amp.cov - st_ff.cov)))
    cov_bound = 1e-9 * max(1.0, float(np.max(np.abs(st_amp.cov))))
    return {
        "mean_discrepancy": mean_diff,
        "cov_discrepancy": cov_diff,
        "passed": mean_diff < 1e-9 and cov_diff < cov_bound,
    }


def test_block_moments_match_dense_oracle():
    rng = np.random.default_rng(33)
    profiles = [random_optimal_profile(rng, m_max=40)[0] for _ in range(200)]
    profiles += [symmetric_profile(n, m) for m in range(2, 31) for n in range(1, m)]
    profiles += [load_circuit(str(path))[1] for path in sorted(FIXTURES.glob("*.amplifier.json"))]
    alpha = 0.8 - 0.3j
    for profile in profiles:
        st_amp, st_ff = _dense_output_states(profile, alpha)
        amp_in = np.sqrt(profile.n_in) * alpha
        s, block = _amplifier_moments(*_live_columns(profile))
        pairs = [
            (_clone_state(s * amp_in, block), st_amp),
            (amplifier_output_state(build_interferometer(profile), profile, alpha), st_amp),
            (feedforward_output_state(feedforward_params(profile), profile.n_in, alpha), st_ff),
        ]
        tol = 1e-10 * max(1.0, np.max(np.abs(st_amp.cov)))
        for state, dense in pairs:
            assert np.max(np.abs(state.mean - dense.mean)) < tol
            assert np.max(np.abs(state.cov - dense.cov)) < tol
        report, dense_report = scheme_equivalence_check(profile), _dense_scheme_equivalence(profile)
        assert report["passed"] == dense_report["passed"]
        for key in ("mean_discrepancy", "cov_discrepancy"):
            assert abs(report[key] - dense_report[key]) < tol


def test_feedforward_verification_builds_no_interferometer(monkeypatch):
    built, params = [], []
    build, feedforward = circuits.build_interferometer, circuits.feedforward_params
    monkeypatch.setattr(circuits, "build_interferometer", lambda p: built.append(p) or build(p))
    monkeypatch.setattr(circuits, "feedforward_params", lambda p: params.append(p) or feedforward(p))
    profile, _ = random_optimal_profile(np.random.default_rng(34), n_in=2, m_out=7)
    _, report = verify_circuit(profile, "feedforward")
    # the scheme check reuses the feedforward circuit that was verified
    assert report["passed"] and built == [] and len(params) == 1
    verify_circuit(profile, "amplifier")
    assert len(built) == 1


def _full_projection_interferometer(profile):
    """V and kappa as built with the Gram-Schmidt projections v - C (C^T v)
    on every row, and the canonical basis index that each completion column
    V[:, 1], ..., V[:, M - 2] was taken from."""
    g, t = gain_and_transmittance(profile)
    m, sqrt_n = profile.m_out, np.sqrt(profile.n_in)
    col_noise = np.sqrt(profile.noises / profile.n_tot)
    lack = 1.0 - g * t * sqrt_n * col_noise
    cols = np.empty((m, m))
    cols[:, 0] = col_noise / np.linalg.norm(col_noise)
    k, sources = 1, []
    for j, cand in enumerate([lack, *np.eye(m)]):
        if k == m:
            break
        rest = cand - cols[:, :k] @ (cols[:, :k].T @ cand)
        norm = np.linalg.norm(rest)
        if norm > 1e-8 * np.linalg.norm(cand):
            cols[:, k] = rest / norm
            k += 1
            sources.append(j - 1)
    v = np.roll(cols, -1, axis=1)
    r = float(v[:, 0] @ lack) / sqrt_n
    kappa = v[:, : m - 1].copy()
    kappa[:, 0] = v[:, 0] * t - v[:, m - 1] * g * r
    return v, kappa, sources[1:]


def _dense_amplifier_check(profile, v, kappa, r):
    """The amplifier report of the circuit (V, kappa) of `profile` with tap
    reflectance r, checked through the padded 2M x 2M channel."""
    g, t = gain_and_transmittance(profile)
    m, n = profile.m_out, profile.n_in
    s = g * t * v[:, m - 1] + r * v[:, 0]
    b = kappa @ kappa.T + (g * g - 1.0) * np.outer(v[:, m - 1], v[:, m - 1])
    g_chan = np.zeros((2 * m, 2 * m))
    g_chan[:m, :m] = g_chan[m:, m:] = b
    unitarity = float(np.max(np.abs(v.T @ v - np.eye(m))))
    target = np.eye(m) - np.ones((m, m)) / n + noise_gram_matrix(profile)
    kappa_resid = float(np.max(np.abs(kappa @ kappa.T - target)))
    g_resid = float(np.max(np.abs(g_chan - g_opt_matrix(profile))))
    p = np.eye(m) - np.outer(s, s)
    cp_eig = float(min(np.linalg.eigvalsh(b + p)[0], np.linalg.eigvalsh(b - p)[0]))
    g_max = float(np.max(np.abs(g_chan)))
    return {
        "unitarity_residual": unitarity,
        "kappa_gram_residual": kappa_resid,
        "g_opt_residual": g_resid,
        "cp_min_eigenvalue": cp_eig,
        "transmittance": t,
        "passed": bool(
            within(unitarity)
            and within(kappa_resid, float(np.max(np.abs(target))))
            and within(g_resid, g_max)
            and within(min(0.0, cp_eig), g_max)
            and t <= 1.0
        ),
    }


def test_amplifier_check_matches_dense_path_at_rounding_level():
    rng = np.random.default_rng(35)
    profiles = [random_optimal_profile(rng, m_max=60)[0] for _ in range(100)]
    # symmetric designs take v_1 from the canonical basis, not from lack
    profiles += [symmetric_profile(n, m) for m, n in ((2, 1), (3, 2), (13, 1), (40, 3))]
    profiles += [load_circuit(str(path))[1] for path in sorted(FIXTURES.glob("*.amplifier.json"))]
    moved = ("g_opt_residual", "cp_min_eigenvalue")
    for profile in profiles:
        circ, report = verify_circuit(profile, "amplifier")
        dense = _dense_amplifier_check(profile, circ.V, circ.kappa, circ.r)
        # the residuals of V^T V and kappa kappa^T, t and the verdict: bit for bit
        assert {k: report[k] for k in report if k not in moved} == {
            k: dense[k] for k in dense if k not in moved
        }
        # B and the CP margin come from the two live columns here, and from
        # the padded channel with its M-term sums of kappa kappa^T and its
        # M x M eigvalsh in the oracle, which rounds at about M eps max|B|:
        # the largest moves, 5.2e-12 and 3.1e-12 of max(1, max|B|), are at
        # N = 43, M = 49, where the oracle reads a CP margin of -6.0e-12 and
        # a G_opt residual of 3.6e-12 and this check -5.0e-16 and 2.2e-16
        scale = max(1.0, float(np.max(np.abs(g_opt_matrix(profile)))))
        for key in moved:
            assert abs(report[key] - dense[key]) < 1e-11 * scale, (profile, key)
        # B - P is 0 off span{v_1, v_M}, which is all of R^M only at M = 2
        assert report["cp_min_eigenvalue"] <= 0.0 or profile.m_out == 2


def test_amplifier_circuit_carries_the_tap_reflectance_of_its_live_columns():
    rng = np.random.default_rng(36)
    profiles = [random_optimal_profile(rng, m_max=60)[0] for _ in range(50)]
    profiles += [symmetric_profile(n, m) for m, n in ((2, 1), (3, 2), (13, 1), (40, 3))]
    profiles += _extreme_weight_profiles()
    for profile in profiles:
        # bit for bit: the circuit stores r, it does not recover it from kappa
        r = build_interferometer(profile).r
        assert type(r) is float and r == _live_columns(profile)[2]


def _extreme_weight_profiles():
    """One weight at 10^k, k = -12 ... 12 in steps of 1/2, first or last."""
    profiles = []
    for m in (3, 5, 20, 51, 200):
        for n in (1, 2):
            for log_weight in np.arange(-12.0, 12.5, 0.5):
                for pos in (0, -1):
                    weights = np.ones(m)
                    weights[pos] = 10.0**log_weight
                    profiles.append(design_from_weights(weights, n, m)[0])
    return profiles


def test_interferometer_is_lower_hessenberg_outside_the_noise_column():
    rng = np.random.default_rng(35)
    profiles = [random_optimal_profile(rng, m_max=60)[0] for _ in range(100)]
    profiles += [symmetric_profile(n, m) for m in range(2, 31) for n in range(1, m)]
    profiles += _extreme_weight_profiles()
    profiles += [load_circuit(str(path))[1] for path in sorted(FIXTURES.glob("*.amplifier.json"))]
    for profile in profiles:
        circ = build_interferometer(profile)
        m = profile.m_out
        # the completion columns V[:, k], 1 <= k <= M - 2, are zero above
        # row k - 1, and kappa shares them
        middle = circ.V[:, 1 : m - 1]
        assert not np.triu(middle, 1).any()
        assert not np.triu(circ.kappa[:, 1:], 1).any()
        # and no zero is negative, which a document would write as -0.0
        assert not np.signbit(circ.V[circ.V == 0.0]).any()
        assert not np.signbit(circ.kappa[circ.kappa == 0.0]).any()
        # each starts on the row of the basis vector it was taken from
        v, kappa, sources = _full_projection_interferometer(profile)
        assert [int(np.flatnonzero(col)[0]) for col in middle.T] == sources
        # the full projection differs by rounding: at most 1.7e-12 on these
        # designs, 6.3e-12 on random designs with M < 80
        assert np.max(np.abs(circ.V - v)) < 1e-11
        assert np.max(np.abs(circ.kappa - kappa)) < 1e-11
        assert np.max(np.abs(circ.V.T @ circ.V - np.eye(m))) < 1e-10
