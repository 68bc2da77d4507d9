import dataclasses
import itertools
import math
import tracemalloc

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
from gaussclone.cli import circuit_text, load_circuit, main
from gaussclone.circuits import AmplifierCircuit
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
# grid (one weight at 10^k, k = -12 ... 12 in steps of 0.5, first or last;
# M in {3, 5, 20, 51, 200}; N in {1, 2}) whose splitting fractions, multiplied
# down the splitter chain, lose half their digits to a reflectance near 1 and
# fail the scheme check
CHAIN_FAILURES = [
    (1, 3, -9.0), (1, 3, -8.5), (1, 3, -8.0), (1, 5, -8.5),
    (2, 5, -9.0), (2, 5, -8.5), (2, 5, -7.5),
]


@pytest.mark.parametrize("n_in, m_out, log_weight", CHAIN_FAILURES)
def test_feedforward_passes_with_a_reflectance_near_one(n_in, m_out, log_weight):
    # the circuit's own clone means, and its comparison with the amplifier:
    # the absolute 1e-12 holds at M <= 20, where the discrepancy's terms have
    # size about 2 n_tot; test_verify_circuit_accuracy_at_large_m checks it
    # against that size at M = 10^4 and 10^5
    weights = np.ones(m_out)
    weights[-1] = 10.0**log_weight
    profile, _ = design_from_weights(weights, n_in, m_out)
    assert not _dense_scheme_equivalence(profile)["passed"]
    _, report = verify_circuit(profile, "feedforward")
    assert report["passed"] and report["mean_residual"] < 1e-12
    assert scheme_equivalence_check(profile)["discrepancy"] < 1e-12


def test_feedforward_clone_means_on_the_one_extreme_weight_grid():
    # the grid of CHAIN_FAILURES: the largest residual, 2.0e-15 (9 eps), is at
    # N = 1, M = 200 with the last weight at 10^1.5; at M = 3 to 51 it is at
    # most 4 eps
    worst = 0.0
    for n_in, m_out, log_weight, last in itertools.product(
        (1, 2), (3, 5, 20, 51, 200), np.arange(-12.0, 12.5, 0.5), (0, -1)
    ):
        weights = np.ones(m_out)
        weights[last] = 10.0**log_weight
        _, report = verify_circuit(design_from_weights(weights, n_in, m_out)[0], "feedforward")
        assert report["passed"], (n_in, m_out, log_weight, last)
        worst = max(worst, report["mean_residual"])
    assert worst < 1e-14


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
        "cp_min_eigenvalue", "mean_residual", "transmittance", "passed",
    }
    assert report["passed"] and report["transmittance"] == circ.t
    assert report["mean_residual"] < 1e-12
    circ, report = verify_circuit(profile, "feedforward")
    assert np.array_equal(circ.gains, feedforward_params(profile).gains)
    assert set(report) == {
        "reflectances_in_range", "gain_noise_residual", "mean_residual",
        "reflectance_residual", "passed",
    }
    assert report["passed"] and report["mean_residual"] < 1e-12
    assert report["reflectance_residual"] < 1e-15
    # the same numbers, stored, get the same verdict
    stored = (circ.r_tap, circ.gains, circ.reflectances, circ.splitting)
    assert verify_circuit(profile, "feedforward", stored)[1] == report
    with pytest.raises(ValueError, match="unknown scheme"):
        verify_circuit(profile, "teleporter")
    with pytest.raises(OffSurfaceError):
        verify_circuit(NoiseProfile(1, 2, np.array([0.5, 1.0])), "feedforward")


def test_verify_circuit_fails_on_negative_cp_eigenvalue(monkeypatch):
    # B + P = 2I - 2H/3 has its least eigenvalue 0 along u = (1, 1, 1) / sqrt(3)
    # and s = sqrt(3) u.  Gains (1 + eps) s with the block's term s s^T raised
    # to match leave B as it is and move the margin by about -2 eps |s|^2: gain
    # that the noise does not pay for.  The terms of B +- P have size up to
    # |s|^2 = 3, so the CP margin fails from -3e-9 on.  The clone means move
    # by eps = margin / 6 and fail too at -1e-8, but not at -5e-9, where the
    # CP margin is the only check that fails.  The gains enter through the
    # two-column derivation
    profile = symmetric_profile(1, 3)
    ch = channel_from_amplifier(build_interferometer(profile), profile)
    s, b = ch.S[:3, 0], ch.G[:3, :3]
    _, clean = verify_circuit(profile, "amplifier")
    moments = AmplifierCircuit.moments
    for margin in (1e-6, 1e-8, 5e-9):
        eps = margin / (2.0 * s @ s)
        shifted = GaussianChannel(1, 3, ch.S * (1.0 + eps), ch.G)

        def raised(circ, eps=eps):
            gains, vecs, weights = moments(circ)
            more = gains * (1.0 + eps)
            return more, np.vstack([more, vecs[1:]]), weights

        monkeypatch.setattr(AmplifierCircuit, "moments", raised)
        _, report = verify_circuit(profile, "amplifier")
        assert report["cp_min_eigenvalue"] == pytest.approx(cp_min_eigenvalue(shifted), abs=1e-12)
        assert report["cp_min_eigenvalue"] < -0.9 * margin and not report["passed"]
        assert report["mean_residual"] == pytest.approx(eps, rel=1e-6)
    assert within(report["g_opt_residual"], np.max(np.abs(b))) and within(report["mean_residual"])
    assert {k: report[k] for k in ("unitarity_residual", "kappa_gram_residual")} == {
        k: clean[k] for k in ("unitarity_residual", "kappa_gram_residual")}


def test_verify_circuit_fails_on_clone_means_alone(monkeypatch):
    # gains (1 - 1e-8) s with B as it is: less gain than the noise pays for,
    # so B and the CP margin pass and only the clone means, 1e-8 short, fail
    profile = symmetric_profile(1, 3)
    _, clean = verify_circuit(profile, "amplifier")
    moments = AmplifierCircuit.moments

    def lowered(circ):
        gains, vecs, weights = moments(circ)
        less = gains * (1.0 - 1e-8)
        return less, np.vstack([less, vecs[1:]]), weights

    monkeypatch.setattr(AmplifierCircuit, "moments", lowered)
    _, report = verify_circuit(profile, "amplifier")
    assert not report["passed"] and report["mean_residual"] == pytest.approx(1e-8, rel=1e-6)
    assert within(report["g_opt_residual"]) and within(min(0.0, report["cp_min_eigenvalue"]))
    assert {k: report[k] for k in ("unitarity_residual", "kappa_gram_residual")} == {
        k: clean[k] for k in ("unitarity_residual", "kappa_gram_residual")}


def test_scheme_equivalence_rejects_off_surface():
    with pytest.raises(OffSurfaceError):
        scheme_equivalence_check(NoiseProfile(1, 2, np.array([0.5, 1.0])))


def test_scheme_equivalence_bounds_covariance_relative_to_its_size(monkeypatch):
    # noises near 289 give the covariance difference terms of size up to
    # 2 n_tot, about 1734, so an absolute 1e-9 bound would fail both shifts,
    # and no bound at all would pass both.  The shift is one more term, of
    # that relative size, in the direction of 1
    profile, _ = design_from_weights(np.array([1e6, 1.0, 1.0, 1.0]), 1, 4)
    spectra = circuits.low_rank_spectra
    for rel, passed in ((5e-10, True), (2e-9, False)):
        sizes = []

        def shifted(vecs, weights, rel=rel):
            sizes.append(spectra(vecs, weights)[1][0])
            one = np.full(vecs.shape[1], vecs.shape[1] ** -0.5)
            return spectra(np.vstack([vecs, one]), np.hstack([weights, [[rel * sizes[0]]]]))

        monkeypatch.setattr(circuits, "low_rank_spectra", shifted)
        report = scheme_equivalence_check(profile)
        assert report["passed"] == passed and 1700 < sizes[0] < 1800
        assert report["cov_discrepancy"] == pytest.approx(rel * sizes[0], rel=1e-3)


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


# -- oracles: the dense composition and the per-node completion tree ---------


def _loop_live_columns(profile):
    """v_1, v_M and the tap reflectance r = sqrt(1 - t^2): v_1 is lack's
    direction for r > 1e-9, and None otherwise, where nothing is lacking
    and any unit v_1 orthogonal to v_M carries no light."""
    g, t = gain_and_transmittance(profile)
    sqrt_n = np.sqrt(profile.n_in)
    r = np.sqrt(max(0.0, 1.0 - t * t))
    col_noise = np.sqrt(profile.noises / profile.n_tot)
    v_m = col_noise / np.linalg.norm(col_noise)
    if r <= 1e-9:
        return None, v_m, r
    lack = 1.0 - col_noise * g * t * sqrt_n
    return lack / np.linalg.norm(lack), v_m, r


def _completion_tree(m):
    """The completion tree of M rows, built level by level: a leaf is a block
    (lo, hi) of two rows, or of the last three when M is odd, and a merge of
    neighbouring nodes at level l is (l, left, right); an odd last node
    passes up to the next level."""
    nodes = [(2 * b, 2 * b + 2) for b in range(m // 2 - 1)] + [(m // 2 * 2 - 2, m)]
    level = 0
    while len(nodes) > 1:
        level += 1
        pairs = [(level, nodes[i], nodes[i + 1]) for i in range(0, len(nodes) - 1, 2)]
        nodes = pairs + nodes[2 * len(pairs) :]
    return nodes[0]


def _node_completion(node, live, out):
    """The rows (lo, hi) of `node` and its basis B, which holds live[lo:hi]
    in its range; appends (level, lo, hi, columns) to `out` for the columns
    the node completes, from dense products and one QR per node."""
    if len(node) == 2:
        lo, hi = node
        if hi - lo == 2:
            return lo, hi, np.eye(2)
        q = np.linalg.qr(live[lo:hi], mode="complete")[0]
        out.append((0, lo, hi, q[:, 2:]))
        return lo, hi, q[:, :2]
    level, left, right = node
    lo, mid, b_left = _node_completion(left, live, out)
    _, hi, b_right = _node_completion(right, live, out)
    b = np.zeros((hi - lo, 4))
    b[: mid - lo, :2], b[mid - lo :, 2:] = b_left, b_right
    q = np.linalg.qr(b.T @ live[lo:hi], mode="complete")[0]
    out.append((level, lo, hi, b @ q[:, 2:]))
    return lo, hi, b @ q[:, :2]


def _tree_interferometer(circ):
    """V of `circ` completed node by node on the completion tree, its columns
    taken level by level and left to right, and the rows (lo, hi) of the
    tree block of each of V's columns 2 to M - 1."""
    m = circ.v_sig.size
    out = []
    _node_completion(_completion_tree(m), np.column_stack([circ.v_sig, circ.v_noise]), out)
    out.sort(key=lambda node: node[:2])
    v, blocks = np.zeros((m, m)), []
    v[:, 0], v[:, -1] = circ.v_sig, circ.v_noise
    for _, lo, hi, cols in out:
        for col in cols.T:
            blocks.append((lo, hi))
            v[lo:hi, len(blocks)] = col
    return v, blocks


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
    unlit = 0
    for profile in profiles:
        circ, m = build_interferometer(profile), profile.m_out
        v_1, v_m, r = _loop_live_columns(profile)
        if v_1 is None:  # any unit v_1 orthogonal to v_M, with r 0 to rounding
            unlit += 1
            v_1 = circ.v_sig
            assert abs(v_1 @ v_1 - 1.0) < 1e-14 and abs(v_1 @ v_m) < 1e-14 and circ.r < 1e-14
        assert np.max(np.abs(circ.V[:, 0] - v_1)) < 1e-11
        assert np.max(np.abs(circ.V[:, -1] - v_m)) < 1e-11
        assert np.max(np.abs(circ.kappa[:, 0] - (v_1 * circ.t - v_m * circ.g * r))) < 1e-11
        # the batched levels and the per-node products differ by rounding:
        # at most 8.9e-16 on these designs
        v, _ = _tree_interferometer(circ)
        assert np.max(np.abs(circ.V - v)) < 1e-13
        assert np.max(np.abs(circ.kappa[:, 1:] - v[:, 1 : m - 1]), initial=0.0) < 1e-13
        ch = channel_from_amplifier(circ, profile)
        dense = _dense_channel(circ, profile)
        assert np.max(np.abs(ch.S - dense.S)) < 1e-12
        assert np.max(np.abs(ch.G - dense.G)) < 1e-12
        _, report = verify_circuit(profile, "amplifier")
        scale = max(1.0, np.max(np.abs(ch.G)))
        assert abs(report["cp_min_eigenvalue"] - cp_min_eigenvalue(ch)) < 1e-12 * scale
    # the fixture symmetric_1to3 at least lacks nothing
    assert unlit >= 1


def test_verify_circuit_passes_on_symmetric_and_near_symmetric_designs(tmp_path):
    # the tap reflectance used to be sqrt(1 - t^2), which loses half the
    # digits near the symmetric point t = 1 and made 105 of these fail.  The
    # amplitude each clone lacks after the amplifier has norm 0 (178 of the
    # symmetric designs) to 5e-8 (eps = +-1e-7) here, and 5e-12 at M = 200,
    # eps = +-1e-9: v_1 comes from one QR at any size of it
    profiles = [symmetric_profile(n, m) for m in range(2, 31) for n in range(1, m)]
    for m, n in ((2, 1), (3, 1), (3, 2), (20, 1), (20, 2), (200, 1)):
        for eps in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-8, -1e-8, 1e-7, -1e-7, 1e-6, -1e-6,
                    1e-4, -1e-4):
            weights = np.ones(m)
            weights[-1] += eps
            profiles.append(design_from_weights(weights, n, m)[0])
    path = tmp_path / "amp.json"
    for profile in profiles:
        for scheme in ("amplifier", "feedforward"):
            _, report = verify_circuit(profile, scheme)
            assert report["passed"], (profile, scheme, report)
        # and the amplifier's document, checked by the channel its numbers make
        circ = build_interferometer(profile)
        path.write_text(circuit_text(profile, "amplifier", circ))
        loaded = load_circuit(str(path))[3]
        assert loaded["passed"] and loaded["mean_residual"] <= 1e-12, (profile, loaded)
        out = amplifier_output_state(circ, profile, 1.0)
        assert np.max(np.abs(mode_amplitudes(out) - 1.0)) < 1e-12


def _term_size(vecs, weights):
    """max_l |w_l| |u_l|^2 over the rows u_l of `vecs`: the size of the terms
    of sum_l w_l u_l u_l^T, and so the scale of a verdict on its spectrum."""
    return float(np.max(np.abs(weights) * np.sum(vecs * vecs, axis=1)))


def _verdict_scales(profile):
    """The term sizes of B - G_opt, of B +- P and of the scheme comparison's
    covariance difference, from the amplifier's and the feedforward's terms."""
    m, n = profile.m_out, profile.n_in
    _, vecs, (w_s, *w) = build_interferometer(profile).moments()
    f = np.sqrt(profile.noises)
    g_opt = _term_size(np.vstack([vecs, f, np.ones(m)]), [w_s - 1.0, *w, -2.0, 1.0 / n])
    cp = max(_term_size(vecs, [w_s + d, *w]) for d in (0.0, -2.0))
    gains = feedforward_params(profile).gains
    return g_opt, cp, _term_size(np.vstack([vecs, gains]), [w_s, *w, -2.0])


def test_verify_circuit_accuracy_at_large_m():
    rng = np.random.default_rng(32)
    for m in (100, 500, 1000):
        for n in (1, 3):
            profile, _ = random_optimal_profile(rng, n_in=n, m_out=m)
            _, amp = verify_circuit(profile, "amplifier")
            _, ff = verify_circuit(profile, "feedforward")
            assert amp["passed"] and ff["passed"]
            # largest seen, as a fraction of the terms' size (TOL is 1e-9):
            # V^T V and kappa kappa^T 1.3e-15 at M = 500, N = 1, of terms of
            # size 1; B - G_opt 4.8e-15 of terms of size about 2 n_tot at
            # M = 1000, N = 3; the scheme discrepancy 1.6e-15 at M = 1000,
            # N = 1; the CP margin 4.6e-16 at M = 500, N = 3.  With t taken
            # from n_tot N, they read up to 1.5e-13, 7.6e-14, 7.2e-14 and
            # 9.0e-14.  The feedforward clone means read at most 5.6e-16
            g_opt, cp, scheme = _verdict_scales(profile)
            assert max(amp["unitarity_residual"], amp["kappa_gram_residual"]) < 1e-11
            assert amp["g_opt_residual"] < 1e-12 * g_opt
            assert ff["mean_residual"] < 1e-15
            assert scheme_equivalence_check(profile)["discrepancy"] < 1e-12 * scheme
            assert abs(amp["cp_min_eigenvalue"]) < 1e-12 * cp
    # the feedforward check is O(M): at M = 10^4 and 10^5 its clone means
    # read at most 6.7e-16, and the scheme discrepancy at most 8.9e-16 of the
    # size of its terms.  With the splitter denominator taken as
    # (2 + n_tot) N - M that grew by about M eps, to 5.3e-13 at M = 10^4,
    # N = 1 and 2.0e-12 at M = 10^5, N = 3
    for m in (10**4, 10**5):
        for n in (1, 3):
            profile, _ = random_optimal_profile(rng, n_in=n, m_out=m)
            _, ff = verify_circuit(profile, "feedforward")
            assert ff["passed"] and ff["gain_noise_residual"] < 1e-12
            assert ff["mean_residual"] <= 1e-15
            discrepancy = scheme_equivalence_check(profile)["discrepancy"]
            assert discrepancy < 1e-15 * m * _verdict_scales(profile)[2]


@pytest.mark.parametrize("dip, passed", [(1e-10, True), (1e-6, False)])
def test_cp_margin_is_held_to_the_size_of_its_terms(monkeypatch, dip, passed):
    # at N = 1, M = 200 the terms of B +- P have size up to
    # g^2 = 1 + n_tot, about 200, while max|B| is about 2; a dip of 1e-10 of
    # their size is rounding on them, but 10 TOL max|B|
    profile, _ = random_optimal_profile(np.random.default_rng(43), n_in=1, m_out=200)
    circ, clean = verify_circuit(profile, "amplifier")
    b_max = np.max(np.abs(channel_from_amplifier(circ, profile).G))
    spectra, scales = circuits.low_rank_spectra, []

    def dipped(vecs, weights):
        values, sizes = spectra(vecs, weights)
        scales.append(max(sizes[1:]))
        values[1, 0] = -dip * scales[-1]
        return values, sizes

    monkeypatch.setattr(circuits, "low_rank_spectra", dipped)
    _, report = verify_circuit(profile, "amplifier")
    assert len(scales) == 1 and scales[0] > 10 * max(1.0, b_max)
    assert scales[0] == pytest.approx(_verdict_scales(profile)[1], rel=1e-12)
    assert report["cp_min_eigenvalue"] == -dip * scales[0]
    assert report["passed"] == passed
    # B and its residual do not move
    moved = {key for key in report if report[key] != clean[key]}
    assert moved == {"cp_min_eigenvalue"} | ({"passed"} if not passed else set())


def test_amplifier_check_and_channel_solve_no_eigenproblem_that_grows_with_m(monkeypatch):
    shapes = []
    for name in ("eigvalsh", "eigh", "eig"):
        def recorded(a, *args, solve=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    largest = []
    for m in (40, 400):
        profile, _ = random_optimal_profile(np.random.default_rng(37), n_in=2, m_out=m)
        circ, report = verify_circuit(profile, "amplifier")
        channel_from_amplifier(circ, profile)
        assert report["passed"] and shapes
        largest.append(max(max(shape[-2:]) for shape in shapes))
        shapes.clear()
    # the verdicts come from the cores over (s, v_1, kappa_1, v_M, f, 1)
    assert largest == [6, 6], largest



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
        pairs = [
            (amplifier_output_state(build_interferometer(profile), profile, alpha), st_amp),
            (feedforward_output_state(feedforward_params(profile), profile.n_in, alpha), st_ff),
        ]
        tol = 1e-10 * max(1.0, np.max(np.abs(st_amp.cov)))
        for state, dense in pairs:
            assert np.max(np.abs(state.mean - dense.mean)) < tol
            assert np.max(np.abs(state.cov - dense.cov)) < tol
        report, dense_report = scheme_equivalence_check(profile), _dense_scheme_equivalence(profile)
        assert report["passed"] == dense_report["passed"]
        assert abs(report["mean_discrepancy"] - dense_report["mean_discrepancy"]) < tol
        # the covariance difference is a spectral norm, at rounding level of
        # the size of its terms, about 2 n_tot, and no less than its entries
        scale = _verdict_scales(profile)[2]
        assert report["cov_discrepancy"] < 1e-12 * scale
        assert dense_report["cov_discrepancy"] < report["cov_discrepancy"] + tol


def _count_completions(monkeypatch):
    """The list to which every completion of V, a `_block_tree_completion`
    call, appends its size M from now on."""
    completions, complete = [], circuits._block_tree_completion

    def counted(live):
        completions.append(live.shape[0])
        return complete(live)

    monkeypatch.setattr(circuits, "_block_tree_completion", counted)
    return completions


def test_feedforward_verification_builds_no_interferometer(monkeypatch, tmp_path):
    completions, params = _count_completions(monkeypatch), []
    profile, _ = random_optimal_profile(np.random.default_rng(34), n_in=2, m_out=7)
    verify_circuit(profile, "amplifier")
    assert completions == [7]

    # a feedforward circuit is checked by its own clone means and gains: the
    # check and the feedforward commands build it once and no amplifier
    def refuse(profile):
        raise AssertionError("the feedforward check built an amplifier")

    monkeypatch.setattr(circuits, "build_interferometer", refuse)
    feedforward = circuits.feedforward_params
    monkeypatch.setattr(circuits, "feedforward_params", lambda p: params.append(p) or feedforward(p))
    _, report = verify_circuit(profile, "feedforward")
    assert report["passed"] and len(params) == 1 and set(report) == {
        "reflectances_in_range", "gain_noise_residual", "mean_residual",
        "reflectance_residual", "passed",
    }
    design, circuit = str(tmp_path / "design.json"), str(tmp_path / "ff.json")
    assert main(["design", "--weights", "1,2,3,4,5", "--n-in", "2", "--m-out", "5",
                 "--out", design]) == 0
    assert main(["synth", "--design", design, "--scheme", "feedforward", "--out", circuit]) == 0
    assert main(["verify", "--circuit", circuit]) == 0
    assert main(["simulate", "--circuit", circuit, "--shots", "100"]) == 0
    assert completions == [7]


def test_feedforward_verdict_fails_on_clone_means_alone(monkeypatch):
    # splitting fractions 1e-8 short with the gains as they are: the gains
    # still make the block I + 2F, so only the clone means fail, and the
    # chain, whose beam enters with |d| = 1 - 1e-8.  At the symmetric
    # 1 -> 3 point each clone takes t_tap d_j = 1/3 of its mean through the
    # splitters, so the means are 1e-8 / 3 short
    profile = symmetric_profile(1, 3)
    clean = feedforward_params(profile)
    short = dataclasses.replace(clean, splitting=clean.splitting * (1.0 - 1e-8))
    monkeypatch.setattr(circuits, "feedforward_params", lambda _: short)
    circ, report = verify_circuit(profile, "feedforward")
    assert circ is short and not report["passed"]
    assert report["mean_residual"] == pytest.approx(1e-8 / 3.0, rel=1e-6)
    assert report["reflectance_residual"] == pytest.approx(1e-8, rel=1e-6)
    assert report["gain_noise_residual"] == 0.0 and report["reflectances_in_range"]


def test_only_the_document_and_its_checks_complete_v(monkeypatch, tmp_path):
    completions = _count_completions(monkeypatch)
    profile, _ = random_optimal_profile(np.random.default_rng(37), n_in=2, m_out=40)
    circ = build_interferometer(profile)
    channel_from_amplifier(circ, profile)
    amplifier_output_state(circ, profile, 0.3 + 0.1j)
    scheme_equivalence_check(profile)
    assert verify_circuit(profile, "feedforward")[1]["passed"] and completions == []
    circ, report = verify_circuit(profile, "amplifier")
    # synth checks and writes the document; verify checks the stored numbers
    path = tmp_path / "amp.json"
    path.write_text(circuit_text(profile, "amplifier", circ))
    loaded = load_circuit(str(path))[3]
    assert {key: loaded[key] for key in report} == report
    assert report["passed"] and completions == [40]
    for array in (circ.V, circ.kappa, circ.v_sig, circ.v_noise):
        assert not array.flags.writeable
    assert circ.V is circ.V and circ.kappa is circ.kappa
    # bit for bit, signed zeros included
    assert circ.V[:, 0].tobytes() == circ.v_sig.tobytes()
    assert circ.V[:, -1].tobytes() == circ.v_noise.tobytes()


def test_verify_of_an_amplifier_document_completes_no_v(monkeypatch, tmp_path):
    completions, builds = _count_completions(monkeypatch), []
    build = circuits.build_interferometer
    monkeypatch.setattr(circuits, "build_interferometer", lambda p: builds.append(p) or build(p))
    design, circuit = str(tmp_path / "design.json"), str(tmp_path / "amp.json")
    argv = ["--weights", ",".join(map(str, range(1, 41))), "--n-in", "2", "--m-out", "40"]
    assert main(["design", *argv, "--out", design]) == 0
    assert main(["synth", "--design", design, "--scheme", "amplifier", "--out", circuit]) == 0
    assert completions == [40] and len(builds) == 1
    # nor builds a circuit: it checks the channel of the stored numbers
    assert main(["verify", "--circuit", circuit]) == 0
    assert completions == [40] and len(builds) == 1


def _dense_amplifier_check(profile, v, kappa, r):
    """The amplifier report of the circuit (V, kappa) of `profile` with tap
    reflectance r, checked through the padded 2M x 2M channel."""
    g, t = gain_and_transmittance(profile)
    m, n = profile.m_out, profile.n_in
    s_chan = np.zeros((2 * m, 2))
    s_chan[:m, 0] = s_chan[m:, 1] = s = g * t * v[:, m - 1] + r * v[:, 0]
    mean_resid = float(np.max(np.abs(np.sqrt(n) * s_chan - np.kron(np.eye(2), np.ones((m, 1))))))
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
        "mean_residual": mean_resid,
        "transmittance": t,
        "passed": bool(
            within(unitarity)
            and within(kappa_resid, float(np.max(np.abs(target))))
            and within(g_resid, g_max)
            and within(min(0.0, cp_eig), g_max)
            and within(mean_resid)
            and t <= 1.0
        ),
    }


def test_amplifier_check_matches_dense_path_at_rounding_level():
    rng = np.random.default_rng(35)
    profiles = [random_optimal_profile(rng, m_max=60)[0] for _ in range(100)]
    # symmetric designs, where nothing is lacking and v_1 carries no light
    profiles += [symmetric_profile(n, m) for m, n in ((2, 1), (3, 2), (13, 1), (40, 3))]
    profiles += [load_circuit(str(path))[1] for path in sorted(FIXTURES.glob("*.amplifier.json"))]
    moved = ("g_opt_residual", "cp_min_eigenvalue", "mean_residual")
    for profile in profiles:
        circ, report = verify_circuit(profile, "amplifier")
        dense = _dense_amplifier_check(profile, circ.V, circ.kappa, circ.r)
        # the residuals of V^T V and kappa kappa^T, t and the verdict: bit for
        # bit.  The check reads r off kappa_1, so its clone means round apart
        assert {k: report[k] for k in report if k not in moved} == {
            k: dense[k] for k in dense if k not in moved
        }
        # B and the CP margin come from the two live columns here, and from
        # the padded channel with its M-term sums of kappa kappa^T and its
        # M x M eigvalsh in the oracle, which rounds at about M eps max|B|:
        # the largest moves, 5.2e-12 and 3.1e-12 of max(1, max|B|), are at
        # N = 43, M = 49, where the oracle reads a CP margin of -6.0e-12 and
        # a G_opt residual of 3.6e-12 and this check -8.2e-17 and 7.4e-16
        scale = max(1.0, float(np.max(np.abs(g_opt_matrix(profile)))))
        for key in moved:
            assert abs(report[key] - dense[key]) < 1e-11 * scale, (profile, key)
        # B - P is 0 off span{v_1, v_M}, which is all of R^M only at M = 2
        assert report["cp_min_eigenvalue"] <= 0.0 or profile.m_out == 2


def test_low_rank_verdicts_bound_the_dense_oracles_and_agree_with_them():
    rng = np.random.default_rng(35)
    profiles = [random_optimal_profile(rng, m_max=60)[0] for _ in range(100)]
    profiles += [symmetric_profile(n, m) for m, n in ((2, 1), (3, 2), (13, 1), (40, 3))]
    profiles += [load_circuit(str(path))[1] for path in sorted(FIXTURES.glob("*.amplifier.json"))]
    for profile in profiles:
        circ, report = verify_circuit(profile, "amplifier")
        dense = _dense_amplifier_check(profile, circ.V, circ.kappa, circ.r)
        scheme, dense_scheme = scheme_equivalence_check(profile), _dense_scheme_equivalence(profile)
        assert report["passed"] == dense["passed"] and scheme["passed"] == dense_scheme["passed"]
        # a spectral norm is no less than the largest entry; the oracles
        # round at about M eps max|B| (see the test above)
        tol = 1e-11 * max(1.0, float(np.max(np.abs(g_opt_matrix(profile)))))
        assert report["g_opt_residual"] > dense["g_opt_residual"] - tol
        assert scheme["cov_discrepancy"] > dense_scheme["cov_discrepancy"] - tol


@pytest.mark.parametrize("field", ["g", "r", "t"])
def test_a_circuit_off_by_1e_7_fails_the_low_rank_check_and_the_dense_oracle(monkeypatch, field):
    # at N = 2, M = 30 the terms of B - G_opt have size 2 n_tot = 28, so the
    # bound is 2.8e-8; the residual reads 3.1e-6, 7.9e-8 and 2.1e-7 for g, r
    # and t, and the oracle's max-entry 1.2e-7, 8.5e-9 and 3.1e-8 against
    # TOL max|B| = 1.6e-9
    profile, _ = random_optimal_profile(np.random.default_rng(38), n_in=2, m_out=30)
    clean = build_interferometer(profile)
    bad = dataclasses.replace(clean, **{field: getattr(clean, field) * (1.0 + 1e-7)})
    monkeypatch.setattr(circuits, "build_interferometer", lambda _: bad)
    _, report = verify_circuit(profile, "amplifier")
    # the oracle takes g and t from the design: hand it the perturbed ones
    monkeypatch.setitem(globals(), "gain_and_transmittance", lambda _: (bad.g, bad.t))
    dense = _dense_amplifier_check(profile, bad.V, bad.kappa, bad.r)
    assert not within(report["g_opt_residual"], _verdict_scales(profile)[0])
    g_max = float(np.max(np.abs(channel_from_amplifier(bad, profile).G)))
    assert not within(dense["g_opt_residual"], g_max) and not dense["passed"]
    assert report["g_opt_residual"] >= dense["g_opt_residual"]


def test_feedforward_verification_memory_is_linear_in_m():
    profile, _ = random_optimal_profile(np.random.default_rng(39), n_in=2, m_out=3000)
    tracemalloc.start()
    try:
        _, report = verify_circuit(profile, "feedforward")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one M x M array of floats is 72 MB here; the check holds M x 5 ones
    assert report["passed"] and peak <= 16e6, peak


def test_amplifier_circuit_carries_the_tap_reflectance_of_its_live_columns():
    rng = np.random.default_rng(36)
    profiles = [random_optimal_profile(rng, m_max=60)[0] for _ in range(50)]
    profiles += [symmetric_profile(n, m) for m, n in ((2, 1), (3, 2), (13, 1), (40, 3))]
    profiles += _extreme_weight_profiles()
    for profile in profiles:
        circ = build_interferometer(profile)
        g, t = gain_and_transmittance(profile)
        # the amplitude each clone lacks after the amplifier, as the circuit derives it
        lack = 1.0 - g * t * np.sqrt(profile.n_in) * np.sqrt(profile.noises / profile.n_tot)
        # r is v_1 . lack / sqrt(N) up to the rounding of the dot product
        sqrt_n, eps = np.sqrt(profile.n_in), np.finfo(float).eps
        bound = profile.m_out * eps * (np.abs(circ.v_sig) @ np.abs(lack)) / sqrt_n
        assert type(circ.r) is float and abs(circ.r - circ.v_sig @ lack / sqrt_n) <= bound
        # bit for bit: kappa is built from the stored r, it does not recover it
        assert np.array_equal(circ.kappa[:, 0], circ.V[:, 0] * t - circ.V[:, -1] * g * circ.r)


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


def test_interferometer_completion_is_a_block_tree():
    rng = np.random.default_rng(35)
    profiles = [random_optimal_profile(rng, m_max=60)[0] for _ in range(100)]
    profiles += [symmetric_profile(n, m) for m in range(2, 31) for n in range(1, m)]
    profiles += _extreme_weight_profiles()
    profiles += [load_circuit(str(path))[1] for path in sorted(FIXTURES.glob("*.amplifier.json"))]
    for profile in profiles:
        circ = build_interferometer(profile)
        m = profile.m_out
        # each completion column V[:, k], 1 <= k <= M - 2, is zero off the
        # rows of its tree block, and kappa shares them bit for bit
        middle = circ.V[:, 1 : m - 1]
        _, blocks = _tree_interferometer(circ)
        assert len(blocks) == m - 2
        for col, (lo, hi) in zip(middle.T, blocks):
            assert not col[:lo].any() and not col[hi:].any()
        assert circ.kappa[:, 1:].tobytes() == middle.tobytes()
        # 2M nonzeros at most per level of the tree, and the two live columns
        assert np.count_nonzero(circ.V) <= 2 * m * math.ceil(math.log2(m)) + 2 * m
        # and no zero is negative, which a document would write as -0.0
        assert not np.signbit(circ.V[circ.V == 0.0]).any()
        assert not np.signbit(circ.kappa[circ.kappa == 0.0]).any()
        # V is orthogonal to rounding: all of V^T V - I is at most 1.1e-14 on
        # these designs, reached by the norms of v_1 and v_M, which the
        # completion does not touch; its own rows, against itself and the live
        # columns, are at most 4.2e-15
        gram = circ.V.T @ circ.V - np.eye(m)
        assert np.max(np.abs(gram)) <= 2e-14
        assert np.max(np.abs(gram[1 : m - 1]), initial=0.0) <= 1e-14


def test_completion_of_live_columns_with_zero_blocks_has_no_negative_zero():
    # where both live columns vanish on a whole block, its rows get a zero
    # basis, and at the next level 0 * x summed over negative x is -0.0,
    # which a document would write as -0.0
    rng = np.random.default_rng(38)
    for m, rows in ((8, [0, 1, 4, 5]), (9, [0, 1, 4, 5, 8])):
        for _ in range(20):
            live = np.zeros((m, 2))
            live[rows] = np.linalg.qr(rng.standard_normal((len(rows), 2)))[0]
            circ = AmplifierCircuit(1.0, 1.0, 0.0, live[:, 0], live[:, 1])
            v = circ.V
            assert not np.signbit(v[v == 0.0]).any()
            assert np.max(np.abs(v.T @ v - np.eye(m))) <= 1e-14
            for col, (lo, hi) in zip(v[:, 1 : m - 1].T, _tree_interferometer(circ)[1]):
                assert not col[:lo].any() and not col[hi:].any()
