import ast
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import gaussclone

from gaussclone import (
    CloneMarginal,
    GaussianChannel,
    GaussianState,
    clone_marginal,
    coherent_state,
    mode_amplitudes,
)
from gaussclone.certificate import build_certificate, build_problem, k_matrix
from gaussclone.circuits import (
    build_interferometer,
    channel_from_amplifier,
    clone_output_cov,
    feedforward_params,
    g_opt_matrix,
)
from gaussclone.core import TOL, amplitudes, quadrature_mean, within, xp_matrix
from gaussclone.design import NoiseProfile, design_from_weights, symmetric_profile

from conftest import (
    apply_channel,
    cp_min_eigenvalue,
    identity_channel,
    random_optimal_profile,
    symplectic_form,
    vacuum_state,
)

EPS = np.finfo(float).eps


def is_physical(state, tol=TOL):
    """Whether cov + iJ is positive semidefinite to `tol`."""
    j = symplectic_form(state.num_modes)
    return np.linalg.eigvalsh(state.cov + 1j * j)[0] >= -tol


def compose_channels(second, first):
    """Channel equivalent to applying `first` then `second`."""
    if first.m_out != second.m_in:
        raise ValueError("mode-count mismatch in channel composition")
    return GaussianChannel(
        first.m_in,
        second.m_out,
        second.S @ first.S,
        second.S @ first.G @ second.S.T + second.G,
    )


def husimi_q(marginal, beta):
    """Husimi Q-function of a displaced thermal clone, evaluated at beta."""
    n = marginal.thermal_noise
    if n < 0:
        raise ValueError("thermal noise must be non-negative")
    d2 = abs(marginal.coherent_amplitude - beta) ** 2
    return float(np.exp(-d2 / (n + 1.0)) / (np.pi * (n + 1.0)))


def mean_map_matrix(n_in, m_out):
    """2M x 2 matrix S replicating the collected-mode mean into every clone."""
    s = np.zeros((2 * m_out, 2))
    s[:m_out, 0] = 1.0 / np.sqrt(n_in)
    s[m_out:, 1] = 1.0 / np.sqrt(n_in)
    return s


def random_cp_channel(rng, m_in, m_out):
    s = rng.standard_normal((2 * m_out, 2 * m_in))
    q = rng.standard_normal((2 * m_out, 2 * m_out))
    g = q @ q.T / (2 * m_out)
    k = symplectic_form(m_out) - s @ symplectic_form(m_in) @ s.T
    mu = np.linalg.eigvalsh(g + 1j * k)[0]
    if mu < 0:
        g = g + (-mu + 1e-12) * np.eye(2 * m_out)
    return GaussianChannel(m_in, m_out, s, g)


def random_physical_state(rng, m):
    w = rng.standard_normal((2 * m, 2 * m))
    cov = np.eye(2 * m) + w @ w.T / (2 * m)
    return GaussianState(m, rng.standard_normal(2 * m), cov)


def test_symplectic_form_invariants():
    for m in (1, 2, 5):
        j = symplectic_form(m)
        assert np.array_equal(j.T, -j)
        assert np.allclose(j @ j, -np.eye(2 * m))


def test_state_validation():
    with pytest.raises(ValueError):
        GaussianState(1, np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        GaussianState(1, np.zeros(3), np.eye(2))


def test_symmetry_checks_scale_with_the_entries():
    # np.allclose let both through: its default rtol of 1e-5 of the entry
    # came on top of a stated absolute bound of 1e-10
    with pytest.raises(ValueError, match="symmetric"):
        GaussianState(1, np.zeros(2), np.array([[1e3, 100.0], [100.0 + 5e-4, 1e3]]))
    with pytest.raises(ValueError, match="symmetric"):
        GaussianChannel(1, 1, np.eye(2), np.array([[1.0, 0.5], [0.5 + 4e-6, 1.0]]))
    # rounding on the scale of the entries still passes
    GaussianState(1, np.zeros(2), np.array([[1e3, 100.0], [100.0 + 1e-10, 1e3]]))
    GaussianChannel(1, 1, np.eye(2), np.array([[1.0, 0.5], [0.5 + 1e-15, 1.0]]))


NON_FINITE = (np.nan, np.inf, -np.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", ["mean", "cov"])
def test_state_rejects_non_finite_entries(name, bad):
    arrays = {"mean": np.zeros(2), "cov": np.eye(2)}
    arrays[name][1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GaussianState(1, **arrays)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", ["S", "G"])
def test_channel_rejects_non_finite_entries(name, bad):
    arrays = {"S": np.eye(2), "G": np.eye(2)}
    arrays[name][0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GaussianChannel(1, 1, **arrays)


def test_within_holds_at_the_boundary_and_fails_on_non_finite_values():
    for scale in (0.0, 0.5, 1.0, 7.0, 1e6):
        bound = TOL * max(1.0, scale)
        assert within(bound, scale) and within(-bound, scale)
        above = np.nextafter(bound, np.inf)
        assert not within(above, scale) and not within(-above, scale)
    for value in (np.nan, np.inf, -np.inf):
        assert not within(value) and not within(value, 1e300)
    assert within(min(0.0, 3.0)) and not within(min(0.0, -2e-9))


def test_within_fails_whenever_the_scale_is_not_finite():
    # max(1, nan) is 1 and TOL * inf admits every value, so neither may pass
    for value in (0.0, 1.0, np.inf, -np.inf):
        assert not within(value, np.inf)
    assert not within(0.0, np.nan) and not within(0.0, -np.inf)


def test_within_takes_no_floor_on_its_unit_and_fails_on_a_bad_unit():
    # a value in units of `unit` is held to TOL max(1, scale) of that unit,
    # however small the unit: the floor of 1 is the scale's alone
    for unit in (2.0**-900, 2.0**-40, 1.0, 2.0**40, 2.0**900):
        for scale in (0.0, 7.0):
            bound = TOL * max(1.0, scale) * unit
            assert within(bound, scale, unit=unit)
            assert not within(2.0 * bound, scale, unit=unit)
    for unit in (0.0, -1.0, np.inf, np.nan):
        assert not within(0.0, unit=unit)
    assert not within(np.nan, unit=1e-12) and not within(1e-300, np.inf, unit=1e-12)


def _small_float_literals(tree):
    """Float literals 0 < |x| < 1e-6 of a module, except those in the value of
    a module-level assignment to a name."""
    named = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and all(isinstance(t, ast.Name) for t in stmt.targets):
            named.update(map(id, ast.walk(stmt.value)))
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-6 and id(node) not in named
    ]


def test_small_float_literals_are_named_module_constants():
    """Verdicts go through core.within; a threshold that picks a computation
    is a named module constant, so no tolerance hides in a literal."""
    stray = []
    for path in sorted(Path(gaussclone.__file__).parent.glob("*.py")):
        for node in _small_float_literals(ast.parse(path.read_text())):
            stray.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not stray, stray
    tree = ast.parse("A = -1e-14\ndef f(x):\n    return x < 1e-12\n")
    assert [node.value for node in _small_float_literals(tree)] == [1e-12]


# the hand-written layouts that the core helpers replace
OWNED_BY_CORE = ("np.block(", "sqrt(2)", "setflags(", "object.__setattr__")


def _owned_by_core(text):
    """The lines of a module's source that spell out the quadrature layout,
    the sqrt(2) amplitude scale or a read-only field by hand."""
    return [line for line in text.splitlines() if any(p in line for p in OWNED_BY_CORE)]


def test_quadrature_layout_and_read_only_fields_are_written_only_in_core():
    stray = []
    for path in sorted(Path(gaussclone.__file__).parent.glob("*.py")):
        if path.name != "core.py":
            lines = _owned_by_core(path.read_text())
            stray += [f"{path.name}: {line.strip()}" for line in lines]
    assert not stray, stray
    text = "z = np.block([[a]])\nm = x / math.sqrt(2)\ny = 1\nobject.__setattr__(s, 'a', a)\n"
    assert len(_owned_by_core(text)) == 3


def test_amplitude_and_quadrature_helpers_round_trip():
    rng = np.random.default_rng(5)
    for m in (1, 2, 7):
        amps = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        mean = quadrature_mean(amps)
        x, p = np.sqrt(2) * amps.real, np.sqrt(2) * amps.imag
        assert np.array_equal(mean, np.concatenate([x, p]))
        back = quadrature_mean(amplitudes(mean))
        assert np.max(np.abs(amplitudes(mean) - amps)) <= 4 * EPS * np.max(np.abs(amps))
        assert np.max(np.abs(back - mean)) <= 4 * EPS * np.max(np.abs(mean))
        st = GaussianState(m, mean, np.eye(2 * m))
        assert np.array_equal(coherent_state(amps).mean, mean)
        assert np.array_equal(mode_amplitudes(st), (mean[:m] + 1j * mean[m:]) / np.sqrt(2))
        marginals = [clone_marginal(st, j).coherent_amplitude for j in range(m)]
        assert marginals == list(amplitudes(mean))


def test_xp_matrix_gives_the_dense_blocks_entry_by_entry():
    a, c = np.arange(4.0).reshape(2, 2), np.arange(4.0, 8.0).reshape(2, 2)
    want = [[0, 1, 4, 5], [2, 3, 6, 7], [-4, -5, 0, 1], [-6, -7, 2, 3]]
    assert np.array_equal(xp_matrix(a, c), want)
    for m in (1, 2, 5):
        eye, zero = np.eye(m), np.zeros((m, m))
        assert np.array_equal(symplectic_form(m), np.block([[zero, eye], [-eye, zero]]))
        for n in range(1, m + 1):
            p = eye - np.ones((m, m)) / n
            assert np.array_equal(k_matrix(n, m), np.block([[zero, p], [-p, zero]]))
    profile, weights = design_from_weights(np.array([1.0, 2.0, 3.0, 5.0]), 2, 4)
    f, zero = np.sqrt(profile.noises), np.zeros((4, 4))
    blocks = {
        "g_opt": (g_opt_matrix(profile), np.eye(4) + 2 * np.outer(f, f) - np.ones((4, 4)) / 2),
        "cov": (clone_output_cov(profile), np.eye(4) + 2 * np.outer(f, f)),
    }
    for name, (dense, block) in blocks.items():
        assert np.array_equal(dense, np.block([[block, zero], [zero, block]])), name
        assert not np.signbit(dense[4:, :4]).any(), name  # no negative zeros
    s = channel_from_amplifier(build_interferometer(profile), profile).S
    col, zero_col = s[:4, :1], np.zeros((4, 1))
    assert np.array_equal(s, np.block([[col, zero_col], [zero_col, col]]))
    cert = build_certificate(build_problem(profile, weights))
    x = np.diag(cert.x)
    y = -x - 2.0 * cert.eta * np.outer(cert.v, cert.v)
    assert np.array_equal(cert.Z, np.block([[x, 1j * y], [-1j * y, x]]))


def test_array_fields_are_read_only_floats():
    profile = NoiseProfile(1, 3, [2, 2, 2])
    assert profile.noises.dtype == np.float64
    profile = symmetric_profile(1, 3)
    for obj, names in (
        (profile, ["noises"]),
        (coherent_state([1.0, 2j]), ["mean", "cov"]),
        (identity_channel(2), ["S", "G"]),
        (build_interferometer(profile), ["V", "kappa"]),
        (feedforward_params(profile), ["gains", "reflectances", "splitting"]),
    ):
        for name in names:
            value = getattr(obj, name)
            assert value.dtype == np.float64, (type(obj), name)
            with pytest.raises(ValueError, match="read-only"):
                value[(0,) * value.ndim] = 1.0


def test_failed_construction_leaves_the_callers_array_writable():
    bad_cov = np.array([[1.0, 0.5], [0.0, 1.0]])
    bad_noises = np.array([0.5, -1.0])
    for build, array in (
        (lambda: GaussianState(1, np.zeros(2), bad_cov), bad_cov),
        (lambda: GaussianChannel(1, 1, np.eye(2), bad_cov), bad_cov),
        (lambda: NoiseProfile(1, 2, bad_noises), bad_noises),
    ):
        with pytest.raises(ValueError):
            build()
        assert array.flags.writeable
    # a construction that succeeds stores a read-only copy of the caller's
    # float array and leaves the array itself writable
    cov = np.eye(2)
    state = GaussianState(1, np.zeros(2), cov)
    assert state.cov is not cov and not np.shares_memory(state.cov, cov)
    assert cov.flags.writeable and not state.cov.flags.writeable
    cov[0, 0] = 2.0
    assert state.cov[0, 0] == 1.0
    noises = np.array([0.5, 0.5])
    gains = np.array([1.0, 1.0])
    for obj, name, array in (
        (GaussianChannel(1, 1, np.eye(2), cov.T), "G", cov.T),
        (NoiseProfile(1, 2, noises), "noises", noises),
        (dataclasses.replace(feedforward_params(symmetric_profile(1, 2)), gains=gains),
         "gains", gains),
    ):
        assert not np.shares_memory(getattr(obj, name), array)
        assert array.flags.writeable


def test_coherent_state_convention():
    st = coherent_state([1 + 2j])
    assert np.allclose(st.mean, [np.sqrt(2), 2 * np.sqrt(2)])
    assert np.allclose(st.cov, np.eye(2))
    assert is_physical(st)
    assert mode_amplitudes(st)[0] == pytest.approx(1 + 2j)


def test_apply_identity_channel():
    rng = np.random.default_rng(0)
    st = random_physical_state(rng, 3)
    out = apply_channel(identity_channel(3), st)
    assert np.allclose(out.mean, st.mean)
    assert np.allclose(out.cov, st.cov)


def test_apply_channel_symmetric_cloner_diagonal():
    # optimal 1->2 symmetric cloner applied to a coherent state: each clone
    # quadrature variance is 1 + 2 * (1/2) = 2
    profile = symmetric_profile(1, 2)
    ch = GaussianChannel(1, 2, mean_map_matrix(1, 2), g_opt_matrix(profile))
    out = apply_channel(ch, coherent_state([0.7 - 0.2j]))
    assert np.allclose(np.diag(out.cov), 2.0)
    assert np.allclose(mode_amplitudes(out), 0.7 - 0.2j)


def test_apply_channel_composition():
    rng = np.random.default_rng(1)
    for _ in range(10):
        ch1 = random_cp_channel(rng, 2, 3)
        ch2 = random_cp_channel(rng, 3, 2)
        st = random_physical_state(rng, 2)
        stepwise = apply_channel(ch2, apply_channel(ch1, st))
        once = apply_channel(compose_channels(ch2, ch1), st)
        assert np.max(np.abs(stepwise.mean - once.mean)) < 1e-12
        assert np.max(np.abs(stepwise.cov - once.cov)) < 1e-12


def test_apply_channel_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_channel(identity_channel(2), vacuum_state(3))


def test_cp_min_eigenvalue_identity():
    assert abs(cp_min_eigenvalue(identity_channel(2))) < 1e-12


def test_cp_min_eigenvalue_optimal_cloner():
    profile = symmetric_profile(1, 2)
    ch = GaussianChannel(1, 2, mean_map_matrix(1, 2), g_opt_matrix(profile))
    assert cp_min_eigenvalue(ch) >= -1e-10


def test_cp_min_eigenvalue_noiseless_cloning_negative():
    # perfect cloning (G = 0 with the mean-replicating S) is not CP; for
    # 1->2 the min eigenvalue of iK is exactly -1
    ch = GaussianChannel(1, 2, mean_map_matrix(1, 2), np.zeros((4, 4)))
    assert cp_min_eigenvalue(ch) == pytest.approx(-1.0, abs=1e-12)


def test_cp_channel_preserves_physicality():
    rng = np.random.default_rng(2)
    for _ in range(20):
        ch = random_cp_channel(rng, 2, 3)
        st = random_physical_state(rng, 2)
        assert is_physical(apply_channel(ch, st), tol=1e-8)


@pytest.mark.parametrize(
    "diag,n,fid",
    [(1.0, 0.0, 1.0), (2.0, 0.5, 2 / 3), (5.0, 2.0, 1 / 3)],
)
def test_clone_marginal_noise_and_fidelity(diag, n, fid):
    cov = np.diag([diag, 3.0, diag, 3.0])
    st = GaussianState(2, np.array([np.sqrt(2), 0.0, 0.0, 0.0]), cov)
    marg = clone_marginal(st, 0)
    assert marg.thermal_noise == pytest.approx(n, abs=1e-12)
    assert marg.fidelity == pytest.approx(fid, abs=1e-12)
    assert marg.coherent_amplitude == pytest.approx(1.0)


def test_clone_marginal_noise_bijection():
    for n in (0.0, 0.5, 1.0, 2.0, 10.0):
        cov = np.eye(2) * (1 + 2 * n)
        st = GaussianState(1, np.zeros(2), cov)
        assert clone_marginal(st, 0).thermal_noise == pytest.approx(n, abs=1e-12)


def test_clone_marginal_rejects_anisotropy():
    st = GaussianState(1, np.zeros(2), np.diag([1.0, 3.0]))
    with pytest.raises(ValueError, match="isotropic"):
        clone_marginal(st, 0)


def test_husimi_q_peak_values():
    assert husimi_q(CloneMarginal(0.3 + 0.1j, 0.0, 1.0), 0.3 + 0.1j) == pytest.approx(1 / np.pi)
    assert husimi_q(CloneMarginal(1.0, 0.5, 2 / 3), 1.0) == pytest.approx(2 / (3 * np.pi))


def test_husimi_q_normalization():
    rng = np.random.default_rng(3)
    for _ in range(3):
        marg = CloneMarginal(
            complex(rng.normal(), rng.normal()), float(rng.uniform(0, 5)), 0.0
        )
        width = np.sqrt(marg.thermal_noise + 1)
        cx, cy = marg.coherent_amplitude.real, marg.coherent_amplitude.imag
        total, _ = integrate.dblquad(
            lambda y, x: husimi_q(marg, complex(x, y)),
            cx - 10 * width,
            cx + 10 * width,
            cy - 10 * width,
            cy + 10 * width,
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def test_circuit_channels_are_cp():
    rng = np.random.default_rng(4)
    from gaussclone import build_interferometer, channel_from_amplifier

    for _ in range(10):
        profile, _ = random_optimal_profile(rng)
        ch = channel_from_amplifier(build_interferometer(profile), profile)
        assert cp_min_eigenvalue(ch) >= -1e-10
