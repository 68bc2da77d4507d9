import dataclasses
import decimal
import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize

import gaussclone
from gaussclone import (
    CostWeights,
    InfeasibleDesignError,
    NoiseProfile,
    OffSurfaceError,
    SimConfig,
    build_problem,
    design_from_weights,
    estimation_tradeoff,
    feedforward_params,
    last_noise_roots,
    residual,
    solve_last_noise,
    symmetric_profile,
)
from gaussclone.circuits import gain_and_transmittance
from gaussclone.cli import main
from gaussclone.core import TOL
from gaussclone.design import require_on_surface

from conftest import random_optimal_profile


def reduce_perfect_clone(profile):
    """Strip one perfect (zero-noise) clone, giving an (N-1)->(M-1) profile.

    A perfect clone just passes one input replica through, so the surface
    residual is preserved exactly.
    """
    zeros = np.flatnonzero(profile.noises <= TOL)
    if zeros.size == 0:
        raise ValueError("no zero-noise clone to remove")
    if profile.n_in < 2:
        raise ValueError("cannot reduce below one input replica")
    keep = np.delete(profile.noises, zeros[0])
    return NoiseProfile(profile.n_in - 1, profile.m_out - 1, keep)


def surface_matrix_determinant(profile):
    """det of I - H/N + F restricted to span{|f>, |h>}; equals residual/N.

    Singularity of I - H/N + F is equivalent to the profile lying on the
    optimal surface.
    """
    n = profile.n_in
    w = np.sqrt(profile.noises)
    f2 = float(w @ w)
    fh = float(np.sum(w))
    b = np.array([[1.0 + f2, fh], [-fh / n, 1.0 - profile.m_out / n]])
    return float(np.linalg.det(b))


def brentq_design(x, n_in, m_out):
    """Multiplier and noises of the weighted design, the multiplier found by
    scanning a geometric grid for a bracket and refining it with brentq."""
    excess = m_out - n_in

    def h(lam):
        return float(np.sum(lam / (lam * excess - x))) - 1.0

    lo, hi = -1e-6, None
    for mag in np.geomspace(1e-6, 1e6, 61):
        if h(-mag) > 0:
            hi = -mag
            break
        lo = -mag
    lam = brentq(h, hi, lo, xtol=1e-14, rtol=8.9e-16)
    coeff = lam / (lam * excess - x)
    s = np.sqrt(excess / (1.0 - excess * np.sum(coeff**2)))
    return lam, (s * coeff) ** 2


def test_residual_known_points():
    assert residual(NoiseProfile(1, 2, np.array([0.5, 0.5]))) == pytest.approx(0, abs=1e-12)
    assert residual(NoiseProfile(1, 3, np.array([0.5, 0.5, 2.0]))) == pytest.approx(0, abs=1e-12)
    assert residual(NoiseProfile(2, 3, np.full(3, 1 / 6))) == pytest.approx(0, abs=1e-12)


def test_residual_rejects_negative_noise():
    with pytest.raises(ValueError):
        NoiseProfile(1, 2, np.array([-0.1, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_profile_rejects_non_finite_noise(bad):
    # the profile and the completion share one noise check
    for check in (lambda v: NoiseProfile(1, 2, v), lambda v: last_noise_roots(v, 1, 3)):
        with pytest.raises(ValueError, match="finite"):
            check(np.array([bad, 0.5]))


def test_solve_last_noise_examples():
    assert solve_last_noise([0.5], 1, 2) == pytest.approx(0.5, abs=1e-12)
    assert solve_last_noise([1.0], 1, 2) == pytest.approx(0.25, abs=1e-12)
    assert solve_last_noise([0.5, 0.5], 1, 3) == pytest.approx(2.0, abs=1e-12)


def test_solve_last_noise_infeasible():
    with pytest.raises(InfeasibleDesignError):
        solve_last_noise([1 / 6, 1 / 6], 1, 3)
    # oracle: no completion anywhere on a wide scan
    partial = np.array([1 / 6, 1 / 6])
    grid = np.linspace(0, 1e3, 200001)
    res = [residual(NoiseProfile(1, 3, np.append(partial, n3))) for n3 in grid[:: 1000]]
    assert min(np.abs(res)) > 0.1


def test_solve_last_noise_returns_smaller_root():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(1, m - 1))
        partial = rng.uniform(0.5, 3.0, m - 1)
        try:
            roots = last_noise_roots(partial, n, m)
        except InfeasibleDesignError:
            continue
        for r in roots:
            full = NoiseProfile(n, m, np.append(partial, r))
            assert abs(residual(full)) < 1e-8
        assert roots == sorted(roots)


def test_one_to_two_completion_over_the_whole_range(capsys):
    # n_1 n_2 = 1/4; the uncentered M - N = 1 form cancelled at large n_1 and
    # a floor on the root then read n_2 = 0 from n_1 = 1e15 on
    eps = np.finfo(float).eps
    for k in range(-300, 301):
        n_1 = 10.0**k
        (n_2,) = last_noise_roots([n_1], 1, 2)
        assert abs(n_1 * n_2 - 0.25) <= 4 * eps * 0.25, k
    assert main(["solve", "--noises", "1e15", "--n-in", "1", "--m-out", "2"]) == 0
    assert capsys.readouterr().out == "optimal n_M = 2.5e-16\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    n_in=st.integers(1, 3),
    excess=st.integers(1, 5),
    logs=st.lists(st.floats(-2.0, 1.7), min_size=7, max_size=7),
)
def test_optimal_completions_lie_on_the_optimal_sheet(n_in, excess, logs):
    # the optimal root once left some clone a negative amplitude
    # S - (M - N) sqrt(n_j): on the surface, but dominated, and refused by
    # the feedforward circuit and the certificate
    m_out = n_in + excess
    partial = 10.0 ** np.array(logs[: m_out - 1])
    try:
        roots = last_noise_roots(partial, n_in, m_out)
    except InfeasibleDesignError:
        return
    profile = NoiseProfile(n_in, m_out, np.append(partial, roots[0]))
    require_on_surface(profile)
    feedforward_params(profile)


@pytest.mark.parametrize("n_in, m_out", [(2, 3), (3, 4), (2, 4), (2, 6), (3, 7), (4, 9)])
def test_a_completion_to_a_perfect_clone_is_exactly_zero(n_in, m_out):
    # c = 0: the other noises lie on the N - 1 -> M - 1 surface, as the
    # symmetric design does ((1/2, 1/2) at 2 -> 3) and a weighted one
    x = np.random.default_rng(m_out).uniform(0.1, 10.0, m_out - 1)
    for partial in (symmetric_profile(n_in - 1, m_out - 1).noises,
                    design_from_weights(x, n_in - 1, m_out - 1)[0].noises):
        assert last_noise_roots(partial, n_in, m_out)[0] == 0.0


def test_symmetric_profile_values():
    p = symmetric_profile(1, 2)
    assert np.allclose(p.noises, 0.5)
    assert np.allclose(p.fidelities(), 2 / 3)
    assert np.allclose(symmetric_profile(3, 3).noises, 0.0)
    p23 = symmetric_profile(2, 3)
    assert np.allclose(p23.noises, 1 / 6)
    assert residual(p23) == pytest.approx(0, abs=1e-12)


def test_design_from_weights_known_solutions():
    p, w = design_from_weights(np.array([1.0, 1.0]), 1, 2)
    assert np.allclose(p.noises, 0.5, atol=1e-10)
    assert w.lagrange == pytest.approx(-1.0, abs=1e-10)

    p, _ = design_from_weights(np.array([1.0, 1.0, 1.0]), 1, 3)
    assert np.allclose(p.noises, 2 / 3, atol=1e-10)

    p, _ = design_from_weights(np.array([1.0, 2.0]), 1, 2)
    assert p.noises[0] == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    assert p.noises[1] == pytest.approx(np.sqrt(2) / 4, abs=1e-10)


def test_design_from_weights_matches_constrained_minimizer():
    # independent oracle: SLSQP minimization over the surface
    rng = np.random.default_rng(12)
    for _ in range(10):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, m))
        x = rng.uniform(0.1, 10.0, m)
        designed, _ = design_from_weights(x, n, m)
        start = symmetric_profile(n, m).noises
        sol = minimize(
            lambda v: x @ v,
            start,
            method="SLSQP",
            constraints=[
                {
                    "type": "eq",
                    "fun": lambda v: residual(NoiseProfile(n, m, np.abs(v))),
                }
            ],
            bounds=[(1e-9, None)] * m,
            options={"ftol": 1e-14, "maxiter": 500},
        )
        assert sol.success
        assert x @ designed.noises <= x @ sol.x + 1e-6


def test_design_cost_is_local_minimum_on_surface():
    rng = np.random.default_rng(13)
    for _ in range(10):
        profile, w = random_optimal_profile(rng, m_max=5)
        n, m = profile.n_in, profile.m_out
        cost0 = w.weights @ profile.noises
        grad = np.sqrt(profile.noises)  # d residual / d n_j up to shared factors
        s = np.sum(grad)
        grad_r = s / np.maximum(grad, 1e-12) - (m - n)
        for _ in range(10):
            d = rng.standard_normal(m)
            d -= (d @ grad_r) / (grad_r @ grad_r) * grad_r
            step = profile.noises + 1e-3 * d / max(np.linalg.norm(d), 1e-12)
            if np.any(step[:-1] <= 0):
                continue
            try:
                roots = last_noise_roots(step[:-1], n, m)
            except InfeasibleDesignError:
                continue
            n_last = min(roots, key=lambda r: abs(r - profile.noises[-1]))
            retracted = NoiseProfile(n, m, np.append(step[:-1], n_last))
            assert w.weights @ retracted.noises >= cost0 - 1e-8


def test_design_matches_brentq_oracle():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        m = int(rng.integers(2, 60))
        n = int(rng.integers(1, m))
        x = rng.uniform(0.1, 10.0, m)
        profile, w = design_from_weights(x, n, m)
        lam, noises = brentq_design(x, n, m)
        assert w.lagrange == pytest.approx(lam, rel=1e-12, abs=0)
        assert np.max(np.abs(profile.noises - noises) / noises) <= 1e-12


# one weight at 1e+-12 of the others; a fixed bracket on [-1e6, -1e-6] and
# brentq failed on each of these
EXTREME_CASES = [(1, 2, i, 12.0) for i in range(2)] + [
    (n, n + 1, i, -12.0) for n in (2, 3, 4) for i in range(n + 1)
]


@pytest.mark.parametrize("n_in, m_out, index, log_ratio", EXTREME_CASES)
def test_design_at_extreme_weight_ratio(n_in, m_out, index, log_ratio):
    x = np.ones(m_out)
    x[index] = 10.0**log_ratio
    profile, w = design_from_weights(x, n_in, m_out)
    assert abs(residual(profile)) <= TOL
    lam = w.lagrange
    assert lam < 0
    assert np.sum(lam / (lam * (m_out - n_in) - x)) == pytest.approx(1.0, abs=1e-12)


# the widest ratio whose accuracy the README states: 1.3e-2 off the surface
# in 60-digit arithmetic; wider ones solve or are refused by name, below
@pytest.mark.parametrize("m_out", (2, 20, 200))
@pytest.mark.parametrize("index", (0, -1))
def test_design_solves_one_weight_at_1e29(m_out, index):
    x = np.ones(m_out)
    x[index] = 1e29
    profile, w = design_from_weights(x, 1, m_out)
    lam = w.lagrange
    assert np.sum(lam / (lam * (m_out - 1) - x)) == pytest.approx(1.0, abs=1e-12)
    # the heavy clone is the least noisy
    assert np.argmin(profile.noises) == index % m_out


@pytest.mark.parametrize("m_out", (2, 20, 200))
@pytest.mark.parametrize("index", (0, -1))
@pytest.mark.parametrize("log_ratio", (29, 30, 33, 40, 60, 100, 200, 300,
                                       -30, -33, -40, -60, -100, -200, -300))
def test_design_at_a_weight_ratio_beyond_1e29_solves_or_is_refused_by_name(
    m_out, index, log_ratio
):
    # 1e30 and 1e33 solve at every M; 1e40 and beyond at M = 2, and as the
    # first weight at M = 20, are refused, as is 1e-33 at M = 2.  No bare
    # ZeroDivisionError, OverflowError or math domain error escapes
    x = np.ones(m_out)
    x[index] = 10.0**log_ratio
    try:
        profile, _ = design_from_weights(x, 1, m_out)
    except ValueError as err:
        assert log_ratio not in (30, 33)
        assert str(err) == "degenerate scale equation; multiplier solve failed"
    else:
        require_on_surface(profile)


def surface_term_size(profile):
    """N M fbar^2 + (M - N)(V + 1) with f = sqrt(n) and V = sum (f - fbar)^2."""
    f = np.sqrt(profile.noises)
    v = float(np.sum((f - f.mean()) ** 2))
    return profile.n_in * profile.m_out * f.mean() ** 2 + (profile.m_out - profile.n_in) * (v + 1)


def decimal_residual(profile):
    """(sum sqrt(n))^2 - (M - N)(sum n + 1) of the float noises, in 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        n = [decimal.Decimal(x) for x in profile.noises.tolist()]
        s = sum(x.sqrt() for x in n)
        return float(s * s - (profile.m_out - profile.n_in) * (sum(n) + 1))


def test_residual_matches_a_60_digit_oracle():
    # the centered residual is good to a few eps of its terms; the S^2 form
    # was 4.3e4 eps off at 1 -> 10^5.  The last profile beats the cloning
    # bound, with every noise 2e-5 below (M - N) / (M N)
    rng = np.random.default_rng(3)
    heavy = np.ones(200)
    heavy[0] = 1e12
    profiles = [
        symmetric_profile(1, 10**5),
        design_from_weights(rng.uniform(0.1, 10.0, 50), 3, 50)[0],
        design_from_weights(heavy, 1, 200)[0],
        NoiseProfile(1, 10**5, np.full(10**5, (1 - 1e-5) * (1 - 2e-5))),
    ]
    eps = np.finfo(float).eps
    for profile in profiles:
        exact, size = decimal_residual(profile), surface_term_size(profile)
        assert abs(residual(profile) - exact) <= 4 * eps * size
    assert exact / size == pytest.approx(-1.0e-5, rel=1e-4)
    with pytest.raises(OffSurfaceError, match="profile residual -2 exceeds"):
        require_on_surface(profiles[-1])


def test_designs_and_completions_at_large_m():
    # the S^2 forms left designs 6e-11 to 1.2e-10 of their terms off the
    # surface here, and their completions 1.5e-5 to 3.9e-5 off n_M
    for seed in range(3):
        x = np.random.default_rng(seed).uniform(0.1, 10.0, 10**6)
        profile, _ = design_from_weights(x, 1, 10**6)
        assert abs(residual(profile)) <= 1e-15 * surface_term_size(profile)
        n_m = last_noise_roots(profile.noises[:-1], 1, 10**6)[0]
        assert n_m == pytest.approx(profile.noises[-1], rel=1e-8)
    profile = symmetric_profile(7, 10**5)
    n_m = last_noise_roots(profile.noises[:-1], 7, 10**5)[0]
    assert n_m == pytest.approx(profile.noises[-1], rel=1e-10)


def test_design_is_exact_under_a_power_of_two_scale_of_the_weights():
    # scaling x by 2^j scales lam by 2^j and leaves the noises, bit for bit;
    # at 2^+-500 the solve in raw units overflowed or underflowed d^2
    rng = np.random.default_rng(21)
    cases = [(rng.uniform(0.1, 10.0, m), n) for m, n in ((2, 1), (3, 2), (7, 3), (40, 1))]
    for m, n in ((2, 1), (3, 1), (5, 2), (20, 1)):
        for log_weight in (-12.0, 12.0):
            x = np.ones(m)
            x[m // 2] = 10.0**log_weight
            cases.append((x, n))
    for x, n in cases:
        profile, w = design_from_weights(x, n, x.size)
        for j in (-900, -601, -500, -1, 1, 333, 500, 900):
            scaled, w_scaled = design_from_weights(np.ldexp(x, j), n, x.size)
            assert scaled.noises.tobytes() == profile.noises.tobytes(), (x, j)
            assert w_scaled.lagrange == np.ldexp(w.lagrange, j), (x, j)


def test_surface_checks_reject_criterion_7_perturbations():
    """The bound scaled by the centered terms rejects the profiles that
    criterion 7 moves off the surface by a residual of +-0.05."""
    rng = np.random.default_rng(16)
    checks = (
        lambda p, w: require_on_surface(p),
        lambda p, w: gain_and_transmittance(p),
        lambda p, w: feedforward_params(p),
        lambda p, w: build_problem(p, w),
        lambda p, w: SimConfig(p, 0.5, 10, 0),
    )
    for _ in range(50):
        profile, weights = random_optimal_profile(rng)
        m, n = profile.m_out, profile.n_in
        for sign in (-1, 1):
            perturbed = NoiseProfile(n, m, (1.0 + sign * 0.05 / (m - n)) * profile.noises)
            for check in checks:
                with pytest.raises(OffSurfaceError):
                    check(perturbed, weights)


def test_design_permutation_equivariance():
    rng = np.random.default_rng(14)
    x = rng.uniform(0.1, 10.0, 4)
    p, _ = design_from_weights(x, 1, 4)
    perm = rng.permutation(4)
    p_perm, _ = design_from_weights(x[perm], 1, 4)
    assert np.allclose(p_perm.noises, p.noises[perm], atol=1e-10)


# the design solve and the weights type share one weight check
WEIGHT_CHECKS = (lambda x: design_from_weights(x, 1, x.size), lambda x: CostWeights(x, -1.0))


def test_design_rejects_nonpositive_weights():
    for check in WEIGHT_CHECKS:
        with pytest.raises(ValueError):
            check(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            check(np.array([1.0, -1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_weights_reject_non_finite(bad):
    for check in WEIGHT_CHECKS:
        with pytest.raises(ValueError, match="finite"):
            check(np.array([bad, 1.0, 2.0]))


def test_cost_weights_reject_a_missing_non_finite_or_non_negative_multiplier():
    x = np.array([1.0, 2.0])
    with pytest.raises(TypeError):
        CostWeights(x)
    for lam in (None, np.nan, -np.inf, np.inf, 0.0, 2.0):
        with pytest.raises((TypeError, ValueError)):
            CostWeights(x, lam)


def test_every_package_dataclass_is_frozen():
    modules = [
        importlib.import_module(f"gaussclone.{info.name}")
        for info in pkgutil.iter_modules(gaussclone.__path__)
    ]
    classes = {
        cls
        for module in modules
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
        and dataclasses.is_dataclass(cls)
    }
    assert {CostWeights, NoiseProfile, SimConfig} <= classes
    assert [c.__name__ for c in classes if not c.__dataclass_params__.frozen] == []
    with pytest.raises(dataclasses.FrozenInstanceError):
        CostWeights(np.ones(2), -1.0).lagrange = -2.0


def test_design_from_weights_leaves_the_callers_weights_unchanged_and_writable():
    x = np.array([1.0, 2.0, 5.0])
    before = x.copy()
    _, weights = design_from_weights(x, 1, 3)
    assert np.array_equal(x, before)
    assert x.flags.writeable
    assert not weights.weights.flags.writeable and not np.shares_memory(weights.weights, x)
    x[0] = 7.0
    assert weights.weights[0] == 1.0


def test_estimation_tradeoff_points():
    pt = estimation_tradeoff(1.0)
    assert pt.n_g == pytest.approx(1.0, abs=1e-12)
    assert pt.fidelity_quantum == pytest.approx(0.5)
    assert pt.fidelity_estimate == pytest.approx(0.5)

    pt = estimation_tradeoff(0.5)
    assert pt.n_g == pytest.approx(1.125, abs=1e-12)
    assert pt.fidelity_quantum == pytest.approx(2 / 3, abs=1e-12)
    assert pt.fidelity_estimate == pytest.approx(8 / 17, abs=1e-12)


def test_estimation_tradeoff_fidelity_relation():
    rng = np.random.default_rng(15)
    for n_f in rng.uniform(0.01, 20.0, 50):
        pt = estimation_tradeoff(float(n_f))
        f = pt.fidelity_quantum
        assert pt.fidelity_estimate == pytest.approx(
            4 * f * (1 - f) / (4 * f * (1 - f) + 1), abs=1e-12
        )


def test_estimation_tradeoff_saturation_at_zero():
    pt = estimation_tradeoff(0.0)
    assert pt.n_g == np.inf
    assert pt.fidelity_estimate == 0.0


def test_estimation_tradeoff_matches_finite_m_limit():
    # finite-M cloner with M-1 equal classical clones at noise n_G: the
    # remaining clone's optimal noise converges to n_F at rate O(1/M)
    n_f = 0.5
    n_g = estimation_tradeoff(n_f).n_g
    m = 10**4
    assert solve_last_noise(np.full(m - 1, n_g), 1, m) == pytest.approx(n_f, abs=1e-3)


def test_estimation_tradeoff_monotonicity():
    left = [estimation_tradeoff(v).n_g for v in np.linspace(0.01, 0.99, 30)]
    right = [estimation_tradeoff(v).n_g for v in np.linspace(1.01, 20.0, 30)]
    assert np.all(np.diff(left) < 0)
    assert np.all(np.diff(right) > 0)


def test_reduce_perfect_clone():
    p = NoiseProfile(2, 3, np.array([0.0, 0.5, 0.5]))
    reduced = reduce_perfect_clone(p)
    assert reduced.n_in == 1 and reduced.m_out == 2
    assert np.allclose(reduced.noises, [0.5, 0.5])
    assert residual(reduced) == pytest.approx(residual(p), abs=1e-12)


def test_reduce_perfect_clone_boundary_and_errors():
    with pytest.raises(ValueError):
        reduce_perfect_clone(NoiseProfile(1, 1, np.array([0.0])))
    with pytest.raises(ValueError):
        reduce_perfect_clone(NoiseProfile(2, 3, np.array([0.2, 0.5, 0.5])))


def test_reduce_preserves_residual_on_random_profiles():
    rng = np.random.default_rng(16)
    for _ in range(20):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(2, m))
        noises = np.append(0.0, rng.uniform(0.0, 3.0, m - 1))
        p = NoiseProfile(n, m, noises)
        assert residual(reduce_perfect_clone(p)) == pytest.approx(residual(p), abs=1e-12)


def test_surface_equivalence_with_matrix_singularity():
    rng = np.random.default_rng(17)
    for _ in range(200):
        if rng.random() < 0.5:
            profile, _ = random_optimal_profile(rng, m_max=6)
            assert abs(surface_matrix_determinant(profile)) < 1e-9
        else:
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, m))
            profile = NoiseProfile(n, m, rng.uniform(0.05, 3.0, m))
            if abs(residual(profile)) < 0.01:
                continue
            det = surface_matrix_determinant(profile)
            assert det == pytest.approx(residual(profile) / n, rel=1e-9)
            assert abs(det) > 1e-9


def test_feasibility_bound():
    rng = np.random.default_rng(18)
    for _ in range(50):
        profile, _ = random_optimal_profile(rng)
        bound = (profile.m_out - profile.n_in) / profile.n_in
        assert profile.n_tot >= bound - 1e-10
    sym = symmetric_profile(2, 5)
    assert sym.n_tot == pytest.approx((5 - 2) / 2, abs=1e-12)
