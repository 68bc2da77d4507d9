"""Numerical verification of the SDP optimality certificate.

Minimizing the weighted noise cost over all Gaussian CP maps with the fixed
mean-replicating S is a linear semidefinite program in the channel noise
matrix G.  A dual certificate Z >= 0 with Tr[Z G] equal to the cost and
Z (G_opt + iK) = 0 proves that G_opt attains the lower bound -i Tr[Z K].
Z is constructed in closed form from the Lagrange multiplier of the
noise-surface minimization.

Z = [[X, iY], [-iY, X]] with X = diag(x) and Y = -X - 2 eta v v^T, where
f = sqrt(n), v = x * f and eta = 1 / (lam (M - N)); the optimal channel has
the rank-one F = f f^T.  So the certificate is built and every condition
checked through closed-form identities on M-vectors, in O(M) time and
memory; the dense 2M x 2M matrix Z is built only on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TOL, within, xp_matrix
from .design import CostWeights, NoiseProfile, require_on_surface

# values per stacked block of the feasible scan; larger blocks gain little
# speed and raise peak memory
SCAN_BLOCK_VALUES = 2**14
# multiplier scale of weights_from_profile; any negative value gives extremal weights
PROFILE_LAGRANGE = -1.0


@dataclass(frozen=True)
class CertifiedProblem:
    """Primal data of the weighted-cost cloning SDP: an on-surface profile
    and cost weights for which it is extremal."""

    profile: NoiseProfile
    weights: CostWeights


@dataclass(frozen=True)
class DualCertificate:
    """Dual certificate Z = [[X, iY], [-iY, X]] with X = diag(x),
    Y = -X - 2 eta v v^T and eta = 1 / (lam (M - N)) < 0."""

    x: np.ndarray
    v: np.ndarray
    eta: float
    dual_bound: float

    @property
    def Z(self) -> np.ndarray:
        """The dense 2M x 2M certificate matrix, built on each access."""
        x = np.diag(self.x)
        return xp_matrix(x, 1j * (-x - 2.0 * self.eta * np.outer(self.v, self.v)))


def k_matrix(n_in: int, m_out: int) -> np.ndarray:
    """K = J_M - S J_1 S^T for the mean-replicating S."""
    return xp_matrix(0.0, np.eye(m_out) - np.ones((m_out, m_out)) / n_in)


def _unit_scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """v 2^-e and e, with the largest entry of v 2^-e in [1/2, 1): a product
    of two entries then neither overflows nor underflows at any scale of the
    weights, and 2^2e scales it back exactly."""
    e = math.frexp(np.max(v))[1]
    return np.ldexp(v, -e), e


def weights_from_profile(profile: NoiseProfile) -> CostWeights:
    """Cost weights for which a profile on the optimal sheet is extremal.

    Inverts the extremal equations x_j = -lam (S / sqrt(n_j) - (M - N)) at
    the multiplier lam = PROFILE_LAGRANGE.  Requires every n_j > 0.
    """
    require_on_surface(profile)
    if np.any(profile.noises <= 0):
        raise ValueError("weights are only defined for strictly noisy clones")
    s = float(np.sum(np.sqrt(profile.noises)))
    x = -PROFILE_LAGRANGE * (s / np.sqrt(profile.noises) - (profile.m_out - profile.n_in))
    if np.any(x <= 0):
        raise ValueError("profile admits no strictly positive extremal weights")
    return CostWeights(x, PROFILE_LAGRANGE)


def extremal_equation_residual(profile: NoiseProfile, weights: CostWeights) -> float:
    """Max residual of x_j sqrt(n_j) - lam (M-N) sqrt(n_j) + lam sum sqrt(n_k)."""
    w = np.sqrt(profile.noises)
    lam = weights.lagrange
    res = weights.weights * w - lam * (profile.m_out - profile.n_in) * w + lam * np.sum(w)
    return float(np.max(np.abs(res)))


def _g_opt_diagonal(profile: NoiseProfile) -> np.ndarray:
    """Diagonal of each block I + 2F - H/N of G_opt, (1 - 1/N) + 2 n: nothing
    cancels, where 1 + 2n - 1/N loses any n below eps at N = 1."""
    return (1.0 - 1.0 / profile.n_in) + 2.0 * profile.noises


def build_problem(profile: NoiseProfile, weights: CostWeights) -> CertifiedProblem:
    """Check an on-surface profile and matching weights as primal SDP data."""
    require_on_surface(profile)
    if weights.weights.shape != (profile.m_out,):
        raise ValueError("weight vector length must equal the clone count")
    mismatch = extremal_equation_residual(profile, weights)
    x, f, lam = weights.weights, np.sqrt(profile.noises), -weights.lagrange
    # the residual rounds on its terms x_j f_j, lam (M - N) f_j and lam S
    size = float(max(np.max(x * f), lam * ((profile.m_out - profile.n_in) * np.max(f) + np.sum(f))))
    if not within(mismatch, size / np.max(x), unit=np.max(x)):
        raise ValueError(
            f"weights are not extremal for this profile (residual {mismatch:.3g} exceeds {TOL:.0e} "
            f"max(max x = {np.max(x):.3g}, size of its terms = {size:.3g}))"
        )
    return CertifiedProblem(profile=profile, weights=weights)


def build_certificate(problem: CertifiedProblem) -> DualCertificate:
    """Closed-form dual certificate from the weights' Lagrange multiplier."""
    p = problem.profile
    eta = 1.0 / (problem.weights.lagrange * (p.m_out - p.n_in))
    x = problem.weights.weights
    v = x * np.sqrt(p.noises)
    # -i Tr[Z K] = -2 (Tr Y - 1^T Y 1 / N), with the sum of Y off its
    # diagonal, -4 eta sum_{i<j} v_i v_j, taken from suffix sums of v: the
    # shorter (sum v)^2 - |v|^2 cancels at extreme weight ratios
    u, e = _unit_scaled(v)
    pairs = float(u[:-1] @ np.cumsum(u[::-1])[::-1][1:])
    n = p.n_in
    trace_y = -float(np.sum(x + 2.0 * eta * v * v))
    dual_bound = -2.0 * (1.0 - 1.0 / n) * trace_y - 8.0 * math.ldexp(eta, 2 * e) * pairs / n
    if not np.isfinite(np.append(v, [eta, dual_bound])).all():
        raise ValueError(f"no finite certificate at weights of scale {np.max(x):.3g}")
    return DualCertificate(x=x, v=v, eta=eta, dual_bound=dual_bound)


def verify_certificate(problem: CertifiedProblem, cert: DualCertificate) -> dict:
    """Check every certificate condition numerically and report a verdict.

    Conditions: Tr[Z G_opt] reproduces the matrix cost, Z annihilates
    G_opt + iK (relative to its terms), Z is PSD, the duality gap vanishes,
    and the multiplier normalization eta f^T v = -1 holds.  Each is evaluated
    from its closed form in x, f, v and eta, with B = I + 2F - H/N the blocks
    of G_opt and P = I - H/N those of K, and held `within` its scale in
    units of the weights' size where it carries that size (see the README):
    the gap's terms are |lam| S^2, so it rounds on |cost| S^2 / (M - N).
    """
    p = problem.profile
    n = p.n_in
    x, v, eta = cert.x, cert.v, cert.eta
    f = np.sqrt(p.noises)
    cost_opt = 2.0 * float(x @ _g_opt_diagonal(p))
    # eps: signed normalization residual; r = (I + F - H/N) v, which the
    # extremal equations make zero.  For extremal weights f^T v =
    # -lam((M - N) n_tot - S^2), S = sum sqrt(n_k), so eps is the surface
    # residual over -(M - N) and rounds on the scale of S^2 / (M - N)
    fv = float(f @ v)
    eps = 1.0 + eta * fv
    s = float(np.sum(f))
    eps_scale = s**2 / (p.m_out - n)
    r = v + f * fv - float(np.sum(v)) / n
    # Z A_opt has the blocks X B + Y P = 2 v (-eta r + eps f)^T and
    # X P + Y B = 2 v (-eta r - eps f)^T.  Extremal weights have
    # eta v = f - c, c = S / (M - N), so -eta r = c - eps f + (S - M c) / N
    # with eps = 1 + n_tot - c S: each entry rounds on terms of size za_size
    c = s / (p.m_out - n)
    za_size = c + (s + p.m_out * c) / n + 2.0 * float(np.max(f)) * (1.0 + p.n_tot + c * s)
    za_rel = float(np.max(np.abs(eta * r) + np.abs(eps * f))) / za_size
    # eig Z = eig(X + Y) and eig(X - Y).  X + Y = -2 eta v v^T >= 0 is
    # singular.  By interlacing, X - Y = 2X + 2 eta v v^T has M - 1
    # eigenvalues >= 2 min x, and one of the sign of eps: one Newton step of
    # its secular equation from 0 gives that one to O(eps^2): eps in units of 2 / (-eta n_tot).
    min_eig_z = min(0.0, 2.0 * eps / (-eta * p.n_tot))
    gap = abs(cost_opt - cert.dual_bound)
    # affine map between the two cost conventions: C(n) = (C~(G) + const)/4
    affine_const = float(np.sum(x)) * (2.0 / n - 2.0)
    cost_noise = float(x @ p.noises)
    cost_map_resid = abs(cost_noise - (cost_opt + affine_const) / 4.0)

    passed = (
        within(za_rel)
        and within(min_eig_z, eps_scale, unit=2.0 / (-eta * p.n_tot))
        and within(gap, eps_scale, unit=abs(cost_opt))
        and within(eps, eps_scale)
    )
    return {
        # G_opt is block diagonal and X diagonal, so Tr[Z G_opt] = 2 Tr[X B]
        # is the matrix cost itself: the discrepancy is zero by identity
        "trace_cost_discrepancy": 0.0,
        "z_annihilates_a_rel": za_rel,
        "min_eig_z": min_eig_z,
        "duality_gap": gap,
        "normalization_residual": abs(eps),
        "matrix_cost": cost_opt,
        "noise_cost": cost_noise,
        "affine_constant": affine_const,
        "cost_map_residual": cost_map_resid,
        "dual_bound": cert.dual_bound,
        "passed": passed,
    }


def _interlacing_bound(q_diag: np.ndarray, w: np.ndarray, u: np.ndarray, n_in: int) -> np.ndarray:
    """Least eigenvalue of the 2 x 2 blocks of q + iK on rows {j, j + M}, an
    upper bound on lambda_min(q + iK) (see random_feasible_cost_scan), for
    each q = (W + W^T) u of a stack of k x 2M x 2M draws W and k scales u,
    whose k x 2M diagonals q_diag are given."""
    m = w.shape[-1] // 2
    a, e = q_diag[:, :m], q_diag[:, m:]
    b = (np.diagonal(w, m, 1, 2) + np.diagonal(w, -m, 1, 2)) * u[:, None]
    c2 = (1.0 - 1.0 / n_in) ** 2
    return np.min((a + e) / 2 - np.sqrt(((a - e) / 2) ** 2 + b**2 + c2), axis=-1)


def random_feasible_cost_scan(
    problem: CertifiedProblem,
    cert: DualCertificate,
    trials: int,
    rng: np.random.Generator,
) -> dict:
    """Sample random feasible channel noise matrices and compare their cost
    with the certified lower bound.

    Two feasible families alternate: even trials take G_opt plus a random
    PSD perturbation, odd trials a random symmetric q shifted by
    max(0, -mu) I, mu = lambda_min(q + iK), just enough to satisfy
    G + iK >= 0.  Trials are evaluated in stacked blocks of
    max(1, SCAN_BLOCK_VALUES // d^2), so memory does not grow with the trial
    count.  Each trial still draws its d x d normals and then one double r,
    so the samples and the generator state left behind are those of a
    trial-by-trial loop: uniform(lo, hi) is lo + (hi - lo) r for the same
    next double r, so the scales r and 0.5 + 2.5 r equal uniform(0, 1) and
    uniform(0.5, 3) bit for bit.  The cost needs only the diagonal of each
    G, and since Re Z = blkdiag(X, X) and Im Z is antisymmetric, each
    pairing Re Tr[Z(G + iK)] is the trial's cost minus dual_bound.

    An odd trial costs diag(q) w + max(0, -mu) sum(w), every weight
    positive.  K = [[0, P], [-P, 0]] with P = I - H/N, so rows {j, j + M}
    of q + iK hold the 2 x 2 block [[q_jj, q_{j,j+M} + ic], [c.c.,
    q_{j+M,j+M}]], c = 1 - 1/N, whose least eigenvalue is closed form; by
    Cauchy interlacing mu is at most the least of them, which bounds the
    cost from below.  In each block the even trials are costed first, and
    only odd trials whose bound comes within a rounding margin of the
    running minimum reach eigvalsh.  The margin is core.TOL times a bound on
    the size of the cost's terms, far above the rounding of either side,
    so a trial left out costs more than the minimum, and min_cost is the
    number the full evaluation gives.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    p = problem.profile
    d = 2 * p.m_out
    x = problem.weights.weights
    diag_weights = np.concatenate([x, x])
    weight_sum = float(np.sum(diag_weights))
    g_opt_diag = np.tile(_g_opt_diagonal(p), 2)
    ik = None  # built when a trial first reaches eigvalsh
    # |q + iK|_2 <= |q|_F + |P|_2 with |q|_F <= 2u|W|_F and the eigenvalues
    # of P being 1 and 1 - M/N
    p_norm = max(1.0, p.m_out / p.n_in - 1.0)
    b = max(1, SCAN_BLOCK_VALUES // (d * d))
    w = np.empty((b, d, d))
    rows = list(w)
    u = np.empty(b)
    normal, draw = rng.standard_normal, rng.random
    min_cost = np.inf
    for start in range(0, trials, b):
        n = min(b, trials - start)
        for i in range(n):
            normal(out=rows[i])
            u[i] = draw()
        even, odd = slice(start % 2, n, 2), slice(1 - start % 2, n, 2)
        squares = np.sum(w[:n] ** 2, axis=2)
        g_diag = np.empty((n, d))
        g_diag[even] = g_opt_diag + squares[even] * u[even, None] / d
        threshold = float(np.min(g_diag[even] @ diag_weights, initial=min_cost))

        w_odd, u_odd = w[odd], 0.5 + 2.5 * u[odd]
        q_diag = 2.0 * np.diagonal(w_odd, axis1=1, axis2=2) * u_odd[:, None]
        shift = np.maximum(0.0, -_interlacing_bound(q_diag, w_odd, u_odd, p.n_in))
        bound = q_diag @ diag_weights + shift * weight_sum
        q_norm = 2.0 * u_odd * np.sqrt(np.sum(squares[odd], axis=1)) + p_norm
        margin = TOL * (np.abs(q_diag) @ diag_weights + q_norm * weight_sum)
        live = bound <= threshold + margin
        if live.any():
            if ik is None:
                ik = 1j * k_matrix(p.n_in, p.m_out)
            w_live = w_odd[live]
            q = (w_live + w_live.transpose(0, 2, 1)) * u_odd[live, None, None]
            shift[live] = np.maximum(0.0, -np.linalg.eigvalsh(q + ik)[:, 0])
        # a left-out trial keeps its bound, which no minimum reaches; the
        # block is costed in one product, as BLAS rounding depends on its shape
        g_diag[odd] = q_diag + shift[:, None]
        min_cost = min(min_cost, float(np.min(g_diag @ diag_weights)))
    return {
        "trials": trials,
        "min_cost": float(min_cost),
        "min_dual_pairing": float(min_cost - cert.dual_bound),
        "dual_bound": cert.dual_bound,
        "passed": within(min(0.0, min_cost - cert.dual_bound), unit=abs(cert.dual_bound)),
    }
