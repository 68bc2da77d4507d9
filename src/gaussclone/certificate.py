"""Numerical verification of the SDP optimality certificate.

Minimizing the weighted noise cost over all Gaussian CP maps with the fixed
mean-replicating S is a linear semidefinite program in the channel noise
matrix G.  A dual certificate Z >= 0 with Tr[Z G] equal to the cost and
Z (G_opt + iK) = 0 proves that G_opt attains the lower bound -i Tr[Z K].
This module assembles the primal data, constructs Z in closed form from the
Lagrange multiplier of the noise-surface minimization, and verifies every
certificate condition numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import (
    RESIDUAL_TOL,
    a_opt_matrix,
    g_opt_matrix,
    k_matrix,
    noise_gram_matrix,
)
from .design import CostWeights, NoiseProfile, residual

CERT_TOL = 1e-9
# values per stacked block of the feasible scan; larger blocks gain little
# speed and raise peak memory
SCAN_BLOCK_VALUES = 2**14


@dataclass(frozen=True)
class CertifiedProblem:
    """Primal data of the weighted-cost cloning SDP."""

    profile: NoiseProfile
    weights: CostWeights
    G_opt: np.ndarray
    A_opt: np.ndarray
    K: np.ndarray
    F_mat: np.ndarray
    H_mat: np.ndarray
    f_vec: np.ndarray
    h_vec: np.ndarray


@dataclass(frozen=True)
class DualCertificate:
    """Dual certificate Z = [[X, iY], [-iY, X]] with multiplier lambda < 0."""

    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    lam: float
    eta: float
    dual_bound: float


def weights_from_profile(profile: NoiseProfile, lam: float = -1.0) -> CostWeights:
    """Cost weights for which the given on-surface profile is extremal.

    Inverts the extremal equations x_j = -lam (S / sqrt(n_j) - (M - N)) at
    the chosen multiplier scale.  Requires every n_j > 0.
    """
    if lam >= 0:
        raise ValueError("multiplier must be negative")
    if np.any(profile.noises <= 0):
        raise ValueError("weights are only defined for strictly noisy clones")
    s = float(np.sum(np.sqrt(profile.noises)))
    x = -lam * (s / np.sqrt(profile.noises) - (profile.m_out - profile.n_in))
    if np.any(x <= 0):
        raise ValueError("profile admits no strictly positive extremal weights")
    return CostWeights(weights=x, lagrange=lam)


def extremal_equation_residual(profile: NoiseProfile, weights: CostWeights) -> float:
    """Max residual of x_j sqrt(n_j) - lam (M-N) sqrt(n_j) + lam sum sqrt(n_k)."""
    if weights.lagrange is None:
        raise ValueError("weights carry no solved multiplier")
    w = np.sqrt(profile.noises)
    lam = weights.lagrange
    res = weights.weights * w - lam * (profile.m_out - profile.n_in) * w + lam * np.sum(w)
    return float(np.max(np.abs(res)))


def noise_cost(profile: NoiseProfile, weights: CostWeights) -> float:
    return float(weights.weights @ profile.noises)


def matrix_cost(g: np.ndarray, weights: CostWeights) -> float:
    """Cost in the channel-matrix picture: sum x_j (G_jj + G_{M+j,M+j})."""
    m = weights.weights.size
    diag = np.diag(g)
    return float(weights.weights @ (diag[:m] + diag[m:]))


def build_problem(profile: NoiseProfile, weights: CostWeights) -> CertifiedProblem:
    """Assemble the primal SDP data for an on-surface profile and matching weights."""
    r = residual(profile)
    if abs(r) > RESIDUAL_TOL:
        raise ValueError(f"profile residual {r:.3g} exceeds tolerance {RESIDUAL_TOL:.0e}")
    if weights.weights.shape != (profile.m_out,):
        raise ValueError("weight vector length must equal the clone count")
    if weights.lagrange is not None:
        mismatch = extremal_equation_residual(profile, weights)
        scale = float(np.max(weights.weights))
        if mismatch > 1e-8 * max(1.0, scale):
            raise ValueError(
                f"weights are not extremal for this profile (residual {mismatch:.3g})"
            )
    m = profile.m_out
    f_vec = np.sqrt(profile.noises)
    h_vec = np.ones(m)
    return CertifiedProblem(
        profile=profile,
        weights=weights,
        G_opt=g_opt_matrix(profile),
        A_opt=a_opt_matrix(profile),
        K=k_matrix(profile.n_in, m),
        F_mat=noise_gram_matrix(profile),
        H_mat=np.outer(h_vec, h_vec),
        f_vec=f_vec,
        h_vec=h_vec,
    )


def build_certificate(problem: CertifiedProblem) -> DualCertificate:
    """Closed-form dual certificate from the solved Lagrange multiplier."""
    lam = problem.weights.lagrange
    if lam is None:
        raise ValueError("weights carry no solved multiplier; solve the design first")
    if lam >= 0:
        raise ValueError(f"invalid multiplier {lam}; must be negative")
    excess = problem.profile.m_out - problem.profile.n_in
    eta = 1.0 / (lam * excess)
    x = np.diag(problem.weights.weights)
    y = -x - 2.0 * eta * (x @ problem.F_mat @ x)
    z = np.block([[x, 1j * y], [-1j * y, x]])
    dual_bound = float(np.real(-1j * np.trace(z @ problem.K)))
    return DualCertificate(X=x, Y=y, Z=z, lam=float(lam), eta=float(eta), dual_bound=dual_bound)


def verify_certificate(problem: CertifiedProblem, cert: DualCertificate) -> dict:
    """Check every certificate condition numerically and report a verdict.

    Conditions: Tr[Z G_opt] reproduces the matrix cost, Z annihilates
    G_opt + iK (relative max-entry norm), Z is PSD, the duality gap vanishes,
    and the multiplier normalization eta Tr[X^(1/2) F X^(1/2)] = -1 holds.
    """
    x_half = np.sqrt(problem.weights.weights)
    cost_opt = matrix_cost(problem.G_opt, problem.weights)
    tr_zg = float(np.real(np.trace(cert.Z @ problem.G_opt)))
    za = cert.Z @ problem.A_opt
    z_scale = float(np.max(np.abs(cert.Z)))
    a_scale = float(np.max(np.abs(problem.A_opt)))
    za_rel = float(np.max(np.abs(za))) / max(z_scale * a_scale, 1e-300)
    min_eig_z = float(np.linalg.eigvalsh(cert.Z)[0])
    gap = abs(cost_opt - cert.dual_bound)
    norm_resid = abs(
        cert.eta * float(np.sum(x_half * problem.F_mat.diagonal() * x_half)) + 1.0
    )
    # affine map between the two cost conventions: C(n) = (C~(G) + const)/4
    n = problem.profile.n_in
    affine_const = float(np.sum(problem.weights.weights)) * (2.0 / n - 2.0)
    cost_noise = noise_cost(problem.profile, problem.weights)
    cost_map_resid = abs(cost_noise - (cost_opt + affine_const) / 4.0)

    checks = {
        "trace_cost_discrepancy": abs(tr_zg - cost_opt),
        "z_annihilates_a_rel": za_rel,
        "min_eig_z": min_eig_z,
        "duality_gap": gap,
        "normalization_residual": norm_resid,
    }
    passed = (
        checks["trace_cost_discrepancy"] < CERT_TOL * max(1.0, abs(cost_opt))
        and checks["z_annihilates_a_rel"] < CERT_TOL
        and checks["min_eig_z"] > -CERT_TOL * max(1.0, z_scale)
        and checks["duality_gap"] < CERT_TOL * max(1.0, abs(cost_opt))
        and checks["normalization_residual"] < CERT_TOL
    )
    return {
        **checks,
        "matrix_cost": cost_opt,
        "noise_cost": cost_noise,
        "affine_constant": affine_const,
        "cost_map_residual": cost_map_resid,
        "dual_bound": cert.dual_bound,
        "passed": bool(passed),
    }


def random_feasible_cost_scan(
    problem: CertifiedProblem,
    cert: DualCertificate,
    trials: int,
    rng: np.random.Generator,
) -> dict:
    """Sample random feasible channel noise matrices and compare their cost
    with the certified lower bound.

    Two feasible families alternate: even trials take G_opt plus a random
    PSD perturbation, odd trials a random symmetric matrix shifted just
    enough to satisfy G + iK >= 0.  Trials are evaluated in stacked blocks of
    max(1, SCAN_BLOCK_VALUES // d^2), so memory does not grow with the trial
    count.  Each trial still draws its d x d normals and then its uniform
    scale, one call each, so the samples and the generator state left
    behind are those of a trial-by-trial loop.  The pairing Re Tr[Z(G + iK)]
    is sum Re(Z) * G - dual_bound, since Im Z is antisymmetric and G real
    symmetric.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    d = problem.G_opt.shape[0]
    x = problem.weights.weights
    diag_weights = np.concatenate([x, x])
    z_re = cert.Z.real
    ik = 1j * problem.K
    b = max(1, SCAN_BLOCK_VALUES // (d * d))
    w = np.empty((b, d, d))
    u = np.empty(b)
    min_cost = min_dual_pairing = np.inf
    for start in range(0, trials, b):
        n = min(b, trials - start)
        for i in range(n):
            rng.standard_normal(out=w[i])
            u[i] = rng.uniform(0.0, 1.0) if (start + i) % 2 == 0 else rng.uniform(0.5, 3.0)
        even, odd = slice(start % 2, n, 2), slice(1 - start % 2, n, 2)
        g = np.empty((n, d, d))
        g[even] = problem.G_opt + (w[even] @ w[even].transpose(0, 2, 1)) * u[even, None, None] / d
        q = (w[odd] + w[odd].transpose(0, 2, 1)) * u[odd, None, None]
        mu = np.linalg.eigvalsh(q + ik)[:, 0]
        g[odd] = q + np.maximum(0.0, -mu)[:, None, None] * np.eye(d)
        min_cost = min(min_cost, float(np.min(np.diagonal(g, axis1=1, axis2=2) @ diag_weights)))
        pairing = np.einsum("kij,ij->k", g, z_re) - cert.dual_bound
        min_dual_pairing = min(min_dual_pairing, float(np.min(pairing)))
    return {
        "trials": trials,
        "min_cost": float(min_cost),
        "min_dual_pairing": float(min_dual_pairing),
        "dual_bound": cert.dual_bound,
        "passed": bool(min_cost >= cert.dual_bound - CERT_TOL),
    }
