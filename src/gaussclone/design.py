"""Design of optimal asymmetric Gaussian cloners.

The set of optimal N->M asymmetric Gaussian cloning machines is the surface

    (sum_k sqrt(n_k))^2 = (M - N) (sum_j n_j + 1)

in the space of per-clone thermal noises n_j.  This module solves that
constraint in its various guises: completing a partial noise assignment,
the fully symmetric point, weighted-cost optimal designs via a Lagrange
multiplier, and the infinite-copy partial-estimation limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TOL, read_only, within

# a discriminant this small is a double root's 0: its rounding gives sqrt-size root error
ROOT_SNAP = 1e-12
# a completion root u = sqrt(n_M) down to this is a zero-noise clone, kept as 0
ROOT_FLOOR = -1e-14
# the multiplier's Newton steps stop once a step is a few ulps of it
NEWTON_STOP = 4.0 * np.finfo(float).eps


class InfeasibleDesignError(ValueError):
    """Requested clone fidelities are incompatible with the optimal surface."""


class OffSurfaceError(ValueError):
    """The noise profile does not lie on the optimal surface."""


def _checked_noises(noises, count: int) -> np.ndarray:
    """`noises` as a float vector, checked to hold `count` finite and
    non-negative thermal noises."""
    noises = np.asarray(noises, dtype=float)
    if noises.shape != (count,):
        raise ValueError(f"expected {count} noises, got shape {noises.shape}")
    if not np.all(np.isfinite(noises) & (noises >= 0)):
        raise ValueError("thermal noises must be finite and non-negative")
    return noises


@dataclass(frozen=True)
class NoiseProfile:
    """A design point: input count N, output count M, per-clone noises n_j."""

    n_in: int
    m_out: int
    noises: np.ndarray

    def __post_init__(self):
        if self.n_in < 1:
            raise ValueError("need at least one input replica")
        if self.m_out < self.n_in:
            raise ValueError("output count M must satisfy M >= N")
        _checked_noises(self.noises, self.m_out)
        read_only(self, "noises")

    @property
    def n_tot(self) -> float:
        return float(np.sum(self.noises))

    def fidelities(self) -> np.ndarray:
        return 1.0 / (1.0 + self.noises)


def _checked_weights(weights) -> np.ndarray:
    """`weights` as a float vector, checked to be non-empty, finite and positive."""
    x = np.asarray(weights, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("weights must be a non-empty vector")
    if not np.all(np.isfinite(x) & (x > 0)):
        raise ValueError("all cost weights must be finite and strictly positive")
    return x


@dataclass(frozen=True)
class CostWeights:
    """Strictly positive weights x_j of the linear noise cost sum x_j n_j and
    the multiplier lam < 0 at which a profile is extremal for them: the one
    `design_from_weights` solves for, or lam = -1 from
    `certificate.weights_from_profile`.  The weights are a read-only copy."""

    weights: np.ndarray
    lagrange: float

    def __post_init__(self):
        _checked_weights(self.weights)
        if not (math.isfinite(self.lagrange) and self.lagrange < 0):
            raise ValueError(f"invalid multiplier {self.lagrange}; must be finite and negative")
        read_only(self, "weights")


@dataclass(frozen=True)
class EstimationTradeoffPoint:
    """Quantum-copy noise/fidelity vs classical-estimate noise/fidelity."""

    n_f: float
    n_g: float
    fidelity_quantum: float
    fidelity_estimate: float


def residual(profile: NoiseProfile) -> float:
    """(sum sqrt(n_k))^2 - (M - N)(sum n_j + 1); zero on the optimal surface."""
    s = float(np.sum(np.sqrt(profile.noises)))
    return s * s - (profile.m_out - profile.n_in) * (profile.n_tot + 1.0)


def require_on_surface(profile: NoiseProfile):
    """Raise OffSurfaceError unless the surface residual is `within` S^2.

    The residual is a difference of terms of size S^2, so its rounding
    grows with S^2.
    """
    s2 = float(np.sum(np.sqrt(profile.noises))) ** 2
    r = residual(profile)
    if not within(r, s2):
        raise OffSurfaceError(f"profile residual {r:.3g} exceeds {TOL:.0e} max(1, S^2 = {s2:.3g})")


def last_noise_roots(partial, n_in: int, m_out: int) -> list[float]:
    """All non-negative values of n_M completing `partial` to the optimal surface.

    Sorted ascending; the smallest root gives the maximum fidelity of the
    last clone and is the one marked optimal.
    """
    partial = _checked_noises(partial, m_out - 1)
    if m_out <= n_in:
        raise ValueError("completion requires M > N")
    excess = m_out - n_in
    s = float(np.sum(np.sqrt(partial)))
    t = float(np.sum(partial))
    # (excess - 1) u^2 - 2 s u + [excess (t + 1) - s^2] = 0 with u = sqrt(n_M)
    a = excess - 1
    c = excess * (t + 1.0) - s * s
    if a == 0:
        if s <= 0:
            raise InfeasibleDesignError(
                "M - N = 1 requires at least one noisy clone among the first M - 1"
            )
        u = c / (2.0 * s)
        roots = [u]
    else:
        disc = s * s - a * c
        if abs(disc) < ROOT_SNAP * max(1.0, s * s, abs(a * c)):
            disc = 0.0
        if disc < 0:
            raise InfeasibleDesignError(
                f"requested fidelities are too high (discriminant {4 * disc:.6g} < 0)"
            )
        sq = math.sqrt(disc)
        roots = [(s - sq) / a, (s + sq) / a]
    roots = sorted({u * u for u in roots if u >= ROOT_FLOOR})
    if not roots:
        raise InfeasibleDesignError("no non-negative completion exists")
    return [max(0.0, r) for r in roots]


def solve_last_noise(partial, n_in: int, m_out: int) -> float:
    """Smallest n_M completing the partial noise assignment (max fidelity)."""
    return last_noise_roots(partial, n_in, m_out)[0]


def symmetric_profile(n_in: int, m_out: int) -> NoiseProfile:
    """All clones equal: n_j = (M - N) / (M N)."""
    if n_in < 1 or m_out < n_in:
        raise ValueError("need M >= N >= 1")
    n = (m_out - n_in) / (m_out * n_in)
    return NoiseProfile(n_in, m_out, np.full(m_out, n))


def design_from_weights(weights, n_in: int, m_out: int) -> tuple[NoiseProfile, CostWeights]:
    """Minimize sum x_j n_j over the optimal surface for the weight vector x;
    return the optimal profile and x with the multiplier lam of the solve.

    The extremal equations give sqrt(n_j) = lam * S / (lam (M-N) - x_j) with
    S = sum sqrt(n_k); S cancels from its own defining sum, leaving the
    closed scalar condition sum_j lam / (lam (M-N) - x_j) = 1 for the
    multiplier lam < 0.  The overall scale of the noises is then fixed by
    the surface constraint.
    """
    x = _checked_weights(weights)
    if x.shape != (m_out,):
        raise ValueError(f"expected {m_out} weights, got shape {x.shape}")
    if m_out <= n_in:
        raise ValueError("weighted design requires M > N")
    excess = m_out - n_in

    # h(lam) = sum_j lam / (lam (M-N) - x_j) - 1 decreases strictly on
    # (-inf, 0), and each term lies between |lam| / (|lam| (M-N) + max x)
    # and |lam| / x_j, so h(-max(x) / N) >= 0 >= h(-1 / sum(1 / x_j)): the
    # root lies in that scale-free bracket.  h is also concave, so Newton
    # steps from the right end move left monotonically and never pass the
    # root; they stop once the step falls to a few ulps, or turns back
    # because rounding makes h read non-negative.
    # x -> c x moves the root to c lam and leaves the noises, so the solve
    # runs on u = x 2^-k, whose binary exponents centre on 1, and scales lam
    # back: a power of two scales exactly, and d^2 then neither overflows
    # nor underflows at any common scale of the weights.  Weights some 1e300
    # apart overflow even so, and the NaN or inf that follows fails below.
    with np.errstate(all="ignore"):
        k = (math.frexp(np.max(x))[1] + math.frexp(np.min(x))[1]) // 2
        u = np.ldexp(x, -k)
        lam = -1.0 / np.sum(1.0 / u)
        for _ in range(100):
            d = lam * excess - u
            step = (np.sum(lam / d) - 1.0) / np.sum(-u / d**2)
            if not step > NEWTON_STOP * abs(lam):
                break
            lam -= step
        coeff = lam / (lam * excess - u)
        denom = 1.0 - excess * float(np.sum(coeff**2))
    if not denom > 0:
        raise ValueError("degenerate scale equation; multiplier solve failed")
    s = math.sqrt(excess / denom)
    profile = NoiseProfile(n_in, m_out, (s * coeff) ** 2)
    require_on_surface(profile)
    return profile, CostWeights(x, math.ldexp(lam, k))


def estimation_tradeoff(n_f: float) -> EstimationTradeoffPoint:
    """Optimal partial-estimation tradeoff (infinite-copy limit).

    n_G = (n_F + 1)^2 / (4 n_F); the fidelities then satisfy
    G = 4F(1-F) / (4F(1-F) + 1).
    """
    if n_f < 0:
        raise ValueError("quantum-copy noise must be non-negative")
    if n_f == 0:
        # Undisturbed quantum copy: infinitely noisy state estimation.
        return EstimationTradeoffPoint(0.0, math.inf, 1.0, 0.0)
    n_g = (n_f + 1.0) ** 2 / (4.0 * n_f)
    return EstimationTradeoffPoint(n_f, n_g, 1.0 / (1.0 + n_f), 1.0 / (1.0 + n_g))
