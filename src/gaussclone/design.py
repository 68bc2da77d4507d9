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

# Newton steps this small relative to the multiplier stop, and a completion's
# residual this small relative to its terms is 0
FEW_ULPS = 4.0 * np.finfo(float).eps


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


def surface_terms(f: np.ndarray, n_in: int) -> tuple[float, float, float]:
    """N M fbar^2, (M - N)(V + 1) and V = sum (f_j - fbar)^2 of M values f_j = sqrt(n_j)
    with mean fbar: R = (sum f)^2 - (M - N)(sum f^2 + 1) = N M fbar^2 - (M - N)(V + 1)
    exactly, a difference of terms about M / N times smaller than (sum f)^2."""
    fbar = float(np.mean(f))
    v = float(np.sum((f - fbar) ** 2))
    return n_in * f.size * fbar * fbar, (f.size - n_in) * (v + 1.0), v


def residual(profile: NoiseProfile) -> float:
    """R (`surface_terms`); zero on the optimal surface."""
    lead, tail, _ = surface_terms(np.sqrt(profile.noises), profile.n_in)
    return lead - tail


def require_on_surface(profile: NoiseProfile) -> float:
    """V of `profile` (`surface_terms`); raise OffSurfaceError unless its R
    is `within` the size N M fbar^2 + (M - N)(V + 1) of its terms and it lies
    on the optimal sheet: its least clone amplitude S - (M - N) f_j, centered
    N fbar - (M - N)(max f - fbar), is not below 0 beyond its terms."""
    f = np.sqrt(profile.noises)
    lead, tail, v = surface_terms(f, profile.n_in)
    if not within(lead - tail, lead + tail):
        raise OffSurfaceError(f"profile residual {lead - tail:.3g} exceeds {TOL:.0e} of "
                              f"its terms {lead + tail:.3g}")
    fbar = float(np.mean(f))
    base, spread = profile.n_in * fbar, (profile.m_out - profile.n_in) * (np.max(f) - fbar)
    if not within(min(0.0, base - spread), base + spread):
        raise OffSurfaceError(f"clone amplitude {base - spread:.3g} is below 0 by more than "
                              f"{TOL:.0e} of its terms {base + spread:.3g}; off the optimal sheet")
    return v


def last_noise_roots(partial, n_in: int, m_out: int) -> list[float]:
    """The optimal n_M completing `partial` to the optimal surface, then the
    other root if any: u = sqrt(n_M) solves (M - N - 1) u^2 - 2 s u + c = 0,
    s = sum sqrt(partial), with c and the discriminant -1 and M - N times the
    residuals of `partial` on the N - 1 -> M - 1 and N -> M - 1 surfaces, each
    0 within FEW_ULPS of its terms.  The optimal root c / (s + sqrt(disc))
    leaves the last clone the amplitude sqrt(disc), the other -sqrt(disc); it
    is returned only on the optimal sheet, so c < 0 has no completion."""
    partial = _checked_noises(partial, m_out - 1)
    if m_out <= n_in:
        raise ValueError("completion requires M > N")
    excess = m_out - n_in
    f = np.sqrt(partial)
    s = float(np.sum(f))
    if excess == 1 and s <= 0:
        raise InfeasibleDesignError(
            "M - N = 1 requires at least one noisy clone among the first M - 1")
    lead, tail, _ = surface_terms(f, n_in)
    disc = 0.0 if abs(lead - tail) <= FEW_ULPS * (lead + tail) else excess * (lead - tail)
    if disc < 0:
        raise InfeasibleDesignError(
            f"requested fidelities are too high (discriminant {4 * disc:.6g} < 0)")
    lead, tail, _ = surface_terms(f, n_in - 1)
    c = 0.0 if abs(lead - tail) <= FEW_ULPS * (lead + tail) else tail - lead
    if c < 0:
        raise InfeasibleDesignError("no non-negative completion exists")
    sq = math.sqrt(disc)
    n_m = (c / (s + sq)) ** 2
    try:
        require_on_surface(NoiseProfile(n_in, m_out, np.append(partial, n_m)))
    except OffSurfaceError as exc:
        raise InfeasibleDesignError(str(exc)) from exc
    return [n_m, ((s + sq) / (excess - 1)) ** 2] if excess > 1 and disc > 0 else [n_m]


def solve_last_noise(partial, n_in: int, m_out: int) -> float:
    """The optimal n_M completing the partial noise assignment (max fidelity)."""
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
            if not step > FEW_ULPS * abs(lam):
                break
            lam -= step
        coeff = lam / (lam * excess - u)
        lead, _, v = surface_terms(coeff, n_in)
        denom = lead - excess * v  # (sum c)^2 - (M - N) sum c^2
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
