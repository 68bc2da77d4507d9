"""Gaussian states, Gaussian CP maps, and clone figures of merit.

Conventions used throughout the package:

* quadrature ordering is (x_1, ..., x_m, p_1, ..., p_m) with [x, p] = i;
* the covariance matrix is the symmetrized second moment
  gamma_jk = <dr_j dr_k + dr_k dr_j>, so the vacuum covariance is the
  identity (one shot-noise unit = 1/2 variance per quadrature);
* a coherent state |alpha> has mean (sqrt(2) Re alpha, sqrt(2) Im alpha)
  per mode, so that <a> = alpha under a = (x + i p) / sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# relative tolerance of every verdict; see `within`
TOL = 1e-9


def within(value: float, scale: float = 1.0, unit: float = 1.0) -> bool:
    """Whether |value| / unit <= TOL max(1, scale): the residual of an
    identity whose terms have size `scale` in units of `unit`, which takes no
    floor, is at rounding level.  A NaN or +-inf value fails, and so does
    every value when the scale is not finite or the unit not finite and > 0."""
    in_unit = abs(value) / unit if 0.0 < unit < math.inf else math.nan
    return bool(in_unit <= TOL * max(1.0, scale)) and math.isfinite(scale)


# quadratures per unit of amplitude: <x> + i <p> = QUADRATURE_SCALE <a>
QUADRATURE_SCALE = np.sqrt(2)


def xp_matrix(a, c) -> np.ndarray:
    """[[a, c], [-c, a]] in xxpp ordering, from M x M blocks a and c; either
    may be the scalar 0.  A phase-insensitive map has this shape."""
    a, c = np.broadcast_arrays(a, c)
    # 0.0 - c rather than -c: a zero block c gives no negative zeros
    return np.block([[a, c], [0.0 - c, a]])


def quadrature_mean(amps: np.ndarray) -> np.ndarray:
    """Mean quadrature vector (x, p) of modes with complex amplitudes `amps`."""
    return QUADRATURE_SCALE * np.concatenate([amps.real, amps.imag])


def amplitudes(mean: np.ndarray) -> np.ndarray:
    """Complex amplitudes (x + i p) / sqrt(2) of a mean quadrature vector (x, p)."""
    m = mean.size // 2
    return (mean[:m] + 1j * mean[m:]) / QUADRATURE_SCALE


def read_only(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass `obj` as a read-only
    float copy, so the caller's own array stays writable."""
    for name in names:
        array = np.array(getattr(obj, name), dtype=float)
        array.setflags(write=False)
        object.__setattr__(obj, name, array)


def _store_arrays(obj, symmetric: str, **shapes: tuple[int, ...]) -> None:
    """Store the array fields `shapes` of the frozen dataclass `obj`
    `read_only`, after checking that each has its shape and finite entries
    and that field `symmetric` is symmetric `within` the size of its entries."""
    arrays = {name: np.asarray(getattr(obj, name), dtype=float) for name in shapes}
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {arrays[name].shape}")
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            raise ValueError(f"{name} must be finite")
    a = arrays[symmetric]
    if not within(np.max(np.abs(a - a.T)), np.max(np.abs(a))):
        raise ValueError(f"{symmetric} must be symmetric")
    read_only(obj, *shapes)


@dataclass(frozen=True)
class GaussianState:
    """Mean quadrature vector and covariance matrix of a Gaussian state."""

    num_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.num_modes < 1:
            raise ValueError("need at least one mode")
        d = 2 * self.num_modes
        _store_arrays(self, "cov", mean=(d,), cov=(d, d))


def coherent_state(alphas) -> GaussianState:
    """Product coherent state with the given complex amplitudes (one per mode)."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    return GaussianState(alphas.size, quadrature_mean(alphas), np.eye(2 * alphas.size))


def mode_amplitudes(state: GaussianState) -> np.ndarray:
    """Complex amplitudes <a_j> = (<x_j> + i <p_j>) / sqrt(2)."""
    return amplitudes(state.mean)


@dataclass(frozen=True)
class GaussianChannel:
    """Gaussian CP map (S, G): cov -> S cov S^T + G, mean -> S mean."""

    m_in: int
    m_out: int
    S: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        d_in, d_out = 2 * self.m_in, 2 * self.m_out
        _store_arrays(self, "G", S=(d_out, d_in), G=(d_out, d_out))


@dataclass(frozen=True)
class CloneMarginal:
    """Single-mode marginal of a clone: amplitude, thermal noise, fidelity."""

    coherent_amplitude: complex
    thermal_noise: float
    fidelity: float


def clone_marginal(st: GaussianState, j: int) -> CloneMarginal:
    """Extract clone j's amplitude, thermal noise n_j and fidelity 1/(1+n_j).

    Requires the mode's 2x2 covariance block to be isotropic (equal x and p
    variances and no cross term, `within` the variances' size) and at or
    above vacuum; anything else signals a non-covariant circuit.
    """
    m = st.num_modes
    if not 0 <= j < m:
        raise IndexError(f"mode index {j} out of range for {m} modes")
    vx, vp, cxp = st.cov[j, j], st.cov[m + j, m + j], st.cov[j, m + j]
    scale = max(abs(vx), abs(vp))
    if not (within(vx - vp, scale) and within(cxp, scale)):
        raise ValueError(
            f"mode {j} covariance block is not isotropic: "
            f"var_x={vx:.6g}, var_p={vp:.6g}, cross={cxp:.6g}"
        )
    n = (vx - 1.0) / 2.0
    if not within(min(0.0, n), scale):
        raise ValueError(f"mode {j} has sub-vacuum variance {vx:.6g}")
    n = max(n, 0.0)
    return CloneMarginal(complex(amplitudes(st.mean)[j]), float(n), 1.0 / (1.0 + n))
