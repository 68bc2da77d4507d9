"""Physical realizations of the optimal asymmetric cloner.

Two equivalent circuits are synthesized from a noise profile on the optimal
surface:

* amplifier scheme: an unbalanced beam splitter taps the collected signal,
  a phase-insensitive amplifier of gain g boosts the transmitted part, and
  an M-port interferometer V distributes signal and noise into the clones;
* feedforward scheme: a tap + heterodyne measurement + per-clone conditional
  displacements emulate the amplifier with passive optics only.

Both reproduce the same output Gaussian state: clone means equal the input
amplitude and the covariance is I + 2F with F_jk = sqrt(n_j n_k).

The amplifier scheme is phase-insensitive, so its channel is composed from
M-vectors and M x M blocks: S = blkdiag(s, s) and G = blkdiag(B, B), and its
complete-positivity margin is that of the two real matrices B +- (I - s s^T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PSD_TOL,
    GaussianChannel,
    GaussianState,
    apply_channel,
    coherent_state,
)
from .design import NoiseProfile, OffSurfaceError, require_on_surface

RESIDUAL_TOL = 1e-8
# bound on the algebraic residuals of a synthesized circuit and on the
# difference between stored and rebuilt circuit parameters
INVARIANT_TOL = 1e-8


# -- analytic matrices of the cloner channel ---------------------------------


def noise_gram_matrix(profile: NoiseProfile) -> np.ndarray:
    """Rank-one matrix F with F_jk = sqrt(n_j n_k)."""
    w = np.sqrt(profile.noises)
    return np.outer(w, w)


def mean_map_matrix(n_in: int, m_out: int) -> np.ndarray:
    """2M x 2 matrix S replicating the collected-mode mean into every clone."""
    s = np.zeros((2 * m_out, 2))
    s[:m_out, 0] = 1.0 / math.sqrt(n_in)
    s[m_out:, 1] = 1.0 / math.sqrt(n_in)
    return s


def clone_output_cov(profile: NoiseProfile) -> np.ndarray:
    """Output covariance of the M clones: blkdiag(I + 2F, I + 2F)."""
    block = np.eye(profile.m_out) + 2.0 * noise_gram_matrix(profile)
    return np.block(
        [[block, np.zeros_like(block)], [np.zeros_like(block), block]]
    )


def g_opt_matrix(profile: NoiseProfile) -> np.ndarray:
    """Channel noise matrix of the optimal cloner: blocks I + 2F - H/N."""
    m, n = profile.m_out, profile.n_in
    block = np.eye(m) + 2.0 * noise_gram_matrix(profile) - np.ones((m, m)) / n
    z = np.zeros_like(block)
    return np.block([[block, z], [z, block]])


def k_matrix(n_in: int, m_out: int) -> np.ndarray:
    """K = J_M - S J_1 S^T for the mean-replicating S."""
    m = m_out
    p = np.eye(m) - np.ones((m, m)) / n_in
    z = np.zeros_like(p)
    return np.block([[z, p], [-p, z]])


def a_opt_matrix(profile: NoiseProfile) -> np.ndarray:
    """Complete-positivity matrix A_opt = G_opt + iK (Hermitian)."""
    return g_opt_matrix(profile) + 1j * k_matrix(profile.n_in, profile.m_out)


# -- amplifier scheme --------------------------------------------------------


@dataclass(frozen=True)
class AmplifierCircuit:
    """Tap transmittance t, amplifier gain g, interferometer V, and the
    effective auxiliary-mode coefficients kappa of the composite map."""

    t: float
    g: float
    V: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        kappa = np.asarray(self.kappa, dtype=float)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "kappa", kappa)
        V.setflags(write=False)
        kappa.setflags(write=False)


def gain_and_transmittance(profile: NoiseProfile) -> tuple[float, float]:
    """Amplifier gain g = sqrt(1 + n_tot) and tap transmittance
    t = sqrt((M - N) / (n_tot N))."""
    if profile.m_out <= profile.n_in:
        raise ValueError("amplifier scheme requires M > N")
    require_on_surface(profile, RESIDUAL_TOL)
    n_tot = profile.n_tot
    if n_tot <= 0:
        raise ValueError("M > N requires strictly positive total noise")
    g = math.sqrt(1.0 + n_tot)
    t = math.sqrt((profile.m_out - profile.n_in) / (n_tot * profile.n_in))
    if t > 1.0 + 1e-12:
        raise OffSurfaceError(f"transmittance {t:.6g} > 1; profile is infeasible")
    return g, min(t, 1.0)


def _complete_unitary(fixed: np.ndarray, candidates) -> np.ndarray:
    """Orthonormal basis whose first column is `fixed`, completed by
    Gram-Schmidt over `candidates` in order.

    A candidate is kept when more than 1e-8 of its own norm is left after
    projecting it off the columns accepted so far."""
    m = fixed.size
    cols = np.empty((m, m))
    cols[:, 0] = fixed / np.linalg.norm(fixed)
    k = 1
    for v in candidates:
        if k == m:
            break
        rest = v - cols[:, :k] @ (cols[:, :k].T @ v)
        norm = np.linalg.norm(rest)
        if norm > 1e-8 * np.linalg.norm(v):
            cols[:, k] = rest / norm
            k += 1
    return cols


def build_interferometer(profile: NoiseProfile) -> AmplifierCircuit:
    """Synthesize the amplifier-scheme circuit {t, g, V, kappa}.

    Column M of V routes the amplifier idler noise, v_M = sqrt(n / n_tot).
    After the amplifier each clone still lacks the amplitude
    lack = 1 - g t sqrt(N) v_M (in units of the input amplitude), so column 1
    is lack's direction and the tap reflectance is r = v_1 . lack / sqrt(N);
    at the symmetric point nothing is lacking and column 1 is one more
    completion column.  The remaining columns are a deterministic completion
    over the canonical basis.
    """
    g, t = gain_and_transmittance(profile)
    m, sqrt_n = profile.m_out, math.sqrt(profile.n_in)
    col_noise = np.sqrt(profile.noises / profile.n_tot)
    lack = 1.0 - g * t * sqrt_n * col_noise
    # circuit order (b_1, ..., b_{M-1}, a_out): the noise column goes last
    v = np.roll(_complete_unitary(col_noise, [lack, *np.eye(m)]), -1, axis=1)
    r = float(v[:, 0] @ lack) / sqrt_n
    # composite coefficients of the auxiliary vacuum modes b_1..b_{M-1}:
    # kappa_j1 = v_j1 t - v_jM g r, kappa_jk = v_jk otherwise
    kappa = v[:, : m - 1].copy()
    kappa[:, 0] = v[:, 0] * t - v[:, m - 1] * g * r
    return AmplifierCircuit(t=t, g=g, V=v, kappa=kappa)


def channel_from_amplifier(circ: AmplifierCircuit, profile: NoiseProfile) -> GaussianChannel:
    """Compose tap, amplifier, and interferometer into a single (S, G) map.

    The channel input is the single collected mode (carrying sqrt(N) alpha).
    The circuit is phase-insensitive, so S = blkdiag(s, s) with
    s = g t v_M + r v_1, and G = blkdiag(B, B) with B = kappa kappa^T +
    (g^2 - 1) v_M v_M^T: the vacuum modes b_k and the amplifier idler.  On
    the surface these are the mean-replicating S and B = I + 2F - H/N.
    """
    m = profile.m_out
    t, g = circ.t, circ.g
    v_sig, v_noise = circ.V[:, 0], circ.V[:, m - 1]
    # r from kappa_1 = t v_1 - g r v_M; sqrt(1 - t^2) loses half the digits
    # near t = 1
    r = float(v_noise @ (t * v_sig - circ.kappa[:, 0])) / g
    s = g * t * v_noise + r * v_sig
    b = circ.kappa @ circ.kappa.T + (g * g - 1.0) * np.outer(v_noise, v_noise)
    s_chan = np.zeros((2 * m, 2))
    s_chan[:m, 0] = s_chan[m:, 1] = s
    g_chan = np.zeros((2 * m, 2 * m))
    g_chan[:m, :m] = g_chan[m:, m:] = b
    return GaussianChannel(m_in=1, m_out=m, S=s_chan, G=g_chan)


def amplifier_output_state(
    circ: AmplifierCircuit, profile: NoiseProfile, alpha: complex
) -> GaussianState:
    """Exact output Gaussian state of the amplifier scheme on N copies of
    |alpha> (after signal collection into one mode)."""
    channel = channel_from_amplifier(circ, profile)
    collected = coherent_state([math.sqrt(profile.n_in) * alpha])
    return apply_channel(channel, collected)


# -- feedforward scheme ------------------------------------------------------


@dataclass(frozen=True)
class FeedforwardCircuit:
    """Tap reflectance, electronic gains and splitter reflectances.

    Every clone is displaced by its gain times the heterodyne outcome itself,
    the one convention under which the clone means equal the input
    amplitude."""

    r_tap: float
    gains: np.ndarray
    reflectances: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        refl = np.asarray(self.reflectances, dtype=float)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "reflectances", refl)
        gains.setflags(write=False)
        refl.setflags(write=False)


def feedforward_params(profile: NoiseProfile) -> FeedforwardCircuit:
    """Tap reflectance, electronic gains g_j = sqrt(n_j), and the recursive
    splitter reflectances of the feedforward scheme."""
    require_on_surface(profile, RESIDUAL_TOL)
    m, n = profile.m_out, profile.n_in
    n_tot = profile.n_tot
    excess = m - n
    denom_sq = (2.0 + n_tot) * n - m
    if denom_sq <= 0:
        raise ValueError("degenerate splitter recursion: (2 + n_tot) N - M <= 0")
    gains = np.sqrt(profile.noises)
    r_tap = math.sqrt(excess / ((1.0 + n_tot) * n))
    # closed-form amplitude reaching each clone; splitter j reflects its
    # share of the amplitude still in the beam, so a clone whose amplitude is
    # exactly zero gets exactly zero rather than sqrt of a rounding error
    amps = (math.sqrt(1.0 + n_tot) - np.sqrt(excess * profile.noises)) / math.sqrt(denom_sq)
    if np.any(amps < -1e-12):
        raise OffSurfaceError(f"negative clone amplitude {np.min(amps):.6g}; profile is infeasible")
    amps = np.maximum(amps, 0.0)
    beam = np.sqrt(np.cumsum(amps[::-1] ** 2)[::-1])[:-1]
    refl = np.divide(amps[:-1], beam, out=np.zeros(m - 1), where=beam > 0)
    return FeedforwardCircuit(r_tap=r_tap, gains=gains, reflectances=refl)


def splitting_amplitudes(circ: FeedforwardCircuit) -> np.ndarray:
    """Amplitude fraction of the transmitted beam reaching each clone."""
    m = circ.gains.size
    d = np.zeros(m)
    trans = 1.0
    for j in range(m - 1):
        d[j] = circ.reflectances[j] * trans
        trans *= math.sqrt(1.0 - circ.reflectances[j] ** 2)
    d[m - 1] = trans
    return d


def feedforward_output_state(
    circ: FeedforwardCircuit, n_in: int, alpha: complex
) -> GaussianState:
    """Exact output Gaussian state of the feedforward scheme, including the
    classical correlations induced by the shared heterodyne outcome."""
    m = circ.gains.size
    amp_in = math.sqrt(n_in) * alpha
    t_tap = math.sqrt(1.0 - circ.r_tap**2)
    d = splitting_amplitudes(circ)
    o_mean = circ.r_tap * amp_in
    amps = d * t_tap * amp_in + circ.gains * o_mean
    mean = np.concatenate([np.sqrt(2) * amps.real, np.sqrt(2) * amps.imag])
    # each quadrature: optical vacuum (unit cov) + shared displacement noise
    block = np.eye(m) + 2.0 * np.outer(circ.gains, circ.gains)
    z = np.zeros_like(block)
    return GaussianState(m, mean, np.block([[block, z], [z, block]]))


def scheme_equivalence_check(profile: NoiseProfile, alpha: complex = 0.8 - 0.3j) -> dict:
    """Build both circuits and compare their output Gaussian states.

    Returns a report with the element-wise mean and covariance discrepancies
    and a pass flag: the mean within 1e-9, the covariance within
    1e-9 max(1, max|cov|).
    """
    require_on_surface(profile, RESIDUAL_TOL)
    amp_circ = build_interferometer(profile)
    ff = feedforward_params(profile)
    st_amp = amplifier_output_state(amp_circ, profile, alpha)
    st_ff = feedforward_output_state(ff, profile.n_in, alpha)
    mean_diff = float(np.max(np.abs(st_amp.mean - st_ff.mean)))
    cov_diff = float(np.max(np.abs(st_amp.cov - st_ff.cov)))
    # the covariance's rounding grows with the noises, the mean's does not
    cov_bound = 1e-9 * max(1.0, float(np.max(np.abs(st_amp.cov))))
    return {
        "mean_discrepancy": mean_diff,
        "cov_discrepancy": cov_diff,
        "discrepancy": max(mean_diff, cov_diff),
        "passed": mean_diff < 1e-9 and cov_diff < cov_bound,
    }


# -- verification ------------------------------------------------------------


def verify_circuit(
    profile: NoiseProfile, scheme: str
) -> tuple[AmplifierCircuit | FeedforwardCircuit, dict]:
    """Build the `scheme` circuit of `profile` and check its invariants.

    Returns the circuit and a report of every residual and margin with an
    overall `passed` flag.
    """
    if scheme == "amplifier":
        circ = build_interferometer(profile)
        m, n = profile.m_out, profile.n_in
        unitarity = float(np.max(np.abs(circ.V.T @ circ.V - np.eye(m))))
        target = np.eye(m) - np.ones((m, m)) / n + noise_gram_matrix(profile)
        kappa_resid = float(np.max(np.abs(circ.kappa @ circ.kappa.T - target)))
        channel = channel_from_amplifier(circ, profile)
        g_resid = float(np.max(np.abs(channel.G - g_opt_matrix(profile))))
        # G + iK = [[B, iP], [-iP, B]] with P = I - s s^T; the vectors
        # (u, -iu) and (u, iu) split it into the real B + P and B - P
        s = channel.S[:m, 0]
        b, p = channel.G[:m, :m], np.eye(m) - np.outer(s, s)
        cp_eig = float(min(np.linalg.eigvalsh(b + p)[0], np.linalg.eigvalsh(b - p)[0]))
        # the margin's rounding grows with the noises
        cp_bound = -PSD_TOL * max(1.0, float(np.max(np.abs(channel.G))))
        return circ, {
            "unitarity_residual": unitarity,
            "kappa_gram_residual": kappa_resid,
            "g_opt_residual": g_resid,
            "cp_min_eigenvalue": cp_eig,
            "transmittance": circ.t,
            "passed": bool(
                unitarity < INVARIANT_TOL
                and kappa_resid < INVARIANT_TOL
                and g_resid < INVARIANT_TOL
                and cp_eig > cp_bound
                and circ.t <= 1.0
            ),
        }
    if scheme == "feedforward":
        circ = feedforward_params(profile)
        in_range = bool(
            np.all(circ.reflectances >= 0.0)
            and np.all(circ.reflectances <= 1.0)
            and 0.0 <= circ.r_tap <= 1.0
        )
        gain_resid = float(np.max(np.abs(circ.gains**2 - profile.noises)))
        equiv = scheme_equivalence_check(profile)
        return circ, {
            "reflectances_in_range": in_range,
            "gain_noise_residual": gain_resid,
            "scheme_discrepancy": equiv["discrepancy"],
            "passed": bool(in_range and gain_resid < INVARIANT_TOL and equiv["passed"]),
        }
    raise ValueError(f"unknown scheme {scheme!r}")
