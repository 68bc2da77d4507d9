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

Both schemes are phase-insensitive, so every moment is an M-vector or an
M x M block repeated in the x and p quadratures: the amplifier's channel is
S = blkdiag(s, s) and G = blkdiag(B, B), and its complete-positivity margin
is that of the two real matrices B +- (I - s s^T).  Only two input ports of
the interferometer carry light, the signal column v_1 and the amplifier-noise
column v_M of V, so s and B follow from those two columns alone, the CP
margin from two 2 x 2 compressions onto their span, and the schemes are
compared without building V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GaussianChannel, GaussianState, quadrature_mean, read_only, within, xp_matrix
from .design import NoiseProfile, OffSurfaceError, require_on_surface

# a completion candidate keeping no more than this fraction of its norm is skipped
COMPLETION_SKIP = 1e-8
# input amplitude at which scheme_equivalence_check compares the two schemes
EQUIVALENCE_ALPHA = 0.8 - 0.3j


# -- analytic matrices of the cloner channel ---------------------------------


def noise_gram_matrix(profile: NoiseProfile) -> np.ndarray:
    """Rank-one matrix F with F_jk = sqrt(n_j n_k)."""
    w = np.sqrt(profile.noises)
    return np.outer(w, w)


def clone_output_cov(profile: NoiseProfile) -> np.ndarray:
    """Output covariance of the M clones: blkdiag(I + 2F, I + 2F)."""
    return xp_matrix(np.eye(profile.m_out) + 2.0 * noise_gram_matrix(profile), 0.0)


def _g_opt_block(profile: NoiseProfile) -> np.ndarray:
    """Quadrature block I + 2F - H/N of the optimal cloner's noise matrix."""
    m, n = profile.m_out, profile.n_in
    return np.eye(m) + 2.0 * noise_gram_matrix(profile) - np.ones((m, m)) / n


def g_opt_matrix(profile: NoiseProfile) -> np.ndarray:
    """Channel noise matrix of the optimal cloner: blocks I + 2F - H/N."""
    return xp_matrix(_g_opt_block(profile), 0.0)


# -- amplifier scheme --------------------------------------------------------


@dataclass(frozen=True)
class AmplifierCircuit:
    """Tap transmittance t, amplifier gain g, tap reflectance r, interferometer
    V, and the effective auxiliary-mode coefficients kappa of the composite map.

    V[:, :M-1] is lower Hessenberg: its columns 2 to M - 1 hold exact zeros
    above the first superdiagonal, and so do kappa's."""

    t: float
    g: float
    r: float
    V: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        read_only(self, "V", "kappa")


def gain_and_transmittance(profile: NoiseProfile) -> tuple[float, float]:
    """Amplifier gain g = sqrt(1 + n_tot) and tap transmittance
    t = sqrt((M - N) / (n_tot N))."""
    if profile.m_out <= profile.n_in:
        raise ValueError("amplifier scheme requires M > N")
    require_on_surface(profile)
    n_tot = profile.n_tot
    if n_tot <= 0:
        raise ValueError("M > N requires strictly positive total noise")
    g = math.sqrt(1.0 + n_tot)
    t = math.sqrt((profile.m_out - profile.n_in) / (n_tot * profile.n_in))
    if not within(min(0.0, 1.0 - t)):
        raise OffSurfaceError(f"transmittance {t:.6g} > 1; profile is infeasible")
    return g, min(t, 1.0)


def _complete_columns(cols: np.ndarray, k: int) -> np.ndarray:
    """Fill the columns of `cols` after its orthonormal first k by
    Gram-Schmidt over the canonical basis in order: e_j is kept when more
    than COMPLETION_SKIP of it is left after projecting it off the columns C
    accepted so far, and C^T e_j is row j of C.

    In exact arithmetic the accepted columns span e_0, ..., e_{j-1} by the
    time e_j is taken, so what is left of e_j is zero on the rows above j:
    it is projected on rows j and below only, and the rows above are exact
    zeros."""
    for j in range(cols.shape[0]):
        if k == cols.shape[1]:
            break
        # rows j and below of e_j - C C[j, :]; 0 - x rather than -x leaves
        # no negative zeros, as e_j - x does
        rest = 0.0 - cols[j:, :k] @ cols[j, :k]
        rest[0] += 1.0
        norm = math.sqrt(rest @ rest)
        if norm > COMPLETION_SKIP:
            cols[:j, k] = 0.0
            cols[j:, k] = rest / norm
            k += 1
    return cols


def _live_columns(profile: NoiseProfile):
    """Tap transmittance t, amplifier gain g, tap reflectance r, and the
    signal and noise columns v_1, v_M of the interferometer: the only two of
    its input ports that carry light.

    v_M routes the amplifier idler noise, v_M = sqrt(n / n_tot).  After the
    amplifier each clone still lacks the amplitude lack = 1 - g t sqrt(N) v_M
    (in units of the input amplitude), so v_1 is lack's direction and
    r = v_1 . lack / sqrt(N).  When lack keeps no more than COMPLETION_SKIP
    of its norm off v_M, as at the symmetric point where nothing is lacking,
    v_1 is the first canonical basis vector that does.
    """
    g, t = gain_and_transmittance(profile)
    m, sqrt_n = profile.m_out, math.sqrt(profile.n_in)
    col_noise = np.sqrt(profile.noises / profile.n_tot)
    lack = 1.0 - g * t * sqrt_n * col_noise
    cols = np.empty((m, 2))
    cols[:, 0] = col_noise / np.linalg.norm(col_noise)
    rest = lack - cols[:, :1] @ (cols[:, :1].T @ lack)
    norm = np.linalg.norm(rest)
    if norm > COMPLETION_SKIP * np.linalg.norm(lack):
        cols[:, 1] = rest / norm
    else:
        _complete_columns(cols, 1)
    r = float(cols[:, 1] @ lack) / sqrt_n
    return t, g, r, cols[:, 1], cols[:, 0]


def build_interferometer(profile: NoiseProfile) -> AmplifierCircuit:
    """Synthesize the amplifier-scheme circuit {t, g, r, V, kappa}.

    Column 1 of V is the signal column and column M the noise column of
    `_live_columns`; the remaining columns are a deterministic completion
    over the canonical basis.  The completion column taken from e_j is zero
    on the rows above j, so V is lower Hessenberg outside its noise column.
    """
    t, g, r, v_sig, v_noise = _live_columns(profile)
    m = profile.m_out
    cols = np.empty((m, m))
    cols[:, 0], cols[:, 1] = v_noise, v_sig
    # circuit order (b_1, ..., b_{M-1}, a_out): the noise column goes last
    v = np.roll(_complete_columns(cols, 2), -1, axis=1)
    # composite coefficients of the auxiliary vacuum modes b_1..b_{M-1}:
    # kappa_j1 = v_j1 t - v_jM g r, kappa_jk = v_jk otherwise
    kappa = v[:, : m - 1].copy()
    kappa[:, 0] = v[:, 0] * t - v[:, m - 1] * g * r
    return AmplifierCircuit(t=t, g=g, r=r, V=v, kappa=kappa)


def _amplifier_moments(t, g, r, v_sig, v_noise):
    """Amplitude gains s and per-quadrature output covariance block
    s s^T + B of the amplifier scheme on a coherent state, from its two live
    columns: the clones of the collected amplitude a have amplitudes s a.

    s = g t v_M + r v_1.  The vacuum ports' kappa kappa^T is
    I - v_1 v_1^T - v_M v_M^T + kappa_1 kappa_1^T with kappa_1 = t v_1 - g r v_M
    for any orthogonal completion of V, so
    B = I - v_1 v_1^T + kappa_1 kappa_1^T + (g^2 - 2) v_M v_M^T.
    """
    s = g * t * v_noise + r * v_sig
    kappa_1 = t * v_sig - g * r * v_noise
    vecs = np.array([s, v_sig, kappa_1, v_noise])
    weights = np.array([1.0, -1.0, 1.0, g * g - 2.0])
    return s, np.eye(s.size) + (vecs.T * weights) @ vecs


def channel_from_amplifier(circ: AmplifierCircuit, profile: NoiseProfile) -> GaussianChannel:
    """Compose tap, amplifier, and interferometer into a single (S, G) map.

    The channel input is the single collected mode (carrying sqrt(N) alpha).
    The circuit is phase-insensitive, so S = blkdiag(s, s) and
    G = blkdiag(B, B) with s and B from `_amplifier_moments`.  On the surface
    these are the mean-replicating S and B = I + 2F - H/N.
    """
    s, block = _amplifier_moments(circ.t, circ.g, circ.r, circ.V[:, 0], circ.V[:, -1])
    b = block - np.outer(s, s)
    return GaussianChannel(1, profile.m_out, xp_matrix(s[:, None], 0.0), xp_matrix(b, 0.0))


def _clone_state(amps: np.ndarray, block: np.ndarray) -> GaussianState:
    """State of M clones with complex amplitudes `amps` whose x and p
    quadratures are uncorrelated, each with covariance `block`."""
    return GaussianState(amps.size, quadrature_mean(amps), xp_matrix(block, 0.0))


def amplifier_output_state(
    circ: AmplifierCircuit, profile: NoiseProfile, alpha: complex
) -> GaussianState:
    """Exact output Gaussian state of the amplifier scheme on N copies of
    |alpha> (after signal collection into one mode)."""
    s, block = _amplifier_moments(circ.t, circ.g, circ.r, circ.V[:, 0], circ.V[:, -1])
    return _clone_state(s * (math.sqrt(profile.n_in) * alpha), block)


# -- feedforward scheme ------------------------------------------------------


@dataclass(frozen=True)
class FeedforwardCircuit:
    """Tap reflectance, electronic gains, splitter reflectances, and the
    splitting fractions: the amplitude fraction of the transmitted beam that
    reaches each clone.

    Every clone is displaced by its gain times the heterodyne outcome itself,
    the one convention under which the clone means equal the input
    amplitude."""

    r_tap: float
    gains: np.ndarray
    reflectances: np.ndarray
    splitting: np.ndarray

    def __post_init__(self):
        read_only(self, "gains", "reflectances", "splitting")


def feedforward_params(profile: NoiseProfile) -> FeedforwardCircuit:
    """Tap reflectance, electronic gains g_j = sqrt(n_j), the recursive
    splitter reflectances and the splitting fractions of the feedforward
    scheme."""
    require_on_surface(profile)
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
    # amps is a difference of terms of size sqrt((1 + n_tot) / denom_sq)
    if not within(min(0.0, np.min(amps)), math.sqrt((1.0 + n_tot) / denom_sq)):
        raise OffSurfaceError(f"negative clone amplitude {np.min(amps):.6g}; profile is infeasible")
    amps = np.maximum(amps, 0.0)
    beam = np.sqrt(np.cumsum(amps[::-1] ** 2)[::-1])[:-1]
    refl = np.divide(amps[:-1], beam, out=np.zeros(m - 1), where=beam > 0)
    # the splitter chain's fractions, taken from the amplitudes: multiplying
    # sqrt(1 - r^2) down the chain loses half the digits at a reflectance near 1
    splitting = amps / np.linalg.norm(amps)
    return FeedforwardCircuit(r_tap=r_tap, gains=gains, reflectances=refl, splitting=splitting)


def _feedforward_moments(circ: FeedforwardCircuit, amp_in: complex):
    """Clone amplitudes and per-quadrature covariance block of the
    feedforward scheme on the collected amplitude `amp_in`, including the
    classical correlations induced by the shared heterodyne outcome."""
    t_tap = math.sqrt(1.0 - circ.r_tap**2)
    amps = circ.splitting * t_tap * amp_in + circ.gains * (circ.r_tap * amp_in)
    # each quadrature: optical vacuum (unit cov) + shared displacement noise
    return amps, np.eye(circ.gains.size) + 2.0 * np.outer(circ.gains, circ.gains)


def scheme_equivalence_check(
    profile: NoiseProfile, feedforward: FeedforwardCircuit | None = None
) -> dict:
    """Compare the output Gaussian states of the two circuits of `profile`
    on the input amplitude EQUIVALENCE_ALPHA.

    Both states have uncorrelated x and p quadratures with one covariance
    block each, so the states are compared through their clone amplitudes
    and that M x M block; the amplifier's comes from its two live columns,
    without building V.  `feedforward` is the feedforward circuit of
    `profile` when the caller has already built it.  Returns a report with
    the element-wise mean and covariance discrepancies and a pass flag: each
    `within` the size of the amplifier's entries, max|mean| and max|cov|.
    """
    if feedforward is None:
        feedforward = feedforward_params(profile)
    amp_in = math.sqrt(profile.n_in) * EQUIVALENCE_ALPHA
    s, block_amp = _amplifier_moments(*_live_columns(profile))
    amps_ff, block_ff = _feedforward_moments(feedforward, amp_in)
    mean_amp = quadrature_mean(s * amp_in)
    mean_diff = float(np.max(np.abs(mean_amp - quadrature_mean(amps_ff))))
    cov_diff = float(np.max(np.abs(block_amp - block_ff)))
    return {
        "mean_discrepancy": mean_diff,
        "cov_discrepancy": cov_diff,
        "discrepancy": max(mean_diff, cov_diff),
        "passed": within(mean_diff, np.max(np.abs(mean_amp)))
        and within(cov_diff, np.max(np.abs(block_amp))),
    }


# -- verification ------------------------------------------------------------


def verify_circuit(
    profile: NoiseProfile, scheme: str
) -> tuple[AmplifierCircuit | FeedforwardCircuit, dict]:
    """Build the `scheme` circuit of `profile` and check its invariants.

    Returns the circuit and a report of every residual and margin with an
    overall `passed` flag, each value `within` its scale (see the README).
    """
    if scheme == "amplifier":
        circ = build_interferometer(profile)
        m, n = profile.m_out, profile.n_in
        unitarity = float(np.max(np.abs(circ.V.T @ circ.V - np.eye(m))))
        target = np.eye(m) - np.ones((m, m)) / n + noise_gram_matrix(profile)
        kappa_resid = float(np.max(np.abs(circ.kappa @ circ.kappa.T - target)))
        # the channel is S = blkdiag(s, s), G = blkdiag(B, B)
        s, block = _amplifier_moments(circ.t, circ.g, circ.r, circ.V[:, 0], circ.V[:, -1])
        b = block - np.outer(s, s)
        g_resid = float(np.max(np.abs(b - _g_opt_block(profile))))
        # G + iK = [[B, iP], [-iP, B]] with P = I - s s^T; the vectors
        # (u, -iu) and (u, iu) split it into the real B + P and B - P.  Off
        # span{v_1, v_M} these are 2I and 0, so their spectra are those of
        # their compressions onto Q = [v_1, v_M], with 2 and 0 when M > 2
        q = circ.V[:, [0, -1]]
        qs = q.T @ s
        qpq = q.T @ q - np.outer(qs, qs)
        least = np.linalg.eigvalsh(q.T @ b @ q + np.array([qpq, -qpq]))[:, 0].min()
        cp_eig = float(min(least, 0.0) if m > 2 else least)
        b_max = np.max(np.abs(b))
        return circ, {
            "unitarity_residual": unitarity,
            "kappa_gram_residual": kappa_resid,
            "g_opt_residual": g_resid,
            "cp_min_eigenvalue": cp_eig,
            "transmittance": circ.t,
            "passed": within(unitarity)
            and within(kappa_resid, np.max(np.abs(target)))
            and within(g_resid, b_max)
            and within(min(0.0, cp_eig), b_max),
        }
    if scheme == "feedforward":
        circ = feedforward_params(profile)
        in_range = bool(
            np.all(circ.reflectances >= 0.0)
            and np.all(circ.reflectances <= 1.0)
            and 0.0 <= circ.r_tap <= 1.0
        )
        gain_resid = float(np.max(np.abs(circ.gains**2 - profile.noises)))
        equiv = scheme_equivalence_check(profile, feedforward=circ)
        return circ, {
            "reflectances_in_range": in_range,
            "gain_noise_residual": gain_resid,
            "scheme_discrepancy": equiv["discrepancy"],
            "passed": in_range and within(gain_resid, np.max(profile.noises)) and equiv["passed"],
        }
    raise ValueError(f"unknown scheme {scheme!r}")
