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
S = blkdiag(s, s) and G = blkdiag(B, B).  Only two input ports of the
interferometer carry light, the signal column v_1 and the amplifier-noise
column v_M of V, so s and B follow from those two columns alone.
`AmplifierCircuit` holds t, g, r and those two columns; on first use it
completes V by batched 4 x 2 QRs on a tree of row blocks.  `verify_circuit`
checks each circuit on its own: an amplifier by the channel that t, g, V and
kappa make, whether built or stored, a feedforward circuit by its clone means
and gains.  Every block that it or `scheme_equivalence_check` reads, B, B +- P,
the target I + 2F - H/N and the feedforward I + 2 gamma gamma^T, is the
identity plus at most six rank-one terms in s, v_1, kappa_1, v_M, f = sqrt(n)
and 1, so each verdict is the exact spectrum of a small core (`low_rank_spectra`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (GaussianChannel, GaussianState, frozen, quadrature_mean, read_only, within,
                   xp_matrix)
from .design import NoiseProfile, require_on_surface

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


def g_opt_matrix(profile: NoiseProfile) -> np.ndarray:
    """Channel noise matrix of the optimal cloner: blocks I + 2F - H/N."""
    m, n = profile.m_out, profile.n_in
    return xp_matrix(np.eye(m) + 2.0 * noise_gram_matrix(profile) - np.ones((m, m)) / n, 0.0)


def low_rank_spectra(vecs: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectra of the sums sum_l w_l u_l u_l^T over the rows u_l
    of `vecs`, one per row w of `weights`, and each sum's term size
    max_l |w_l| |u_l|^2, the scale at which its spectrum rounds.  With
    vecs^T = Q R (Q orthonormal, so |u_l| is the norm of R's column l), a sum
    is Q (R diag(w) R^T) Q^T: the small core's eigenvalues are its spectrum
    apart from its zeros off span{u_l}, exactly at any rank and when L > M."""
    r = np.linalg.qr(np.transpose(vecs), mode="r")
    sizes = np.max(np.abs(weights) * np.sum(r * r, axis=0), axis=1)
    core = (r * weights[:, None, :]) @ r.T  # a malformed document's is not finite: NaN spectra
    return np.linalg.eigvalsh(core) if np.isfinite(core).all() else core[..., 0] * math.nan, sizes


# -- amplifier scheme --------------------------------------------------------


@dataclass(frozen=True)
class AmplifierCircuit:
    """Tap transmittance t, amplifier gain g, tap reflectance r, and the
    columns v_sig = v_1 and v_noise = v_M of the interferometer V, the only
    two of its input ports that carry light.  V and the auxiliary-mode
    coefficients kappa = [t v_1 - g r v_M, V's columns 2 to M - 1] are built
    from them once, on first access, read-only.  Those columns each hold exact
    zeros off one block of a tree of contiguous rows (`_block_tree_completion`)."""

    t: float
    g: float
    r: float
    v_sig: np.ndarray
    v_noise: np.ndarray

    def __post_init__(self):
        read_only(self, "v_sig", "v_noise")

    @functools.cached_property
    def V(self) -> np.ndarray:
        """V in circuit order (b_1, ..., b_{M-1}, a_out): v_sig, the completion, v_noise."""
        return frozen(_block_tree_completion(np.column_stack([self.v_sig, self.v_noise])))

    @functools.cached_property
    def kappa(self) -> np.ndarray:
        kappa = self.V[:, :-1].copy()
        kappa[:, 0] = self.v_sig * self.t - self.v_noise * self.g * self.r
        return frozen(kappa)

    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Amplitude gains s and the per-quadrature output covariance block
        s s^T + B = I + sum_l w_l u_l u_l^T of the circuit on a coherent state,
        as the rows u_l = (s, v_1, kappa_1, v_M) of `vecs` and the `weights`
        w_l: the clones of the collected amplitude a have amplitudes s a.

        s = g t v_M + r v_1.  The vacuum ports' kappa kappa^T is
        I - v_1 v_1^T - v_M v_M^T + kappa_1 kappa_1^T with
        kappa_1 = t v_1 - g r v_M for any orthogonal completion of V, so
        B = I - v_1 v_1^T + kappa_1 kappa_1^T + (g^2 - 2) v_M v_M^T.
        """
        s = self.g * self.t * self.v_noise + self.r * self.v_sig
        kappa_1 = self.t * self.v_sig - self.g * self.r * self.v_noise
        vecs = np.array([s, self.v_sig, kappa_1, self.v_noise])
        return s, vecs, np.array([1.0, -1.0, 1.0, self.g * self.g - 2.0])


def gain_and_transmittance(profile: NoiseProfile) -> tuple[float, float]:
    """Amplifier gain g = sqrt(1 + n_tot) and tap transmittance t = sqrt((M - N) / (n_tot N)),
    taken as sqrt((M - N) / ((M - N) + M V)) <= 1: n_tot N = (M - N) + M V on the surface."""
    if profile.m_out <= profile.n_in:
        raise ValueError("amplifier scheme requires M > N")
    v = require_on_surface(profile)  # so n_tot > 0: all-zero noises miss the surface by M - N
    excess = profile.m_out - profile.n_in
    return math.sqrt(1.0 + profile.n_tot), math.sqrt(excess / (excess + profile.m_out * v))


def _block_tree_completion(live: np.ndarray) -> np.ndarray:
    """The orthogonal V = [v_sig, completion, v_noise] of the orthonormal M x 2
    `live`, each completion column zero off one block of a tree of contiguous rows.
    Leaves are row pairs with basis I (and, for odd M, the last three rows, from the
    complete QR of `live` on them).  Each level merges blocks in pairs (an odd last
    one passes up) by one batched complete QR of the pairs' 4 x 2 c = blkdiag(B_L,
    B_R)^T live; blkdiag(B_L, B_R) Q holds the merged basis and two columns.  QR puts
    range(c) in span Q[:, :2] at any rank: no rank is decided, V is orthogonal to rounding."""
    m = live.shape[0]
    v, k = np.zeros((m, m)), m % 2
    v[:, :: m - 1], cols = live, v[:, 1 : m - 1]  # cols is a view: the completion
    block = np.minimum(np.arange(m) // 2, m // 2 - 1)
    basis = np.eye(2)[np.arange(m) % 2]
    red = live[: m - k].reshape(m // 2, 2, 2).copy()
    if k:
        q, r = np.linalg.qr(live[-3:], mode="complete")
        basis[-3:], red[-1], cols[-3:, 0] = q[:, :2], r[:2], q[:, 2]
    while len(red) > 1:
        pairs = len(red) // 2
        q, r = np.linalg.qr(red[: 2 * pairs].reshape(pairs, 4, 2), mode="complete")
        rows = np.arange(np.searchsorted(block, 2 * pairs))
        # row i, on side s of pair p, takes rows 2s and 2s + 1 of that pair's Q
        side = q.reshape(pairs, 2, 2, 4)[block[rows] // 2, block[rows] % 2]
        new = basis[rows, :1] * side[:, 0] + basis[rows, 1:] * side[:, 1]
        basis[rows], first = new[:, :2], k + block[rows] // 2 * 2
        cols[rows, first], cols[rows, first + 1] = new[:, 2], new[:, 3]
        red, block, k = np.concatenate([r[:, :2], red[2 * pairs :]]), block // 2, k + 2 * pairs
    cols += 0.0  # -0.0 + 0.0 is +0.0
    return v


def build_interferometer(profile: NoiseProfile) -> AmplifierCircuit:
    """Synthesize the amplifier-scheme circuit of `profile`: t, g, r and the
    two live columns v_1, v_M, in O(M).

    v_M routes the amplifier idler noise, v_M = sqrt(n / n_tot).  After the
    amplifier each clone still lacks the amplitude lack = 1 - g t sqrt(N) v_M
    (in units of the input amplitude): v_1 is the second column of the QR of
    [v_M, lack], signed so that r = v_1 . lack / sqrt(N) >= 0.  QR decides no
    rank: where nothing is lacking, as at the symmetric point, r is 0 to
    rounding and v_1, carrying no light, is some unit vector orthogonal to v_M.
    """
    g, t = gain_and_transmittance(profile)
    sqrt_n = math.sqrt(profile.n_in)
    col_noise = np.sqrt(profile.noises / profile.n_tot)
    v_noise = col_noise / np.linalg.norm(col_noise)
    lack = 1.0 - g * t * sqrt_n * col_noise
    v_sig = np.linalg.qr(np.column_stack([v_noise, lack]))[0][:, 1]
    if (lacking := float(v_sig @ lack)) < 0.0:
        v_sig, lacking = -v_sig, -lacking
    return AmplifierCircuit(t, g, lacking / sqrt_n, v_sig + 0.0, v_noise)  # + 0.0: no -0.0


def channel_from_amplifier(circ: AmplifierCircuit, profile: NoiseProfile) -> GaussianChannel:
    """Compose tap, amplifier, and interferometer into a single (S, G) map.

    The channel input is the single collected mode (carrying sqrt(N) alpha).
    The circuit is phase-insensitive, so S = blkdiag(s, s) and
    G = blkdiag(B, B) with s and B from `AmplifierCircuit.moments`.  On the
    surface these are the mean-replicating S and B = I + 2F - H/N.
    """
    s, vecs, weights = circ.moments()
    b = np.eye(s.size) + (vecs.T * weights) @ vecs - np.outer(s, s)
    return GaussianChannel(1, profile.m_out, xp_matrix(s[:, None], 0.0), xp_matrix(b, 0.0))


def amplifier_output_state(
    circ: AmplifierCircuit, profile: NoiseProfile, alpha: complex
) -> GaussianState:
    """Exact output Gaussian state of the amplifier scheme on N copies of
    |alpha> (after signal collection into one mode)."""
    s, vecs, weights = circ.moments()
    amps = s * (math.sqrt(profile.n_in) * alpha)
    block = np.eye(s.size) + (vecs.T * weights) @ vecs
    return GaussianState(amps.size, quadrature_mean(amps), xp_matrix(block, 0.0))


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
    """Tap reflectance, electronic gains g_j = sqrt(n_j), the recursive splitter
    reflectances and the splitting fractions of the feedforward scheme; on the optimal
    sheet (`require_on_surface`) the amplitudes are >= 0, their denominator N + M V > 0."""
    v = require_on_surface(profile)
    m, n, n_tot = profile.m_out, profile.n_in, profile.n_tot
    excess = m - n
    gains = np.sqrt(profile.noises)
    r_tap = math.sqrt(excess / ((1.0 + n_tot) * n))
    # closed-form amplitude reaching each clone; splitter j reflects its
    # share of the amplitude still in the beam, so a clone whose amplitude is
    # exactly zero gets exactly zero rather than sqrt of a rounding error
    amps = (math.sqrt(1.0 + n_tot) - np.sqrt(excess * profile.noises)) / math.sqrt(n + m * v)
    amps = np.maximum(amps, 0.0)
    beam = np.sqrt(np.cumsum(amps[::-1] ** 2)[::-1])[:-1]
    refl = np.divide(amps[:-1], beam, out=np.zeros(m - 1), where=beam > 0)
    # the splitter chain's fractions, taken from the amplitudes: multiplying
    # sqrt(1 - r^2) down the chain loses half the digits at a reflectance near 1
    splitting = amps / np.linalg.norm(amps)
    return FeedforwardCircuit(r_tap=r_tap, gains=gains, reflectances=refl, splitting=splitting)


def _feedforward_amplitudes(circ: FeedforwardCircuit, amp_in: complex) -> np.ndarray:
    """Clone amplitudes of the feedforward scheme on the collected amplitude
    `amp_in`; each quadrature's covariance block is I + 2 gamma gamma^T, with
    gamma the gains: vacuum plus the shared heterodyne outcome's noise."""
    t_tap = math.sqrt(1.0 - circ.r_tap**2)
    return circ.splitting * t_tap * amp_in + circ.gains * (circ.r_tap * amp_in)


def scheme_equivalence_check(profile: NoiseProfile) -> dict:
    """Compare the output Gaussian states of the two circuits of `profile`
    on the input amplitude EQUIVALENCE_ALPHA: acceptance criterion 6, which
    `verify_circuit` does not call, as it checks each circuit on its own.

    Both states have uncorrelated x and p quadratures with one covariance
    block each, so the states are compared through their clone amplitudes
    and that M x M block; the amplifier's comes from its two live columns,
    without completing V.  Returns a report with the largest mean difference,
    held to max|mean|, the spectral norm of the covariance difference, held
    to the size of its terms, and a pass flag.
    """
    feedforward = feedforward_params(profile)
    amp_in = math.sqrt(profile.n_in) * EQUIVALENCE_ALPHA
    s, vecs, weights = build_interferometer(profile).moments()
    mean_amp = quadrature_mean(s * amp_in)
    mean_ff = quadrature_mean(_feedforward_amplitudes(feedforward, amp_in))
    mean_diff = float(np.max(np.abs(mean_amp - mean_ff)))
    u = np.vstack([vecs, feedforward.gains])  # the blocks' identities cancel
    spectra, sizes = low_rank_spectra(u, np.append(weights, -2.0)[None])
    cov_diff = float(np.max(np.abs(spectra)))
    return {
        "mean_discrepancy": mean_diff,
        "cov_discrepancy": cov_diff,
        "discrepancy": max(mean_diff, cov_diff),
        "passed": within(mean_diff, np.max(np.abs(mean_amp))) and within(cov_diff, sizes[0]),
    }


# -- verification ------------------------------------------------------------


def verify_circuit(
    profile: NoiseProfile, scheme: str, stored=None
) -> tuple[AmplifierCircuit | FeedforwardCircuit, dict]:
    """Check the `scheme` circuit of `profile`: the one built from it or, for
    an amplifier, the one whose t, g, V and kappa are `stored`, which builds
    nothing.  An amplifier is checked by the channel those numbers make, with
    v_1 and v_M V's first and last columns and r = -kappa_1 . v_M / g.  A feedforward
    circuit is checked by its own clone means and by gains gamma = sqrt(n), which
    make its block I + 2 gamma gamma^T the optimal I + 2F; no amplifier is built.

    Returns the circuit and a report of every residual and margin with an
    overall `passed` flag, each value `within` its scale (see the README).
    """
    if scheme == "amplifier":
        built = build_interferometer(profile) if stored is None else None
        t, g, v, kappa = stored or (built.t, built.g, built.V, built.kappa)
        r = -float(kappa[:, 0] @ v[:, -1]) / g if g else math.nan
        circ = AmplifierCircuit(t, g, r, v[:, 0], v[:, -1])
        m, n = profile.m_out, profile.n_in
        unitarity = float(np.max(np.abs(v.T @ v - np.eye(m))))
        target = np.eye(m) - np.ones((m, m)) / n + noise_gram_matrix(profile)
        # kappa kappa^T against its target, and kappa's columns 2 to M - 1 against V's
        kappa_resid = float(np.maximum(np.max(np.abs(kappa @ kappa.T - target)),
                                       np.max(np.abs(kappa[:, 1:] - v[:, 1:-1]), initial=0.0)))
        # G + iK = [[B, iP], [-iP, B]] with P = I - s s^T splits into the real
        # B +- P.  Rows weight (s, v_1, kappa_1, v_M, f, 1) to B - G_opt, B - P
        # and B + P - 2I; the last two are 0 off span{v_1, v_M}, R^M at M = 2
        s, vecs, (w_s, *w) = circ.moments()
        mean_resid = float(np.max(np.abs(s * math.sqrt(n) - 1.0)))
        rows = [[w_s - 1.0, *w, -2.0, 1.0 / n], [w_s, *w, 0.0, 0.0], [w_s - 2.0, *w, 0.0, 0.0]]
        u = np.vstack([vecs, np.sqrt(profile.noises), np.ones(m)])
        spectra, sizes = low_rank_spectra(u, np.array(rows))
        g_resid = float(np.max(np.abs(spectra[0])))
        least = min(spectra[1, 0], 2.0 + spectra[2, 0])
        cp_eig = float(min(least, 0.0) if m > 2 else least)
        return built or circ, {
            "unitarity_residual": unitarity,
            "kappa_gram_residual": kappa_resid,
            "g_opt_residual": g_resid,
            "cp_min_eigenvalue": cp_eig,
            "mean_residual": mean_resid,
            "transmittance": t,
            "passed": within(unitarity)
            and within(kappa_resid, np.max(np.abs(target)))
            and within(g_resid, sizes[0])
            and within(min(0.0, cp_eig), max(sizes[1:]))
            and within(mean_resid),
        }
    if scheme == "feedforward":
        circ = feedforward_params(profile)
        refl = circ.reflectances
        in_range = bool(np.all((refl >= 0.0) & (refl <= 1.0)) and 0.0 <= circ.r_tap <= 1.0)
        gain_resid = float(np.max(np.abs(circ.gains**2 - profile.noises)))
        amps = _feedforward_amplitudes(circ, math.sqrt(profile.n_in))  # per unit input amplitude
        mean_resid = float(np.max(np.abs(amps - 1.0)))
        return circ, {
            "reflectances_in_range": in_range,
            "gain_noise_residual": gain_resid,
            "mean_residual": mean_resid,
            "passed": in_range and within(gain_resid, np.max(profile.noises))
            and within(mean_resid),
        }
    raise ValueError(f"unknown scheme {scheme!r}")
