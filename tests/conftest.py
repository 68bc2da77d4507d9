import math
from pathlib import Path

import numpy as np

from gaussclone import GaussianChannel, GaussianState, design_from_weights
from gaussclone.certificate import k_matrix
from gaussclone.circuits import _feedforward_amplitudes, g_opt_matrix
from gaussclone.core import quadrature_mean, xp_matrix

# circuit documents written by an earlier release, which must keep verifying
FIXTURES = Path(__file__).parent / "fixtures"

# pass/fail lines recorded by the acceptance tests, echoed after the run
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def random_optimal_profile(rng, m_max=8, n_in=None, m_out=None):
    """Random on-surface profile via a weighted-cost design."""
    if m_out is None:
        m_out = int(rng.integers(2, m_max + 1))
    if n_in is None:
        n_in = int(rng.integers(1, m_out))
    return design_from_weights(rng.uniform(0.1, 10.0, m_out), n_in, m_out)


def vacuum_state(num_modes):
    return GaussianState(num_modes, np.zeros(2 * num_modes), np.eye(2 * num_modes))


def identity_channel(num_modes):
    d = 2 * num_modes
    return GaussianChannel(num_modes, num_modes, np.eye(d), np.zeros((d, d)))


def a_opt_matrix(profile):
    """Complete-positivity matrix A_opt = G_opt + iK (Hermitian)."""
    return g_opt_matrix(profile) + 1j * k_matrix(profile.n_in, profile.m_out)


def splitting_amplitudes(circ):
    """Splitting fractions of a feedforward circuit multiplied down its
    splitter chain, d_j = r_j prod_{i<j} sqrt(1 - r_i^2)."""
    m = circ.gains.size
    d = np.zeros(m)
    trans = 1.0
    for j in range(m - 1):
        d[j] = circ.reflectances[j] * trans
        trans *= np.sqrt(1.0 - circ.reflectances[j] ** 2)
    d[m - 1] = trans
    return d


# -- reference Gaussian algebra that only the tests use ----------------------


def symplectic_form(num_modes):
    """Commutator matrix J = [[0, I], [-I, 0]] in xxpp ordering."""
    return xp_matrix(0.0, np.eye(num_modes))


def apply_channel(ch, st):
    """Propagate a Gaussian state through a Gaussian CP map."""
    if st.num_modes != ch.m_in:
        raise ValueError(f"channel expects {ch.m_in} input modes, state has {st.num_modes}")
    return GaussianState(ch.m_out, ch.S @ st.mean, ch.S @ st.cov @ ch.S.T + ch.G)


def cp_min_eigenvalue(ch):
    """Min eigenvalue of G + iK with K = J_out - S J_in S^T; the channel is
    completely positive iff within(min(0.0, value), max|G|)."""
    k = symplectic_form(ch.m_out) - ch.S @ symplectic_form(ch.m_in) @ ch.S.T
    return float(np.linalg.eigvalsh(ch.G + 1j * k)[0])


def feedforward_output_state(circ, n_in, alpha):
    """Exact output Gaussian state of the feedforward scheme, including the
    classical correlations induced by the shared heterodyne outcome."""
    amps = _feedforward_amplitudes(circ, math.sqrt(n_in) * alpha)
    block = np.eye(amps.size) + 2.0 * np.outer(circ.gains, circ.gains)
    return GaussianState(amps.size, quadrature_mean(amps), xp_matrix(block, 0.0))
