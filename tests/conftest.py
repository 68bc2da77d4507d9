from pathlib import Path

import numpy as np

from gaussclone import CostWeights, GaussianChannel, GaussianState, design_from_weights
from gaussclone.circuits import g_opt_matrix, k_matrix

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
    weights = CostWeights(rng.uniform(0.1, 10.0, m_out))
    return design_from_weights(weights, n_in, m_out), weights


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
