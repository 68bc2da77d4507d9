"""Optimal N-to-M asymmetric Gaussian cloning of coherent states.

Design of optimal noise profiles, synthesis of the amplifier and
feedforward realizations, shot-level Monte Carlo simulation, and numerical
verification of the SDP dual certificate of optimality.
"""

from .core import (
    CloneMarginal,
    GaussianChannel,
    GaussianState,
    clone_marginal,
    coherent_state,
    mode_amplitudes,
)
from .design import (
    CostWeights,
    InfeasibleDesignError,
    NoiseProfile,
    OffSurfaceError,
    design_from_weights,
    estimation_tradeoff,
    last_noise_roots,
    residual,
    solve_last_noise,
    symmetric_profile,
)
from .circuits import (
    AmplifierCircuit,
    FeedforwardCircuit,
    amplifier_output_state,
    build_interferometer,
    channel_from_amplifier,
    clone_output_cov,
    feedforward_params,
    g_opt_matrix,
    gain_and_transmittance,
    noise_gram_matrix,
    scheme_equivalence_check,
    verify_circuit,
)
from .certificate import (
    CertifiedProblem,
    DualCertificate,
    build_certificate,
    build_problem,
    random_feasible_cost_scan,
    verify_certificate,
    weights_from_profile,
)
from .simulate import SimConfig, SimResult, run

__version__ = "0.1.0"
