"""Every refusal of invalid input names its cause, on each path that the
other tests do not reach."""

import json
import re

import numpy as np
import pytest

from gaussclone import (
    CostWeights,
    GaussianState,
    NoiseProfile,
    build_problem,
    clone_marginal,
    design_from_weights,
    estimation_tradeoff,
    symmetric_profile,
    weights_from_profile,
)
from gaussclone.circuits import feedforward_params, gain_and_transmittance
from gaussclone.cli import CliError, build_parser, cmd_design, design_document, load_design
from gaussclone.design import InfeasibleDesignError, OffSurfaceError, last_noise_roots
from gaussclone.simulate import SimConfig

# the suboptimal root of `solve --noises 1,1 --n-in 1 --m-out 3`: on the
# surface, but its last clone is too noisy for positive weights or amplitudes
OTHER_ROOT = NoiseProfile(1, 3, np.array([1.0, 1.0, 11.65685424949238]))
# a symmetric 1 -> 20 profile with its noises 5e-9 low: it beats the cloning
# bound by 2.5e-9 of its centered terms (2.5e-10 of S^2), and its tap
# transmittance would be 1 + 2.5e-9
BELOW_SYMMETRIC = NoiseProfile(1, 20, np.full(20, 0.95 * (1 - 5e-9)))
# the same at 1 -> 10^5 with its noises 2e-5 low: 1.0e-5 of its centered
# terms (2.0e-10 of S^2), and (2 + n_tot) N - M would be about -1
FAR_BELOW_SYMMETRIC = NoiseProfile(1, 10**5, np.full(10**5, (1 - 1e-5) * (1 - 2e-5)))


def design_file(tmp_path, **fields):
    """A 1 -> 3 design document with `fields` replaced."""
    path = tmp_path / "design.json"
    doc = design_document(*design_from_weights([1.0, 2.0, 5.0], 1, 3))
    path.write_text(json.dumps({**doc, **fields}))
    return str(path)


def design_command(*argv):
    return cmd_design(build_parser().parse_args(["design", "--n-in", "1", "--m-out", "2", *argv]))


REFUSALS = {
    "cli-schema-version": (
        lambda tmp: load_design(design_file(tmp, schema_version=2)),
        CliError, "unsupported design schema version 2",
    ),
    "cli-stored-residual": (
        lambda tmp: load_design(design_file(tmp, residual=1e-3)),
        CliError, "stored residual does not match recomputed value",
    ),
    "cli-design-neither": (
        lambda tmp: design_command(),
        CliError, "specify exactly one of --symmetric or --weights",
    ),
    "cli-design-both": (
        lambda tmp: design_command("--symmetric", "--weights", "1,1"),
        CliError, "specify exactly one of --symmetric or --weights",
    ),
    "design-noise-shape": (
        lambda tmp: NoiseProfile(1, 2, np.array([0.5])),
        ValueError, "expected 2 noises, got shape (1,)",
    ),
    "design-weight-shape": (
        lambda tmp: design_from_weights([1.0, 2.0], 1, 3),
        ValueError, "expected 3 weights, got shape (2,)",
    ),
    "design-no-replica": (
        lambda tmp: NoiseProfile(0, 1, np.array([0.0])),
        ValueError, "need at least one input replica",
    ),
    "design-m-below-n": (
        lambda tmp: NoiseProfile(2, 1, np.array([0.0])),
        ValueError, "output count M must satisfy M >= N",
    ),
    "design-empty-weights": (
        lambda tmp: CostWeights(np.array([]), -1.0),
        ValueError, "weights must be a non-empty vector",
    ),
    "design-completion-m-equals-n": (
        lambda tmp: last_noise_roots([0.5], 2, 2),
        ValueError, "completion requires M > N",
    ),
    "design-completion-no-noisy-clone": (
        lambda tmp: last_noise_roots([0.0], 1, 2),
        InfeasibleDesignError, "M - N = 1 requires at least one noisy clone among the first M - 1",
    ),
    "design-completion-negative": (
        lambda tmp: last_noise_roots([1.0, 1.0], 2, 3),
        InfeasibleDesignError, "no non-negative completion exists",
    ),
    "design-weighted-m-equals-n": (
        lambda tmp: design_from_weights([1.0, 1.0], 2, 2),
        ValueError, "weighted design requires M > N",
    ),
    "design-symmetric": (
        lambda tmp: symmetric_profile(2, 1),
        ValueError, "need M >= N >= 1",
    ),
    "design-negative-n-f": (
        lambda tmp: estimation_tradeoff(-0.1),
        ValueError, "quantum-copy noise must be non-negative",
    ),
    "core-no-mode": (
        lambda tmp: GaussianState(0, np.zeros(0), np.zeros((0, 0))),
        ValueError, "need at least one mode",
    ),
    "core-mode-index": (
        lambda tmp: clone_marginal(GaussianState(1, np.zeros(2), np.eye(2)), 1),
        IndexError, "mode index 1 out of range for 1 modes",
    ),
    "core-sub-vacuum": (
        lambda tmp: clone_marginal(GaussianState(1, np.zeros(2), 0.5 * np.eye(2)), 0),
        ValueError, "mode 0 has sub-vacuum variance 0.5",
    ),
    "certificate-weight-length": (
        lambda tmp: build_problem(symmetric_profile(1, 2), CostWeights(np.ones(3), -1.0)),
        ValueError, "weight vector length must equal the clone count",
    ),
    "certificate-no-positive-weights": (
        lambda tmp: weights_from_profile(OTHER_ROOT),
        ValueError, "profile admits no strictly positive extremal weights",
    ),
    "circuits-amplifier-m-equals-n": (
        lambda tmp: gain_and_transmittance(symmetric_profile(2, 2)),
        ValueError, "amplifier scheme requires M > N",
    ),
    "circuits-transmittance": (
        lambda tmp: gain_and_transmittance(BELOW_SYMMETRIC),
        OffSurfaceError, "profile residual -9.5e-08 exceeds 1e-09 of its terms 38",
    ),
    "circuits-negative-amplitude": (
        lambda tmp: feedforward_params(OTHER_ROOT),
        OffSurfaceError,
        "clone amplitude -1.41 is below 0 by more than 1e-09 of its terms 5.02; "
        "off the optimal sheet",
    ),
    "circuits-splitter-recursion": (
        lambda tmp: feedforward_params(FAR_BELOW_SYMMETRIC),
        OffSurfaceError, "profile residual -2 exceeds 1e-09 of its terms 2e+05",
    ),
    "simulate-shards": (
        lambda tmp: SimConfig(symmetric_profile(1, 2), 1.0, 10, 0, shards=0),
        ValueError, "need at least one shard",
    ),
}


@pytest.mark.parametrize("call, exception, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_names_its_cause(tmp_path, call, exception, message):
    with pytest.raises(exception, match=f"^{re.escape(message)}$"):
        call(tmp_path)
