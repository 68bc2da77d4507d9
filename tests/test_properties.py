"""Property tests, derandomized so the suite stays deterministic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussclone import NoiseProfile, SimConfig, run, simulate

from test_simulate import assert_results_close


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    shots=st.integers(1, 300),
    shards=st.integers(1, 5),
    chunk=st.integers(1, 100),
)
def test_results_do_not_depend_on_chunk_size(shots, shards, chunk):
    profile = NoiseProfile(1, 2, np.array([0.25, 1.0]))
    config = SimConfig(profile=profile, alpha=0.6 - 0.1j, shots=shots, seed=5, shards=shards)
    reference = run(config)  # one chunk per shard at these sizes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "CHUNK_VALUES", chunk)
        result = run(config)
    assert result.shots_used == shots
    assert_results_close(result, reference)
