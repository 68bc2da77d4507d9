import concurrent.futures
import csv
import dataclasses
import math
import multiprocessing
import threading
import tracemalloc

import numpy as np
import pytest

from gaussclone import (
    NoiseProfile,
    SimConfig,
    clone_output_cov,
    coherent_state,
    design_from_weights,
    run,
    symmetric_profile,
)
from gaussclone import simulate
from gaussclone.circuits import feedforward_params
from gaussclone.simulate import SimResult, _shard_sizes

from conftest import random_optimal_profile, splitting_amplitudes


def quad_mean_target(alpha, m):
    return coherent_state([alpha] * m).mean


def test_symmetric_1_to_2_statistics():
    profile = symmetric_profile(1, 2)
    config = SimConfig(profile=profile, alpha=1.0 + 0.0j, shots=10**6, seed=42, shards=4)
    result = run(config)
    target = clone_output_cov(profile)
    dev = np.abs(result.clone_cov - target) / result.cov_se
    assert np.max(dev) < 5.0
    mean_quads = np.concatenate(
        [np.sqrt(2) * result.clone_means.real, np.sqrt(2) * result.clone_means.imag]
    )
    mean_dev = np.abs(mean_quads - quad_mean_target(1.0, 2)) / result.mean_se
    assert np.max(mean_dev) < 5.0
    # spot checks on the expected pattern: diag 2, clone-clone cross 1
    assert result.clone_cov[0, 0] == pytest.approx(2.0, abs=0.02)
    assert result.clone_cov[0, 1] == pytest.approx(1.0, abs=0.02)


def test_asymmetric_covariance_pattern():
    profile = NoiseProfile(1, 2, np.array([0.25, 1.0]))
    config = SimConfig(profile=profile, alpha=0.3 - 0.7j, shots=10**6, seed=7, shards=2)
    result = run(config)
    target = clone_output_cov(profile)
    assert np.allclose(np.diag(target), [1.5, 3.0, 1.5, 3.0])
    dev = np.abs(result.clone_cov - target) / result.cov_se
    assert np.max(dev) < 5.0


def test_identity_cloner_simulation():
    profile = NoiseProfile(2, 2, np.zeros(2))
    result = run(SimConfig(profile=profile, alpha=0.5 + 0.5j, shots=10**5, seed=1))
    dev = np.abs(result.clone_cov - np.eye(4)) / result.cov_se
    assert np.max(dev) < 5.0


def test_config_validation():
    profile = symmetric_profile(1, 2)
    with pytest.raises(ValueError):
        SimConfig(profile=profile, alpha=0.0, shots=0, seed=0)
    for bad in (complex(np.nan, 0.0), complex(0.0, np.inf), -np.inf):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(profile=profile, alpha=bad, shots=10, seed=0)
    with pytest.raises(ValueError):
        SimConfig(profile=NoiseProfile(1, 2, np.array([0.5, 1.0])), alpha=0.0, shots=10, seed=0)


def test_reproducibility_bit_identical():
    profile = symmetric_profile(1, 2)
    config = SimConfig(profile=profile, alpha=1.0, shots=10**4, seed=9, shards=3)
    r1, r2 = run(config), run(config)
    assert np.array_equal(r1.clone_cov, r2.clone_cov)
    assert np.array_equal(r1.clone_means, r2.clone_means)


def test_shard_count_changes_stream_but_not_statistics():
    profile = symmetric_profile(1, 2)
    target = clone_output_cov(profile)
    for shards in (1, 4, 16):
        result = run(SimConfig(profile=profile, alpha=1.0, shots=2 * 10**5, seed=3, shards=shards))
        assert result.shots_used == 2 * 10**5
        assert np.max(np.abs(result.clone_cov - target) / result.cov_se) < 5.0


def test_shard_partition_is_deterministic():
    assert _shard_sizes(10, 3) == [4, 3, 3]
    assert sum(_shard_sizes(10**6, 7)) == 10**6
    assert _shard_sizes(5, 7) == [1] * 5


def test_shards_beyond_the_shot_count_are_skipped(tmp_path, monkeypatch):
    drawn = []
    shard_moments = simulate._shard_moments

    def recording(seed, shard, size, *args, **kwargs):
        drawn.append((shard, size))
        return shard_moments(seed, shard, size, *args, **kwargs)

    monkeypatch.setattr(simulate, "_shard_moments", recording)
    config = SimConfig(profile=symmetric_profile(1, 2), alpha=1.0, shots=5, seed=4, shards=5)
    reference = run(config, samples_path=str(tmp_path / "reference.csv"))
    for extra in (1, 10**5):
        drawn.clear()
        path = tmp_path / "samples.csv"
        result = run(dataclasses.replace(config, shards=5 + extra), samples_path=str(path))
        assert drawn == [(shard, 1) for shard in range(5)]
        assert_results_equal(result, reference)
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_covariance_independent_of_alpha():
    profile = symmetric_profile(1, 2)
    r1 = run(SimConfig(profile=profile, alpha=0.2 + 0.1j, shots=10**4, seed=5))
    r2 = run(SimConfig(profile=profile, alpha=-2.4 + 3.3j, shots=10**4, seed=5))
    assert np.max(np.abs(r1.clone_cov - r2.clone_cov)) < 1e-12


def test_error_scaling_with_shots():
    profile = symmetric_profile(1, 2)
    target = clone_output_cov(profile)
    levels = np.array([10**4, 10**5, 10**6])
    devs = np.zeros(3)
    for i, shots in enumerate(levels):
        vals = [
            np.max(np.abs(run(SimConfig(profile=profile, alpha=0.5, shots=int(shots), seed=s)).clone_cov - target))
            for s in range(8)
        ]
        devs[i] = np.mean(vals)
    slope = np.polyfit(np.log10(levels), np.log10(devs), 1)[0]
    assert -0.6 < slope < -0.4


def test_random_profile_means_match_alpha():
    rng = np.random.default_rng(41)
    profile, _ = random_optimal_profile(rng, m_max=5)
    result = run(SimConfig(profile=profile, alpha=1 + 0.5j, shots=10**5, seed=2))
    mean_quads = np.concatenate(
        [np.sqrt(2) * result.clone_means.real, np.sqrt(2) * result.clone_means.imag]
    )
    dev = np.abs(mean_quads - quad_mean_target(1 + 0.5j, profile.m_out)) / result.mean_se
    assert np.max(dev) < 5.0


def test_sample_csv_stream(tmp_path):
    profile = symmetric_profile(1, 2)
    path = tmp_path / "samples.csv"
    result = run(
        SimConfig(profile=profile, alpha=1.0, shots=50, seed=8), samples_path=str(path)
    )
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["shot", "clone", "x", "p", "o_re", "o_im"]
    assert len(rows) == 1 + 50 * 2
    xs = np.array([[float(r[2]), float(r[3])] for r in rows[1:] if r[1] == "0"])
    mean_from_csv = xs.mean(axis=0)
    assert mean_from_csv[0] == pytest.approx(
        np.sqrt(2) * result.clone_means[0].real, abs=1e-10
    )


def test_standard_errors_positive():
    result = run(SimConfig(profile=symmetric_profile(1, 2), alpha=1.0, shots=1000, seed=0))
    assert np.all(result.mean_se > 0)
    assert np.all(np.diag(result.cov_se) > 0)


# -- dense per-shard accumulation and per-row CSV writer, kept as oracles ----


def dense_run(config, circuit, samples_path=None):
    """Each shard drawn in one block, clone quadratures formed per shot and
    summed directly, every sample written by csv.writer."""
    profile = config.profile
    m = profile.m_out
    amp_in = math.sqrt(profile.n_in) * config.alpha
    t_tap = math.sqrt(1.0 - circuit.r_tap**2)
    d = circuit.splitting
    gains = circuit.gains
    o_mean = circuit.r_tap * amp_in
    det_amp = d * t_tap * amp_in + gains * o_mean
    det_x = np.sqrt(2) * det_amp.real
    det_p = np.sqrt(2) * det_amp.imag

    writer = None
    csv_file = None
    if samples_path is not None:
        csv_file = open(samples_path, "w", newline="")
        writer = csv.writer(csv_file)
        writer.writerow(["shot", "clone", "x", "p", "o_re", "o_im"])
    count = 0
    total = np.zeros(2 * m)
    scatter = np.zeros((2 * m, 2 * m))
    try:
        for shard, size in enumerate(_shard_sizes(config.shots, config.shards)):
            if size == 0:
                continue
            rng = np.random.default_rng([config.seed, shard])
            z = rng.standard_normal((size, 2 * m + 2))
            o_x = z[:, 0]
            o_p = z[:, 1]
            vac = z[:, 2:] * math.sqrt(0.5)
            x = vac[:, :m] + np.outer(o_x, gains)
            p = vac[:, m:] + np.outer(o_p, gains)
            quads = np.hstack([x, p])
            total += quads.sum(axis=0)
            scatter += quads.T @ quads
            if writer is not None:
                o_re = o_x / np.sqrt(2) + o_mean.real
                o_im = o_p / np.sqrt(2) + o_mean.imag
                x = x + det_x
                p = p + det_p
                for i in range(size):
                    for j in range(m):
                        writer.writerow(
                            [
                                count + i,
                                j,
                                f"{x[i, j]:.17g}",
                                f"{p[i, j]:.17g}",
                                f"{o_re[i]:.17g}",
                                f"{o_im[i]:.17g}",
                            ]
                        )
            count += size
    finally:
        if csv_file is not None:
            csv_file.close()

    noise_mean = total / count
    if count > 1:
        raw_cov = (scatter - count * np.outer(noise_mean, noise_mean)) / (count - 1)
    else:
        raw_cov = np.zeros((2 * m, 2 * m))
    clone_cov = 2.0 * raw_cov
    mean = noise_mean + np.concatenate([det_x, det_p])
    cov_se = np.sqrt(
        np.outer(np.diag(clone_cov), np.diag(clone_cov)) + clone_cov**2
    ) / math.sqrt(max(count - 1, 1))
    return SimResult(
        clone_means=(mean[:m] + 1j * mean[m:]) / np.sqrt(2),
        clone_cov=clone_cov,
        mean_se=np.sqrt(np.maximum(np.diag(raw_cov), 0.0) / count),
        cov_se=cov_se,
        shots_used=count,
    )


def assert_results_close(result, reference, tol=1e-12):
    assert result.shots_used == reference.shots_used
    for name in ("clone_means", "clone_cov", "mean_se", "cov_se"):
        assert np.max(np.abs(getattr(result, name) - getattr(reference, name))) <= tol, name


ASYMMETRIC = NoiseProfile(1, 2, np.array([0.25, 1.0]))
# the size of the benchmark's 2 -> 8 circuit, with unequal clones
ASYMMETRIC_2_TO_8 = design_from_weights(np.array([1.0, 2.0, 3.0, 0.5, 1.5, 4.0, 0.7, 2.2]), 2, 8)[0]
# circuit None lets run build its own; the CLI passes a prebuilt one
ORACLE_CASES = [
    (symmetric_profile(1, 2), 1.0 - 0.5j, None),
    (ASYMMETRIC, 0.3 + 0.8j, feedforward_params(ASYMMETRIC)),
    (symmetric_profile(2, 5), -0.4 + 0.2j, None),
    (ASYMMETRIC_2_TO_8, -1.1 + 0.3j, None),
]


@pytest.mark.parametrize("profile, alpha, circuit", ORACLE_CASES)
def test_chunked_run_matches_dense_oracle(tmp_path, monkeypatch, profile, alpha, circuit):
    width = 2 * profile.m_out + 2
    monkeypatch.setattr(simulate, "CHUNK_VALUES", 7 * width)  # 7 shots per chunk
    config = SimConfig(profile=profile, alpha=alpha, shots=100, seed=13, shards=3)
    assert all(size > 2 * 7 for size in _shard_sizes(config.shots, config.shards))
    new_csv, old_csv = tmp_path / "new.csv", tmp_path / "old.csv"
    result = run(config, circuit=circuit, samples_path=str(new_csv))
    circuit = feedforward_params(profile) if circuit is None else circuit
    reference = dense_run(config, circuit, samples_path=str(old_csv))
    assert new_csv.read_bytes() == old_csv.read_bytes()
    assert new_csv.read_bytes().count(b"\r\n") == 1 + 100 * profile.m_out
    assert_results_close(result, reference)


# (shots, shards, shots per chunk or None for the default): a single shot, and
# chunks of a single shot, so that a chunk writes the rows of one shot only
@pytest.mark.parametrize("shots, shards, chunk_shots", [(1, 1, None), (10, 3, 1)])
@pytest.mark.parametrize("profile, alpha, circuit", ORACLE_CASES)
def test_single_shot_chunks_match_dense_oracle(
    tmp_path, monkeypatch, profile, alpha, circuit, shots, shards, chunk_shots
):
    if chunk_shots is not None:
        monkeypatch.setattr(simulate, "CHUNK_VALUES", chunk_shots * (2 * profile.m_out + 2))
    config = SimConfig(profile=profile, alpha=alpha, shots=shots, seed=19, shards=shards)
    new_csv, old_csv = tmp_path / "new.csv", tmp_path / "old.csv"
    result = run(config, circuit=circuit, samples_path=str(new_csv))
    circuit = feedforward_params(profile) if circuit is None else circuit
    reference = dense_run(config, circuit, samples_path=str(old_csv))
    assert new_csv.read_bytes() == old_csv.read_bytes()
    assert new_csv.read_bytes().count(b"\r\n") == 1 + shots * profile.m_out
    assert_results_close(result, reference)


def test_chunked_run_matches_dense_oracle_at_default_chunk():
    profile = NoiseProfile(1, 3, np.array([2.0, 0.5, 0.5]))
    config = SimConfig(profile=profile, alpha=0.7j, shots=2 * 10**5, seed=21, shards=2)
    assert config.shots // config.shards > 2 * simulate.CHUNK_VALUES // (2 * 3 + 2)
    circuit = feedforward_params(profile)
    assert_results_close(run(config, circuit=circuit), dense_run(config, circuit))


def traced_peaks(shot_counts, samples_path=None):
    """tracemalloc peak above the starting level of a 1 -> 2 run at each shot
    count, after a first run at the first count, whose one-time allocations
    (numpy.random is imported on first use, about 0.8 MB) are left out."""
    profile = symmetric_profile(1, 2)
    circuit = feedforward_params(profile)
    peaks = []
    tracemalloc.start()
    try:
        for shots in (shot_counts[0], *shot_counts):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            config = SimConfig(profile=profile, alpha=1.0, shots=shots, seed=3)
            run(config, circuit=circuit, samples_path=samples_path)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peaks[1:]


def test_run_memory_does_not_grow_with_shots():
    peaks = traced_peaks((10**5, 10**6))
    assert peaks[1] <= 1.1 * peaks[0]


def test_run_memory_does_not_grow_with_shots_when_writing_samples(tmp_path, monkeypatch):
    monkeypatch.setattr(simulate, "CHUNK_VALUES", 256 * 6)  # 256 shots per chunk
    peaks = traced_peaks((2000, 20000), samples_path=str(tmp_path / "samples.csv"))
    assert peaks[1] <= 1.1 * peaks[0]


def test_splitting_from_amplitudes_moves_samples_by_rounding(tmp_path):
    # the splitting fractions used to be multiplied down the splitter chain;
    # taking them from the clone amplitudes leaves the drawn normals as they
    # were and moves each sample by rounding only
    rng = np.random.default_rng(43)
    for _ in range(5):
        profile, _ = random_optimal_profile(rng, m_max=6)
        circuit = feedforward_params(profile)
        chain = dataclasses.replace(circuit, splitting=splitting_amplitudes(circuit))
        assert np.max(np.abs(circuit.splitting - chain.splitting)) < 2e-15
        config = SimConfig(profile=profile, alpha=0.9 - 1.7j, shots=40, seed=6, shards=2)
        new_csv, old_csv = tmp_path / "new.csv", tmp_path / "old.csv"
        result = run(config, circuit=circuit, samples_path=str(new_csv))
        reference = run(config, circuit=chain, samples_path=str(old_csv))
        with open(new_csv) as fh_new, open(old_csv) as fh_old:
            new_rows, old_rows = list(csv.reader(fh_new)), list(csv.reader(fh_old))
        assert new_rows[0] == old_rows[0]
        new, old = np.array(new_rows[1:], dtype=float), np.array(old_rows[1:], dtype=float)
        # shot, clone and the heterodyne outcome do not depend on the fractions
        assert np.array_equal(new[:, [0, 1, 4, 5]], old[:, [0, 1, 4, 5]])
        assert np.max(np.abs(new[:, 2:4] - old[:, 2:4])) < 1e-14
        assert_results_close(result, reference, tol=1e-14)


# -- shards on a thread pool ---------------------------------------------------

# shots per shard of a 1->2 run (rows of 2 * 2 + 2 normals) that go to the pool
POOLED_SHARD = simulate.THREAD_MIN_VALUES // 6 + 1


def assert_results_equal(result, reference):
    assert result.shots_used == reference.shots_used
    for name in ("clone_means", "clone_cov", "mean_se", "cov_se"):
        assert np.array_equal(getattr(result, name), getattr(reference, name)), name


@pytest.mark.parametrize("shards", [1, 3, 4, 16])
def test_result_does_not_depend_on_the_core_count(monkeypatch, shards):
    profile = symmetric_profile(2, 5)
    config = SimConfig(profile=profile, alpha=0.4 - 0.9j, shots=2 * 10**5 + 3, seed=17,
                       shards=shards)
    results = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(simulate, "_available_cores", lambda: cores)
        results.append(run(config))
    for result in results[1:]:
        assert_results_equal(result, results[0])


def test_run_starts_no_more_threads_than_cores(monkeypatch):
    before = threading.active_count()
    seen = []
    shard_moments = simulate._shard_moments

    def counting(*args, **kwargs):
        seen.append(threading.active_count())
        return shard_moments(*args, **kwargs)

    monkeypatch.setattr(simulate, "_shard_moments", counting)
    profile = symmetric_profile(1, 2)
    # (cores, shards, shots per shard, most threads started)
    for cores, shards, size, threads in (
        (3, 64, POOLED_SHARD, 3),
        (3, 2, POOLED_SHARD, 2),
        (1, 64, POOLED_SHARD, 0),
        (3, 64, POOLED_SHARD // 2, 0),
    ):
        monkeypatch.setattr(simulate, "_available_cores", lambda: cores)
        seen.clear()
        run(SimConfig(profile=profile, alpha=1.0, shots=shards * size, seed=4, shards=shards))
        assert len(seen) == shards
        assert max(seen) - before <= threads
        assert (max(seen) > before) == (threads > 0)
        assert threading.active_count() == before


def test_an_error_in_a_shard_reaches_the_caller(monkeypatch):
    before = threading.active_count()
    shard_moments = simulate._shard_moments

    def failing(seed, shard, *args, **kwargs):
        if shard == 5:
            raise RuntimeError("shard 5 failed")
        return shard_moments(seed, shard, *args, **kwargs)

    monkeypatch.setattr(simulate, "_shard_moments", failing)
    monkeypatch.setattr(simulate, "_available_cores", lambda: 2)
    config = SimConfig(profile=symmetric_profile(1, 2), alpha=1.0, shots=8 * POOLED_SHARD, seed=4,
                       shards=8)
    with pytest.raises(RuntimeError, match="shard 5 failed"):
        run(config)
    assert threading.active_count() == before


# -- sample CSV parts on forked processes --------------------------------------


def count_submits(monkeypatch):
    """Parts handed to a process pool, counted in this process."""
    submitted = []
    submit = concurrent.futures.ProcessPoolExecutor.submit
    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit",
                        lambda self, *args: submitted.append(args[2]) or submit(self, *args))
    return submitted


def csv_runs(monkeypatch, tmp_path, config, core_counts):
    """(result, CSV bytes, first shot of each part sent to the pool) of a run
    at each core count."""
    submitted = count_submits(monkeypatch)
    runs = []
    for cores in core_counts:
        monkeypatch.setattr(simulate, "_available_cores", lambda: cores)
        submitted.clear()
        path = tmp_path / f"{cores}.csv"
        runs.append((run(config, samples_path=str(path)), path.read_bytes(), list(submitted)))
        assert multiprocessing.active_children() == []
    return runs


@pytest.mark.parametrize("profile", [symmetric_profile(1, 2), ASYMMETRIC_2_TO_8])
@pytest.mark.parametrize("shards", [1, 3])
def test_sample_csv_does_not_depend_on_the_core_count(tmp_path, monkeypatch, profile, shards):
    width = 2 * profile.m_out + 2
    monkeypatch.setattr(simulate, "THREAD_MIN_VALUES", 10 * width)  # parts of 10 shots
    monkeypatch.setattr(simulate, "CHUNK_VALUES", 35 * width)  # chunks of 35 shots
    # each shard draws chunks of 35, 35 and 31 shots, so its last part is one shot
    config = SimConfig(profile=profile, alpha=0.4 - 0.9j, shots=shards * 101, seed=23,
                       shards=shards)
    runs = csv_runs(monkeypatch, tmp_path, config, (1, 2, 3))
    assert runs[0][2] == []
    parts = [101 * s + c + p for s in range(shards) for c in (0, 35, 70) for p in (0, 10, 20, 30)]
    for result, text, submitted in runs[1:]:
        assert submitted == parts
        assert text == runs[0][1]
        assert_results_equal(result, runs[0][0])


def test_pooled_sample_csv_matches_dense_oracle(tmp_path, monkeypatch):
    profile = symmetric_profile(1, 2)
    chunk, part = simulate.CHUNK_VALUES // 6, simulate.THREAD_MIN_VALUES // 6
    # a full chunk and then a chunk of one part and a single shot
    config = SimConfig(profile=profile, alpha=1.0 - 0.5j, shots=chunk + part + 1, seed=29)
    (result, text, submitted), = csv_runs(monkeypatch, tmp_path, config, (2,))
    assert len(submitted) == -(-chunk // part) + 2 and submitted[-1] == chunk + part
    reference = dense_run(config, feedforward_params(profile), str(tmp_path / "dense.csv"))
    assert text == (tmp_path / "dense.csv").read_bytes()
    assert_results_close(result, reference)


CSV_TEXT = simulate._csv_text


def failing_csv_text(z, first_shot, *args):
    if first_shot == 40:
        raise RuntimeError("part at shot 40 failed")
    return CSV_TEXT(z, first_shot, *args)


def test_an_error_in_a_part_reaches_the_caller_and_no_process_outlives_it(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(simulate, "_csv_text", failing_csv_text)
    monkeypatch.setattr(simulate, "THREAD_MIN_VALUES", 60)  # parts of 10 1 -> 2 shots
    monkeypatch.setattr(simulate, "_available_cores", lambda: 2)
    submitted = count_submits(monkeypatch)
    config = SimConfig(profile=symmetric_profile(1, 2), alpha=1.0, shots=100, seed=4)
    with pytest.raises(RuntimeError, match="part at shot 40 failed"):
        run(config, samples_path=str(tmp_path / "samples.csv"))
    assert 40 in submitted
    assert multiprocessing.active_children() == []


def test_sample_csv_is_formatted_here_when_another_thread_runs(tmp_path, monkeypatch):
    # a process with other threads is not forked: a lock one of them holds
    # would stay held in the child
    submitted = count_submits(monkeypatch)
    monkeypatch.setattr(simulate, "_available_cores", lambda: 2)
    config = SimConfig(profile=symmetric_profile(1, 2), alpha=1.0, shots=10**4, seed=4)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        run(config, samples_path=str(tmp_path / "threaded.csv"))
    finally:
        done.set()
        other.join(timeout=10)
    assert submitted == [] and not other.is_alive()
    run(config, samples_path=str(tmp_path / "alone.csv"))
    assert len(submitted) == 4
    assert (tmp_path / "threaded.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_run_memory_does_not_grow_with_shots_when_parts_are_pooled(tmp_path, monkeypatch):
    monkeypatch.setattr(simulate, "CHUNK_VALUES", 256 * 6)  # 256 shots per chunk
    monkeypatch.setattr(simulate, "THREAD_MIN_VALUES", 64 * 6)  # parts of 64 shots
    monkeypatch.setattr(simulate, "_available_cores", lambda: 2)
    # a count that holds one number, so that it does not grow with the parts
    parts = [0]
    submit = concurrent.futures.ProcessPoolExecutor.submit
    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit",
                        lambda self, *args: parts.__setitem__(0, parts[0] + 1) or submit(self, *args))
    path = tmp_path / "samples.csv"
    peaks = traced_peaks((2000, 20000), samples_path=str(path))
    assert parts[0] == 2 * -(-2000 // 64) + -(-20000 // 64)
    # up to 2 x 2 parts are in flight, each held as received and as text; how
    # many have come back when the peak is taken depends on the timing only
    slack = 2 * 2 * 2 * 64 * path.stat().st_size / 20000
    assert slack < 0.05 * path.stat().st_size
    assert peaks[1] <= 1.1 * peaks[0] + slack
