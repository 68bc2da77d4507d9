"""Shot-level Monte Carlo of the feedforward cloning scheme.

Each shot draws a heterodyne outcome for the tapped beam (complex Gaussian
with variance 1/2 per real component around the reflected amplitude), splits
the transmitted coherent beam over the output array, and displaces every
clone by its electronic gain times the shared outcome itself.  Sample
statistics converge to clone means alpha and covariance I + 2F.

A shot is a row z of 2M + 2 standard normals whose clone noise quadratures
are z B, B a fixed (2M + 2) x 2M matrix, so only the sufficient statistics
sum(z) and z^T z are accumulated; the mean and scatter follow as (sum z) B
and B^T (z^T z) B.  Rows are drawn in chunks of CHUNK_VALUES numbers, so
memory does not grow with the shot count.  The sample CSV is formatted in
parts of at most THREAD_MIN_VALUES numbers, on up to `cores` forked
processes when a drawn chunk holds a part, and written in shot order, with
the bytes of a writer that formats every row in full.

Shots are partitioned deterministically into shards with independent
counter-derived substreams; shards beyond the shot count would be empty and
are skipped.  Each shard's sum and z^T z are accumulated from zero and folded
into the totals in shard order.  Without a sample file the shards are drawn
in parallel on up to min(shards, cores) threads (the generator fills and the
BLAS products release the GIL); with one, or with shards too small to pay
for a thread, they are drawn on the calling thread.
Results depend on (seed, shots, shards) only, never on the core count.
"""

from __future__ import annotations

import math
import os
from collections import deque
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .circuits import FeedforwardCircuit, _feedforward_amplitudes, feedforward_params
from .core import QUADRATURE_SCALE, amplitudes, quadrature_mean
from .design import NoiseProfile, require_on_surface


@dataclass(frozen=True)
class SimConfig:
    profile: NoiseProfile
    alpha: complex
    shots: int
    seed: int
    shards: int = 1

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("need at least one shot")
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if not np.isfinite(self.alpha):
            raise ValueError("input amplitude must be finite")
        require_on_surface(self.profile)


@dataclass(frozen=True)
class SimResult:
    clone_means: np.ndarray  # complex amplitudes, length M
    clone_cov: np.ndarray  # 2M x 2M, vacuum-identity convention
    mean_se: np.ndarray  # per-quadrature standard error of the means
    cov_se: np.ndarray  # per-entry standard error of clone_cov
    shots_used: int


# normals drawn per chunk of shot rows; bounds memory whatever the shot count and M
CHUNK_VALUES = 1 << 18
# smaller shards are drawn faster on the calling thread than handed to a pool
# (crossover measured at 1/32 to 1/16 of a chunk, 2 cores); also the most
# numbers in one part of the sample CSV formatted at a time
THREAD_MIN_VALUES = CHUNK_VALUES // 16
# a CSV row per clone of a shot, its clone index a literal of the format; each
# shot's outcome fields are formatted once and end every one of its rows
_CSV_CLONE_ROW = "%d,{},%.17g,%.17g,%s"
_CSV_OUTCOME = "%.17g,%.17g\r\n"


def _shard_sizes(shots: int, shards: int) -> list[int]:
    """Shots of each shard in shard order; shards from index `shots` on would
    be empty and are left out."""
    base, extra = divmod(shots, shards)
    return [base + (1 if i < extra else 0) for i in range(min(shards, shots))]


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _shard_moments(seed: int, shard: int, size: int, width: int, on_chunk=None):
    """Sum and z^T z of one shard's `size` shot rows of `width` normals, drawn
    from its own substream in chunks of CHUNK_VALUES numbers; `on_chunk` is
    called with each chunk of rows in turn."""
    rng = np.random.default_rng([seed, shard])
    buf = np.empty((max(1, min(size, CHUNK_VALUES // width)), width))
    z_sum = np.zeros(width)
    gram = np.zeros((width, width))
    for start in range(0, size, len(buf)):
        z = rng.standard_normal(out=buf[: size - start])
        z_sum += z.sum(axis=0)
        gram += z.T @ z
        if on_chunk is not None:
            on_chunk(z)
    return z_sum, gram


def _moments_in_shard_order(seed: int, sizes: list[int], width: int, on_chunk=None):
    """Yield each shard's (sum, z^T z) in shard order.  The shards run on up
    to min(shards, cores) threads, at most that many in flight, unless
    `on_chunk` is given, so that it sees every chunk in order, or the
    largest shard has fewer than THREAD_MIN_VALUES numbers: then they run
    on the calling thread."""
    workers = min(len(sizes), _available_cores())
    if workers == 1 or on_chunk is not None or sizes[0] * width < THREAD_MIN_VALUES:
        for shard, size in enumerate(sizes):
            yield _shard_moments(seed, shard, size, width, on_chunk)
        return
    # imported here: it loads logging, which start-up need not pay for
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        pending = []
        for shard, size in enumerate(sizes):
            pending.append(pool.submit(_shard_moments, seed, shard, size, width))
            if len(pending) == workers:
                yield pending.pop(0).result()
        for future in pending:
            yield future.result()


def _csv_text(z, first_shot: int, gains, det, o_mean: complex) -> str:
    """Sample CSV rows of the shot rows `z`, numbered from `first_shot`: one
    row per shot and clone, each shot's outcome fields formatted once."""
    m = len(gains)
    # operations in this order keep the digits of the per-row writer
    vac = z[:, 2:] * math.sqrt(0.5)
    x = vac[:, :m] + np.outer(z[:, 0], gains) + det[:m]
    p = vac[:, m:] + np.outer(z[:, 1], gains) + det[m:]
    o_re = z[:, 0] / QUADRATURE_SCALE + o_mean.real
    o_im = z[:, 1] / QUADRATURE_SCALE + o_mean.imag
    outcomes = list(map(_CSV_OUTCOME.__mod__, zip(o_re.tolist(), o_im.tolist())))
    # args[stride * shot + 4 * clone:][:4] are one row's arguments
    stride = 4 * m
    args = [None] * (stride * len(z))
    shots = range(first_shot, first_shot + len(z))
    for c, (x_c, p_c) in enumerate(zip(x.T.tolist(), p.T.tolist())):
        args[4 * c :: stride] = shots
        args[4 * c + 1 :: stride] = x_c
        args[4 * c + 2 :: stride] = p_c
        args[4 * c + 3 :: stride] = outcomes
    return "".join(map(_CSV_CLONE_ROW.format, range(m))) * len(z) % tuple(args)


@contextmanager
def _sample_writer(path: str, sizes: list[int], gains, det, o_mean: complex):
    """Write the sample CSV header at `path` and yield a function that writes
    the rows of each chunk of shot rows given to it, in parts.  The parts go
    to min(parts, cores) forked processes, two per process in flight, if a
    drawn chunk holds a part, the platform can fork and the process has no
    other thread; else they are formatted here."""
    width = 2 * len(gains) + 2
    part = max(1, THREAD_MIN_VALUES // width)
    workers = 1
    if min(sizes[0], CHUNK_VALUES // width) >= part:
        # imported here, as the thread pool is: start-up need not pay for them
        import multiprocessing
        import threading

        if threading.active_count() == 1 and "fork" in multiprocessing.get_all_start_methods():
            workers = min(_available_cores(), -(-sum(sizes) // part))
    first, pending = 0, deque()
    with open(path, "w", newline="") as out, ExitStack() as stack:
        out.write("shot,clone,x,p,o_re,o_im\r\n")
        out.flush()  # a forked child holds no unwritten rows
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            fork = multiprocessing.get_context("fork")
            pool = stack.enter_context(ProcessPoolExecutor(workers, fork))

        def write_rows(z):
            nonlocal first
            for start in range(0, len(z), part):
                if workers == 1:
                    out.write(_csv_text(z[start : start + part], first + start, gains, det, o_mean))
                    continue
                # a copy: the pool pickles it later, and z's buffer is drawn over
                rows = z[start : start + part].copy()
                pending.append(pool.submit(_csv_text, rows, first + start, gains, det, o_mean))
                if len(pending) > 2 * workers:
                    out.write(pending.popleft().result())
            first += len(z)

        yield write_rows
        while pending:
            out.write(pending.popleft().result())


def run(
    config: SimConfig,
    circuit: FeedforwardCircuit | None = None,
    samples_path: str | None = None,
) -> SimResult:
    """Simulate the feedforward scheme shot by shot and estimate clone
    statistics of `circuit`, a circuit document's, or else the one
    `feedforward_params(config.profile)` builds.

    If `samples_path` is given, every per-shot sample is streamed to CSV with
    columns (shot, clone, x, p, o_re, o_im), one CRLF-terminated row per
    shot and clone.
    """
    profile = config.profile
    m = profile.m_out
    if circuit is None:
        circuit = feedforward_params(profile)
    amp_in = math.sqrt(profile.n_in) * config.alpha
    o_mean = circuit.r_tap * amp_in
    # deterministic part of the clone means; the noise part is accumulated
    # separately so the sample covariance is independent of alpha exactly
    det = quadrature_mean(_feedforward_amplitudes(circuit, amp_in))

    # shot row z = (o_x, o_p, vacuum x, vacuum p) maps to noise quads z B:
    # the outcome, in quadrature units with sd 1, times the gains, plus
    # vacuum of variance 1/2 per quadrature
    width = 2 * m + 2
    basis = np.zeros((width, 2 * m))
    basis[0, :m] = basis[1, m:] = circuit.gains
    basis[2:] = math.sqrt(0.5) * np.eye(2 * m)
    count = config.shots
    z_sum = np.zeros(width)
    gram = np.zeros((width, width))
    sizes = _shard_sizes(config.shots, config.shards)
    sink = nullcontext()
    if samples_path is not None:
        sink = _sample_writer(samples_path, sizes, circuit.gains, det, o_mean)
    with sink as write_rows:
        for shard_sum, shard_gram in _moments_in_shard_order(config.seed, sizes, width, write_rows):
            z_sum += shard_sum
            gram += shard_gram

    noise_mean = z_sum @ basis / count
    if count > 1:
        scatter = basis.T @ gram @ basis
        m2 = 0.5 * (scatter + scatter.T) - count * np.outer(noise_mean, noise_mean)
        raw_cov = m2 / (count - 1)
    else:
        raw_cov = np.zeros((2 * m, 2 * m))
    clone_cov = 2.0 * raw_cov
    clone_means = amplitudes(noise_mean + det)
    mean_se = np.sqrt(np.maximum(np.diag(raw_cov), 0.0) / count)
    denom = max(count - 1, 1)
    cov_se = np.sqrt(
        np.outer(np.diag(clone_cov), np.diag(clone_cov)) + clone_cov**2
    ) / math.sqrt(denom)
    return SimResult(
        clone_means=clone_means,
        clone_cov=clone_cov,
        mean_se=mean_se,
        cov_se=cov_se,
        shots_used=count,
    )
