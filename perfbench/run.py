"""Benchmark of the gaussclone command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is a closed loop with
one client: the benchmark calls `gaussclone.cli.main(argv)` in-process, waits
for it, checks the output, then issues the next command.  All timed work runs
in one process on one BLAS thread; set-up is timed in child interpreters.

With --trace 0 it times rounds of operations for S seconds and prints the
end-to-end metrics.  With --trace 1 it replays a fixed number of rounds
twice, untraced and then with every traced function wrapped, and prints
per-layer metrics plus the tracing overhead.  The last line of standard
output is the result object; the line before it is a report with the
environment and the throughput of each workload step.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

# pin BLAS before numpy is imported, here and in every child interpreter
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Margins, Op, rounds  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3

LAYERS = ("cli", "design", "circuits", "core", "certificate", "simulate")
COMMANDS = ("design", "synth", "verify", "certify", "simulate")

END_TO_END = {"setup_s": "s", "ops_per_s": "op/s", "peak_rss_mb": "MB"}


def _per_layer_units() -> dict[str, str]:
    units = {
        "setup.import.numpy_s": "s",
        "setup.import.scipy_s": "s",
        "setup.import.gaussclone_self_s": "s",
    }
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    for cmd in COMMANDS:
        units[f"cli.cmd_{cmd}.calls"] = "calls"
        units[f"cli.cmd_{cmd}.self_s"] = "s"
    units["cli.load_circuit.self_s"] = "s"
    units["cli.load_design.self_s"] = "s"
    units["cli.json_bytes_written"] = "B"
    units["design.design_from_weights.calls"] = "calls"
    units["design.design_from_weights.self_s"] = "s"
    units["design.symmetric_profile.calls"] = "calls"
    for fn in CIRCUIT_FUNCTIONS:
        units[f"circuits.{fn}.calls"] = "calls"
        units[f"circuits.{fn}.self_s"] = "s"
    units["circuits.build_interferometer.calls_per_design"] = "calls/design"
    units["circuits.feedforward_params.calls_per_design"] = "calls/design"
    units["circuits.scheme_discrepancy_max"] = "1"
    for fn in ("cp_min_eigenvalue", "apply_channel"):
        units[f"core.{fn}.calls"] = "calls"
        units[f"core.{fn}.self_s"] = "s"
    for fn in ("build_problem", "build_certificate", "verify_certificate",
               "random_feasible_cost_scan"):
        units[f"certificate.{fn}.calls"] = "calls"
        units[f"certificate.{fn}.self_s"] = "s"
    units["certificate.random_feasible_cost_scan.trials"] = "trials"
    units["certificate.scan_trials_per_s"] = "trials/s"
    units["certificate.duality_gap_max"] = "1"
    units["certificate.min_eig_z_min"] = "1"
    units["simulate.run.accumulate_self_s"] = "s"
    units["simulate.run.shots"] = "shots"
    units["simulate.run.csv_self_s"] = "s"
    units["simulate.csv_bytes"] = "B"
    units["simulate.calibrate_phase_convention.calls"] = "calls"
    units["simulate.max_abs_z"] = "SE"
    units.update({f"{layer}.failed": "ops" for layer in LAYERS})
    units["failed_frac"] = "1"
    units["trace.ops_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_frac"] = "1"
    return units


CIRCUIT_FUNCTIONS = ("build_interferometer", "channel_from_amplifier", "feedforward_params",
                     "feedforward_output_state", "scheme_equivalence_check")
PER_LAYER = _per_layer_units()


def _named(name):
    return lambda args, kwargs: name


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs.get(key)


def _run_name(args, kwargs):
    csv = _arg(args, kwargs, 2, "samples_path") is not None
    return "simulate.run.csv" if csv else "simulate.run.accumulate"


TRACED = [
    *[("gaussclone.cli", f"cmd_{cmd}", _named(f"cli.cmd_{cmd}"), None) for cmd in COMMANDS],
    ("gaussclone.cli", "load_circuit", _named("cli.load_circuit"), None),
    ("gaussclone.cli", "load_design", _named("cli.load_design"), None),
    ("gaussclone.design", "design_from_weights", _named("design.design_from_weights"), None),
    ("gaussclone.design", "symmetric_profile", _named("design.symmetric_profile"), None),
    *[("gaussclone.circuits", fn, _named(f"circuits.{fn}"), None) for fn in CIRCUIT_FUNCTIONS],
    ("gaussclone.core", "cp_min_eigenvalue", _named("core.cp_min_eigenvalue"), None),
    ("gaussclone.core", "apply_channel", _named("core.apply_channel"), None),
    ("gaussclone.certificate", "build_problem", _named("certificate.build_problem"), None),
    ("gaussclone.certificate", "build_certificate", _named("certificate.build_certificate"),
     None),
    ("gaussclone.certificate", "verify_certificate", _named("certificate.verify_certificate"),
     None),
    ("gaussclone.certificate", "random_feasible_cost_scan",
     _named("certificate.random_feasible_cost_scan"),
     lambda args, kwargs: {"trials": _arg(args, kwargs, 2, "trials")}),
    ("gaussclone.simulate", "run", _run_name,
     lambda args, kwargs: {"shots": _arg(args, kwargs, 0, "config").shots}),
    ("gaussclone.simulate", "calibrate_phase_convention",
     _named("simulate.calibrate_phase_convention"), None),
]


# -- machine speed -----------------------------------------------------------

# On a shared host the speed of a core swings by tens of percent within
# seconds and drifts within minutes, which would swamp a 10% regression.
# So the benchmark also times a fixed kernel that does not touch gaussclone
# at least every CALIBRATION_INTERVAL_S, and scales each measured time by
# the kernel times just before and after it to a machine on which the
# kernel takes its reference time.  Each workload's kernel is made of the
# parts below that resemble its own work, because other neighbours slow
# interpreter-bound and cache-bound code by different amounts.  The
# reference time of each part is about its median on one core of a 2-core
# x86-64 VM.  Raw figures are in the report line.
CALIBRATION_INTERVAL_S = 0.25
PART_REFERENCE_S = {
    "small_lapack": 0.0010,  # 40 eigvalsh of 16x16 complex matrices
    "blas": 0.0003,  # 5 products of 120x120 matrices
    "dense": 0.0018,  # eigvalsh of a 96x96 complex matrix, 300x300 product
    "numpy_calls": 0.0007,  # 300 products and sums of length-200 vectors
    "json": 0.0045,  # encode and decode 3000 floats, indented
    "interpreter": 0.0018,  # 30000 steps of an integer loop
    "rng": 0.0014,  # sum of 100000 normal draws
}


def _hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    return a + a.T + 1j * (a - a.T)


class Calibration:
    def __init__(self, parts: tuple[str, ...]):
        rng = np.random.default_rng(0)
        self.small, self.medium = _hermitian(rng, 16), _hermitian(rng, 96)
        self.square, self.large = rng.standard_normal((120, 120)), rng.standard_normal((300, 300))
        self.vector = rng.standard_normal(200)
        self.floats = rng.standard_normal(3000).tolist()
        self.parts = [getattr(self, f"_{part}") for part in parts]
        self.reference_s = sum(PART_REFERENCE_S[part] for part in parts)
        self.samples: list[float] = []
        self.last = -math.inf

    def _small_lapack(self):
        for _ in range(40):
            np.linalg.eigvalsh(self.small)

    def _blas(self):
        for _ in range(5):
            self.square @ self.square

    def _dense(self):
        np.linalg.eigvalsh(self.medium)
        self.large @ self.large

    def _numpy_calls(self):
        for _ in range(300):
            self.vector @ self.vector - 0.5 * self.vector

    def _json(self):
        json.loads(json.dumps(self.floats, indent=2))

    def _interpreter(self):
        total = 0
        for i in range(30000):
            total += i * i

    def _rng(self):
        np.random.default_rng(1).standard_normal(100000).sum()

    def sample(self) -> int:
        """Time the kernel once; return the number of samples taken so far."""
        start = time.perf_counter()
        for part in self.parts:
            part()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)
        return len(self.samples)

    def sample_if_due(self) -> int:
        if time.perf_counter() - self.last >= CALIBRATION_INTERVAL_S:
            return self.sample()
        return len(self.samples)

    def to_reference(self, seconds: float, after: int) -> float:
        """Scale a time measured after sample number `after` (counting from
        1) by the samples on either side of it."""
        before = self.samples[after - 1]
        next_ = self.samples[min(after, len(self.samples) - 1)]
        return seconds * 2.0 * self.reference_s / (before + next_)

    def scale(self, done: list[list[OpResult]]):
        """Set each result's time at the reference speed; call after the
        last operation."""
        self.sample()
        for result in (r for results in done for r in results):
            result.reference_seconds = self.to_reference(result.seconds,
                                                         result.calibration_after)


# -- set-up: import time in fresh interpreters -------------------------------


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)


def setup_times(repeats: int, calibration: Calibration) -> tuple[list[float], list[float]]:
    """Wall time of `import gaussclone.cli`, each in a fresh interpreter, raw
    and scaled to the reference machine speed.

    One untimed import first writes the bytecode cache, as any earlier use
    of an installed package would have.
    """
    code = ("import time; t0 = time.perf_counter(); import gaussclone.cli; "
            "print(repr(time.perf_counter() - t0))")
    _python("-c", "import gaussclone.cli")
    raw, after = [], []
    for _ in range(repeats):
        after.append(calibration.sample())
        raw.append(float(_python("-c", code).stdout))
    calibration.sample()
    return raw, [calibration.to_reference(t, i) for t, i in zip(raw, after)]


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds spent importing numpy and scipy (outermost entries of each
    package), and the self time of gaussclone's own modules."""
    entries = []  # (level, name, self_us, cumulative_us, parent index)
    pending: list[int] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name_field = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # header line
        name = name_field.strip()
        level = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        index = len(entries)
        entries.append([level, name, int(self_us), int(cum_us), None])
        # -X importtime prints a module after its children (one level deeper)
        while pending and entries[pending[-1]][0] == level + 1:
            entries[pending.pop()][4] = index
        pending.append(index)

    def top(name):
        return name.split(".", 1)[0]

    def outermost_s(package):
        return 1e-6 * sum(
            e[3] for e in entries
            if top(e[1]) == package and (e[4] is None or top(entries[e[4]][1]) != package)
        )

    return {
        "setup.import.numpy_s": outermost_s("numpy"),
        "setup.import.scipy_s": outermost_s("scipy"),
        "setup.import.gaussclone_self_s": 1e-6 * sum(
            e[2] for e in entries if top(e[1]) == "gaussclone"
        ),
    }


def import_breakdown(repeats: int) -> dict[str, float]:
    runs = [parse_importtime(_python("-X", "importtime", "-c", "import gaussclone.cli").stderr)
            for _ in range(repeats)]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


# -- environment -------------------------------------------------------------


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gaussclone").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": BLAS_ENV,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


# -- running operations ------------------------------------------------------


@dataclass
class OpResult:
    op: Op
    seconds: float
    failed_layer: str | None
    json_bytes: int = 0
    csv_bytes: int = 0
    calibration_after: int = 0
    reference_seconds: float = 0.0


def _raising_module(exc: BaseException) -> str:
    """Module of the innermost package frame in the traceback."""
    layer = "cli"
    tb = exc.__traceback__
    package = SRC / "gaussclone"
    while tb is not None:
        filename = Path(tb.tb_frame.f_code.co_filename)
        if filename.parent == package:
            layer = filename.stem
        tb = tb.tb_next
    return layer


class Runner:
    """Runs CLI operations in-process and checks their outputs."""

    def __init__(self, cli, devnull):
        self.cli = cli
        self.devnull = devnull
        self.margins = Margins()
        self.reported = 0
        self.executed = 0

    def execute(self, op: Op, tracer: Tracer | None = None) -> OpResult:
        op_id = self.executed
        self.executed += 1
        err = io.StringIO()
        error = None
        with contextlib.redirect_stdout(self.devnull), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(op.argv)
                else:
                    tracer.op = op_id
                    with tracer.span("cli.main"):
                        code = self.cli.main(op.argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
            except Exception as exc:  # any crash is one failed operation
                code, error = None, exc
            seconds = time.perf_counter() - start
        layer = message = None
        if error is not None or code != 0:
            traced = tracer.failing_layer(op_id) if tracer is not None else None
            layer = traced or (_raising_module(error) if error is not None else "cli")
            message = repr(error) if error is not None else f"exit {code}: {err.getvalue()}"
        else:
            try:
                op.check(self.margins)
            except CheckFailed as exc:
                layer, message = exc.layer, str(exc)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                layer, message = "cli", f"unreadable output: {exc!r}"
        if layer is not None and self.reported < 5:
            self.reported += 1
            print(f"perfbench: {op.command} failed in {layer}: {message[:500]}",
                  file=sys.stderr)
        json_bytes = op.json_out.stat().st_size if op.json_out.exists() else 0
        csv_bytes = op.csv_out.stat().st_size if op.csv_out and op.csv_out.exists() else 0
        return OpResult(op, seconds, layer, json_bytes, csv_bytes)

    def prepare(self, op: Op):
        """Run an untimed operation that makes inputs; it must not fail."""
        if self.execute(op).failed_layer is not None:
            raise RuntimeError(f"input generation failed: {op.argv}")

    def run_round(self, round_dir: Path, ops: list[Op], tracer: Tracer | None = None,
                  calibration: Calibration | None = None) -> list[OpResult]:
        results = []
        for op in ops:
            result = self.execute(op, tracer)
            if calibration is not None:
                result.calibration_after = len(calibration.samples)
                calibration.sample_if_due()
            results.append(result)
        shutil.rmtree(round_dir)
        return results

    def run_rounds(self, round_iter, seconds: float,
                   calibration: Calibration) -> list[list[OpResult]]:
        """Run rounds until `seconds` of wall time have passed (at least one)
        and give each result its time at the reference machine speed."""
        done = []
        start = time.perf_counter()
        calibration.sample()
        for round_dir, ops in round_iter:
            done.append(self.run_round(round_dir, ops, calibration=calibration))
            if time.perf_counter() - start >= seconds:
                break
        calibration.scale(done)
        return done


# -- metrics -----------------------------------------------------------------


def _rate(results: list[OpResult], unit: str | None, whole_round: bool = True,
          reference: bool = True) -> float:
    """Work units (operations if `unit` is None) per second of the round's
    operations, or of only the operations that do that work."""
    timed = [r for r in results if whole_round or unit in r.op.work]
    work = len(timed) if unit is None else sum(r.op.work.get(unit, 0) for r in timed)
    return work / sum(r.reference_seconds if reference else r.seconds for r in timed)


def step_report(done: list[list[OpResult]], workload: str) -> dict:
    """Per-round medians of the throughput of each workload step at the
    reference machine speed."""
    names = {
        "pipeline-large-m": [("pipeline_designs_per_s", "designs", "designs/s", True)],
        "certify-scan-small-m": [("certified_designs_per_s", "designs", "designs/s", True)],
        "simulate-stream": [("sim_shots_per_s", "shots", "shots/s", False),
                            ("csv_rows_per_s", "rows", "rows/s", False)],
    }[workload]
    return {
        name: {"value": statistics.median(_rate(results, unit, whole) for results in done),
               "unit": unit_name}
        for name, unit, unit_name, whole in names
    }


def counts(done: list[list[OpResult]]) -> tuple[int, int]:
    flat = [r for results in done for r in results]
    return len(flat), sum(r.failed_layer is not None for r in flat)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer_metrics(tracer: Tracer, untraced, traced, margins: Margins) -> dict:
    totals = tracer.totals()

    def get(name, key="calls"):
        return float(totals[name][key]) if name in totals else 0.0

    flat = [r for results in traced for r in results]
    designs = sum(r.op.work.get("designs", 0) for r in flat)
    failed = [r.failed_layer for r in flat if r.failed_layer is not None]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in totals.items()
                                   if k.split(".", 1)[0] == layer)
        m[f"{layer}.failed"] = float(failed.count(layer))
    for cmd in COMMANDS:
        m[f"cli.cmd_{cmd}.calls"] = get(f"cli.cmd_{cmd}")
        m[f"cli.cmd_{cmd}.self_s"] = get(f"cli.cmd_{cmd}", "self_s")
    m["cli.load_circuit.self_s"] = get("cli.load_circuit", "self_s")
    m["cli.load_design.self_s"] = get("cli.load_design", "self_s")
    m["cli.json_bytes_written"] = float(sum(r.json_bytes for r in flat))
    m["design.design_from_weights.calls"] = get("design.design_from_weights")
    m["design.design_from_weights.self_s"] = get("design.design_from_weights", "self_s")
    m["design.symmetric_profile.calls"] = get("design.symmetric_profile")
    for fn in CIRCUIT_FUNCTIONS:
        m[f"circuits.{fn}.calls"] = get(f"circuits.{fn}")
        m[f"circuits.{fn}.self_s"] = get(f"circuits.{fn}", "self_s")
    for fn in ("build_interferometer", "feedforward_params"):
        m[f"circuits.{fn}.calls_per_design"] = get(f"circuits.{fn}") / designs if designs else 0.0
    for fn in ("cp_min_eigenvalue", "apply_channel"):
        m[f"core.{fn}.calls"] = get(f"core.{fn}")
        m[f"core.{fn}.self_s"] = get(f"core.{fn}", "self_s")
    for fn in ("build_problem", "build_certificate", "verify_certificate",
               "random_feasible_cost_scan"):
        m[f"certificate.{fn}.calls"] = get(f"certificate.{fn}")
        m[f"certificate.{fn}.self_s"] = get(f"certificate.{fn}", "self_s")
    scan = "certificate.random_feasible_cost_scan"
    m[f"{scan}.trials"] = get(scan, "trials")
    m["certificate.scan_trials_per_s"] = (
        get(scan, "trials") / get(scan, "self_s") if get(scan) else 0.0
    )
    m["simulate.run.accumulate_self_s"] = get("simulate.run.accumulate", "self_s")
    m["simulate.run.shots"] = get("simulate.run.accumulate", "shots")
    m["simulate.run.csv_self_s"] = get("simulate.run.csv", "self_s")
    m["simulate.csv_bytes"] = float(sum(r.csv_bytes for r in flat))
    m["simulate.calibrate_phase_convention.calls"] = get("simulate.calibrate_phase_convention")
    margin = margins.as_dict()
    m["circuits.scheme_discrepancy_max"] = margin["scheme_discrepancy_max"]
    m["certificate.duality_gap_max"] = margin["duality_gap_max"]
    m["certificate.min_eig_z_min"] = margin["min_eig_z_min"]
    m["simulate.max_abs_z"] = margin["max_abs_z"]
    m["failed_frac"] = len(failed) / len(flat)
    m["trace.ops_wall_s"] = sum(r.seconds for r in flat)
    # one round's time varies by up to 30% on a shared host, far more than
    # tracing costs, so take the median ratio over rounds run back to back,
    # each at the reference machine speed
    ratio = statistics.median(
        sum(r.reference_seconds for r in b) / sum(r.reference_seconds for r in a)
        for a, b in zip(untraced, traced)
    )
    m["trace.overhead_frac"] = ratio - 1.0
    m["trace.overhead_s"] = (ratio - 1.0) * sum(r.seconds for a in untraced for r in a)
    return m


def _result(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metric set differs from its declaration: {sorted(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


# -- running a workload ------------------------------------------------------


def _timed(runner, workload, seed, seconds, workdir, ctx, sizes, setup, calibration):
    done = runner.run_rounds(rounds(workload, seed, workdir, ctx, sizes), seconds, calibration)
    attempted, failed = counts(done)
    setup_raw, setup_reference = setup
    metrics = {
        "setup_s": statistics.median(setup_reference),
        "ops_per_s": statistics.median(_rate(results, None) for results in done),
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {
        "steps": step_report(done, workload.name),
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "ops_per_s": statistics.median(
                _rate(results, None, reference=False) for results in done),
            "calibration_s": statistics.median(calibration.samples),
        },
        "rounds": len(done),
        "failed_frac": failed / attempted,
        "margins": runner.margins.as_dict(),
    }
    return report, _result(metrics, END_TO_END, attempted, failed)


def _traced(runner, workload, seed, workdir, ctx, sizes, imports):
    """Run each of `trace_rounds` rounds both untraced and traced, back to
    back and in alternating order; the overhead compares times at the
    reference machine speed, so that drift and order mostly cancel."""
    plain = rounds(workload, seed, workdir / "untraced", ctx, sizes)
    again = rounds(workload, seed, workdir / "traced", ctx, sizes)
    tracer = Tracer()
    calibration = Calibration(workload.calibration)
    calibration.sample()
    untraced, traced = [], []

    def run_traced():
        tracer.install(TRACED)
        try:
            traced.append(runner.run_round(*next(again), tracer, calibration))
        finally:
            tracer.uninstall()

    for i in range(sizes["trace_rounds"]):
        if i % 2:
            run_traced()
        untraced.append(runner.run_round(*next(plain), calibration=calibration))
        if not i % 2:
            run_traced()
    calibration.scale(untraced + traced)
    metrics = per_layer_metrics(tracer, untraced, traced, runner.margins)
    metrics.update(imports)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
    with open(spans_path, "w") as fh:
        json.dump(tracer.to_json(), fh)
    report = {"spans": str(spans_path.relative_to(ROOT)), "rounds": sizes["trace_rounds"]}
    attempted, failed = (a + b for a, b in zip(counts(untraced), counts(traced)))
    return report, _result(metrics, PER_LAYER, attempted, failed)


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
        setup_repeats: int = SETUP_REPEATS, importtime_repeats: int = IMPORTTIME_REPEATS,
        ) -> tuple[dict, dict]:
    """Run one workload and return (report, result)."""
    workload = WORKLOADS[workload_name]
    sizes = workload.sizes if sizes is None else sizes
    if trace:
        imports = import_breakdown(importtime_repeats)
    else:
        calibration = Calibration(workload.calibration)
        setup = setup_times(setup_repeats, calibration)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from gaussclone import cli

    workdir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "inputs").mkdir(parents=True)
    env = environment(workload_name, seed)
    try:
        with open(os.devnull, "w") as devnull:
            runner = Runner(cli, devnull)
            ctx = workload.prepare(workdir / "inputs", seed, sizes, runner.prepare)
            # one untimed warm-up round on other inputs, so that first-call
            # costs (allocator growth, lazy imports, BLAS start-up) are paid
            runner.run_round(*next(rounds(workload, seed + 1, workdir / "warmup", ctx, sizes)))
            runner.margins = Margins()
            if trace:
                report, result = _traced(runner, workload, seed, workdir, ctx, sizes, imports)
            else:
                report, result = _timed(runner, workload, seed, seconds, workdir / "timed", ctx,
                                        sizes, setup, calibration)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"env": env, **report}, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gaussclone" / "cli.py").is_file():
        print(f"perfbench: no gaussclone sources under {SRC}", file=sys.stderr)
        return 2
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
