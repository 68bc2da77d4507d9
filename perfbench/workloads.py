"""Workload inputs, CLI operations and the output checks behind failed_frac.

A workload is a sequence of rounds; each round is a fixed mix of CLI
operations whose inputs (weight strings, --seed values, circuit files) are
drawn from the workload seed.  An operation is one `gaussclone` command plus
the check of its output.  Checks compute expected values independently of
the package wherever the paper gives them in closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# simulate: clone statistics must lie within this many standard errors of
# the analytic values (acceptance criterion 9)
Z_LIMIT = 5.0


class CheckFailed(Exception):
    """An operation's output is wrong; `layer` names the module at fault."""

    def __init__(self, layer: str, message: str):
        super().__init__(message)
        self.layer = layer


@dataclass
class Margins:
    """Worst accuracy margins seen by the checks."""

    scheme_discrepancy_max: float = 0.0
    duality_gap_max: float = 0.0
    min_eig_z_min: float | None = None
    max_abs_z: float = 0.0

    def as_dict(self) -> dict:
        return {
            "scheme_discrepancy_max": self.scheme_discrepancy_max,
            "duality_gap_max": self.duality_gap_max,
            "min_eig_z_min": self.min_eig_z_min if self.min_eig_z_min is not None else 0.0,
            "max_abs_z": self.max_abs_z,
        }


@dataclass
class Op:
    """One CLI command, the check of its output, and the work it does."""

    argv: list[str]
    check: Callable[[Margins], None]
    json_out: Path
    csv_out: Path | None = None
    work: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    # parts of the machine-speed calibration kernel (see run.py)
    calibration: tuple[str, ...]
    # untimed input generation before any timing starts
    prepare: Callable[[Path, int, dict, Callable[[Op], None]], object]
    make_round: Callable[[np.random.Generator, Path, object, dict], list[Op]]


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _weights(rng: np.random.Generator, m: int) -> str:
    return ",".join(repr(float(v)) for v in rng.uniform(0.1, 10.0, m))


# -- checks ------------------------------------------------------------------


def check_design(path: Path, n: int, m: int) -> np.ndarray:
    """The design document describes an N->M profile on the optimal surface
    (sum_k sqrt(n_k))^2 = (M - N)(sum_j n_j + 1)."""
    doc = _load(path)
    noises = np.array(doc["noises"], dtype=float)
    if doc["N"] != n or doc["M"] != m or noises.shape != (m,):
        raise CheckFailed("design", f"design document has N={doc['N']} M={doc['M']}")
    if not np.all(np.isfinite(noises)) or np.any(noises < 0):
        raise CheckFailed("design", "noises must be finite and non-negative")
    rhs = (m - n) * (noises.sum() + 1.0)
    lhs = np.sqrt(noises).sum() ** 2
    if abs(lhs - rhs) > 1e-9 * max(1.0, rhs):
        raise CheckFailed("design", f"profile is off the optimal surface by {lhs - rhs:.3g}")
    return noises


def check_circuit(path: Path, scheme: str, noises: np.ndarray):
    doc = _load(path)
    m = noises.size
    if doc["scheme"] != scheme or doc["design"]["noises"] != noises.tolist():
        raise CheckFailed("circuits", "circuit document does not match its design")
    params = doc["parameters"]
    if scheme == "amplifier":
        shapes = (len(params["V"]), len(params["kappa"])), (m * m, m * (m - 1))
    else:
        shapes = (len(params["gains"]), len(params["reflectances"])), (m, m - 1)
    if shapes[0] != shapes[1]:
        raise CheckFailed("circuits", f"circuit parameters have sizes {shapes[0]}")


def check_verify(path: Path, margins: Margins):
    report = _load(path)
    if report.get("passed") is not True:
        raise CheckFailed("circuits", f"verification failed: {report}")
    if "scheme_discrepancy" in report:
        margins.scheme_discrepancy_max = max(
            margins.scheme_discrepancy_max, report["scheme_discrepancy"]
        )


def check_certify(path: Path, margins: Margins):
    doc = _load(path)
    cert, scan = doc["certificate"], doc["feasible_scan"]
    if cert.get("passed") is not True or scan.get("passed") is not True:
        raise CheckFailed("certificate", "certificate or feasible scan did not pass")
    if not scan["min_cost"] >= scan["dual_bound"]:
        raise CheckFailed(
            "certificate",
            f"feasible cost {scan['min_cost']!r} below dual bound {scan['dual_bound']!r}",
        )
    margins.duality_gap_max = max(margins.duality_gap_max, cert["duality_gap"])
    if margins.min_eig_z_min is None or cert["min_eig_z"] < margins.min_eig_z_min:
        margins.min_eig_z_min = cert["min_eig_z"]


def check_simulation(
    summary_path: Path,
    noises: np.ndarray,
    alpha: complex,
    shots: int,
    margins: Margins,
    csv_path: Path | None = None,
):
    """Clone means within Z_LIMIT standard errors of alpha and covariance
    within Z_LIMIT standard errors of blkdiag(I + 2F, I + 2F), F_jk =
    sqrt(n_j n_k); a sample file has its header and shots x M rows."""
    doc = _load(summary_path)
    m = noises.size
    if doc["shots_used"] != shots:
        raise CheckFailed("simulate", f"used {doc['shots_used']} of {shots} shots")
    quads = math.sqrt(2.0) * np.concatenate(
        [np.array(doc["clone_means_re"]), np.array(doc["clone_means_im"])]
    )
    target_mean = math.sqrt(2.0) * np.concatenate(
        [np.full(m, alpha.real), np.full(m, alpha.imag)]
    )
    z_mean = np.abs(quads - target_mean) / np.array(doc["mean_se"])
    root = np.sqrt(noises)
    block = np.eye(m) + 2.0 * np.outer(root, root)
    target_cov = np.zeros((2 * m, 2 * m))
    target_cov[:m, :m] = target_cov[m:, m:] = block
    cov = np.array(doc["clone_cov"]).reshape(2 * m, 2 * m)
    z_cov = np.abs(cov - target_cov) / np.array(doc["cov_se"]).reshape(2 * m, 2 * m)
    worst = float(max(z_mean.max(), z_cov.max()))
    if not math.isfinite(worst):
        raise CheckFailed("simulate", "clone statistics are not finite")
    margins.max_abs_z = max(margins.max_abs_z, worst)
    if worst >= Z_LIMIT:
        raise CheckFailed("simulate", f"clone statistics are {worst:.3g} standard errors off")
    if csv_path is not None:
        with open(csv_path, "rb") as fh:
            data = fh.read()
        lines = data.splitlines()
        if lines[0] != b"shot,clone,x,p,o_re,o_im":
            raise CheckFailed("simulate", f"unexpected CSV header {lines[0][:80]!r}")
        last = lines[-1].split(b",")
        if len(lines) - 1 != shots * m or last[:2] != [b"%d" % (shots - 1), b"%d" % (m - 1)]:
            raise CheckFailed("simulate", f"CSV has {len(lines) - 1} rows, expected {shots * m}")


# -- operations --------------------------------------------------------------


def design_op(out: Path, n: int, m: int, weights: str | None) -> Op:
    source = ["--weights", weights] if weights else ["--symmetric"]
    return Op(
        ["design", *source, "--n-in", str(n), "--m-out", str(m), "--out", str(out)],
        lambda margins: check_design(out, n, m),
        json_out=out,
        work={"designs": 1},
    )


def synth_op(design: Path, scheme: str, out: Path, n: int, m: int) -> Op:
    return Op(
        ["synth", "--design", str(design), "--scheme", scheme, "--out", str(out)],
        lambda margins: check_circuit(out, scheme, check_design(design, n, m)),
        json_out=out,
    )


def verify_op(circuit: Path, out: Path) -> Op:
    return Op(
        ["verify", "--circuit", str(circuit), "--out", str(out)],
        lambda margins: check_verify(out, margins),
        json_out=out,
    )


def certify_op(design: Path, out: Path, trials: int, seed: int) -> Op:
    return Op(
        ["certify", "--design", str(design), "--trials", str(trials), "--seed", str(seed),
         "--out", str(out)],
        lambda margins: check_certify(out, margins),
        json_out=out,
    )


def simulate_op(
    circuit: Path,
    noises: np.ndarray,
    alpha: complex,
    shots: int,
    shards: int,
    seed: int,
    summary: Path,
    csv_path: Path | None = None,
) -> Op:
    argv = ["simulate", "--circuit", str(circuit), f"--alpha={alpha.real!r},{alpha.imag!r}",
            "--shots", str(shots), "--shards", str(shards), "--seed", str(seed),
            "--summary-out", str(summary)]
    if csv_path is not None:
        argv += ["--out", str(csv_path)]
        work = {"rows": shots * noises.size}
    else:
        work = {"shots": shots}
    return Op(
        argv,
        lambda margins: check_simulation(summary, noises, alpha, shots, margins, csv_path),
        json_out=summary,
        csv_out=csv_path,
        work=work,
    )


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


# -- pipeline-large-m --------------------------------------------------------


def _no_prepare(workdir, seed, sizes, run):
    return None


def pipeline_round(rng, workdir: Path, ctx, sizes) -> list[Op]:
    ops = []
    for i, m in enumerate(sizes["ms"]):
        n = int(rng.integers(1, min(3, m - 1) + 1))
        d, amp, ff = workdir / f"d{i}.json", workdir / f"a{i}.json", workdir / f"f{i}.json"
        ops += [
            design_op(d, n, m, _weights(rng, m)),
            synth_op(d, "amplifier", amp, n, m),
            synth_op(d, "feedforward", ff, n, m),
            verify_op(amp, workdir / f"va{i}.json"),
            verify_op(ff, workdir / f"vf{i}.json"),
            certify_op(d, workdir / f"c{i}.json", sizes["trials"], _seed(rng)),
        ]
    return ops


# -- certify-scan-small-m ----------------------------------------------------


def certify_round(rng, workdir: Path, ctx, sizes) -> list[Op]:
    ops = []
    for i, m in enumerate(sizes["ms"]):
        n = int(rng.integers(1, min(3, m - 1) + 1))
        d = workdir / f"d{i}.json"
        ops += [
            design_op(d, n, m, _weights(rng, m)),
            certify_op(d, workdir / f"c{i}.json", sizes["trials"], _seed(rng)),
        ]
    return ops


# -- simulate-stream ---------------------------------------------------------


@dataclass(frozen=True)
class Circuit:
    path: Path
    noises: np.ndarray


def _feedforward_circuit(run, workdir: Path, tag: str, n: int, m: int, weights) -> Circuit:
    design, circuit = workdir / f"{tag}-design.json", workdir / f"{tag}-ff.json"
    run(design_op(design, n, m, weights))
    run(synth_op(design, "feedforward", circuit, n, m))
    return Circuit(circuit, check_design(design, n, m))


def simulate_prepare(workdir: Path, seed: int, sizes: dict, run) -> dict:
    """Circuit files: a pool of weighted 2->8 designs and the symmetric 1->2."""
    rng = np.random.default_rng([seed, 1])
    pool = [
        _feedforward_circuit(run, workdir, f"w{i}", 2, 8, _weights(rng, 8))
        for i in range(sizes["pool"])
    ]
    return {"weighted": pool, "symmetric": _feedforward_circuit(run, workdir, "s", 1, 2, None)}


def simulate_round(rng, workdir: Path, ctx, sizes) -> list[Op]:
    weighted = ctx["weighted"][int(rng.integers(0, len(ctx["weighted"])))]
    symmetric = ctx["symmetric"]
    alpha = complex(*rng.uniform(-1.0, 1.0, 2))
    return [
        simulate_op(weighted.path, weighted.noises, alpha, sizes["shots"], sizes["shards"],
                    _seed(rng), workdir / "acc.json"),
        simulate_op(symmetric.path, symmetric.noises, alpha, sizes["csv_shots"], 1,
                    _seed(rng), workdir / "csv.json", workdir / "samples.csv"),
    ]


# dense linear algebra on large matrices, bulk arrays and interpreter work
DENSE_KERNEL = ("small_lapack", "blas", "dense", "numpy_calls", "json", "json", "interpreter",
                "interpreter", "rng")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline-large-m",
            # one M = 200 design costs about as much as twelve at M = 50
            sizes={"ms": (200,) + (50,) * 12, "trials": 2, "trace_rounds": 6},
            calibration=DENSE_KERNEL,
            prepare=_no_prepare,
            make_round=pipeline_round,
        ),
        Workload(
            "certify-scan-small-m",
            sizes={"ms": tuple(range(2, 9)), "trials": 1000, "trace_rounds": 20},
            calibration=("small_lapack", "blas", "json", "interpreter", "rng"),
            prepare=_no_prepare,
            make_round=certify_round,
        ),
        Workload(
            "simulate-stream",
            sizes={"shots": 10**6, "shards": 4, "csv_shots": 10**5, "pool": 4,
                   "trace_rounds": 4},
            calibration=DENSE_KERNEL,
            prepare=simulate_prepare,
            make_round=simulate_round,
        ),
    )
}


def rounds(
    workload: Workload, seed: int, workdir: Path, ctx, sizes: dict
) -> Iterator[tuple[Path, list[Op]]]:
    """Rounds of operations drawn from `seed`; round i writes under
    workdir/r<i>, which is yielded with it."""
    rng = np.random.default_rng(seed)
    i = 0
    while True:
        round_dir = workdir / f"r{i:04d}"
        round_dir.mkdir(parents=True)
        yield round_dir, workload.make_round(rng, round_dir, ctx, sizes)
        i += 1
