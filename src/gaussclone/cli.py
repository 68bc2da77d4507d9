"""Command-line front end: design, solve, synth, verify, certify, simulate,
tradeoff.

Structured documents and reports are single-line JSON written by the json
module's C encoder (schema-versioned, exact double round-trip, inf as
Infinity); indented documents from earlier releases load the same.  The
amplifier circuit document's text is built in parts: V's rows are encoded
once and kappa reuses V's row text, with the bytes `json.dumps` would
give.  Bulk outputs are CSV.  All randomness flows through an explicit
--seed.
Exit codes: 0 success, 2 invalid input or failed precondition, 3 failed
verification or certification (reports are still written).
One parser is built per process, on the first `main` call; command X runs
the module-level `cmd_X`, looked up when the command runs.

Circuits are checked by `circuits.verify_circuit` on the numbers `synth`
writes or a document stores, which `simulate` runs: nothing is rebuilt from
the design.  A feedforward document may name its displacement convention
only as "outcome", the one the circuit uses.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import sys

import numpy as np

from . import simulate
from .certificate import (
    build_certificate,
    build_problem,
    random_feasible_cost_scan,
    verify_certificate,
    weights_from_profile,
)
from .circuits import verify_circuit
from .core import within
from .design import (
    CostWeights,
    InfeasibleDesignError,
    NoiseProfile,
    design_from_weights,
    estimation_tradeoff,
    last_noise_roots,
    residual,
    surface_terms,
    symmetric_profile,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FAILED = 3


class CliError(Exception):
    """Invalid input or failed precondition; maps to exit code 2."""


def _write_text(text: str, path: str | None) -> str:
    """Write one-line document text, and a newline, to `path` if given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def _dump_json(doc: dict, path: str | None) -> str:
    return _write_text(json.dumps(doc), path)


# -- design documents --------------------------------------------------------


def design_block(profile: NoiseProfile) -> dict:
    """The design fields N, M and noises of every document."""
    return {"N": profile.n_in, "M": profile.m_out, "noises": list(map(float, profile.noises))}


def design_document(profile: NoiseProfile, weights: CostWeights | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        **design_block(profile),
        "residual": residual(profile),
        "fidelities": list(map(float, profile.fidelities())),
    }
    if weights is not None:
        doc["weights"] = list(map(float, weights.weights))
        doc["lambda"] = weights.lagrange
    return doc


NUMBER = (int, float)
DESIGN_FIELDS = {"N": (int,), "M": (int,), "noises": [NUMBER]}


def _is(value, kind) -> bool:
    """Whether a JSON value has `kind`: a tuple of types, or [types] for an
    array of them.  Types match exactly, so true and false are not numbers."""
    if isinstance(kind, list):
        return type(value) is list and set(map(type, value)) <= set(kind[0])
    return type(value) in kind


def _check_shape(obj, where: str, fields: dict):
    """Raise CliError unless `obj` is a JSON object with a value of each
    key's kind at each key of `fields`; a key ending in "?" may be absent."""
    if not isinstance(obj, dict):
        raise CliError(f"{where} must be a JSON object")
    for key, kind in fields.items():
        name = key.rstrip("?")
        if (name in obj or name == key) and not _is(obj.get(name), kind):
            raise CliError(f"{where}: {name!r} is missing or has the wrong type")


def _read_document(path: str, kind: str, fields: dict) -> dict:
    """Load a JSON document of the current schema and check its `fields`."""
    with open(path) as fh:
        doc = json.load(fh)
    _check_shape(doc, f"{kind} document", {})
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise CliError(f"unsupported {kind} schema version {doc.get('schema_version')}")
    _check_shape(doc, f"{kind} document", fields)
    return doc


def load_design(path: str) -> tuple[NoiseProfile, CostWeights | None]:
    fields = {
        **DESIGN_FIELDS, "residual": NUMBER, "fidelities?": [NUMBER], "weights?": [NUMBER],
        "lambda?": NUMBER,
    }
    doc = _read_document(path, "design", fields)
    for given, needed in (("lambda", "weights"), ("weights", "lambda")):
        if given in doc and needed not in doc:
            raise CliError(f"design document: {given!r} is given without {needed!r}")
    for key in ("fidelities", "weights"):
        if key in doc and len(doc[key]) != doc["M"]:
            raise CliError(f"design document: {key!r} must have M = {doc['M']} entries")
    profile = NoiseProfile(doc["N"], doc["M"], np.array(doc["noises"], dtype=float))
    lead, tail, _ = surface_terms(np.sqrt(profile.noises), profile.n_in)
    if not within(lead - tail - doc["residual"], lead + tail):  # as `require_on_surface` holds R
        raise CliError("stored residual does not match recomputed value")
    if "fidelities" in doc:
        off = np.max(np.abs(np.array(doc["fidelities"]) - profile.fidelities()))
        if not within(off):
            raise CliError(f"design document: 'fidelities' are {off:.3g} off 1 / (1 + n_j)")
    if "weights" not in doc:
        return profile, None
    return profile, CostWeights(doc["weights"], doc["lambda"])


def design_hash(profile: NoiseProfile) -> str:
    block = {"schema_version": SCHEMA_VERSION, **design_block(profile)}
    return hashlib.sha256(json.dumps(block, sort_keys=True).encode()).hexdigest()


# -- circuit documents -------------------------------------------------------


def circuit_parameters(scheme: str, circ) -> dict:
    """The parameters of `circ`, a `scheme` circuit, that its document holds
    as JSON numbers and lists; an amplifier's V and kappa follow them."""
    if scheme == "amplifier":
        return {"t": circ.t, "g": circ.g}
    return {"r_tap": circ.r_tap, "gains": circ.gains.tolist(),
            "reflectances": circ.reflectances.tolist(), "splitting": circ.splitting.tolist()}


def circuit_text(profile: NoiseProfile, scheme: str, circ) -> str:
    """The document of `circ`, a `scheme` circuit, as one line of JSON: the
    text `json.dumps` gives, with the amplifier's V and kappa flattened after
    t and g.

    Each number is formatted once: V's rows are encoded together, and row j
    of kappa is the text of kappa_j1 followed by V's row j without its first
    and last entries, which kappa's other columns repeat."""
    text = json.dumps({
        "schema_version": SCHEMA_VERSION,
        "scheme": scheme,
        "design": design_block(profile),
        "provenance": {"design_sha256": design_hash(profile)},
        "parameters": circuit_parameters(scheme, circ),
    })
    if scheme != "amplifier":
        return text
    rows = json.dumps(circ.V.tolist())[2:-2].split("], [")
    firsts = json.dumps(circ.kappa[:, 0].tolist())[1:-1].split(", ")
    kappa = ", ".join(
        first + row[row.find(", ") : row.rfind(", ")] for first, row in zip(firsts, rows)
    )
    # the document ends in the parameters object, after "g"
    return f'{text[:-2]}, "V": [{", ".join(rows)}], "kappa": [{kappa}]}}}}'


@np.errstate(all="ignore")  # a stored inf or NaN reads as a failed verdict, not a warning
def load_circuit(path: str):
    """Read the circuit document at `path` and check the circuit its stored
    numbers make: `verify_circuit` on them and the design hash; nothing is
    built from the design.  Each parameter is read at its fixed shape, and a
    missing key, a value of another size or an unknown extra key reads as
    NaN, so the verdict fails.  A feedforward document without splitting
    fractions, as earlier releases wrote, takes the splitter chain of its
    reflectances.  Returns the document, its design, the circuit its numbers
    make and the report."""
    fields = {"scheme": (str,), "design": (dict,), "parameters": (dict,)}
    doc = _read_document(path, "circuit", fields)
    _check_shape(doc["design"], "circuit design", DESIGN_FIELDS)
    scheme, stored = doc["scheme"], dict(doc["parameters"])
    if scheme == "feedforward":
        # older documents name the displacement convention
        convention = stored.pop("phase_convention", "outcome")
        if convention != "outcome":
            raise CliError(f"unsupported phase convention {convention!r}")
    if not all(_is(v, NUMBER) or _is(v, [NUMBER]) for v in stored.values()):
        raise CliError("circuit parameters must be numbers or arrays of numbers")
    d = doc["design"]
    profile = NoiseProfile(d["N"], d["M"], np.array(d["noises"], dtype=float))
    m, params = profile.m_out, {}
    shapes = {"amplifier": {"t": (), "g": (), "V": (m, m), "kappa": (m, m - 1)},
              "feedforward": {"r_tap": (), "gains": (m,), "reflectances": (m - 1,),
                              "splitting": (m,)}}.get(scheme, {})
    known = stored.keys() <= shapes.keys()
    for key, shape in shapes.items():  # () a number, else a flat list of that many
        a = np.asarray(stored.get(key, math.nan), dtype=float)
        fits = known and a.ndim == min(len(shape), 1) and a.size == math.prod(shape)
        params[key] = a.reshape(shape) if fits else np.full(shape, math.nan)
    if scheme == "feedforward" and "splitting" not in stored:  # its reflectances' splitter chain
        r = params["reflectances"]
        params["splitting"] = np.append(r, 1.0) * np.cumprod(np.append(1.0, np.sqrt(1.0 - r * r)))
    circ, report = verify_circuit(profile, scheme, [params[key][()] for key in shapes])
    hash_ok = doc.get("provenance") == {"design_sha256": design_hash(profile)}
    report = {"scheme": scheme, **report, "passed": report["passed"] and hash_ok,
              "design_hash_matches": hash_ok}
    return doc, profile, circ, report


# -- commands ----------------------------------------------------------------


def cmd_design(args) -> int:
    if args.symmetric == (args.weights is not None):
        raise CliError("specify exactly one of --symmetric or --weights")
    if args.symmetric:
        profile = symmetric_profile(args.n_in, args.m_out)
        weights = None
    else:
        values = [float(v) for v in args.weights.split(",")]
        profile, weights = design_from_weights(values, args.n_in, args.m_out)
    doc = design_document(profile, weights)
    print(_dump_json(doc, args.out))
    return EXIT_OK


def cmd_solve(args) -> int:
    partial = np.array([float(v) for v in args.noises.split(",")])
    try:
        roots = last_noise_roots(partial, args.n_in, args.m_out)
    except InfeasibleDesignError as exc:
        print(f"infeasible: {exc}")
        return EXIT_INPUT
    print(f"optimal n_M = {roots[0]:.12g}")
    if len(roots) > 1:
        print(f"other root  = {roots[1]:.12g}  (on-surface but suboptimal)")
    return EXIT_OK


def cmd_synth(args) -> int:
    profile, _ = load_design(args.design)
    circ, checks = verify_circuit(profile, args.scheme)
    if checks["passed"]:
        print(_write_text(circuit_text(profile, args.scheme, circ), args.out))
    print(json.dumps({"invariants": checks}), file=sys.stderr)
    return EXIT_OK if checks["passed"] else EXIT_FAILED


def cmd_verify(args) -> int:
    report = load_circuit(args.circuit)[3]
    print(_dump_json(report, args.out))
    return EXIT_OK if report["passed"] else EXIT_FAILED


def cmd_certify(args) -> int:
    profile, weights = load_design(args.design)
    if weights is None:
        weights = weights_from_profile(profile)
    problem = build_problem(profile, weights)
    cert = build_certificate(problem)
    report = verify_certificate(problem, cert)
    scan = random_feasible_cost_scan(
        problem, cert, args.trials, np.random.default_rng(args.seed)
    )
    full = {"certificate": report, "feasible_scan": scan}
    print(_dump_json(full, args.out))
    return EXIT_OK if report["passed"] and scan["passed"] else EXIT_FAILED


def cmd_simulate(args) -> int:
    _, profile, circ, report = load_circuit(args.circuit)
    if report["scheme"] != "feedforward":
        raise CliError("simulation requires a feedforward circuit document")
    if not report["passed"]:
        print(f"error: circuit does not match its design: {json.dumps(report)}", file=sys.stderr)
        return EXIT_FAILED
    if args.alpha.count(",") != 1:
        raise CliError(f"--alpha must be the input amplitude as re,im, got {args.alpha!r}")
    real, imag = map(float, args.alpha.split(","))
    config = simulate.SimConfig(profile=profile, alpha=complex(real, imag), shots=args.shots,
                                seed=args.seed, shards=args.shards)
    result = simulate.run(config, circuit=circ, samples_path=args.out)
    summary = {
        "shots_used": result.shots_used,
        "clone_means_re": list(map(float, result.clone_means.real)),
        "clone_means_im": list(map(float, result.clone_means.imag)),
        "clone_cov": [float(v) for v in result.clone_cov.ravel()],
        "mean_se": list(map(float, result.mean_se)),
        "cov_se": [float(v) for v in result.cov_se.ravel()],
    }
    print(_dump_json(summary, args.summary_out))
    return EXIT_OK


def cmd_tradeoff(args) -> int:
    points = args.points
    if points < 1:
        raise CliError("need at least one point")
    rows = []
    for n_f in np.geomspace(1e-3, 1e3, points):
        pt = estimation_tradeoff(float(n_f))
        rows.append((pt.n_f, pt.n_g, pt.fidelity_quantum, pt.fidelity_estimate))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write("n_F,n_G,F,G\r\n" + "".join("%.17g,%.17g,%.17g,%.17g\r\n" % r for r in rows))
    for row in rows:
        print(",".join(f"{v:.12g}" for v in row))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, shared by every `main` call: never add to it."""
    parser = argparse.ArgumentParser(
        prog="gaussclone",
        description="Optimal N-to-M asymmetric Gaussian cloning of coherent states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="design an optimal noise profile")
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--weights", help="comma-separated positive cost weights")
    p.add_argument("--n-in", type=int, required=True)
    p.add_argument("--m-out", type=int, required=True)
    p.add_argument("--out", help="write design document JSON here")

    p = sub.add_parser("solve", help="complete M-1 noises to the optimal surface")
    p.add_argument("--noises", required=True, help="comma-separated first M-1 noises")
    p.add_argument("--n-in", type=int, required=True)
    p.add_argument("--m-out", type=int, required=True)

    p = sub.add_parser("synth", help="synthesize a physical circuit")
    p.add_argument("--design", required=True)
    p.add_argument("--scheme", choices=("amplifier", "feedforward"), required=True)
    p.add_argument("--out", help="write circuit document JSON here")

    p = sub.add_parser("verify", help="re-check circuit invariants")
    p.add_argument("--circuit", required=True)
    p.add_argument("--out", help="write verification report JSON here")

    p = sub.add_parser("certify", help="verify the SDP dual optimality certificate")
    p.add_argument("--design", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write certification report JSON here")

    p = sub.add_parser("simulate", help="Monte Carlo of the feedforward scheme")
    p.add_argument("--circuit", required=True)
    p.add_argument("--alpha", default="1,0", help="input amplitude as re,im")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--out", help="stream per-shot samples to this CSV")
    p.add_argument("--summary-out", help="write the summary JSON here")

    p = sub.add_parser("tradeoff", help="export the partial-estimation tradeoff curve")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", help="write the curve to this CSV")

    for p in sub.choices.values():  # "-1,2" and "-inf,1", like "-1", are values
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error or --help: argparse's exit code
        return exc.code
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (CliError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
