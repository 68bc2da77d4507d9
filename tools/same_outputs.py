"""Run one fixed corpus of gaussclone commands against two source trees and
report every output that differs.

    python tools/same_outputs.py TREE_A TREE_B

Each tree is a checkout of this repository; its `src/` is imported by
one fresh interpreter, which runs the whole corpus in-process in a
scratch directory of its own.  The corpus covers the CLI (design, synth,
verify, certify, simulate, solve, tradeoff, their error and usage
paths), the documents in `tests/fixtures`, its stale amplifier documents
from an earlier release and one with V completed otherwise, a feedforward
document with edited splitting fractions, designs with an exact
zero-noise clone, one with weights near 1e-305, one with subnormal
weights, designs with one weight at 1e30 and 1e33, a symmetric
profile that beats the cloning bound, one on the surface but off its
optimal sheet, completions off that sheet and at large noises, the
stored design whose Gram-Schmidt completion of V once failed `synth`, a
sample CSV large enough to be formatted on forked processes, and the
demos of each tree.  For every command the exit code, stdout, stderr and
every file it wrote are recorded.  The inputs (fixtures and hand-written
or edited documents) come from the checkout that holds this script, so
both trees read the same bytes.

The report lists each command whose outputs differ.  For JSON outputs it
gives each differing key, with list indices folded into `[]`, and its
largest absolute move |a - b| and scaled move |a - b| / max(|a|, |b|); other
text gives its first differing line.  Its last line counts the commands
that differ, and among them those whose exit code differs and those whose
`passed` values, at any depth of their JSON outputs, differ.  The exit
status is 0 when nothing differs, 1 when something does and 2 on a usage
error.  A parent commit's tree can be taken with
`git archive <commit> | tar -x -C <dir>`.

Only the standard library is imported here; the child interpreters import
numpy and gaussclone from the tree they run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "tests" / "fixtures"
DEMOS = ("circuit_synthesis.py", "dual_certificate.py", "monte_carlo.py", "noise_tradeoff.py")
# one BLAS thread, so that no product depends on the machine's load
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONDONTWRITEBYTECODE": "1"}
SIZES = ((1, 2), (1, 3), (2, 6), (3, 50), (2, 200), (1, 13))
# designs whose last clone completes the symmetric (N - 1) -> (M - 1) design
# to zero noise; the first three once completed to about 1e-32
ZERO_NOISE_SIZES = ((2, 3), (3, 4), (2, 6), (2, 4))
SHOTS = "60"
# characters of a value or line that the report shows
SHORT = 60


def _design_args(kind: str, n: int, m: int) -> list[str]:
    if kind == "sym":
        return ["--symmetric"]
    if kind == "weighted":
        weights = [1.0 + (7 * j % 5) / 2.0 for j in range(m)]
    else:  # one weight at 1e12, the others at 1
        weights = [1e12] + [1.0] * (m - 1)
    return ["--weights", ",".join(map(repr, weights))]


def _circuit_commands(stem: str) -> list[list[str]]:
    """synth, verify and simulate of both schemes of design `stem`.design.json."""
    steps = []
    for scheme, short in (("amplifier", "amp"), ("feedforward", "ff")):
        steps.append(["synth", "--design", f"{stem}.design.json", "--scheme", scheme,
                      "--out", f"{stem}.{short}.json"])
        steps.append(["verify", "--circuit", f"{stem}.{short}.json",
                      "--out", f"{stem}.{short}.verify.json"])
    circuit = f"{stem}.ff.json"
    steps.append(["simulate", "--circuit", circuit, "--shots", SHOTS, "--seed", "3"])
    steps.append(["simulate", "--circuit", circuit, "--shots", SHOTS, "--seed", "3",
                  "--shards", "3", "--out", f"{stem}.sim.csv",
                  "--summary-out", f"{stem}.sim.json"])
    return steps


def corpus() -> list[list[str]]:
    """The fixed corpus: CLI argument lists, plus two kinds of step run by
    the child itself: ["@demo", file] and ["@zero-noise", N, M, out]."""
    steps = []
    for n, m in SIZES:
        for kind in ("sym", "weighted", "big"):
            stem = f"{kind}-{n}-{m}"
            steps.append(["design", *_design_args(kind, n, m), "--n-in", str(n),
                          "--m-out", str(m), "--out", f"{stem}.design.json"])
            steps += _circuit_commands(stem)
            steps.append(["certify", "--design", f"{stem}.design.json", "--trials", "20",
                          "--seed", "1", "--out", f"{stem}.certify.json"])
    for n, m in ZERO_NOISE_SIZES:
        stem = f"zero-{n}-{m}"
        steps.append(["@zero-noise", str(n), str(m), f"{stem}.design.json"])
        steps += _circuit_commands(stem)
        steps.append(["certify", "--design", f"{stem}.design.json", "--trials", "20"])
        partial = ",".join([repr((m - n) / ((m - 1) * (n - 1)))] * (m - 1))
        steps.append(["solve", "--noises", partial, "--n-in", str(n), "--m-out", str(m)])
    for path in sorted(FIXTURES.glob("*.json")) + sorted(FIXTURES.glob("stale/*.amplifier.json")):
        steps.append(["verify", "--circuit", f"fixtures/{path.relative_to(FIXTURES)}"])
        if path.name.endswith(".feedforward.json"):
            steps.append(["simulate", "--circuit", f"fixtures/{path.name}", "--shots", SHOTS,
                          "--alpha", "0.3,-0.7", "--seed", "5", "--shards", "2"])
    steps += [
        ["solve", "--noises", "0.5,0.5", "--n-in", "1", "--m-out", "3"],
        ["solve", "--noises", "0.25", "--n-in", "1", "--m-out", "2"],
        ["solve", "--noises", "0.01,0.01", "--n-in", "1", "--m-out", "3"],
        ["solve", "--noises", "0", "--n-in", "1", "--m-out", "2"],
        ["solve", "--noises", "nan,1", "--n-in", "1", "--m-out", "3"],
        ["solve", "--noises", "-1,1", "--n-in", "1", "--m-out", "3"],
        ["solve", "--noises=-1,1", "--n-in", "1", "--m-out", "3"],
        ["solve", "--noises", "1", "--n-in", "2", "--m-out", "2"],
        ["tradeoff", "--points", "5"],
        ["tradeoff", "--points", "7", "--out", "curve.csv"],
        ["tradeoff", "--points", "0"],
        # usage errors and help, which argparse handles
        ["--help"],
        ["synth", "--help"],
        ["design", "--n-in", "1"],
        ["frobnicate"],
        ["synth", "--design", "sym-1-2.design.json", "--scheme", "teleporter"],
        # invalid input found by a command
        ["design", "--n-in", "1", "--m-out", "2"],
        ["design", "--symmetric", "--weights", "1,2", "--n-in", "1", "--m-out", "2"],
        ["design", "--weights", "nan,1,2", "--n-in", "1", "--m-out", "3"],
        ["design", "--weights", "1,2", "--n-in", "2", "--m-out", "2"],
        ["design", "--weights", "1,2,3", "--n-in", "1", "--m-out", "2"],
        ["design", "--symmetric", "--n-in", "0", "--m-out", "2"],
        ["certify", "--design", "missing.json"],
        ["verify", "--circuit", "missing.json"],
        ["certify", "--design", "bad/lambda-without-weights.json"],
        ["synth", "--design", "bad/schema-2.json", "--scheme", "amplifier"],
        ["certify", "--design", "bad/not-json.json"],
        ["verify", "--circuit", "bad/parameters-list.json"],
        ["verify", "--circuit", "bad/tampered.feedforward.json"],
        ["simulate", "--circuit", "bad/tampered.feedforward.json", "--shots", "10"],
        ["verify", "--circuit", "bad/splitting.feedforward.json"],
        ["simulate", "--circuit", "bad/splitting.feedforward.json", "--shots", "10"],
        ["simulate", "--circuit", "sym-1-2.amp.json", "--shots", "10"],
        ["simulate", "--circuit", "sym-1-2.ff.json", "--shots", "0"],
        ["simulate", "--circuit", "sym-1-2.ff.json", "--shots", "10", "--shards", "0"],
        # large enough that the sample CSV is formatted in parts on forked processes
        ["simulate", "--circuit", "sym-1-2.ff.json", "--shots", "20000", "--seed", "8",
         "--shards", "2", "--out", "pooled.sim.csv", "--summary-out", "pooled.sim.json"],
        # a list whose first value is negative is the option's value
        ["design", "--weights", "-1,2", "--n-in", "1", "--m-out", "2"],
        ["simulate", "--circuit", "sym-1-2.ff.json", "--alpha", "-0.3,0.2", "--shots", SHOTS],
        # and so is one whose first value is a negative non-number
        ["design", "--weights", "-inf,1", "--n-in", "1", "--m-out", "2"],
        ["solve", "--noises", "-nan,1", "--n-in", "1", "--m-out", "3"],
        ["simulate", "--circuit", "sym-1-2.ff.json", "--alpha", "-inf,0", "--shots", "10"],
        # an amplitude of other than two numbers
        ["simulate", "--circuit", "sym-1-2.ff.json", "--alpha", "1", "--shots", "10"],
        ["simulate", "--circuit", "sym-1-2.ff.json", "--alpha", "1,2,3", "--shots", "10"],
        # a stored V completed otherwise, by a Givens rotation: the same circuit
        ["verify", "--circuit", "rotated.amplifier.json"],
        # weights near the bottom of the normal doubles, where a verdict
        # scale of max|Z| max|A_opt| would be about 1e-304
        ["design", "--weights", "1e-305,2e-305,3e-305,1.5e-305", "--n-in", "1", "--m-out", "4",
         "--out", "tiny.design.json"],
        ["certify", "--design", "tiny.design.json", "--trials", "20", "--seed", "1"],
        # subnormal weights, at which the certificate's eta overflows
        ["design", "--weights", "1e-322,2e-322,3e-322", "--n-in", "1", "--m-out", "3",
         "--out", "subnormal.design.json"],
        ["certify", "--design", "subnormal.design.json", "--trials", "20", "--seed", "1"],
        # the design whose Gram-Schmidt completion of V failed synth's own check
        ["synth", "--design", "fixtures/designs/seed116_1to50.design.json", "--scheme",
         "amplifier", "--out", "seed116.amp.json"],
        ["verify", "--circuit", "seed116.amp.json"],
        # a symmetric 1 -> 1000 profile with its noises 1e-7 low, which beats
        # the cloning bound by 5e-8 of its centered terms
        ["certify", "--design", "bad/below-1-1000.design.json", "--trials", "20"],
        ["synth", "--design", "bad/below-1-1000.design.json", "--scheme", "amplifier"],
        ["synth", "--design", "bad/below-1-1000.design.json", "--scheme", "feedforward"],
        # completions whose optimal root leaves a clone a negative amplitude
        # S - (M - N) sqrt(n_j): on the surface, off its optimal sheet
        ["solve", "--noises", "1,1,1", "--n-in", "2", "--m-out", "4"],
        ["solve", "--noises", "12.9086,0.1548", "--n-in", "1", "--m-out", "3"],
        # 1 -> 2 at large n_1, where n_2 = 1 / (4 n_1)
        ["solve", "--noises", "1e15", "--n-in", "1", "--m-out", "2"],
        ["solve", "--noises", "1e300", "--n-in", "1", "--m-out", "2"],
        # the second completion written as a design document
        ["synth", "--design", "bad/off-sheet-1-3.design.json", "--scheme", "amplifier"],
        ["synth", "--design", "bad/off-sheet-1-3.design.json", "--scheme", "feedforward"],
        ["certify", "--design", "bad/off-sheet-1-3.design.json", "--trials", "20"],
    ]
    # one weight 1e30 and 1e33 off the others
    for weight in ("1e30", "1e33"):
        for m in (2, 20):
            steps.append(["design", "--weights", ",".join([weight] + ["1"] * (m - 1)),
                          "--n-in", "1", "--m-out", str(m)])
    steps += [["@demo", name] for name in DEMOS]
    return steps


def _write_inputs(work: Path) -> None:
    """Copy the fixtures into `work` and write the malformed documents."""
    shutil.copytree(FIXTURES, work / "fixtures")
    bad = work / "bad"
    bad.mkdir()
    design = {"schema_version": 1, "N": 1, "M": 2, "noises": [0.5, 0.5], "residual": 0.0}
    f = math.sqrt(0.999 * (1.0 - 1e-7))
    docs = {
        "lambda-without-weights.json": {**design, "lambda": -5.0},
        "schema-2.json": {**design, "schema_version": 2},
        "below-1-1000.design.json": {**design, "M": 1000, "noises": [f * f] * 1000,
                                     "residual": 1000.0 * f * f - 999.0},
        "off-sheet-1-3.design.json": {**design, "M": 3,
                                      "noises": [12.9086, 0.1548, 4.3042012083344074]},
    }
    circuit = json.loads((FIXTURES / "random_1to4.feedforward.json").read_text())
    docs["parameters-list.json"] = {**circuit, "parameters": [1.0, 2.0]}
    gains = circuit["parameters"]["gains"]
    tampered = [gains[0] * (1.0 + 1e-6), *gains[1:]]
    docs["tampered.feedforward.json"] = {
        **circuit, "parameters": {**circuit["parameters"], "gains": tampered}}
    # the splitting fractions of its splitter chain, stored 1e-6 short
    splitting, beam = [], 1.0
    for r in circuit["parameters"]["reflectances"]:
        splitting.append(r * beam)
        beam *= math.sqrt(1.0 - r * r)
    splitting = [d * (1.0 - 1e-6) for d in splitting + [beam]]
    docs["splitting.feedforward.json"] = {
        **circuit, "parameters": {**circuit["parameters"], "splitting": splitting}}
    for name, doc in docs.items():
        (bad / name).write_text(json.dumps(doc) + "\n")
    (bad / "not-json.json").write_text("{not json\n")
    (work / "rotated.amplifier.json").write_text(json.dumps(_rotated_completion()) + "\n")


def _rotated_completion() -> dict:
    """The fixture gs_skip_1to6.amplifier.json with V's columns 2 and 3, and
    kappa's, which repeat them, turned by a Givens rotation."""
    doc = json.loads((FIXTURES / "gs_skip_1to6.amplifier.json").read_text())
    c, s = math.cos(0.7), math.sin(0.7)
    for key, cols in (("V", 6), ("kappa", 5)):
        flat = doc["parameters"][key]
        for row in range(0, len(flat), cols):
            a, b = flat[row + 1], flat[row + 2]
            flat[row + 1], flat[row + 2] = c * a + s * b, c * b - s * a
    return doc


# -- the child interpreter ---------------------------------------------------


def _snapshot(work: Path) -> dict[str, tuple[int, int]]:
    return {str(p.relative_to(work)): (p.stat().st_mtime_ns, p.stat().st_size)
            for p in work.rglob("*") if p.is_file()}


def _zero_noise_design(n: int, m: int, out: str) -> None:
    """Write the design whose last clone completes the symmetric
    (N - 1) -> (M - 1) design to zero noise, and print that noise."""
    import numpy as np

    from gaussclone.cli import design_document
    from gaussclone.design import NoiseProfile, last_noise_roots, symmetric_profile

    others = symmetric_profile(n - 1, m - 1).noises
    zero = last_noise_roots(others, n, m)[0]
    with open(out, "w") as fh:
        json.dump(design_document(NoiseProfile(n, m, np.append(others, zero))), fh)
    print(repr(zero))


def _run_step(step: list[str], tree: Path) -> int | str:
    from gaussclone import cli

    try:
        if step[0] == "@demo":
            runpy.run_path(str(tree / "demos" / step[1]), run_name="__main__")
            return 0
        if step[0] == "@zero-noise":
            _zero_noise_design(int(step[1]), int(step[2]), step[3])
            return 0
        return cli.main(step)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught error is an output too
        print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
        return "uncaught"


def child_main() -> None:
    """Run the steps read from stdin in the current directory against the
    tree named by argv[1], whose src/ is on the path, and write the
    records as JSON to the file named by argv[2]."""
    tree, results = Path(sys.argv[1]), Path(sys.argv[2])
    steps = json.load(sys.stdin)
    work = Path.cwd()
    records = []
    for step in steps:
        before = _snapshot(work)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _run_step(step, tree)
        after = _snapshot(work)
        files = {name: (work / name).read_text(errors="replace")
                 for name in sorted(after) if after[name] != before.get(name)}
        records.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                        "files": files})
    results.write_text(json.dumps(records))


def _start(tree: Path, steps: list[list[str]], scratch: Path) -> tuple[subprocess.Popen, Path]:
    work = scratch / "work"
    work.mkdir()
    _write_inputs(work)
    results = scratch / "results.json"
    code = (f"import sys; sys.path.append({str(HERE)!r}); "
            "import same_outputs; same_outputs.child_main()")
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(tree.resolve() / "src")}
    proc = subprocess.Popen([sys.executable, "-c", code, str(tree.resolve()), str(results)],
                            cwd=work, env=env, stdin=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps(steps))
    proc.stdin.close()
    return proc, results


def run_trees(trees: list[Path], steps: list[list[str]]) -> list[list[dict]]:
    """The records of `steps` on each tree, the trees run side by side."""
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        started = []
        for i, tree in enumerate(trees):
            scratch = Path(tmp) / str(i)
            scratch.mkdir()
            started.append(_start(tree, steps, scratch))
        codes = [proc.wait() for proc, _ in started]
        for code, tree in zip(codes, trees):
            if code != 0:
                raise RuntimeError(f"the run on {tree} exited {code}")
        return [json.loads(results.read_text()) for _, results in started]


# -- comparison --------------------------------------------------------------


def _moves(a, b, key: str, out: dict) -> None:
    """Record in `out` every difference of the JSON values a and b under
    `key`: numbers as [max abs move, max scaled move], others as a note."""
    number = (int, float)  # exact types: true and false are not numbers
    if type(a) in number and type(b) in number:
        if a == b or (a != a and b != b):
            return
        move = abs(a - b)
        if math.isnan(move):
            move = math.inf
        top = max(abs(a), abs(b))
        scaled = move / top if top > 0 and math.isfinite(top) else math.inf
        key = key or "(value)"
        prev = out.get(key, [0.0, 0.0])
        if isinstance(prev, list):
            out[key] = [max(prev[0], move), max(prev[1], scaled)]
    elif isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            sub = f"{key}.{k}" if key else k
            if k not in a or k not in b:
                out[sub] = f"only in {'B' if k not in a else 'A'}"
            else:
                _moves(a[k], b[k], sub, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _moves(x, y, f"{key}[]", out)
    elif a != b:
        out[key or "(value)"] = f"{_short(a)} -> {_short(b)}"


def _short(value) -> str:
    """`value` for the report, cut to SHORT characters."""
    text = json.dumps(value) if not isinstance(value, str) else repr(value)
    return text if len(text) <= SHORT else text[: SHORT - 3] + "..."


def _json_lines(text: str):
    try:
        return [json.loads(line) for line in text.splitlines()]
    except ValueError:
        return None


def _describe(name: str, a: str | None, b: str | None) -> list[str]:
    """Lines describing how output `name` differs between text a and b."""
    if a is None or b is None:
        return [f"  {name}: only in {'A' if b is None else 'B'}"]
    docs_a, docs_b = _json_lines(a), _json_lines(b)
    if docs_a is not None and docs_b is not None and len(docs_a) == len(docs_b):
        moves: dict = {}
        for x, y in zip(docs_a, docs_b):
            _moves(x, y, "", moves)
        if moves:
            return [f"  {name}: {key}: " + (
                f"abs {move[0]:.3g}, scaled {move[1]:.3g}" if isinstance(move, list) else move)
                for key, move in moves.items()]
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b)):
        if x != y:
            return [f"  {name} line {i + 1}: {_short(x)} -> {_short(y)}"]
    return [f"  {name}: {len(lines_a)} lines -> {len(lines_b)} lines"]


def compare(steps: list[list[str]], records_a: list[dict], records_b: list[dict]) -> list[str]:
    """The report lines of every step whose records differ; none if all agree."""
    report = []
    for i, (step, a, b) in enumerate(zip(steps, records_a, records_b)):
        if a == b:
            continue
        report.append(f"[{i}] {' '.join(step)}")
        if a["code"] != b["code"]:
            report.append(f"  exit {a['code']} -> {b['code']}")
        for stream in ("stdout", "stderr"):
            if a[stream] != b[stream]:
                report += _describe(stream, a[stream], b[stream])
        for name in sorted(a["files"].keys() | b["files"].keys()):
            x, y = a["files"].get(name), b["files"].get(name)
            if x != y:
                report += _describe(f"file {name}", x, y)
    return report


def _verdicts(record: dict) -> list:
    """Every `passed` value, at any depth, of the JSON lines that `record`
    printed or wrote, in a fixed order."""
    found, docs = [], []
    for text in (record["stdout"], record["stderr"], *record["files"].values()):
        docs += _json_lines(text) or []
    while docs:
        doc = docs.pop()
        if isinstance(doc, dict):
            found += [doc["passed"]] if "passed" in doc else []
            docs += doc.values()
        elif isinstance(doc, list):
            docs += doc
    return found


def verdict_moves(records_a: list[dict], records_b: list[dict]) -> tuple[int, int]:
    """The numbers of steps whose exit code differs and whose `passed`
    values differ."""
    pairs = list(zip(records_a, records_b))
    return (sum(a["code"] != b["code"] for a, b in pairs),
            sum(_verdicts(a) != _verdicts(b) for a, b in pairs))


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all((Path(t) / "src" / "gaussclone").is_dir() for t in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("each TREE must hold src/gaussclone", file=sys.stderr)
        return 2
    steps = corpus()
    start = time.perf_counter()
    records_a, records_b = run_trees([Path(t) for t in argv], steps)
    report = compare(steps, records_a, records_b)
    print("\n".join(report))
    differ = sum(line.startswith("[") for line in report)
    exits, verdicts = verdict_moves(records_a, records_b)
    print(f"{differ} of {len(steps)} commands differ, {exits} in exit code and {verdicts} in "
          f"a passed value ({time.perf_counter() - start:.1f} s for both trees)")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
