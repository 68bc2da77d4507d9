"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that another seed changes the inputs but not the metric names, and that a
feedforward circuit file with edited gains fails the simulate check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # sets the BLAS pins before numpy is imported
from workloads import WORKLOADS, rounds, simulate_op, simulate_prepare

TINY = {
    "pipeline-large-m": {"ms": (3, 5), "trials": 2, "trace_rounds": 1},
    "certify-scan-small-m": {"ms": (2, 4), "trials": 20, "trace_rounds": 1},
    "simulate-stream": {"shots": 4000, "shards": 2, "csv_shots": 50, "pool": 1,
                        "trace_rounds": 1},
}

failures = []


def expect(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def declared(section: str) -> dict[str, str]:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def emitted(name: str, seed: int, trace: bool) -> dict:
    _, result = run.run(name, seed, 0.01, trace, sizes=TINY[name], setup_repeats=1,
                        importtime_repeats=1)
    return result


def check_metrics():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json names the benchmark's workloads")
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        units = declared(section)
        for name in WORKLOADS:
            names = {}
            for seed in (1, 2):
                result = emitted(name, seed, trace)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(got == units and result["correct"] and result["failed"] == 0,
                       f"{name} trace={int(trace)} seed={seed}: every {section} metric "
                       "emitted with its unit, no failed operation")
                names[seed] = sorted(got)
            expect(names[1] == names[2], f"{name} trace={int(trace)}: same names for both seeds")


def check_seed_changes_inputs(workdir, runner):
    for name, workload in WORKLOADS.items():
        argvs = []
        for seed in (1, 2):
            base = workdir / f"{name}-{seed}"
            base.mkdir(parents=True)
            ctx = workload.prepare(base, seed, TINY[name], runner.prepare)
            _, ops = next(rounds(workload, seed, base / "rounds", ctx, TINY[name]))
            argvs.append([op.argv for op in ops])
        expect(argvs[0] != argvs[1], f"{name}: another seed gives other inputs")


def check_tampered_gains(workdir, runner):
    inputs = workdir / "tamper"
    inputs.mkdir(parents=True)
    sizes = {"shots": 20000, "shards": 1, "pool": 1}
    circuit = simulate_prepare(inputs, 7, sizes, runner.prepare)["weighted"][0]
    with open(circuit.path) as fh:
        doc = json.load(fh)
    doc["parameters"]["gains"] = [9.0] * len(doc["parameters"]["gains"])
    tampered = inputs / "tampered.json"
    with open(tampered, "w") as fh:
        json.dump(doc, fh)
    for path, should_fail in ((circuit.path, False), (tampered, True)):
        op = simulate_op(path, circuit.noises, 0.5 + 0.25j, sizes["shots"], 1, 3,
                         inputs / "summary.json")
        result = runner.execute(op)
        label = "tampered gains" if should_fail else "untouched circuit"
        expect((result.failed_layer == "simulate") == should_fail,
               f"{label}: simulate check {'fails' if should_fail else 'passes'}")


def main() -> int:
    check_metrics()
    workdir = run.OUT / f"selftest-{os.getpid()}"
    from gaussclone import cli  # importable once run.run has put src on sys.path

    try:
        with open(os.devnull, "w") as devnull:
            runner = run.Runner(cli, devnull)
            check_seed_changes_inputs(workdir, runner)
            check_tampered_gains(workdir, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
