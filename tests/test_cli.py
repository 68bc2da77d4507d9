import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gaussclone
from gaussclone import NoiseProfile, design_from_weights, residual, symmetric_profile
from gaussclone.circuits import feedforward_params, verify_circuit
from gaussclone.cli import (
    SCHEMA_VERSION,
    _dump_json,
    circuit_parameters,
    circuit_text,
    design_block,
    design_document,
    design_hash,
    load_circuit,
    load_design,
    main,
)

from conftest import FIXTURES, splitting_amplitudes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_design_symmetric(capsys, tmp_path):
    out = tmp_path / "design.json"
    code, stdout, _ = run_cli(
        capsys, "design", "--symmetric", "--n-in", "1", "--m-out", "2", "--out", str(out)
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["noises"] == [0.5, 0.5]
    assert doc["fidelities"][0] == pytest.approx(2 / 3)
    assert out.exists()


def test_design_weighted(capsys, tmp_path):
    out = tmp_path / "design.json"
    code, stdout, _ = run_cli(
        capsys, "design", "--weights", "1,1,1", "--n-in", "1", "--m-out", "3", "--out", str(out)
    )
    assert code == 0
    doc = json.loads(stdout)
    assert np.allclose(doc["noises"], 2 / 3, atol=1e-9)
    assert "lambda" in doc


def test_design_rejects_bad_weights(capsys):
    code, _, stderr = run_cli(capsys, "design", "--weights", "1,-1", "--n-in", "1", "--m-out", "2")
    assert code == 2
    assert "positive" in stderr


@pytest.mark.parametrize("weights", ["nan,1,2", "inf,1,2"])
def test_design_rejects_non_finite_weights(capsys, weights):
    code, stdout, stderr = run_cli(
        capsys, "design", "--weights", weights, "--n-in", "1", "--m-out", "3"
    )
    assert code == 2
    assert stdout == "" and "finite" in stderr


def test_design_at_extreme_weight_ratio(capsys):
    code, stdout, _ = run_cli(
        capsys, "design", "--weights", "1e-12,1,1", "--n-in", "2", "--m-out", "3"
    )
    assert code == 0
    assert abs(json.loads(stdout)["residual"]) <= 1e-9


def test_design_roundtrip_residual(capsys, tmp_path):
    """A written design reads back with the noises, weights and multiplier
    that the design solve returned, bit for bit, also at M = N + 1 and with
    one weight at 1e+-12."""
    out = tmp_path / "design.json"
    for text, n_in in (("1,2,3", 1), ("1,2,5", 2), ("1e12,1", 1), ("1,1e-12,1", 2)):
        values = [float(v) for v in text.split(",")]
        argv = ["--n-in", str(n_in), "--m-out", str(len(values)), "--out", str(out)]
        run_cli(capsys, "design", "--weights", text, *argv)
        profile, weights = load_design(str(out))
        doc = json.loads(out.read_text())
        assert residual(profile) == pytest.approx(doc["residual"], abs=1e-12)
        solved, expected = design_from_weights(values, n_in, len(values))
        assert profile.noises.tobytes() == solved.noises.tobytes(), text
        assert weights.weights.tobytes() == expected.weights.tobytes(), text
        assert weights.lagrange.hex() == expected.lagrange.hex(), text


def test_design_output_byte_stable(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "design", "--weights", "1,2", "--n-in", "1", "--m-out", "2", "--out", str(a))
    run_cli(capsys, "design", "--weights", "1,2", "--n-in", "1", "--m-out", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_documents_are_one_line_and_the_file_text_equals_stdout(capsys, tmp_path):
    design, circuit = tmp_path / "design.json", tmp_path / "circ.json"
    report, summary = tmp_path / "report.json", tmp_path / "summary.json"
    amplifier = tmp_path / "amplifier.json"
    commands = [
        (design, ["design", "--weights", "1,2,5", "--n-in", "1", "--m-out", "3", "--out"]),
        (amplifier, ["synth", "--design", str(design), "--scheme", "amplifier", "--out"]),
        (report, ["verify", "--circuit", str(amplifier), "--out"]),
        (circuit, ["synth", "--design", str(design), "--scheme", "feedforward", "--out"]),
        (report, ["verify", "--circuit", str(circuit), "--out"]),
        (report, ["certify", "--design", str(design), "--trials", "10", "--out"]),
        (summary, ["simulate", "--circuit", str(circuit), "--shots", "10", "--summary-out"]),
    ]
    for path, argv in commands:
        code, stdout, stderr = run_cli(capsys, *argv, str(path))
        assert code == 0, argv[0]
        assert path.read_text() == stdout
        assert stdout.endswith("\n") and stdout.count("\n") == 1
        if argv[0] == "synth":
            assert stderr.count("\n") == 1 and json.loads(stderr)["invariants"]["passed"]


def test_circuit_document_round_trips_floats_exactly(tmp_path):
    profile = symmetric_profile(1, 2)
    circ, _ = verify_circuit(profile, "feedforward")
    doc = json.loads(circuit_text(profile, "feedforward", circ))
    values = [0.1, 1e-300, 5e-324, -0.0, 2.0**53 + 2, math.inf]
    doc["parameters"]["gains"] = values
    path = tmp_path / "circ.json"
    text = _dump_json(doc, str(path))
    assert "Infinity" in text
    loaded = json.loads(path.read_text())["parameters"]["gains"]
    assert list(map(float.hex, loaded)) == list(map(float.hex, values))


def dict_circuit_text(profile, scheme, circ):
    """`json.dumps` of the circuit document as a dict of its
    `circuit_parameters` and an amplifier's flattened V and kappa, as
    earlier releases wrote it: the oracle for `circuit_text`."""
    params = circuit_parameters(scheme, circ)
    if scheme == "amplifier":
        params.update(V=circ.V.ravel(), kappa=circ.kappa.ravel())
    return json.dumps({
        "schema_version": SCHEMA_VERSION,
        "scheme": scheme,
        "design": design_block(profile),
        "provenance": {"design_sha256": design_hash(profile)},
        "parameters": {
            k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in params.items()
        },
    })


def test_circuit_text_is_the_dict_documents_text():
    rng = np.random.default_rng(20)
    profiles = [design_from_weights([1.0, 3.0], 1, 2)[0], symmetric_profile(2, 7)]
    profiles += [load_circuit(str(path))[1] for path in sorted(FIXTURES.glob("*.amplifier.json"))]
    profiles += [design_from_weights(rng.uniform(0.1, 10.0, m), 2, m)[0] for m in (50, 200)]
    kinds = set()
    for profile in profiles:
        for scheme in ("feedforward", "amplifier"):
            circ, _ = verify_circuit(profile, scheme)
            text = circuit_text(profile, scheme, circ)
            assert text == dict_circuit_text(profile, scheme, circ), (profile, scheme)
        params = json.loads(text)["parameters"]
        assert np.array(params["V"]).tobytes() == circ.V.tobytes()
        assert np.array(params["kappa"]).tobytes() == circ.kappa.tobytes()
        kinds.add((circ.kappa.shape[1] == 1, circ.t == 1.0))
    # kappa with one column, and the symmetric t = 1 design
    assert (True, False) in kinds and (False, True) in kinds


def test_circuit_text_writes_non_finite_and_signed_values_as_json_does():
    v = np.array([[np.inf, -0.0, 5e-324], [np.nan, 0.1, -np.inf], [1.0, 2.0**53 + 2, -1e-300]])
    kappa = v[:, :2].copy()
    kappa[:, 0] = [-np.inf, np.nan, -0.0]
    circ = argparse.Namespace(t=0.5, g=np.float64(1.5), V=v, kappa=kappa)
    profile = symmetric_profile(1, 3)
    text = circuit_text(profile, "amplifier", circ)
    assert text == dict_circuit_text(profile, "amplifier", circ)
    assert "NaN" in text and "-Infinity" in text and "-0.0" in text


def test_solve_command(capsys):
    code, stdout, _ = run_cli(capsys, "solve", "--noises", "0.5,0.5", "--n-in", "1", "--m-out", "3")
    assert code == 0
    assert "optimal n_M = 2" in stdout

    code, stdout, _ = run_cli(capsys, "solve", "--noises", "0.5", "--n-in", "1", "--m-out", "2")
    assert code == 0
    assert "optimal n_M = 0.5" in stdout


def test_solve_prints_the_suboptimal_root(capsys):
    # (1, 1, 11.657) is on the surface too, but off the optimal sheet: its
    # last clone's amplitude S - (M - N) sqrt(n_3) is -sqrt(2)
    code, stdout, _ = run_cli(capsys, "solve", "--noises", "1,1", "--n-in", "1", "--m-out", "3")
    assert code == 0
    assert stdout == (
        "optimal n_M = 0.343145750508\n"
        "other root  = 11.6568542495  (on-surface but suboptimal)\n"
    )


# on the surface but off its optimal sheet, where a clone's amplitude
# S - (M - N) sqrt(n_j) is negative: the completion that
# `solve --noises 12.9086,0.1548 --n-in 1 --m-out 3` once printed as optimal,
# which `design --weights 0.43,8.3,0.36` beats on every clone, and the other
# root of `solve --noises 1,1 --n-in 1 --m-out 3`
OFF_SHEET = {
    "dominated": [12.9086, 0.1548, 4.3042012083344074],
    "other-root": [1.0, 1.0, 11.65685424949238],
}


@pytest.mark.parametrize("name", [*OFF_SHEET, "dominating"])
def test_both_schemes_and_certify_refuse_the_same_profiles(capsys, tmp_path, name):
    # the amplifier scheme once built the off-sheet profiles, which the
    # feedforward scheme and `certify` refused with messages of their own;
    # the design documents store no weights, so `certify` derives them
    design = tmp_path / "design.json"
    if name in OFF_SHEET:
        profile = NoiseProfile(1, 3, np.array(OFF_SHEET[name]))
        design.write_text(json.dumps(design_document(profile)))
    else:
        argv = ["--weights", "0.43,8.3,0.36", "--n-in", "1", "--m-out", "3", "--out", str(design)]
        assert run_cli(capsys, "design", *argv)[0] == 0
        assert np.all(json.loads(design.read_text())["noises"] < np.array(OFF_SHEET["dominated"]))
    want = 2 if name in OFF_SHEET else 0
    errors = []
    for scheme in ("amplifier", "feedforward"):
        code, _, stderr = run_cli(capsys, "synth", "--design", str(design), "--scheme", scheme)
        assert code == want, (scheme, stderr)
        errors.append(stderr)
    code, _, stderr = run_cli(capsys, "certify", "--design", str(design), "--trials", "5")
    assert code == want, stderr
    if want:
        assert errors[0] == errors[1] == stderr
        assert re.fullmatch(r"error: clone amplitude .* off the optimal sheet\n", errors[0])


@pytest.mark.parametrize("noises, n_in, m_out", [("1,1,1", 2, 4), ("12.9086,0.1548", 1, 3)])
def test_solve_refuses_a_dominated_completion(capsys, noises, n_in, m_out):
    # both once printed an optimal n_M (37.97 and 4.304) whose profile has a
    # clone of negative amplitude; (1, 1, 1, 0) is reachable, one replica
    # passing through and the other cloned 1 -> 3 with n = 2/3 <= 1
    code, stdout, _ = run_cli(capsys, "solve", "--noises", noises, "--n-in", str(n_in),
                              "--m-out", str(m_out))
    assert code == 2 and stdout.startswith("infeasible: ")


def test_solve_infeasible(capsys):
    code, stdout, _ = run_cli(
        capsys, "solve", "--noises", "0.1667,0.1667", "--n-in", "1", "--m-out", "3"
    )
    assert code == 2
    assert "infeasible" in stdout


@pytest.mark.parametrize("noises", ["nan,0.5", "0.5,inf", "-0.1,0.5"])
def test_solve_rejects_non_finite_or_negative_noises(capsys, noises):
    # a NaN used to fall through to "infeasible: no non-negative completion"
    argv = ["--n-in", "1", "--m-out", "3"]
    code, stdout, stderr = run_cli(capsys, "solve", f"--noises={noises}", *argv)
    assert code == 2 and stdout == ""
    assert stderr == "error: thermal noises must be finite and non-negative\n"


def test_a_list_whose_first_value_is_negative_is_an_options_value(capsys, tmp_path):
    # argparse took "-1,1" for an unknown option: "expected one argument"
    code, stdout, stderr = run_cli(
        capsys, "solve", "--noises", "-1,1", "--n-in", "1", "--m-out", "3"
    )
    assert code == 2 and stdout == ""
    assert stderr == "error: thermal noises must be finite and non-negative\n"
    code, stdout, stderr = run_cli(
        capsys, "design", "--weights", "-1,2", "--n-in", "1", "--m-out", "2"
    )
    assert code == 2 and stdout == ""
    assert stderr == "error: all cost weights must be finite and strictly positive\n"
    circuit = str(make_circuit(capsys, tmp_path, "feedforward"))
    runs = [run_cli(capsys, "simulate", "--circuit", circuit, *alpha, "--shots", "10")
            for alpha in (["--alpha", "-0.3,0.2"], ["--alpha=-0.3,0.2"])]
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_a_list_whose_first_value_is_a_negative_non_number_is_an_options_value(
    capsys, tmp_path
):
    # argparse took "-inf,1" for an unknown option: "expected one argument"
    for inf in ("-inf", "-INF", "-Infinity"):
        code, stdout, stderr = run_cli(
            capsys, "design", "--weights", f"{inf},1", "--n-in", "1", "--m-out", "2"
        )
        assert (code, stdout) == (2, "")
        assert stderr == "error: all cost weights must be finite and strictly positive\n"
    for nan in ("-nan", "-NaN"):
        code, stdout, stderr = run_cli(
            capsys, "solve", "--noises", f"{nan},1", "--n-in", "1", "--m-out", "3"
        )
        assert (code, stdout) == (2, "")
        assert stderr == "error: thermal noises must be finite and non-negative\n"
    circuit = str(make_circuit(capsys, tmp_path, "feedforward"))
    code, stdout, stderr = run_cli(
        capsys, "simulate", "--circuit", circuit, "--alpha", "-inf,0", "--shots", "10"
    )
    assert (code, stdout) == (2, "") and "input amplitude must be finite" in stderr
    # options and help still parse as options
    code, stdout, _ = run_cli(capsys, "solve", "-h")
    assert code == 0 and "--noises" in stdout
    code, _, stderr = run_cli(capsys, "solve", "--noises", "--n-in", "1", "--m-out", "3")
    assert code == 2 and "expected one argument" in stderr


def test_simulate_names_alpha_when_it_is_not_two_numbers(capsys, tmp_path):
    circuit = str(make_circuit(capsys, tmp_path, "feedforward"))
    for alpha in ("1", "1,2,3"):
        code, stdout, stderr = run_cli(
            capsys, "simulate", "--circuit", circuit, "--alpha", alpha, "--shots", "10"
        )
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: --alpha ") and "re,im" in stderr


def test_design_exits_0_or_2_on_any_finite_positive_weights(capsys):
    # from the least subnormal to the largest double, pairs and triples; a
    # failed solve is a message, not a traceback
    values = ["5e-324", "1e-300", "1e-200", "1e-100", "1e-12", "1", "1e12", "1e100", "1e200",
              "1e300", "1.7976931348623157e308"]
    cases = [[a, b] for a in values for b in values]
    cases += [[a, "1", b] for a in values for b in values[::2]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for weights in cases:
            for n_in in range(1, len(weights)):
                argv = ["--n-in", str(n_in), "--m-out", str(len(weights))]
                code, stdout, stderr = run_cli(
                    capsys, "design", "--weights", ",".join(weights), *argv
                )
                assert code in (0, 2), weights
                if code == 2:
                    assert stdout == "" and stderr.startswith("error: "), weights


def test_synth_verify_cycle(capsys, tmp_path):
    # the symmetric 1->13 design and equal weights used to fail synth: their
    # transmittance rounds to just below 1
    design = tmp_path / "design.json"
    for spec in (["--symmetric", "--m-out", "2"], ["--symmetric", "--m-out", "13"],
                 ["--weights", "1,1,1", "--m-out", "3"]):
        run_cli(capsys, "design", *spec, "--n-in", "1", "--out", str(design))
        for scheme in ("amplifier", "feedforward"):
            circuit = tmp_path / f"{scheme}.json"
            code, stdout, _ = run_cli(
                capsys, "synth", "--design", str(design), "--scheme", scheme, "--out", str(circuit)
            )
            assert code == 0, spec
            doc, profile, _, _ = load_circuit(str(circuit))
            assert doc["scheme"] == scheme
            assert "design_sha256" in doc["provenance"]
            code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
            assert code == 0
            assert json.loads(stdout)["passed"]
        code, _, _ = run_cli(capsys, "simulate", "--circuit", str(circuit), "--shots", "1000")
        assert code == 0


def test_amplifier_document_stores_exact_zeros_off_the_tree_blocks(capsys, tmp_path):
    m = 200
    weights = ",".join(repr(float(w)) for w in np.random.default_rng(41).uniform(0.1, 10.0, m))
    design, circuit = tmp_path / "design.json", tmp_path / "circ.json"
    run_cli(capsys, "design", "--weights", weights, "--n-in", "2", "--m-out", str(m),
            "--out", str(design))
    code, _, _ = run_cli(
        capsys, "synth", "--design", str(design), "--scheme", "amplifier", "--out", str(circuit)
    )
    assert code == 0
    text = circuit.read_text()
    params = json.loads(text)["parameters"]
    assert len(params["V"]) == m * m and len(params["kappa"]) == m * (m - 1)
    # each completion column of V, and of kappa, is zero off its tree block:
    # 92% of the entries here, all written as 0.0, none as -0.0
    assert params["V"].count(0.0) >= 0.9 * m * m
    assert params["kappa"].count(0.0) >= 0.9 * m * (m - 1)
    assert re.search(r"-0\.0[,\]]", text) is None
    assert circuit.stat().st_size < 0.6e6
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
    report = json.loads(stdout)
    assert code == 0 and report["passed"] and report["unitarity_residual"] <= 1e-14


def test_synth_and_verify_pass_the_design_whose_gram_schmidt_completion_failed(capsys, tmp_path):
    # N = 1, M = 50, the weights of design 4 of timed round 79 of the
    # pipeline-large-m benchmark at seed 116, drawn uniform in [0.1, 10] from
    # default_rng(116).  A Gram-Schmidt completion of V kept a candidate with
    # little of it left, and synth refused its own V: unitarity residual 6.1e-10
    design = FIXTURES / "designs" / "seed116_1to50.design.json"
    circuit = tmp_path / "circ.json"
    code, _, stderr = run_cli(
        capsys, "synth", "--design", str(design), "--scheme", "amplifier", "--out", str(circuit)
    )
    invariants = json.loads(stderr)["invariants"]
    assert code == 0 and invariants["passed"] and invariants["unitarity_residual"] <= 1e-14
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
    report = json.loads(stdout)
    assert code == 0 and report["passed"] and report["unitarity_residual"] <= 1e-14


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_earlier_circuit_documents_still_verify(capsys, name):
    circuit = str(FIXTURES / name)
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", circuit)
    report = json.loads(stdout)
    assert code == 0 and report["passed"]
    assert report["mean_residual"] <= 1e-12
    if name.endswith(".feedforward.json"):
        # written before documents stored the splitting fractions: they are
        # the splitter chain of the stored reflectances, the rebuilt ones to
        # an ulp, and the chain matches itself exactly
        _, profile, circ, _ = load_circuit(circuit)
        assert np.array_equal(circ.splitting, splitting_amplitudes(circ))
        assert np.max(np.abs(circ.splitting - feedforward_params(profile).splitting)) <= 2.3e-16
        assert report["reflectance_residual"] <= 2.3e-16
        code, _, _ = run_cli(capsys, "simulate", "--circuit", circuit, "--shots", "1000")
        assert code == 0


def test_near_symmetric_amplifier_document_from_before_the_lacking_amplitude_verifies(capsys):
    # written, with its design, by a release that left out the amplitude each
    # clone lacks after the amplifier when t rounded to 1.  Here that is
    # 2.5e-13 of the input amplitude: the channel its numbers make is the
    # design's to rounding, though its v_1 is another than synth now writes
    stale = FIXTURES / "stale" / "near_symmetric_1to2.amplifier.json"
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(stale))
    report = json.loads(stdout)
    assert code == 0 and report["passed"] and report["design_hash_matches"]
    assert report["mean_residual"] == pytest.approx(2.5e-13, rel=0.01)


def test_amplifier_document_that_leaves_out_the_lacking_amplitude_fails(capsys, tmp_path):
    # the same release's document of a design where each clone lacks about
    # 1.4e-8 of the input amplitude after the amplifier: kappa_1 = t v_1,
    # without the tap's -g r v_M, and the clone means miss by r v_1
    design, circuit = tmp_path / "design.json", tmp_path / "amp.json"
    run_cli(capsys, "design", "--weights", "1,1.00000004", "--n-in", "1", "--m-out", "2",
            "--out", str(design))
    argv = ["synth", "--design", str(design), "--scheme", "amplifier", "--out", str(circuit)]
    assert run_cli(capsys, *argv)[0] == 0
    doc = json.loads(circuit.read_text())
    params = doc["parameters"]
    params["kappa"] = [params["t"] * params["V"][0], params["t"] * params["V"][2]]
    circuit.write_text(json.dumps(doc))
    code, stdout, stderr = run_cli(capsys, "verify", "--circuit", str(circuit))
    report = json.loads(stdout)
    assert code == 3 and stderr == "" and not report["passed"] and report["design_hash_matches"]
    assert report["mean_residual"] == pytest.approx(1e-8, rel=0.05)


def test_synth_rejects_missing_file(capsys, tmp_path):
    code, _, stderr = run_cli(
        capsys, "synth", "--design", str(tmp_path / "nope.json"), "--scheme", "amplifier"
    )
    assert code == 2


@pytest.mark.parametrize("scheme", ["amplifier", "feedforward"])
def test_verify_fails_on_tampered_circuit(capsys, tmp_path, scheme):
    design = tmp_path / "design.json"
    circuit = tmp_path / "circ.json"
    run_cli(capsys, "design", "--symmetric", "--n-in", "1", "--m-out", "2", "--out", str(design))
    run_cli(capsys, "synth", "--design", str(design), "--scheme", scheme, "--out", str(circuit))
    doc = json.loads(circuit.read_text())
    doc["design"]["noises"] = [0.5, 1.0]  # off the optimal surface
    circuit.write_text(json.dumps(doc))
    for command in ("verify", "simulate --shots 10"):
        code, stdout, stderr = run_cli(capsys, *command.split(), "--circuit", str(circuit))
        # precondition failure: profile off-surface, whatever the stored numbers
        assert (code, stdout) == (2, "") and "profile residual" in stderr


def test_amplifier_document_at_m_equal_n_exits_2(capsys, tmp_path):
    # its kappa would have no column; the verdict refuses the size, as synth does
    profile = NoiseProfile(1, 1, np.zeros(1))
    circuit = tmp_path / "circ.json"
    circuit.write_text(json.dumps({
        "schema_version": SCHEMA_VERSION, "scheme": "amplifier", "design": design_block(profile),
        "provenance": {"design_sha256": design_hash(profile)},
        "parameters": {"t": 1.0, "g": 1.0, "V": [1.0], "kappa": []},
    }))
    code, stdout, stderr = run_cli(capsys, "verify", "--circuit", str(circuit))
    assert (code, stdout, stderr) == (2, "", "error: amplifier scheme requires M > N\n")


def make_circuit(capsys, tmp_path, scheme):
    design = tmp_path / "design.json"
    circuit = tmp_path / f"{scheme}.json"
    argv = ["design", "--weights", "1,2,5", "--n-in", "1", "--m-out", "3", "--out", str(design)]
    run_cli(capsys, *argv)
    code, _, _ = run_cli(
        capsys, "synth", "--design", str(design), "--scheme", scheme, "--out", str(circuit)
    )
    assert code == 0
    return circuit


def test_verify_reports_stored_parameter_margins(capsys, tmp_path):
    # the report is the verdict on the stored numbers, and the design hash
    for scheme in ("amplifier", "feedforward"):
        circuit = make_circuit(capsys, tmp_path, scheme)
        code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
        report = json.loads(stdout)
        assert code == 0 and report["passed"] and report["design_hash_matches"]
        profile = load_design(str(tmp_path / "design.json"))[0]
        checks = verify_circuit(profile, scheme)[1]
        assert report == {"scheme": scheme, **checks, "design_hash_matches": True}
        assert report["mean_residual"] <= 1e-15
        assert report.get("reflectance_residual", 0.0) <= 1e-15


# each edit returns the report key of the check that sees it
def edit_gains_and_tap(doc):
    doc["parameters"]["gains"] = [9.0] * len(doc["parameters"]["gains"])
    doc["parameters"]["r_tap"] = 0.01
    return "gain_noise_residual"


def edit_hash(doc):
    doc["provenance"]["design_sha256"] = "0" * 64
    return "design_hash_matches"


def drop_reflectance(doc):
    doc["parameters"]["reflectances"] = doc["parameters"]["reflectances"][:-1]
    return "reflectance_residual"


def splitting_off_chain(doc):
    # splitters that reflect 1e-6 more than make the stored fractions: the
    # fractions, and so the clone means, are the design's, the splitters not
    params = doc["parameters"]
    params["reflectances"] = [r * (1.0 + 1e-6) for r in params["reflectances"]]
    return "reflectance_residual"


def extra_key(doc):
    doc["parameters"]["offset"] = 0.0
    return "mean_residual"


@pytest.mark.parametrize(
    "edit", [edit_gains_and_tap, edit_hash, drop_reflectance, splitting_off_chain, extra_key]
)
def test_verify_and_simulate_reject_edited_feedforward_circuit(capsys, tmp_path, edit):
    circuit = make_circuit(capsys, tmp_path, "feedforward")
    doc = json.loads(circuit.read_text())
    key = edit(doc)
    circuit.write_text(json.dumps(doc))
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
    report = json.loads(stdout)
    assert code == 3 and not report["passed"]
    # the check that sees the edit fails: a flag reads false, a residual
    # exceeds TOL = 1e-9 of its scale (at most max n_j = 2.6 here) or is NaN
    assert report[key] is False or not report[key] <= 3e-9
    code, stdout, stderr = run_cli(
        capsys, "simulate", "--circuit", str(circuit), "--shots", "10", "--seed", "0"
    )
    assert code == 3
    assert stdout == "" and "does not match its design" in stderr
    assert json.loads(stderr.split(": ", 2)[2]) == report


def test_simulate_refuses_every_document_that_verify_refuses(capsys, tmp_path):
    # the stored splitting fractions 1e-6 short: the design hash, the gains
    # and the reflectances are the design's, the clone means are not
    circuit = make_circuit(capsys, tmp_path, "feedforward")
    doc = json.loads(circuit.read_text())
    doc["parameters"]["splitting"] = [d * (1.0 - 1e-6) for d in doc["parameters"]["splitting"]]
    circuit.write_text(json.dumps(doc))
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
    report = json.loads(stdout)
    assert code == 3 and not report["passed"] and report["design_hash_matches"]
    assert report["mean_residual"] > 1e-7 and report["gain_noise_residual"] <= 1e-15
    code, stdout, stderr = run_cli(capsys, "simulate", "--circuit", str(circuit), "--shots", "10")
    assert (code, stdout) == (3, "")
    assert json.loads(stderr.split(": ", 2)[2]) == report


# designs (N, M, weights): the last three have a splitter reflectance within
# 5e-13 of 1, where fractions multiplied down the chain lose half their digits
ROUND_TRIP_DESIGNS = [
    (1, 3, [1.0, 2.0, 5.0]), (2, 6, [1.0, 2.0, 5.0, 3.0, 4.0, 6.0]),
    (1, 5, [1.0, 1.0, 1.0, 1.0, 1e-8]), (1, 20, [1.0] * 19 + [1e-12]), (1, 20, [1e12] + [1.0] * 19),
]


@pytest.mark.parametrize("n_in, m_out, weights", ROUND_TRIP_DESIGNS)
def test_feedforward_document_loads_as_the_circuit_synth_built(capsys, tmp_path, n_in, m_out,
                                                              weights):
    # bit for bit, so simulate runs a new document as it ran the rebuilt circuit
    profile = design_from_weights(weights, n_in, m_out)[0]
    built, checks = verify_circuit(profile, "feedforward")
    path = tmp_path / "ff.json"
    path.write_text(circuit_text(profile, "feedforward", built))
    _, loaded_profile, circ, report = load_circuit(str(path))
    assert loaded_profile.noises.tobytes() == profile.noises.tobytes()
    assert circ.r_tap == feedforward_params(profile).r_tap
    for key in ("gains", "reflectances", "splitting"):
        assert getattr(circ, key).tobytes() == getattr(feedforward_params(profile), key).tobytes()
    assert report == {"scheme": "feedforward", **checks, "design_hash_matches": True}
    assert report["passed"] and report["reflectance_residual"] <= 4.5e-16


def test_verify_and_simulate_build_no_circuit_from_the_design(capsys, tmp_path, monkeypatch):
    circuits = [make_circuit(capsys, tmp_path, scheme) for scheme in ("amplifier", "feedforward")]
    circuits += [FIXTURES / "random_1to4.amplifier.json", FIXTURES / "random_1to4.feedforward.json"]

    def refuse(*_):
        raise AssertionError("a circuit was built from the document's design")

    for name in ("feedforward_params", "build_interferometer", "gain_and_transmittance"):
        monkeypatch.setattr(f"gaussclone.circuits.{name}", refuse)
    monkeypatch.setattr("gaussclone.simulate.feedforward_params", refuse)
    for circuit in circuits:
        code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
        assert code == 0 and json.loads(stdout)["passed"], circuit
        if circuit.name.endswith("feedforward.json"):
            code, _, _ = run_cli(capsys, "simulate", "--circuit", str(circuit), "--shots", "100")
            assert code == 0, circuit


def test_feedforward_document_phase_convention(capsys, tmp_path):
    circuit = make_circuit(capsys, tmp_path, "feedforward")
    doc = json.loads(circuit.read_text())
    assert "phase_convention" not in doc["parameters"]
    simulate = ["simulate", "--circuit", str(circuit), "--shots", "10", "--seed", "0"]
    # documents that name the one convention the circuit uses still load
    doc["parameters"]["phase_convention"] = "outcome"
    circuit.write_text(json.dumps(doc))
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
    assert code == 0 and json.loads(stdout)["passed"]
    code, stdout, _ = run_cli(capsys, *simulate)
    assert code == 0 and json.loads(stdout)["shots_used"] == 10
    doc["parameters"]["phase_convention"] = "conjugate"
    circuit.write_text(json.dumps(doc))
    for argv in (["verify", "--circuit", str(circuit)], simulate):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 2
        assert stdout == "" and "phase convention 'conjugate'" in stderr


def test_verify_rejects_edited_amplifier_circuit(capsys, tmp_path):
    circuit = make_circuit(capsys, tmp_path, "amplifier")
    doc = json.loads(circuit.read_text())
    doc["parameters"]["g"] *= 1.0 + 1e-6
    circuit.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit), "--out", str(out))
    report = json.loads(stdout)
    assert code == 3
    assert out.read_text() == stdout and not report["passed"]
    assert report["g_opt_residual"] > 1e-7 and report["design_hash_matches"]


def edit_completion(circuit, change):
    """Apply `change` to the M x M matrix V of the amplifier document at
    `circuit`, write kappa's columns 2 to M - 1 as V's new ones, and return
    the stored V."""
    doc = json.loads(circuit.read_text())
    m = doc["design"]["M"]
    v = np.array(doc["parameters"]["V"]).reshape(m, m)
    change(v)
    kappa = np.array(doc["parameters"]["kappa"]).reshape(m, m - 1)
    kappa[:, 1:] = v[:, 1 : m - 1]
    doc["parameters"].update(V=v.ravel().tolist(), kappa=kappa.ravel().tolist())
    circuit.write_text(json.dumps(doc))
    return np.array(json.loads(circuit.read_text())["parameters"]["V"]).reshape(m, m)


def six_clone_amplifier(capsys, tmp_path):
    design, circuit = tmp_path / "design.json", tmp_path / "amp.json"
    run_cli(capsys, "design", "--weights", "1,2,5,3,4,6", "--n-in", "2", "--m-out", "6",
            "--out", str(design))
    code, _, _ = run_cli(
        capsys, "synth", "--design", str(design), "--scheme", "amplifier", "--out", str(circuit)
    )
    assert code == 0
    return circuit


def test_verify_accepts_any_orthogonal_completion_of_v(capsys, tmp_path):
    circuit = six_clone_amplifier(capsys, tmp_path)
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
    plain = json.loads(stdout)
    assert code == 0

    def turn(v):  # a Givens rotation of the completion columns 2 and 3
        c, s = np.cos(0.7), np.sin(0.7)
        v[:, 1:3] = v[:, 1:3] @ np.array([[c, -s], [s, c]])

    edit_completion(circuit, turn)
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
    report = json.loads(stdout)
    assert code == 0 and report["passed"]
    assert report["unitarity_residual"] < 1e-14 and report["kappa_gram_residual"] < 1e-14
    # the channel and its CP margin come from the two live columns alone
    for key in ("g_opt_residual", "cp_min_eigenvalue", "transmittance"):
        assert report[key] == plain[key], key


def test_verify_checks_the_stored_v_for_orthogonality(capsys, tmp_path):
    circuit = six_clone_amplifier(capsys, tmp_path)

    def stretch(v):
        v[:, 2] *= 1.01

    v = edit_completion(circuit, stretch)
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
    report = json.loads(stdout)
    assert code == 3 and not report["passed"]
    # kappa still repeats V, and the live columns make the design's channel
    assert report["mean_residual"] < 1e-14 and report["g_opt_residual"] < 1e-14
    unitarity = float(np.max(np.abs(v.T @ v - np.eye(6))))
    assert report["unitarity_residual"] == unitarity and unitarity > 1e-9


def test_verify_holds_kappa_to_the_stored_v(capsys, tmp_path):
    # kappa's columns 2 and 3 turned alone: kappa kappa^T and V are as they
    # were, but kappa no longer repeats V's columns
    circuit = six_clone_amplifier(capsys, tmp_path)
    doc = json.loads(circuit.read_text())
    kappa = np.array(doc["parameters"]["kappa"]).reshape(6, 5)
    c, s = np.cos(0.7), np.sin(0.7)
    kappa[:, 1:3] = kappa[:, 1:3] @ np.array([[c, -s], [s, c]])
    doc["parameters"]["kappa"] = kappa.ravel().tolist()
    circuit.write_text(json.dumps(doc))
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
    report = json.loads(stdout)
    assert code == 3 and report["mean_residual"] < 1e-14 and report["unitarity_residual"] < 1e-14
    assert report["kappa_gram_residual"] > 0.1


def v_one_short(params):
    params["V"] = params["V"][:-1]


def kappa_one_long(params):
    params["kappa"] = params["kappa"] + [0.0]


def nan_in_v(params):
    params["V"][4] = math.nan


def infinite_t(params):
    params["t"] = math.inf


@pytest.mark.parametrize("edit", [v_one_short, kappa_one_long, nan_in_v, infinite_t])
def test_verify_fails_malformed_amplifier_arrays(capsys, tmp_path, edit):
    circuit = make_circuit(capsys, tmp_path, "amplifier")
    doc = json.loads(circuit.read_text())
    edit(doc["parameters"])
    circuit.write_text(json.dumps(doc))
    with warnings.catch_warnings():  # the verdicts read the stored inf and NaN silently
        warnings.simplefilter("error")
        code, stdout, stderr = run_cli(capsys, "verify", "--circuit", str(circuit))
    report = json.loads(stdout)
    assert code == 3 and stderr == "" and not report["passed"]
    # the malformed array reads as NaN, or t as inf: a residual is not finite
    assert not all(math.isfinite(v) for k, v in report.items() if k.endswith("_residual"))


def params_as_list(doc):
    doc["parameters"] = list(doc["parameters"].values())


def design_as_list(doc):
    doc["design"] = [doc["design"]]


def noises_as_strings(doc):
    doc["design"]["noises"] = [str(v) for v in doc["design"]["noises"]]


def without_design(doc):
    del doc["design"]


def gains_as_objects(doc):
    doc["parameters"]["gains"] = [{"value": v} for v in doc["parameters"]["gains"]]


@pytest.mark.parametrize(
    "edit", [params_as_list, design_as_list, noises_as_strings, without_design, gains_as_objects]
)
def test_verify_rejects_malformed_circuit_document(capsys, tmp_path, edit):
    circuit = make_circuit(capsys, tmp_path, "feedforward")
    doc = json.loads(circuit.read_text())
    edit(doc)
    circuit.write_text(json.dumps(doc))
    for argv in (["verify"], ["simulate", "--shots", "10"]):
        code, stdout, stderr = run_cli(capsys, *argv, "--circuit", str(circuit))
        assert code == 2 and stdout == "" and stderr.startswith("error: circuit")


def weights_as_string(doc):
    doc["weights"] = "1,2,5"


def n_in_as_float(doc):
    doc["N"] = 1.5


def lambda_as_list(doc):
    doc["lambda"] = [doc["lambda"]]


def without_residual(doc):
    del doc["residual"]


def one_weight_too_many(doc):
    doc["weights"].append(3.0)


def lambda_without_weights(doc):
    del doc["weights"]
    doc["lambda"] = -5.0


def weights_without_lambda(doc):
    # rejected, not replaced by the weights for which the profile is extremal
    del doc["lambda"]
    doc["weights"] = [7.0, 7.0, 7.0]


def fidelities_edited(doc):
    # nothing else reads them, so only the check on read catches the edit
    doc["fidelities"] = [0.99] * len(doc["fidelities"])


@pytest.mark.parametrize(
    "edit", [weights_as_string, n_in_as_float, lambda_as_list, without_residual,
             one_weight_too_many, lambda_without_weights, weights_without_lambda,
             fidelities_edited]
)
def test_certify_and_synth_reject_malformed_design_document(capsys, tmp_path, edit):
    design = tmp_path / "design.json"
    argv = ["design", "--weights", "1,2,5", "--n-in", "1", "--m-out", "3", "--out", str(design)]
    run_cli(capsys, *argv)
    doc = json.loads(design.read_text())
    edit(doc)
    design.write_text(json.dumps(doc))
    for argv in (["certify", "--trials", "10"], ["synth", "--scheme", "amplifier"]):
        code, stdout, stderr = run_cli(capsys, *argv, "--design", str(design))
        assert code == 2 and stdout == "" and stderr.startswith("error: design document")


@pytest.mark.parametrize("lam", [0.0, 2.0, math.nan, -math.inf])
def test_certify_and_synth_reject_a_non_negative_or_non_finite_multiplier(capsys, tmp_path, lam):
    design = tmp_path / "design.json"
    argv = ["design", "--weights", "1,2,5", "--n-in", "1", "--m-out", "3", "--out", str(design)]
    run_cli(capsys, *argv)
    doc = json.loads(design.read_text())
    doc["lambda"] = lam
    design.write_text(json.dumps(doc))
    for argv in (["certify", "--trials", "10"], ["synth", "--scheme", "feedforward"]):
        code, stdout, stderr = run_cli(capsys, *argv, "--design", str(design))
        assert code == 2 and stdout == "" and stderr.startswith("error: invalid multiplier")


@pytest.mark.parametrize(
    "argv", [["verify", "--circuit"], ["simulate", "--shots", "10", "--circuit"],
             ["certify", "--design"], ["synth", "--scheme", "amplifier", "--design"]]
)
def test_commands_reject_a_document_that_is_not_an_object(capsys, tmp_path, argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps([{"schema_version": 1}]))
    code, stdout, stderr = run_cli(capsys, *argv, str(path))
    assert code == 2 and stdout == "" and "must be a JSON object" in stderr


def test_design_and_certify_with_one_huge_weight(capsys, tmp_path):
    # at M = 200 and a weight of 1e11 the CP margin reads about -2e-9 and,
    # with the weight first, the two schemes' covariances differ by 1.2e-9:
    # rounding on entries of size 2.2e4, which absolute 1e-9 bounds rejected;
    # at 3.2e11 first the certificate's normalization residual reads 1.2e-9,
    # rounding on S^2 / (M - N) = 4.0e6; at 1e12 the duality gap reads 0.067
    # on a cost of 5.6e7, rounding on |cost| S^2 / (M - N) = 4.0e14, which a
    # bound on |cost| alone rejected
    design = tmp_path / "design.json"
    circuit = tmp_path / "circ.json"
    huge = (
        ["1e9"] + ["1"] * 50,
        ["1"] * 50 + ["1e11"],
        ["1e11"] + ["1"] * 199,
        ["1"] * 199 + ["1e11"],
        ["3.2e11"] + ["1"] * 199,
        ["1e12"] + ["1"] * 199,
        ["1"] * 199 + ["1e12"],
    )
    for weights in huge:
        code, _, _ = run_cli(
            capsys, "design", "--weights", ",".join(weights), "--n-in", "1",
            "--m-out", str(len(weights)), "--out", str(design),
        )
        assert code == 0
        code, stdout, _ = run_cli(capsys, "certify", "--design", str(design), "--trials", "10")
        assert code == 0 and json.loads(stdout)["certificate"]["passed"]
        for scheme in ("amplifier", "feedforward"):
            code, _, _ = run_cli(
                capsys, "synth", "--design", str(design), "--scheme", scheme, "--out", str(circuit)
            )
            assert code == 0, (weights[0], scheme)
            code, _, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
            assert code == 0


def test_commands_refuse_a_profile_that_beats_the_cloning_bound(capsys, tmp_path):
    # every noise 1e-7 below the symmetric 1 -> 1000 point: 5e-8 of the
    # centered terms, but 1e-10 of S^2, at which certify once certified it
    design = tmp_path / "design.json"
    below = NoiseProfile(1, 1000, symmetric_profile(1, 1000).noises * (1 - 1e-7))
    design.write_text(json.dumps(design_document(below)))
    for argv in (["certify", "--trials", "10"], ["synth", "--scheme", "amplifier"],
                 ["synth", "--scheme", "feedforward"]):
        code, stdout, stderr = run_cli(capsys, *argv, "--design", str(design))
        assert code == 2 and stdout == ""
        assert stderr == "error: profile residual -9.99e-05 exceeds 1e-09 of its terms 2e+03\n"


def test_synth_failed_invariant_exits_3_with_report(capsys, tmp_path, monkeypatch):
    design = tmp_path / "design.json"
    circuit = tmp_path / "circ.json"
    run_cli(capsys, "design", "--symmetric", "--n-in", "1", "--m-out", "2", "--out", str(design))
    # synth's own circuit built with its splitting fractions 1e-6 short; at
    # the symmetric 1 -> 2 point each clone takes t_tap d_j = 1/2 of its mean
    # through the splitters
    def build(profile):
        circ = feedforward_params(profile)
        return dataclasses.replace(circ, splitting=circ.splitting * (1.0 - 1e-6))

    monkeypatch.setattr("gaussclone.circuits.feedforward_params", build)
    code, stdout, stderr = run_cli(
        capsys, "synth", "--design", str(design), "--scheme", "feedforward", "--out", str(circuit)
    )
    assert code == 3
    assert json.loads(stderr)["invariants"]["mean_residual"] == pytest.approx(5e-7, rel=1e-6)
    assert stdout == "" and not circuit.exists()


def test_simulate_rejects_non_finite_alpha(capsys, tmp_path):
    circuit = make_circuit(capsys, tmp_path, "feedforward")
    for alpha in ("nan,0", "0,inf"):
        code, stdout, stderr = run_cli(
            capsys, "simulate", "--circuit", str(circuit), "--alpha", alpha, "--shots", "10"
        )
        assert code == 2
        assert stdout == "" and "finite" in stderr


def test_certify_command(capsys, tmp_path):
    design = tmp_path / "design.json"
    run_cli(capsys, "design", "--symmetric", "--n-in", "1", "--m-out", "2", "--out", str(design))
    code, stdout, _ = run_cli(
        capsys, "certify", "--design", str(design), "--trials", "200", "--seed", "1"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["certificate"]["passed"]
    assert report["certificate"]["duality_gap"] < 1e-10
    assert report["feasible_scan"]["passed"]


def test_certify_refuses_weights_whose_certificate_overflows(capsys, tmp_path):
    # at subnormal weights eta = 1 / (lambda (M - N)) overflows: the report
    # held NaN and Infinity, which are not JSON, and certify exited 3
    design = tmp_path / "design.json"
    argv = ["--weights", "1e-322,2e-322,3e-322", "--n-in", "1", "--m-out", "3"]
    assert run_cli(capsys, "design", *argv, "--out", str(design))[0] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run_cli(capsys, "certify", "--design", str(design), "--trials", "20")
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: no finite certificate at weights of scale 3.01e-322"), stderr


def test_certify_names_the_bound_of_weights_that_are_not_extremal(capsys, tmp_path):
    design = tmp_path / "design.json"
    argv = ["--weights", "1,2,5", "--n-in", "1", "--m-out", "3", "--out", str(design)]
    assert run_cli(capsys, "design", *argv)[0] == 0
    doc = json.loads(design.read_text())
    doc["weights"] = [1.001 * x for x in doc["weights"]]
    design.write_text(json.dumps(doc))
    code, stdout, stderr = run_cli(capsys, "certify", "--design", str(design), "--trials", "10")
    assert code == 2 and stdout == ""
    assert stderr == (
        "error: weights are not extremal for this profile (residual 0.00308 exceeds 1e-09 "
        "max(max x = 5, size of its terms = 10.8))\n"
    )


def test_certify_failed_check_exits_3_with_report(capsys, tmp_path, monkeypatch):
    design = tmp_path / "design.json"
    report = tmp_path / "report.json"
    run_cli(capsys, "design", "--symmetric", "--n-in", "1", "--m-out", "2", "--out", str(design))
    verify_certificate = gaussclone.cli.verify_certificate
    monkeypatch.setattr(
        "gaussclone.cli.verify_certificate",
        lambda problem, cert: {**verify_certificate(problem, cert), "passed": False},
    )
    code, stdout, _ = run_cli(
        capsys, "certify", "--design", str(design), "--trials", "10", "--out", str(report)
    )
    assert code == 3
    assert report.read_text() == stdout
    assert not json.loads(stdout)["certificate"]["passed"]


def test_simulate_command(capsys, tmp_path):
    design = tmp_path / "design.json"
    circuit = tmp_path / "circ.json"
    samples = tmp_path / "samples.csv"
    run_cli(capsys, "design", "--symmetric", "--n-in", "1", "--m-out", "2", "--out", str(design))
    run_cli(capsys, "synth", "--design", str(design), "--scheme", "feedforward", "--out", str(circuit))
    code, stdout, _ = run_cli(
        capsys,
        "simulate",
        "--circuit",
        str(circuit),
        "--alpha",
        "1,0",
        "--shots",
        "20000",
        "--seed",
        "42",
        "--shards",
        "2",
        "--out",
        str(samples),
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["shots_used"] == 20000
    assert summary["clone_means_re"][0] == pytest.approx(1.0, abs=0.05)
    assert samples.exists()
    header = samples.read_text().splitlines()[0]
    assert header == "shot,clone,x,p,o_re,o_im"


def test_simulate_requires_feedforward_circuit(capsys, tmp_path):
    design = tmp_path / "design.json"
    circuit = tmp_path / "circ.json"
    run_cli(capsys, "design", "--symmetric", "--n-in", "1", "--m-out", "2", "--out", str(design))
    run_cli(capsys, "synth", "--design", str(design), "--scheme", "amplifier", "--out", str(circuit))
    code, _, stderr = run_cli(
        capsys, "simulate", "--circuit", str(circuit), "--shots", "10", "--seed", "0"
    )
    assert code == 2


def test_tradeoff_command(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    code, stdout, _ = run_cli(capsys, "tradeoff", "--points", "3", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_F,n_G,F,G"
    mid = [float(v) for v in lines[2].split(",")]
    assert mid == pytest.approx([1.0, 1.0, 0.5, 0.5], abs=1e-12)


def test_tradeoff_rejects_no_points(capsys):
    code, stdout, stderr = run_cli(capsys, "tradeoff", "--points", "0")
    assert code == 2
    assert stdout == "" and "at least one point" in stderr


def test_tradeoff_byte_stable(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "tradeoff", "--points", "20", "--out", str(a))
    run_cli(capsys, "tradeoff", "--points", "20", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gaussclone.__file__)))
    code = (
        "import gaussclone.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_thread_pool_or_logging():
    # simulate imports its thread and process pools when a run needs them;
    # the pools load logging
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gaussclone.__file__)))
    code = (
        "import gaussclone.cli, sys; "
        "print([m for m in ('concurrent.futures', 'concurrent.futures.process', 'logging', "
        "'multiprocessing') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_one_parser_serves_every_main_call(capsys, monkeypatch):
    made = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "__init__",
        lambda self, *a, **k: made.append(1) or init(self, *a, **k),
    )
    gaussclone.cli.build_parser.cache_clear()
    for _ in range(3):
        assert run_cli(capsys, "design", "--symmetric", "--n-in", "1", "--m-out", "2")[0] == 0
        assert run_cli(capsys, "tradeoff", "--points", "0")[0] == 2
    # the top-level parser and one per command, built by the first call only
    assert len(made) == 8


def test_cli_import_builds_no_parser():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gaussclone.__file__)))
    code = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = (\n"
        "    lambda self, *a, **k: made.append(1) or init(self, *a, **k))\n"
        "import gaussclone.cli\n"
        "print(len(made), gaussclone.cli.build_parser.cache_info().currsize)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "0"]


def spy_on(monkeypatch, command):
    calls = []
    monkeypatch.setattr(gaussclone.cli, f"cmd_{command}", lambda args: calls.append(args) or 0)
    return calls


def test_options_do_not_leak_between_calls(capsys, monkeypatch):
    first = run_cli(capsys, "design", "--symmetric", "--n-in", "1", "--m-out", "3")
    second = run_cli(capsys, "design", "--weights", "1,1,1", "--n-in", "1", "--m-out", "3")
    assert first[0] == second[0] == 0
    assert json.loads(first[1])["noises"] == pytest.approx(json.loads(second[1])["noises"])
    calls = spy_on(monkeypatch, "simulate")
    main(["simulate", "--circuit", "c.json", "--shots", "5", "--out", "x.csv"])
    main(["simulate", "--circuit", "c.json", "--shots", "5"])
    assert [args.out for args in calls] == ["x.csv", None]


def test_commands_run_the_module_function_patched_after_a_call(capsys, tmp_path, monkeypatch):
    design = tmp_path / "design.json"
    run_cli(capsys, "design", "--symmetric", "--n-in", "1", "--m-out", "2", "--out", str(design))
    calls = spy_on(monkeypatch, "certify")
    code, stdout, _ = run_cli(capsys, "certify", "--design", str(design), "--trials", "7")
    assert code == 0 and stdout == ""
    assert [(args.design, args.trials, args.seed) for args in calls] == [(str(design), 7, 0)]


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--n-in", "1"],
        ["nonsense"],
        ["synth", "--design", "d.json", "--scheme", "bad"],
    ],
)
def test_usage_errors_return_2(capsys, argv):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == "" and "usage:" in stderr


@pytest.mark.parametrize("argv", [["--help"], ["certify", "--help"]])
def test_help_returns_0(capsys, argv):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 0
    assert stdout.startswith("usage:") and stderr == ""


def test_console_script_exit_codes_are_unchanged():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gaussclone.__file__)))
    design = ["design", "--n-in", "1", "--m-out", "2", "--weights"]
    # exit 1 is an uncaught exception: a traceback, where a message belongs
    for argv, want in (
        (["design", "--n-in", "1"], {2}),
        (["--help"], {0}),
        ([*design, "1e200,1e200"], {0}),
        ([*design, "1e-100,1"], {0, 2}),
        (["solve", "--noises", "nan,0.5", "--n-in", "1", "--m-out", "3"], {2}),
    ):
        out = subprocess.run(
            [sys.executable, "-m", "gaussclone.cli", *argv], env=env, capture_output=True
        )
        assert out.returncode in want, (argv, out.stderr)
