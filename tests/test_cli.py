import argparse
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gaussclone
from gaussclone import design_from_weights, residual, symmetric_profile
from gaussclone.circuits import verify_circuit
from gaussclone.cli import (
    SCHEMA_VERSION,
    _dump_json,
    circuit_parameters,
    circuit_text,
    design_block,
    design_hash,
    load_circuit,
    load_design,
    main,
)

from conftest import FIXTURES


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
    `circuit_parameters`, as earlier releases wrote it: the oracle for
    `circuit_text`."""
    params = circuit_parameters(scheme, circ)
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
            doc, profile = load_circuit(str(circuit))
            assert doc["scheme"] == scheme
            assert "design_sha256" in doc["provenance"]
            code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
            assert code == 0
            assert json.loads(stdout)["passed"]
        code, _, _ = run_cli(capsys, "simulate", "--circuit", str(circuit), "--shots", "1000")
        assert code == 0


def test_amplifier_document_stores_exact_zeros_above_the_band(capsys, tmp_path):
    m = 200
    weights = ",".join(repr(float(w)) for w in np.random.default_rng(41).uniform(0.1, 10.0, m))
    design, circuit = tmp_path / "design.json", tmp_path / "circ.json"
    run_cli(capsys, "design", "--weights", weights, "--n-in", "2", "--m-out", str(m),
            "--out", str(design))
    code, _, _ = run_cli(
        capsys, "synth", "--design", str(design), "--scheme", "amplifier", "--out", str(circuit)
    )
    assert code == 0
    params = json.loads(circuit.read_text())["parameters"]
    assert len(params["V"]) == m * m and len(params["kappa"]) == m * (m - 1)
    # V[:, 1:M-1] and kappa[:, 1:] are zero above their first superdiagonal:
    # (M - 2)(M - 3)/2 entries each, written as 0.0
    above = (m - 2) * (m - 3) // 2
    v = np.array(params["V"]).reshape(m, m)
    kappa = np.array(params["kappa"]).reshape(m, m - 1)
    assert np.count_nonzero(np.triu(v[:, 1 : m - 1], 1)) == 0
    assert np.count_nonzero(np.triu(kappa[:, 1:], 1)) == 0
    assert params["V"].count(0.0) >= above and params["kappa"].count(0.0) >= above
    assert circuit.stat().st_size < 1.2e6
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
    report = json.loads(stdout)
    assert code == 0 and report["passed"] and report["parameter_residual"] == 0.0


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_earlier_circuit_documents_still_verify(capsys, name):
    circuit = str(FIXTURES / name)
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", circuit)
    report = json.loads(stdout)
    assert code == 0 and report["passed"]
    assert report["parameter_residual"] <= 1e-12
    if name.endswith(".feedforward.json"):
        code, _, _ = run_cli(capsys, "simulate", "--circuit", circuit, "--shots", "1000")
        assert code == 0


def test_synth_rejects_missing_file(capsys, tmp_path):
    code, _, stderr = run_cli(
        capsys, "synth", "--design", str(tmp_path / "nope.json"), "--scheme", "amplifier"
    )
    assert code == 2


def test_verify_fails_on_tampered_circuit(capsys, tmp_path):
    design = tmp_path / "design.json"
    circuit = tmp_path / "circ.json"
    run_cli(capsys, "design", "--symmetric", "--n-in", "1", "--m-out", "2", "--out", str(design))
    run_cli(capsys, "synth", "--design", str(design), "--scheme", "feedforward", "--out", str(circuit))
    doc = json.loads(circuit.read_text())
    doc["design"]["noises"] = [0.5, 1.0]  # off the optimal surface
    circuit.write_text(json.dumps(doc))
    code, _, stderr = run_cli(capsys, "verify", "--circuit", str(circuit))
    assert code == 2  # precondition failure: profile off-surface


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
    for scheme in ("amplifier", "feedforward"):
        circuit = make_circuit(capsys, tmp_path, scheme)
        code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
        report = json.loads(stdout)
        assert code == 0 and report["passed"]
        assert report["parameter_residual"] == 0.0
        assert report["design_hash_matches"] and report["parameters_match"]


def edit_gains_and_tap(doc):
    doc["parameters"]["gains"] = [9.0] * len(doc["parameters"]["gains"])
    doc["parameters"]["r_tap"] = 0.01


def edit_hash(doc):
    doc["provenance"]["design_sha256"] = "0" * 64


def drop_reflectance(doc):
    doc["parameters"]["reflectances"] = doc["parameters"]["reflectances"][:-1]


@pytest.mark.parametrize("edit", [edit_gains_and_tap, edit_hash, drop_reflectance])
def test_verify_and_simulate_reject_edited_feedforward_circuit(capsys, tmp_path, edit):
    circuit = make_circuit(capsys, tmp_path, "feedforward")
    doc = json.loads(circuit.read_text())
    edit(doc)
    circuit.write_text(json.dumps(doc))
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
    report = json.loads(stdout)
    assert code == 3
    assert not report["passed"] and not report["parameters_match"]
    code, stdout, stderr = run_cli(
        capsys, "simulate", "--circuit", str(circuit), "--shots", "10", "--seed", "0"
    )
    assert code == 3
    assert stdout == "" and "does not match its design" in stderr


def test_feedforward_document_phase_convention(capsys, tmp_path):
    circuit = make_circuit(capsys, tmp_path, "feedforward")
    doc = json.loads(circuit.read_text())
    assert "phase_convention" not in doc["parameters"]
    simulate = ["simulate", "--circuit", str(circuit), "--shots", "10", "--seed", "0"]
    # documents that name the one convention the circuit uses still load
    doc["parameters"]["phase_convention"] = "outcome"
    circuit.write_text(json.dumps(doc))
    code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(circuit))
    assert code == 0 and json.loads(stdout)["parameters_match"]
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
    assert report["parameter_residual"] > 1e-7 and report["design_hash_matches"]


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


def test_synth_failed_invariant_exits_3_with_report(capsys, tmp_path, monkeypatch):
    design = tmp_path / "design.json"
    circuit = tmp_path / "circ.json"
    run_cli(capsys, "design", "--symmetric", "--n-in", "1", "--m-out", "2", "--out", str(design))
    monkeypatch.setattr(
        "gaussclone.circuits.scheme_equivalence_check",
        lambda profile, **_: {"discrepancy": 1.0, "passed": False},
    )
    code, stdout, stderr = run_cli(
        capsys, "synth", "--design", str(design), "--scheme", "feedforward", "--out", str(circuit)
    )
    assert code == 3
    assert json.loads(stderr)["invariants"]["scheme_discrepancy"] == 1.0
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
    # simulate imports its thread pool when a run needs it; the pool loads logging
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gaussclone.__file__)))
    code = (
        "import gaussclone.cli, sys; "
        "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])"
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
