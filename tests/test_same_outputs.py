import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def _slice():
    """A few steps of each kind: a design through every command, a
    zero-noise completion, a fixture, an error path, a usage error, a demo."""
    steps = same_outputs.corpus()
    picked = [s for s in steps if "sym-1-2" in " ".join(s) and "teleporter" not in s]
    picked += [s for s in steps if s[0] == "@zero-noise" and s[1:3] == ["2", "3"]]
    picked += [s for s in steps if s[0] == "solve" and s[2] == "0.5,0.5"]
    picked += [s for s in steps if "fixtures/random_2to3.amplifier.json" in s]
    picked += [s for s in steps if "bad/tampered.feedforward.json" in s]
    picked += [["frobnicate"], ["@demo", "noise_tradeoff.py"]]
    return picked


def test_a_slice_run_twice_on_one_tree_gives_the_same_outputs():
    steps = _slice()
    first, second = same_outputs.run_trees([ROOT, ROOT], steps)
    assert same_outputs.compare(steps, first, second) == []
    codes = {" ".join(s): r["code"] for s, r in zip(steps, first)}
    assert codes["frobnicate"] == 2 and codes["verify --circuit bad/tampered.feedforward.json"] == 3
    # design, synth and verify of both schemes, simulate twice, certify
    assert [r["code"] for r in first[:8]] == [0] * 8
    # every file a command writes is recorded, with its bytes
    design = first[0]["files"]["sym-1-2.design.json"]
    assert json.loads(design)["M"] == 2 and design == first[0]["stdout"]
    assert set(first[6]["files"]) == {"sym-1-2.sim.csv", "sym-1-2.sim.json"}
    assert "optimal n_M" in first[steps.index(["solve", "--noises", "0.5,0.5", "--n-in", "2",
                                                  "--m-out", "3"])]["stdout"]


def test_compare_names_each_moved_key_with_its_largest_move():
    steps = [["verify", "--circuit", "c.json"], ["solve"], ["tradeoff"], ["synth"]]
    a = [{"code": 0, "stdout": '{"r": [1.0, 2.0], "s": "x", "passed": true}\n', "stderr": "",
          "files": {"c.json": '{"v": 0.5}\n'}},
         {"code": 0, "stdout": "optimal n_M = 2.5e-32\n", "stderr": "", "files": {}},
         {"code": 0, "stdout": "1,2\n", "stderr": "", "files": {}},
         {"code": 0, "stdout": "", "stderr": '{"invariants": {"passed": true}}\n', "files": {}}]
    b = json.loads(json.dumps(a))
    b[0]["stdout"] = '{"r": [1.0, 2.5], "s": "y", "passed": true}\n'
    b[0]["files"]["c.json"] = '{"v": 0.25}\n'
    b[1].update(code=2, stdout="optimal n_M = 0\n")
    b[3]["stderr"] = '{"invariants": {"passed": false}}\n'
    assert same_outputs.compare(steps, a, b) == [
        "[0] verify --circuit c.json",
        "  stdout: r[]: abs 0.5, scaled 0.2",
        "  stdout: s: 'x' -> 'y'",
        "  file c.json: v: abs 0.25, scaled 0.5",
        "[1] solve",
        "  exit 0 -> 2",
        "  stdout line 1: 'optimal n_M = 2.5e-32' -> 'optimal n_M = 0'",
        "[3] synth",
        "  stderr: invariants.passed: true -> false",
    ]
    # one exit code and one passed value moved; the values of [0] did not count
    assert same_outputs.verdict_moves(a, b) == (1, 1)
    assert same_outputs.verdict_moves(a, a) == (0, 0)
