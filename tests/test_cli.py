"""End-to-end command line checks (in-process, via main())."""

import json
import math
import os
import subprocess
import sys

import numpy as np

import perimax
from perimax.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def fixture_file(tmp_path, capsys, name, *extra):
    path = tmp_path / ("%s.json" % name)
    code, _ = run(capsys, "fixture", name, "--out", str(path), "--quiet", *extra)
    assert code == 0
    return str(path)


def test_analyze(tmp_path, capsys):
    path = fixture_file(tmp_path, capsys, "kagome")
    code, rep = run(capsys, "analyze", path)
    assert code == 0
    assert (rep["n"], rep["m"], rep["n_star"]) == (3, 6, 3)
    assert (rep["sigma"], rep["delta"], rep["phi"]) == (0, 4, 1)
    assert rep["stress_flex_identity"] and rep["stress_phi_identity"]
    assert rep["noncrossing"] and rep["euler_ok"]


def test_fixture_prints_document_without_out(capsys):
    code = main(["fixture", "square_grid"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["dimension"] == 2 and len(doc["edges"]) == 2


def test_ppt_certificate(tmp_path, capsys):
    path = fixture_file(tmp_path, capsys, "ppt3")
    code, rep = run(capsys, "ppt", path)
    assert code == 0 and rep["valid"]
    assert rep["counts"] == {"n": 3, "m": 6, "n_star": 3}

    path = fixture_file(tmp_path, capsys, "reentrant")
    code, rep = run(capsys, "ppt", path)
    assert code == 0 and not rep["valid"]


def test_stress_report(tmp_path, capsys):
    path = fixture_file(tmp_path, capsys, "cubes")
    code, rep = run(capsys, "stress", path)
    assert code == 0
    assert rep["sigma"] == 1
    assert len(rep["periodic_basis"][0]) == 6


def test_lift_and_terrain(tmp_path, capsys):
    path = fixture_file(tmp_path, capsys, "cubes")
    obj_path = tmp_path / "terrain.obj"
    code, rep = run(capsys, "lift", path, "--stress-index", "0", "--c0", "1.5",
                    "--tiles", "2x2", "--out", str(obj_path), "--quiet")
    assert code == 0
    assert {"mountain", "valley"} <= set(rep["folds"])
    text = obj_path.read_text()
    assert text.startswith("v ") and " f " not in text.splitlines()[0]


def test_lift_rejects_stress_free(tmp_path, capsys):
    path = fixture_file(tmp_path, capsys, "kagome")
    code, rep = run(capsys, "lift", path)
    assert code == 2
    assert "no periodic stress" in rep["error"]


def test_svg(tmp_path, capsys):
    path = fixture_file(tmp_path, capsys, "kagome")
    out = tmp_path / "patch.svg"
    code, rep = run(capsys, "svg", path, "--tiles", "2x3", "--out", str(out),
                    "--quiet")
    assert code == 0 and rep["faces"] == 3
    assert out.read_text().startswith("<svg")


def test_relax_roundtrip(tmp_path, capsys):
    path = fixture_file(tmp_path, capsys, "kagome")
    out = tmp_path / "relaxed.json"
    code, rep = run(capsys, "relax", path, "--matrix", "2,0,0,1",
                    "--out", str(out), "--quiet")
    assert code == 0
    assert rep["sublattice"]["index"] == 2
    code, rep = run(capsys, "analyze", str(out))
    assert code == 0 and (rep["n"], rep["m"]) == (6, 12)


def test_ultra(tmp_path, capsys):
    path = fixture_file(tmp_path, capsys, "ultrarigid")
    code, rep = run(capsys, "ultra", path, "--max-index", "4")
    assert code == 0
    assert rep["ultrarigid_up_to_bound"]
    assert len(rep["entries"]) == 15

    path = fixture_file(tmp_path, capsys, "square_grid")
    code, rep = run(capsys, "ultra", path, "--max-index", "2")
    assert code == 0
    assert not rep["ultrarigid_up_to_bound"]
    assert rep["first_failure"]["phi"] == 1


def test_rigidify(tmp_path, capsys):
    path = fixture_file(tmp_path, capsys, "ppt3")
    out = tmp_path / "rigid.json"
    code, rep = run(capsys, "rigidify", path, "--cutoff", "2",
                    "--out", str(out), "--quiet")
    assert code == 0
    assert rep["inserted"]["derivative"] > 0
    code, rep = run(capsys, "analyze", str(out))
    assert code == 0 and rep["phi"] == 0


def test_deform(tmp_path, capsys):
    path = fixture_file(tmp_path, capsys, "kagome", "--theta",
                        repr(math.pi / 2))
    out = tmp_path / "path.json"
    code, rep = run(capsys, "deform", path, "--steps", "10", "--ds", "0.02",
                    "--check", "expansive,auxetic", "--out", str(out),
                    "--quiet")
    assert code == 0 and rep["samples"] == 11
    doc = json.loads(out.read_text())
    assert len(doc["samples"]) == 11
    assert all(s["expansive"] and s["auxetic"] for s in doc["samples"])


def test_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2, "lattice": [["1","1"],["2","2"]],'
                   '"vertices": [{"id":0,"pos":["0","0"]}], "edges": []}')
    code, rep = run(capsys, "analyze", str(bad))
    assert code == 2
    assert rep["kind"] == "validation"
    assert "singular lattice" in rep["error"]


def test_numerical_exit_code(tmp_path, capsys):
    from perimax import PeriodicFramework, serialize_framework

    # singular spectrum straddling the rank cutoff: numerical failure (3)
    fw = PeriodicFramework(
        np.eye(2),
        [[0.0, 0.0], [3e-9, 0.0], [0.0, 6e-10]],
        [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 1, (0, 0)), (0, 2, (0, 0))])
    path = tmp_path / "straddle.json"
    path.write_text(serialize_framework(fw))
    code, rep = run(capsys, "analyze", str(path))
    assert code == 3
    assert rep["kind"] == "numerical"
    assert "rank instability" in rep["error"]

    # deform on a rigid framework: precondition failure (2)
    path = fixture_file(tmp_path, capsys, "ultrarigid")
    code, rep = run(capsys, "deform", path, "--steps", "3")
    assert code == 2
    assert "not a certified" in rep["error"]


def test_analyze_edgeless_framework(tmp_path):
    from perimax import PeriodicFramework, serialize_framework

    path = tmp_path / "empty.json"
    path.write_text(serialize_framework(
        PeriodicFramework(np.eye(2), [[0.0, 0.0]], [])))
    # a separate interpreter, so an uncaught exception shows as a traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(perimax.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "perimax.cli", "analyze", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode in (0, 2, 3)
    assert "Traceback" not in proc.stderr
    rep = json.loads(proc.stdout)
    # no edges leave no faces, so the Euler count n - m + n* = 1 fails
    assert rep["kind"] == "validation" and "Euler" in rep["error"]
