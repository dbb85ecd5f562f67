"""End-to-end command line checks (in-process, via main())."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perimax
from perimax import cli, rigidity
from perimax.cli import main

from conftest import straddling_framework


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
    assert out == perimax.serialize_framework(perimax.fixture("square_grid")) + "\n"


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


def test_lift_refusal_keeps_existing_terrain(tmp_path, capsys):
    path = fixture_file(tmp_path, capsys, "cubes")
    obj_path = tmp_path / "terrain.obj"
    kept = b"v 0.0 0.0 0.0\n# an earlier terrain\n"
    obj_path.write_bytes(kept)
    for tiles in ("0x1", "100000x100000", "3y3"):
        code, rep = run(capsys, "lift", path, "--tiles", tiles, "--out", str(obj_path), "--quiet")
        assert code == 2 and "tile range" in rep["error"]
    assert obj_path.read_bytes() == kept


def test_lift_refuses_non_finite_c0(tmp_path, capsys):
    """A non-finite --c0 would print NaN or Infinity, which is not JSON,
    and write non-finite terrain heights."""
    path = fixture_file(tmp_path, capsys, "cubes")
    obj_path = tmp_path / "terrain.obj"
    for c0 in ("nan", "inf", "-inf"):
        code, rep = run(capsys, "lift", path, "--c0=" + c0, "--out", str(obj_path), "--quiet")
        assert code == 2 and rep["error"] == "c0 must be finite, got %s" % c0
    assert not obj_path.exists()


@pytest.mark.parametrize("name, argv, message", [
    ("cubes", ("lift", "--stress-index", "7"), "stress index 7 out of range [0, 1)"),
    ("cubes", ("lift", "--stress-index=-1"), "stress index -1 out of range [0, 1)"),
    ("ppt3", ("deform", "--check", "bogus"), "unknown checks: bogus"),
    ("ppt3", ("deform", "--check", "expansive,bogus,auxetic"), "unknown checks: bogus"),
], ids=["lift-stress-index-7", "lift-stress-index-negative", "deform-check-bogus",
        "deform-check-bogus-among-known"])
def test_option_refusals_exit_with_json(tmp_path, capsys, monkeypatch, name, argv, message):
    """An option value the command cannot use exits 2 with a JSON
    validation error naming it, and writes nothing."""
    monkeypatch.chdir(tmp_path)
    path = fixture_file(tmp_path, capsys, name)
    code, rep = run(capsys, argv[0], path, *argv[1:], "--quiet")
    assert code == 2 and rep["kind"] == "validation" and rep["error"] == message
    assert sorted(p.name for p in tmp_path.iterdir()) == [name + ".json"]


def test_deform_refuses_non_finite_ds(tmp_path, capsys):
    path = fixture_file(tmp_path, capsys, "kagome")
    for ds in ("nan", "inf", "-inf"):
        code, rep = run(capsys, "deform", path, "--ds=" + ds, "--steps", "3", "--quiet")
        assert code == 2 and rep["error"] == "step length ds must be finite, got %s" % ds


def test_deform_refuses_zero_ds(tmp_path, capsys):
    """A zero step length exits 2 with JSON, where it once traced copies of
    the initial sample and exited 0."""
    path = fixture_file(tmp_path, capsys, "kagome")
    for ds, text in (("0", "0"), ("-0", "-0"), ("0e5", "0")):
        code, rep = run(capsys, "deform", path, "--ds", ds, "--steps", "3", "--quiet")
        assert (code, rep) == (2, {"error": "step length ds must be nonzero, got " + text,
                                   "kind": "validation"})


@pytest.mark.parametrize("option, value, command, check", [
    ("--ds", "-1e-3", ("deform", "ppt3", "--steps", "3"),
     lambda code, rep: code == 0 and rep["samples"] == 4),
    ("--c0", "-1e-3", ("lift", "cubes"), lambda code, rep: code == 0 and rep["c0"] == -1e-3),
    ("--theta", "-1e-1", ("fixture", "kagome"),
     lambda code, rep: code == 0 and rep == perimax.framework_to_dict(
         perimax.fixture("kagome", theta=-0.1))),
    ("--alpha", "-1e-1", ("fixture", "reentrant"),
     lambda code, rep: code == 2 and "0 < alpha < beta < pi" in rep["error"]),
    ("--beta", "-2e-1", ("fixture", "reentrant"),
     lambda code, rep: code == 2 and "0 < alpha < beta < pi" in rep["error"]),
])
def test_spaced_negative_exponent_reaches_its_option(tmp_path, capsys, option, value,
                                                     command, check):
    """A negative value in exponent notation after a space ("--ds -1e-3"),
    which argparse reads as an option, reaches its option as "--ds=-1e-3"
    does: the same exit code and report, never a usage error."""
    name, target, *rest = command
    if name != "fixture":
        target = fixture_file(tmp_path, capsys, target)
    spaced = run(capsys, name, target, *rest, option, value)
    assert spaced == run(capsys, name, target, *rest, option + "=" + value)
    assert check(*spaced), spaced


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


def test_relax_negative_matrix_spaced_or_joined(tmp_path, capsys):
    # a first entry that is negative reads the same after a space as after "="
    path = fixture_file(tmp_path, capsys, "kagome")
    out = tmp_path / "relaxed.json"
    results = []
    for argv in (["--matrix", "-2,0,0,3"], ["--matrix=-2,0,0,3"]):
        code = main(["relax", path, *argv, "--out", str(out), "--quiet"])
        results.append((code, capsys.readouterr().out, out.read_bytes()))
        out.unlink()
    assert results[0] == results[1]
    code, report, _ = results[0]
    assert code == 0 and json.loads(report)["sublattice"]["index"] == 6


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


def test_deform_backwards_ends_at_corner_event(tmp_path, capsys):
    """A negative step walks the flex backwards until a convex corner
    closes: an event with exit 0, and samples in falling tau."""
    path = fixture_file(tmp_path, capsys, "ppt3")
    out = tmp_path / "path.json"
    code, rep = run(capsys, "deform", path, "--ds", "-0.01", "--out", str(out), "--quiet")
    assert code == 0 and rep["termination"].startswith("event: corner closed on face")
    taus = [s["tau"] for s in json.loads(out.read_text())["samples"]]
    assert len(taus) == rep["samples"] and all(b < a for a, b in zip(taus, taus[1:]))


def test_deform_kagome_backwards_ends_at_corner_event(tmp_path, capsys):
    """Backwards the kagome closes three corners of one face at once: an
    event with exit 0, not a refusal of the changed angle sum."""
    path = fixture_file(tmp_path, capsys, "kagome")
    code, rep = run(capsys, "deform", path, "--ds", "-0.01", "--quiet")
    assert (code, rep["termination"]) == (0, "event: corner closed on face 1")


def test_deform_halves_a_step_too_large(tmp_path, capsys):
    """A step whose predicted lattice the geometry checks refuse is halved,
    not reported as an invalid input."""
    path = fixture_file(tmp_path, capsys, "kagome")
    code, rep = run(capsys, "deform", path, "--ds", "1e200", "--steps", "5", "--quiet")
    assert code == 0 and rep["samples"] >= 2, rep


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


def test_stress_refuses_thin_gap(tmp_path, capsys):
    # the equilibrium matrix of this relaxation reads its rank across a
    # singular value gap ratio of 2: numerical failure (3), as JSON
    fw = perimax.relax(straddling_framework(), perimax.Sublattice(2, 0, 1))
    path = tmp_path / "straddle-relaxed.json"
    path.write_text(perimax.serialize_framework(fw))
    code, rep = run(capsys, "stress", str(path))
    assert code == 3
    assert rep["kind"] == "numerical"
    assert "rank instability" in rep["error"]


def _run_module(module, *argv):
    """Run ``python -m module`` in a separate interpreter, so an uncaught
    exception shows as a traceback."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(perimax.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_relax_refuses_shift_sums_beyond_int64(tmp_path):
    """A loop shift of 2**63 - 1 relaxed to index 2: exit 2 with a JSON
    validation report, not a wrapped shift or a traceback."""
    fw = perimax.PeriodicFramework(np.eye(2), [[0.0, 0.0]],
                                   [(0, 0, (2 ** 63 - 1, 0)), (0, 0, (0, 1))])
    path = tmp_path / "wide.json"
    path.write_text(perimax.serialize_framework(fw), encoding="utf-8")
    proc = _run_module("perimax", "relax", str(path), "--matrix", "2,0,0,1",
                       "--out", str(tmp_path / "out.json"), "--quiet")
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["kind"] == "validation" and "too large for a relaxation of index 2" in rep["error"]
    assert not (tmp_path / "out.json").exists()

def test_analyze_edgeless_framework(tmp_path):
    from perimax import PeriodicFramework, serialize_framework

    path = tmp_path / "empty.json"
    path.write_text(serialize_framework(
        PeriodicFramework(np.eye(2), [[0.0, 0.0]], [])))
    proc = _run_module("perimax.cli", "analyze", str(path))
    assert proc.returncode in (0, 2, 3)
    assert "Traceback" not in proc.stderr
    rep = json.loads(proc.stdout)
    # no edges leave no faces, so the Euler count n - m + n* = 1 fails
    assert rep["kind"] == "validation" and "Euler" in rep["error"]


def test_analyze_malformed_documents(tmp_path):
    """Integers beyond int64 (a shift) or beyond a float (a lattice entry),
    and bytes that are not UTF-8, exit 2 with a JSON report instead of a
    traceback."""
    doc = perimax.framework_to_dict(perimax.fixture("square_grid"))
    bad_shift = json.loads(json.dumps(doc))
    bad_shift["edges"][0]["shift"] = [2 ** 63, 0]
    bad_lattice = json.loads(json.dumps(doc))
    bad_lattice["lattice"][1][1] = 10 ** 400
    inputs = {"shift": json.dumps(bad_shift).encode(),
              "lattice": json.dumps(bad_lattice).encode(), "bytes": b"\xff\xfe{"}
    for name, data in inputs.items():
        path = tmp_path / ("%s.json" % name)
        path.write_bytes(data)
        proc = _run_module("perimax.cli", "analyze", str(path))
        assert proc.returncode == 2, name
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["kind"] == "validation"


def test_edge_too_long_to_measure_exits_with_json(tmp_path):
    """An edge orbit whose length overflows a float (1e155: its square is
    beyond the largest float) is refused by the crossing check, which every
    one of these commands runs, with exit 2, JSON naming the orbit and
    nothing on stderr, where NaN grid widths used to end in a traceback."""
    fw = perimax.PeriodicFramework(1e150 * np.eye(2), [[0, 0], [0.5e150, 0.3e150]],
                                   [(0, 1, (0, 0)), (0, 1, (100000, 0)), (0, 0, (0, 1))])
    path = tmp_path / "long.json"
    path.write_text(perimax.serialize_framework(fw), encoding="utf-8")
    for command in ("analyze", "ppt", "rigidify", "deform"):
        proc = _run_module("perimax", command, str(path), "--quiet")
        assert proc.returncode == 2, command
        assert proc.stderr == "", command
        rep = json.loads(proc.stdout)
        assert rep == {"error": "crossing check out of range: edge orbit 1 is too long to "
                                "measure", "kind": "validation"}, command


def test_negative_cutoff_exits_with_json(tmp_path, capsys):
    """A negative cutoff leaves no vertex pair to test: refused with exit 2
    instead of a vacuous expansive verdict."""
    path = fixture_file(tmp_path, capsys, "ppt3")
    for command in ("deform", "rigidify"):
        proc = _run_module("perimax", command, path, "--cutoff", "-1", "--quiet")
        assert proc.returncode == 2, command
        assert "Traceback" not in proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["kind"] == "validation" and "cutoff must be >= 0" in rep["error"]


def test_negative_steps_exit_with_json(tmp_path, capsys):
    """``deform --steps -1`` exits 2 with a validation report instead of a
    one-sample path that claims its step count was reached."""
    path = fixture_file(tmp_path, capsys, "ppt3")
    code, rep = run(capsys, "deform", path, "--steps", "-1")
    assert code == 2
    assert rep == {"error": "steps must be >= 0, got -1", "kind": "validation"}


def test_huge_cutoff_exits_with_json(tmp_path, capsys):
    """A cutoff whose pair table would not fit is refused with exit 2
    before any allocation, up to one past int64."""
    path = fixture_file(tmp_path, capsys, "ppt3")
    for cutoff in ("100000", "9223372036854775808"):
        for command in ("deform", "rigidify"):
            proc = _run_module("perimax", command, path, "--cutoff", cutoff, "--quiet")
            assert proc.returncode == 2, (command, cutoff)
            assert "Traceback" not in proc.stderr
            rep = json.loads(proc.stdout)
            assert rep["kind"] == "validation" and "pair table too large" in rep["error"]


@pytest.mark.parametrize("power", [12, 36, 62])
def test_long_edge_orbit_exits_with_json(tmp_path, capsys, power):
    """An edge orbit of ``ppt3`` with shift (2^power, 0) spans that many
    cells: the crossing check refuses it before expanding a candidate (at
    2^12 it asked for about 1.5e8 edge-copy pairs, at 2^36 and 2^62 its
    int64 row count wrapped), so every command that checks crossings exits
    2 with a JSON validation report."""
    doc = perimax.framework_to_dict(perimax.fixture("ppt3"))
    doc["edges"][0]["shift"] = [2 ** power, 0]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("analyze", "ppt", "rigidify", "deform"):
        code, rep = run(capsys, command, str(path))
        assert code == 2 and rep["kind"] == "validation", (command, rep)
        assert rep["error"].startswith("crossing check"), (command, rep)


def test_unwritable_out_exits_with_json(tmp_path, capsys):
    """An --out path in a missing directory, or naming a directory, is
    refused with a JSON validation report, not an OSError traceback."""
    cubes = fixture_file(tmp_path, capsys, "cubes")
    ppt3 = fixture_file(tmp_path, capsys, "ppt3")
    commands = [("lift", cubes, "--tiles", "2x2"), ("relax", ppt3, "--matrix", "1,0,0,2"),
                ("svg", cubes, "--tiles", "2x2"), ("rigidify", ppt3, "--cutoff", "1"),
                ("deform", ppt3, "--steps", "5"), ("fixture", "ppt3")]
    for target in (tmp_path / "missing" / "out.txt", tmp_path):
        for command in commands:
            code, rep = run(capsys, *command, "--out", str(target), "--quiet")
            assert code == 2 and rep["kind"] == "validation", (command, rep)
            assert rep["error"].startswith("cannot write %s: " % target), (command, rep)
    assert not (tmp_path / "missing").exists()


# sha256 of the reports as the per-pair loop implementation of the
# deformation and insertion search wrote them; the array version must give
# the same bytes (path samples, verdicts, ranked candidates and derivatives).
PINNED_DEFORM = {
    "ppt3": (100, "435402cf19a1306f7a443fc2e8ad2ae15d40aa0a6b3bc7542e6df9be3313674b"),
    "kagome": (100, "0d7f484ffc4e5946495986d31fe38eefe929d5070c729829a05bb5264688d677"),
    "ppt3_2x2": (40, "b291c61252871f4b19932013e6b2433b906117a43c881c37f1cede32d8c87f7c"),
}
# sha256 of `perimax deform --out` away from the defaults: a smaller pair
# table, a backward path through its event bisection, a backward 2x2 path.
PINNED_DEFORM_OPTIONS = {
    ("ppt3", "--cutoff", "1"): (
        "event: pointedness lost at vertex 1", 51,
        "435402cf19a1306f7a443fc2e8ad2ae15d40aa0a6b3bc7542e6df9be3313674b"),
    ("ppt3", "--ds=-0.01"): (
        "event: corner closed on face 1", 43,
        "fdf5506993a464042a3bab915b63d89aa103c495e209b783db15cb03519e8237"),
    ("ppt3_2x2", "--ds=-0.01", "--steps", "20"): (
        "step count reached", 21,
        "8aedf99ba84a4f8d8d3f6f528e74bd8fd30f3a8282e4de4a8b64b1c98b9c3127"),
}
PINNED_RIGIDIFY = {
    "ppt3": "66e4cb561d91318bda688fb1cb342c36a18494f53868062c0b6cfd4484bdea75",
    "kagome": "eb84c0b6e070ac8d0431bc2dca7e62732dedd048c4d1bd613343111bd729be2b",
}


def _pinned_inputs(tmp_path, capsys):
    paths = {name: fixture_file(tmp_path, capsys, name) for name in ("ppt3", "kagome")}
    paths["ppt3_2x2"] = str(tmp_path / "ppt3_2x2.json")
    code, _ = run(capsys, "relax", paths["ppt3"], "--matrix", "2,0,0,2",
                  "--out", paths["ppt3_2x2"], "--quiet")
    assert code == 0
    return paths


def test_deform_reports_pinned(tmp_path, capsys):
    paths = _pinned_inputs(tmp_path, capsys)
    for name, (steps, digest) in PINNED_DEFORM.items():
        out = tmp_path / ("%s_path.json" % name)
        code, _ = run(capsys, "deform", paths[name], "--steps", str(steps),
                      "--out", str(out), "--quiet")
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name


def test_deform_option_reports_pinned(tmp_path, capsys):
    paths = _pinned_inputs(tmp_path, capsys)
    for (name, *options), (termination, samples, digest) in PINNED_DEFORM_OPTIONS.items():
        out = tmp_path / ("%s_path.json" % name)
        code, rep = run(capsys, "deform", paths[name], *options, "--out", str(out), "--quiet")
        assert (code, rep["termination"], rep["samples"]) == (0, termination, samples), options
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, options


def test_rigidify_reports_pinned(tmp_path, capsys):
    paths = _pinned_inputs(tmp_path, capsys)
    for name, digest in PINNED_RIGIDIFY.items():
        assert main(["rigidify", paths[name], "--quiet"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


# sha256 of `perimax ultra <fixture> --max-index 8` stdout as the dense
# unfold-and-SVD probe printed it; the character probe must print the same.
PINNED_ULTRA = {
    "square_grid": "a9e958ff56e1d7d5039acce3120276f92c0eefcbed2389401d592dcdfff7c56f",
    "kagome": "97f2f983967ff0e10858e5e161482fa4b7c3d203f0cece6c419caef551466f1b",
    "reentrant": "d1f93520033f549f52a9d9591c3710cb6b4835ca5ac7b806f2c13d0ea1c9a8d1",
    "ppt3": "97f2f983967ff0e10858e5e161482fa4b7c3d203f0cece6c419caef551466f1b",
    "cubes": "37e15ea81ed20ca710fc3d5eaeebe3800b000ae6f8aebeeac1f703ca78e32d32",
    "ultrarigid": "d04eed355fb1ea83e412ff0f54e5bac1eba658826a483e985087cb7dc04d8653",
}


def test_ultra_reports_pinned(tmp_path, capsys):
    for name, digest in PINNED_ULTRA.items():
        path = fixture_file(tmp_path, capsys, name)
        assert main(["ultra", path, "--max-index", "8"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


# sha256 of the `analyze`, `ppt` and `stress` stdout on the benchmark's ladder
# shapes as the dense rank path printed them: each family relaxed to the
# k x k sublattice (k, k // 2, k), rotated by 0.7 rad, moved by (0.3, -0.2),
# then written and read back.  Dimension verdicts read from character blocks
# must print the same bytes.
PINNED_LADDER = {
    ("ppt3", 1): ("b2ec5cf3dff902ee8aa2ad1c71170670d41fdb2e2d6b88cdd112a164988e3cc6",
                  "59743a7ce4f15bf88db600cffd983854eda37702000dd336bfb3083c96c749ed",
                  "f937344c7788a90fca5382a5f4219e4a51b2bf2403a9b694c176de9ff272d786"),
    ("ppt3", 2): ("cd009f9545d95464b4d1290f9038532f837b432977a7b3b1c4982342c36dd933",
                  "1f30cefbab95e004f6d4cc826ba047e80d4f672981f8e627a7cdb543637199c4",
                  "aa61e2c715107af9d29dfd0e456c918738fd63d5a0af4fef1780dee7b28da540"),
    ("ppt3", 4): ("1748dd5436c0b8778fce91b9ccc66e1463835a4d0778a2b9f299a1fa159b49b2",
                  "a6cae3e102fb3c13a73d5aa1aca22850097c71c654492a31a4bd10b2f1e86f11",
                  "d0e4a0b8f17589d1530ef829fce9a4357b7d6b8dd141c7dea7dba862ddd902f9"),
    ("ppt3", 8): ("ab02fc42e23b7cdb12c2ed6dd2af7ef72e37dfb15ad985d96e982a500e5bd292",
                  "24f5a8d4b1cad5f02a974292fa718dbc70f851d5634cdbb0d791e5978125d465",
                  "415b07c569953a039773922a7009fa3de0333eb6cf15543d09387348880fa727"),
    ("cubes", 1): ("95e2b9a1ad74678ec05304b69553a071fd0eb496beba0aed75b9be20a28dd038",
                   "54941a3b7f0211b1bb16d0474f9cd299749ae10f67304b8eac427937288c46e1",
                   "53a3c2066f97b4946306da0ea4157fd7b558eb40a66230d974716c7be7ca27a4"),
    ("cubes", 2): ("58897f22df00db699260b56fb532eb2cd3f3148bdd27329b7d490f968db837f3",
                   "e9ba82e8018206316c6ba34f197d699254cab7cbb4065ba0206a678734c5c29b",
                   "438bd9a15702c0d51db5403ebde9941eb5cd6730ba011b00a5fa604da886014b"),
    ("cubes", 4): ("52874ea4ca5b89f33c1927990de96eb69ca22d8f2e82f3972b1cab6b20674eca",
                   "485f393f9426bb268d66388d916e2b80c658a184d8d6c0b3460f97539b257e3d",
                   "8c597fa8f0d65f14171194da9f8150ccba84c9689dd2252e62bf20e6ec4b8fcd"),
    ("kagome", 1): ("b2ec5cf3dff902ee8aa2ad1c71170670d41fdb2e2d6b88cdd112a164988e3cc6",
                    "59743a7ce4f15bf88db600cffd983854eda37702000dd336bfb3083c96c749ed",
                    "420bf8cef474e3de629e75bbb527a357a372e432047b422bd348345757c61be5"),
    ("kagome", 2): ("cd009f9545d95464b4d1290f9038532f837b432977a7b3b1c4982342c36dd933",
                    "1f30cefbab95e004f6d4cc826ba047e80d4f672981f8e627a7cdb543637199c4",
                    "3cab4bbc23c35048eac6cd8867f4413383a5334654c4fbd48c390e0ee8f93ae5"),
    ("kagome", 4): ("1748dd5436c0b8778fce91b9ccc66e1463835a4d0778a2b9f299a1fa159b49b2",
                    "a6cae3e102fb3c13a73d5aa1aca22850097c71c654492a31a4bd10b2f1e86f11",
                    "6eeede6f556051d51caee379d16211f80a89a123f20751477b9d6f1ce0e4acc0"),
    ("ultrarigid", 1): ("fa046c4f106114f85f6874cf813ffe564c057e0fb5595da0f0ca62b34be71084",
                        "3b866948e89974328ca4e1d8aee89959da60f9617fe161d0243274a8d04acd8f",
                        "a4486638bd126b8f1403d25c90f9a541333e99fb673653e5af07ff25ed16f520"),
    ("ultrarigid", 2): ("1f6ffe4fa1f77ce3ed64a4c283282ee849101477a822d757f0ae7134e8130d74",
                        "69f5dd1657025bfb56471b743c7449146491cc9da0ae9b8e87c650cf16eb00ec",
                        "3df26794dc75845c434c1ac8a909ca8a3de2a60bb83acc42c472d839fb3a3a35"),
    ("ultrarigid", 4): ("8e372acb546fc7412bc1fddb3b4322404cf8171772b8dd2466e0906ffc1ca23e",
                        "7982592f16946582f5703c00c57d9cfa5495be28f430cb0726ca9866d4c8a4f9",
                        "f8290d0d2070a18b6541c5edad4e13d947c5f4e9389e6e358c7361fd9ed10957"),
}


def _ladder_file(tmp_path, family, k):
    base = (perimax.fixture("kagome", theta=math.pi / 2) if family == "kagome"
            else perimax.fixture(family))
    fw = perimax.relax(base, perimax.Sublattice(k, k // 2, k))
    c, s = math.cos(0.7), math.sin(0.7)
    rot = np.array([[c, -s], [s, c]])
    fw = perimax.PeriodicFramework(rot @ fw.lattice, fw.positions @ rot.T + [0.3, -0.2],
                                   [fw.edge_key(j) for j in range(fw.m)])
    fw = perimax.parse_framework(perimax.serialize_framework(fw))
    path = tmp_path / ("%s_%dx%d.json" % (family, k, k))
    path.write_text(perimax.serialize_framework(fw) + "\n", encoding="utf-8")
    return str(path)


def test_ladder_reports_pinned(tmp_path, capsys):
    for (family, k), digests in PINNED_LADDER.items():
        path = _ladder_file(tmp_path, family, k)
        for command, digest in zip(("analyze", "ppt", "stress"), digests):
            assert main([command, path, "--quiet"]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (family, k, command)


# sha256 of the `lift` stdout and of its OBJ terrain, over every stress
# index in turn, on each fixture that has a periodic stress (2 x 3 tiles,
# c0 = 1.5) and on the benchmark's ladder lift shapes (built as for
# PINNED_LADDER, 2 x 2 tiles), and of the `svg` stdout and file on each
# fixture (2 x 3 tiles), as the per-slot object face complex wrote them.
PINNED_LIFT = {
    ("cubes", 0): ("113d5f37724454168e23ed16bb65086223fb105f7ec2d5045d301faeb530dc67",
                   "f8be576a23266ebce0234b6d52f296820ac1dd896199d8b3e4244a582ebca8a4"),
    ("cubes", 1): ("9dd525d120c65cfffd9c4156018bc6793f3be8daa394543d62c3b1084b90b233",
                   "e308440abd81f5eb41a3b635c18121e8c152a207e79271e78a07dc9b4fc71399"),
    ("cubes", 2): ("2536b7ff7f5cac2354d720f5f32fee48ac8f6325b5b8ab80b301458f178ab96d",
                   "14e0ad0949d0bbe4dc5d90776be2e62d1609563ddc6a8db9483f2e4b9fb8ea6d"),
    ("cubes", 4): ("1e58a7a418bf183c2437cd7e3115c6a82c66b937632a189cabcecf97ae0112a0",
                   "e411e7fab71aa62237e870b4dacc7d06ebddaf90b3729e214dd025b7bea08dcf"),
    ("ultrarigid", 2): ("e6c6fe10c75d996fb9b44cf9a90300ebe18445149415ae9ab0bb3f2b6a9a25ee",
                        "98cebf3ed5215aebedfd4aafb4f87b4b73c03e878234e1f050b2e9a5416c9fd9"),
    ("ultrarigid", 4): ("cd377325fdae7d25484b2a2f6306564bcdcdcd31ef38169bcb8cc97eaea60b6d",
                        "a51980336ff974da23ddcec6e2186c59f158a9f2969971ba1cc63f43ae7e6aac"),
}
PINNED_SVG = {
    "square_grid": ("180bc969428b079a30bd4113a4d6289afda39a9c30c763fba5fa6b5226002ee1",
                    "d87909174d74b29ed91287c41154318feca6045ed249789cde3d4c48a09e9bf8"),
    "kagome": ("57da0ea9500641aea21c5843f095613aebe71eaaf8d6c555262d5f284a262847",
               "89ed4a7fd027fe3d237adb81ad0b329ba3aac75d815d90f96ef7254afddb9502"),
    "reentrant": ("180bc969428b079a30bd4113a4d6289afda39a9c30c763fba5fa6b5226002ee1",
                  "0368efb8ed0fde4baa4028071af6d0383918460e519157a560c3e273f3cd5b48"),
    "ppt3": ("57da0ea9500641aea21c5843f095613aebe71eaaf8d6c555262d5f284a262847",
             "9d484a630bab7df811278085343e88bdfd9aeb5b60dbfe28e865abfbccd2d12d"),
    "cubes": ("57da0ea9500641aea21c5843f095613aebe71eaaf8d6c555262d5f284a262847",
              "d352a62289e0ef6f8aea5fc40872dfe1eb6af2dd4927fab9fa3256f5dae0ddd9"),
    "ultrarigid": ("1acd7f594c57929c687fac90201b4ae03a15d43732cb84aeaa752781b3f7db2b",
                   "45aaef74062372e8e55244a1ef1ef513c1d41d6b155baa6b83bfb0e8e56de17e"),
}


def _lift_digests(path, tiles):
    """sha256 of the `lift` stdout and of the OBJ text, each over every
    stress index, written to the working directory."""
    reports, terrains = hashlib.sha256(), hashlib.sha256()
    with open(path, encoding="utf-8") as fh:
        fw = perimax.parse_framework(fh.read())
    for index in range(len(perimax.periodic_stress_space(fw))):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["lift", path, "--stress-index", str(index), "--c0", "1.5",
                         "--tiles", tiles, "--out", "terrain.obj", "--quiet"]) == 0
        reports.update(out.getvalue().encode())
        with open("terrain.obj", "rb") as fh:
            terrains.update(fh.read())
    return reports.hexdigest(), terrains.hexdigest()


def test_lift_reports_and_terrains_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for (family, k), digests in PINNED_LIFT.items():
        if k == 0:
            path, tiles = fixture_file(tmp_path, capsys, family), "2x3"
        else:
            path, tiles = _ladder_file(tmp_path, family, k), "2x2"
        assert _lift_digests(path, tiles) == digests, (family, k)


def test_svg_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, digests in PINNED_SVG.items():
        path = fixture_file(tmp_path, capsys, name)
        assert main(["svg", path, "--tiles", "2x3", "--out", "patch.svg", "--quiet"]) == 0
        report = capsys.readouterr().out
        got = (hashlib.sha256(report.encode()).hexdigest(),
               hashlib.sha256((tmp_path / "patch.svg").read_bytes()).hexdigest())
        assert got == digests, name


def test_stress_and_lift_rank_no_blocks_past_2n_plus_1(tmp_path, capsys, monkeypatch):
    """ker R holds the three trivial motions, so rank R <= 2n + 1, and on
    ultrarigid relaxed 4 x 4 (n = 48, m = 112) sigma > 0 is certain:
    `stress` and `lift` rank no character blocks there and print the
    pinned bytes.  Cubes relaxed 4 x 4 (m = 96 = 2n) still ranks them."""
    ranked = []
    block_rank = rigidity._block_rank
    monkeypatch.setattr(rigidity, "_block_rank",
                        lambda fw: ranked.append((fw.n, fw.m)) or block_rank(fw))
    monkeypatch.chdir(tmp_path)
    path = _ladder_file(tmp_path, "ultrarigid", 4)
    assert main(["stress", path, "--quiet"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_LADDER[("ultrarigid", 4)][2]
    assert _lift_digests(path, "2x2") == PINNED_LIFT[("ultrarigid", 4)]
    assert ranked == []
    assert main(["stress", _ladder_file(tmp_path, "cubes", 4), "--quiet"]) == 0
    assert ranked == [(48, 96)]


def test_python_m_perimax():
    proc = _run_module("perimax", "fixture", "ppt3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == perimax.framework_to_dict(perimax.fixture("ppt3"))
    proc = _run_module("perimax", "--help")
    assert proc.returncode == 0 and "ultra" in proc.stdout


def test_ultra_refusals_exit_with_json(tmp_path):
    from perimax import PeriodicFramework, serialize_framework

    from conftest import straddling_framework

    cases = [
        # edgeless: the index-2 relaxations are disconnected
        (PeriodicFramework(np.eye(2), [[0.0, 0.0]], []), 2, "validation",
         "disconnected quotient graph"),
        # closed walks shift by (2, 0) and (0, 1) only
        (PeriodicFramework(np.eye(2), [[0.0, 0.0]], [(0, 0, (2, 0)), (0, 0, (0, 1))]),
         2, "validation", "disconnected quotient graph"),
        (straddling_framework(), 3, "numerical", "rank instability"),
    ]
    for i, (fw, code, kind, message) in enumerate(cases):
        path = tmp_path / ("refused%d.json" % i)
        path.write_text(serialize_framework(fw))
        proc = _run_module("perimax", "ultra", str(path), "--max-index", "4")
        assert proc.returncode == code, i
        assert "Traceback" not in proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["kind"] == kind and message in rep["error"], i


def test_ultra_index_bound_exits_with_json(tmp_path, capsys):
    # the probe's work grows as max_index**3: refused before any character is listed
    path = fixture_file(tmp_path, capsys, "ppt3")
    proc = _run_module("perimax", "ultra", str(path), "--max-index", "100000")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["kind"] == "validation" and "max_index must be between 1 and" in rep["error"]


def test_parser_built_once_per_process(tmp_path, capsys):
    cli.build_parser.cache_clear()
    path = fixture_file(tmp_path, capsys, "kagome")
    first = run(capsys, "ppt", path)
    for _ in range(3):
        assert run(capsys, "ppt", path) == first
    assert cli.build_parser.cache_info().misses == 1
    # after successful calls a bad argv still exits 2 with a fresh parser's usage
    fresh = cli.build_parser.__wrapped__()
    for argv in (["ppt"], ["ppt", path, "--bogus"], ["nosuch"],
                 ["ultra", path, "--max-index", "x"]):
        errors = []
        for parse in (main, fresh.parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and errors[0].startswith("usage: perimax"), argv
    # the options of one call do not carry over to the next
    code, bent = run(capsys, "fixture", "kagome", "--theta", "1.2")
    code, plain = run(capsys, "fixture", "kagome")
    assert plain == perimax.framework_to_dict(perimax.fixture("kagome")) != bent
    assert run(capsys, "ppt", path) == first
    assert cli.build_parser.cache_info().misses == 1


def test_ppt_refuses_straddling_rank(tmp_path, capsys):
    # R of this relaxation reads its rank across a singular value gap ratio
    # of 1.8: no certificate, a numerical failure (3) as JSON
    fw = perimax.relax(straddling_framework(2e-9), perimax.Sublattice(2, 0, 1))
    path = tmp_path / "straddle-relaxed.json"
    path.write_text(perimax.serialize_framework(fw))
    code, rep = run(capsys, "ppt", str(path))
    assert code == 3
    assert rep["kind"] == "numerical" and "rank instability" in rep["error"]


# -- report writer -------------------------------------------------------------

_REPORT_LEAVES = (st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2 ** 63,
                                   -2 ** 63 - 1, 10 ** 30, True, False, None, "",
                                   "\u00e9\u2028\U0001f600\x00\x1f\x7f\"\\/"])
                  | st.floats() | st.integers() | st.text(max_size=8))
_REPORTS = st.recursive(
    _REPORT_LEAVES | st.lists(st.floats(), max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=24)


class _Writes(list):
    """A file that records each write."""

    def write(self, text):
        self.append(text)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(report=_REPORTS)
def test_report_written_once_as_indented_json(report):
    """A report is written in one write, as the text json.dump(report, fh,
    indent=2) and a newline give: NaN and Infinity spellings, -0.0,
    subnormals, integers beyond int64, escaped non-ASCII and control
    characters, empty lists and dicts, nesting and tuples."""
    fh, expected = _Writes(), io.StringIO()
    cli._write_report(fh, report)
    json.dump(report, expected, indent=2)
    assert fh == [expected.getvalue() + "\n"]


def test_report_writer_refuses_what_json_refuses():
    for report in ({"x": np.float32(1.0)}, [object()], {"x": {1, 2}}):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._write_report(_Writes(), report)


# -- malformed input through the command line --------------------------------

_LOADING_COMMANDS = ("analyze", "ppt", "stress", "lift", "ultra", "rigidify", "deform")
_BAD_NUMBERS = st.sampled_from(["x", "", "1,5", "nan", "inf", "-inf", None, True, [], {}, 1e400])


@st.composite
def _broken_documents(draw):
    """A fixture document with one change that no framework survives."""
    fw = perimax.fixture(draw(st.sampled_from(sorted(perimax.FIXTURES))))
    doc = perimax.framework_to_dict(fw)
    vertex = draw(st.sampled_from(doc["vertices"]))
    edge = draw(st.sampled_from(doc["edges"]))
    kind = draw(st.sampled_from(["root key", "vertex key", "edge key", "dimension", "lattice",
                                 "position", "id", "end", "shift", "duplicate", "singular",
                                 "root"]))
    if kind == "root key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "vertex key":
        del vertex[draw(st.sampled_from(["id", "pos"]))]
    elif kind == "edge key":
        del edge[draw(st.sampled_from(["tail", "head", "shift"]))]
    elif kind == "dimension":
        doc["dimension"] = draw(st.sampled_from([3, 1, "2", None, [2], True]))
    elif kind == "lattice":
        doc["lattice"][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(_BAD_NUMBERS)
    elif kind == "position":
        vertex["pos"][draw(st.integers(0, 1))] = draw(_BAD_NUMBERS)
    elif kind == "id":
        vertex["id"] = draw(st.sampled_from([-1, fw.n, "0", True, 0.5, None]))
    elif kind == "end":
        edge[draw(st.sampled_from(["tail", "head"]))] = draw(
            st.sampled_from([-1, fw.n, "0", True, 1.0, None, 2 ** 70]))
    elif kind == "shift":
        edge["shift"][draw(st.integers(0, 1))] = draw(
            st.sampled_from([0.5, 1.0, "1", True, None, 2 ** 63, -2 ** 63, 10 ** 30]))
    elif kind == "duplicate":
        doc["edges"].append(dict(edge))
    elif kind == "singular":
        doc["lattice"] = [doc["lattice"][0], list(doc["lattice"][0])]
    else:
        doc = draw(st.sampled_from([[doc], 2, "framework", None]))
    return json.dumps(doc, indent=draw(st.sampled_from([None, 2]))).encode()


@st.composite
def _broken_bytes(draw):
    """A serialized fixture cut short, or with one byte inserted that no
    JSON framework document can hold (a NUL, invalid UTF-8 or a brace)."""
    name = draw(st.sampled_from(sorted(perimax.FIXTURES)))
    text = perimax.serialize_framework(perimax.fixture(name)).encode()
    at = draw(st.integers(0, len(text) - 1))
    if draw(st.booleans()):
        return text[:at]
    return text[:at] + draw(st.sampled_from([b"\x00", b"\xff", b"{"])) + text[at:]


def _refused(command, data):
    """Run ``command`` in-process on a file holding ``data``; returns the exit
    code, the parsed stdout and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "broken.json")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path])
    return code, json.loads(out.getvalue()), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(_LOADING_COMMANDS), data=_broken_documents() | _broken_bytes())
def test_broken_input_exits_with_json(command, data):
    """Every command that reads a framework answers a broken document or a
    broken file with exit 2 and a JSON validation error, never a traceback."""
    code, rep, err = _refused(command, data)
    assert code == 2
    assert rep["kind"] == "validation" and rep["error"]
    assert "Traceback" not in err


# cap on index * max(n, m) while fuzzing relax: cubes (n = 3, m = 6)
# relaxes to index 10 at most, so no oversize request allocates anything
_FUZZ_UNFOLD_CAP = 60


@st.composite
def _bad_matrices(draw):
    """A ``relax --matrix`` value that must be refused, with a fragment of
    the refusal: entries that are not integers, too few or too many
    entries, a singular matrix, an entry beyond int64, or an index above
    the fuzzing cap; negative entries in every kind."""
    small = st.integers(-9, 9)
    entries = [draw(small) for _ in range(4)]
    kind = draw(st.sampled_from(["integer", "count", "singular", "int64", "oversize"]))
    if kind == "integer":
        entries[draw(st.integers(0, 3))] = draw(st.sampled_from(
            ["1.5", "-2.0", "2e3", "x", "", " ", "0x2", "1/2", "nan", "-inf", "--1"]))
        expected = "four integers"
    elif kind == "count":
        entries = [draw(small) for _ in range(draw(st.sampled_from([1, 2, 3, 5, 6])))]
        expected = "four integers"
    elif kind == "singular":
        # second column a multiple of the first: det = 0
        factor = draw(small)
        entries[2:] = [factor * entries[0], factor * entries[1]]
        expected = "singular"
    elif kind == "int64":
        entries[draw(st.integers(0, 3))] = draw(st.sampled_from([1, -1])) * draw(
            st.integers(2**63, 2**80))
        expected = "64-bit integers"
    else:
        a = draw(st.integers(1, 2**31))
        d = draw(st.integers(-(-11 // a), 2**31))    # index a * d >= 11
        sign = draw(st.sampled_from([1, -1]))
        entries = [sign * a, draw(small), 0, sign * d]
        if draw(st.booleans()):
            entries = entries[2:] + entries[:2]
        expected = "relaxation too large"
    return ",".join(str(e) for e in entries), expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrix=_bad_matrices())
def test_bad_relax_matrix_exits_with_json(matrix):
    """Every refused ``relax --matrix`` answers exit 2 and a JSON validation
    error, never a traceback, and writes no relaxed framework."""
    text, expected = matrix
    relax_module = sys.modules["perimax.relax"]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(relax_module, "_MAX_UNFOLD", _FUZZ_UNFOLD_CAP)
        path, out = os.path.join(tmp, "cubes.json"), os.path.join(tmp, "relaxed.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(perimax.serialize_framework(perimax.fixture("cubes")))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["relax", path, "--matrix=" + text, "--out", out, "--quiet"])
        assert not os.path.exists(out)
    rep = json.loads(stdout.getvalue())
    assert code == 2
    assert rep["kind"] == "validation" and expected in rep["error"]
    assert "Traceback" not in stderr.getvalue()


@pytest.mark.parametrize("entry", ["1e200", "1e308", "1.7e308", "1.7976931348623157e308"])
def test_huge_lattice_exits_with_json(entry):
    """A lattice column longer than 2**510, up to the largest float, is
    refused as out of range by every command that reads a framework:
    exit 2 and a JSON validation error, never an overflow traceback."""
    doc = perimax.framework_to_dict(perimax.fixture("square_grid"))
    doc["lattice"] = [[entry, "0.0"], ["0.0", entry]]
    for command in _LOADING_COMMANDS:
        code, rep, err = _refused(command, json.dumps(doc).encode())
        assert code == 2, command
        assert rep["kind"] == "validation" and "lattice out of range" in rep["error"]
        assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(perimax.FIXTURES))
def test_fixture_stdout_and_out_file(tmp_path, capsys, name):
    """``fixture NAME`` prints the framework document itself, byte for byte;
    with ``--out`` it writes that text and prints a short report."""
    text = perimax.serialize_framework(perimax.fixture(name)) + "\n"
    assert main(["fixture", name]) == 0
    assert capsys.readouterr().out == text
    out = tmp_path / ("%s.json" % name)
    code, rep = run(capsys, "fixture", name, "--out", str(out), "--quiet")
    fw = perimax.fixture(name)
    assert (code, rep) == (0, {"name": name, "n": fw.n, "m": fw.m, "out": str(out)})
    assert out.read_text(encoding="utf-8") == text


def test_relax_report_and_document(tmp_path, capsys):
    """``relax`` prints the sublattice and the unfolded counts, and writes
    the serialized relaxation of the parsed file."""
    path = fixture_file(tmp_path, capsys, "ppt3")
    out = str(tmp_path / "relaxed.json")
    code, rep = run(capsys, "relax", path, "--matrix", "2,1,0,2", "--out", out, "--quiet")
    assert (code, rep) == (0, {"sublattice": {"a": 2, "b": 1, "d": 2, "index": 4},
                               "n": 12, "m": 24, "out": out})
    with open(path, encoding="utf-8") as fh:
        parsed = perimax.parse_framework(fh.read())
    expected = perimax.serialize_framework(perimax.relax(parsed, perimax.Sublattice(2, 1, 2)))
    with open(out, encoding="utf-8") as fh:
        assert fh.read() == expected + "\n"


def test_deform_stdout_summary(tmp_path, capsys):
    """``deform`` without ``--out`` prints its termination and sample count;
    on a framework that is no certified pseudo-triangulation it exits 2 and
    names every failed clause."""
    for name, termination, samples in [
            ("ppt3", "event: pointedness lost at vertex 1", 51),
            ("kagome", "event: pointedness lost at vertex 0", 60)]:
        code, rep = run(capsys, "deform", fixture_file(tmp_path, capsys, name), "--quiet")
        assert (code, rep) == (0, {"termination": termination, "samples": samples,
                                   "out": None}), name
    code, rep = run(capsys, "deform", fixture_file(tmp_path, capsys, "cubes"), "--quiet")
    assert (code, rep) == (2, {
        "error": "not a certified pseudo-triangulation: vertex 0 is not pointed; "
                 "vertex 1 is not pointed; vertex 2 is not pointed; face 0 has 4 corners; "
                 "face 1 has 4 corners; face 2 has 4 corners; periodic stress space has "
                 "dimension 1; flex dimension 2 != 1",
        "kind": "validation"})
