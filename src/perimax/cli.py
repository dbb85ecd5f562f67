"""Command-line interface.

All reports are JSON on stdout; informational logs go to stderr and are
suppressed by --quiet.  Exit codes: 0 success, 2 validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import lru_cache

from . import fixtures as fixtures_mod
from .core import (
    FrameworkError,
    NumericalError,
    parse_framework,
    serialize_framework,
)
from .deform import continue_path
from .lifting import classify_folds, export_terrain, lifting_from_stress
from .pseudotri import certify_ppt, find_rigidifying_edges, insert_edge_orbit
from .relax import Sublattice, relax, ultrarigidity_probe
from .rigidity import (
    count_identity_check,
    invariant_equilibrium_stress_space,
    periodic_stress_space,
)
from .topology import check_noncrossing, render_svg, trace_faces

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_framework(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise FrameworkError("cannot read %s: %s" % (path, exc)) from None


@contextmanager
def _writing(args):
    """Open ``args.out`` for writing, log it once written; an OSError is a FrameworkError."""
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise FrameworkError("cannot write %s: %s" % (args.out, exc)) from None
    _log(args, "wrote %s" % args.out)


def _save_framework(fw, args):
    with _writing(args) as fh:
        fh.write(serialize_framework(fw) + "\n")


_QUOTE = json.encoder.encode_basestring_ascii
# json's spellings of the floats whose repr is not a JSON number
_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x):
    text = float.__repr__(x)
    return _SPECIAL_FLOATS.get(text, text)


def _json_text(value, indent="\n"):
    """The text of ``json.dumps(value, indent=2)`` for a report of dicts
    with string keys, lists, tuples, strings, numbers, booleans and None.
    ``indent`` is a newline and the indentation of ``value``; a list of
    plain floats is joined in one pass."""
    if isinstance(value, str):
        return _QUOTE(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {float}:
            text = ("," + inner).join(map(repr, value))
            if "n" in text:    # "nan" or "inf": no finite repr has an n
                text = ("," + inner).join(map(_float_text, value))
        else:
            text = ("," + inner).join([_json_text(v, inner) for v in value])
        return "[" + inner + text + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_QUOTE(k) + ": " + _json_text(v, inner) for k, v in value.items()]) + indent + "}"
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def _write_report(fh, report):
    """Write a report as ``json.dump(report, fh, indent=2)`` and a newline
    would, in one write."""
    fh.write(_json_text(report) + "\n")


def _emit(report):
    _write_report(sys.stdout, report)


def _log(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def _tiles(text):
    try:
        r, c = text.lower().split("x")
        return int(r), int(c)
    except ValueError:
        raise FrameworkError("tile range must look like RxC, got %r" % text) from None


# -- subcommands -----------------------------------------------------------


def cmd_analyze(args, fw):
    rep = count_identity_check(fw)
    noncrossing = check_noncrossing(fw)
    n_star = None
    if noncrossing.ok:
        n_star = trace_faces(fw).n_faces
    return {
        "n": rep.n,
        "m": rep.m,
        "n_star": n_star,
        "sigma": rep.sigma,
        "delta": rep.delta,
        "phi": rep.phi,
        "noncrossing": noncrossing.ok,
        # trace_faces refuses every Euler violation: traced faces give n - m + n_star = 0
        "euler_ok": True if noncrossing.ok else None,
        "stress_flex_identity": rep.stress_flex_identity,
        "stress_phi_identity": rep.stress_phi_identity,
    }


def cmd_ppt(args, fw):
    cert = certify_ppt(fw)
    return {
        "valid": cert.valid,
        "counts": {"n": cert.counts[0], "m": cert.counts[1], "n_star": cert.counts[2]},
        "pointed": cert.pointed,
        "pseudo_triangular": cert.pseudo_triangular,
        "stress_free": cert.stress_free,
        "flex_dim": cert.flex_dim,
        "failures": cert.failures,
    }


def cmd_stress(args, fw):
    periodic = periodic_stress_space(fw)
    invariant = invariant_equilibrium_stress_space(fw)
    return {
        "sigma": len(periodic),
        "invariant_equilibrium_dim": len(invariant),
        "periodic_basis": [s.values.tolist() for s in periodic],
        "invariant_basis": [
            {"values": s.values.tolist(), "is_periodic": s.is_periodic}
            for s in invariant
        ],
    }


def cmd_lift(args, fw):
    fc = trace_faces(fw)
    basis = periodic_stress_space(fw)
    if not basis:
        raise FrameworkError("framework has no periodic stress (sigma = 0)")
    if not 0 <= args.stress_index < len(basis):
        raise FrameworkError(
            "stress index %d out of range [0, %d)" % (args.stress_index, len(basis)))
    s = basis[args.stress_index].values
    lift = lifting_from_stress(fw, fc, s, c0=args.c0)
    if args.out:
        terrain = export_terrain(fw, fc, lift, _tiles(args.tiles))    # refuse before opening
        with _writing(args) as fh:
            fh.write(terrain)
    folds = classify_folds(fw, s)
    return {
        "stress_index": args.stress_index,
        "c0": args.c0,
        "normals": lift.normals.tolist(),
        "offsets": lift.offsets.tolist(),
        "stress": s.tolist(),
        "folds": [f.fold for f in folds],
        "terrain": args.out,
    }


def cmd_svg(args, fw):
    fc = trace_faces(fw)
    svg = render_svg(fw, fc, _tiles(args.tiles))
    with _writing(args) as fh:
        fh.write(svg)
    return {"faces": fc.n_faces, "tiles": args.tiles, "out": args.out}


def cmd_relax(args, fw):
    try:
        entries = [int(x) for x in args.matrix.split(",")]
        if len(entries) != 4:
            raise ValueError
    except ValueError:
        raise FrameworkError(
            "--matrix expects four integers a,b,0,d (row-listed columns)") from None
    sub = Sublattice.from_matrix([[entries[0], entries[2]], [entries[1], entries[3]]])
    unfolded = relax(fw, sub)
    _save_framework(unfolded, args)
    return {
        "sublattice": {"a": sub.a, "b": sub.b, "d": sub.d, "index": sub.index},
        "n": unfolded.n,
        "m": unfolded.m,
        "out": args.out,
    }


def cmd_ultra(args, fw):
    rep = ultrarigidity_probe(fw, args.max_index)
    return {
        "max_index": rep.max_index,
        "ultrarigid_up_to_bound": rep.ultrarigid,
        "note": "bounded falsifier: indices above max_index are not probed",
        "entries": [
            {"a": e.sublattice.a, "b": e.sublattice.b, "d": e.sublattice.d,
             "index": e.sublattice.index, "phi": e.phi, "sigma": e.sigma}
            for e in rep.entries
        ],
        "first_failure": None if rep.first_failure is None else {
            "a": rep.first_failure.sublattice.a,
            "b": rep.first_failure.sublattice.b,
            "d": rep.first_failure.sublattice.d,
            "phi": rep.first_failure.phi,
        },
    }


def cmd_rigidify(args, fw):
    cands = find_rigidifying_edges(fw, cutoff=args.cutoff)
    top = cands[0]
    new_fw = insert_edge_orbit(fw, top)
    if args.out:
        _save_framework(new_fw, args)
    return {
        "inserted": {"tail": top.tail, "head": top.head, "shift": list(top.shift),
                     "derivative": top.derivative},
        "candidates": [
            {"tail": c.tail, "head": c.head, "shift": list(c.shift),
             "derivative": c.derivative}
            for c in cands[:10]
        ],
        "out": args.out,
    }


def cmd_deform(args, fw):
    checks = [c.strip() for c in args.check.split(",") if c.strip()]
    unknown = set(checks) - {"expansive", "auxetic"}
    if unknown:
        raise FrameworkError("unknown checks: %s" % ", ".join(sorted(unknown)))
    path = continue_path(fw, steps=args.steps, ds=args.ds, cutoff=args.cutoff)
    samples = []
    for s in path.samples:
        rec = {
            "tau": s.tau,
            "lattice": s.configuration.lattice.tolist(),
            "gram": s.gram.tolist(),
            "gram_rate": None if s.gram_rate is None else s.gram_rate.tolist(),
        }
        if "expansive" in checks:
            rec["expansive"] = s.expansive
        if "auxetic" in checks:
            rec["auxetic"] = s.auxetic
        samples.append(rec)
    report = {"termination": path.termination, "samples": samples}
    if args.out:
        with _writing(args) as fh:
            _write_report(fh, report)
    return {"termination": path.termination, "samples": len(samples), "out": args.out}


def cmd_fixture(args, fw):
    params = {key: getattr(args, key) for key in ("theta", "alpha", "beta")
              if getattr(args, key) is not None}
    fw = fixtures_mod.fixture(args.name, **params)
    if args.out:
        _save_framework(fw, args)
        return {"name": args.name, "n": fw.n, "m": fw.m, "out": args.out}
    sys.stdout.write(serialize_framework(fw) + "\n")
    return None


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process for every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="perimax",
        description="Planar periodic framework analysis: rigidity, stresses, "
                    "liftings, pseudo-triangulations, relaxations and "
                    "deformation paths.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress non-JSON logs on stderr")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("analyze", help="counts, spectral dimensions and identities")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ppt", help="pseudo-triangulation certificate")
    p.add_argument("file")
    p.set_defaults(func=cmd_ppt)

    p = sub.add_parser("stress", help="periodic and invariant equilibrium stress bases")
    p.add_argument("file")
    p.set_defaults(func=cmd_stress)

    p = sub.add_parser("lift", help="build a lifting from a periodic stress")
    p.add_argument("file")
    p.add_argument("--stress-index", type=int, default=0)
    p.add_argument("--c0", type=float, default=0.0)
    p.add_argument("--tiles", default="1x1")
    p.add_argument("--out", default=None, help="OBJ terrain output path")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("svg", help="render a patch with per-orbit face colors")
    p.add_argument("file")
    p.add_argument("--tiles", default="3x3")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_svg)

    p = sub.add_parser("relax", help="unfold to a finite-index sublattice")
    p.add_argument("file")
    p.add_argument("--matrix", required=True, help="a,b,0,d column entries")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_relax)

    p = sub.add_parser("ultra", help="probe rigidity under all relaxations up to an index")
    p.add_argument("file")
    p.add_argument("--max-index", type=int, default=4)
    p.set_defaults(func=cmd_ultra)

    p = sub.add_parser("rigidify", help="insert the top rigidifying edge orbit")
    p.add_argument("file")
    p.add_argument("--cutoff", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rigidify)

    p = sub.add_parser("deform", help="trace the one-parameter deformation path")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--ds", type=float, default=1e-2)
    p.add_argument("--cutoff", type=int, default=2)
    p.add_argument("--check", default="expansive,auxetic")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("fixture", help="generate an example framework")
    p.add_argument("name", choices=sorted(fixtures_mod.FIXTURES))
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fixture)

    return parser


# Options whose spaced value may start with "-" without being a plain number
# ("--matrix -2,0,0,3", "--ds -1e-3"), which argparse would take for an option.
_SIGNED_VALUE_OPTIONS = ("--matrix", "--ds", "--c0", "--theta", "--alpha", "--beta")


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # join each such value to its flag
    for at in reversed(range(len(argv) - 1)):
        if argv[at] in _SIGNED_VALUE_OPTIONS:
            argv[at:at + 2] = [argv[at] + "=" + argv[at + 1]]
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args, _load(args.file) if "file" in args else None)
    except FrameworkError as exc:
        _emit({"error": str(exc), "kind": "validation"})
        return EXIT_VALIDATION
    except NumericalError as exc:
        _emit({"error": str(exc), "kind": "numerical"})
        return EXIT_NUMERICAL
    if report is not None:
        _emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
