"""The three benchmark workloads: seeded inputs, task lists and output checks.

Each workload is a closed loop of independent user requests ("tasks").  The
seed varies only what leaves the amount of work unchanged: the sublattice
shape at each fixed index, a rigid motion of every input and the task order
(the harness shuffles the order).  Every check below must hold for any seed.

ladder     The ROADMAP size ladder through the CLI (``perimax.cli.main``, run
           in-process): ``ppt3`` relaxed k x k for k = 1, 2, 4, 8 and
           ``cubes``, ``kagome`` and ``ultrarigid`` up to 4 x 4.  One full
           ``check_noncrossing`` at m = 384 dominates; the small tasks expose
           CLI, parsing, file writes and lifting.  Bypasses ``deform`` and the
           insertion search.
ultra      Request-sized relaxation work: ``ultrarigidity_probe(fw, 16)`` on
           five fixtures and ``stress_persists`` sweeps over every sublattice
           of index <= 12.  Dense SVDs and unfolding; no ``topology`` at all.
mechanism  ``find_rigidifying_edges`` and ``continue_path``: hundreds of small
           crossing checks through ``insert_edge_orbit`` plus the pair loop
           of ``expansive_check``.  Uses ``topology`` at small m, the
           opposite regime from ``ladder``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("ladder", "ultra", "mechanism")

# Fixed so every seed does the same work: the kagome path length depends
# strongly on theta (12 to 101 samples over [1.15, 2.0]).
KAGOME_THETA = math.pi / 2
PROBE_INDEX = 16
SWEEP_INDEX = 12
ROUND_TRIP_TOL = 1e-9
DRIFT_RTOL = 1e-10
GRAM_SHAPE = np.array([[2.0, 1.0], [1.0, 2.0]])
PPT3_TOP_EDGE = (1, 2, (0, 1))


@dataclass
class Task:
    """One user request.

    ``run`` performs it and returns its output; ``check`` returns None when
    the output is correct, else the reason; ``digest`` reduces the output to
    a value that traced and untraced runs must reproduce exactly.  ``warm``
    marks the cheap tasks that warm the process before measuring; ``short``
    marks the tasks the harness times again between passes, so the median
    task latency rests on more samples than the passes give.
    """

    name: str
    run: object
    check: object
    digest: object
    warm: bool = False
    short: bool = False


def _moved(pm, fw, rng):
    """The framework under a seeded proper rigid motion."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    shift = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
    edges = [fw.edge_key(k) for k in range(fw.m)]
    return pm.PeriodicFramework(rot @ fw.lattice, fw.positions @ rot.T + shift,
                                edges)


def _base(pm, family):
    if family == "kagome":
        return pm.fixture("kagome", theta=KAGOME_THETA)
    return pm.fixture(family)


def _square_sublattice(pm, k, rng):
    """A k x k-index sublattice (a = d = k) with a seeded shear b."""
    return pm.Sublattice(k, rng.randrange(k), k)


def _index_two(pm, rng):
    return rng.choice(pm.sublattices_of_index(2))


def _write(pm, fw, path):
    """Write the input file and read it back, as a user's program would."""
    text = pm.serialize_framework(fw) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(path, "r", encoding="utf-8") as fh:
        return pm.parse_framework(fh.read())


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _drift(fw, sample):
    """Largest edge-length change of a path sample against the input."""
    def lengths(pos, lat):
        e = pos[fw.heads] + fw.shifts @ lat.T - pos[fw.tails]
        return np.linalg.norm(e, axis=1)
    ref = lengths(fw.positions, fw.lattice)
    cfg = sample.configuration
    return float(np.abs(lengths(cfg.positions, cfg.lattice) - ref).max()), float(ref.max())


# -- ladder -----------------------------------------------------------------

LADDER = (("ppt3", (1, 2, 4, 8)), ("cubes", (1, 2, 4)), ("kagome", (1, 2, 4)),
          ("ultrarigid", (1, 2, 4)))
PPT_FAMILIES = ("ppt3", "kagome")


def _cli(pm, argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pm.cli.main(argv)
        return code, buf.getvalue()
    return run


def _ladder_tasks(pm, rng, workdir):
    tasks = []
    reference = {}

    def counts(label, fw):
        # computed lazily during checking, once per input
        if label not in reference:
            reference[label] = pm.count_identity_check(fw)
        return reference[label]

    for family, ks in LADDER:
        base = _base(pm, family)
        for k in ks:
            label = "%s-%dx%d" % (family, k, k)
            path = os.path.join(workdir, label + ".json")
            fw = _write(pm, _moved(pm, pm.relax(base, _square_sublattice(pm, k, rng)),
                                   rng), path)
            warm = k <= 2
            # every task on an input up to 4 x 4 but analyze at 4 x 4 takes
            # under 50 ms; the median task is among them
            short = k <= 4

            def check_analyze(out, fw=fw, label=label):
                code, text = out
                if code != 0:
                    return "exit %d: %s" % (code, text.strip())
                rep = json.loads(text)
                if not (rep["stress_flex_identity"] and rep["stress_phi_identity"]):
                    return "count identity fails"
                if not rep["noncrossing"]:
                    return "reported crossing"
                if not rep["euler_ok"]:
                    return "Euler count fails"
                if (rep["n"], rep["m"]) != (fw.n, fw.m):
                    return "wrong counts"
                if (rep["sigma"], rep["phi"]) != (counts(label, fw).sigma,
                                                  counts(label, fw).phi):
                    return "sigma/phi differ from count_identity_check"
                return None

            def check_ppt(out, fw=fw, family=family):
                code, text = out
                if code != 0:
                    return "exit %d: %s" % (code, text.strip())
                rep = json.loads(text)
                expect = family in PPT_FAMILIES
                if rep["valid"] != expect:
                    return "certificate valid=%s, expected %s" % (rep["valid"], expect)
                if expect and rep["flex_dim"] != 1:
                    return "relaxed pseudo-triangulation has phi=%d" % rep["flex_dim"]
                return None

            def check_stress(out, fw=fw, label=label):
                code, text = out
                if code != 0:
                    return "exit %d: %s" % (code, text.strip())
                rep = json.loads(text)
                if rep["sigma"] != counts(label, fw).sigma:
                    return "sigma %d differs from count_identity_check" % rep["sigma"]
                for vec in rep["periodic_basis"]:
                    if not pm.check_periodic_stress(fw, np.array(vec)).ok:
                        return "basis vector is not a periodic stress"
                return None

            tasks.append(Task("analyze " + label, _cli(pm, ["analyze", path, "--quiet"]),
                              check_analyze, lambda out: out, warm, k <= 2))
            tasks.append(Task("ppt " + label, _cli(pm, ["ppt", path, "--quiet"]),
                              check_ppt, lambda out: out, warm, short))
            tasks.append(Task("stress " + label, _cli(pm, ["stress", path, "--quiet"]),
                              check_stress, lambda out: out, warm, short))

            sub = _index_two(pm, rng)
            relaxed_path = os.path.join(workdir, label + "-relaxed.json")

            def check_relax(out, fw=fw, path=relaxed_path):
                code, text = out
                if code != 0:
                    return "exit %d: %s" % (code, text.strip())
                written = _read(path)
                got = pm.parse_framework(written)
                if (got.n, got.m) != (2 * fw.n, 2 * fw.m):
                    return "relaxed counts (%d, %d)" % (got.n, got.m)
                if pm.serialize_framework(got) + "\n" != written:
                    return "parse/serialize round trip is not bit-exact"
                return None

            tasks.append(Task(
                "relax " + label,
                _cli(pm, ["relax", path, "--matrix", "%d,%d,0,%d" % (sub.a, sub.b, sub.d),
                          "--out", relaxed_path, "--quiet"]),
                check_relax, lambda out, p=relaxed_path: (out, _read(p)), warm, short))

            # ultrarigid 1x1 has sigma = 0 and so no lifting
            if family == "cubes" or (family == "ultrarigid" and k > 1):
                obj_path = os.path.join(workdir, label + ".obj")

                def check_lift(out, fw=fw, path=obj_path):
                    code, text = out
                    if code != 0:
                        return "exit %d: %s" % (code, text.strip())
                    rep = json.loads(text)
                    terrain = _read(path)
                    if not (terrain.startswith("v ") and "\nf " in terrain):
                        return "terrain file is not an OBJ mesh"
                    lift = pm.PeriodicLifting(np.array(rep["normals"]),
                                              np.array(rep["offsets"]))
                    back = pm.stress_from_lifting(fw, pm.trace_faces(fw), lift)
                    err = float(np.abs(back - np.array(rep["stress"])).max())
                    if err >= ROUND_TRIP_TOL:
                        return "lifting round trip error %.3g" % err
                    return None

                tasks.append(Task(
                    "lift " + label,
                    _cli(pm, ["lift", path, "--tiles", "2x2", "--out", obj_path,
                              "--quiet"]),
                    check_lift, lambda out, p=obj_path: (out, _read(p)), warm, short))
    return tasks


# -- ultra ------------------------------------------------------------------

PROBED = ("ultrarigid", "ppt3", "cubes", "kagome", "square_grid")
SWEPT = (("cubes", 1), ("cubes", 2), ("ultrarigid", 2))


def _probe_digest(rep):
    return rep.ultrarigid, tuple((e.sublattice.a, e.sublattice.b, e.sublattice.d,
                                  e.phi, e.sigma) for e in rep.entries)


def _ultra_tasks(pm, rng, workdir):
    tasks = []
    for family in PROBED:
        fw = _write(pm, _moved(pm, _base(pm, family), rng),
                    os.path.join(workdir, family + ".json"))

        def check_probe(rep, fw=fw, family=family):
            if len(rep.entries) != len(pm.sublattices_up_to(PROBE_INDEX)):
                return "probe has %d entries" % len(rep.entries)
            for e in rep.entries:
                k = e.sublattice.index
                if e.sigma - (e.phi + 3) != k * fw.m - 2 * k * fw.n - 4:
                    return "count identity fails at %r" % (e.sublattice,)
            if rep.ultrarigid != (family == "ultrarigid"):
                return "ultrarigid verdict %s" % rep.ultrarigid
            return None

        tasks.append(Task("probe " + family,
                          lambda fw=fw: pm.ultrarigidity_probe(fw, PROBE_INDEX),
                          check_probe, _probe_digest, family == "square_grid"))

    subs = pm.sublattices_up_to(SWEEP_INDEX)
    for family, index in SWEPT:
        base = _base(pm, family)
        shape = pm.Sublattice(1, 0, 1) if index == 1 else _index_two(pm, rng)
        label = "%s-index%d" % (family, index)
        fw = _write(pm, _moved(pm, pm.relax(base, shape), rng),
                    os.path.join(workdir, label + ".json"))
        stress = pm.periodic_stress_space(fw)[0].values

        def sweep(fw=fw, stress=stress):
            return [pm.stress_persists(fw, stress, sub) for sub in subs]

        def check_sweep(verdicts):
            if len(verdicts) != len(subs) or not all(verdicts):
                return "stress does not persist on every sublattice"
            return None

        tasks.append(Task("sweep " + label, sweep, check_sweep, tuple,
                          index == 1))
    return tasks


# -- mechanism --------------------------------------------------------------


def _search_digest(cands):
    return tuple((c.key, c.derivative) for c in cands)


def _path_digest(path):
    return path.termination, tuple(
        (s.tau, s.gram.tobytes(), s.expansive, s.auxetic) for s in path.samples)


def _mechanism_tasks(pm, rng, workdir):
    ppt3 = pm.fixture("ppt3")
    inputs = {
        "ppt3": _moved(pm, ppt3, rng),
        "kagome": _moved(pm, _base(pm, "kagome"), rng),
        "ppt3-index2": _moved(pm, pm.relax(ppt3, _index_two(pm, rng)), rng),
        "ppt3-2x2": _moved(pm, pm.relax(ppt3, _square_sublattice(pm, 2, rng)), rng),
    }
    fws = {label: _write(pm, fw, os.path.join(workdir, label + ".json"))
           for label, fw in inputs.items()}

    def check_search(cands, fw, top=None):
        if top is not None and cands[0].key != top:
            return "top edge %r, expected %r" % (cands[0].key, top)
        mags = [abs(c.derivative) for c in cands]
        if mags != sorted(mags, reverse=True):
            return "candidates not ranked by |derivative|"
        if pm.count_identity_check(pm.insert_edge_orbit(fw, cands[0])).phi != 0:
            return "top insertion leaves a flex"
        return None

    def check_path(path, fw, kagome=False):
        for s in path.samples:
            if s.expansive and not s.auxetic:
                return "expansive but not auxetic at tau=%g" % s.tau
            drift, scale = _drift(fw, s)
            if drift >= DRIFT_RTOL * max(1.0, scale):
                return "edge-length drift %.3g at tau=%g" % (drift, s.tau)
        if kagome:
            if not path.termination.startswith("event"):
                return "kagome path ended without a ppt-boundary event"
            first = path.samples[0].gram
            if np.abs(first - (1.0 + math.cos(KAGOME_THETA)) * GRAM_SHAPE).max() > 1e-12:
                return "initial Gram matrix differs from the closed form"
            for s in path.samples:
                c = s.gram[0, 0] / 2.0
                if np.abs(s.gram - c * GRAM_SHAPE).max() > 1e-9 * max(1.0, c):
                    return "Gram matrix leaves (1 + cos theta)[[2,1],[1,2]]"
        return None

    searches = (("ppt3", 2, PPT3_TOP_EDGE), ("kagome", 2, None), ("ppt3-index2", 1, None))
    paths = (("ppt3", 100), ("kagome", 100), ("ppt3-2x2", 40))
    tasks = []
    for label, cutoff, top in searches:
        fw = fws[label]
        tasks.append(Task(
            "search %s cutoff %d" % (label, cutoff),
            lambda fw=fw, cutoff=cutoff: pm.find_rigidifying_edges(fw, cutoff=cutoff),
            lambda out, fw=fw, top=top: check_search(out, fw, top),
            _search_digest, label != "ppt3-index2"))
    for label, steps in paths:
        fw = fws[label]
        tasks.append(Task(
            "path %s %d steps" % (label, steps),
            lambda fw=fw, steps=steps: pm.continue_path(fw, steps=steps, ds=1e-2),
            lambda out, fw=fw, kag=label == "kagome": check_path(out, fw, kag),
            _path_digest, label != "ppt3-2x2"))
    return tasks


def setup(pm, workload, rng, workdir):
    """Generate the workload's seeded inputs, write them under ``workdir``
    and return its task list."""
    builders = {"ladder": _ladder_tasks, "ultra": _ultra_tasks,
                "mechanism": _mechanism_tasks}
    return builders[workload](pm, rng, workdir)
