"""Measurement loop of the benchmark: set-up, warm-up, passes, metrics.

One process runs one workload as a closed loop: a single client issues the
next task only after the previous one returned.  A pass is the workload's
whole task list in a seeded order; after each pass the tasks marked short are
timed again in SHORT_ROUNDS further rounds.  The number of passes is fixed by
``--seconds`` and the workload's nominal pass time, so two commits compared
with the same settings do the same work and take the tail percentile over the
same sample count.

A shared host's speed can drift by up to 1.75x within minutes, for
interpreted and numpy work alike (NOTES.md).  So each timed task and set-up is bracketed by a fixed
reference kernel, and its time is scaled to the host speed at which that
kernel takes REFERENCE_S: a task timed while the host ran 1.3x slow is
reported at 1/1.3 of its raw time.  The kernel runs only Python and numpy,
never perimax, so no change to perimax can move it.  Raw figures are printed
beside the scaled ones.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import workloads
from spans import Tracer

# Seconds one warm pass and its short rounds took on the machine the
# benchmark was defined on (2 shared vCPUs, see NOTES.md); only used to turn
# --seconds into passes.
NOMINAL_PASS_S = {"ladder": 7.0, "ultra": 3.2, "mechanism": 3.0}
SHORT_ROUNDS = 2
SETUP_REPEATS = 21
# Seconds the reference kernel takes (best of REFERENCE_REPS) at the host
# speed all times are scaled to: about its median on the machine the
# benchmark was defined on.
REFERENCE_S = 2.5e-4
REFERENCE_REPS = 3
# fixed inputs of the reference kernel, made without numpy.random, whose
# import alone would add megabytes to the peak RSS
_REF_POINTS = np.column_stack((np.cos(0.7 * np.arange(48)), np.sin(1.3 * np.arange(48))))
_REF_MATRIX = (np.arange(1200) * 7919 % 1009 / 1009.0).reshape(40, 30)
MIN_TAIL_BEYOND = 10
MAX_FAILURE_LINES = 5


def tail_percentile(latencies, beyond=MIN_TAIL_BEYOND):
    """Highest percentile of ``latencies`` with at least ``beyond`` samples
    above it (nearest rank).

    Returns (value, percentile, sample count).  With N samples the value is
    the (N - beyond)-th smallest and the percentile 100 (N - beyond) / N.
    """
    n = len(latencies)
    if n <= beyond:
        raise ValueError("need more than %d samples, got %d" % (beyond, n))
    ordered = sorted(latencies)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def _reference_kernel():
    """The interpreter, numpy broadcasting and a dense SVD, the three kinds
    of work perimax does, in about a quarter of a millisecond."""
    counts = {}
    for i in range(400):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + i
    diff = _REF_POINTS[:, None, :] - _REF_POINTS[None, :, :]
    cross = diff[..., 0] * diff[..., 1].T
    np.linalg.svd(_REF_MATRIX, compute_uv=False)
    return len(counts) + float(cross.sum())


def reference_time():
    """Best of REFERENCE_REPS timings of the reference kernel, in seconds."""
    best = math.inf
    for _ in range(REFERENCE_REPS):
        start = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def median_task_latency(by_task):
    """Median over tasks of each task's median latency, so every task of the
    list counts once however often it was timed."""
    return statistics.median(statistics.median(v) for v in by_task.values())


def passes_for(workload, seconds, n_tasks):
    """Measured passes: about ``seconds`` of nominal work, and enough tasks
    for the tail percentile."""
    need_tail = math.ceil((MIN_TAIL_BEYOND + 1) / n_tasks)
    return max(2, need_tail, round(seconds / NOMINAL_PASS_S[workload]))


def environment():
    """Interpreter, numpy, BLAS and CPU facts that change the timings."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def import_fresh(src):
    """Import perimax (and its CLI) from ``src`` as a first import would."""
    for name in [n for n in sys.modules if n == "perimax" or n.startswith("perimax.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    pm = importlib.import_module("perimax")
    importlib.import_module("perimax.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(pm.__file__))) != src:
        raise ImportError("perimax was imported from %s, not from %s" % (pm.__file__, src))
    return pm


def setup_once(src, workload, seed, workdir):
    start = time.perf_counter()
    pm = import_fresh(src)
    tasks = workloads.setup(pm, workload, random.Random(seed), workdir)
    return time.perf_counter() - start, pm, tasks


def run_pass(tasks, rng, tracer=None, probe=False):
    """Run every task once in a seeded order, then check the outputs.

    Returns (pass seconds, [(task, latency, scale, digest, failure or None)]).
    With ``probe`` the reference kernel is timed before the first task and
    after every task, and ``scale`` is REFERENCE_S over the mean of the two
    timings around the task; otherwise it is 1.
    """
    order = list(tasks)
    rng.shuffle(order)
    done = []
    refs = [reference_time()] if probe else []
    start = time.perf_counter()
    for i, task in enumerate(order):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = task.run()
            else:
                with tracer.task(i):
                    out = task.run()
            err = None
        except Exception as exc:  # a failed request is counted, not fatal
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        latency = time.perf_counter() - t0
        if probe:
            refs.append(reference_time())
        done.append((task, latency, out, err))
    wall = time.perf_counter() - start
    results = []
    for i, (task, latency, out, err) in enumerate(done):
        scale = 2.0 * REFERENCE_S / (refs[i] + refs[i + 1]) if probe else 1.0
        digest = None
        if err is None:
            try:
                err = task.check(out)
                digest = task.digest(out)
            except Exception as exc:
                err = "check raised %s: %s" % (type(exc).__name__, exc)
        results.append((task, latency, scale, digest, err))
    return wall, results


def _layer_metrics(tracer, walls_untraced, walls_traced):
    """Per-layer metrics of the traced passes (values per pass)."""
    passes = len(walls_traced)
    spans = tracer.self_times()
    counters = tracer.counters
    layers = tracer.layer_self_times()

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1] / passes

    def count(name):
        return counters.get(name, 0) / passes

    attempts = count("pseudotri.insert.calls")
    accepted = count("pseudotri.insert.accepted")
    untraced = statistics.median(walls_untraced)
    traced = statistics.median(walls_traced)
    # layer self times are totals over the traced passes, so compare them
    # with the mean traced pass, not the median
    mean_traced = sum(walls_traced) / passes
    layer_sum = sum(v for k, v in layers.items() if k != "bench") / passes
    m = {
        "topology.check_noncrossing.calls": (count("topology.check_noncrossing.calls"), "count"),
        "topology.check_noncrossing.self_s": (self_s("topology.check_noncrossing"), "s"),
        "topology.check_noncrossing.edge_pairs": (
            count("topology.check_noncrossing.edge_pairs"), "count"),
        "topology.trace_faces.calls": (count("topology.trace_faces.calls"), "count"),
        "topology.trace_faces.self_s": (self_s("topology.trace_faces"), "s"),
        "pseudotri.insert.attempts": (attempts, "count"),
        "pseudotri.insert.accepted": (accepted, "count"),
        "pseudotri.insert.accept_ratio": (accepted / attempts if attempts else 0.0, "ratio"),
        "pseudotri.find_rigidifying_edges.self_s": (
            self_s("pseudotri.find_rigidifying_edges"), "s"),
        "pseudotri.certify_ppt.self_s": (self_s("pseudotri.certify_ppt"), "s"),
        "deform.continue_path.self_s": (self_s("deform.continue_path"), "s"),
        "deform.expansive_check.calls": (count("deform.expansive_check.calls"), "count"),
        "deform.expansive_check.self_s": (self_s("deform.expansive_check"), "s"),
        "deform.expansive_pairs": (count("deform.expansive_pairs"), "count"),
        "deform.samples": (count("deform.samples"), "count"),
        "deform.newton_solves": (count("deform.newton_solves"), "count"),
        "deform.flex_tangent.self_s": (self_s("deform.flex_tangent"), "s"),
        "rigidity.rigidity_matrix.calls": (count("rigidity.rigidity_matrix.calls"), "count"),
        "rigidity.rigidity_matrix.self_s": (self_s("rigidity.rigidity_matrix"), "s"),
        "rigidity.rank.self_s": (self_s("rigidity.rank"), "s"),
        "rigidity.svd.calls": (count("rigidity.svd.calls"), "count"),
        "rigidity.svd.flops_est": (count("rigidity.svd.flops_est"), "flop"),
        "rigidity.check_periodic_stress.self_s": (
            self_s("rigidity.check_periodic_stress"), "s"),
        "relax.relax.calls": (count("relax.relax.calls"), "count"),
        "relax.relax.self_s": (self_s("relax.relax"), "s"),
        "relax.unfolded_edges": (count("relax.unfolded_edges"), "count"),
        "relax.ultrarigidity_probe.self_s": (self_s("relax.ultrarigidity_probe"), "s"),
        "core.build.calls": (count("core.build.calls"), "count"),
        "core.build.self_s": (self_s("core.build"), "s"),
        "core.parse.self_s": (self_s("core.parse"), "s"),
        "core.serialize.self_s": (self_s("core.serialize"), "s"),
        "lifting.export_terrain.bytes": (count("lifting.export_terrain.bytes"), "bytes"),
        "cli.main.calls": (count("cli.main.calls"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.wall_s": (traced, "s"),
        "trace.overhead_frac": ((traced - untraced) / untraced, "ratio"),
        "trace.unattributed_frac": ((mean_traced - layer_sum) / mean_traced, "ratio"),
    }
    for layer in ("cli", "core", "topology", "rigidity", "lifting", "pseudotri",
                  "relax", "deform", "bench"):
        m[layer + ".self_s"] = (layers.get(layer, 0.0) / passes, "s")
    return m


def run_workload(src, workload, seed, seconds, traced):
    """Measure one workload; returns (result line dict, report lines)."""
    lines = ["env " + json.dumps(environment(), sort_keys=True)]
    root = os.path.dirname(src)
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=root)
    try:
        _, pm, tasks = setup_once(src, workload, seed, workdir)
        order_rng = random.Random("order-%d" % seed)
        warm = [t for t in tasks if t.warm]
        run_pass(warm, order_rng)
        passes = passes_for(workload, seconds, len(tasks))
        failures = []
        # raw and scaled figures side by side; the tail is read over the
        # full passes only, so its sample count is fixed
        latencies = {"raw": [], "scaled": []}
        by_task = {"raw": {}, "scaled": {}}
        walls = {"raw": [], "scaled": []}
        walls_traced = []
        attempted = failed = 0
        tracer = Tracer() if traced else None

        def account(results, timed=True, full=True):
            nonlocal attempted, failed
            for task, latency, scale, _, err in results:
                attempted += 1
                for kind, value in (("raw", latency), ("scaled", latency * scale)):
                    if timed:
                        by_task[kind].setdefault(task.name, []).append(value)
                    if timed and full:
                        latencies[kind].append(value)
                if err is not None:
                    failed += 1
                    failures.append("%s: %s" % (task.name, err))
            if timed and full:
                walls["raw"].append(sum(r[1] for r in results))
                walls["scaled"].append(sum(r[1] * r[2] for r in results))

        if not traced:
            short = [t for t in tasks if t.short]
            for _ in range(passes):
                account(run_pass(tasks, order_rng, probe=True)[1])
                for _ in range(SHORT_ROUNDS if short else 0):
                    account(run_pass(short, order_rng, probe=True)[1], full=False)
        else:
            # untraced and traced passes alternate; the same seeded order is
            # replayed so each traced output can be compared with its twin
            for _ in range(max(1, passes // 2)):
                state = order_rng.getstate()
                _, plain = run_pass(tasks, order_rng, probe=True)
                account(plain)
                order_rng.setstate(state)
                with tracer.installed(pm):
                    wall, results = run_pass(tasks, order_rng, tracer)
                walls_traced.append(wall)
                account(results, timed=False)
                for (task, _, _, want, _), (_, _, _, got, err) in zip(plain, results):
                    if err is None and got != want:
                        failed += 1
                        failures.append("%s: traced output differs" % task.name)
            layer = _layer_metrics(tracer, walls["raw"], walls_traced)

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Set-up is timed again in the warm process: timed at process start,
        # this ~0.1 s figure varied between runs twice as much as wall_s.
        setups = {"raw": [], "scaled": []}
        for _ in range(SETUP_REPEATS):
            before = reference_time()
            took = setup_once(src, workload, seed, workdir)[0]
            scale = 2.0 * REFERENCE_S / (before + reference_time())
            setups["raw"].append(took)
            setups["scaled"].append(took * scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def timings(kind):
        try:
            tail, pct, n = tail_percentile(latencies[kind])
        except ValueError:  # too few untraced samples in a short traced run
            tail, pct, n = math.nan, math.nan, len(latencies[kind])
        return {
            "setup_s": (statistics.median(setups[kind]), "s"),
            "wall_s": (statistics.median(walls[kind]), "s"),
            "task_p50_ms": (1000.0 * median_task_latency(by_task[kind]), "ms"),
            "task_tail_ms": (1000.0 * tail, "ms"),
        }, pct, n

    e2e, pct, n = timings("scaled")
    raw = timings("raw")[0]
    e2e["fail_frac"] = (failed / attempted, "ratio")
    e2e["peak_rss_mb"] = (peak_rss_mb, "MB")
    lines.append("%s: %d tasks per pass, %d measured passes, seed %d%s" % (
        workload, len(tasks), len(walls["raw"]) + len(walls_traced), seed,
        ", traced" if traced else ""))
    for name, (value, unit) in e2e.items():
        note = ""
        if name in raw:
            note = "  (raw %.6g)" % raw[name][0]
        if name == "task_tail_ms":
            note += "  (p%.1f of %d samples, %d beyond)" % (pct, n, MIN_TAIL_BEYOND)
        elif name == "task_p50_ms":
            note += "  (median of %d task medians over %d samples)" % (
                len(by_task["raw"]), sum(len(v) for v in by_task["raw"].values()))
        elif name == "fail_frac":
            note = "  (%d of %d)" % (failed, attempted)
        lines.append("%s %-14s %12.6g %s%s" % (workload, name, value, unit, note))
    for kind in ("raw", "scaled"):
        lines.append("%s %s pass walls (s): %s" % (
            workload, kind, " ".join("%.4f" % w for w in walls[kind])))
    lines.extend("FAILED " + f for f in failures[:MAX_FAILURE_LINES])
    if traced:
        for name, (value, unit) in layer.items():
            lines.append("%s %-44s %14.6g %s" % (workload, name, value, unit))
        metrics = layer
    else:
        metrics = {k: v for k, v in e2e.items() if k != "fail_frac"}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines
