"""Layer figures to hold against the ROADMAP Baseline, and the BLAS-thread note.

    python3 bench/crosscheck.py            # both parts, about a minute

Prints the median (with min and max) of repeated calls of the layer
operations the Baseline quotes, then times ``count_identity_check`` on
``ppt3`` relaxed 4 x 4 in two child processes: one with the BLAS thread
variables unset and one with them pinned to 1.  NOTES.md keeps the results.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_CALLS = 300


def _timed(fn, reps):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), min(times), max(times)


def _perimax():
    sys.path.insert(0, SRC)
    import perimax

    return perimax


def baseline():
    pm = _perimax()
    ppt3 = pm.fixture("ppt3")
    m96 = pm.relax(ppt3, pm.Sublattice(4, 0, 4))
    m384 = pm.relax(ppt3, pm.Sublattice(8, 0, 8))
    ultra = pm.fixture("ultrarigid")
    rows = [
        ("check_noncrossing m=96", "0.28 s", lambda: pm.check_noncrossing(m96), 5),
        ("check_noncrossing m=384", "4.69 s", lambda: pm.check_noncrossing(m384), 3),
        ("continue_path ppt3 100 steps", "0.26 s",
         lambda: pm.continue_path(ppt3, steps=100), 5),
        ("ultrarigidity_probe index <= 4", "0.013 s",
         lambda: pm.ultrarigidity_probe(ultra, 4), 20),
        ("ultrarigidity_probe index <= 6", "0.033 s",
         lambda: pm.ultrarigidity_probe(ultra, 6), 20),
    ]
    print("%-32s %10s %10s %10s %10s" % ("operation", "baseline", "median", "min", "max"))
    for label, quoted, fn, reps in rows:
        fn()
        med, lo, hi = _timed(fn, reps)
        print("%-32s %10s %9.4fs %9.4fs %9.4fs" % (label, quoted, med, lo, hi))


def blas_child():
    pm = _perimax()
    fw = pm.relax(pm.fixture("ppt3"), pm.Sublattice(4, 0, 4))
    pm.count_identity_check(fw)
    med, lo, hi = _timed(lambda: pm.count_identity_check(fw), BLAS_CALLS)
    print(json.dumps({"median_ms": 1e3 * med, "min_ms": 1e3 * lo, "max_ms": 1e3 * hi}))


def blas_threads():
    print("count_identity_check, ppt3 relaxed 4x4 (n=48, m=96), %d calls" % BLAS_CALLS)
    for label, value in (("unset", None), ("pinned to 1", "1")):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        if value is not None:
            env.update({var: value for var in BLAS_VARS})
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--blas-child"],
                              env=env, stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print("  BLAS threads %-12s median %7.3f ms  min %7.3f ms  max %8.3f ms"
              % (label, res["median_ms"], res["min_ms"], res["max_ms"]))


if __name__ == "__main__":
    if sys.argv[1:] == ["--blas-child"]:
        blas_child()
    else:
        baseline()
        blas_threads()
