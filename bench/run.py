"""perimax benchmark: one command, three workloads, JSON result line.

    python3 bench/run.py --workload ladder --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the root of a source checkout; perimax is imported from its
``src`` directory.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer metrics of a traced run (see NOTES.md).  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  ``--workload all`` runs each workload in its own process.
"""

import os

# BLAS threads are pinned before numpy loads: with the variable unset,
# OpenBLAS spreads small SVDs over every core, and the median and tail of a
# task both move (NOTES.md has the measurement).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args):
    """Each workload in a fresh process, so peak RSS and set-up are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%s exited with %d" % (workload, proc.returncode), file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "perimax", "__init__.py")):
        print("no perimax sources under %s: run from a perimax checkout" % SRC,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    import harness

    result, lines = harness.run_workload(SRC, args.workload, args.seed,
                                         args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
