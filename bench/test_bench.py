"""Tests of the benchmark itself: statistics, span arithmetic, seeding and
tracer hygiene.  Run with ``python3 -m pytest bench``."""

import importlib
import os
import random
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for _path in (HERE, SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import harness  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, svd_flops_est  # noqa: E402


@pytest.fixture(scope="module")
def pm():
    pm = importlib.import_module("perimax")
    importlib.import_module("perimax.cli")
    return pm


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, n = harness.tail_percentile([float(x) for x in range(1, 101)])
    assert (value, pct, n) == (90.0, 90.0, 100)
    shuffled = list(range(1, 12))
    random.Random(3).shuffle(shuffled)
    assert harness.tail_percentile(shuffled)[0] == 1
    with pytest.raises(ValueError):
        harness.tail_percentile(list(range(10)))


def test_passes_give_enough_tail_samples():
    assert harness.passes_for("mechanism", 0.1, 6) == 2
    assert harness.passes_for("mechanism", 0.1, 1) == 11
    assert harness.passes_for("ladder", 10 * harness.NOMINAL_PASS_S["ladder"], 57) == 10


def test_median_task_latency_counts_each_task_once():
    # a task timed often does not outweigh one timed once
    by_task = {"a": [1.0] * 9, "b": [2.0], "c": [3.0, 5.0, 4.0]}
    assert harness.median_task_latency(by_task) == 2.0


def test_probe_scales_each_task_to_reference_speed(monkeypatch):
    # the host runs the reference kernel at 2x, 1x and 4x its nominal time
    # around two tasks: the first is scaled by 1 / 1.5, the second by 1 / 2.5
    ref = harness.REFERENCE_S
    times = iter([2 * ref, ref, 4 * ref])
    monkeypatch.setattr(harness, "reference_time", lambda: next(times))
    tasks = [workloads.Task(name, lambda: 0, lambda out: None, lambda out: out)
             for name in ("a", "b")]
    _, results = harness.run_pass(tasks, random.Random(0), probe=True)
    assert [scale for _, _, scale, _, _ in results] == pytest.approx([1 / 1.5, 1 / 2.5])
    _, results = harness.run_pass(tasks, random.Random(0))
    assert [scale for _, _, scale, _, _ in results] == [1.0, 1.0]


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.task(7, "a"):            # 0 .. 10
        with tracer.span("b.x"):         # 1 .. 4
            with tracer.span("c.y"):     # 2 .. 3
                pass
        with tracer.span("b.x"):         # 5 .. 9
            pass
    times = tracer.self_times()
    assert times["a"] == (1, 3.0, 10.0)
    assert times["b.x"] == (2, 6.0, 7.0)
    assert times["c.y"] == (1, 1.0, 1.0)
    assert sum(s for _, s, _ in times.values()) == 10.0
    assert tracer.layer_self_times() == {"a": 3.0, "b": 6.0, "c": 1.0}
    assert [rec[1] for rec in tracer.spans] == [7, 7, 7, 7]
    assert [rec[2] for rec in tracer.spans] == [None, 0, 1, 0]


def test_svd_flop_estimate_is_symmetric_in_shape():
    assert svd_flops_est((10, 4), False) == svd_flops_est((4, 10), False)
    assert svd_flops_est((10, 4), True) > svd_flops_est((10, 4), False) > 0


def _inputs(pm, workload, seed, workdir):
    workdir.mkdir()
    workloads.setup(pm, workload, random.Random(seed), str(workdir))
    out = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(pm, tmp_path, workload):
    first = _inputs(pm, workload, 1, tmp_path / "a")
    again = _inputs(pm, workload, 1, tmp_path / "b")
    other = _inputs(pm, workload, 2, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)


def test_other_seed_same_verdicts(pm, tmp_path):
    reports = {}
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        tasks = workloads.setup(pm, "ladder", random.Random(seed), str(workdir))
        _, results = harness.run_pass([t for t in tasks if t.warm],
                                      random.Random(seed))
        assert [err for *_, err in results] == [None] * len(results)
        # analyze and ppt reports carry only counts and verdicts
        reports[seed] = {task.name: digest for task, _, _, digest, _ in results
                         if task.name.split()[0] in ("analyze", "ppt")}
    assert reports[1] == reports[2] and reports[1]


def _attributes(pm):
    mods = [m for n, m in sys.modules.items() if n == "perimax" or n.startswith("perimax.")]
    attrs = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    attrs["svd"] = np.linalg.svd
    attrs["lstsq"] = np.linalg.lstsq
    attrs["build"] = pm.core.PeriodicFramework.__dict__["__init__"]
    return attrs


def test_wrappers_removed_and_traced_outputs_equal(pm, tmp_path):
    tasks = [t for t in workloads.setup(pm, "mechanism", random.Random(5), str(tmp_path))
             if t.warm]
    before = _attributes(pm)
    _, plain = harness.run_pass(tasks, random.Random(0))
    tracer = Tracer()
    with tracer.installed(pm):
        assert pm.cli.check_noncrossing.bench_span == "topology.check_noncrossing"
        assert pm.pseudotri.check_noncrossing is pm.topology.check_noncrossing
        assert np.linalg.svd.bench_span == "rigidity.rank"
        _, traced = harness.run_pass(tasks, random.Random(0), tracer)
    after = _attributes(pm)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(v, "bench_span") for v in after.values())

    assert [r[3] for r in traced] == [r[3] for r in plain]
    assert all(err is None for *_, err in traced)
    assert tracer.counters["topology.check_noncrossing.calls"] > 0
    assert tracer.counters["deform.newton_solves"] > 0
    task_ids = {rec[1] for rec in tracer.spans}
    assert task_ids == set(range(len(tasks)))
