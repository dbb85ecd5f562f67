"""Outside-in span tracing of perimax layers, for the benchmark only.

``Tracer.installed(pm)`` replaces selected public functions of the perimax
modules (and every alias of them inside the package) with wrappers that
record a span per call; leaving the context puts the original objects back.
Spans are recorded only while a task is open (``Tracer.task``), so output
checks run between tasks are never traced.

A span's self time is its duration minus the durations of its direct
children.  Per-edge helpers (``canonical_edge``, ``pointedness_margin``,
``pair_length_derivative`` ...) are deliberately not wrapped: they run tens
of thousands of times per pass and wrapping them would mostly measure the
tracer.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter


def svd_flops_est(shape, compute_uv):
    """Computed flop estimate of a dense SVD (Golub & Van Loan, table 8.6.1).

    Singular values only: 4 m n^2 - 4 n^3 / 3; full U, S, V:
    4 m^2 n + 8 m n^2 + 9 n^3; with m >= n the long side of the matrix.
    """
    m, n = max(shape), min(shape)
    if compute_uv:
        return 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    return 4 * m * n * n - (4 * n ** 3) // 3


def _pairs_within(n, cutoff):
    """Number of vertex-copy pairs ``deform.expansive_check`` visits."""
    per_shift = (2 * cutoff + 1) ** 2
    return n * (n - 1) // 2 * per_shift + n * (per_shift - 1) // 2


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# After-hooks see a traced call's arguments and result and add work counts.
def _count_edge_pairs(c, args, kwargs, result):
    m = args[0].m
    c["topology.check_noncrossing.edge_pairs"] += m * (m + 1) // 2


def _count_unfolded(c, args, kwargs, result):
    c["relax.unfolded_edges"] += result.m


def _count_expansive(c, args, kwargs, result):
    c["deform.expansive_pairs"] += _pairs_within(
        args[0].n, _arg(args, kwargs, 2, "cutoff", 2))


def _count_samples(c, args, kwargs, result):
    c["deform.samples"] += len(result.samples)


def _count_terrain(c, args, kwargs, result):
    c["lifting.export_terrain.bytes"] += len(result)


def _count_accepted(c, args, kwargs, result):
    c["pseudotri.insert.accepted"] += 1


def _count_svd(c, args, kwargs, result):
    c["rigidity.svd.calls"] += 1
    c["rigidity.svd.flops_est"] += svd_flops_est(
        args[0].shape, _arg(args, kwargs, 2, "compute_uv", True))


# (module, attribute, span name, after-hook) of every wrapped function.
WRAPPED = [
    ("perimax.cli", "main", "cli.main", None),
    ("perimax.core", "parse_framework", "core.parse", None),
    ("perimax.core", "serialize_framework", "core.serialize", None),
    ("perimax.topology", "check_noncrossing", "topology.check_noncrossing",
     _count_edge_pairs),
    ("perimax.topology", "trace_faces", "topology.trace_faces", None),
    ("perimax.topology", "corner_count", "topology.corner_count", None),
    ("perimax.rigidity", "rigidity_matrix", "rigidity.rigidity_matrix", None),
    ("perimax.rigidity", "equilibrium_matrix", "rigidity.equilibrium_matrix", None),
    ("perimax.rigidity", "flex_space", "rigidity.flex_space", None),
    ("perimax.rigidity", "periodic_stress_space", "rigidity.periodic_stress_space", None),
    ("perimax.rigidity", "invariant_equilibrium_stress_space",
     "rigidity.invariant_equilibrium_stress_space", None),
    ("perimax.rigidity", "check_periodic_stress", "rigidity.check_periodic_stress", None),
    ("perimax.rigidity", "count_identity_check", "rigidity.count_identity_check", None),
    ("perimax.rigidity", "gauge_reduced_kernel", "rigidity.gauge_reduced_kernel", None),
    ("perimax.lifting", "lifting_from_stress", "lifting.lifting_from_stress", None),
    ("perimax.lifting", "stress_from_lifting", "lifting.stress_from_lifting", None),
    ("perimax.lifting", "classify_folds", "lifting.classify_folds", None),
    ("perimax.lifting", "export_terrain", "lifting.export_terrain", _count_terrain),
    ("perimax.pseudotri", "certify_ppt", "pseudotri.certify_ppt", None),
    ("perimax.pseudotri", "insert_edge_orbit", "pseudotri.insert", _count_accepted),
    ("perimax.pseudotri", "candidate_pairs", "pseudotri.candidate_pairs", None),
    ("perimax.pseudotri", "oriented_flex", "pseudotri.oriented_flex", None),
    ("perimax.pseudotri", "find_rigidifying_edges",
     "pseudotri.find_rigidifying_edges", None),
    ("perimax.relax", "relax", "relax.relax", _count_unfolded),
    ("perimax.relax", "stress_persists", "relax.stress_persists", None),
    ("perimax.relax", "ultrarigidity_probe", "relax.ultrarigidity_probe", None),
    ("perimax.deform", "continue_path", "deform.continue_path", _count_samples),
    ("perimax.deform", "flex_tangent", "deform.flex_tangent", None),
    ("perimax.deform", "expansive_check", "deform.expansive_check", _count_expansive),
]


class Tracer:
    """Span recorder with per-task ids, parent links and work counters.

    ``clock`` is injectable so tests can drive span arithmetic exactly.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, task_id, parent, start, end, child_s]
        self.counters = Counter()
        self._stack = []
        self._task_id = None
        self._patches = []       # (owner, attribute, original)

    # -- span recording ---------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, self._task_id, parent, self.clock(), None, 0.0])
        self._stack.append(idx)
        self.counters[name + ".calls"] += 1
        return idx

    def _close(self, idx):
        rec = self.spans[idx]
        rec[4] = self.clock()
        self._stack.pop()
        if rec[2] is not None:
            self.spans[rec[2]][5] += rec[4] - rec[3]

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def task(self, task_id, name="bench.task"):
        """Open the root span of one task; spans inside share its id."""
        self._task_id = task_id
        try:
            with self.span(name):
                yield
        finally:
            self._task_id = None

    def wrap(self, name, fn, after=None):
        """Wrapper recording a span around ``fn`` while a task is open."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._task_id is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        wrapper.bench_span = name
        return wrapper

    def _count_lstsq(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0].startswith("deform."):
                self.counters["deform.newton_solves"] += 1
            return fn(*args, **kwargs)

        wrapper.bench_span = "deform.newton_solves"
        return wrapper

    # -- installing and removing wrappers ---------------------------------

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, modules, original, new):
        for mod in modules:
            hits = [key for key, val in vars(mod).items() if val is original]
            for key in hits:
                self._replace(mod, key, new)

    @contextlib.contextmanager
    def installed(self, pm):
        """Wrap the layer functions of the imported perimax package ``pm``.

        Every module-level alias is replaced (``perimax.cli`` holds its own
        references from ``from .x import y``), as are
        ``PeriodicFramework.__init__`` (span ``core.build``) and, for the
        rank and Newton counts, ``numpy.linalg.svd`` and ``lstsq``.
        """
        import numpy as np

        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "perimax" or name.startswith("perimax.")]
        try:
            for mod_name, attr, span_name, after in WRAPPED:
                original = getattr(sys.modules[mod_name], attr)
                self._replace_everywhere(modules, original,
                                         self.wrap(span_name, original, after))
            cls = pm.core.PeriodicFramework
            self._replace(cls, "__init__", self.wrap("core.build", cls.__init__))
            self._replace(np.linalg, "svd",
                          self.wrap("rigidity.rank", np.linalg.svd, _count_svd))
            self._replace(np.linalg, "lstsq", self._count_lstsq(np.linalg.lstsq))
            yield self
        finally:
            self.restore()

    def restore(self):
        """Put every replaced attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------

    def self_times(self):
        """{span name: (calls, self seconds, total seconds)} of closed spans."""
        out = {}
        for name, _, _, start, end, child in self.spans:
            if end is None:
                continue
            calls, self_s, total_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, self_s + (end - start - child),
                         total_s + (end - start))
        return out

    def layer_self_times(self):
        """{layer: self seconds}, the layer being the span name's prefix."""
        out = Counter()
        for name, (_, self_s, _) in self.self_times().items():
            out[name.split(".", 1)[0]] += self_s
        return dict(out)
