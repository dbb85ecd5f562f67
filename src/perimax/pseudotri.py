"""Pointed pseudo-triangulation certification and edge-orbit insertion.

A framework certifies when it is non-crossing, every vertex is pointed
(incident directions fit in an open half-plane), every face is a
pseudo-triangle (exactly three interior angles below pi), the edge count is
twice the vertex count and the motion space is one-dimensional with no
periodic stress.  Such frameworks are one-degree-of-freedom mechanisms, and
inserting an edge orbit whose length varies under the flex rigidifies them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FrameworkError, NumericalError, PeriodicFramework, canonical_edge
from .rigidity import flex_space, gauge_reduced_kernel, pair_table
from .topology import _EdgeScreen, check_noncrossing, corner_count, trace_faces

__all__ = [
    "POINTED_TOL",
    "incident_directions",
    "pointedness_margin",
    "is_pointed",
    "PPTCertificate",
    "certify_ppt",
    "EdgeCandidate",
    "insert_edge_orbit",
    "candidate_pairs",
    "pair_length_derivative",
    "oriented_flex",
    "find_rigidifying_edges",
]

# Pointedness demands the largest angular gap to exceed pi by this much.
POINTED_TOL = 1e-9
# Length derivatives below this (relative to the largest) are "untestable".
DERIVATIVE_RTOL = 1e-8


def incident_directions(fw, v):
    """Direction vectors of all edges leaving any one copy of vertex v.

    Ordered by edge index; a loop at v gives its tail direction first.
    """
    evecs = fw.edge_vectors()
    # (m, 2 ends, 2): the direction leaving v when v is the tail / the head
    by_end = np.stack([evecs, -evecs], axis=1)
    at_v = np.stack([fw.tails == v, fw.heads == v], axis=1)
    return by_end[at_v]


def pointedness_margin(fw, v):
    """Largest angular gap between consecutive incident directions, minus pi."""
    dirs = incident_directions(fw, v)
    if len(dirs) == 0:
        return math.pi
    angles = np.sort(np.arctan2(dirs[:, 1], dirs[:, 0]))
    gaps = np.diff(np.concatenate([angles, angles[:1] + 2 * math.pi]))
    return float(gaps.max()) - math.pi


def is_pointed(fw, v, tol=POINTED_TOL):
    """True when the incident directions lie in an open half-plane."""
    return pointedness_margin(fw, v) > tol


@dataclass
class PPTCertificate:
    """Per-clause verdicts of pseudo-triangulation certification."""

    valid: bool
    pointed: list
    pseudo_triangular: list
    counts: tuple           # (n, m, n*)
    stress_free: bool
    flex_dim: int
    failures: list

    def __bool__(self):
        return self.valid


def certify_ppt(fw):
    """Certify a periodic pointed pseudo-triangulation.

    Collects every failed clause rather than stopping at the first.
    Propagates face-tracing errors (non-crossing input is a precondition).
    """
    failures = []
    fc = trace_faces(fw)
    report = corner_count(fw, fc)

    pointed = [is_pointed(fw, v) for v in range(fw.n)]
    for v, ok in enumerate(pointed):
        if not ok:
            failures.append("vertex %d is not pointed" % v)

    pseudo = []
    for f, count in enumerate(report.counts):
        ok = count == 3 and not report.flat_angles[f]
        pseudo.append(ok)
        if report.flat_angles[f]:
            failures.append(
                "face %d has a flat corner - indeterminate" % f)
        elif count != 3:
            failures.append("face %d has %d corners" % (f, count))

    if fw.m != 2 * fw.n:
        failures.append("edge count %d != 2n = %d" % (fw.m, 2 * fw.n))

    _, spectral = flex_space(fw)
    if spectral.sigma != 0:
        failures.append("periodic stress space has dimension %d" % spectral.sigma)
    if spectral.phi != 1:
        failures.append("flex dimension %d != 1" % spectral.phi)

    return PPTCertificate(
        valid=not failures,
        pointed=pointed,
        pseudo_triangular=pseudo,
        counts=(fw.n, fw.m, fc.n_faces),
        stress_free=spectral.sigma == 0,
        flex_dim=spectral.phi,
        failures=failures,
    )


@dataclass(frozen=True)
class EdgeCandidate:
    """A vertex pair (tail; head shifted by ``shift``) considered for
    insertion, with its length derivative under the unit flex."""

    tail: int
    head: int
    shift: tuple
    derivative: float = 0.0

    @property
    def key(self):
        return (self.tail, self.head, self.shift)


def insert_edge_orbit(fw, candidate):
    """Framework with the candidate's orbit added.

    Raises on duplicate orbits and on insertions that cross existing edges
    (or their own copies).
    """
    if isinstance(candidate, EdgeCandidate):
        tail, head, shift = candidate.tail, candidate.head, candidate.shift
    else:
        tail, head, shift = candidate
    key = canonical_edge(tail, head, shift)
    edges = [fw.edge_key(k) for k in range(fw.m)]
    if key in edges:
        raise FrameworkError("duplicate orbit: %r already present" % (key,))
    new_fw = PeriodicFramework(fw.lattice, fw.positions, edges + [key])
    report = check_noncrossing(new_fw)
    if not report.ok:
        involved = [c for c in report.crossings
                    if c[0][0] == new_fw.m - 1 or c[1][0] == new_fw.m - 1]
        if involved:
            raise FrameworkError(
                "crossing insertion: new orbit intersects %r" % (involved[0],))
        raise FrameworkError(
            "framework has crossings independent of the insertion: %r"
            % (report.crossings[0],))
    return new_fw


def _length_derivatives(fw, motion, table):
    """``pair_length_derivative`` of every row of a pair table."""
    n = fw.n
    motion = np.asarray(motion, dtype=float)
    tails, heads, c = table[:, 0], table[:, 1], table[:, 2:, None].astype(float)
    vel = motion[:2 * n].reshape(n, 2)
    dlat = np.column_stack([motion[2 * n:2 * n + 2], motion[2 * n + 2:]])
    # stacked matmuls round each pair like the single products would
    e = fw.positions[heads] + np.matmul(fw.lattice, c)[:, :, 0] - fw.positions[tails]
    de = vel[heads] - vel[tails] + np.matmul(dlat, c)[:, :, 0]
    e_de, e_e = np.matmul(e[:, None], np.stack([de, e], axis=2))[:, 0].T
    return e_de / np.sqrt(e_e)


def pair_length_derivative(fw, motion, tail, head, shift):
    """Rate of change of |p_head + Lambda shift - p_tail| under a motion.

    ``motion`` is a configuration velocity (2n + 4 vector, lattice columns
    last).
    """
    row = np.array([[tail, head, shift[0], shift[1]]])
    return float(_length_derivatives(fw, motion, row)[0])


def _candidate_table(fw, cutoff):
    """Rows of ``pair_table`` that are not edge orbits of ``fw``."""
    table = pair_table(fw.n, cutoff)
    edges = np.column_stack([fw.tails, fw.heads, fw.shifts])
    edges = edges[np.abs(fw.shifts).max(axis=1, initial=0) <= cutoff]
    # one integer per key: mixed radix (n, n, w, w), digits c1, c2 in [-cutoff, cutoff]
    w = 2 * cutoff + 1
    radix = np.array([fw.n * w * w, w * w, w, 1])
    return table[~np.isin(table @ radix, edges @ radix)]


def candidate_pairs(fw, cutoff=2):
    """All vertex pairs (u, v + Lambda c) with |c| <= cutoff in each
    coordinate, in canonical form, existing orbits excluded, sorted."""
    return [(u, v, (c1, c2)) for u, v, c1, c2 in _candidate_table(fw, cutoff).tolist()]


def oriented_flex(fw, cutoff=2):
    """Unit generator of the one-dimensional flex, oriented expansively.

    The framework is moved into gauge position first; the sign makes the
    candidate pair with the largest |length derivative| expand (ties: the
    largest pair).  Derivatives of candidate pairs are gauge invariant, so
    the result can be used for ranking insertions on the original
    framework.
    """
    from .deform import Configuration  # local import to avoid a cycle

    cfg = Configuration.from_framework(fw)
    gauged = fw.with_geometry(cfg.positions, cfg.lattice)
    basis = gauge_reduced_kernel(gauged)
    if basis.shape[1] != 1:
        raise FrameworkError(
            "flex space is not one-dimensional (dimension %d)" % basis.shape[1])
    tangent = basis[:, 0] / np.linalg.norm(basis[:, 0])
    table = _candidate_table(fw, cutoff)
    derivs = _length_derivatives(gauged, tangent, table)
    if not np.all(np.isfinite(derivs)):
        raise NumericalError("non-finite length derivative of a candidate pair")
    if len(derivs):
        mags = np.abs(derivs)
        if derivs[np.flatnonzero(mags == mags.max())[-1]] < 0:
            tangent = -tangent
            derivs = -derivs
    pairs = [(u, v, (c1, c2)) for u, v, c1, c2 in table.tolist()]
    return gauged, tangent, pairs, derivs.tolist()


def find_rigidifying_edges(fw, cutoff=2):
    """Insertable candidates ranked by |length derivative| under the flex.

    Requires a valid pseudo-triangulation certificate.  Candidates whose
    derivative is negligible or whose insertion would cross are skipped.
    After one crossing check of ``fw`` itself, a candidate only needs its
    new orbit screened against every orbit and its own copies (with the
    tolerance of the extended framework; base pairs get that of ``fw``).
    """
    cert = certify_ppt(fw)
    if not cert.valid:
        raise FrameworkError(
            "not a certified pseudo-triangulation: %s" % "; ".join(cert.failures))
    _, _, pairs, derivs = oriented_flex(fw, cutoff)
    out = []
    if pairs and check_noncrossing(fw).ok:
        mags = np.abs(derivs)
        floor = DERIVATIVE_RTOL * max(1.0, float(mags.max()))
        # by decreasing |derivative|, ties in key order (pairs are sorted)
        ranked = np.argsort(-mags, kind="stable")
        edges = [fw.edge_key(k) for k in range(fw.m)]
        new_pairs = np.arange(fw.m + 1), np.full(fw.m + 1, fw.m)
        for i in ranked[mags[ranked] > floor].tolist():
            try:
                new_fw = PeriodicFramework(fw.lattice, fw.positions, edges + [pairs[i]])
            except FrameworkError:
                continue
            if not _EdgeScreen(new_fw).crossings([new_pairs]):
                out.append(EdgeCandidate(*pairs[i], derivs[i]))
    if not out:
        raise FrameworkError("no candidate found within cutoff %d" % cutoff)
    return out
