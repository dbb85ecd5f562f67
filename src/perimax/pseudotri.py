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

from .core import (FrameworkError, NumericalError, PeriodicFramework, _canonicalize,
                   _edge_rows, _lattice_vectors, canonical_edge)
from .rigidity import (_checked_cutoff, _flex_system, _gauge_position, _lattice_rate,
                       _oriented_flex, count_identity_check, pair_table)
from .topology import (FaceComplex, _crossing_pairs, _orbit_crossing_rows, _star_table,
                       check_noncrossing, corner_count, trace_faces)

__all__ = [
    "POINTED_TOL",
    "pointedness_margin",
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


def _pointedness_margins(fw):
    """``pointedness_margin`` of every vertex: its largest star corner
    minus pi, or pi at a vertex without edges."""
    tails, _, corners = _star_table(fw)
    largest = np.full(fw.n, -np.inf)
    np.maximum.at(largest, tails, corners)
    return np.where(np.isinf(largest), math.pi, largest - math.pi)


def pointedness_margin(fw, v):
    """Largest angular gap between consecutive incident directions, minus pi."""
    if not 0 <= v < fw.n:
        raise FrameworkError("vertex index %d out of range" % v)
    return float(_pointedness_margins(fw)[v])


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
    faces: FaceComplex = None     # the traced face complex

    def __bool__(self):
        return self.valid


def certify_ppt(fw):
    """Certify a periodic pointed pseudo-triangulation.

    Collects every failed clause rather than stopping at the first.  A rank
    read across a thin gap is refused (NumericalError) before any face is
    traced.  Crossing edge orbits fail the certificate, which names the
    first crossing pair of ``check_noncrossing``; face-tracing errors, which
    crossings usually cause, propagate.
    """
    spectral = count_identity_check(fw)
    crossings = check_noncrossing(fw).crossings
    failures = ["edge orbits cross: %r" % (crossings[0],)] if crossings else []
    fc = trace_faces(fw)
    report = corner_count(fw, fc)

    pointed = (_pointedness_margins(fw) > POINTED_TOL).tolist()
    failures += ["vertex %d is not pointed" % v for v, ok in enumerate(pointed) if not ok]

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
        faces=fc,
    )


def _certified(fw):
    """``certify_ppt`` of fw, refused naming every failed clause unless valid."""
    cert = certify_ppt(fw)
    if not cert.valid:
        raise FrameworkError(
            "not a certified pseudo-triangulation: %s" % "; ".join(cert.failures))
    return cert


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

    Raises, in this order, on an entry that is not an integer (with the
    constructor's message), on duplicate orbits, on the constructor's
    other refusals, on insertions that cross existing edges (or their own
    copies) and on crossings of fw itself.
    """
    if isinstance(candidate, EdgeCandidate):
        candidate = candidate.key
    edges = [fw.edge_key(k) for k in range(fw.m)]
    rows, _ = _edge_rows(edges + [candidate])
    tail, head, (c1, c2) = key = canonical_edge(*rows[-1, :2], rows[-1, 2:])
    if key in edges:
        raise FrameworkError("duplicate orbit: %r already present" % (key,))
    new_fw = PeriodicFramework(fw.lattice, fw.positions, edges + [candidate])
    (b1, b2, sx, sy), _ = _orbit_crossing_rows(fw, np.array([[tail, head, c1, c2]]))
    # only the first crossing becomes a Python pair: the new orbit's, else fw's
    new = b2 == fw.m
    for found, text in ((new, "crossing insertion: new orbit intersects %r"),
                        (~new, "framework has crossings independent of the insertion: %r")):
        if found.any():
            i = np.flatnonzero(found)[:1]
            first = _crossing_pairs(np.minimum(b1[i], fw.m), b2[i], sx[i], sy[i])[0]
            raise FrameworkError(text % (first,))
    return new_fw


def _length_derivatives(fw, motion, table):
    """``pair_length_derivative`` of every row of a pair table."""
    n = fw.n
    motion = np.asarray(motion, dtype=float)
    tails, heads, c = table[:, 0], table[:, 1], table[:, 2:]
    vel = motion[:2 * n].reshape(n, 2)
    e = fw.positions[heads] + _lattice_vectors(fw.lattice, c) - fw.positions[tails]
    de = vel[heads] - vel[tails] + _lattice_vectors(_lattice_rate(motion, n), c)
    e_de, e_e = np.matmul(e[:, None], np.stack([de, e], axis=2))[:, 0].T
    return e_de / np.sqrt(e_e)


def pair_length_derivative(fw, motion, tail, head, shift):
    """Rate of change of |p_head + Lambda shift - p_tail| under a motion.

    ``motion`` is a configuration velocity (2n + 4 vector, lattice columns
    last).
    """
    row = np.array([[tail, head, shift[0], shift[1]]])
    return float(_length_derivatives(fw, motion, row)[0])


def _without_edges(fw, rows, cutoff):
    """The distinct key rows (u, v, c1, c2) within the cutoff that are not
    edge orbits of ``fw``, sorted by their mixed-radix codes (n, n, w, w)."""
    edges = np.column_stack([fw.tails, fw.heads, fw.shifts])
    edges = edges[np.abs(fw.shifts).max(axis=1, initial=0) <= cutoff]
    w = 2 * cutoff + 1
    radix = np.array([fw.n * w * w, w * w, w, 1])
    codes, first = np.unique(rows @ radix, return_index=True)
    return rows[first[~np.isin(codes, edges @ radix)]]


def _candidate_table(fw, cutoff):
    """Rows of ``pair_table`` that are not edge orbits of ``fw``."""
    return _without_edges(fw, pair_table(fw.n, cutoff), cutoff)


def _face_rows(fw, cutoff, faces):
    """The rows of ``_candidate_table`` that join two vertex copies on the
    boundary of one face copy of ``faces`` (none without faces): half-edges
    h1, h2 of one face join (vertex of h1, vertex of h2, copy[h2] - copy[h1])."""
    if faces is None:
        return np.empty((0, 4), dtype=np.int64)
    face = faces.face[faces.order]
    lo, size = faces.start[face], np.diff(faces.start)[face]
    # every position of the boundary order paired with every position of its face
    first = np.repeat(faces.order, size)
    second = faces.order[np.repeat(lo + size - np.cumsum(size), size) + np.arange(len(first))]
    ends = np.concatenate([fw.tails, fw.heads])
    rows = np.column_stack([ends[first], ends[second], faces.copy[second] - faces.copy[first]])
    u, v, c1, c2 = _canonicalize(rows)
    # a vertex copy paired with itself is no pair
    rows = rows[((u < v) | (c1 != 0) | (c2 != 0)) & (abs(c1) <= cutoff) & (abs(c2) <= cutoff)]
    return _without_edges(fw, rows, cutoff)


def candidate_pairs(fw, cutoff=2):
    """All vertex pairs (u, v + Lambda c) with |c| <= cutoff in each
    coordinate, in canonical form, existing orbits excluded, sorted."""
    return [(u, v, (c1, c2)) for u, v, c1, c2 in _candidate_table(fw, cutoff).tolist()]


def _flex_derivatives(fw, table):
    """``oriented_flex``'s gauged framework and tangent, and the derivatives of ``table``."""
    gauged = fw.with_geometry(*_gauge_position(fw))
    tangent = _oriented_flex(*_flex_system(fw), gauged.lattice, gauged.edge_vectors())
    derivs = _length_derivatives(gauged, tangent, table)
    if not np.all(np.isfinite(derivs)):
        raise NumericalError("non-finite length derivative of a candidate pair")
    return gauged, tangent, derivs


def oriented_flex(fw, cutoff=2):
    """Unit generator of the one-dimensional flex, oriented expansively.

    The framework is moved into gauge position first; the sign makes the
    cell area grow, as in ``deform.flex_tangent``.  Derivatives of
    candidate pairs are gauge invariant, so the result can be used for
    ranking insertions on the original framework.  Raises NumericalError
    when the flex is not one-dimensional or changes no cell area.
    """
    table = _candidate_table(fw, cutoff)
    gauged, tangent, derivs = _flex_derivatives(fw, table)
    pairs = [(u, v, (c1, c2)) for u, v, c1, c2 in table.tolist()]
    return gauged, tangent, pairs, derivs.tolist()


def find_rigidifying_edges(fw, cutoff=2):
    """Insertable candidates ranked by |length derivative| under the flex.

    Requires a valid pseudo-triangulation certificate.  An insertion that
    crosses nothing joins two vertex copies of one face copy, so only the
    ``_face_rows`` of the certificate's faces are rated.  Candidates whose
    derivative is negligible, whose length is zero or whose insertion would
    cross are skipped.  One ``_orbit_crossing_rows`` pass screens them and
    fw itself (besides the certificate's check, so that a certificate
    bypassed still finds a crossing base), as ``insert_edge_orbit`` does
    for one.  Only the candidates it clears become ``EdgeCandidate``s.
    """
    cert = _certified(fw)
    cutoff = _checked_cutoff(fw.n, cutoff)
    table = _face_rows(fw, cutoff, cert.faces)
    derivs = _flex_derivatives(fw, table)[2]
    out = []
    if len(table):
        mags = np.abs(derivs)
        floor = DERIVATIVE_RTOL * max(1.0, float(mags.max()))
        # by decreasing |derivative|, ties in key order (the rows are sorted)
        ranked = np.argsort(-mags, kind="stable")
        ranked = ranked[mags[ranked] > floor]
        (_, b2, _, _), short = _orbit_crossing_rows(fw, table[ranked])
        # a crossing of fw (b2 < m) leaves no candidate; one of candidate j
        # (b2 = m + j), or a zero length, skips it
        if not (b2 < fw.m).any():
            clear = ranked[~short & (np.bincount(b2 - fw.m, minlength=len(ranked)) == 0)]
            out = [EdgeCandidate(u, v, (c1, c2), d)
                   for (u, v, c1, c2), d in zip(table[clear].tolist(), derivs[clear].tolist())]
    if not out:
        raise FrameworkError("no candidate found within cutoff %d" % cutoff)
    return out
