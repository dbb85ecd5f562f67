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

from .core import FrameworkError, PeriodicFramework, canonical_edge
from .rigidity import flex_space, gauge_reduced_kernel
from .topology import check_noncrossing, corner_count, trace_faces

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
    existing = {fw.edge_key(k) for k in range(fw.m)}
    if key in existing:
        raise FrameworkError("duplicate orbit: %r already present" % (key,))
    edges = [fw.edge_key(k) for k in range(fw.m)] + [key]
    new_fw = PeriodicFramework(fw.lattice, fw.positions, edges)
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


def pair_length_derivative(fw, motion, tail, head, shift):
    """Rate of change of |p_head + Lambda shift - p_tail| under a motion.

    ``motion`` is a configuration velocity (2n + 4 vector, lattice columns
    last).
    """
    n = fw.n
    c = np.asarray(shift, dtype=float)
    e = fw.positions[head] + fw.lattice @ c - fw.positions[tail]
    ln = float(np.linalg.norm(e))
    dlat = np.array([[motion[2 * n], motion[2 * n + 2]],
                     [motion[2 * n + 1], motion[2 * n + 3]]])
    de = (motion[2 * head:2 * head + 2] - motion[2 * tail:2 * tail + 2]
          + dlat @ c)
    return float(e @ de) / ln


def candidate_pairs(fw, cutoff=2):
    """All vertex pairs (u, v + Lambda c) with |c| <= cutoff in each
    coordinate, in canonical form, existing orbits excluded."""
    existing = {fw.edge_key(k) for k in range(fw.m)}
    out = []
    seen = set()
    for u in range(fw.n):
        for v in range(u, fw.n):
            for c1 in range(-cutoff, cutoff + 1):
                for c2 in range(-cutoff, cutoff + 1):
                    if u == v and (c1, c2) == (0, 0):
                        continue
                    key = canonical_edge(u, v, (c1, c2))
                    if key in seen or key in existing:
                        continue
                    seen.add(key)
                    out.append(key)
    return sorted(out)


def oriented_flex(fw, cutoff=2):
    """Unit generator of the one-dimensional flex, oriented expansively.

    The framework is moved into gauge position first; the sign makes the
    candidate pair with the largest |length derivative| expand.  Derivatives
    of candidate pairs are gauge invariant, so the result can be used for
    ranking insertions on the original framework.
    """
    from .deform import Configuration  # local import to avoid a cycle

    cfg = Configuration.from_framework(fw)
    gauged = fw.with_geometry(cfg.positions, cfg.lattice)
    basis = gauge_reduced_kernel(gauged)
    if basis.shape[1] != 1:
        raise FrameworkError(
            "flex space is not one-dimensional (dimension %d)" % basis.shape[1])
    tangent = basis[:, 0] / np.linalg.norm(basis[:, 0])
    pairs = candidate_pairs(fw, cutoff)
    derivs = [pair_length_derivative(gauged, tangent, *key[:2], key[2])
              for key in pairs]
    if derivs:
        top = max(range(len(derivs)), key=lambda i: (abs(derivs[i]), pairs[i]))
        if derivs[top] < 0:
            tangent = -tangent
            derivs = [-d for d in derivs]
    return gauged, tangent, pairs, derivs


def find_rigidifying_edges(fw, cutoff=2):
    """Insertable candidates ranked by |length derivative| under the flex.

    Requires a valid pseudo-triangulation certificate.  Candidates whose
    derivative is negligible or whose insertion would cross are skipped.
    """
    cert = certify_ppt(fw)
    if not cert.valid:
        raise FrameworkError(
            "not a certified pseudo-triangulation: %s" % "; ".join(cert.failures))
    _, _, pairs, derivs = oriented_flex(fw, cutoff)
    if not pairs:
        raise FrameworkError("no candidate found within cutoff %d" % cutoff)
    dmax = max(abs(d) for d in derivs)
    floor = DERIVATIVE_RTOL * max(1.0, dmax)
    ranked = sorted(
        (EdgeCandidate(key[0], key[1], key[2], d)
         for key, d in zip(pairs, derivs) if abs(d) > floor),
        key=lambda cand: (-abs(cand.derivative), cand.key),
    )
    out = []
    for cand in ranked:
        try:
            insert_edge_orbit(fw, cand)
        except FrameworkError:
            continue
        out.append(cand)
    if not out:
        raise FrameworkError("no candidate found within cutoff %d" % cutoff)
    return out
