"""Stress <-> polyhedral terrain correspondence for periodic frameworks.

A lifting assigns an affine height function to every face; periodicity
makes the normal constant on face orbits and shifts the offset of the copy
at lattice position t by -nu . (Lambda t).  A compatible lifting induces an
equilibrium stress through the rotated normal differences across edges, and
conversely a periodic stress integrates to a lifting along the dual graph,
uniquely up to an additive constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FrameworkError, NumericalError, _tile_range
from .rigidity import _stress_values

__all__ = [
    "PeriodicLifting",
    "EdgeFold",
    "stress_from_lifting",
    "lifting_from_stress",
    "classify_folds",
    "vertex_heights",
    "export_terrain",
]

# Construction consistency is accepted below this relative residual.
CONSTRUCTION_RTOL = 1e-8
# Compatibility of a supplied lifting is verified at this relative residual.
COMPAT_RTOL = 1e-9
# Fold classification dead-band, relative to the largest stress magnitude.
FOLD_RTOL = 1e-9


def _perp(v):
    """Rotate a 2-vector by a quarter turn: (x, y) -> (-y, x)."""
    return np.array([-v[1], v[0]])


def _det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


@dataclass
class PeriodicLifting:
    """Per-face-orbit affine heights of a lattice-invariant terrain.

    ``normals[f]`` is the height gradient over face orbit f and
    ``offsets[f]`` the constant term of the face's base copy; the copy at
    lattice shift t has constant term offsets[f] - normals[f] . (Lambda t).
    """

    normals: np.ndarray       # (n_faces, 2)
    offsets: np.ndarray       # (n_faces,)
    base_face: int = 0

    def offset_at(self, lattice, face, shift):
        t = np.asarray(shift, dtype=float)
        return self.offsets[face] - float(self.normals[face] @ (lattice @ t))

    def height(self, lattice, face, shift, point):
        """Height over ``point`` read from the plane of face copy (face, shift)."""
        return float(self.normals[face] @ point) + self.offset_at(lattice, face, shift)

    def scaled(self, factor):
        return PeriodicLifting(self.normals * factor, self.offsets * factor,
                               self.base_face)


def _edge_copy_endpoints(fw, orbit, copy):
    """Positions of the tail and head of edge copy ``orbit @ copy``."""
    t = np.asarray(copy, dtype=float)
    p = fw.positions[fw.tails[orbit]] + fw.lattice @ t
    q = p + fw.edge_vector(orbit)
    return p, q


def _height_scale(fw, lifting):
    geom = max(1.0, fw.geometry_scale)
    return max(1.0,
               float(np.abs(lifting.normals).max(initial=0.0)) * geom,
               float(np.abs(lifting.offsets).max(initial=0.0)))


def compatibility_residual(fw, fc, lifting):
    """Largest height mismatch across any edge between its two faces."""
    worst = 0.0
    for tet in fc.tetrads:
        p, q = _edge_copy_endpoints(fw, tet.orbit, (0, 0))
        lshift = (-tet.left_copy[0], -tet.left_copy[1])
        rshift = (-tet.right_copy[0], -tet.right_copy[1])
        for point in (p, q):
            hl = lifting.height(fw.lattice, tet.left_face, lshift, point)
            hr = lifting.height(fw.lattice, tet.right_face, rshift, point)
            worst = max(worst, abs(hl - hr))
    return worst


def stress_from_lifting(fw, fc, lifting):
    """Stress induced by a compatible lifting.

    For each edge the difference of the adjacent normals is proportional to
    the rotated edge vector; the factor is the stress value.
    """
    res = compatibility_residual(fw, fc, lifting)
    scale = _height_scale(fw, lifting)
    if res > COMPAT_RTOL * scale:
        raise NumericalError(
            "incompatible lifting: height mismatch %.3g exceeds %.3g"
            % (res, COMPAT_RTOL * scale)
        )
    evecs = fw.edge_vectors()
    s = np.zeros(fw.m)
    for tet in fc.tetrads:
        e = evecs[tet.orbit]
        dn = lifting.normals[tet.left_face] - lifting.normals[tet.right_face]
        s[tet.orbit] = float(dn @ _perp(e)) / float(e @ e)
    return s


def lifting_from_stress(fw, fc, s, c0=0.0):
    """Periodic lifting inducing the periodic stress ``s``.

    Propagates normals and offsets over a breadth-first spanning tree of
    the quotient dual graph rooted at the base face, then solves the base
    normal from the period conditions and verifies every non-tree dual
    edge.  Rejects s when any consistency or periodicity residual exceeds
    tolerance.
    """
    s = _stress_values(s, fw.m)
    nf = fc.n_faces
    lat = fw.lattice
    evecs = fw.edge_vectors()

    # dual adjacency: orbit -> (left, right, left_copy, right_copy)
    adj = [[] for _ in range(nf)]
    for tet in fc.tetrads:
        adj[tet.right_face].append((tet.orbit, tet))
        if tet.left_face != tet.right_face:
            adj[tet.left_face].append((tet.orbit, tet))
    for lst in adj:
        lst.sort(key=lambda item: item[0])

    nu_rel = np.zeros((nf, 2))          # normal minus the base normal
    c_hat = np.zeros(nf)                # offset at the reached copy, minus c0
    tau = [(0, 0)] * nf                 # copy offset reached by the tree
    visited = [False] * nf
    visited[0] = True
    tree_edges = set()
    queue = [0]
    while queue:
        f = queue.pop(0)
        for orbit, tet in adj[f]:
            if tet.left_face == tet.right_face:
                continue
            g = tet.left_face if f == tet.right_face else tet.right_face
            if visited[g]:
                continue
            visited[g] = True
            tree_edges.add(orbit)
            # right -> left adds s perp(e), left -> right subtracts it
            sign, here, there = ((1.0, tet.right_copy, tet.left_copy) if f == tet.right_face
                                 else (-1.0, tet.left_copy, tet.right_copy))
            copy = (tau[f][0] + here[0], tau[f][1] + here[1])
            p, q = _edge_copy_endpoints(fw, orbit, copy)
            nu_rel[g] = nu_rel[f] + sign * s[orbit] * _perp(evecs[orbit])
            c_hat[g] = c_hat[f] - sign * s[orbit] * _det2(q, p)
            tau[g] = (copy[0] - there[0], copy[1] - there[1])
            queue.append(g)
    if not all(visited):
        raise FrameworkError("dual graph is disconnected")  # cannot happen for valid input

    geom = max(1.0, fw.geometry_scale)
    scale = max(1.0, float(np.abs(s).sum()) * geom * geom)
    tol = CONSTRUCTION_RTOL * scale

    # every non-tree dual edge yields one period equation for the base
    # normal plus a normal-consistency residual
    rows = []
    rhs = []
    nu_residual = 0.0
    for tet in fc.tetrads:
        if tet.orbit in tree_edges:
            continue
        L, R = tet.left_face, tet.right_face
        e = evecs[tet.orbit]
        nu_residual = max(
            nu_residual,
            float(np.abs(nu_rel[L] - nu_rel[R] - s[tet.orbit] * _perp(e)).max()),
        )
        copy = (tau[R][0] + tet.right_copy[0], tau[R][1] + tet.right_copy[1])
        p, q = _edge_copy_endpoints(fw, tet.orbit, copy)
        target = (copy[0] - tet.left_copy[0], copy[1] - tet.left_copy[1])
        g = np.array([target[0] - tau[L][0], target[1] - tau[L][1]], dtype=float)
        lam_g = lat @ g
        rows.append(lam_g)
        rhs.append(c_hat[L] - c_hat[R] + s[tet.orbit] * _det2(q, p)
                   - float(nu_rel[L] @ lam_g))

    A = np.array(rows).reshape(len(rows), 2)
    b = np.array(rhs)
    if np.linalg.matrix_rank(A, tol=1e-9 * max(1.0, float(np.abs(A).max()))) < 2:
        raise NumericalError("degenerate dual cycles: base normal undetermined")
    nu0, *_ = np.linalg.lstsq(A, b, rcond=None)
    period_residual = float(np.abs(A @ nu0 - b).max()) if b.size else 0.0

    if nu_residual > tol or period_residual > tol:
        exc = NumericalError(
            "not a periodic stress: face-cycle residual %.3g, "
            "period-condition residual %.3g (tolerance %.3g)"
            % (nu_residual, period_residual, tol)
        )
        # the two residual families of the lattice-invariance conditions
        exc.face_cycle_residual = nu_residual
        exc.period_residual = period_residual
        raise exc

    normals = nu_rel + nu0
    offsets = np.empty(nf)
    for f in range(nf):
        t = np.array(tau[f], dtype=float)
        offsets[f] = c0 + c_hat[f] + float(normals[f] @ (lat @ t))
    return PeriodicLifting(normals, offsets, base_face=0)


@dataclass
class EdgeFold:
    """Stress value and crease type of one edge orbit in a lifted terrain."""

    orbit: int
    stress: float
    fold: str


def classify_folds(fw, s):
    """Mountain (negative stress), valley (positive) or flat per edge orbit."""
    s = _stress_values(s, fw.m)
    tol = FOLD_RTOL * max(1.0, float(np.abs(s).max(initial=0.0)))
    out = []
    for k in range(fw.m):
        if s[k] < -tol:
            fold = "mountain"
        elif s[k] > tol:
            fold = "valley"
        else:
            fold = "flat"
        out.append(EdgeFold(k, float(s[k]), fold))
    return out


def vertex_heights(fw, fc, lifting):
    """Lifted height of each vertex orbit (heights are lattice invariant)."""
    heights = np.empty(fw.n)
    for v in range(fw.n):
        face, shift = fc.vertex_slot[v]
        point = fw.positions[v] + fw.lattice @ np.array(shift, dtype=float)
        # the face's base copy contains the vertex copy (v, shift)
        heights[v] = lifting.height(fw.lattice, face, (0, 0), point)
    return heights


def export_terrain(fw, fc, lifting, tiles):
    """OBJ mesh of the lifted terrain over a rows x cols patch.

    Every face copy is triangulated by a fan from its first boundary
    vertex; vertices are shared between faces.
    """
    rows, cols = _tile_range(tiles)
    lat = fw.lattice
    vert_index = {}
    vert_lines = []
    face_lines = []

    def vertex_id(v, shift, z):
        key = (v, shift)
        idx = vert_index.get(key)
        if idx is None:
            p = fw.positions[v] + lat @ np.array(shift, dtype=float)
            idx = len(vert_lines) + 1
            vert_index[key] = idx
            vert_lines.append("v %.17g %.17g %.17g" % (p[0], p[1], z))
        return idx

    for t1 in range(rows):
        for t2 in range(cols):
            for face in fc.faces:
                ids = []
                for slot in face.boundary:
                    v, s = slot.tail
                    shift = (s[0] + t1, s[1] + t2)
                    point = fw.positions[v] + lat @ np.array(shift, dtype=float)
                    z = lifting.height(lat, face.id, (t1, t2), point)
                    ids.append(vertex_id(v, shift, z))
                for i in range(1, len(ids) - 1):
                    face_lines.append("f %d %d %d" % (ids[0], ids[i], ids[i + 1]))
    return "\n".join(vert_lines + face_lines) + "\n"
