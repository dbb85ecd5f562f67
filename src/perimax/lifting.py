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

from .core import FrameworkError, NumericalError, _dots, _lattice_vectors, _tile_range
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
# The period rows of the non-tree dual edges determine the base normal when
# their rank is 2 at this tolerance, relative to their largest entry (or 1).
BASE_NORMAL_RTOL = 1e-9
# Compatibility of a supplied lifting is verified at this relative residual.
COMPAT_RTOL = 1e-9
# Fold classification dead-band, relative to the largest stress magnitude.
FOLD_RTOL = 1e-9


def _perp(v):
    """Rotate 2-vectors (rows) by a quarter turn: (x, y) -> (-y, x)."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _det2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass
class PeriodicLifting:
    """Per-face-orbit affine heights of a lattice-invariant terrain.

    ``normals[f]`` is the height gradient over face orbit f and
    ``offsets[f]`` the constant term of the face's base copy; the copy at
    lattice shift t has constant term offsets[f] - normals[f] . (Lambda t).
    """

    normals: np.ndarray       # (n_faces, 2)
    offsets: np.ndarray       # (n_faces,)

    def height(self, lattice, face, shift, point):
        """Height over ``point`` read from the plane of face copy (face, shift)."""
        return float(_heights(self, lattice, np.array([face]), np.array([shift]),
                              np.array([point], dtype=float))[0])

    def scaled(self, factor):
        return PeriodicLifting(self.normals * factor, self.offsets * factor)


def _heights(lifting, lattice, faces, shifts, points):
    """``lifting.height`` of each row: over points[i], from the plane of
    face copy (faces[i], shifts[i])."""
    normals = lifting.normals[faces]
    return _dots(normals, points) + (lifting.offsets[faces]
                                     - _dots(normals, _lattice_vectors(lattice, shifts)))


def _edge_copy_endpoints(fw, orbits, copies):
    """Positions of the tails and heads of the edge copies ``orbits[i] @ copies[i]``."""
    p = fw.positions[fw.tails[orbits]] + _lattice_vectors(fw.lattice, copies)
    return p, p + fw.edge_vectors()[orbits]


def _height_scale(fw, lifting):
    geom = max(1.0, fw.geometry_scale)
    return max(1.0,
               float(np.abs(lifting.normals).max(initial=0.0)) * geom,
               float(np.abs(lifting.offsets).max(initial=0.0)))


def compatibility_residual(fw, fc, lifting):
    """Largest height mismatch across any edge between its two faces."""
    p = fw.positions[fw.tails]
    worst = 0.0
    for point in (p, p + fw.edge_vectors()):
        hl = _heights(lifting, fw.lattice, fc.left_face, -fc.left_copy, point)
        hr = _heights(lifting, fw.lattice, fc.right_face, -fc.right_copy, point)
        worst = max(worst, float(np.abs(hl - hr).max(initial=0.0)))
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
    dn = lifting.normals[fc.left_face] - lifting.normals[fc.right_face]
    return _dots(dn, _perp(evecs)) / _dots(evecs, evecs)


def _dual_tree(fc):
    """Breadth-first spanning tree of the quotient dual graph from face 0,
    each face's edge orbits taken in ascending order.  Returns the copy of
    each face that the tree reaches and its edges as rows (face, next
    face, edge orbit, c1, c2) in visiting order, crossing edge copy (c1,
    c2) of the orbit."""
    left, right = fc.left_face.tolist(), fc.right_face.tolist()
    lcopy, rcopy = fc.left_copy.tolist(), fc.right_copy.tolist()
    adj = [[] for _ in range(fc.n_faces)]
    for k, (lf, rf) in enumerate(zip(left, right)):
        if lf != rf:
            adj[rf].append(k)
            adj[lf].append(k)
    tau = [None] * fc.n_faces
    tau[0] = (0, 0)
    queue, tree = [0], []
    for f in queue:
        for k in adj[f]:
            g, here, there = ((left[k], rcopy[k], lcopy[k]) if f == right[k]
                              else (right[k], lcopy[k], rcopy[k]))
            if tau[g] is not None:
                continue
            copy = (tau[f][0] + here[0], tau[f][1] + here[1])
            tau[g] = (copy[0] - there[0], copy[1] - there[1])
            tree.append((f, g, k) + copy)
            queue.append(g)
    if len(queue) < fc.n_faces:
        raise FrameworkError("dual graph is disconnected")  # cannot happen for valid input
    return np.array(tau), np.array(tree, dtype=int).reshape(-1, 5)


def lifting_from_stress(fw, fc, s, c0=0.0):
    """Periodic lifting inducing the periodic stress ``s``.

    Propagates normals and offsets over a breadth-first spanning tree of
    the quotient dual graph rooted at the base face, then solves the base
    normal from the period conditions and verifies every non-tree dual
    edge.  Rejects s when any consistency or periodicity residual exceeds
    tolerance, and a non-finite constant ``c0`` (FrameworkError).
    """
    s = _stress_values(s, fw.m)
    if not np.isfinite(c0):
        raise FrameworkError("c0 must be finite, got %g" % c0)
    lat = fw.lattice
    evecs = fw.edge_vectors()
    tau, tree = _dual_tree(fc)
    parent, child, orbit, copy = tree[:, 0], tree[:, 1], tree[:, 2], tree[:, 3:]

    # right -> left adds s perp(e), left -> right subtracts it
    signed = np.where(parent == fc.right_face[orbit], 1.0, -1.0) * s[orbit]
    p, q = _edge_copy_endpoints(fw, orbit, copy)
    nu_rel = np.zeros((fc.n_faces, 2))      # normal minus the base normal
    c_hat = np.zeros(fc.n_faces)            # offset at the reached copy, minus c0
    for f, g, dn, dc in zip(parent.tolist(), child.tolist(),
                            signed[:, None] * _perp(evecs[orbit]), signed * _det2(q, p)):
        nu_rel[g] = nu_rel[f] + dn
        c_hat[g] = c_hat[f] - dc

    geom = max(1.0, fw.geometry_scale)
    scale = max(1.0, float(np.abs(s).sum()) * geom * geom)
    tol = CONSTRUCTION_RTOL * scale

    # every non-tree dual edge yields one period equation for the base
    # normal plus a normal-consistency residual
    rest = np.ones(fw.m, dtype=bool)
    rest[orbit] = False
    k = np.flatnonzero(rest)
    L, R = fc.left_face[k], fc.right_face[k]
    nu_residual = float(np.abs(nu_rel[L] - nu_rel[R] - s[k, None] * _perp(evecs[k]))
                        .max(initial=0.0))
    copy = tau[R] + fc.right_copy[k]
    p, q = _edge_copy_endpoints(fw, k, copy)
    A = _lattice_vectors(lat, copy - fc.left_copy[k] - tau[L])
    b = c_hat[L] - c_hat[R] + s[k] * _det2(q, p) - _dots(nu_rel[L], A)
    if np.linalg.matrix_rank(A, tol=BASE_NORMAL_RTOL * max(1.0, float(np.abs(A).max()))) < 2:
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
    offsets = c0 + c_hat + _dots(normals, _lattice_vectors(lat, tau))
    return PeriodicLifting(normals, offsets)


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
    face, shift = fc.vertex_slot[:, 0], fc.vertex_slot[:, 1:]
    # the face's base copy contains the vertex copy (v, shift)
    point = fw.positions + _lattice_vectors(fw.lattice, shift)
    return _heights(lifting, fw.lattice, face, np.zeros_like(shift), point)


def export_terrain(fw, fc, lifting, tiles):
    """OBJ mesh of the lifted terrain over a rows x cols patch.

    Every face copy is triangulated by a fan from its first boundary
    vertex; vertices are shared between faces and numbered in the order
    the face copies (tile by tile, row-major) first meet them.
    """
    rows, cols = _tile_range(fw, tiles)
    grid = np.array([(t1, t2) for t1 in range(rows) for t2 in range(cols)])
    size = 2 * fw.m
    face = np.tile(fc.face[fc.order], len(grid))
    vertex = np.tile(np.concatenate([fw.tails, fw.heads])[fc.order], len(grid))
    shift = (fc.copy[fc.order] + grid[:, None]).reshape(-1, 2)
    point = fw.positions[vertex] + _lattice_vectors(fw.lattice, shift)
    z = _heights(lifting, fw.lattice, face, np.repeat(grid, size, axis=0), point)

    # vertex copies (vertex, shift), numbered from 1 by first slot
    low = shift.min(axis=0)
    span = shift.max(axis=0) - low + 1
    key = (vertex * span[0] + shift[:, 0] - low[0]) * span[1] + shift[:, 1] - low[1]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    number = np.empty_like(by_first)
    number[by_first] = np.arange(1, len(first) + 1)
    ids = number[inverse]
    firsts = first[by_first]
    vert_lines = ["v %.17g %.17g %.17g" % row for row in zip(
        point[firsts, 0].tolist(), point[firsts, 1].tolist(), z[firsts].tolist())]

    # fans: slot j at position i of its face, 1 <= i <= k - 2, gives the
    # triangle (first slot of the face, j, j + 1)
    sizes = np.diff(fc.start)
    within = np.arange(size) - np.repeat(fc.start[:-1], sizes)
    fan = np.flatnonzero((within >= 1) & (within < np.repeat(sizes, sizes) - 1))
    j = (fan + size * np.arange(len(grid))[:, None]).ravel()
    face_lines = ["f %d %d %d" % row for row in zip(
        ids[j - within[j % size]].tolist(), ids[j].tolist(), ids[j + 1].tolist())]
    return "\n".join(vert_lines + face_lines) + "\n"
