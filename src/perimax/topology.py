"""Face structure of a non-crossing periodic framework on its torus.

Faces are traced on the quotient: each edge orbit contributes one forward
and one backward half-edge, half-edges around a vertex are ordered by
direction angle, and the successor of a half-edge is the rotational
predecessor of its twin.  Traversal tracks accumulated lattice shifts so
no infinite patch is ever materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FrameworkError

__all__ = [
    "HalfEdge",
    "FaceOrbit",
    "Tetrad",
    "FaceComplex",
    "NoncrossingReport",
    "check_noncrossing",
    "trace_faces",
    "corner_count",
    "CornerReport",
    "render_svg",
]

# Angle within this of pi counts as an indeterminate "flat" corner.
CORNER_ANGLE_TOL = 1e-9
# Interior angles of a k-gon must sum to (k-2)*pi within this.
ANGLE_SUM_TOL = 1e-8
# Window cells (edge pair x lattice shift) screened per numpy batch in
# check_noncrossing; bounds its working arrays to about 128 KB each.
_SCREEN_CELLS = 1 << 14


@dataclass(frozen=True)
class HalfEdge:
    """One traversal slot of an edge orbit inside a face boundary.

    ``tail`` and ``head`` are vertex copies (vertex id, lattice shift)
    relative to the face's base copy.
    """

    orbit: int
    forward: bool
    tail: tuple
    head: tuple


@dataclass
class FaceOrbit:
    """A face orbit: cyclic boundary of half-edges plus interior angles."""

    id: int
    boundary: list
    corner_angles: list


@dataclass(frozen=True)
class Tetrad:
    """Orientation data of an edge orbit: faces left/right of the forward
    direction, with the copy offsets at which the canonical edge copy
    appears in each face's base traversal."""

    orbit: int
    tail: int
    head: int
    left_face: int
    right_face: int
    left_copy: tuple
    right_copy: tuple

    @property
    def dual_offset(self):
        """Crossing right -> left from face copy t lands at t + dual_offset."""
        return (self.right_copy[0] - self.left_copy[0],
                self.right_copy[1] - self.left_copy[1])


@dataclass
class FaceComplex:
    """Faces, tetrads and the vertex->face incidence of a torus embedding."""

    faces: list
    tetrads: list
    vertex_slot: dict = field(default_factory=dict)

    @property
    def n_faces(self):
        return len(self.faces)


# -- non-crossing test ----------------------------------------------------


@dataclass
class NoncrossingReport:
    ok: bool
    crossings: list

    def __bool__(self):
        return self.ok


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _collinear_overlap(p1, p2, q1, q2, eps):
    """1D overlap test for collinear segments; True if they share more
    than a point."""
    d = p2 - p1
    axis = 0 if abs(d[0]) >= abs(d[1]) else 1
    a0, a1 = sorted((p1[axis], p2[axis]))
    b0, b1 = sorted((q1[axis], q2[axis]))
    return min(a1, b1) - max(a0, b0) > eps


def _on_segment(a, b, c, eps):
    return (min(a[0], b[0]) - eps <= c[0] <= max(a[0], b[0]) + eps
            and min(a[1], b[1]) - eps <= c[1] <= max(a[1], b[1]) + eps)


def _segments_cross(p1, p2, q1, q2, shared, eps):
    """Closed-segment intersection, allowing contact only at a shared
    vertex copy.  ``eps`` is an absolute length tolerance."""
    dp = p2 - p1
    dq = q2 - q1
    lp = float(np.hypot(dp[0], dp[1]))
    lq = float(np.hypot(dq[0], dq[1]))
    if shared:
        # straight segments through a common endpoint meet elsewhere only
        # when collinear and overlapping
        if abs(_cross(dp, dq)) <= eps * max(lp, lq):
            return _collinear_overlap(p1, p2, q1, q2, eps)
        return False
    o1 = _cross(dq, p1 - q1)
    o2 = _cross(dq, p2 - q1)
    o3 = _cross(dp, q1 - p1)
    o4 = _cross(dp, q2 - p1)

    def sign(o, length):
        if abs(o) <= eps * max(length, eps):
            return 0
        return 1 if o > 0 else -1

    s1, s2 = sign(o1, lq), sign(o2, lq)
    s3, s4 = sign(o3, lp), sign(o4, lp)
    if s1 * s2 < 0 and s3 * s4 < 0:
        return True
    if s1 == 0 and _on_segment(q1, q2, p1, eps):
        return True
    if s2 == 0 and _on_segment(q1, q2, p2, eps):
        return True
    if s3 == 0 and _on_segment(p1, p2, q1, eps):
        return True
    if s4 == 0 and _on_segment(p1, p2, q2, eps):
        return True
    return False


def check_noncrossing(fw, eps_rel=1e-9):
    """Check that no two edge segments intersect except at shared endpoints.

    Periodicity reduces the test to pairs (b1 at shift 0, b2 at shift s)
    with b1 <= b2.  Each pair has its own shift window: centered at the
    rounded lattice-coordinate offset of the two tails, with half-width
    ceil(ext1 + ext2 + 0.5), where ext is an edge's largest lattice
    coordinate; so distant representatives and long edges are both
    handled.

    The broad phase is batched: the pairs, in row-major order of
    (b1, b2), are taken in chunks of at most ``_SCREEN_CELLS`` window
    cells.  One window sized to the largest pair radius of the chunk is
    laid over every pair, each pair is masked back to its own window, and
    the eps-padded bounding-box test runs on all candidates at once.
    Survivors reach the exact segment test in the order (b1, b2, then
    shift in row-major order), which is the order of ``crossings``.
    """
    m = fw.m
    if m == 0:
        return NoncrossingReport(True, [])
    lat = fw.lattice
    tails, heads, cshift = fw.tails, fw.heads, fw.shifts
    evecs = fw.edge_vectors()
    lengths = np.linalg.norm(evecs, axis=1)
    eps = eps_rel * max(float(lengths.max()), fw.geometry_scale)
    # per-edge extent in lattice coordinates
    coords = np.linalg.solve(lat, evecs.T).T
    extents = np.abs(coords).max(axis=1)
    tail_pos = fw.positions[tails]
    tail_coords = np.linalg.solve(lat, tail_pos.T).T
    head_pos = tail_pos + evecs
    box_lo = np.minimum(tail_pos, head_pos) - eps
    box_hi = np.maximum(tail_pos, head_pos) + eps
    # a copy's box runs from its tail + ev_lo to its tail + ev_hi
    ev_lo = np.minimum(evecs, 0.0)
    ev_hi = np.maximum(evecs, 0.0)

    # pair k = (b1, b2) in row-major order; row b1 starts at row_start[b1]
    rows = np.arange(m)
    row_start = rows * m - rows * (rows - 1) // 2
    n_pairs = m * (m + 1) // 2
    # no pair radius exceeds max_radius, so a chunk of `step` pairs holds
    # at most _SCREEN_CELLS cells (or one pair, if its window is larger)
    max_radius = math.ceil(2 * extents.max() + 0.5)
    step = max(1, _SCREEN_CELLS // (2 * max_radius + 1) ** 2)
    crossings = []
    for lo in range(0, n_pairs, step):
        k = np.arange(lo, min(lo + step, n_pairs))
        b1 = np.searchsorted(row_start, k, side="right") - 1
        b2 = k - row_start[b1] + b1
        centers = np.round(tail_coords[b1] - tail_coords[b2]).astype(int)
        radii = np.ceil(extents[b1] + extents[b2] + 0.5).astype(int)
        # one window for the chunk, cells in row-major (meshgrid "ij") order
        grid = np.arange(-radii.max(), radii.max() + 1)
        wx, wy = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
        sx = centers[:, :1] + wx
        sy = centers[:, 1:] + wy
        # (pair, cell) arrays of the x and y of each candidate copy's tail
        q1x = tail_pos[b2, :1] + (sx * lat[0, 0] + sy * lat[0, 1])
        q1y = tail_pos[b2, 1:] + (sx * lat[1, 0] + sy * lat[1, 1])
        # each pair's own window, then the bounding-box screen (a
        # necessary condition for intersection)
        hit = ((np.maximum(np.abs(wx), np.abs(wy)) <= radii[:, None])
               & (q1x + ev_lo[b2, :1] <= box_hi[b1, :1])
               & (q1x + ev_hi[b2, :1] >= box_lo[b1, :1])
               & (q1y + ev_lo[b2, 1:] <= box_hi[b1, 1:])
               & (q1y + ev_hi[b2, 1:] >= box_lo[b1, 1:]))
        pair, cell = np.nonzero(hit)
        b1, b2 = b1[pair], b2[pair]
        shifts = np.stack([sx[pair, cell], sy[pair, cell]], axis=1)
        q1s = np.stack([q1x[pair, cell], q1y[pair, cell]], axis=1)
        q2s = q1s + evecs[b2]
        # vertex copies the two segments share; 2 means the same edge
        head_shifts = shifts + cshift[b2]
        shared = ((tails[b2] == tails[b1]) & ~shifts.any(axis=1)).astype(int)
        shared += (tails[b2] == heads[b1]) & np.all(shifts == cshift[b1], axis=1)
        shared += (heads[b2] == tails[b1]) & ~head_shifts.any(axis=1)
        shared += (heads[b2] == heads[b1]) & np.all(head_shifts == cshift[b1], axis=1)
        for i in np.nonzero(shared < 2)[0]:
            e1, e2 = int(b1[i]), int(b2[i])
            if _segments_cross(tail_pos[e1], head_pos[e1], q1s[i], q2s[i],
                               shared[i] == 1, eps):
                s = (int(shifts[i, 0]), int(shifts[i, 1]))
                crossings.append(((e1, (0, 0)), (e2, s)))
    return NoncrossingReport(not crossings, crossings)


# -- face tracing ---------------------------------------------------------


def _half_edges(fw, angle_tol=1e-12):
    """Outgoing half-edges per vertex, sorted counterclockwise by angle.

    Returns (stars, data) where stars[v] is the ordered list of keys
    (orbit, forward) and data maps keys to (head vertex, shift delta,
    direction angle, direction vector).
    """
    data = {}
    stars = [[] for _ in range(fw.n)]
    evecs = fw.edge_vectors()
    for k in range(fw.m):
        t, h = int(fw.tails[k]), int(fw.heads[k])
        c = (int(fw.shifts[k, 0]), int(fw.shifts[k, 1]))
        d = evecs[k]
        ang = math.atan2(d[1], d[0])
        rev = math.atan2(-d[1], -d[0])
        data[(k, True)] = (h, c, ang, d)
        data[(k, False)] = (t, (-c[0], -c[1]), rev, -d)
        stars[t].append((k, True))
        stars[h].append((k, False))
    for v in range(fw.n):
        stars[v].sort(key=lambda key: data[key][2])
        angs = [data[key][2] for key in stars[v]]
        for i in range(len(angs)):
            gap = angs[i] - angs[i - 1]
            if i == 0:
                gap += 2 * math.pi
            if len(angs) > 1 and abs(gap) <= angle_tol:
                raise FrameworkError(
                    "degenerate placement: two edges at vertex %d share a direction" % v
                )
    return stars, data


def trace_faces(fw):
    """Trace all face orbits and assemble the face complex.

    Raises FrameworkError for Euler violations, non-contractible or
    non-simple faces; these signal a crossing or a degenerate placement.
    """
    stars, data = _half_edges(fw)
    pos_in_star = {}
    for v, star in enumerate(stars):
        for i, key in enumerate(star):
            pos_in_star[key] = (v, i)

    def successor(key):
        head = data[key][0]
        twin = (key[0], not key[1])
        _, i = pos_in_star[twin]
        star = stars[head]
        return star[(i - 1) % len(star)]

    visited = {}
    faces = []
    left_slot = {}
    right_slot = {}
    vertex_slot = {}
    for k0 in range(fw.m):
        for fwd0 in (True, False):
            start = (k0, fwd0)
            if start in visited:
                continue
            fid = len(faces)
            boundary = []
            key = start
            shift = (0, 0)
            tail_v = int(fw.tails[k0]) if fwd0 else int(fw.heads[k0])
            copies = []
            while True:
                visited[key] = fid
                head_v, delta, _, _ = data[key]
                tail_copy = (tail_v, shift)
                head_shift = (shift[0] + delta[0], shift[1] + delta[1])
                boundary.append(HalfEdge(key[0], key[1], tail_copy, (head_v, head_shift)))
                copies.append(tail_copy)
                # copy offset at which this edge orbit occurs in the face:
                # forward slots start at the copy's tail, backward slots end there
                slot_map = left_slot if key[1] else right_slot
                slot_map[key[0]] = (fid, shift if key[1] else head_shift)
                key = successor(key)
                tail_v = head_v
                shift = head_shift
                if key == start:
                    break
            if shift != (0, 0):
                raise FrameworkError(
                    "Euler violation: face %d is non-contractible (net shift %r)"
                    % (fid, shift)
                )
            if len(set(copies)) != len(copies):
                raise FrameworkError("non-simple face %d: repeated vertex copy" % fid)
            angles = _interior_angles(boundary, data)
            kgon = len(boundary)
            if abs(sum(angles) - (kgon - 2) * math.pi) > ANGLE_SUM_TOL:
                raise FrameworkError(
                    "Euler violation: face %d angle sum %.12g != (k-2)pi"
                    % (fid, sum(angles))
                )
            faces.append(FaceOrbit(fid, boundary, angles))
            for slot in boundary:
                vertex_slot.setdefault(slot.tail[0], (fid, slot.tail[1]))

    n_star = len(faces)
    if fw.n - fw.m + n_star != 0:
        raise FrameworkError(
            "Euler violation: n - m + n* = %d - %d + %d != 0" % (fw.n, fw.m, n_star)
        )

    tetrads = []
    for k in range(fw.m):
        lf, lcopy = left_slot[k]
        rf, rcopy = right_slot[k]
        tetrads.append(Tetrad(k, int(fw.tails[k]), int(fw.heads[k]),
                              lf, rf, lcopy, rcopy))
    return FaceComplex(faces, tetrads, vertex_slot)


def _interior_angles(boundary, data):
    """Interior angle at each boundary corner of a counterclockwise face."""
    angles = []
    kgon = len(boundary)
    for i in range(kgon):
        d_in = data[(boundary[i - 1].orbit, boundary[i - 1].forward)][3]
        d_out = data[(boundary[i].orbit, boundary[i].forward)][3]
        a = math.atan2(-d_in[1], -d_in[0]) - math.atan2(d_out[1], d_out[0])
        angles.append(a % (2 * math.pi))
    return angles


@dataclass
class CornerReport:
    """Corner counts per face, with indeterminate (near-flat) angles flagged."""

    counts: list
    flat_angles: list
    degree_sum_ok: bool
    corner_identity_ok: bool


def corner_count(fw, fc, angle_tol=CORNER_ANGLE_TOL):
    """Count corners (interior angles < pi) of every face orbit.

    Angles within ``angle_tol`` of pi are reported as indeterminate; they
    are not counted as corners.  Also verifies the degree-sum identity and,
    when every face has exactly three corners, the corner-count identity
    2m = n + 3n*.
    """
    counts = []
    flats = []
    for face in fc.faces:
        c = 0
        flat = []
        for i, a in enumerate(face.corner_angles):
            if abs(a - math.pi) <= angle_tol:
                flat.append(i)
            elif a < math.pi:
                c += 1
        counts.append(c)
        flats.append(flat)
    degree_sum_ok = int(fw.degrees().sum()) == 2 * fw.m
    identity_ok = True
    if all(c == 3 for c in counts) and not any(flats):
        identity_ok = 2 * fw.m == fw.n + 3 * fc.n_faces
    return CornerReport(counts, flats, degree_sum_ok, identity_ok)


# -- SVG export -----------------------------------------------------------


def _palette_color(i):
    hue = (i * 137.50776405003785) % 360.0
    return "hsl(%.4f, 62%%, 72%%)" % hue


def render_svg(fw, fc, tiles, width=640):
    """Render a patch as SVG with faces filled per-orbit and edges stroked."""
    rows, cols = int(tiles[0]), int(tiles[1])
    if rows < 1 or cols < 1:
        raise FrameworkError("empty tile range %r" % (tiles,))
    lat = fw.lattice
    polys = []
    for t1 in range(rows):
        for t2 in range(cols):
            base = lat @ np.array([t1, t2], dtype=float)
            for face in fc.faces:
                pts = []
                for slot in face.boundary:
                    v, s = slot.tail
                    p = fw.positions[v] + lat @ np.array(s, dtype=float) + base
                    pts.append((float(p[0]), float(p[1])))
                polys.append((face.id, pts))
    segs = []
    for t1 in range(rows):
        for t2 in range(cols):
            base = lat @ np.array([t1, t2], dtype=float)
            for k in range(fw.m):
                p = fw.positions[fw.tails[k]] + base
                q = p + fw.edge_vector(k)
                segs.append(((float(p[0]), float(p[1])), (float(q[0]), float(q[1]))))

    xs = [x for _, pts in polys for x, _ in pts] or [0.0, 1.0]
    ys = [y for _, pts in polys for _, y in pts] or [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    height = width * (y1 - y0) / (x1 - x0)

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" '
        'viewBox="%.6f %.6f %.6f %.6f">' % (width, height, x0, y0, x1 - x0, y1 - y0)
    )
    # flip y so the drawing uses mathematical orientation
    out.append('<g transform="translate(0 %.6f) scale(1 -1)">' % (y0 + y1))
    for fid, pts in polys:
        path = " ".join("%.6f,%.6f" % p for p in pts)
        out.append('<polygon points="%s" fill="%s" stroke="none"/>' % (path, _palette_color(fid)))
    sw = 0.01 * max(x1 - x0, y1 - y0)
    for (xa, ya), (xb, yb) in segs:
        out.append('<line x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f" '
                   'stroke="black" stroke-width="%.6f" stroke-linecap="round"/>'
                   % (xa, ya, xb, yb, sw))
    out.append("</g></svg>")
    return "\n".join(out)
