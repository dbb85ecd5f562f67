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


class _EdgeScreen:
    """Crossing screen of edge pairs (b1 at shift 0, b2 at every shift of
    the pair's window) over shared per-edge geometry.  A pair's window is
    centered at the rounded lattice-coordinate offset of the two tails,
    with half-width ceil(ext1 + ext2 + 0.5), where ext is an edge's largest
    lattice coordinate; so distant representatives and long edges are both
    handled."""

    def __init__(self, fw, eps_rel=1e-9):
        self.fw = fw
        self.evecs = evecs = fw.edge_vectors()
        self.eps = eps = eps_rel * max(float(np.linalg.norm(evecs, axis=1).max()),
                                       fw.geometry_scale)
        self.extents = np.abs(np.linalg.solve(fw.lattice, evecs.T)).max(axis=0)
        self.tail_pos = tail_pos = fw.positions[fw.tails]
        self.tail_coords = np.linalg.solve(fw.lattice, tail_pos.T).T
        self.head_pos = head_pos = tail_pos + evecs
        self.box_lo = np.minimum(tail_pos, head_pos) - eps
        self.box_hi = np.maximum(tail_pos, head_pos) + eps
        # a copy's box runs from its tail + ev_lo to its tail + ev_hi
        self.ev_lo, self.ev_hi = np.minimum(evecs, 0.0), np.maximum(evecs, 0.0)

    def crossings(self, chunks):
        """Crossings among the pairs (b1[i], b2[i]) of each chunk (b1, b2),
        by chunk, pair and shift.  A chunk lays one window (its largest pair
        radius) over all its pairs, masks each back to its own, runs the
        eps-padded bounding-box test on every cell at once and gives the
        survivors the exact test.  One loop keeps a chunk's arrays alive
        until the next chunk has replaced them: the allocator does not return
        their memory to the system in between, which cost about 30% at
        m = 384 on a 2-core Xeon."""
        lat, tails, heads, cshift = self.fw.lattice, self.fw.tails, self.fw.heads, self.fw.shifts
        tail_pos, head_pos, ev_lo, ev_hi = self.tail_pos, self.head_pos, self.ev_lo, self.ev_hi
        out = []
        for b1, b2 in chunks:
            centers = np.round(self.tail_coords[b1] - self.tail_coords[b2]).astype(int)
            radii = np.ceil(self.extents[b1] + self.extents[b2] + 0.5).astype(int)
            # cells in row-major (meshgrid "ij") order
            grid = np.arange(-radii.max(), radii.max() + 1)
            wx, wy = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
            sx, sy = centers[:, :1] + wx, centers[:, 1:] + wy
            # (pair, cell) arrays of the x and y of each candidate copy's tail
            q1x = tail_pos[b2, :1] + (sx * lat[0, 0] + sy * lat[0, 1])
            q1y = tail_pos[b2, 1:] + (sx * lat[1, 0] + sy * lat[1, 1])
            hit = ((np.maximum(np.abs(wx), np.abs(wy)) <= radii[:, None])
                   & (q1x + ev_lo[b2, :1] <= self.box_hi[b1, :1])
                   & (q1x + ev_hi[b2, :1] >= self.box_lo[b1, :1])
                   & (q1y + ev_lo[b2, 1:] <= self.box_hi[b1, 1:])
                   & (q1y + ev_hi[b2, 1:] >= self.box_lo[b1, 1:]))
            pair, cell = np.nonzero(hit)
            b1, b2 = b1[pair], b2[pair]
            shifts = np.stack([sx[pair, cell], sy[pair, cell]], axis=1)
            q1s = np.stack([q1x[pair, cell], q1y[pair, cell]], axis=1)
            q2s = q1s + self.evecs[b2]
            # vertex copies the two segments share; 2 means the same edge
            head_shifts = shifts + cshift[b2]
            shared = ((tails[b2] == tails[b1]) & ~shifts.any(axis=1)).astype(int)
            shared += (tails[b2] == heads[b1]) & np.all(shifts == cshift[b1], axis=1)
            shared += (heads[b2] == tails[b1]) & ~head_shifts.any(axis=1)
            shared += (heads[b2] == heads[b1]) & np.all(head_shifts == cshift[b1], axis=1)
            for i in np.nonzero(shared < 2)[0]:
                e1, e2 = int(b1[i]), int(b2[i])
                if _segments_cross(tail_pos[e1], head_pos[e1], q1s[i], q2s[i],
                                   shared[i] == 1, self.eps):
                    out.append(((e1, (0, 0)), (e2, (int(shifts[i, 0]), int(shifts[i, 1])))))
        return out


def check_noncrossing(fw, eps_rel=1e-9):
    """Check that no two edge segments intersect except at shared endpoints.

    Periodicity reduces the test to pairs (b1 at shift 0, b2 at shift s)
    with b1 <= b2, each over its own shift window (see ``_EdgeScreen``).
    The pairs are screened in row-major order of (b1, b2), in chunks of
    at most ``_SCREEN_CELLS`` window cells; ``crossings`` is in the order
    (b1, b2, then shift in row-major order).
    """
    m = fw.m
    if m == 0:
        return NoncrossingReport(True, [])
    screen = _EdgeScreen(fw, eps_rel)
    # pair k = (b1, b2) in row-major order; row b1 starts at row_start[b1]
    rows = np.arange(m)
    row_start = rows * m - rows * (rows - 1) // 2
    n_pairs = m * (m + 1) // 2
    # no pair radius exceeds max_radius, so a chunk of `step` pairs holds
    # at most _SCREEN_CELLS cells (or one pair, if its window is larger)
    max_radius = math.ceil(2 * screen.extents.max() + 0.5)
    step = max(1, _SCREEN_CELLS // (2 * max_radius + 1) ** 2)

    def chunks():
        for lo in range(0, n_pairs, step):
            k = np.arange(lo, min(lo + step, n_pairs))
            b1 = np.searchsorted(row_start, k, side="right") - 1
            yield b1, k - row_start[b1] + b1

    crossings = screen.crossings(chunks())
    return NoncrossingReport(not crossings, crossings)


# -- face tracing ---------------------------------------------------------


def _half_edges(fw, angle_tol=1e-12):
    """Outgoing half-edges per vertex, sorted counterclockwise by angle.

    Returns (stars, data) where stars[v] is the ordered list of keys
    (orbit, forward) and data maps keys to (head vertex, shift delta,
    direction angle).
    """
    data = {}
    stars = [[] for _ in range(fw.n)]
    evecs = fw.edge_vectors()
    for k in range(fw.m):
        t, h = int(fw.tails[k]), int(fw.heads[k])
        c = (int(fw.shifts[k, 0]), int(fw.shifts[k, 1]))
        d = evecs[k]
        data[(k, True)] = (h, c, math.atan2(d[1], d[0]))
        data[(k, False)] = (t, (-c[0], -c[1]), math.atan2(-d[1], -d[0]))
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
    pos_in_star = {key: i for star in stars for i, key in enumerate(star)}

    def successor(key):
        # the rotational predecessor of the twin in the head's star
        star = stars[data[key][0]]
        return star[(pos_in_star[(key[0], not key[1])] - 1) % len(star)]

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
            while True:
                visited[key] = fid
                head_v, delta, _ = data[key]
                # a half-edge leaves the head of its twin
                tail_copy = (data[(key[0], not key[1])][0], shift)
                head_shift = (shift[0] + delta[0], shift[1] + delta[1])
                boundary.append(HalfEdge(key[0], key[1], tail_copy, (head_v, head_shift)))
                # copy offset at which this edge orbit occurs in the face:
                # forward slots start at the copy's tail, backward slots end there
                slot_map = left_slot if key[1] else right_slot
                slot_map[key[0]] = (fid, shift if key[1] else head_shift)
                key = successor(key)
                shift = head_shift
                if key == start:
                    break
            if shift != (0, 0):
                raise FrameworkError(
                    "Euler violation: face %d is non-contractible (net shift %r)"
                    % (fid, shift)
                )
            if len({slot.tail for slot in boundary}) != len(boundary):
                raise FrameworkError("non-simple face %d: repeated vertex copy" % fid)
            # interior angle at a corner: from the outgoing half-edge
            # counterclockwise to the twin of the incoming one
            angles = [(data[(h_in.orbit, not h_in.forward)][2]
                       - data[(h_out.orbit, h_out.forward)][2]) % (2 * math.pi)
                      for h_in, h_out in zip(boundary[-1:] + boundary[:-1], boundary)]
            if abs(sum(angles) - (len(boundary) - 2) * math.pi) > ANGLE_SUM_TOL:
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
