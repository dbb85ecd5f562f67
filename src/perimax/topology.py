"""Face structure of a non-crossing periodic framework on its torus.

Faces are traced on the quotient: each edge orbit contributes one forward
and one backward half-edge, half-edges around a vertex are ordered by
direction angle, and the successor of a half-edge is the rotational
predecessor of its twin.  Traversal tracks accumulated lattice shifts so
no infinite patch is ever materialized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (EDGE_LENGTH_RTOL, FrameworkError, _edge_vectors, _lattice_vectors,
                   _tile_range)

__all__ = [
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
# Crossing tolerance, relative to the longest edge or the geometry scale.
_CROSSING_RTOL = 1e-9
SVG_WIDTH = 640
# Two half-edges at a vertex closer in direction than this are degenerate.
_DIRECTION_TOL = 1e-12
# Grid entry pairs and copy pairs per batch of the crossing check, whose
# box survivors go through one narrow phase per batch.  Bounds those
# working arrays to about 128 KB each (a batch holds one entry pair more
# when a single entry has more partners; one entry pair's copy pairs are
# split across batches).
_SCREEN_CELLS = 1 << 14
# Largest number of candidate edge-copy pairs (broad-phase rows) of one
# crossing check: a long edge orbit spans many lattice cells, and its rows
# grow with the product of its spans.  Bounds a check to about a second;
# its working arrays stay per batch, however long one entry pair's rows.
_MAX_SCREEN_ROWS = 1 << 20


@dataclass
class FaceComplex:
    """The face orbits of a torus embedding as arrays over the 2m half-edges
    (orbit k forward at k, reversed at k + m), in the manner of a
    doubly-connected edge list (de Berg et al., "Computational Geometry",
    ch. 2).

    Half-edge h lies on the boundary of face orbit ``face[h]``, its tail
    is the vertex copy at lattice shift ``copy[h]`` in that face's base
    traversal, and ``succ[h]`` follows it along the boundary.  ``order``
    lists the half-edges face by face, face f at order[start[f]:start[f +
    1]] from the half-edge it was traced from, and ``corners`` holds the
    interior angle at each tail in that order.  The tetrad columns of
    edge orbit k: the faces left and right of its forward direction, and
    the copy offsets at which its canonical copy appears in their base
    traversals; crossing it right -> left from face copy t lands at
    t + right_copy[k] - left_copy[k].  Row v of ``vertex_slot`` is
    (face, s1, s2): the base copy of that face holds the vertex copy
    (v, (s1, s2)).
    """

    face: np.ndarray            # (2m,)
    copy: np.ndarray            # (2m, 2)
    succ: np.ndarray            # (2m,)
    order: np.ndarray           # (2m,)
    start: np.ndarray           # (n_faces + 1,)
    corners: np.ndarray         # (2m,), in boundary order
    left_face: np.ndarray       # (m,)
    right_face: np.ndarray      # (m,)
    left_copy: np.ndarray       # (m, 2)
    right_copy: np.ndarray      # (m, 2)
    vertex_slot: np.ndarray     # (n, 3)

    @property
    def n_faces(self):
        return len(self.start) - 1


# -- non-crossing test ----------------------------------------------------


@dataclass
class NoncrossingReport:
    ok: bool
    crossings: list

    def __bool__(self):
        return self.ok


def _narrow_phase(p1, p2, q1, q2, shared, eps):
    """Closed-segment intersection of the rows (p1, p2) and (q1, q2),
    allowing contact only at a shared vertex copy (where ``shared``), with
    each row's absolute length tolerance ``eps``: an orientation within
    eps * max(length, eps) of zero is collinear, a point within eps of a
    segment's box is on it.  The four orientations and the four endpoint
    tests each run as one stacked pass over both segments."""
    # ends[0] is segment q, ends[1] segment p; ends[::-1] the other's ends
    ends = np.stack((q1, q2, p1, p2)).reshape(2, 2, -1, 2)
    first, second = ends[:, 0], ends[:, 1]
    d = second - first
    length = np.hypot(d[..., 0], d[..., 1])
    rel = ends[::-1] - first[:, None]
    o = d[:, None, :, 0] * rel[..., 1] - d[:, None, :, 1] * rel[..., 0]
    tol = (eps * np.maximum(length, eps))[:, None]
    pos, neg = o > tol, o < -tol
    pad = eps[:, None]
    inside = (((np.minimum(first, second) - pad)[:, None] <= ends[::-1])
              & (ends[::-1] <= (np.maximum(first, second) + pad)[:, None]))
    # an end of one segment on the other's line and within its padded box
    touch = inside[..., 0] & inside[..., 1] & (np.abs(o) <= tol)
    # the ends of one segment strictly on opposite sides of the other
    straddle = (pos[:, 0] & neg[:, 1]) | (neg[:, 0] & pos[:, 1])
    meet = (straddle[0] & straddle[1]) | touch.reshape(4, -1).any(axis=0)
    # straight segments through a common endpoint meet elsewhere only when
    # collinear and overlapping by more than eps along p's major axis
    major = np.abs(d[1, :, 0]) >= np.abs(d[1, :, 1])
    along = np.where(major, ends[..., 0], ends[..., 1])
    top, bottom = np.maximum(along[:, 0], along[:, 1]), np.minimum(along[:, 0], along[:, 1])
    overlap = np.minimum(top[0], top[1]) - np.maximum(bottom[0], bottom[1]) > eps
    collinear = (np.abs(d[1, :, 0] * d[0, :, 1] - d[1, :, 1] * d[0, :, 0])
                 <= eps * np.maximum(length[1], length[0]))
    return np.where(shared, collinear & overlap, meet)


def _exact_crossings(tail_pos, head_pos, tails, heads, shifts, evecs, eps, b1, b2, cx, cy,
                     q1s):
    """The rows (b1, b2, cx, cy) of box survivors that cross: b1 at shift 0,
    b2's copy at (cx, cy) with its tail at ``q1s``, tested with b2's
    tolerance ``eps`` by one ``_narrow_phase``, in row order."""
    # vertex copies the two segments share; 2 means the same edge
    t1, h1, t2, h2 = tails[b1], heads[b1], tails[b2], heads[b2]
    (s1x, s1y), (hx, hy) = shifts[b1].T, shifts[b2].T + (cx, cy)
    shared = ((t2 == t1) & (cx == 0) & (cy == 0)).astype(int)
    shared += (t2 == h1) & (cx == s1x) & (cy == s1y)
    shared += (h2 == t1) & (hx == 0) & (hy == 0)
    shared += (h2 == h1) & (hx == s1x) & (hy == s1y)
    crossed = (shared < 2) & _narrow_phase(tail_pos[b1], head_pos[b1], q1s, q1s + evecs[b2],
                                           shared == 1, eps[b2])
    return b1[crossed], b2[crossed], cx[crossed], cy[crossed]


def _crossing_pairs(b1, b2, cx, cy):
    """Crossing rows as pairs ((b1, (0, 0)), (b2, (cx, cy)))."""
    return [((e1, (0, 0)), (e2, (c1, c2)))
            for e1, e2, c1, c2 in zip(b1.tolist(), b2.tolist(), cx.tolist(), cy.tolist())]


def _copies_meeting_box(lattice, tail, evec, sx, sy, lower, upper):
    """Tails (q1x, q1y) of edge copies at lattice shift (sx, sy), the edges
    given by their tails and vectors, and whether each copy's box meets the
    box from ``lower`` to ``upper`` (padded by the caller); each argument
    but the lattice and the shifts is an (x, y) pair of arrays."""
    q1x = tail[0] + (sx * lattice[0, 0] + sy * lattice[0, 1])
    q1y = tail[1] + (sx * lattice[1, 0] + sy * lattice[1, 1])
    (ex, ey), (lx, ly), (ux, uy) = evec, lower, upper
    hit = ((q1x + np.minimum(ex, 0.0) <= ux) & (q1x + np.maximum(ex, 0.0) >= lx)
           & (q1y + np.minimum(ey, 0.0) <= uy) & (q1y + np.maximum(ey, 0.0) >= ly))
    return q1x, q1y, hit


def _batches(ends, limit):
    """Consecutive index ranges (start, stop) of items with cumulative
    counts ``ends`` whose counts sum to at most ``limit``, or that hold a
    single item."""
    start, done = 0, 0
    while start < len(ends):
        stop = max(start + 1, int(np.searchsorted(ends, done + limit, side="right")))
        yield start, stop
        start, done = stop, int(ends[stop - 1])


def _cell_candidates(lattice, lower, upper, n_base):
    """Batches of copy pairs (b1, b2, sx, sy) whose boxes may meet, the
    boxes given by their corners as (2, m) arrays: b1 at shift 0, b2 at
    shift (sx, sy), b1 <= b2, each pair once, in batches of about
    ``_SCREEN_CELLS``.  A box at or past ``n_base`` pairs only with the
    boxes before ``n_base`` and with its own copies.

    A uniform grid (W. R. Franklin, "Uniform grids", Auto-Carto 9, 1989)
    of g1 x g2 cells over the unit cell in fractional coordinates, about
    one mean box wide and at most sqrt(m) cells a side.  Each box enters
    every wrapped cell its fractional bounding box (from the box's four
    corners, widened by 1/1024 cell against rounding) covers, with the
    range of lattice offsets at which it does.  Two entries of one cell,
    offset ranges r1 and r2, give the shifts r1 - r2: a rectangle, so a
    box longer than the unit cell enters each cell once.  A pair is kept
    only in the cell of the lowest cell its boxes share.  Before any pair
    is expanded, a box whose fractional coordinates overflow or that
    reaches 2^62 grid cells, and more than ``_MAX_SCREEN_ROWS`` copy pairs
    in all, are refused (FrameworkError).
    """
    m = lower.shape[1]
    (a, b), (c, d) = lattice.tolist()
    inv = np.array([[d, -b], [-c, a]]) / (a * d - b * c)
    up, down = np.maximum(inv, 0.0), np.minimum(inv, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):    # a non-finite box is refused
        frac_lo, frac_hi = up @ lower + down @ upper, up @ upper + down @ lower
    if not (np.isfinite(frac_lo).all() and np.isfinite(frac_hi).all()):
        raise FrameworkError("crossing check out of range: an edge box's fractional "
                             "coordinates overflow")
    g1, g2 =(min(max(1, math.isqrt(m)), max(1, int(1.0 / w)))
              for w in (frac_hi - frac_lo).mean(axis=1).tolist())
    # grid cell indices must fit int64
    if not max(np.abs(frac_lo).max(), np.abs(frac_hi).max()) * max(g1, g2) < 2.0 ** 62:
        raise FrameworkError("crossing check out of range: an edge box reaches 2^62 grid cells")
    (first1, first2), (last1, last2) = (
        np.floor(frac * [[g1], [g2]] + pad).astype(np.int64)
        for frac, pad in ((frac_lo, -1 / 1024), (frac_hi, 1 / 1024)))
    # entries: each box in each wrapped cell it covers, boxes in order,
    # with the lowest and highest lattice offset at which it covers it
    span2 = np.minimum(last2 - first2 + 1, g2)
    count = np.minimum(last1 - first1 + 1, g1) * span2
    box = np.repeat(np.arange(m), count)
    k = np.arange(len(box)) - np.repeat(np.cumsum(count) - count, count)
    lo1, w1 = np.divmod(first1[box] + k // span2[box], g1)
    lo2, w2 = np.divmod(first2[box] + k % span2[box], g2)
    hi1, hi2 = (last1[box] - w1) // g1, (last2[box] - w2) // g2
    # by cell, boxes ascending (the sort is stable): entry i meets j >= i
    cell = w1 * g2 + w2
    order = np.argsort(cell, kind="stable")
    cell, box, w1, w2, lo1, lo2, hi1, hi2 = (
        x[order] for x in (cell, box, w1, w2, lo1, lo2, hi1, hi2))
    # entry e pairs with the rest[e] entries e, e + 1, ... of its cell; an
    # entry past n_base only with itself, the entries before it pair with it
    rest = np.searchsorted(cell, cell, side="right") - np.arange(len(cell))
    rest = np.where(box < n_base, rest, 1)
    ends = np.cumsum(rest)
    # the rows (shifts) of all entry pairs, in floats, which cannot overflow:
    # entry e pairs with f = e .. e + rest[e] - 1, and the pair gives
    # (u_e + u_f + 1)(v_e + v_f + 1) rows, u and v the offset spans; they
    # are summed only where their bound from the largest spans is too large
    u, v = hi1 - lo1.astype(float), hi2 - lo2.astype(float)
    if ends[-1] * (2 * u.max() + 1) * (2 * v.max() + 1) > _MAX_SCREEN_ROWS:
        at = np.arange(len(cell))
        # sums of u_f, v_f and u_f v_f over the partners f of each entry
        su, sv, suv = (np.concatenate([[0.0], np.cumsum(x)]) for x in (u, v, u * v))
        su, sv, suv = (x[at + rest] - x[at] for x in (su, sv, suv))
        total = float(((u + 1) * ((v + 1) * rest + sv) + (v + 1) * su + suv).sum())
        if total > _MAX_SCREEN_ROWS:
            raise FrameworkError("crossing check too large: %.3g candidate edge-copy pairs "
                                 "exceed %d" % (total, _MAX_SCREEN_ROWS))

    def kept(pi, pj, sx, sy):
        # the copy pairs of entry pairs (pi, pj) at shifts (sx, sy) kept in pi's cell
        b1, b2 = box[pi], box[pj]
        keep = ((np.maximum(first1[b1], first1[b2] + sx * g1) % g1 == w1[pi])
                & (np.maximum(first2[b1], first2[b2] + sy * g2) % g2 == w2[pi]))
        return b1[keep], b2[keep], sx[keep], sy[keep]

    for e0, e1 in _batches(ends, _SCREEN_CELLS):
        share, past = rest[e0:e1], ends[e0:e1]
        i = np.repeat(np.arange(e0, e1), share)
        j = i + np.arange(past[0] - share[0], past[-1]) - np.repeat(past - share, share)
        # each entry pair's rectangle of shifts, one row per shift, row-major
        size2 = hi2[i] - lo2[i] + hi2[j] - lo2[j] + 1
        count = (hi1[i] - lo1[i] + hi1[j] - lo1[j] + 1) * size2
        rows_end = np.cumsum(count)
        for p0, p1 in _batches(rows_end, _SCREEN_CELLS):
            rows, past = count[p0:p1], rows_end[p0:p1]
            if past[-1] - past[0] + rows[0] == p1 - p0:
                # one shift per entry pair (the usual case): no expansion
                pi, pj = i[p0:p1], j[p0:p1]
                yield kept(pi, pj, lo1[pi] - hi1[pj], lo2[pi] - hi2[pj])
                continue
            # the batch's rows, at most _SCREEN_CELLS at a time: a batch of
            # one entry pair may hold more
            for r0 in range(int(past[0] - rows[0]), int(past[-1]), _SCREEN_CELLS):
                r = np.arange(r0, min(r0 + _SCREEN_CELLS, int(past[-1])))
                pair = p0 + np.searchsorted(past, r, side="right")
                k = r - (rows_end[pair] - count[pair])
                pi, pj, psize2 = i[pair], j[pair], size2[pair]
                yield kept(pi, pj, lo1[pi] - hi1[pj] + k // psize2, lo2[pi] - hi2[pj] + k % psize2)


def _grid_crossings(lattice, tail_pos, evecs, tails, heads, shifts, eps, n_base):
    """Crossing rows (b1, b2, sx, sy) of edge rows, sorted: b1 at shift 0,
    b2 at shift (sx, sy), b1 <= b2, each tested with b2's tolerance
    ``eps``; rows at or past ``n_base`` are tested only against the rows
    before it and their own copies.  Candidates come in batches from a
    lattice cell grid (``_cell_candidates``) over eps-padded boxes; each
    batch goes through the box test of b1 padded by b2's eps
    (``_copies_meeting_box``) and ``_exact_crossings``, so only crossing
    rows outlive it."""
    head_pos = tail_pos + evecs
    lower, upper = np.minimum(tail_pos, head_pos).T, np.maximum(tail_pos, head_pos).T
    (tx, ty), (ex, ey), (lx, ly), (ux, uy) = tail_pos.T, evecs.T, lower, upper
    found = []
    for b1, b2, sx, sy in _cell_candidates(lattice, lower - eps, upper + eps, n_base):
        pad = eps[b2]
        q1x, q1y, hit = _copies_meeting_box(lattice, (tx[b2], ty[b2]), (ex[b2], ey[b2]), sx, sy,
                                            (lx[b1] - pad, ly[b1] - pad),
                                            (ux[b1] + pad, uy[b1] + pad))
        hit &= (b1 != b2) | (sx != 0) | (sy != 0)
        found.append(_exact_crossings(tail_pos, head_pos, tails, heads, shifts, evecs, eps,
                                      b1[hit], b2[hit], sx[hit], sy[hit],
                                      np.column_stack([q1x[hit], q1y[hit]])))
    b1, b2, sx, sy = map(np.concatenate, zip(*found))
    order = np.lexsort((sy, sx, b2, b1))
    return b1[order], b2[order], sx[order], sy[order]


def check_noncrossing(fw):
    """Check that no two edge segments intersect except at shared endpoints.

    Periodicity reduces the test to pairs (b1 at shift 0, b2 at shift s)
    with b1 <= b2, within ``_CROSSING_RTOL`` times the longest edge or the
    geometry scale, whichever is larger, screened by ``_grid_crossings``.
    ``crossings`` is in the order (b1, b2, then shift in row-major order).
    """
    if not fw.m:
        return NoncrossingReport(True, [])
    crossings = _crossing_pairs(*_orbit_crossing_rows(fw, np.empty((0, 4), int))[0])
    return NoncrossingReport(not crossings, crossings)


def _orbit_crossing_rows(fw, rows):
    """Crossing rows (b1, b2, sx, sy) of fw and of new edge orbits (rows of
    canonical (tail, head, c1, c2) at indices m, m + 1, ...), from one
    ``_grid_crossings`` pass that tests no two new rows against each other,
    with the tolerance of ``check_noncrossing`` for fw and for each new row
    that of fw extended by it; and which new rows have zero length by
    ``validate_geometry``'s rule, which no framework holds."""
    m = fw.m
    tails = np.concatenate([fw.tails, rows[:, 0]])
    heads = np.concatenate([fw.heads, rows[:, 1]])
    shifts = np.concatenate([fw.shifts, rows[:, 2:]])
    with np.errstate(over="ignore", invalid="ignore"):    # a non-finite length is refused
        evecs = np.concatenate([fw.edge_vectors(), _edge_vectors(
            fw.lattice, fw.positions, rows[:, 0], rows[:, 1], rows[:, 2:])])
        lengths = np.linalg.norm(evecs, axis=1)
    if not np.isfinite(lengths).all():
        raise FrameworkError("crossing check out of range: edge orbit %d is too long to measure"
                             % np.argmin(np.isfinite(lengths)))
    longest = max(fw.geometry_scale, float(lengths[:m].max(initial=0.0)))
    eps = _CROSSING_RTOL * np.maximum(lengths, longest)
    return (_grid_crossings(fw.lattice, fw.positions[tails], evecs, tails, heads, shifts,
                            eps, m),
            lengths[m:] <= EDGE_LENGTH_RTOL * fw.geometry_scale)


# -- face tracing ---------------------------------------------------------


def _direction_angles(evecs):
    """Direction angles of half-edges: orbit k forward at k, reversed at k + m."""
    d = np.concatenate([evecs, -evecs])
    return np.arctan2(d[:, 1], d[:, 0])


def _corner(a, a_next, wrap):
    """Angle from direction a counterclockwise to a_next, past the cut at pi where wrap."""
    return np.where(wrap, a_next + 2 * math.pi, a_next) - a


def _star_table(fw):
    """The star of every vertex as arrays over the 2m half-edges.

    Returns (tails, nxt, corners): the vertex half-edge h leaves, the next
    half-edge counterclockwise around that vertex (one lexsort by vertex,
    then angle), and the corner from h to it, which wraps for the last
    half-edge of each star.
    """
    tails = np.concatenate([fw.tails, fw.heads])
    angles = _direction_angles(fw.edge_vectors())
    order = np.lexsort((angles, tails))
    # in sorted order: the last of each star steps to the first of it
    grouped = tails[order]
    last = grouped != np.append(grouped[1:], -1)
    lasts = np.flatnonzero(last)
    following = np.arange(1, len(order) + 1)
    following[lasts] = np.append(0, lasts[:-1] + 1)
    nxt, wrap = np.empty_like(order), np.empty_like(last)
    nxt[order], wrap[order] = order[following], last
    return tails, nxt, _corner(angles, angles[nxt], wrap)


def trace_faces(fw):
    """Trace all face orbits and assemble the face complex.

    The successor of a half-edge is the clockwise neighbour of its twin;
    faces start at orbit k forward, then reversed, for k = 0..m-1.  Raises
    FrameworkError for two edges sharing a direction at a vertex, Euler
    violations, non-contractible or non-simple faces (naming the first
    such face); these signal a crossing or a degenerate placement.
    """
    m = fw.m
    tails, nxt, corners = _star_table(fw)
    shared = tails[corners <= _DIRECTION_TOL]
    if len(shared):
        raise FrameworkError(
            "degenerate placement: two edges at vertex %d share a direction" % shared.min())
    # the clockwise neighbour of the twin; argsort inverts the permutation nxt
    inverse = np.argsort(nxt)
    succ = np.concatenate([inverse[m:], inverse[:m]])
    step, angle, vertex = succ.tolist(), corners.tolist(), tails.tolist()
    deltas = np.concatenate([fw.shifts, -fw.shifts]).tolist()
    face, cx, cy = [-1] * (2 * m), [0] * (2 * m), [0] * (2 * m)
    order, start, vertex_slot = [], [0], {}
    for first in itertools.chain.from_iterable(zip(range(m), range(m, 2 * m))):
        if face[first] >= 0:
            continue
        fid = len(start) - 1
        h, total, seen = first, 0.0, set()
        sx = sy = 0
        while face[h] < 0:
            face[h] = fid
            cx[h], cy[h] = sx, sy
            order.append(h)
            total += angle[h]
            seen.add((vertex[h], sx, sy))
            vertex_slot.setdefault(vertex[h], (fid, sx, sy))
            dx, dy = deltas[h]
            sx, sy = sx + dx, sy + dy
            h = step[h]
        size = len(order) - start[-1]
        start.append(len(order))
        if sx or sy:
            raise FrameworkError("Euler violation: face %d is non-contractible "
                                 "(net shift %r)" % (fid, (sx, sy)))
        if len(seen) != size:
            raise FrameworkError("non-simple face %d: repeated vertex copy" % fid)
        if abs(total - (size - 2) * math.pi) > ANGLE_SUM_TOL:
            raise FrameworkError("Euler violation: face %d angle sum %.12g != (k-2)pi"
                                 % (fid, total))
    if fw.n - m + len(start) - 1 != 0:
        raise FrameworkError("Euler violation: n - m + n* = %d - %d + %d != 0"
                             % (fw.n, m, len(start) - 1))

    face = np.array(face)
    order = np.array(order, dtype=int)
    copy = np.array([cx, cy]).T
    return FaceComplex(face, copy, succ, order, np.array(start), corners[order], face[:m],
                       face[m:], copy[:m], copy[m:] - fw.shifts,
                       np.array([vertex_slot[v] for v in range(fw.n)]))


@dataclass
class CornerReport:
    """Corner counts per face, with indeterminate (near-flat) angles flagged."""

    counts: list
    flat_angles: list
    corner_identity_ok: bool


def _corner_kinds(corners):
    """+1 for a convex corner, 0 for a flat one (within ``CORNER_ANGLE_TOL`` of
    pi) and -1 for a reflex one: the corner rule of faces, pointedness and paths."""
    excess = corners - math.pi
    return (excess < -CORNER_ANGLE_TOL).astype(int) - (excess > CORNER_ANGLE_TOL)


def corner_count(fw, fc):
    """Count corners (interior angles < pi) of every face orbit.

    Flat angles (``_corner_kinds`` 0) are reported as indeterminate; they
    are not counted as corners.  Also verifies, when every face has exactly
    three corners, the corner-count identity 2m = n + 3n*.
    """
    return _corner_report(fw, fc, _corner_kinds(fc.corners))


def _corner_report(fw, fc, kinds):
    """``corner_count`` of fw's faces fc from the ``_corner_kinds`` of fc.corners."""
    face = fc.face[fc.order]
    counts = np.bincount(face[kinds > 0], minlength=fc.n_faces).tolist()
    flats = [[] for _ in counts]
    flat = np.flatnonzero(kinds == 0)
    for i, f in zip(flat.tolist(), face[flat].tolist()):
        flats[f].append(i - int(fc.start[f]))
    three = all(c == 3 for c in counts) and not any(flats)
    return CornerReport(counts, flats, not three or 2 * fw.m == fw.n + 3 * fc.n_faces)


# -- SVG export -----------------------------------------------------------


def _palette_color(i):
    hue = (i * 137.50776405003785) % 360.0
    return "hsl(%.4f, 62%%, 72%%)" % hue


def render_svg(fw, fc, tiles):
    """Render a patch as SVG with faces filled per-orbit and edges stroked."""
    rows, cols = _tile_range(fw, tiles)
    lat = fw.lattice
    bases = _lattice_vectors(lat, [(t1, t2) for t1 in range(rows) for t2 in range(cols)])
    vertex = np.concatenate([fw.tails, fw.heads])[fc.order]
    # face corners tile by tile, face by face, and edge copies tile by tile
    pts = fw.positions[vertex] + _lattice_vectors(lat, fc.copy[fc.order])
    pts = (pts + bases[:, None]).reshape(-1, 2)
    tail_pts = fw.positions[fw.tails] + bases[:, None]
    ends = np.concatenate([tail_pts, tail_pts + fw.edge_vectors()], axis=2).reshape(-1, 4)

    box = pts if len(pts) else np.array([[0.0, 0.0], [1.0, 1.0]])
    (x0, y0), (x1, y1) = box.min(axis=0), box.max(axis=0)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    height = SVG_WIDTH * (y1 - y0) / (x1 - x0)

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" '
        'viewBox="%.6f %.6f %.6f %.6f">' % (SVG_WIDTH, height, x0, y0, x1 - x0, y1 - y0)
    )
    # flip y so the drawing uses mathematical orientation
    out.append('<g transform="translate(0 %.6f) scale(1 -1)">' % (y0 + y1))
    points = ["%.6f,%.6f" % (x, y) for x, y in pts.tolist()]
    for tile in range(rows * cols):
        at = [tile * 2 * fw.m + b for b in fc.start.tolist()]
        for f in range(fc.n_faces):
            path = " ".join(points[at[f]:at[f + 1]])
            out.append('<polygon points="%s" fill="%s" stroke="none"/>'
                       % (path, _palette_color(f)))
    sw = 0.01 * max(x1 - x0, y1 - y0)
    for xa, ya, xb, yb in ends.tolist():
        out.append('<line x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f" '
                   'stroke="black" stroke-width="%.6f" stroke-linecap="round"/>'
                   % (xa, ya, xb, yb, sw))
    out.append("</g></svg>")
    return "\n".join(out)
