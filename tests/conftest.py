"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library code paths they check:
faces are traced over dicts of half-edges with per-edge ``math.atan2``,
segment crossing is a from-scratch parametric intersection (and, per pair,
the scalar form of the library's tolerance rules), the crossing broad
phase is a window of lattice shifts per edge pair instead of the
library's cell grid, edge orbits are validated one at a time, nullspaces
come straight from numpy's SVD, derivatives are central finite
differences, continuation events are located by the plain halving loop,
one correction per midpoint, each Newton iterate runs the framework
constructor's full geometry check, and the auxetic verdict reads
``eigvalsh`` at every sample, the rigidifying search rates every
pair-table row before it keeps the face corners, and paths and the search
orient the flex by the pair-table pair with the largest |rate| instead
of the cell-area rate.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple

import numpy as np
import pytest

from perimax import (FrameworkError, NumericalError, PeriodicFramework, flex_space,
                     sublattices_up_to)
from perimax.pseudotri import (DERIVATIVE_RTOL, EdgeCandidate, _length_derivatives,
                               certify_ppt, pointedness_margin)
from perimax.relax import UnfoldedFramework
from perimax import topology
from perimax.rigidity import (_flex_system, _gauge_kernel, _gauge_position, _lattice_rate,
                              equilibrium_matrix, pair_table)
from perimax.core import _tile_range, validate_geometry
from perimax.deform import (EVENT_TAU_TOL, MIN_STEP, NEWTON_MAX_ITER, NEWTON_TOL, PSD_TOL,
                            Configuration, DeformationPath, PathSample, _corner_table, _expansive,
                            _pair_rates, _ppt_margin, gram_derivative)
from perimax.lifting import (COMPAT_RTOL, CONSTRUCTION_RTOL, PeriodicLifting, _height_scale,
                             _perp)
from perimax.topology import (ANGLE_SUM_TOL, CORNER_ANGLE_TOL, SVG_WIDTH, CornerReport,
                              FaceComplex, _palette_color, trace_faces)


# -- extra fixtures --------------------------------------------------------


def subdivided_grid():
    """Square grid with a midpoint vertex on every horizontal line.

    Carries a one-dimensional periodic stress (opposite values on the two
    vertical line orbits) and same-sign invariant equilibrium stresses that
    are not periodic; the aligned-path falsifier fixture.
    """
    return PeriodicFramework(
        [[2.0, 0.0], [0.0, 1.0]],
        [[0.0, 0.0], [1.0, 0.0]],
        [(0, 1, (0, 0)), (0, 1, (-1, 0)), (0, 0, (0, 1)), (1, 1, (0, 1))],
    )


def right_angle_pair():
    """Two edge orbits meeting at one vertex at 0 and 90 degrees."""
    return PeriodicFramework(
        np.eye(2),
        [[0.0, 0.0], [1.0, 0.0]],
        [(0, 1, (0, 0)), (0, 1, (-1, 1))],
    )


def crossed_grid():
    """Square grid plus both diagonals of one cell (a crossing pair)."""
    return PeriodicFramework(
        np.eye(2),
        [[0.0, 0.0]],
        [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, 1)), (0, 0, (1, -1))],
    )


def single_edge():
    """Two orbits joined by one unshifted edge."""
    return PeriodicFramework(
        np.eye(2), [[0.0, 0.0], [1.0, 0.0]], [(0, 1, (0, 0))])


def straddling_framework(eps=1.5e-9):
    """A well-conditioned rigidity matrix whose relaxations are not: the
    index-2 block of the character (1/2, 0) has two singular values near
    1.4e-9 and 0.7e-9 of its largest, on both sides of the rank cutoff (a
    long thin lattice whose two loops at each vertex are nearly parallel)."""
    return PeriodicFramework(
        [[1.0, -2.0], [0.0, eps]], [[0.0, 0.0], [0.5, 0.0]],
        [(0, 0, (1, 0)), (0, 0, (3, 1)), (1, 1, (1, 0)), (1, 1, (5, 2)),
         (0, 1, (0, 0))])


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_connected_framework(rng, max_n=6, max_m=14):
    """Random connected framework with a well-conditioned lattice."""
    n = int(rng.integers(1, max_n + 1))
    while True:
        lattice = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
        if abs(np.linalg.det(lattice)) > 0.3:
            break
    positions = rng.standard_normal((n, 2))
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        shift = (int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
        edges[(u, v, shift)] = None
    target_m = int(rng.integers(max(n - 1, 1), max_m + 1))
    guard = 0
    while len(edges) < target_m and guard < 200:
        guard += 1
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        shift = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        if u > v:
            u, v, shift = v, u, (-shift[0], -shift[1])
        if u == v:
            if shift == (0, 0):
                continue
            if shift[0] < 0 or (shift[0] == 0 and shift[1] < 0):
                shift = (-shift[0], -shift[1])
        if (u, v, shift) in edges:
            continue
        edges[(u, v, shift)] = None
    if not edges:
        edges[(0, 0, (1, 0))] = None
    return PeriodicFramework(lattice, positions, list(edges))


# -- oracles ---------------------------------------------------------------


def oracle_edge_orbits(n, edges):
    """Canonical (tails, heads, shifts) int64 arrays of (tail, head, (c1, c2))
    edge orbits on n vertex orbits, or the constructor's FrameworkError,
    validated one scalar at a time: first every entry in order (an integer or
    integral float, a shift within +-(2**63 - 1)), then orbit by orbit an
    unknown vertex, a loop with zero shift and a duplicate, then
    connectivity of the quotient graph by a stack walk.  Geometry is not
    checked."""
    rows = []
    for k, (tail, head, shift) in enumerate(edges):
        row = []
        for j, x in enumerate((tail, head, shift[0], shift[1])):
            if isinstance(x, numbers.Integral):
                value = int(x)
            elif isinstance(x, (float, np.floating)) and float(x).is_integer():
                value = int(x)
            else:
                value = None
            if value is None or (j >= 2 and abs(value) > 2 ** 63 - 1):
                plain = x.item() if isinstance(x, np.generic) else x
                raise FrameworkError(
                    "edge orbit %d: %r is not an integer within +-(2**63 - 1)" % (k, plain))
            row.append(value)
        rows.append(row)
    canon = []
    seen = {}
    for k, (tail, head, c1, c2) in enumerate(rows):
        if tail > head or (tail == head and (c1 < 0 or (c1 == 0 and c2 < 0))):
            tail, head, c1, c2 = head, tail, -c1, -c2
        if not (0 <= tail < n and 0 <= head < n):
            raise FrameworkError(
                "edge orbit %d refers to an unknown vertex (%d, %d)" % (k, tail, head))
        if tail == head and c1 == c2 == 0:
            raise FrameworkError("degenerate edge orbit %d: loop with zero shift" % k)
        key = (tail, head, c1, c2)
        if key in seen:
            raise FrameworkError(
                "duplicate edge orbit %d (same as orbit %d)" % (k, seen[key]))
        seen[key] = k
        canon.append(key)
    adj = [[] for _ in range(n)]
    for tail, head, _, _ in canon:
        adj[tail].append(head)
        adj[head].append(tail)
    reached = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    for v in range(n):
        if v not in reached:
            raise FrameworkError("disconnected quotient graph: vertex %d unreachable" % v)
    table = np.array(canon, dtype=np.int64).reshape(len(canon), 4)
    return table[:, 0], table[:, 1], table[:, 2:]


def oracle_framework_from_dict(doc):
    """The framework of a JSON document structure, or its FrameworkError,
    read one record and one entry at a time: the lattice, then each vertex
    record (fields, id, pos, each number), then each edge record (fields,
    ends, shift), then the constructor on (tail, head, (c1, c2)) triples."""
    def is_int(x):
        return isinstance(x, int) and not isinstance(x, bool)

    def number(x, where):
        if isinstance(x, str):
            try:
                return float(x)
            except ValueError:
                raise FrameworkError("%s: bad decimal string %r" % (where, x)) from None
        if is_int(x) or isinstance(x, float):
            try:
                return float(x)
            except OverflowError:
                raise FrameworkError("%s: number out of range" % where) from None
        raise FrameworkError("%s: expected a decimal string, got %r" % (where, x))

    if not isinstance(doc, dict):
        raise FrameworkError("document root must be an object")
    if doc.get("dimension") != 2:
        raise FrameworkError("dimension must be 2, got %r" % (doc.get("dimension"),))
    lat = doc.get("lattice")
    if (not isinstance(lat, list) or len(lat) != 2
            or any(not isinstance(col, list) or len(col) != 2 for col in lat)):
        raise FrameworkError("lattice must be two columns of two entries each")
    lattice = [[number(lat[j][i], "lattice column %d" % j) for j in range(2)] for i in range(2)]
    verts = doc.get("vertices")
    if not isinstance(verts, list) or not verts:
        raise FrameworkError("vertices must be a non-empty list")
    positions = [None] * len(verts)
    for rec in verts:
        if not isinstance(rec, dict) or "id" not in rec or "pos" not in rec:
            raise FrameworkError("vertex records need 'id' and 'pos'")
        vid = rec["id"]
        if not is_int(vid) or not 0 <= vid < len(verts) or positions[vid] is not None:
            raise FrameworkError("vertex ids must be unique and consecutive; got %r" % (vid,))
        pos = rec["pos"]
        if not isinstance(pos, list) or len(pos) != 2:
            raise FrameworkError("vertex %d: pos must have two entries" % vid)
        positions[vid] = [number(x, "vertex %d pos" % vid) for x in pos]
    erecs = doc.get("edges")
    if not isinstance(erecs, list):
        raise FrameworkError("edges must be a list")
    edges = []
    for k, rec in enumerate(erecs):
        if not isinstance(rec, dict):
            raise FrameworkError("edge %d: record must be an object" % k)
        for key in ("tail", "head", "shift"):
            if key not in rec:
                raise FrameworkError("edge %d: missing key %r" % (k, key))
        if not (is_int(rec["tail"]) and is_int(rec["head"])):
            raise FrameworkError("edge %d: tail/head must be integers" % k)
        shift = rec["shift"]
        if (not isinstance(shift, list) or len(shift) != 2
                or any(not is_int(c) or abs(c) > 2 ** 63 - 1 for c in shift)):
            raise FrameworkError("edge %d: shift must be a pair of 64-bit integers" % k)
        edges.append((rec["tail"], rec["head"], tuple(shift)))
    return PeriodicFramework(lattice, positions, edges)


def oracle_stress_check(fw, s, rtol=1e-9):
    """(ok, verdicts_agree) of ``check_periodic_stress`` from the dense
    equilibrium matrix and explicit per-generator and tensor sums."""
    evecs = fw.edge_vectors()
    elen = np.linalg.norm(evecs, axis=1)
    eq = equilibrium_matrix(fw) @ s
    ok_eq = float(np.abs(eq).max()) <= rtol * max(1.0, float((np.abs(s) * elen).sum()))
    ok_lat = True
    for j in range(2):
        res = np.linalg.norm(((s * fw.shifts[:, j])[:, None] * evecs).sum(axis=0))
        ok_lat &= res <= rtol * max(1.0, float((np.abs(s * fw.shifts[:, j]) * elen).sum()))
    periods = fw.shifts @ fw.lattice.T
    tensor = np.einsum("k,ki,kj->ij", s, periods, evecs)
    ten_scale = (np.abs(s) * np.linalg.norm(periods, axis=1) * elen).sum()
    ok_ten = float(np.abs(tensor).max()) <= rtol * max(1.0, float(ten_scale))
    return bool(ok_eq and ok_lat and ok_ten and ok_lat == ok_ten), bool(ok_lat == ok_ten)


def _xcross(a, b):
    return float(a[0] * b[1] - a[1] * b[0])


def _oracle_segments_intersect(p1, p2, q1, q2, eps=1e-12):
    """Parametric closed-segment intersection (independent of the library
    predicate)."""
    d = np.array([p2 - p1, q1 - q2]).T
    rhs = q1 - p1
    det = np.linalg.det(d)
    if abs(det) > eps:
        st = np.linalg.solve(d, rhs)
        return bool(np.all(st >= -eps) and np.all(st <= 1 + eps))
    # parallel: check collinearity then 1D overlap
    u = p2 - p1
    if abs(_xcross(u, rhs)) > eps * max(1.0, np.linalg.norm(u)):
        return False
    t_axis = np.argmax(np.abs(u)) if np.abs(u).max() > 0 else 0
    a0, a1 = sorted((p1[t_axis], p2[t_axis]))
    b0, b1 = sorted((q1[t_axis], q2[t_axis]))
    return min(a1, b1) - max(a0, b0) >= -eps


def oracle_segments_cross(p1, p2, q1, q2, shared, eps):
    """Closed-segment intersection of one pair, allowing contact only at a
    shared vertex copy; ``eps`` is an absolute length tolerance.  The scalar
    form of ``topology._narrow_phase``, one Python call per pair."""
    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def on_segment(a, b, c):
        return (min(a[0], b[0]) - eps <= c[0] <= max(a[0], b[0]) + eps
                and min(a[1], b[1]) - eps <= c[1] <= max(a[1], b[1]) + eps)

    dp = p2 - p1
    dq = q2 - q1
    lp = float(np.hypot(dp[0], dp[1]))
    lq = float(np.hypot(dq[0], dq[1]))
    if shared:
        # straight segments through a common endpoint meet elsewhere only
        # when collinear and overlapping
        if abs(cross(dp, dq)) > eps * max(lp, lq):
            return False
        axis = 0 if abs(dp[0]) >= abs(dp[1]) else 1
        a0, a1 = sorted((p1[axis], p2[axis]))
        b0, b1 = sorted((q1[axis], q2[axis]))
        return min(a1, b1) - max(a0, b0) > eps

    def sign(o, length):
        if abs(o) <= eps * max(length, eps):
            return 0
        return 1 if o > 0 else -1

    s1, s2 = sign(cross(dq, p1 - q1), lq), sign(cross(dq, p2 - q1), lq)
    s3, s4 = sign(cross(dp, q1 - p1), lp), sign(cross(dp, q2 - p1), lp)
    if s1 * s2 < 0 and s3 * s4 < 0:
        return True
    return ((s1 == 0 and on_segment(q1, q2, p1)) or (s2 == 0 and on_segment(q1, q2, p2))
            or (s3 == 0 and on_segment(p1, p2, q1)) or (s4 == 0 and on_segment(p1, p2, q2)))


def oracle_window_crossings(lattice, positions, tails, heads, shifts, evecs, eps, n_pairs,
                            pairs):
    """Crossings ((b1, (0, 0)), (b2, shift)) among pairs of edge rows, by
    the per-pair window broad phase the library had before its cell grid;
    the box test and the narrow phase are the library's.

    ``pairs`` maps pair indices k < n_pairs to rows (b1, b2): b1 at shift
    0, b2 at every shift of the pair's window (centered at the rounded
    lattice-coordinate offset of the tails, half-width ceil(ext1 + ext2 +
    0.5) for ext a row's largest lattice coordinate, so distant
    representatives and long edges are both handled), tested with b2's
    tolerance ``eps``.  Chunks of pairs in index order, of at most
    ``_SCREEN_CELLS`` cells, share one window (their largest radius), run
    the eps-padded box test on all cells at once and ``_exact_crossings``
    on the survivors; crossings come by pair, then shift in row-major
    order."""
    tail_pos = positions[tails]
    head_pos = tail_pos + evecs
    tail_coords = np.linalg.solve(lattice, tail_pos.T).T
    extents = np.abs(np.linalg.solve(lattice, evecs.T)).max(axis=0)
    lo, hi = np.minimum(tail_pos, head_pos), np.maximum(tail_pos, head_pos)
    # no pair radius exceeds max_radius, so a chunk of `step` pairs holds
    # at most _SCREEN_CELLS cells (or one pair, if its window is larger)
    max_radius = math.ceil(2 * extents.max(initial=0.0) + 0.5)
    step = max(1, topology._SCREEN_CELLS // (2 * max_radius + 1) ** 2)
    out = []
    for start in range(0, n_pairs, step):
        b1, b2 = pairs(np.arange(start, min(start + step, n_pairs)))
        centers = np.round(tail_coords[b1] - tail_coords[b2]).astype(int)
        radii = np.ceil(extents[b1] + extents[b2] + 0.5).astype(int)
        # cells in row-major (meshgrid "ij") order
        grid = np.arange(-radii.max(), radii.max() + 1)
        wx, wy = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
        sx, sy = centers[:, :1] + wx, centers[:, 1:] + wy
        # (pair, cell) arrays of the x and y of each candidate copy's tail
        pad = eps[b2, None]
        q1x, q1y, hit = topology._copies_meeting_box(
            lattice, tail_pos[b2].T[..., None], evecs[b2].T[..., None], sx, sy,
            (lo[b1] - pad).T[..., None], (hi[b1] + pad).T[..., None])
        hit &= np.maximum(np.abs(wx), np.abs(wy)) <= radii[:, None]
        pair, cell = np.nonzero(hit)
        out += topology._crossing_pairs(*topology._exact_crossings(
            tail_pos, head_pos, tails, heads, shifts, evecs, eps, b1[pair], b2[pair],
            sx[pair, cell], sy[pair, cell], np.column_stack([q1x[pair, cell], q1y[pair, cell]])))
    return out


def oracle_noncrossing(fw, halfwidth=1):
    """Brute-force crossing scan over an explicit patch of copies."""
    segs = []
    for k in range(fw.m):
        t, h = int(fw.tails[k]), int(fw.heads[k])
        c = fw.shifts[k]
        for s1 in range(-halfwidth, halfwidth + 1):
            for s2 in range(-halfwidth, halfwidth + 1):
                p = fw.positions[t] + fw.lattice @ np.array([s1, s2], float)
                q = fw.positions[h] + fw.lattice @ np.array(
                    [s1 + c[0], s2 + c[1]], float)
                ids = frozenset([(t, s1, s2), (h, s1 + int(c[0]), s2 + int(c[1]))])
                segs.append((p, q, ids))
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            p1, p2, ia = segs[i]
            q1, q2, ib = segs[j]
            shared = ia & ib
            if len(shared) == 2:
                continue
            if not _oracle_segments_intersect(p1, p2, q1, q2):
                continue
            if len(shared) == 1:
                # allowed contact point; flag only a genuine overlap
                u = p2 - p1
                v = q2 - q1
                if abs(_xcross(u, v)) > 1e-9 * np.linalg.norm(u) * np.linalg.norm(v):
                    continue
                (sv, ss1, ss2), = shared
                base = fw.positions[sv] + fw.lattice @ np.array([ss1, ss2], float)
                a = p2 - base if np.allclose(p1, base, atol=1e-9) else p1 - base
                b = q2 - base if np.allclose(q1, base, atol=1e-9) else q1 - base
                if float(a @ b) <= 1e-12:
                    continue
            return False
    return True


def oracle_nullspace(matrix, rtol=1e-9):
    """Kernel basis straight from numpy's SVD."""
    matrix = np.atleast_2d(np.asarray(matrix, float))
    u, s, vt = np.linalg.svd(matrix)
    if s.size == 0 or s[0] == 0.0:
        return vt.T
    rank = int((s > rtol * s[0]).sum())
    return vt[rank:].T


def oracle_rank(matrix, rtol=1e-9):
    matrix = np.atleast_2d(np.asarray(matrix, float))
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > rtol * s[0]).sum())


def oracle_unfolding(fw, sub):
    """(lattice, positions, edges, parent_vertex, parent_edge) of the
    unfolding, by explicit loops over vertex and edge coset copies; edges
    are (tail, head, (k1, k2)) triples as found, not canonicalized."""
    rho = sub.index
    cosets = [(r1, r2) for r1 in range(sub.a) for r2 in range(sub.d)]
    lat = fw.lattice
    positions = np.empty((fw.n * rho, 2))
    parent_vertex = np.empty(fw.n * rho, dtype=int)
    for i in range(fw.n):
        for (r1, r2) in cosets:
            vid = i * rho + sub.coset_index(r1, r2)
            positions[vid] = fw.positions[i] + lat @ np.array([r1, r2], dtype=float)
            parent_vertex[vid] = i
    edges = []
    parent_edge = []
    for k in range(fw.m):
        t, h = int(fw.tails[k]), int(fw.heads[k])
        c1, c2 = int(fw.shifts[k, 0]), int(fw.shifts[k, 1])
        for (r1, r2) in cosets:
            q1, q2, k1, k2 = sub.reduce(r1 + c1, r2 + c2)
            edges.append((t * rho + sub.coset_index(r1, r2),
                          h * rho + sub.coset_index(q1, q2), (k1, k2)))
            parent_edge.append(k)
    return lat @ sub.matrix.astype(float), positions, edges, parent_vertex, parent_edge


def oracle_relax(fw, sub):
    """Unfolding by explicit loops over vertex and edge coset copies."""
    lattice, positions, edges, parent_vertex, parent_edge = oracle_unfolding(fw, sub)
    return UnfoldedFramework(lattice, positions, edges, sub, parent_vertex, parent_edge)


def oracle_probe_entries(fw, max_index):
    """(a, b, d, phi, sigma) of every relaxation up to max_index, from a
    dense SVD of each unfolded framework's full rigidity matrix; raises
    FrameworkError where an unfolding is invalid."""
    out = []
    for sub in sublattices_up_to(max_index):
        rep = flex_space(oracle_relax(fw, sub))[1]
        out.append((sub.a, sub.b, sub.d, rep.phi, rep.sigma))
    return out


def oracle_gram_rate_fd(cfg_of_tau, tau, h=1e-5):
    """Central-difference derivative of the lattice Gram matrix."""
    gp = cfg_of_tau(tau + h).gram()
    gm = cfg_of_tau(tau - h).gram()
    return (gp - gm) / (2 * h)


def oracle_pair_rates(positions, lattice, motion, table):
    """Rate of change of the squared distance of every pair (u, v, c1, c2)
    of a pair table under a motion (2n + 4 vector, lattice columns last):
    one gathered row per pair and stacked products per row, the kernel the
    pair grid replaced."""
    n = len(positions)
    u, v, c = table[:, 0], table[:, 1], table[:, 2:, None].astype(float)
    vel = motion[:2 * n].reshape(n, 2)
    dlat = np.column_stack([motion[2 * n:2 * n + 2], motion[2 * n + 2:]])
    # stacked matmuls round each row like the single products lattice @ c, sep @ dsep
    sep = positions[v] + np.matmul(lattice, c)[:, :, 0] - positions[u]
    dsep = vel[v] + np.matmul(dlat, c)[:, :, 0] - vel[u]
    return 2.0 * np.matmul(sep[:, None], dsep[:, :, None])[:, 0, 0]


def oracle_sublattices(index, box=None):
    """All index-k sublattices of Z^2 by brute force over generator pairs,
    deduplicated by their point sets in a box that contains a generating
    set of every index-k sublattice (halfwidth k suffices; coefficients up
    to 2*box reach every box point)."""
    k = index
    box = box if box is not None else k
    coeff = 2 * box
    found = {}
    for a11 in range(-k, k + 1):
        for a21 in range(-k, k + 1):
            for a12 in range(-k, k + 1):
                for a22 in range(-k, k + 1):
                    if a11 * a22 - a12 * a21 not in (k, -k):
                        continue
                    pts = frozenset(
                        (x * a11 + y * a12, x * a21 + y * a22)
                        for x in range(-coeff, coeff + 1)
                        for y in range(-coeff, coeff + 1)
                        if abs(x * a11 + y * a12) <= box
                        and abs(x * a21 + y * a22) <= box
                    )
                    found.setdefault(pts, ((a11, a12), (a21, a22)))
    return list(found.values())


def oracle_ppt_margin(fw, positions, lattice):
    """Smallest signed margin to the pseudo-triangulation boundary, and its
    event text, from a framework rebuilt at (positions, lattice) and traced
    again: the pointedness margin of every vertex, then every face corner
    against its corner/reflex class in ``fw``; the first entry wins a tie."""
    classes = (trace_faces(fw).corners < math.pi).tolist()
    moved = fw.with_geometry(positions, lattice)
    margins = [(pointedness_margin(moved, v), "pointedness lost at vertex %d" % v)
               for v in range(fw.n)]
    fc = trace_faces(moved)
    margins += [((math.pi - a) if corner else (a - math.pi), "flat corner on face %d" % f)
                for a, corner, f in zip(fc.corners.tolist(), classes,
                                        fc.face[fc.order].tolist())]
    return margins[int(np.argmin([margin for margin, _ in margins]))]


def _oracle_half_edges(fw, angle_tol=1e-12):
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


# The face complex as per-slot objects: a boundary slot of an edge orbit
# with its tail and head vertex copies (vertex, shift) relative to the
# face's base copy; a face orbit's cyclic boundary and corner angles; an
# edge orbit's faces left and right of its forward direction with the copy
# offsets at which its canonical copy appears in each face's base
# traversal; and a vertex -> (face, shift) dict.
Slot = namedtuple("Slot", "orbit forward tail head")
OracleFace = namedtuple("OracleFace", "id boundary corner_angles")
OracleTetrad = namedtuple("OracleTetrad",
                          "orbit tail head left_face right_face left_copy right_copy")
OracleComplex = namedtuple("OracleComplex", "faces tetrads vertex_slot")


def oracle_face_objects(fw):
    """Face complex traced over dicts keyed by (orbit, forward) into
    per-slot objects: the successor of a half-edge is the rotational
    predecessor of its twin, corner angles are differences of
    ``math.atan2`` directions mod 2 pi.  Raises ``trace_faces``'s
    FrameworkErrors with its messages."""
    stars, data = _oracle_half_edges(fw)
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
                boundary.append(Slot(key[0], key[1], tail_copy, (head_v, head_shift)))
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
            faces.append(OracleFace(fid, boundary, angles))
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
        tetrads.append(OracleTetrad(k, int(fw.tails[k]), int(fw.heads[k]),
                                    lf, rf, lcopy, rcopy))
    return OracleComplex(faces, tetrads, vertex_slot)


def oracle_trace_faces(fw):
    """``oracle_face_objects`` as the arrays of a FaceComplex, read slot by
    slot: half-edge orbit k forward at k, reversed at k + m."""
    oc = oracle_face_objects(fw)
    m = fw.m
    face, copy, succ = [0] * (2 * m), [(0, 0)] * (2 * m), [0] * (2 * m)
    order, start, corners = [], [0], []
    for f in oc.faces:
        ids = [slot.orbit + (0 if slot.forward else m) for slot in f.boundary]
        for h, h_next, slot in zip(ids, ids[1:] + ids[:1], f.boundary):
            face[h], copy[h], succ[h] = f.id, slot.tail[1], h_next
        order += ids
        start.append(len(order))
        corners += f.corner_angles
    tets = oc.tetrads
    return FaceComplex(
        np.array(face), np.array(copy).reshape(-1, 2), np.array(succ), np.array(order),
        np.array(start), np.array(corners), np.array([t.left_face for t in tets]),
        np.array([t.right_face for t in tets]),
        np.array([t.left_copy for t in tets]).reshape(-1, 2),
        np.array([t.right_copy for t in tets]).reshape(-1, 2),
        np.array([(f,) + tuple(shift) for _, (f, shift) in sorted(oc.vertex_slot.items())]))


# -- slow oracles over the per-slot objects -------------------------------


def _oracle_height(lifting, lattice, face, shift, point):
    """Height over ``point`` from the plane of face copy (face, shift)."""
    t = np.asarray(shift, dtype=float)
    offset = lifting.offsets[face] - float(lifting.normals[face] @ (lattice @ t))
    return float(lifting.normals[face] @ point) + offset


def _oracle_edge_copy_endpoints(fw, orbit, copy):
    """Positions of the tail and head of edge copy ``orbit @ copy``."""
    t = np.asarray(copy, dtype=float)
    p = fw.positions[fw.tails[orbit]] + fw.lattice @ t
    q = p + fw.edge_vector(orbit)
    return p, q


def _oracle_det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def oracle_compatibility_residual(fw, oc, lifting):
    """``compatibility_residual`` one tetrad and one endpoint at a time."""
    worst = 0.0
    for tet in oc.tetrads:
        p, q = _oracle_edge_copy_endpoints(fw, tet.orbit, (0, 0))
        lshift = (-tet.left_copy[0], -tet.left_copy[1])
        rshift = (-tet.right_copy[0], -tet.right_copy[1])
        for point in (p, q):
            hl = _oracle_height(lifting, fw.lattice, tet.left_face, lshift, point)
            hr = _oracle_height(lifting, fw.lattice, tet.right_face, rshift, point)
            worst = max(worst, abs(hl - hr))
    return worst


def oracle_stress_from_lifting(fw, oc, lifting):
    """``stress_from_lifting`` one tetrad at a time."""
    res = oracle_compatibility_residual(fw, oc, lifting)
    scale = _height_scale(fw, lifting)
    if res > COMPAT_RTOL * scale:
        raise NumericalError(
            "incompatible lifting: height mismatch %.3g exceeds %.3g"
            % (res, COMPAT_RTOL * scale)
        )
    evecs = fw.edge_vectors()
    s = np.zeros(fw.m)
    for tet in oc.tetrads:
        e = evecs[tet.orbit]
        dn = lifting.normals[tet.left_face] - lifting.normals[tet.right_face]
        s[tet.orbit] = float(dn @ _perp(e)) / float(e @ e)
    return s


def oracle_lifting_from_stress(fw, oc, s, c0=0.0):
    """``lifting_from_stress`` with a queue of faces and one dual edge at a
    time."""
    s = np.asarray(s, dtype=float)
    nf = len(oc.faces)
    lat = fw.lattice
    evecs = fw.edge_vectors()

    # dual adjacency: orbit -> (left, right, left_copy, right_copy)
    adj = [[] for _ in range(nf)]
    for tet in oc.tetrads:
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
            p, q = _oracle_edge_copy_endpoints(fw, orbit, copy)
            nu_rel[g] = nu_rel[f] + sign * s[orbit] * _perp(evecs[orbit])
            c_hat[g] = c_hat[f] - sign * s[orbit] * _oracle_det2(q, p)
            tau[g] = (copy[0] - there[0], copy[1] - there[1])
            queue.append(g)
    assert all(visited)

    geom = max(1.0, fw.geometry_scale)
    scale = max(1.0, float(np.abs(s).sum()) * geom * geom)
    tol = CONSTRUCTION_RTOL * scale

    # every non-tree dual edge yields one period equation for the base
    # normal plus a normal-consistency residual
    rows = []
    rhs = []
    nu_residual = 0.0
    for tet in oc.tetrads:
        if tet.orbit in tree_edges:
            continue
        L, R = tet.left_face, tet.right_face
        e = evecs[tet.orbit]
        nu_residual = max(
            nu_residual,
            float(np.abs(nu_rel[L] - nu_rel[R] - s[tet.orbit] * _perp(e)).max()),
        )
        copy = (tau[R][0] + tet.right_copy[0], tau[R][1] + tet.right_copy[1])
        p, q = _oracle_edge_copy_endpoints(fw, tet.orbit, copy)
        target = (copy[0] - tet.left_copy[0], copy[1] - tet.left_copy[1])
        g = np.array([target[0] - tau[L][0], target[1] - tau[L][1]], dtype=float)
        lam_g = lat @ g
        rows.append(lam_g)
        rhs.append(c_hat[L] - c_hat[R] + s[tet.orbit] * _oracle_det2(q, p)
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
        exc.face_cycle_residual = nu_residual
        exc.period_residual = period_residual
        raise exc

    normals = nu_rel + nu0
    offsets = np.empty(nf)
    for f in range(nf):
        t = np.array(tau[f], dtype=float)
        offsets[f] = c0 + c_hat[f] + float(normals[f] @ (lat @ t))
    return PeriodicLifting(normals, offsets)


def oracle_vertex_heights(fw, oc, lifting):
    """``vertex_heights`` one vertex at a time."""
    heights = np.empty(fw.n)
    for v in range(fw.n):
        face, shift = oc.vertex_slot[v]
        point = fw.positions[v] + fw.lattice @ np.array(shift, dtype=float)
        heights[v] = _oracle_height(lifting, fw.lattice, face, (0, 0), point)
    return heights


def oracle_export_terrain(fw, oc, lifting, tiles):
    """``export_terrain`` one face copy and one slot at a time, numbering
    vertex copies through a dict."""
    rows, cols = _tile_range(fw, tiles)
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
            for face in oc.faces:
                ids = []
                for slot in face.boundary:
                    v, s = slot.tail
                    shift = (s[0] + t1, s[1] + t2)
                    point = fw.positions[v] + lat @ np.array(shift, dtype=float)
                    z = _oracle_height(lifting, lat, face.id, (t1, t2), point)
                    ids.append(vertex_id(v, shift, z))
                for i in range(1, len(ids) - 1):
                    face_lines.append("f %d %d %d" % (ids[0], ids[i], ids[i + 1]))
    return "\n".join(vert_lines + face_lines) + "\n"


def oracle_render_svg(fw, oc, tiles):
    """``render_svg`` one face copy, slot and edge copy at a time."""
    rows, cols = _tile_range(fw, tiles)
    lat = fw.lattice
    polys = []
    for t1 in range(rows):
        for t2 in range(cols):
            base = lat @ np.array([t1, t2], dtype=float)
            for face in oc.faces:
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
    height = SVG_WIDTH * (y1 - y0) / (x1 - x0)

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" '
        'viewBox="%.6f %.6f %.6f %.6f">' % (SVG_WIDTH, height, x0, y0, x1 - x0, y1 - y0)
    )
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


def oracle_corner_count(fw, oc):
    """``corner_count`` one corner at a time."""
    counts = []
    flats = []
    for face in oc.faces:
        c = 0
        flat = []
        for i, a in enumerate(face.corner_angles):
            if abs(a - math.pi) <= CORNER_ANGLE_TOL:
                flat.append(i)
            elif a < math.pi:
                c += 1
        counts.append(c)
        flats.append(flat)
    identity_ok = True
    if all(c == 3 for c in counts) and not any(flats):
        identity_ok = 2 * fw.m == fw.n + 3 * len(oc.faces)
    return CornerReport(counts, flats, identity_ok)


def _constraints(fw, ref_sq, cutoff):
    """Residual, Jacobian and flex functions of the edge-length and gauge
    constraints at squared lengths ``ref_sq``, over what stays fixed along
    a path, built once: the float shifts, the row scatter tables, the gauge
    rows and one matrix buffer each for the Jacobian and the flex.  The
    residual at a raw configuration vector z also returns the edge
    vectors, with the geometric checks of a framework's constructor; the
    Jacobian (twice the rigidity matrix over the gauge rows) and the flex
    (``box_oriented_flex``) are assembled from them."""
    n, m, tails, heads, shifts = fw.n, fw.m, fw.tails, fw.heads, fw.shifts.astype(float)
    assemble, gauged = _flex_system(fw)
    jac = gauged.copy()

    def residual(z):
        _, evecs, squares = validate_geometry(_lattice_rate(z, n), z[:2 * n].reshape(n, 2),
                                              tails, heads, shifts)
        return np.concatenate([squares - ref_sq, [z[0], z[1], z[2 * n + 1]]]), evecs

    def jacobian(evecs):
        assemble(evecs, jac[:m])
        jac[:m] *= 2.0
        return jac

    def flex(cfg, evecs):
        return box_oriented_flex(assemble, gauged, cfg.positions, cfg.lattice, evecs, cutoff)

    return residual, jacobian, flex


def _newton_correct(residual, jacobian, z, tol_abs):
    """Corrected iterate, whether it converged, and its edge vectors; the
    Jacobian is assembled only at an iterate that takes a step.  An iterate
    the geometry checks refuse (say, a lattice column beyond 2**510 after
    too long a step) is a failed correction, not an invalid input."""
    for k in range(NEWTON_MAX_ITER + 1):
        try:
            F, evecs = residual(z)
        except FrameworkError:
            return z, False, None
        ok = float(np.abs(F).max()) <= tol_abs
        if ok or k == NEWTON_MAX_ITER:
            return z, ok, evecs
        z = z + np.linalg.lstsq(jacobian(evecs), -F, rcond=None)[0]


def oracle_auxetic_check(domega):
    """The auxetic verdict read from ``eigvalsh`` of the symmetric part,
    whatever the input: the smaller eigenvalue against -PSD_TOL times
    max(1, |trace|, Frobenius norm)."""
    domega = np.asarray(domega, dtype=float)
    scale = max(1.0, abs(float(np.trace(domega))),
                float(np.linalg.norm(domega)))
    eigs = np.linalg.eigvalsh(0.5 * (domega + domega.T))
    return bool(eigs.min() >= -PSD_TOL * scale)


def oracle_continue_path(fw, steps, ds=1e-2, cutoff=2):
    """``continue_path`` as it located events before secant probes: the
    halving loop corrects every midpoint of the crossing step until the
    bracket is below EVENT_TAU_TOL.  Its corrector is the reference one
    above, which checks every iterate as a framework's constructor would
    and predicts from the sample's ``as_vector``, and its auxetic verdicts
    are ``oracle_auxetic_check``'s."""
    if not math.isfinite(ds):
        raise FrameworkError("step length ds must be finite, got %g" % ds)
    cert = certify_ppt(fw)
    if not cert.valid:
        raise FrameworkError(
            "not a certified pseudo-triangulation: %s" % "; ".join(cert.failures))
    cfg = Configuration.from_framework(fw)
    if steps <= 0:
        return DeformationPath([PathSample(0.0, cfg, cfg.gram(), None, None, None)],
                               "step count reached")
    table = _corner_table(fw, cert.faces)
    # only the initial sample validates on its own: later ones take the
    # edge vectors their corrector validated
    _, evecs, ref_sq = validate_geometry(cfg.lattice, cfg.positions, fw.tails, fw.heads,
                                         fw.shifts)
    tol_abs = NEWTON_TOL * max(1.0, float(ref_sq.max()))
    residual, jacobian, flex = _constraints(fw, ref_sq, cutoff)

    samples = []
    tau = 0.0
    tangent = None

    def corrected(h):
        # (z, edge vectors, margin, event text) of the point h along, or None
        z, ok, evecs = _newton_correct(residual, jacobian, cfg.as_vector() + h * tangent,
                                       tol_abs)
        return (z, evecs) + _ppt_margin(table, evecs) if ok else None

    def sample(h, z, evecs, boundary=False):
        # move h along to z, the flex turned to follow the previous sample,
        # its rates with it; only a boundary sample may keep the last tangent
        nonlocal tau, cfg, tangent
        tau += h
        cfg = Configuration.from_vector(z, fw.n)
        try:
            t, rates = flex(cfg, evecs)
        except NumericalError:
            if not boundary:
                raise
            t, rates = tangent, _pair_rates(cfg.positions, cfg.lattice, tangent, cutoff)
        if tangent is not None and float(t @ tangent) < 0:
            t, rates = -t, -rates
        tangent = t
        dom = gram_derivative(cfg, tangent)
        ok, low = _expansive(rates)
        samples.append(PathSample(tau, cfg, cfg.gram(), dom, ok, oracle_auxetic_check(dom), low))

    sample(0.0, cfg.as_vector(), evecs)
    step = float(ds)
    # every sample after the first is an accepted step
    while len(samples) - 1 < steps:
        point = corrected(step)
        if point is None:
            if abs(step) <= MIN_STEP:
                return DeformationPath(samples, "corrector divergence")
            step *= 0.5
        elif point[2] > 0.0:
            sample(step, *point[:2])
        else:
            # bisect the step length until the boundary is bracketed tightly
            lo, hi, inside = 0.0, step, None
            while abs(hi - lo) > EVENT_TAU_TOL:
                mid = 0.5 * (lo + hi)
                found = corrected(mid)
                if found is None:
                    hi = mid
                elif found[2] <= 0.0:
                    hi, point = mid, found
                else:
                    lo, inside = mid, found
            if inside is not None:
                # boundary sample (the last configuration still inside)
                sample(lo, *inside[:2], boundary=True)
            return DeformationPath(samples, "event: %s" % point[3], point[2])
    return DeformationPath(samples, "step count reached")


# -- the rigidifying search over the whole pair-table box ------------------


def box_oriented_flex(assemble, gauged, positions, lattice, evecs, cutoff):
    """Unit flex of the edge orbits of a ``_flex_system`` (assemble,
    gauged) placed at (positions, lattice), in gauge position, with edge
    vectors ``evecs`` validated there, and its squared-distance rates over
    ``pair_table``: the gauge-reduced kernel, which must be
    one-dimensional, oriented so that the pair with the largest |rate|
    expands (ties: the first in table order).  The flex of a
    pseudo-triangulation is expansive, so this one rule serves paths and
    the rigidifying search alike.  A kernel read across a thin gap is
    refused (NumericalError)."""
    basis = _gauge_kernel(assemble, gauged, evecs)
    if basis.shape[1] != 1:
        raise NumericalError(
            "deformation space is not one-dimensional (dimension %d)"
            % basis.shape[1])
    tangent = basis[:, 0] / np.linalg.norm(basis[:, 0])
    rates = _pair_rates(positions, lattice, tangent, cutoff)
    if len(rates) and rates[np.argmax(np.abs(rates))] < 0:
        tangent, rates = -tangent, -rates
    return tangent, rates


def _box_key_codes(rows, n, cutoff):
    """One integer per key row (u, v, c1, c2): mixed radix (n, n, w, w),
    digits c1, c2 in [-cutoff, cutoff]."""
    w = 2 * cutoff + 1
    return rows @ np.array([n * w * w, w * w, w, 1])


def _box_candidate_table(fw, cutoff):
    """Rows of ``pair_table`` that are not edge orbits of ``fw``."""
    table = pair_table(fw.n, cutoff)
    edges = np.column_stack([fw.tails, fw.heads, fw.shifts])
    edges = edges[np.abs(fw.shifts).max(axis=1, initial=0) <= cutoff]
    return table[~np.isin(_box_key_codes(table, fw.n, cutoff),
                          _box_key_codes(edges, fw.n, cutoff))]


def _box_face_corner_mask(fw, faces, rows, cutoff):
    """Which key rows join two vertex copies on the boundary of one face
    copy of ``faces`` (every row when there are no faces).  Half-edges h1,
    h2 of one face join (vertex of h1, vertex of h2, copy[h2] - copy[h1]);
    of a key and its reverse the canonical one is kept, as in ``pair_table``."""
    if faces is None:
        return np.ones(len(rows), dtype=bool)
    face = faces.face[faces.order]
    lo, size = faces.start[face], np.diff(faces.start)[face]
    # every position of the boundary order paired with every position of its face
    first = np.repeat(faces.order, size)
    second = faces.order[np.repeat(lo + size - np.cumsum(size), size) + np.arange(len(first))]
    ends = np.concatenate([fw.tails, fw.heads])
    u, v, c = ends[first], ends[second], faces.copy[second] - faces.copy[first]
    c1, c2 = c.T
    keep = ((u < v) | (u == v) & ((c1 > 0) | (c1 == 0) & (c2 > 0))) & (
        np.abs(c).max(axis=1) <= cutoff)
    corners = np.column_stack([u, v, c])[keep]
    return np.isin(_box_key_codes(rows, fw.n, cutoff), _box_key_codes(corners, fw.n, cutoff))


def box_search(fw, cutoff=2):
    """``find_rigidifying_edges`` as it read its candidates from the pair
    table box: every box row not an edge orbit is rated, the derivative
    floor is read over all of them, and the face-corner mask drops the rows
    that join no two corners of one face copy before the one crossing-grid
    pass."""
    cert = certify_ppt(fw)
    if not cert.valid:
        raise FrameworkError(
            "not a certified pseudo-triangulation: %s" % "; ".join(cert.failures))
    gauged = fw.with_geometry(*_gauge_position(fw))
    tangent, _ = box_oriented_flex(*_flex_system(fw), gauged.positions, gauged.lattice,
                                   gauged.edge_vectors(), cutoff)
    table = _box_candidate_table(fw, cutoff)
    derivs = _length_derivatives(gauged, tangent, table)
    if not np.all(np.isfinite(derivs)):
        raise NumericalError("non-finite length derivative of a candidate pair")
    out = []
    if len(table):
        mags = np.abs(derivs)
        floor = DERIVATIVE_RTOL * max(1.0, float(mags.max()))
        ranked = np.argsort(-mags, kind="stable")
        ranked = ranked[mags[ranked] > floor]
        ranked = ranked[_box_face_corner_mask(fw, cert.faces, table[ranked], cutoff)]
        (_, b2, _, _), short = topology._orbit_crossing_rows(fw, table[ranked])
        if not (b2 < fw.m).any():
            clear = ranked[~short & (np.bincount(b2 - fw.m, minlength=len(ranked)) == 0)]
            out = [EdgeCandidate(u, v, (c1, c2), d)
                   for (u, v, c1, c2), d in zip(table[clear].tolist(), derivs[clear].tolist())]
    if not out:
        raise FrameworkError("no candidate found within cutoff %d" % cutoff)
    return out
