"""Data model for planar periodic bar-and-joint frameworks.

A framework is stored through its quotient data: one position per vertex
orbit, one (tail, head, integer shift) triple per edge orbit, and a 2x2
lattice matrix whose columns generate the translation lattice.  The infinite
framework is recovered by translating this data by all integer combinations
of the lattice generators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FrameworkError",
    "NumericalError",
    "VertexOrbit",
    "EdgeOrbit",
    "PeriodicFramework",
    "FinitePatch",
    "canonical_edge",
    "validate_geometry",
    "parse_framework",
    "framework_from_dict",
    "framework_to_dict",
    "serialize_framework",
    "realize_patch",
]

# Scale-relative tolerance below which the lattice counts as singular.
LATTICE_RANK_RTOL = 1e-12
# Scale-relative tolerance below which a realized edge counts as zero length.
EDGE_LENGTH_RTOL = 1e-12


class FrameworkError(ValueError):
    """Invalid framework data: schema, geometry or combinatorics."""


class NumericalError(RuntimeError):
    """Numerically ill-posed computation (unstable rank, rejected stress,
    diverged corrector)."""


@dataclass(frozen=True)
class VertexOrbit:
    """Representative of one vertex orbit: id and placed position."""

    id: int
    position: np.ndarray


@dataclass(frozen=True)
class EdgeOrbit:
    """Representative of one edge orbit.

    The edge joins vertex ``tail`` (in the base cell) to the copy of vertex
    ``head`` translated by ``shift`` lattice steps.  Stored in canonical
    form: tail <= head, and for loops (tail == head) the shift is
    lexicographically positive.
    """

    id: int
    tail: int
    head: int
    shift: tuple[int, int]


def canonical_edge(tail, head, shift):
    """Return the canonical (tail, head, shift) triple for an edge orbit."""
    tail = int(tail)
    head = int(head)
    c1, c2 = int(shift[0]), int(shift[1])
    if tail > head:
        tail, head = head, tail
        c1, c2 = -c1, -c2
    elif tail == head:
        if c1 < 0 or (c1 == 0 and c2 < 0):
            c1, c2 = -c1, -c2
    return tail, head, (c1, c2)


def validate_geometry(lattice, positions, tails, heads, shifts):
    """Geometry scale and (m, 2) edge vectors of a placement of fixed edge
    orbits; FrameworkError for non-finite entries, a singular lattice, a
    zero-length edge or vertex orbits that all coincide."""
    if not np.all(np.isfinite(lattice)):
        raise FrameworkError("lattice must be a finite 2x2 matrix")
    if not np.all(np.isfinite(positions)):
        raise FrameworkError("positions must be finite")
    col_norms = np.linalg.norm(lattice, axis=0)
    scale = max(float(col_norms.max()), float(np.abs(positions).max())) or 1.0
    det = float(np.linalg.det(lattice))
    if abs(det) < LATTICE_RANK_RTOL * float(col_norms.max()) ** 2 or det == 0.0:
        raise FrameworkError("singular lattice: |det| = %g" % abs(det))
    evecs = positions[heads] + shifts @ lattice.T - positions[tails]
    bad = np.nonzero(np.linalg.norm(evecs, axis=1) <= EDGE_LENGTH_RTOL * scale)[0]
    if bad.size:
        raise FrameworkError("zero-length edge orbit %d" % int(bad[0]))
    if len(positions) >= 2 and np.abs(positions - positions[0]).max() <= EDGE_LENGTH_RTOL * scale:
        raise FrameworkError("degenerate placement: all vertex orbits coincide")
    return scale, evecs


class PeriodicFramework:
    """A connected planar periodic framework given by quotient data.

    Parameters
    ----------
    lattice : (2, 2) array_like
        Columns are the two lattice generators.
    positions : (n, 2) array_like
        One representative position per vertex orbit, in id order.
    edges : sequence of (tail, head, (c1, c2))
        Edge orbits; canonicalized internally, order preserved.

    All data is validated on construction and immutable afterwards.
    """

    def __init__(self, lattice, positions, edges):
        lattice = np.array(lattice, dtype=float)
        if lattice.shape != (2, 2):
            raise FrameworkError("lattice must be a finite 2x2 matrix")
        positions = np.array(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2 or positions.shape[0] < 1:
            raise FrameworkError("positions must be an (n, 2) array with n >= 1")

        n = positions.shape[0]
        canon = []
        seen = {}
        for k, (tail, head, shift) in enumerate(edges):
            tail, head, cshift = canonical_edge(tail, head, shift)
            if not (0 <= tail < n and 0 <= head < n):
                raise FrameworkError(
                    "edge orbit %d refers to an unknown vertex (%d, %d)"
                    % (k, tail, head)
                )
            if tail == head and cshift == (0, 0):
                raise FrameworkError("degenerate edge orbit %d: loop with zero shift" % k)
            key = (tail, head, cshift)
            if key in seen:
                raise FrameworkError(
                    "duplicate edge orbit %d (same as orbit %d)" % (k, seen[key])
                )
            seen[key] = k
            canon.append(key)

        self._lattice = lattice
        self._positions = positions
        self._tails = np.array([e[0] for e in canon], dtype=int)
        self._heads = np.array([e[1] for e in canon], dtype=int)
        self._shifts = np.array([e[2] for e in canon], dtype=int).reshape(len(canon), 2)
        for a in (self._lattice, self._positions, self._tails, self._heads, self._shifts):
            a.setflags(write=False)
        self._scale, _ = validate_geometry(lattice, positions, self._tails,
                                           self._heads, self._shifts)

        # quotient multigraph connectivity (shifts ignored)
        adj = [[] for _ in range(n)]
        for t, h in zip(self._tails, self._heads):
            adj[t].append(h)
            adj[h].append(t)
        reached = np.zeros(n, dtype=bool)
        stack = [0]
        reached[0] = True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not reached[w]:
                    reached[w] = True
                    stack.append(w)
        if not reached.all():
            raise FrameworkError(
                "disconnected quotient graph: vertex %d unreachable"
                % int(np.nonzero(~reached)[0][0])
            )

    # -- basic accessors -------------------------------------------------

    @property
    def n(self):
        """Number of vertex orbits."""
        return self._positions.shape[0]

    @property
    def m(self):
        """Number of edge orbits."""
        return self._tails.shape[0]

    @property
    def lattice(self):
        """2x2 matrix whose columns are the lattice generators."""
        return self._lattice

    @property
    def positions(self):
        """(n, 2) array of vertex orbit representative positions."""
        return self._positions

    @property
    def tails(self):
        return self._tails

    @property
    def heads(self):
        return self._heads

    @property
    def shifts(self):
        """(m, 2) integer array of edge orbit shifts."""
        return self._shifts

    @property
    def vertices(self):
        return [VertexOrbit(i, self._positions[i]) for i in range(self.n)]

    @property
    def edges(self):
        return [
            EdgeOrbit(k, int(self._tails[k]), int(self._heads[k]),
                      (int(self._shifts[k, 0]), int(self._shifts[k, 1])))
            for k in range(self.m)
        ]

    def edge_key(self, k):
        return (int(self._tails[k]), int(self._heads[k]),
                (int(self._shifts[k, 0]), int(self._shifts[k, 1])))

    @property
    def geometry_scale(self):
        """Largest magnitude among positions and lattice generators (>= 0)."""
        return self._scale

    # -- geometry --------------------------------------------------------

    def edge_vector(self, k):
        """Realized vector of edge orbit ``k``: head copy minus tail."""
        if not 0 <= k < self.m:
            raise FrameworkError("edge orbit index %d out of range" % k)
        return (self._positions[self._heads[k]]
                + self._lattice @ self._shifts[k]
                - self._positions[self._tails[k]])

    def edge_vectors(self):
        """(m, 2) array of all realized edge vectors."""
        return (self._positions[self._heads]
                + self._shifts @ self._lattice.T
                - self._positions[self._tails])

    def degrees(self):
        """Vertex degrees in the quotient multigraph (loops count twice)."""
        deg = np.zeros(self.n, dtype=int)
        np.add.at(deg, self._tails, 1)
        np.add.at(deg, self._heads, 1)
        return deg

    def with_geometry(self, positions=None, lattice=None):
        """Same combinatorics with replaced positions and/or lattice."""
        pos = self._positions if positions is None else positions
        lat = self._lattice if lattice is None else lattice
        return PeriodicFramework(lat, pos, [self.edge_key(k) for k in range(self.m)])

    def __repr__(self):
        return "PeriodicFramework(n=%d, m=%d)" % (self.n, self.m)


@dataclass
class FinitePatch:
    """A finite piece of the infinite framework.

    ``vertices`` lists (orbit id, shift, position); ``edges`` lists index
    pairs into ``vertices``.
    """

    vertices: list
    edges: list


def realize_patch(fw, tiles):
    """Materialize all vertex copies with shifts in [0, R) x [0, C).

    Edges are included when both endpoint copies are materialized.
    """
    try:
        rows, cols = int(tiles[0]), int(tiles[1])
    except (TypeError, ValueError, IndexError):
        raise FrameworkError("tile range must be a pair of integers") from None
    if rows < 1 or cols < 1:
        raise FrameworkError("empty tile range %r" % (tiles,))

    index = {}
    verts = []
    for s1 in range(rows):
        for s2 in range(cols):
            for i in range(fw.n):
                key = (i, (s1, s2))
                index[key] = len(verts)
                pos = fw.positions[i] + fw.lattice @ np.array([s1, s2], dtype=float)
                verts.append((i, (s1, s2), pos))
    edges = []
    for k in range(fw.m):
        t, h = int(fw.tails[k]), int(fw.heads[k])
        c1, c2 = int(fw.shifts[k, 0]), int(fw.shifts[k, 1])
        for s1 in range(rows):
            for s2 in range(cols):
                a = index.get((t, (s1, s2)))
                b = index.get((h, (s1 + c1, s2 + c2)))
                if a is not None and b is not None:
                    edges.append((a, b))
    return FinitePatch(verts, edges)


# -- JSON round trip -----------------------------------------------------


def _parse_number(value, where):
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise FrameworkError("%s: bad decimal string %r" % (where, value)) from None
    if isinstance(value, (int, float)):
        return float(value)
    raise FrameworkError("%s: expected a decimal string, got %r" % (where, value))


def framework_from_dict(doc):
    """Build a framework from the canonical JSON document structure."""
    if not isinstance(doc, dict):
        raise FrameworkError("document root must be an object")
    if doc.get("dimension") != 2:
        raise FrameworkError("dimension must be 2, got %r" % (doc.get("dimension"),))
    lat = doc.get("lattice")
    if (not isinstance(lat, list) or len(lat) != 2
            or any(not isinstance(col, list) or len(col) != 2 for col in lat)):
        raise FrameworkError("lattice must be two columns of two entries each")
    lattice = np.empty((2, 2))
    for j, col in enumerate(lat):
        for i in range(2):
            lattice[i, j] = _parse_number(col[i], "lattice column %d" % j)

    verts = doc.get("vertices")
    if not isinstance(verts, list) or not verts:
        raise FrameworkError("vertices must be a non-empty list")
    positions = np.empty((len(verts), 2))
    seen_ids = set()
    for rec in verts:
        if not isinstance(rec, dict) or "id" not in rec or "pos" not in rec:
            raise FrameworkError("vertex records need 'id' and 'pos'")
        vid = rec["id"]
        if not isinstance(vid, int) or not 0 <= vid < len(verts) or vid in seen_ids:
            raise FrameworkError("vertex ids must be unique and consecutive; got %r" % (vid,))
        seen_ids.add(vid)
        pos = rec["pos"]
        if not isinstance(pos, list) or len(pos) != 2:
            raise FrameworkError("vertex %d: pos must have two entries" % vid)
        positions[vid, 0] = _parse_number(pos[0], "vertex %d pos" % vid)
        positions[vid, 1] = _parse_number(pos[1], "vertex %d pos" % vid)

    erecs = doc.get("edges")
    if not isinstance(erecs, list):
        raise FrameworkError("edges must be a list")
    edges = []
    for k, rec in enumerate(erecs):
        if not isinstance(rec, dict):
            raise FrameworkError("edge %d: record must be an object" % k)
        try:
            tail, head, shift = rec["tail"], rec["head"], rec["shift"]
        except KeyError as exc:
            raise FrameworkError("edge %d: missing key %s" % (k, exc)) from None
        if not (isinstance(tail, int) and isinstance(head, int)):
            raise FrameworkError("edge %d: tail/head must be integers" % k)
        if (not isinstance(shift, list) or len(shift) != 2
                or any(not isinstance(c, int) for c in shift)):
            raise FrameworkError("edge %d: shift must be a pair of integers" % k)
        edges.append((tail, head, (shift[0], shift[1])))
    return PeriodicFramework(lattice, positions, edges)


def parse_framework(text):
    """Parse the JSON document format into a validated framework."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FrameworkError("invalid JSON: %s" % exc) from None
    return framework_from_dict(doc)


def framework_to_dict(fw):
    """Canonical JSON document structure (numbers as decimal strings)."""
    lat = fw.lattice
    return {
        "dimension": 2,
        "lattice": [[repr(float(lat[0, j])), repr(float(lat[1, j]))] for j in range(2)],
        "vertices": [
            {"id": i, "pos": [repr(float(fw.positions[i, 0])), repr(float(fw.positions[i, 1]))]}
            for i in range(fw.n)
        ],
        "edges": [
            {"tail": int(fw.tails[k]), "head": int(fw.heads[k]),
             "shift": [int(fw.shifts[k, 0]), int(fw.shifts[k, 1])]}
            for k in range(fw.m)
        ],
    }


def serialize_framework(fw, indent=2):
    """Serialize to the canonical JSON text form (round-trips bit-exactly)."""
    return json.dumps(framework_to_dict(fw), indent=indent)
