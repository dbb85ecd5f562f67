"""Data model for planar periodic bar-and-joint frameworks.

A framework is stored through its quotient data: one position per vertex
orbit, one (tail, head, integer shift) triple per edge orbit, and a 2x2
lattice matrix whose columns generate the translation lattice.  The infinite
framework is recovered by translating this data by all integer combinations
of the lattice generators.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

__all__ = [
    "FrameworkError",
    "NumericalError",
    "PeriodicFramework",
    "Sublattice",
    "canonical_edge",
    "validate_geometry",
    "parse_framework",
    "framework_from_dict",
    "framework_to_dict",
    "serialize_framework",
]

# Scale-relative tolerance below which the lattice counts as singular.
LATTICE_RANK_RTOL = 1e-12
# Scale-relative tolerance below which a realized edge counts as zero length.
EDGE_LENGTH_RTOL = 1e-12
# Longest lattice column accepted: its square and the determinant stay
# finite, so the lattice is measured without overflow.
MAX_LATTICE_COLUMN = 2.0 ** 510
# Largest |shift| entry: a shift and its negation (canonical form) both
# fit the int64 arrays of a framework.
_MAX_SHIFT = 2 ** 63 - 1
# Fractional distance (of the cell) within which a translation maps a vertex
# onto another; up to _CELL_MISS_RTOL a distance is too thin to call.
CELL_MATCH_RTOL = 1e-12
_CELL_MISS_RTOL = 1e-6
# Generic direction along which the primitive-cell search sorts points; its
# badly approximable slope also shifts them off the seam of the unit cell.
_CELL_KEY = np.array([1.0, 0.7548776662466927])
# Largest rows * cols * max(n, 2m) slots of a patch, drawing or terrain: the
# budget an unfolding gets for index * max(n, m), checked before allocation.
_MAX_TILE_SLOTS = 1 << 20


class FrameworkError(ValueError):
    """Invalid framework data: schema, geometry or combinatorics."""


class NumericalError(RuntimeError):
    """Numerically ill-posed computation (unstable rank, rejected stress,
    diverged corrector)."""


def canonical_edge(tail, head, shift):
    """Return the canonical (tail, head, shift) triple for an edge orbit, each
    entry read as ``_integer`` reads it; FrameworkError unless the shift is a pair."""
    try:
        c1, c2 = shift
    except (TypeError, ValueError):
        raise FrameworkError("shift must be a pair (c1, c2), got %r" % (shift,)) from None
    tail, head = _integer(tail, "tail"), _integer(head, "head")
    shift = _integer(c1, "shift entry"), _integer(c2, "shift entry")
    if tail > head or (tail == head and shift < (0, 0)):
        return head, tail, (-shift[0], -shift[1])
    return tail, head, shift


def _as_integer(x):
    """The int of an integral number or integral float; None for anything else."""
    return int(x) if isinstance(x, numbers.Integral) or (
        isinstance(x, (float, np.floating)) and x.is_integer()) else None


_AS_INTEGERS = np.frompyfunc(_as_integer, 1, 1)


def _integer(value, what):
    """``value`` as ``_edge_rows`` reads an edge entry: the int of an
    integral number, else FrameworkError naming ``what`` and the value."""
    number = _as_integer(value)
    if number is None:
        raise FrameworkError("%s must be an integer, got %r" % (what, value))
    return number


def _edge_rows(edges):
    """(m, 4) int64 rows (tail, head, c1, c2) of edges given as such rows or as
    (tail, head, (c1, c2)) triples, and the exact entries.  Refuses non-integers
    and shifts beyond +-_MAX_SHIFT; a tail or head beyond it becomes -1."""
    try:
        if not (isinstance(edges, np.ndarray) and edges.shape[1:] == (4,)):
            tails, heads, shifts = tuple(zip(*edges, strict=True)) or ((),) * 3
            cols = (tails, heads, *(tuple(zip(*shifts, strict=True)) or ((),) * 2))
            # entries that numpy does not read as int64 keep their objects
            edges = np.array(cols)
            edges = (edges if edges.dtype.kind == "i" else np.array(cols, dtype=object)).T
            edges = edges.reshape(len(tails), 4)
    except (TypeError, ValueError):
        raise FrameworkError("edges must be (tail, head, (c1, c2)) triples") from None
    # int64 entries need one check: a shift whose negation wraps around
    if edges.dtype.kind == "i" and not (edges[:, 2:] == -_MAX_SHIFT - 1).any():
        return edges.astype(np.int64), edges
    given = _AS_INTEGERS(edges)
    vals = np.where(np.equal(given, None), 0, given)
    wide = np.abs(vals) > _MAX_SHIFT
    bad = np.argwhere(np.equal(given, None) | wide & [False, False, True, True])
    if bad.size:
        raise FrameworkError("edge orbit %d: %r is not an integer within +-(2**63 - 1)"
                             % (bad[0, 0], np.asarray(edges[tuple(bad[0])]).tolist()))
    return np.where(wide, -1, vals).astype(np.int64), given


def _geometry_scale(lattice, largest):
    """Scale of a placement from its lattice and largest |position| entry;
    the checks of ``validate_geometry`` that read nothing else."""
    (a, b), (c, d) = lattice.tolist()    # scalars: numpy calls cost more on 2 x 2
    if not all(map(math.isfinite, (a, b, c, d))):
        raise FrameworkError("lattice must be a finite 2x2 matrix")
    if not math.isfinite(largest):    # NaN when any entry is NaN
        raise FrameworkError("positions must be finite")
    col_max = max(math.sqrt(a * a + c * c), math.sqrt(b * b + d * d))
    if not col_max <= MAX_LATTICE_COLUMN:
        raise FrameworkError("lattice out of range: a column is longer than 2**510 "
                             "(largest entry %g)" % max(map(abs, (a, b, c, d))))
    scale = max(col_max, largest) or 1.0
    det = a * d - b * c
    if abs(det) < LATTICE_RANK_RTOL * col_max ** 2 or det == 0.0:
        raise FrameworkError("singular lattice: |det| = %g" % abs(det))
    return scale


def validate_geometry(lattice, positions, tails, heads, shifts):
    """Geometry scale, (m, 2) edge vectors and their (m,) squared lengths of
    a placement of fixed edge orbits, whose shifts may be given as floats;
    FrameworkError for non-finite entries, a lattice column longer than
    ``MAX_LATTICE_COLUMN``, a singular lattice, a zero-length edge or vertex
    orbits that all coincide."""
    scale = _geometry_scale(lattice, float(np.abs(positions).max()))
    evecs = _edge_vectors(lattice, positions, tails, heads, shifts)
    squares = np.einsum("ij,ij->i", evecs, evecs)
    _require_spread(positions, squares, scale)
    return scale, evecs, squares


def _edge_vectors(lattice, positions, tails, heads, shifts):
    """(m, 2) edge vectors p_head + Lambda c - p_tail: the one rounding of
    an edge vector in the package, the one every framework stores."""
    return positions.take(heads, 0) + shifts @ lattice.T - positions.take(tails, 0)


def _dots(a, b):
    """Row dot products a[i] @ b[i] from one stacked matmul, each rounded
    as ``a[i] @ b[i]`` alone (an elementwise sum of products is not)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _require_spread(positions, squares, scale):
    """The checks of ``validate_geometry`` that read the squared edge
    lengths: no zero-length edge, and vertex orbits not all coincident."""
    short = EDGE_LENGTH_RTOL * scale
    # sqrt is monotone, so the shortest edge decides whether any is too short
    if math.sqrt(squares.min(initial=math.inf)) <= short:
        raise FrameworkError("zero-length edge orbit %d" % np.argmax(np.sqrt(squares) <= short))
    if len(positions) >= 2:    # orbits 0 and 1 farther apart than the cut settle it
        (x0, y0), (x1, y1) = positions[:2].tolist()
        if (max(abs(x1 - x0), abs(y1 - y0)) <= short
                and np.abs(positions - positions[0]).max() <= short):
            raise FrameworkError("degenerate placement: all vertex orbits coincide")


def _canonicalize(rows):
    """Flip edge rows in place to canonical form; returns views t, h, c1, c2."""
    t, h, c1, c2 = rows.T
    flip = (t > h) | ((t == h) & ((c1 < 0) | ((c1 == 0) & (c2 < 0))))
    if flip.any():
        rows[flip] = rows[flip][:, [1, 0, 2, 3]] * [1, 1, -1, -1]
    return t, h, c1, c2


def _require_connected(n, tails, heads):
    """Refuse a disconnected quotient multigraph; walked over plain ints."""
    adj = [[] for _ in range(n)]
    for t, h in zip(tails.tolist(), heads.tolist()):
        adj[t].append(h)
        adj[h].append(t)
    reached, stack = [True] + [False] * (n - 1), [0]
    while stack:
        for w in adj[stack.pop()]:
            if not reached[w]:
                reached[w] = True
                stack.append(w)
    if not all(reached):
        raise FrameworkError(
            "disconnected quotient graph: vertex %d unreachable" % reached.index(False))


def _require_shift_room(c, index):
    """Refuse shift entries up to |c| whose sums in an index-``index``
    relaxation could leave int64: they stay within (index + 2) (c + 1) + index."""
    if index > 1 and (index + 2) * (c + 1) + index > _MAX_SHIFT:
        raise FrameworkError("shift entry %d too large for a relaxation of index %d" % (c, index))


def _hermite_join(basis, c1, c2):
    """Lower Hermite basis (p, q, t) of the lattice spanned by (p, q), (0, t)
    and (c1, c2): p, t >= 0, q = 0 when p = 0 and 0 <= q < t when t > 0."""
    p, q, t = basis
    while c1:    # Euclid on the first entries keeps the span of the pair
        k = p // c1
        p, q, c1, c2 = c1, c2, p - k * c1, q - k * c2
    p, q, t = abs(p), q if p >= 0 else -q, math.gcd(t, c2)
    return p, q % t if t else q, t


@dataclass(frozen=True)
class Sublattice:
    """Canonical index-(a*d) sublattice with generators (a, b) and (0, d)
    in the coordinates of the current lattice basis; entries are read as
    ``_integer`` reads them and stored as ints."""

    a: int
    b: int
    d: int

    def __post_init__(self):
        if not type(self.a) is type(self.b) is type(self.d) is int:    # enumerations pass ints
            for name in ("a", "b", "d"):
                object.__setattr__(self, name, _integer(getattr(self, name), "sublattice " + name))
        if self.a < 1 or self.d < 1 or not 0 <= self.b < self.d:
            raise FrameworkError(
                "sublattice (a=%d, b=%d, d=%d) is not in canonical form"
                % (self.a, self.b, self.d))

    @property
    def index(self):
        return self.a * self.d

    @property
    def matrix(self):
        """2x2 integer matrix whose columns are the new generators."""
        return np.array([[self.a, 0], [self.b, self.d]], dtype=int)

    @classmethod
    def from_matrix(cls, mat):
        """Canonicalize an arbitrary nonsingular integer generator matrix.

        Columns of ``mat`` span the sublattice; unimodular column
        operations reduce it to the canonical triangular form.  Entries
        are read as ``_integer`` reads them and must fit int64.
        """
        try:
            (w, x), (y, z) = mat
        except (TypeError, ValueError):
            raise FrameworkError("sublattice matrix must be 2x2") from None
        w, x, y, z = (_integer(v, "sublattice matrix entry") for v in (w, x, y, z))
        if not all(-2 ** 63 <= v < 2 ** 63 for v in (w, x, y, z)):
            raise FrameworkError("sublattice matrix entries must be 64-bit integers")
        if w * z - x * y == 0:
            raise FrameworkError("sublattice matrix is singular")
        return cls(*_hermite_join(_hermite_join((0, 0, 0), w, y), x, z))

    def reduce(self, z1, z2):
        """Coset representative and quotient of an integer vector.

        Returns (r1, r2, k1, k2) with (z1, z2) = (r1, r2) + k1*(a, b) +
        k2*(0, d), 0 <= r1 < a and 0 <= r2 < d; all arithmetic exact.
        """
        k1, r1 = divmod(z1, self.a)
        k2, r2 = divmod(z2 - k1 * self.b, self.d)
        return r1, r2, k1, k2

    def coset_index(self, r1, r2):
        return r1 * self.d + r2


@dataclass(frozen=True, eq=False)
class Relaxation:
    """A framework as ``parent`` (positions P, lattice L) relaxed to the sublattice of the
    integer matrix M = ``matrix``: lattice L M to rounding, vertex i at P[orbit[i]] +
    L cell[i], and edge orbit k a copy of parent edge orbit edge_orbit[k].  Read-only."""

    parent: PeriodicFramework
    matrix: np.ndarray
    sublattice: Sublattice
    orbit: np.ndarray
    cell: np.ndarray
    edge_orbit: np.ndarray


class PeriodicFramework:
    """A connected planar periodic framework given by quotient data.

    Parameters
    ----------
    lattice : (2, 2) array_like
        Columns are the two lattice generators.
    positions : (n, 2) array_like
        One representative position per vertex orbit, in id order.
    edges : sequence of (tail, head, (c1, c2)), or (m, 4) array of such rows
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
        rows, given = _edge_rows(edges)
        t, h, c1, c2 = _canonicalize(rows)
        unknown = (t < 0) | (h >= n)    # a canonical row has t <= h
        zero_loop = (t == h) & (c1 == 0) & (c2 == 0)
        # a stable sort puts each orbit after the equal orbits before it
        order = np.lexsort((c2, c1, h, t))
        ranked = rows[order]
        dup = np.zeros(len(rows), dtype=bool)
        dup[order[1:]] = (ranked[1:] == ranked[:-1]).all(axis=1)
        failed = unknown | zero_loop | dup
        if failed.any():
            k = int(failed.argmax())
            if unknown[k]:
                raise FrameworkError("edge orbit %d refers to an unknown vertex (%d, %d)"
                                     % (k, *sorted(int(v) for v in given[k, :2])))
            if zero_loop[k]:
                raise FrameworkError("degenerate edge orbit %d: loop with zero shift" % k)
            raise FrameworkError("duplicate edge orbit %d (same as orbit %d)"
                                 % (k, np.flatnonzero((rows == rows[k]).all(axis=1))[0]))

        self._lattice = lattice
        self._positions = positions
        self._tails, self._heads = rows[:, 0].copy(), rows[:, 1].copy()
        self._shifts = rows[:, 2:].copy()
        self._scale, self._edge_vectors, _ = validate_geometry(
            lattice, positions, self._tails, self._heads, self._shifts)
        for a in (self._lattice, self._positions, self._tails, self._heads, self._shifts,
                  self._edge_vectors):
            a.setflags(write=False)
        _require_connected(n, self._tails, self._heads)

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

    def edge_key(self, k):
        return (int(self._tails[k]), int(self._heads[k]),
                (int(self._shifts[k, 0]), int(self._shifts[k, 1])))

    @cached_property
    def cycle_basis(self):
        """Lower Hermite basis (p, q, t) of the shifts of closed walks in the
        quotient graph: they form the lattice spanned by (p, q) and (0, t)."""
        adj = [[] for _ in range(self.n)]
        for t, h, (c1, c2) in zip(self._tails.tolist(), self._heads.tolist(),
                                  self._shifts.tolist()):
            adj[t].append((h, c1, c2))
            adj[h].append((t, -c1, -c2))
        # tree-path shifts from vertex 0; each edge to a reached vertex closes a walk
        pot, stack, basis = {0: (0, 0)}, [0], (0, 0, 0)
        while stack:
            v = stack.pop()
            x, y = pot[v]
            for w, c1, c2 in adj[v]:
                if w in pot:
                    basis = _hermite_join(basis, x + c1 - pot[w][0], y + c2 - pot[w][1])
                else:
                    pot[w] = (x + c1, y + c2)
                    stack.append(w)
        return basis

    def _joined_index(self, a, b, d):
        """Index in Z^2 of the closed-walk shifts joined with (a, b), (0, d), the
        gcd of their 2 x 2 minors in exact ints: the relaxation is connected iff 1."""
        p, q, t = self.cycle_basis
        return math.gcd(p * t, p * b - q * a, p * d, t * a, a * d)

    @cached_property
    def _edge_geometry(self):
        """What the size check and geometry bound of each relaxation read, as
        Python scalars: max(n, m), ``_shift_bound``, the shortest edge length,
        the largest |position| entry, max(|l00| + |l01|, |l10| + |l11|) and
        |l00 l11 - l01 l10|."""
        (l00, l01), (l10, l11) = self._lattice.tolist()
        return (max(self.n, self.m), self._shift_bound,
                float(np.linalg.norm(self._edge_vectors, axis=1).min(initial=np.inf)),
                float(np.abs(self._positions).max()),
                max(abs(l00) + abs(l01), abs(l10) + abs(l11)), abs(l00 * l11 - l01 * l10))

    @cached_property
    def _shift_bound(self):
        """Largest |entry| of the edge orbit shifts."""
        return int(np.abs(self._shifts).max(initial=0))

    @cached_property
    def primitive_cell(self):
        """The ``Relaxation`` from the translations that map the labelled quotient
        graph exactly and the positions within CELL_MATCH_RTOL onto themselves;
        None for the lattice's alone, a thin match or a shift sum beyond int64."""
        n, tails, heads, shifts = self.n, self._tails, self._heads, self._shifts
        (l11, l12), (l21, l22) = self._lattice.tolist()    # scalars: LAPACK costs more
        frac = self._positions @ [[l22, -l21], [-l12, l11]] / (l11 * l22 - l12 * l21)
        if not np.abs(frac).max() < 1.0 / _CELL_MISS_RTOL:    # rounding would outgrow a match
            return None
        # translations taking vertex 0 onto a vertex with its star of edge
        # vectors (a generic sum) span the candidates B Z^2, B = [[p, 0], [q, r]] / n
        steps = frac[heads] + shifts - frac[tails]
        star = np.bincount(np.concatenate([tails, heads]),
                           np.cos(np.concatenate([steps, -steps]) @ _CELL_KEY + 1.0) + 4.0, n)
        basis = (n, 0, n)
        for z in np.rint(n * (frac - frac[0])[np.abs(star - star[0]) <= _CELL_MISS_RTOL]):
            basis = _hermite_join(basis, int(z[0]), int(z[1]))
        (p, q, r), index = basis, n * n // (basis[0] * basis[2])
        if index == 1:
            return None
        # the input lattice is M = B^-1 in the parent basis Lambda B; parent
        # orbits are classes of parent coordinates mod 1, told apart by a
        # generic key rounded to _CELL_MISS_RTOL
        a, b, d = n // p, -(n // p) * q // r, n // r
        M, sub = np.array([[a, 0], [b, d]]), Sublattice(a, b % d, d)
        coords = frac @ M.T
        key = ((coords - coords[0] + _CELL_KEY[1]) % 1.0) @ _CELL_KEY / _CELL_MISS_RTOL
        _, reps, orbit = np.unique(np.rint(key), return_index=True, return_inverse=True)
        offsets = coords - coords[reps][orbit]
        cells = np.rint(offsets).astype(np.int64)
        if np.abs(offsets - cells).max() > CELL_MATCH_RTOL:
            return None
        try:    # cells[h] - cells[t] + M c stays within (index + 3) (max |entry| + 1)
            _require_shift_room(max(self._shift_bound, int(np.abs(cells).max())), index + 1)
            # each class holds one vertex per coset of M Z^2 and each parent
            # edge orbit one edge per coset: index of each
            coset = orbit * index + sub.coset_index(*sub.reduce(cells[:, 0], cells[:, 1])[:2])
            rows = np.column_stack([orbit[tails], orbit[heads],
                                    cells[heads] - cells[tails] + shifts @ M.T])
            order = np.lexsort(_canonicalize(rows))
            rows = rows[order]
            new = np.concatenate([[True], (rows[1:] != rows[:-1]).any(axis=1), [True]])
            if ((np.diff(np.sort(coset)) == 0).any()
                    or (np.diff(np.flatnonzero(new)) != index).any()):
                return None
            parent = PeriodicFramework(self._lattice @ [[p, 0], [q, r]] / n,
                                       self._positions[reps], rows[new[:-1]])
        except FrameworkError:
            return None
        edge_orbit = (np.cumsum(new[:-1]) - 1)[np.argsort(order)]
        for arr in (M, orbit, cells, edge_orbit):
            arr.setflags(write=False)
        return Relaxation(parent, M, sub, orbit, cells, edge_orbit)

    @property
    def geometry_scale(self):
        """Largest magnitude among positions and lattice generators (>= 0)."""
        return self._scale

    # -- geometry --------------------------------------------------------

    def edge_vector(self, k):
        """Realized vector of edge orbit ``k``: head copy minus tail."""
        k = _integer(k, "edge orbit index")
        if not 0 <= k < self.m:
            raise FrameworkError("edge orbit index %d out of range" % k)
        return self._edge_vectors[k].copy()

    def edge_vectors(self):
        """Read-only (m, 2) array of all realized edge vectors, as
        ``validate_geometry`` computed them on construction."""
        return self._edge_vectors

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
        return PeriodicFramework(lat, pos, np.column_stack([self._tails, self._heads, self._shifts]))

    def __repr__(self):
        return "PeriodicFramework(n=%d, m=%d)" % (self.n, self.m)


def _tile_range(fw, tiles):
    """(rows, cols) of a tile range over fw: a pair of integral entries, each
    >= 1, spanning at most ``_MAX_TILE_SLOTS`` slots of max(n, 2m) per tile."""
    try:
        rows, cols = (int(t) for t in tiles)
        if (rows, cols) != tuple(tiles):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise FrameworkError("tile range must be a pair of integers, got %r" % (tiles,)) from None
    if rows < 1 or cols < 1:
        raise FrameworkError("empty tile range %r" % (tiles,))
    if rows * cols * max(fw.n, 2 * fw.m) > _MAX_TILE_SLOTS:
        raise FrameworkError("tile range too large: %d x %d tiles of %d slots exceed %d"
                             % (rows, cols, max(fw.n, 2 * fw.m), _MAX_TILE_SLOTS))
    return rows, cols


def _lattice_vectors(lattice, shifts):
    """Lattice offsets Lambda t, one row per row t of ``shifts``, from one
    stacked 2 x 2 matmul: relax cosets, lifted heights and copy endpoints,
    terrain and SVG points.  Edge vectors round in ``_edge_vectors``, a
    GEMM, instead; the two differ in some last bits, on purpose: the relax
    outputs and the lift, terrain and ladder pins fix this one's bits."""
    return (lattice @ np.asarray(shifts, dtype=float)[:, :, None])[:, :, 0]


# -- JSON round trip -----------------------------------------------------


def _is_int(value):
    """A JSON integer: a Python int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_number(value, where):
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise FrameworkError("%s: bad decimal string %r" % (where, value)) from None
    if _is_int(value) or isinstance(value, float):
        try:
            return float(value)
        except OverflowError:
            raise FrameworkError("%s: number out of range" % where) from None
    raise FrameworkError("%s: expected a decimal string, got %r" % (where, value))


def _of_type(values, kind):
    """Whether ``isinstance(v, kind)`` holds for every value, tested once per type."""
    return all(issubclass(t, kind) for t in set(map(type, values)))


def _ints(values):
    """Whether ``_is_int`` holds for every value, tested once per type."""
    return all(issubclass(t, int) and not issubclass(t, bool) for t in set(map(type, values)))


def _floats(values):
    """The floats of decimal strings and JSON numbers, as ``_parse_number``
    gives them; None when any value is something else or does not convert."""
    if not all(issubclass(t, (str, float)) or (issubclass(t, int) and not issubclass(t, bool))
               for t in set(map(type, values))):
        return None
    try:
        return list(map(float, values))
    except (ValueError, OverflowError):
        return None


def _vertex_positions(verts):
    """(n, 2) positions of the vertex records, checked and converted in bulk;
    None when a record fails a check of ``_refuse_vertex``."""
    n = len(verts)
    try:
        ids = [rec["id"] for rec in verts]
        pairs = [rec["pos"] for rec in verts]
    except (TypeError, KeyError):
        return None
    if not (_of_type(verts, dict) and _ints(ids) and min(ids) >= 0 and max(ids) < n
            and len(set(ids)) == n and _of_type(pairs, list) and set(map(len, pairs)) == {2}):
        return None
    coords = _floats(list(chain.from_iterable(pairs)))
    if coords is None:
        return None
    positions = np.empty((n, 2))
    positions[ids] = np.reshape(coords, (n, 2))
    return positions


def _refuse_vertex(verts):
    """Raise the FrameworkError of the first vertex record failing a check."""
    seen_ids = set()
    for rec in verts:
        if not isinstance(rec, dict) or "id" not in rec or "pos" not in rec:
            raise FrameworkError("vertex records need 'id' and 'pos'")
        vid = rec["id"]
        if not _is_int(vid) or not 0 <= vid < len(verts) or vid in seen_ids:
            raise FrameworkError("vertex ids must be unique and consecutive; got %r" % (vid,))
        seen_ids.add(vid)
        pos = rec["pos"]
        if not isinstance(pos, list) or len(pos) != 2:
            raise FrameworkError("vertex %d: pos must have two entries" % vid)
        _parse_number(pos[0], "vertex %d pos" % vid)
        _parse_number(pos[1], "vertex %d pos" % vid)
    raise AssertionError("the bulk vertex checks refused valid records")


def _edge_array(erecs):
    """(m, 4) rows (tail, head, c1, c2) of the edge records, checked in bulk:
    int64, or objects where an end lies beyond int64 (the constructor names
    it); None when a record fails a check of ``_refuse_edge``."""
    try:
        tails = [rec["tail"] for rec in erecs]
        heads = [rec["head"] for rec in erecs]
        shifts = [rec["shift"] for rec in erecs]
    except (TypeError, KeyError):
        return None
    if not (_of_type(erecs, dict) and _ints(tails) and _ints(heads)
            and _of_type(shifts, list) and set(map(len, shifts)) <= {2}):
        return None
    flat = list(chain.from_iterable(shifts))
    if not (_ints(flat) and max(flat, default=0) <= _MAX_SHIFT
            and min(flat, default=0) >= -_MAX_SHIFT):
        return None
    cols = [tails, heads, flat[0::2], flat[1::2]]
    try:
        return np.array(cols, dtype=np.int64).T
    except OverflowError:
        return np.array(cols, dtype=object).T


def _refuse_edge(erecs):
    """Raise the FrameworkError of the first edge record failing a check."""
    for k, rec in enumerate(erecs):
        if not isinstance(rec, dict):
            raise FrameworkError("edge %d: record must be an object" % k)
        try:
            tail, head, shift = rec["tail"], rec["head"], rec["shift"]
        except KeyError as exc:
            raise FrameworkError("edge %d: missing key %s" % (k, exc)) from None
        if not (_is_int(tail) and _is_int(head)):
            raise FrameworkError("edge %d: tail/head must be integers" % k)
        if (not isinstance(shift, list) or len(shift) != 2
                or any(not _is_int(c) or abs(c) > _MAX_SHIFT for c in shift)):
            raise FrameworkError("edge %d: shift must be a pair of 64-bit integers" % k)
    raise AssertionError("the bulk edge checks refused valid records")


def framework_from_dict(doc):
    """Build a framework from the canonical JSON document structure.

    Vertex and edge records are checked and converted in bulk; only a
    document that fails a check is walked record by record, for the
    message of the first failing record."""
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
    positions = _vertex_positions(verts)
    if positions is None:
        _refuse_vertex(verts)

    erecs = doc.get("edges")
    if not isinstance(erecs, list):
        raise FrameworkError("edges must be a list")
    edges = _edge_array(erecs)
    if edges is None:
        _refuse_edge(erecs)
    return PeriodicFramework(lattice, positions, edges)


def parse_framework(text):
    """Parse the JSON document format into a validated framework."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals
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


_VERTEX = '    {\n      "id": %d,\n      "pos": [\n        "%r",\n        "%r"\n      ]\n    }'
_EDGE = ('    {\n      "tail": %d,\n      "head": %d,\n      "shift": [\n        %d,\n'
         '        %d\n      ]\n    }')


def serialize_framework(fw):
    """Serialize to the canonical JSON text form (round-trips bit-exactly):
    the text of ``json.dumps(framework_to_dict(fw), indent=2)``."""
    vertices = ",\n".join(_VERTEX % (i, x, y) for i, (x, y) in enumerate(fw.positions.tolist()))
    rows = np.column_stack([fw.tails, fw.heads, fw.shifts]).tolist()
    edges = "[\n%s\n  ]" % ",\n".join(_EDGE % tuple(r) for r in rows) if rows else "[]"
    return ('{\n  "dimension": 2,\n  "lattice": [\n    [\n      "%r",\n      "%r"\n    ],\n'
            '    [\n      "%r",\n      "%r"\n    ]\n  ],\n  "vertices": [\n%s\n  ],\n'
            '  "edges": %s\n}' % (*fw.lattice.ravel(order="F").tolist(), vertices, edges))
