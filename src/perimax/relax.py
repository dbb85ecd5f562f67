"""Finite-index relaxation of periodicity and the ultrarigidity probe.

A finite-index sublattice is kept in the canonical triangular form with
generators a*g1 + b*g2 and d*g2 (0 <= b < d), enumerated so that index k
yields exactly sigma_1(k) = sum of divisors distinct sublattices.  Unfolding
multiplies the quotient data by the index while realizing the identical
infinite point set.  Stress persistence and the ultrarigidity probe unfold
nothing: one reads the sums over the coset copies in closed form, the other
ranks one small complex block per conjugate pair of characters.  Sweeps
over many sublattices compute once what none of them changes: a framework's
edge geometry and last stress terms, and the probe's enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (EDGE_LENGTH_RTOL, LATTICE_RANK_RTOL, FrameworkError, PeriodicFramework,
                   _canonicalize, _geometry_scale, _hermite_join, _integer, _lattice_vectors,
                   _require_shift_room)
from .rigidity import (_require_gap, _stress_check, _stress_terms, _stress_values,
                       _sublattice_ranks)


__all__ = [
    "Sublattice",
    "sublattices_of_index",
    "sublattices_up_to",
    "UnfoldedFramework",
    "relax",
    "copy_stress",
    "stress_persists",
    "UltraProbeEntry",
    "UltrarigidityReport",
    "ultrarigidity_probe",
]

# Largest max_index the probe accepts: its work grows as max_index**3 (at 64,
# 143,563 characters of the sublattices in 37,093 conjugate classes to rank).
_MAX_PROBE_INDEX = 64
# Largest index * max(n, m) an unfolding accepts: at most 32 MB of edge rows.
_MAX_UNFOLD = 1 << 20


@dataclass(frozen=True)
class Sublattice:
    """Canonical index-(a*d) sublattice with generators (a, b) and (0, d)
    in the coordinates of the current lattice basis; entries are read as
    ``core._integer`` reads them and stored as ints."""

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
        are read as ``core._integer`` reads them and must fit int64.
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
        r1 = z1 % self.a
        k1 = (z1 - r1) // self.a
        z2p = z2 - k1 * self.b
        r2 = z2p % self.d
        k2 = (z2p - r2) // self.d
        return r1, r2, k1, k2

    def coset_index(self, r1, r2):
        return r1 * self.d + r2


def sublattices_of_index(k):
    """All canonical sublattices of index k (there are sigma_1(k) of them)."""
    k = _integer(k, "index")
    if k < 1:
        raise FrameworkError("index must be >= 1")
    out = []
    for a in range(1, k + 1):
        if k % a:
            continue
        d = k // a
        for b in range(d):
            out.append(Sublattice(a, b, d))
    return out


def sublattices_up_to(max_index):
    """Canonical sublattices of every index from 1 to max_index."""
    max_index = _integer(max_index, "max_index")
    out = []
    for k in range(1, max_index + 1):
        out.extend(sublattices_of_index(k))
    return out


class UnfoldedFramework(PeriodicFramework):
    """A framework with periodicity relaxed to a finite-index sublattice.

    Vertex orbit (i, r) of the original framework becomes orbit
    i * index + coset_index(r); ``parent_vertex`` and ``parent_edge`` map
    unfolded orbits back to the original ones.
    """

    def __init__(self, lattice, positions, edges, sublattice, parent_vertex,
                 parent_edge):
        super().__init__(lattice, positions, edges)
        self.sublattice = sublattice
        self.parent_vertex = np.asarray(parent_vertex, dtype=int)
        self.parent_edge = np.asarray(parent_edge, dtype=int)


def _require_size(fw, sub):
    """The index of ``sub``; FrameworkError when index * max(n, m) > _MAX_UNFOLD
    or a shift sum of the relaxation could leave int64."""
    index = sub.index
    if index * max(fw.n, fw.m) > _MAX_UNFOLD:
        raise FrameworkError("relaxation too large: index %d times %d orbits exceeds %d"
                             % (index, max(fw.n, fw.m), _MAX_UNFOLD))
    _require_shift_room(fw._shift_bound, index)
    return index


def _unfold(fw, sub):
    """Lattice, positions and edge rows of ``relax(fw, sub)`` as its
    constructor stores them, or FrameworkError before any allocation."""
    rho = _require_size(fw, sub)
    lat = fw.lattice
    # coset r = (r1, r2) sits at coset_index(r1, r2) = r1 * d + r2
    r1, r2 = np.divmod(np.arange(rho), sub.d)
    offsets = _lattice_vectors(lat, np.column_stack([r1, r2]))
    positions = (fw.positions[:, None, :] + offsets).reshape(-1, 2)

    # edge orbit k from coset r reaches the head copy r + c_k
    q1, q2, k1, k2 = sub.reduce(r1 + fw.shifts[:, :1], r2 + fw.shifts[:, 1:])
    tails = fw.tails[:, None] * rho + np.arange(rho)
    heads = fw.heads[:, None] * rho + sub.coset_index(q1, q2)
    rows = np.column_stack([tails.ravel(), heads.ravel(), k1.ravel(), k2.ravel()])
    _canonicalize(rows)    # copies of a loop orbit may be reversed
    return lat @ sub.matrix.astype(float), positions, rows


def relax(fw, sub):
    """Unfold a framework to the given sublattice of its periodicity.

    The realized infinite point set is unchanged; the quotient grows by the
    index.  FrameworkError when index * max(n, m) exceeds 2**20.
    """
    return UnfoldedFramework(*_unfold(fw, sub), sub, np.repeat(np.arange(fw.n), sub.index),
                             np.repeat(np.arange(fw.m), sub.index))


def copy_stress(unfolded, s):
    """Extend a stress of the original framework to the unfolded one by
    repeating its value on every coset copy of each orbit."""
    return _stress_values(s, unfolded.m // unfolded.sublattice.index)[unfolded.parent_edge]


def stress_persists(fw, s, sub):
    """Whether a periodic stress stays periodic after relaxing to ``sub``:
    the verdict and errors of ``check_periodic_stress`` on ``relax`` and
    ``copy_stress``, from the base orbits by the closed forms of
    ``rigidity._stress_check``; the relaxation is connected iff
    ``fw._joined_index`` of ``sub`` is 1, as in the probe.  A sweep pays once
    for what no sublattice changes: ``fw`` caches its edge geometry, and the
    ``_stress_terms`` of the last stress by its values, computed after the
    geometry and connectivity checks so refusals keep the order of ``relax``.

    A bound in Python floats rules geometry refusals out: with R = max(|l00| +
    |l01|, |l10| + |l11|) and W fw's largest |extreme| coordinate, B = 2 (W +
    R (a + b + d)) is at least twice the relaxed scale.  Nothing is refused
    when 2**-400 < B < 2**500 (normal floats, columns in range), the shortest
    edge exceeds 2 EDGE_LENGTH_RTOL B (4x the tolerance) and |det| a d > 4
    LATTICE_RANK_RTOL B**2 (8x the singular cut; a corner copy of vertex 0 is
    then over 2 LATTICE_RANK_RTOL B away).  Else the relaxed lattice and
    extreme unfolded coordinates decide, as ``relax`` rounds them (sums of
    extremes: rounding is monotone)."""
    rho, a, b, d = _require_size(fw, sub), sub.a, sub.b, sub.d
    evecs, norms, shortest, (hx, hy), (lx, ly), (x, y) = fw._edge_geometry
    (l00, l01), (l10, l11) = fw.lattice.tolist()
    bound = 2.0 * (max(hx, hy, -lx, -ly)
                   + max(abs(l00) + abs(l01), abs(l10) + abs(l11)) * (a + b + d))
    if not (2.0 ** -400 < bound < 2.0 ** 500 and shortest > 2 * EDGE_LENGTH_RTOL * bound
            and abs(l00 * l11 - l01 * l10) * a * d > 4 * LATTICE_RANK_RTOL * bound * bound):
        # numpy matmuls round as relax does; scalar 2 x 2 products can round apart
        lattice = fw.lattice @ np.array([[a, 0.0], [b, d]])
        corners = np.array([[0, 0], [0, d - 1], [a - 1, 0], [a - 1, d - 1]], dtype=float)
        ox, oy = zip(*np.matmul(fw.lattice, corners[:, :, None])[:, :, 0].tolist())
        hx, hy, lx, ly = hx + max(ox), hy + max(oy), lx + min(ox), ly + min(oy)
        tol = EDGE_LENGTH_RTOL * _geometry_scale(lattice, max(map(abs, (hx, hy, lx, ly))))
        if shortest <= tol:
            raise FrameworkError("zero-length edge orbit %d" % (np.argmax(norms <= tol) * rho))
        if fw.n * rho >= 2 and max(hx - x, hy - y, x - lx, y - ly) <= tol:
            raise FrameworkError("degenerate placement: all vertex orbits coincide")
    joined = fw._joined_index(a, b, d)
    if joined > 1:    # first unreached: coset (0, 1) of vertex 0 if joined t > 1, else (1, 0)
        raise FrameworkError("disconnected quotient graph: vertex %d unreachable"
                             % (1 if joined > math.gcd(fw.cycle_basis[0], a) else d))
    s = _stress_values(s, fw.m)
    if getattr(fw, "_stress_memo", (None,))[0] != s.tobytes():
        fw._stress_memo = s.tobytes(), _stress_terms(fw, evecs, s)
    return _stress_check(fw._stress_memo[1], fw, a, b, d).ok


@lru_cache(maxsize=_MAX_PROBE_INDEX)
def _probe_sublattices(max_index):
    """``sublattices_up_to(max_index)`` as a tuple, their (a, b, d) triples
    and a read-only array of their indices, built once per max_index."""
    subs = tuple(sublattices_up_to(max_index))
    index = np.array([sub.index for sub in subs])
    index.setflags(write=False)
    return subs, tuple((sub.a, sub.b, sub.d) for sub in subs), index


@dataclass
class UltraProbeEntry:
    sublattice: Sublattice
    phi: int
    sigma: int


@dataclass
class UltrarigidityReport:
    """Bounded falsifier: rigidity verified for every relaxation of index
    up to ``max_index`` only, not a proof for all indices."""

    max_index: int
    ultrarigid: bool
    entries: list
    first_failure: UltraProbeEntry | None


def ultrarigidity_probe(fw, max_index=4):
    """Compute the flex dimension of every relaxation up to max_index.

    The rigidity matrix of the relaxation to Gamma' splits into one block
    per character chi of Z^2 / Gamma'.  The trivial block is R itself; the
    block of chi != 1 is the complex m x 2n matrix R_chi whose row k holds
    -e_k in the tail columns and chi(c_k) e_k in the head columns.  So
    phi' = phi + sum (2n - rank R_chi) and sigma' = sigma + sum
    (m - rank R_chi).  R_chi-bar = conj(R_chi) has the same rank, so a
    conjugate pair is one class of rigidity's character table (the
    1,223 characters up to index 16 fall in 613), ranked once, in chunks
    of at most ``_PROBE_CELLS`` working entries (or one block), with
    RANK_RTOL relative to the block's largest singular value.  A block
    that the Cholesky certificate ``rigidity._full_rank`` settles has
    full rank with a safe gap and skips its SVD; the rest go through one
    batched SVD per chunk.

    Raises FrameworkError, before ranking, at the first sublattice in
    ``sublattices_up_to`` order whose ``fw._joined_index`` exceeds 1 (a
    disconnected relaxation), and NumericalError when a kept/dropped
    singular value ratio of any ranked block is below RANK_GAP_MIN.
    """
    max_index = _integer(max_index, "max_index")
    if not 1 <= max_index <= _MAX_PROBE_INDEX:
        raise FrameworkError("max_index must be between 1 and %d" % _MAX_PROBE_INDEX)
    subs, abd, index = _probe_sublattices(max_index)
    p, _, t = fw.cycle_basis    # p t = 1: closed walks reach every shift, so all connect
    cut = p * t != 1 and next((s for s in abd if fw._joined_index(*s) > 1), None)
    if cut:
        raise FrameworkError("disconnected quotient graph: relaxation to sublattice "
                             "(a=%d, b=%d, d=%d)" % cut)
    ranks, gap = _sublattice_ranks(fw, abd)
    _require_gap(gap)
    # the relaxation has n' = index n, m' = index m and rank R' = ranks
    phis = 2 * fw.n * index + 1 - ranks
    sigmas = fw.m * index - ranks
    entries = [UltraProbeEntry(sub, phi, sigma)
               for sub, phi, sigma in zip(subs, phis.tolist(), sigmas.tolist())]
    first_failure = next((entry for entry in entries if entry.phi != 0), None)
    return UltrarigidityReport(max_index, first_failure is None, entries,
                               first_failure)
