"""Finite-index relaxation of periodicity and the ultrarigidity probe.

A finite-index sublattice is kept in the canonical triangular form with
generators a*g1 + b*g2 and d*g2 (0 <= b < d), enumerated so that index k
yields exactly sigma_1(k) = sum of divisors distinct sublattices.  Unfolding
multiplies the quotient data by the index while realizing the identical
infinite point set.  Stress persistence and the ultrarigidity probe unfold
nothing: one sums over the integer shifts of the coset copies, the other
ranks one small complex block per character of the quotient group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (EDGE_LENGTH_RTOL, FrameworkError, PeriodicFramework, _canonicalize,
                   _geometry_scale, _hermite_join, _lattice_vectors, _require_shift_room)
from .rigidity import _character_ranks, _characters, _require_gap, _stress_check, _stress_values


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

# Largest max_index the probe accepts: its character-slot table holds
# about max_index**3 / 3 slots and is allocated up front.
_MAX_PROBE_INDEX = 64
# Largest index * max(n, m) an unfolding accepts: at most 32 MB of edge rows.
_MAX_UNFOLD = 1 << 20


@dataclass(frozen=True)
class Sublattice:
    """Canonical index-(a*d) sublattice with generators (a, b) and (0, d)
    in the coordinates of the current lattice basis."""

    a: int
    b: int
    d: int

    def __post_init__(self):
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
        operations reduce it to the canonical triangular form.
        """
        try:
            M = np.array(mat, dtype=int)
        except OverflowError:
            raise FrameworkError("sublattice matrix entries must be 64-bit integers") from None
        if M.shape != (2, 2):
            raise FrameworkError("sublattice matrix must be 2x2")
        det = int(M[0, 0]) * int(M[1, 1]) - int(M[0, 1]) * int(M[1, 0])
        if det == 0:
            raise FrameworkError("sublattice matrix is singular")
        a, b, d = _hermite_join(_hermite_join((0, 0, 0), int(M[0, 0]), int(M[1, 0])),
                                int(M[0, 1]), int(M[1, 1]))
        return cls(a, b, d)

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

    def cosets(self):
        return [(r1, r2) for r1 in range(self.a) for r2 in range(self.d)]


def sublattices_of_index(k):
    """All canonical sublattices of index k (there are sigma_1(k) of them)."""
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
    ``copy_stress``, from the base orbits.  Copy r of orbit k keeps e_k and
    has shift k'(r), r + c_k = q + M k'(r) with q a coset.  Geometry checks
    read the relaxed lattice and the extreme unfolded coordinates (sums of
    extremes: rounding is monotone); the relaxation is connected iff the
    closed-walk shifts and ``sub`` span Z^2."""
    rho, a, b, d = _require_size(fw, sub), sub.a, sub.b, sub.d
    lat, pos = fw.lattice, fw.positions
    lattice = lat @ np.array([[a, 0.0], [b, d]])
    corners = np.array([[0, 0], [0, d - 1], [a - 1, 0], [a - 1, d - 1]], dtype=float)
    offsets = np.matmul(lat, corners[:, :, None])[:, :, 0]    # rounded as in _unfold
    hi = (pos.max(axis=0) + offsets.max(axis=0)).tolist()
    lo = (pos.min(axis=0) + offsets.min(axis=0)).tolist()
    tol = EDGE_LENGTH_RTOL * _geometry_scale(lattice, max(map(abs, hi + lo)))
    evecs = fw.edge_vectors()
    bad = np.nonzero(np.linalg.norm(evecs, axis=1) <= tol)[0]
    if bad.size:
        raise FrameworkError("zero-length edge orbit %d" % (int(bad[0]) * rho))
    (x, y), (hx, hy), (lx, ly) = pos[0].tolist(), hi, lo
    if fw.n * rho >= 2 and max(hx - x, hy - y, x - lx, y - ly) <= tol:
        raise FrameworkError("degenerate placement: all vertex orbits coincide")
    p, _, t = _hermite_join(_hermite_join(fw.cycle_basis, a, b), 0, d)
    if p * t != 1:    # first unreached: coset (0, 1) of vertex 0, else (1, 0)
        raise FrameworkError("disconnected quotient graph: vertex %d unreachable"
                             % (1 if t > 1 else d))
    # shift k'(r) of each copy r = (r1, r2), as Sublattice.reduce computes it
    shifts = np.empty((fw.m, a, d, 2), dtype=int)
    shifts[..., 0] = k1 = (np.arange(a)[:, None] + fw.shifts[:, :1, None]) // a
    shifts[..., 1] = (np.arange(d) + fw.shifts[:, 1:, None] - b * k1) // d
    return _stress_check(fw.n, lattice, fw.tails, fw.heads, shifts.reshape(fw.m, rho, 2),
                         evecs, s).ok


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


def _code(x, y, order):
    """Slot of the character (x, y) of exact order ``order`` in a flat table
    holding order**2 slots for every order in turn."""
    return (order - 1) * order * (2 * order - 1) // 6 + x * order + y


@lru_cache(maxsize=64)
def _index_characters(k):
    """Characters of the index-k sublattices as exact integer keys.

    The characters of Z^2 / Gamma' for Gamma' = (a, b, d) are those of
    ``_characters(a, b, d)``.  Each is keyed by its reduced form
    (x, y, N) with theta = (x, y) / N and gcd(x, y, N) = 1; its kernel has
    index N, so it first appears at index N.  Returns the sublattices of
    index k, the (sigma_1(k), k) slot codes of the characters of each, and
    for one character of each conjugate pair {(x, y), (-x, -y) mod k} of
    exact order k > 1 its (x, y), its code and the code of its conjugate
    (the same code for the real characters of order 2).
    """
    codes = []
    for a in range(1, k + 1):
        if k % a:
            continue
        d = k // a
        x, y = _characters(a, np.arange(d)[:, None], d)
        g = np.gcd(np.gcd(x, y), k)
        codes.append(_code(x // g, y // g, k // g))
    x, y = np.divmod(np.arange(k * k), k)
    own, twin = _code(x, y, k), _code(-x % k, -y % k, k)
    fresh = (np.gcd(np.gcd(x, y), k) == 1) & (x + y > 0) & (own <= twin)
    out = (np.vstack(codes), np.column_stack([x[fresh], y[fresh]]), own[fresh], twin[fresh])
    for a in out:
        a.setflags(write=False)
    return (tuple(sublattices_of_index(k)),) + out


def ultrarigidity_probe(fw, max_index=4):
    """Compute the flex dimension of every relaxation up to max_index.

    The rigidity matrix of the relaxation to Gamma' splits into one block
    per character chi of Z^2 / Gamma'.  The trivial block is R itself; the
    block of chi != 1 is the complex m x 2n matrix R_chi whose row k holds
    -e_k in the tail columns and chi(c_k) e_k in the head columns.  So
    phi' = phi + sum (2n - rank R_chi) and sigma' = sigma + sum
    (m - rank R_chi).  Characters are shared between sublattices; each
    block is ranked once, the blocks of one order in batched SVDs of at
    most ``_PROBE_CELLS`` entries (or one block), with RANK_RTOL relative
    to the block's largest singular value.  R_chi-bar = conj(R_chi) has the
    same rank, so one block per conjugate pair is ranked (613, not 1,223,
    up to index 16).

    Raises FrameworkError at the first relaxation whose quotient graph is
    disconnected (a character trivial on every closed-walk shift), before
    ranking, and NumericalError when a kept/dropped singular value ratio of
    any ranked block is below RANK_GAP_MIN.
    """
    if not 1 <= max_index <= _MAX_PROBE_INDEX:
        raise FrameworkError("max_index must be between 1 and %d" % _MAX_PROBE_INDEX)
    tables = [_index_characters(k) for k in range(1, max_index + 1)]
    cycles = np.array([fw.cycle_basis[:2], (0, fw.cycle_basis[2])])
    for k, (subs, codes, xy, fresh, _) in enumerate(tables, 1):
        # a character trivial on the closed-walk shifts cuts the relaxed
        # quotient graph (as does its conjugate, in the same sublattices);
        # one of lower order would have stopped at its index
        cuts = fresh[~((xy @ cycles.T) % k).any(axis=1)]
        if cuts.size:
            sub = subs[int(np.argmax(np.isin(codes, cuts).any(axis=1)))]
            raise FrameworkError(
                "disconnected quotient graph: relaxation to sublattice "
                "(a=%d, b=%d, d=%d)" % (sub.a, sub.b, sub.d))
    rank, ranks, gap = _character_ranks(fw, [(t[2], k) for k, t in enumerate(tables, 1)])
    _require_gap(gap)
    phi0, sigma0 = 2 * fw.n + 1 - rank, fw.m - rank
    # 2n - rank R_chi by character slot; 0 in the trivial slot
    flex_def = np.zeros(_code(0, 0, max_index + 1), dtype=int)
    entries = []
    first_failure = None
    for k, (subs, codes, _, fresh, twin) in enumerate(tables, 1):
        flex_def[fresh] = flex_def[twin] = 2 * fw.n - ranks[k - 1]
        added = flex_def[codes].sum(axis=1)
        # m - rank R_chi = (2n - rank R_chi) + (m - 2n) for each of k - 1 blocks
        phis = phi0 + added
        sigmas = sigma0 + added + (k - 1) * (fw.m - 2 * fw.n)
        for sub, phi, sigma in zip(subs, phis.tolist(), sigmas.tolist()):
            entry = UltraProbeEntry(sub, phi, sigma)
            entries.append(entry)
            if phi != 0 and first_failure is None:
                first_failure = entry
    return UltrarigidityReport(max_index, first_failure is None, entries,
                               first_failure)
