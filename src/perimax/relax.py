"""Finite-index relaxation of periodicity and the ultrarigidity probe.

A finite-index sublattice (``core.Sublattice``) is kept in the canonical
triangular form with generators a*g1 + b*g2 and d*g2 (0 <= b < d),
enumerated so that index k yields exactly sigma_1(k) = sum of divisors
distinct sublattices.  Unfolding multiplies the quotient data by the index
while realizing the identical infinite point set: copy r of orbit i is orbit
i * index + coset_index(r).  The ultrarigidity probe unfolds nothing: it ranks
one small complex block per conjugate pair of characters.  Stress persistence
reads the sums over the coset copies in closed form, and builds the relaxation
only to raise its refusal, where a bound cannot rule one out.  Sweeps over many
sublattices compute once what none of them changes: a framework's geometry
bound terms and last stress terms, and the probe's enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (EDGE_LENGTH_RTOL, LATTICE_RANK_RTOL, FrameworkError, PeriodicFramework,
                   Sublattice, _canonicalize, _integer, _lattice_vectors, _require_shift_room)
from .rigidity import (_require_gap, _stress_check, _stress_terms, _stress_values,
                       _sublattice_ranks)

__all__ = [
    "sublattices_of_index",
    "sublattices_up_to",
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


def _require_size(fw, sub):
    """The index of ``sub``; FrameworkError when index * max(n, m) > _MAX_UNFOLD
    or a shift sum of the relaxation could leave int64."""
    index, (orbits, shift_bound) = sub.index, fw._edge_geometry[:2]
    if index * orbits > _MAX_UNFOLD:
        raise FrameworkError("relaxation too large: index %d times %d orbits exceeds %d"
                             % (index, orbits, _MAX_UNFOLD))
    _require_shift_room(shift_bound, index)
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

    The realized infinite point set is unchanged; the quotient grows by the index: copy
    r of orbit i is orbit i * index + sub.coset_index(r), of a plain framework keeping
    ``sub`` for ``copy_stress``.  FrameworkError when index * max(n, m) exceeds 2**20.
    """
    out = PeriodicFramework(*_unfold(fw, sub))
    out._sublattice = sub
    return out


def copy_stress(unfolded, s):
    """Repeat a stress on the orbit copies of ``relax``'s output; else FrameworkError."""
    sub = getattr(unfolded, "_sublattice", None)
    if sub is None:
        raise FrameworkError("copy_stress needs a framework returned by relax")
    return np.repeat(_stress_values(s, unfolded.m // sub.index), sub.index)


def stress_persists(fw, s, sub):
    """Whether a periodic stress stays periodic after relaxing to ``sub``: the
    verdict and errors of ``check_periodic_stress`` on ``relax`` and ``copy_stress``,
    read from fw's own orbits by the closed forms of ``rigidity._stress_check``.
    Refusals are those of ``relax``: it is built, only to raise, when a bound
    cannot rule its geometry refusals out or ``fw._joined_index`` of ``sub``
    exceeds 1 (a disconnected relaxation, as in the probe).  A sweep pays once
    for what no sublattice changes: ``fw`` caches its geometry bound terms, and
    the ``_stress_terms`` of the last stress by its values, computed after the
    refusals so that they keep the order of ``relax``.

    The bound is in Python floats: with R = max(|l00| + |l01|, |l10| + |l11|)
    and W fw's largest |position| entry, B = 2 (W + R (a + b + d)) is at least
    twice the relaxed scale.  Nothing is refused when 2**-400 < B < 2**500
    (normal floats, columns in range), the shortest edge exceeds 2
    EDGE_LENGTH_RTOL B (4x the tolerance) and |det| a d > 4 LATTICE_RANK_RTOL
    B**2 (8x the singular cut; a corner copy of vertex 0 is then over 2
    LATTICE_RANK_RTOL B away)."""
    _require_size(fw, sub)
    a, b, d = sub.a, sub.b, sub.d
    _, _, shortest, largest, reach, det = fw._edge_geometry
    bound = 2.0 * (largest + reach * (a + b + d))
    if not (2.0 ** -400 < bound < 2.0 ** 500 and shortest > 2 * EDGE_LENGTH_RTOL * bound
            and det * a * d > 4 * LATTICE_RANK_RTOL * bound * bound
            and fw._joined_index(a, b, d) == 1):
        relax(fw, sub)    # raises whatever the relaxation refuses
    s = _stress_values(s, fw.m)
    if getattr(fw, "_stress_memo", (None,))[0] != s.tobytes():
        fw._stress_memo = s.tobytes(), _stress_terms(fw, s)
    return _stress_check(fw._stress_memo[1], fw, sub).ok


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
    batched SVD per chunk.  Where m >= 2n and a chunk holds at least m + 1
    classes, the certificate reads Gram matrices R_chi^H R_chi assembled
    from the edge terms in one GEMM, within O(m eps tr G) of the product
    and far below its margin FULL_RANK_DELTA tr G, and only the blocks it
    leaves are built.

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
