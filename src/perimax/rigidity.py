"""Rigidity matrix, flex and stress spaces of a periodic framework.

The configuration space is parametrized by the n representative positions
followed by the two lattice generator columns, giving 2n + 4 coordinates.
Differentiating the squared edge lengths yields an m x (2n + 4) matrix
whose kernel holds the infinitesimal motions and whose cokernel holds the
periodic stresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import FrameworkError, NumericalError, _integer

__all__ = [
    "RANK_RTOL",
    "rigidity_matrix",
    "pair_table",
    "equilibrium_matrix",
    "SpectralReport",
    "flex_space",
    "StressVector",
    "periodic_stress_space",
    "invariant_equilibrium_stress_space",
    "PeriodicStressCheck",
    "check_periodic_stress",
    "CountIdentityReport",
    "count_identity_check",
    "gauge_rows",
    "gauge_reduced_kernel",
]

# Singular values below RANK_RTOL times the largest one count as zero.
RANK_RTOL = 1e-9
# Kept/dropped singular values closer than this ratio flag rank instability.
RANK_GAP_MIN = 10.0
# A stress balances when each residual is below this times its terms' size.
STRESS_RTOL = 1e-9
# Largest n^2 (2 cutoff + 1)^2 a pair table spans: about 16 MB of table rows.
_MAX_PAIR_GRID = 1 << 20
# A matrix of a stack has full rank, with no SVD, when the Gram matrix G of
# its smaller side less FULL_RANK_DELTA tr(G) I has a Cholesky factor: then
# sigma_min >= ~1e-4 sigma_max, far above RANK_RTOL.
FULL_RANK_DELTA = 1e-8
# Complex entries per chunk of character classes, of any orders: per class
# its k x k Gram matrix, then the certificate's Cholesky factor of it or its
# m x 2n block once built, and its phases with their integer turns; blocks
# built before the certificate add themselves and their conjugate copy, and
# an edge-term table counts once.  About 1 MB together.  A Gram assembled
# from edge terms differs from the product by O(m eps tr G), far below
# FULL_RANK_DELTA tr G.
_PROBE_CELLS = 1 << 16
# Largest n whose dimension verdicts always come from one dense SVD: up to
# about this n that SVD costs less than the primitive-cell search and blocks.
DENSE_RANK_MAX_N = 40
# numpy's LAPACK gufuncs under np.linalg.cholesky, lstsq and svd: NaN where those raise.
_cholesky_lower = np.linalg._umath_linalg.cholesky_lo
_lstsq, _svd = np.linalg._umath_linalg.lstsq, np.linalg._umath_linalg.svd_f


def rigidity_matrix(fw):
    """The m x (2n + 4) rigidity matrix.

    Row of edge orbit beta carries -e in the tail block, +e in the head
    block (cancelling for loops) and c^1 e, c^2 e in the lattice columns.
    """
    return _row_assembly(fw.n, fw.tails, fw.heads, fw.shifts)(
        fw.edge_vectors(), np.zeros((fw.m, 2 * fw.n + 4)))


def _row_assembly(n, tails, heads, shifts):
    """Rigidity matrix of fixed edge orbits as a function of their edge
    vectors, written into a C-contiguous m x (2n + 4) array ``out`` that is
    zero off the rows' pattern: tail, head and lattice entries 0 - e, 0 + e
    (+0 at a loop) and 0 + c^i e, never -0.  The pattern is built once."""
    m, proper = len(tails), (tails != heads).astype(float)
    blocks = np.concatenate([tails, heads, np.full(m, n), np.full(m, n + 1)]).reshape(4, m)
    at = 2 * ((n + 2) * np.arange(m) + blocks)[:, :, None] + np.arange(2)
    coef, rows = np.concatenate([-proper, proper, *shifts.T]).reshape(4, m, 1), np.empty((4, m, 2))

    def assemble(evecs, out):
        np.multiply(coef, evecs, out=rows)
        np.add(rows, 0.0, out=rows)    # -1 * e + 0 is 0 - e, also at e = +-0
        out.reshape(-1)[at] = rows
        return out

    return assemble


@lru_cache(maxsize=16)
def pair_table(n, cutoff):
    """(P, 4) read-only table of the vertex-copy pairs (u, v, c1, c2) with
    u <= v and |c1|, |c2| <= cutoff, a loop pair (u == v) once with its
    lexicographically positive shift: canonical edge keys, sorted.  A
    cutoff that is not an integer (an integral float reads as its int), a
    negative one, whose empty table makes every verdict vacuous, and more
    than ``_MAX_PAIR_GRID`` cells (u, v, c1, c2) are refused before any
    allocation."""
    u, v, shifts, keep = _pair_grid(n, cutoff)
    table = np.column_stack([np.repeat(u, len(shifts)), np.repeat(v, len(shifts)),
                             np.tile(shifts[:, :, 0].astype(np.int64), (len(u), 1))])[keep]
    table.setflags(write=False)
    return table


def _checked_cutoff(n, cutoff):
    """``cutoff`` as an int, refused as ``pair_table`` refuses it for n orbits."""
    cutoff = _integer(cutoff, "cutoff")
    if cutoff < 0:
        raise FrameworkError("cutoff must be >= 0, got %d" % cutoff)
    if n * n * (2 * cutoff + 1) ** 2 > _MAX_PAIR_GRID:
        raise FrameworkError("pair table too large: %d vertex orbits at cutoff %d exceed %d "
                             "cells" % (n, cutoff, _MAX_PAIR_GRID))
    return cutoff


@lru_cache(maxsize=16)
def _pair_grid(n, cutoff):
    """``pair_table`` as a read-only grid: its vertex pairs u <= v, its
    shifts as float (c1, c2) columns of shape ((2 cutoff + 1)^2, 2, 1), and
    the indices of the grid rows (pair-major) that it keeps."""
    cutoff = _checked_cutoff(n, cutoff)
    u, v = np.triu_indices(n)
    r = np.arange(-cutoff, cutoff + 1)
    c1, c2 = np.repeat(r, len(r)), np.tile(r, len(r))
    keep = np.flatnonzero((u < v)[:, None] | (c1 > 0) | ((c1 == 0) & (c2 > 0)))
    grid = u, v, np.column_stack([c1, c2]).astype(float)[:, :, None], keep
    for a in grid:
        a.setflags(write=False)
    return grid


def equilibrium_matrix(fw):
    """The 2n x m per-vertex force balance matrix (vertex rows of R^t)."""
    return rigidity_matrix(fw)[:, :2 * fw.n].T.copy()


def _svd_rank(A, build=None):
    """Singular values, numerical rank and the kept/dropped gap ratio of a
    matrix, or elementwise for a stack of matrices (J, M, N).  A stack may
    come as its Gram stack (J, k, k), k = min(M, N), the ``_gram`` product
    or assembled (``_character_blocks``, within O(m eps tr G) of it), with
    ``build``, which returns the matrices of a mask of the stack.  A
    stacked matrix that ``_full_rank`` certifies reads rank k and gap inf,
    as its SVD would, with NaN singular values; only the others are
    decomposed, and with ``build`` only they are built."""
    if A.ndim < 3:
        return _read_rank(np.linalg.svd(A, compute_uv=False))
    if build is None:
        A, build = _gram(A), A.__getitem__
    rest = ~_full_rank(A)
    sv = np.full(A.shape[:2], np.nan)
    rank, gap = np.full(len(A), sv.shape[1]), np.full(len(A), np.inf)
    if rest.any():
        sv[rest], rank[rest], gap[rest] = _read_rank(np.linalg.svd(build(rest), compute_uv=False))
    return sv, rank, gap


def _gram(A):
    """The k x k Gram matrices of the smaller sides of a stack (J, M, N),
    k = min(M, N): A^H A when M >= N, else A A^H."""
    with np.errstate(over="ignore", invalid="ignore"):    # such G fail the trace test
        return A.conj().mT @ A if A.shape[1] >= A.shape[2] else A @ A.conj().mT


def _full_rank(G):
    """Mask of the Gram matrices of a stack (J, k, k) certified to come
    from matrices of full rank k with a safe gap: G less FULL_RANK_DELTA
    tr(G) I has a Cholesky factor.  Then sigma_min^2 >= FULL_RANK_DELTA
    tr(G) - O(k^2 eps tr(G)) >= ~FULL_RANK_DELTA sigma_max^2, so the SVD
    would keep all k values; a Gram assembled from edge terms
    (``_character_blocks``) differs from the product by O(m eps tr(G)), far
    below that.  A Gram with a non-finite trace is never certified, nor one
    so small that FULL_RANK_DELTA tr(G) is not a normal float (subnormal
    rounding would void the bound).  G is overwritten.  One stacked
    factorization, rounding within the same O(k^2 eps tr(G)), settles every
    matrix: a matrix it cannot factor reads NaN.  Only the lower triangle
    and the diagonal are read."""
    diagonal = np.arange(G.shape[1])
    trace = G[:, diagonal, diagonal].real.sum(axis=1)
    ok = np.isfinite(trace) & (FULL_RANK_DELTA * trace >= np.finfo(float).tiny)
    G[:, diagonal, diagonal] -= FULL_RANK_DELTA * np.where(ok, trace, 0.0)[:, None]
    with np.errstate(invalid="ignore"):    # the flag of a matrix that fails
        factor = _cholesky_lower(G)
    return ok & ~np.isnan(factor[:, diagonal, diagonal]).any(axis=1)


def _read_rank(sv):
    """(sv, rank, gap) of descending singular values sv, of shape (..., k):
    the rank r counts the values above RANK_RTOL times the largest, a
    prefix, and the gap is the last kept over the first dropped, sv[r - 1] /
    sv[r]; inf when either is missing or the dropped one is zero.  A single
    spectrum is read in Python floats, by the same rule."""
    # each spectrum followed by a zero: at r = k the dropped value is that
    # zero, and at r = 0 (a largest value of zero or NaN) the dropped value
    # sv[0] is not positive either; both read inf
    if sv.ndim == 1:
        padded = sv.tolist() + [0.0]
        cut = RANK_RTOL * padded[0]
        rank = sum(v > cut for v in padded[:-1])
        return sv, rank, padded[rank - 1] / padded[rank] if padded[rank] > 0 else math.inf
    rank = np.add.reduce(sv > RANK_RTOL * sv[..., :1], axis=-1)
    k = sv.shape[-1] + 1
    padded = np.zeros(sv.shape[:-1] + (k,))
    padded[..., :-1] = sv
    at = np.arange(0, padded.size, k).reshape(rank.shape) + rank
    kept, dropped = padded.reshape(-1)[at - 1], padded.reshape(-1)[at]
    return sv, rank, np.divide(kept, dropped, out=np.full(rank.shape, np.inf),
                               where=dropped > 0)


def _character_blocks(fw):
    """(build, tabulate) for fw's character blocks, whose phases chi =
    roots[at + turns], of shape (J, m), come from ``_unit_roots`` and
    per-class offsets ``at`` (J, 1).  build returns the (J, m, 2n) complex
    blocks whose row k holds -e_k in the tail columns and chi_k e_k in the
    head columns (they add up for a loop).  tabulate() returns a function
    of the same phases that assembles the blocks' Gram matrices R_chi^H
    R_chi from edge terms, with no block built, in the lower triangle and
    diagonal that ``_full_rank`` reads: one product of (J, m + 1) phases
    and an (m + 1) x (2n)^2 table.  With |chi_k| = 1, R^H R = D + F + F^H,
    the "dynamical matrix" of rigid-unit-mode work (Giddy et al., Acta
    Cryst. A 49, 1993): D = sum_k e_k e_k^T at (tail, tail) and at (head,
    head) is chi-free, F = -sum_k chi_k e_k e_k^T at (tail, head).  So edge
    k's term -e_k e_k^T sits in the lower of its two blocks, with phase
    chi_k when tail >= head and conj(chi_k) otherwise, and the last term,
    D, takes phase 1.  A loop's row is (chi_k - 1) e_k: its term takes the
    phase -|chi_k - 1|^2 and D leaves it out, so that a loop adds what its
    row adds (nothing at chi_k = 1) and no cancellation of its size.  Each
    entry is then within O(m eps tr G) of the product of the built block,
    as close as that product is to the exact Gram."""
    parts = np.zeros((2, fw.m, fw.n, 2))    # the tail and head columns of each row
    parts[0, np.arange(fw.m), fw.tails] = parts[1, np.arange(fw.m), fw.heads] = fw.edge_vectors()
    tail, head = parts.reshape(2, fw.m, 2 * fw.n)

    def build(roots, at, turns):
        blocks = roots[at + turns][:, :, None] * head
        blocks -= tail
        return blocks

    def tabulate():
        k, lower = 2 * fw.n, (fw.tails >= fw.heads)[:, None]
        loops, kept = np.flatnonzero(fw.tails == fw.heads), (fw.tails != fw.heads)[:, None]
        table = np.empty((fw.m + 1, k, k))
        with np.errstate(over="ignore", invalid="ignore"):    # such Gram fail the trace test
            np.multiply(np.where(lower, -tail, -head)[:, :, None],
                        np.where(lower, head, tail)[:, None, :], out=table[:-1])
            table[-1] = (kept * tail).T @ tail + (kept * head).T @ head
        table = table.reshape(fw.m + 1, k * k)
        # each term's phase: chi_k at turns t_k, conj(chi_k) at -t_k, 1 at 0
        sign = np.append(np.where(lower[:, 0], 1, -1), 0)
        edges = np.append(np.arange(fw.m), 0)

        def assemble(roots, at, turns):
            phases = roots[at + sign * turns[:, edges]]
            if len(loops):
                phases[:, loops] = -np.abs(phases[:, loops] - 1.0) ** 2
            return (phases @ table).reshape(len(turns), k, k)

        return assemble

    return build, tabulate


@lru_cache(maxsize=64)
def _unit_roots(orders):
    """(roots, start), read-only, for a tuple of orders N: roots[start[N] +
    t] is exp(2 pi i t / N), bitwise the value of ``np.exp``, and
    roots[start[N] - t] its conjugate, for 0 <= t < N."""
    orders = np.array(orders, dtype=int)
    start = np.zeros(orders.max(initial=0) + 1, dtype=int)
    start[orders] = np.cumsum(2 * orders - 1) - orders    # each order's -t .. t
    N = np.repeat(orders, orders)
    t = np.arange(len(N)) - np.repeat(np.cumsum(orders) - orders, orders)
    power = np.exp(2j * np.pi * t / N)
    roots = np.empty(2 * len(N) - len(orders), complex)
    roots[start[N] - t] = power.conj()    # at t = 0 the next line writes exp(0)
    roots[start[N] + t] = power
    roots.setflags(write=False)
    start.setflags(write=False)
    return roots, start


def _character_ranks(fw, classes):
    """(rank R, rank R_chi of each class (N, x, y), smallest gap of all),
    chi(c) = exp(2 pi i (x, y).c / N), ranked as ``ultrarigidity_probe`` says.

    Each chunk reads its phases from one table of roots of unity.  Where m
    >= 2n and a chunk holds at least as many classes as the edge-term table
    of ``_character_blocks`` has rows, so that the table is no larger than
    the chunk's Gram stack, the Gram matrices are assembled from it in one
    GEMM and only the blocks that the certificate leaves are built;
    elsewhere the blocks are built first and their Gram is their product."""
    _, rank, gap = _svd_rank(rigidity_matrix(fw))
    m, n = fw.m, fw.n
    build, tabulate = _character_blocks(fw)
    roots, start = _unit_roots(tuple(np.flatnonzero(np.bincount(classes[:, 0])).tolist()))
    k, rows = min(m, 2 * n), m + 1    # the rows of the edge-term table
    # complex entries per class: its Gram, then the certificate's factor of
    # it or its block once built, and its phases with their integer turns
    cells = k * k + 2 * m * n + 2 * m
    chunk = (_PROBE_CELLS - rows * k * k) // max(1, cells)
    grams = m >= 2 * n and min(chunk, len(classes)) >= rows and tabulate()
    if not grams:    # every block built first, with its conjugate copy
        chunk = max(1, _PROBE_CELLS // max(1, cells + 2 * m * n))
    ranks = np.empty(len(classes), dtype=int)
    for lo in range(0, len(classes), chunk):
        N, x, y = (classes[lo:lo + chunk, i, None] for i in range(3))
        # (x, y).c mod N, each shift reduced mod N before any product
        turns = (x * (fw.shifts[:, 0] % N) + y * (fw.shifts[:, 1] % N)) % N
        at = start[N]
        if grams:
            _, ranks[lo:lo + chunk], block_gap = _svd_rank(
                grams(roots, at, turns), lambda rest: build(roots, at[rest], turns[rest]))
        else:
            _, ranks[lo:lo + chunk], block_gap = _svd_rank(build(roots, at, turns))
        gap = min(gap, float(block_gap.min()))
    return rank, ranks, gap


def _characters(a, b, d):
    """(x, y) of each character chi(z) = exp(2 pi i (x z1 + y z2) / (a d))
    of Z^2 / M Z^2, M = [[a, 0], [b, d]]: theta2 = j / d and theta1 =
    (l - b j / d) / a, in (j, l) order (l fastest).  An array b gives one
    row of characters per entry."""
    k = a * d
    j, l = np.divmod(np.arange(k), a)
    return (l * d - b * j) % k, j * a % k


@lru_cache(maxsize=64)
def _character_classes(subs):
    """The characters chi != 1 of each sublattice (a, b, d) of ``subs`` by
    conjugate class: chi(z) = exp(2 pi i (x z1 + y z2) / N) reduced to
    gcd(x, y, N) = 1, then (x, y) or its conjugate (-x, -y) mod N, whichever
    is lexicographically smaller (their blocks are conjugate, of one rank).
    Returns the distinct classes as (N, x, y) rows in that order, the class
    of each character and the position in ``subs`` of its sublattice."""
    abd = np.array(subs)
    radix = (int((abd[:, 0] * abd[:, 2]).max()) + 1,) * 3    # (N, x, y) as one sort key
    # one trivial character per sublattice; keys as narrow as they fit
    keys = np.empty(int((abd[:, 0] * abd[:, 2] - 1).sum()), np.min_scalar_type(-radix[0] ** 3))
    owners, lo = np.empty(len(keys), dtype=np.int32), 0
    for a, d in sorted({(a, d) for a, _, d in subs}):
        at = np.flatnonzero((abd[:, 0] == a) & (abd[:, 2] == d))
        x, y = _characters(a, abd[at, 1:2], d)
        g = np.gcd(np.gcd(x, y), a * d)
        x, y, N = x // g, y // g, a * d // g
        # a character and its conjugate share the smaller of their two keys
        key = np.minimum(np.ravel_multi_index((N, x, y), radix),
                         np.ravel_multi_index((N, -x % N, -y % N), radix))
        hi = lo + key.size - len(at)
        keys[lo:hi] = key[N > 1]
        owners[lo:hi] = np.repeat(at, a * d - 1)
        lo = hi
    classes, keys[:] = np.unique(keys, return_inverse=True)    # keys become classes
    out = np.column_stack(np.unravel_index(classes, radix)).astype(keys.dtype), keys, owners
    for arr in out:
        arr.setflags(write=False)
    return out


def _sublattice_ranks(fw, subs):
    """(rank of the rigidity matrix of fw relaxed to each sublattice
    (a, b, d) of ``subs``, smallest gap of all): rank R plus rank R_chi
    summed over the characters chi != 1, one block per class."""
    classes, inverse, owner = _character_classes(subs)
    rank, ranks, gap = _character_ranks(fw, classes)
    return rank + np.bincount(owner, ranks[inverse], len(subs)).astype(int), gap


def _block_rank(fw):
    """(rank R, smallest gap) from the character blocks of fw's primitive
    cell; None when n <= DENSE_RANK_MAX_N or fw has no such cell."""
    if fw.n <= DENSE_RANK_MAX_N or fw.primitive_cell is None:
        return None
    sub = fw.primitive_cell.sublattice
    (rank,), gap = _sublattice_ranks(fw.primitive_cell.parent, ((sub.a, sub.b, sub.d),))
    return int(rank), gap


def _require_gap(gap):
    """Refuse integer dimensions read across a kept/dropped singular value
    ratio below RANK_GAP_MIN."""
    if gap < RANK_GAP_MIN:
        raise NumericalError(
            "rank instability: singular value gap ratio %.3g below %g"
            % (gap, RANK_GAP_MIN)
        )


def _fix_signs(basis):
    """Flip basis columns so the first significantly nonzero entry is > 0."""
    basis = basis.copy()
    for j, col in enumerate(basis.T.tolist()):
        cut = RANK_RTOL * max(1e-300, max(map(abs, col)))
        if next((x for x in col if abs(x) > cut), 0.0) < 0:
            basis[:, j] = -basis[:, j]
    return basis


def _kernel(A):
    """(sv, rank, gap, basis) of a single matrix from one full SVD, with an
    orthonormal, sign-fixed basis (columns) of its kernel.  A kernel read
    across a thin gap, or off the NaN of a failed SVD, is refused (NumericalError)."""
    with np.errstate(all="ignore"):    # np.linalg.svd's LinAlgError reads NaN here
        _, sv, vt = _svd(A)
    if not math.isfinite(sv.max(initial=0.0)):    # NaN when any is
        raise NumericalError("SVD did not converge: non-finite singular values")
    sv, rank, gap = _read_rank(sv)
    _require_gap(gap)
    return sv, rank, gap, _fix_signs(vt[rank:].T)


@dataclass
class SpectralReport:
    """Dimensions of the stress and flex spaces with the singular values
    they were read off from; ``rank_gap`` is the ratio of the last kept to
    the first dropped one (inf when none is dropped)."""

    sigma: int
    delta: int
    phi: int
    singular_values: np.ndarray
    rank_gap: float = np.inf


def flex_space(fw):
    """Orthonormal basis of the infinitesimal motion space ker R.

    Returns (basis, report) with basis columns of length 2n + 4; the
    report's phi subtracts the three trivial isometry motions.  Raises
    NumericalError when the spectrum straddles the rank tolerance.
    """
    sv, rank, gap, basis = _kernel(rigidity_matrix(fw))
    delta = basis.shape[1]
    sigma = fw.m - rank
    return basis, SpectralReport(sigma, delta, delta - 3, sv, gap)


@dataclass
class StressVector:
    """Equilibrium scalars per edge orbit; periodic when they also meet the lattice conditions."""

    values: np.ndarray
    is_periodic: bool = False


def periodic_stress_space(fw):
    """Basis of the periodic stress space ker R^t, as StressVectors.

    Vectors are unit norm with the first significant entry positive.  No
    dense SVD runs when ``_block_rank`` gives rank m across a safe gap.
    Blocks are not ranked when m > 2n + 1: ker R holds the three trivial
    motions, so rank R <= 2n + 1 < m and the kernel is never empty.
    """
    if fw.m <= 2 * fw.n + 1:
        rank, gap = _block_rank(fw) or (0, 0.0)
        if rank == fw.m and gap >= RANK_GAP_MIN:
            return []
    basis = _kernel(rigidity_matrix(fw).T)[3]
    return [StressVector(s, True) for s in basis.T.copy()]


def invariant_equilibrium_stress_space(fw):
    """Basis of the lattice-invariant equilibrium stress space.

    These balance forces at every vertex orbit but need not satisfy the
    lattice conditions; the periodic stresses form a subspace.
    """
    basis = _kernel(equilibrium_matrix(fw))[3]
    return [StressVector(s, check_periodic_stress(fw, s).ok) for s in basis.T.copy()]


@dataclass
class PeriodicStressCheck:
    """Residuals of the per-vertex balance and the two lattice conditions."""

    ok: bool
    equilibrium_residual: float
    lattice_residuals: tuple
    tensor_residual: float
    verdicts_agree: bool


def check_periodic_stress(fw, s):
    """Verify that s is a periodic stress, via both the per-generator sums
    and the equivalent rank-two tensor form."""
    return _stress_check(_stress_terms(fw, fw.edge_vectors(), s), fw, 1, 0, 1)


def _stress_values(s, m):
    """A stress as m floats; refuses any other shape."""
    s = np.asarray(s, dtype=float)
    if s.shape != (m,):
        raise FrameworkError("stress must have one value per edge orbit")
    return s


def _stress_terms(fw, evecs, s):
    """What ``_stress_check`` reads of a stress on the edge orbits of ``fw``
    with vectors ``evecs``, whatever the sublattice: the term sizes |s_k|
    |e_k|, the balance residual, the sum of the sizes, the entries of
    T = sum_k c_k (x) s_k e_k and max |Lambda T|."""
    s = _stress_values(s, fw.m)
    forces = s[:, None] * evecs
    # |s_k| |e_k|, the size of each term, for the relative tolerances
    sizes = np.abs(s) * np.linalg.norm(evecs, axis=1)
    # per-vertex balance E @ s: s_k e_k scattered onto heads minus onto tails
    eq = [np.bincount(fw.heads, f, fw.n) - np.bincount(fw.tails, f, fw.n) for f in forces.T]
    # Lambda T by orbit: 0 * inf reads NaN where sums over single orbits do
    ten = np.abs((fw.shifts @ fw.lattice.T).T @ forces).max()
    return (sizes, float(np.abs(eq).max()), float(sizes.sum()),
            (fw.shifts.T @ forces).ravel().tolist(), float(ten))


def _copy_shifts(shifts, a, b, d):
    """(m, ad, 2) shifts k'(r) of the coset copies r = (r1, r2) of orbits with
    shifts c on the sublattice (a, b, d): r + c = q + M k'(r), q a coset."""
    copies = np.empty((len(shifts), a, d, 2), dtype=int)
    copies[..., 0] = k1 = (np.arange(a)[:, None] + shifts[:, :1, None]) // a
    copies[..., 1] = (np.arange(d) + shifts[:, 1:, None] - b * k1) // d
    return copies.reshape(len(shifts), a * d, 2)


def _stress_check(terms, fw, a, b, d):
    """``check_periodic_stress`` on the relaxation of ``fw`` to (a, b, d), or
    on ``fw`` for (1, 0, 1), from its ``_stress_terms``.  With M = [[a, 0],
    [b, d]] the copies of orbit k add up to adj(M) c_k and Lambda M adj(M) =
    ad Lambda, so the residuals are closed forms in T.  Only the scales need
    the copy shifts, and only once a residual exceeds STRESS_RTOL: below it,
    max(1, scale) >= 1 passes.  Term sizes with no finite sum fail."""
    sizes, eq_res, size_sum, (t11, t12, t21, t22), ten = terms
    rho = a * d
    # b = 0 leaves T_2 unmixed, where 0 times an infinite T_1 would read NaN
    u, v = (a * t21 - b * t11, a * t22 - b * t12) if b else (a * t21, a * t22)
    lat_res = d * math.sqrt(t11 * t11 + t12 * t12), math.sqrt(u * u + v * v)
    ten_res = rho * ten
    ok_eq = eq_res <= STRESS_RTOL * max(1.0, size_sum * rho)
    if lat_res[0] <= STRESS_RTOL and lat_res[1] <= STRESS_RTOL and ten_res <= STRESS_RTOL:
        ok_lat = ok_ten = True
    else:
        copies = _copy_shifts(fw.shifts, a, b, d)
        lat_scale = sizes @ np.abs(copies).sum(axis=1)
        periods = copies @ (fw.lattice @ np.array([[a, 0.0], [b, d]])).T
        ten_scale = float(sizes @ np.linalg.norm(periods, axis=2).sum(axis=1))
        ok_lat = bool((np.array(lat_res) <= STRESS_RTOL * np.maximum(1.0, lat_scale)).all())
        ok_ten = ten_res <= STRESS_RTOL * max(1.0, ten_scale)
    agree = ok_lat == ok_ten
    return PeriodicStressCheck(ok_eq and ok_lat and ok_ten and agree and math.isfinite(size_sum),
                               eq_res, lat_res, ten_res, agree)


@dataclass
class CountIdentityReport:
    n: int
    m: int
    sigma: int
    delta: int
    phi: int
    stress_flex_identity: bool = field(default=False)
    stress_phi_identity: bool = field(default=False)


def count_identity_check(fw):
    """Check sigma - delta = m - 2n - 4 and sigma = phi - 1 + (m - 2n).

    sigma = m - rank R and delta = 2n + 4 - rank R come from one rank (R
    and R^t share their singular values), so both identities hold by
    rank-nullity for any rank: they test the dimension bookkeeping, not
    the numerical rank.  That comes from ``_block_rank`` when it applies,
    else from one values-only SVD, and rests on the singular value gap of
    every matrix ranked: raises NumericalError when a spectrum straddles
    the rank tolerance too closely to trust the integer dimensions.
    """
    rank, gap = _block_rank(fw) or _svd_rank(rigidity_matrix(fw))[1:]
    _require_gap(gap)
    delta = 2 * fw.n + 4 - rank
    sigma = fw.m - rank
    phi = delta - 3
    rep = CountIdentityReport(fw.n, fw.m, sigma, delta, phi)
    rep.stress_flex_identity = (sigma - delta) == (fw.m - 2 * fw.n - 4)
    rep.stress_phi_identity = sigma == phi - 1 + (fw.m - 2 * fw.n)
    return rep


def gauge_rows(fw):
    """Three gauge conditions: pin vertex 0 and the y-entry of the first
    lattice generator."""
    n = fw.n
    G = np.zeros((3, 2 * n + 4))
    G[0, 0] = 1.0
    G[1, 1] = 1.0
    G[2, 2 * n + 1] = 1.0
    return G


def gauge_reduced_kernel(fw):
    """Kernel of the rigidity matrix restricted to the pinned gauge.

    For a framework in gauge position (vertex 0 at the origin, first
    generator on the positive x-axis) the gauge kills exactly the trivial
    motions, so the result has dimension phi.  Raises NumericalError when
    the spectrum straddles the rank tolerance.
    """
    return _gauge_kernel(*_flex_system(fw), fw.edge_vectors())


def _flex_system(fw):
    """What the gauged rigidity matrix of fw's edge orbits needs at every
    placement, built once: their ``_row_assembly`` and an (m + 3) x
    (2n + 4) matrix whose first m rows receive the rows, over fw's three
    gauge rows."""
    gauged = np.zeros((fw.m + 3, 2 * fw.n + 4))
    gauged[fw.m:] = gauge_rows(fw)
    return _row_assembly(fw.n, fw.tails, fw.heads, fw.shifts), gauged


def _gauge_kernel(assemble, gauged, evecs):
    """``_kernel`` basis of the rows at edge vectors ``evecs``, scaled to
    entries of at most 1, over the gauge rows of ``gauged`` (a
    ``_flex_system``), whose first m rows it overwrites."""
    R = assemble(evecs, gauged[:len(evecs)])
    R /= max(1.0, np.abs(R).max())
    return _kernel(gauged)[3]


def _gauge_position(fw):
    """(positions, lattice) of fw moved to gauge position: vertex 0 at the
    origin, the first generator rotated onto the positive x-axis."""
    lam1 = fw.lattice[:, 0]
    norm = float(np.linalg.norm(lam1))
    if norm == 0.0:
        raise FrameworkError("first lattice generator is zero")
    c, s = lam1[0] / norm, lam1[1] / norm
    rot = np.array([[c, s], [-s, c]])
    positions = (fw.positions - fw.positions[0]) @ rot.T
    lattice = rot @ fw.lattice
    lattice[1, 0] = 0.0
    return positions, lattice


def _lattice_rate(motion, n):
    return motion[..., 2 * n:].reshape(motion.shape[:-1] + (2, 2)).mT.copy()


def _pair_rates(positions, lattice, motion, cutoff):
    """Rate of change of the squared distance of every pair of
    ``pair_table(n, cutoff)`` under a motion (2n + 4 vector, lattice
    columns last), or a row per placement of a stack (S, n, 2), (S, 2, 2),
    (S, 2n + 4), each bitwise the single placement's: a traced path's
    verdicts read it once per bounded chunk of samples, in sample order
    (``deform._judged``)."""
    n = positions.shape[-2]
    u, v, shifts, keep = _pair_grid(n, cutoff)
    # the positions over their velocities, the lattices over their rates
    points, lats = np.empty((2,) + positions.shape), np.empty((2,) + lattice.shape)
    points[0], points[1] = positions, motion[..., :2 * n].reshape(positions.shape)
    lats[0], lats[1] = lattice, motion[..., 2 * n:].reshape(lattice.shape).mT
    # (placement or motion, ..., vertex pairs, shifts, 2) array of points[v]
    # + lat @ c - points[u], one coordinate at a time; the stacked matmuls
    # round each row like the single products lat @ c and sep @ dsep
    products = np.matmul(lats[..., None, :, :], shifts)[..., 0]
    heads, tails = np.take(points, v, axis=-2), np.take(points, u, axis=-2)
    sep, dsep = both = np.empty(heads.shape[:-1] + (len(shifts), 2))
    for k in range(2):
        np.add(heads[..., k, None], products[..., None, :, k], out=both[..., k])
        np.subtract(both[..., k], tails[..., k, None], out=both[..., k])
    rates = 2.0 * np.matmul(sep.reshape(-1, 1, 2), dsep.reshape(-1, 2, 1))
    # np.take: indexing after an ellipsis took ten times as long (numpy 2.4, n = 48)
    rates = np.take(rates.reshape(positions.shape[:-2] + (-1,)), keep, axis=-1)
    if not np.all(np.isfinite(rates)):
        raise NumericalError("non-finite squared-distance rate")
    return rates


def _oriented_flex(assemble, gauged, lattice, evecs):
    """Unit flex of the edge orbits of a ``_flex_system`` (assemble,
    gauged) on ``lattice``, with edge vectors ``evecs`` validated there:
    the gauge-reduced kernel, which must be one-dimensional, turned so that
    the cell area |det Lambda| grows.  A pseudo-triangulation's expansive
    motion is auxetic (Borcea & Streinu, "Geometric auxetics", 2015), so
    this one rule serves paths and the rigidifying search alike.  A kernel
    read across a thin gap, and a rate of det Lambda below RANK_RTOL times
    the size of its terms, are refused (NumericalError)."""
    basis = _gauge_kernel(assemble, gauged, evecs)
    if basis.shape[1] != 1:
        raise NumericalError(
            "deformation space is not one-dimensional (dimension %d)"
            % basis.shape[1])
    tangent = basis[:, 0] / math.sqrt(basis[:, 0] @ basis[:, 0])    # np.linalg.norm's
    (a, b), (c, d) = lattice.tolist()
    da, dc, db, dd = tangent[-4:].tolist()
    terms = da * d, a * dd, -db * c, -b * dc
    rate = sum(terms)
    if abs(rate) <= RANK_RTOL * sum(map(abs, terms)):
        raise NumericalError("flex has no expansive sense: cell-area rate %.3g" % rate)
    return -tangent if (rate < 0) != (a * d - b * c < 0) else tangent
