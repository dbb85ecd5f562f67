"""Rigidity matrix, flex and stress spaces of a periodic framework.

The configuration space is parametrized by the n representative positions
followed by the two lattice generator columns, giving 2n + 4 coordinates.
Differentiating the squared edge lengths yields an m x (2n + 4) matrix
whose kernel holds the infinitesimal motions and whose cokernel holds the
periodic stresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import FrameworkError, NumericalError

__all__ = [
    "RANK_RTOL",
    "rigidity_matrix",
    "rigidity_rows",
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
    "trivial_motion_basis",
    "gauge_rows",
    "gauge_reduced_kernel",
]

# Singular values below RANK_RTOL times the largest one count as zero.
RANK_RTOL = 1e-9
# Kept/dropped singular values closer than this ratio flag rank instability.
RANK_GAP_MIN = 10.0


def rigidity_matrix(fw):
    """The m x (2n + 4) rigidity matrix.

    Row of edge orbit beta carries -e in the tail block, +e in the head
    block (cancelling for loops) and c^1 e, c^2 e in the lattice columns.
    """
    return rigidity_rows(fw.n, fw.tails, fw.heads, fw.shifts, fw.edge_vectors())


def rigidity_rows(n, tails, heads, shifts, evecs):
    """Rigidity matrix of edge orbits with realized vectors ``evecs``."""
    m = len(tails)
    rows = np.arange(m)[:, None]
    R = np.zeros((m, 2 * n + 4))
    R[rows, 2 * tails[:, None] + [0, 1]] -= evecs
    R[rows, 2 * heads[:, None] + [0, 1]] += evecs
    R[:, 2 * n:2 * n + 2] += shifts[:, :1] * evecs
    R[:, 2 * n + 2:] += shifts[:, 1:] * evecs
    return R


@lru_cache(maxsize=16)
def pair_table(n, cutoff):
    """(P, 4) read-only table of the vertex-copy pairs (u, v, c1, c2) with
    u <= v and |c1|, |c2| <= cutoff, a loop pair (u == v) once with its
    lexicographically positive shift: canonical edge keys, sorted."""
    r = np.arange(-cutoff, cutoff + 1)
    u, v, c1, c2 = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n), r, r,
                                                   indexing="ij"))
    loop_ok = (c1 > 0) | ((c1 == 0) & (c2 > 0))
    table = np.column_stack([u, v, c1, c2])[(u < v) | ((u == v) & loop_ok)]
    table.setflags(write=False)
    return table


def equilibrium_matrix(fw):
    """The 2n x m per-vertex force balance matrix (vertex rows of R^t)."""
    return rigidity_matrix(fw)[:, :2 * fw.n].T.copy()


def _svd_rank(A, rtol=RANK_RTOL):
    """Singular values, numerical rank and the kept/dropped gap ratio."""
    if A.size == 0:
        return np.zeros(0), 0, np.inf
    sv = np.linalg.svd(A, compute_uv=False)
    top = sv[0] if sv.size else 0.0
    if top == 0.0:
        return sv, 0, np.inf
    rank = int((sv > rtol * top).sum())
    if rank == sv.size:
        gap = np.inf
    else:
        dropped = sv[rank]
        gap = np.inf if dropped == 0.0 else sv[rank - 1] / dropped if rank else np.inf
    return sv, rank, gap


def _nullspace(A, rtol=RANK_RTOL):
    """Orthonormal basis (columns) of the kernel of A."""
    if A.shape[0] == 0:
        return np.eye(A.shape[1])
    u, sv, vt = np.linalg.svd(A)
    top = sv[0] if sv.size else 0.0
    rank = int((sv > rtol * top).sum()) if top > 0 else 0
    return vt[rank:].T.copy()


def _fix_signs(basis, rtol=RANK_RTOL):
    """Flip basis columns so the first significantly nonzero entry is > 0."""
    basis = basis.copy()
    for j in range(basis.shape[1]):
        col = basis[:, j]
        nz = np.nonzero(np.abs(col) > rtol * max(1e-300, np.abs(col).max()))[0]
        if nz.size and col[nz[0]] < 0:
            basis[:, j] = -col
    return basis


@dataclass
class SpectralReport:
    """Dimensions of the stress and flex spaces with the singular values
    they were read off from."""

    sigma: int
    delta: int
    phi: int
    singular_values: np.ndarray


def flex_space(fw, rtol=RANK_RTOL):
    """Orthonormal basis of the infinitesimal motion space ker R.

    Returns (basis, report) with basis columns of length 2n + 4; the
    report's phi subtracts the three trivial isometry motions.
    """
    R = rigidity_matrix(fw)
    sv, rank, _ = _svd_rank(R, rtol)
    basis = _fix_signs(_nullspace(R, rtol), rtol)
    delta = basis.shape[1]
    sigma = fw.m - rank
    return basis, SpectralReport(sigma, delta, delta - 3, sv)


@dataclass
class StressVector:
    """Scalars per edge orbit with classification flags."""

    values: np.ndarray
    is_equilibrium: bool
    is_gamma_invariant: bool = True
    is_periodic: bool = False


def periodic_stress_space(fw, rtol=RANK_RTOL):
    """Basis of the periodic stress space ker R^t, as StressVectors.

    Vectors are unit norm with the first significant entry positive.
    """
    R = rigidity_matrix(fw)
    basis = _fix_signs(_nullspace(R.T, rtol), rtol)
    return [StressVector(basis[:, j].copy(), True, True, True)
            for j in range(basis.shape[1])]


def invariant_equilibrium_stress_space(fw, rtol=RANK_RTOL):
    """Basis of the lattice-invariant equilibrium stress space.

    These balance forces at every vertex orbit but need not satisfy the
    lattice conditions; the periodic stresses form a subspace.
    """
    E = equilibrium_matrix(fw)
    basis = _fix_signs(_nullspace(E, rtol), rtol)
    out = []
    for j in range(basis.shape[1]):
        s = basis[:, j].copy()
        out.append(StressVector(s, True, True, check_periodic_stress(fw, s).ok))
    return out


@dataclass
class PeriodicStressCheck:
    """Residuals of the per-vertex balance and the two lattice conditions."""

    ok: bool
    equilibrium_residual: float
    lattice_residuals: tuple
    tensor_residual: float
    verdicts_agree: bool
    scale: float


def check_periodic_stress(fw, s, rtol=1e-9):
    """Verify that s is a periodic stress, via both the per-generator sums
    and the equivalent rank-two tensor form."""
    s = np.asarray(s, dtype=float)
    if s.shape != (fw.m,):
        raise FrameworkError("stress must have one value per edge orbit")
    evecs = fw.edge_vectors()
    elen = np.linalg.norm(evecs, axis=1)

    eq = equilibrium_matrix(fw) @ s
    eq_res = float(np.abs(eq).max()) if eq.size else 0.0
    eq_scale = float((np.abs(s) * elen).sum())

    lat_res = []
    lat_scale = []
    for j in range(2):
        terms = (s * fw.shifts[:, j])[:, None] * evecs
        lat_res.append(float(np.linalg.norm(terms.sum(axis=0))))
        lat_scale.append(float((np.abs(s * fw.shifts[:, j]) * elen).sum()))

    # tensor form: sum_beta s_beta (Lambda c_beta) (x) e_beta
    periods = fw.shifts @ fw.lattice.T
    tensor = np.einsum("k,ki,kj->ij", s, periods, evecs)
    ten_res = float(np.abs(tensor).max())
    ten_scale = float((np.abs(s) * np.linalg.norm(periods, axis=1) * elen).sum())

    ok_eq = eq_res <= rtol * max(1.0, eq_scale)
    ok_lat = all(r <= rtol * max(1.0, sc) for r, sc in zip(lat_res, lat_scale))
    ok_ten = ten_res <= rtol * max(1.0, ten_scale)
    agree = ok_lat == ok_ten
    return PeriodicStressCheck(
        ok=ok_eq and ok_lat and ok_ten and agree,
        equilibrium_residual=eq_res,
        lattice_residuals=(lat_res[0], lat_res[1]),
        tensor_residual=ten_res,
        verdicts_agree=agree,
        scale=max(1.0, eq_scale),
    )


@dataclass
class CountIdentityReport:
    n: int
    m: int
    sigma: int
    delta: int
    phi: int
    stress_flex_identity: bool = field(default=False)
    stress_phi_identity: bool = field(default=False)


def count_identity_check(fw, rtol=RANK_RTOL):
    """Check sigma - delta = m - 2n - 4 and sigma = phi - 1 + (m - 2n).

    The two sides are computed from independent SVDs of R and R^t.
    Raises NumericalError when the singular spectrum straddles the rank
    tolerance too closely to trust the integer dimensions.
    """
    R = rigidity_matrix(fw)
    _, rank_r, gap_r = _svd_rank(R, rtol)
    _, rank_rt, gap_rt = _svd_rank(R.T, rtol)
    if min(gap_r, gap_rt) < RANK_GAP_MIN:
        raise NumericalError(
            "rank instability: singular value gap ratio %.3g below %g"
            % (min(gap_r, gap_rt), RANK_GAP_MIN)
        )
    delta = 2 * fw.n + 4 - rank_r
    sigma = fw.m - rank_rt
    phi = delta - 3
    rep = CountIdentityReport(fw.n, fw.m, sigma, delta, phi)
    rep.stress_flex_identity = (sigma - delta) == (fw.m - 2 * fw.n - 4)
    rep.stress_phi_identity = sigma == phi - 1 + (fw.m - 2 * fw.n)
    return rep


def trivial_motion_basis(fw):
    """(2n+4, 3) basis: two translations and the rotation acting on both
    the vertex representatives and the lattice generators."""
    n = fw.n
    basis = np.zeros((2 * n + 4, 3))
    basis[0:2 * n:2, 0] = 1.0  # translate x
    basis[1:2 * n:2, 1] = 1.0  # translate y
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    rot = np.empty(2 * n + 4)
    rot[:2 * n] = (fw.positions @ J.T).ravel()
    rot[2 * n:2 * n + 2] = J @ fw.lattice[:, 0]
    rot[2 * n + 2:] = J @ fw.lattice[:, 1]
    basis[:, 2] = rot
    return basis


def gauge_rows(fw):
    """Three gauge conditions: pin vertex 0 and the y-entry of the first
    lattice generator."""
    n = fw.n
    G = np.zeros((3, 2 * n + 4))
    G[0, 0] = 1.0
    G[1, 1] = 1.0
    G[2, 2 * n + 1] = 1.0
    return G


def gauge_reduced_kernel(fw, rtol=RANK_RTOL):
    """Kernel of the rigidity matrix restricted to the pinned gauge.

    For a framework in gauge position (vertex 0 at the origin, first
    generator on the positive x-axis) the gauge kills exactly the trivial
    motions, so the result has dimension phi.
    """
    R = rigidity_matrix(fw)
    A = np.vstack([R / max(1.0, np.abs(R).max()), gauge_rows(fw)])
    return _fix_signs(_nullspace(A, rtol), rtol)
