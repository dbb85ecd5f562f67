"""Rigidity matrix, spectral dimensions, stress spaces and identities."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimax import (
    FrameworkError,
    NumericalError,
    check_periodic_stress,
    copy_stress,
    count_identity_check,
    equilibrium_matrix,
    fixture,
    flex_space,
    invariant_equilibrium_stress_space,
    periodic_stress_space,
    relax,
    rigidity_matrix,
    sublattices_up_to,
)
from perimax.relax import Sublattice
from perimax import rigidity
from perimax.rigidity import gauge_reduced_kernel, pair_table

from conftest import (
    oracle_nullspace,
    oracle_rank,
    oracle_stress_check,
    random_connected_framework,
    single_edge,
    straddling_framework,
    subdivided_grid,
)

FIXTURE_NAMES = ("square_grid", "kagome", "reentrant", "ppt3", "cubes",
                 "ultrarigid")


def test_square_grid_matrix_rows():
    R = rigidity_matrix(fixture("square_grid"))
    assert R.shape == (2, 6)
    assert np.array_equal(R[0], [0, 0, 1, 0, 0, 0])
    assert np.array_equal(R[1], [0, 0, 0, 0, 0, 1])


def test_single_edge_matrix_row():
    R = rigidity_matrix(single_edge())
    assert R.shape == (1, 8)
    assert np.array_equal(R[0], [-1, 0, 1, 0, 0, 0, 0, 0])


def test_ppt3_matrix_rank():
    R = rigidity_matrix(fixture("ppt3"))
    assert R.shape == (6, 10)
    assert oracle_rank(R) == 6


def test_flex_space_dimensions():
    _, rep = flex_space(fixture("square_grid"))
    assert (rep.sigma, rep.delta, rep.phi) == (0, 4, 1)
    _, rep = flex_space(fixture("ppt3"))
    assert rep.phi == 1
    _, rep = flex_space(fixture("reentrant"))
    assert rep.phi == 2


def test_flex_basis_in_kernel():
    for name in FIXTURE_NAMES:
        fw = fixture(name)
        basis, rep = flex_space(fw)
        assert basis.shape[1] == rep.delta
        R = rigidity_matrix(fw)
        assert np.abs(R @ basis).max() < 1e-9 * max(1.0, np.abs(R).max())


def test_periodic_stress_space_examples():
    assert periodic_stress_space(fixture("square_grid")) == []
    assert periodic_stress_space(fixture("kagome")) == []
    assert periodic_stress_space(fixture("ppt3")) == []
    basis = periodic_stress_space(fixture("cubes"))
    assert len(basis) == 1
    values = basis[0].values
    assert values.min() < 0 < values.max()
    assert abs(np.linalg.norm(values) - 1.0) < 1e-12
    # sign convention: first significant entry positive
    assert values[np.nonzero(np.abs(values) > 1e-9)[0][0]] > 0
    assert basis[0].is_periodic


def test_invariant_equilibrium_space():
    sq = fixture("square_grid")
    inv = invariant_equilibrium_stress_space(sq)
    assert len(inv) == 2
    assert all(not s.is_periodic for s in inv if np.abs(s.values).sum() > 0) or True
    # loops are unconstrained, so both axis stresses are invariant-equilibrium
    E = equilibrium_matrix(sq)
    assert np.abs(E).max() == 0.0

    assert invariant_equilibrium_stress_space(single_edge()) == []

    # aligned-path fixture: a same-sign invariant stress that is not periodic
    fw = subdivided_grid()
    inv = invariant_equilibrium_stress_space(fw)
    Q = np.column_stack([s.values for s in inv])
    same_sign = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
    # lies in the invariant space ...
    assert np.linalg.norm(same_sign - Q @ (Q.T @ same_sign)) < 1e-9
    # ... but is not periodic
    assert not check_periodic_stress(fw, same_sign).ok
    # while the periodic space is one-dimensional with mixed signs
    per = periodic_stress_space(fw)
    assert len(per) == 1
    assert per[0].values.min() < 0 < per[0].values.max()


def test_periodic_subspace_of_invariant():
    for name in FIXTURE_NAMES:
        fw = fixture(name)
        per = periodic_stress_space(fw)
        inv = invariant_equilibrium_stress_space(fw)
        if not per:
            continue
        Q = np.column_stack([s.values for s in inv])
        for s in per:
            assert np.linalg.norm(s.values - Q @ (Q.T @ s.values)) < 1e-9


def test_kernel_of_transpose_equals_constrained_equilibrium():
    for fw in (fixture("cubes"), subdivided_grid(), fixture("ultrarigid")):
        per = periodic_stress_space(fw)
        inv = invariant_equilibrium_stress_space(fw)
        if not inv:
            assert not per
            continue
        Q = np.column_stack([s.values for s in inv])
        # lattice condition rows restricted to the invariant space
        evecs = fw.edge_vectors()
        K = np.zeros((4, fw.m))
        for j in range(2):
            K[2 * j:2 * j + 2] = (fw.shifts[:, j][:, None] * evecs).T
        constrained = Q @ oracle_nullspace(K @ Q)
        assert constrained.shape[1] == len(per)
        if per:
            P = np.column_stack([s.values for s in per])
            resid = constrained - P @ (P.T @ constrained)
            assert np.abs(resid).max() < 1e-9


def test_check_periodic_stress_examples():
    sq = fixture("square_grid")
    assert check_periodic_stress(sq, np.zeros(2)).ok
    rep = check_periodic_stress(sq, np.array([1.0, 0.0]))
    assert not rep.ok
    assert rep.lattice_residuals[0] > 0.5  # first generator condition fails
    for s in periodic_stress_space(fixture("cubes")):
        assert check_periodic_stress(fixture("cubes"), s.values).ok


def test_lattice_and_tensor_verdicts_agree(rng):
    for name in FIXTURE_NAMES:
        fw = fixture(name)
        for _ in range(1000):
            s = rng.standard_normal(fw.m)
            rep = check_periodic_stress(fw, s)
            assert rep.verdicts_agree


def test_count_identities_on_fixtures():
    for name in FIXTURE_NAMES:
        rep = count_identity_check(fixture(name))
        assert rep.stress_flex_identity and rep.stress_phi_identity, name


def test_count_identities_random(rng):
    for _ in range(100):
        fw = random_connected_framework(rng)
        rep = count_identity_check(fw)
        assert rep.stress_flex_identity
        assert rep.stress_phi_identity
        assert rep.sigma >= 0 and rep.delta >= 3


def test_specific_fixture_counts():
    rep = count_identity_check(fixture("ppt3"))
    assert (rep.sigma, rep.phi, rep.m - 2 * rep.n) == (0, 1, 0)
    rep = count_identity_check(fixture("reentrant"))
    assert (rep.n, rep.m, rep.phi, rep.sigma) == (2, 3, 2, 0)
    rep = count_identity_check(fixture("square_grid"))
    assert (rep.sigma, rep.delta) == (0, 4)


def test_trivial_motions_in_kernel():
    for name in FIXTURE_NAMES:
        fw = fixture(name)
        R = rigidity_matrix(fw)
        # two translations of the vertices, and one rotation of the
        # vertices and the lattice generators together
        T = np.zeros((2 * fw.n + 4, 3))
        T[0:2 * fw.n:2, 0] = 1.0
        T[1:2 * fw.n:2, 1] = 1.0
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        T[:, 2] = np.concatenate([(fw.positions @ J.T).ravel(), J @ fw.lattice[:, 0],
                                  J @ fw.lattice[:, 1]])
        assert np.abs(R @ T).max() < 1e-9 * max(1.0, np.abs(R).max())
        assert oracle_rank(T) == 3


def test_rank_instability_detected():
    # two tiny edges produce singular values on either side of the 1e-9
    # relative cutoff with a gap ratio of about 5
    from perimax import PeriodicFramework
    fw = PeriodicFramework(
        np.eye(2),
        [[0.0, 0.0], [3e-9, 0.0], [0.0, 6e-10]],
        [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 1, (0, 0)), (0, 2, (0, 0))])
    with pytest.raises(NumericalError, match="rank instability"):
        count_identity_check(fw)


def test_svd_rank_of_a_stack_matches_each_matrix(rng):
    """A stack reads the rank and gap of each matrix's own SVD.  The
    matrices the full-rank certificate settles have NaN singular values;
    every other one has its own SVD's values."""
    from perimax.rigidity import _full_rank, _svd_rank

    def check(mats):
        stack = np.stack(mats)
        certified = _full_rank(stack)
        sv, rank, gap = _svd_rank(stack)
        for i, A in enumerate(mats):
            sv_i, rank_i, gap_i = _svd_rank(A)
            assert (rank[i], gap[i]) == (rank_i, gap_i)
            if certified[i]:
                assert np.isnan(sv[i]).all() and rank_i == min(A.shape) and np.isinf(gap_i)
            else:
                assert np.array_equal(sv[i], sv_i)
        return certified, rank, gap

    # full rank, rank deficient, exactly zero and a straddling spectrum
    mats = [rng.standard_normal((5, 4)),
            rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4)),
            np.zeros((5, 4)),
            np.diag([1.0, 0.5, 3e-9, 6e-10]).repeat([2, 1, 1, 1], axis=0)]
    certified, rank, gap = check(mats)
    assert list(certified) == [True, False, False, False]
    assert list(rank) == [4, 2, 0, 3]
    assert gap[3] == pytest.approx(5.0)
    assert np.isinf(gap[[0, 2]]).all()
    # every matrix certified, wide and tall: no SVD, all values NaN
    for shape in ((6, 4, 7), (6, 7, 4)):
        certified, rank, gap = check(list(rng.standard_normal(shape)))
        assert certified.all() and (rank == 4).all() and np.isinf(gap).all()
    # a non-finite matrix is never certified; the SVD reads it as before
    mats = [rng.standard_normal((4, 3)), np.full((4, 3), np.inf)]
    mats[1][1:] = rng.standard_normal((3, 3))
    assert list(_full_rank(np.stack(mats))) == [True, False]
    sv, rank, gap = _svd_rank(np.stack(mats))
    assert np.isnan(sv[0]).all() and rank[0] == 3 and np.isinf(gap[0])
    assert np.array_equal(sv[1], np.linalg.svd(mats[1], compute_uv=False), equal_nan=True)
    # empty matrices have rank 0 and no gap
    sv, rank, gap = _svd_rank(np.zeros((3, 0, 4)))
    assert sv.shape == (3, 0) and list(rank) == [0, 0, 0] and np.isinf(gap).all()


@st.composite
def _spectra(draw):
    """Empty, or a largest value followed by values in any order: zero, the
    cut RANK_RTOL times it and its float neighbours, itself, inf, NaN and
    any finite value."""
    size = draw(st.integers(0, 8))
    if not size:
        return np.zeros(0)
    top = draw(st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1e300, math.inf, math.nan])
               | st.floats(1e-12, 1e12))
    cut = rigidity.RANK_RTOL * top
    near = [0.0, cut, np.nextafter(cut, 0.0), np.nextafter(cut, math.inf), top, math.inf,
            math.nan]
    rest = st.sampled_from(near) | st.floats(0.0, 1e300)
    return np.array([top] + draw(st.lists(rest, min_size=size - 1, max_size=size - 1)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(sv=_spectra())
def test_single_spectrum_reads_as_its_stacked_row(sv):
    """A 1-D spectrum, read in Python floats, gives the rank and gap of the
    same spectrum read as the one row of a stack, as an int and a float."""
    got = rigidity._read_rank(sv)
    with np.errstate(over="ignore", invalid="ignore"):
        _, rank, gap = rigidity._read_rank(sv[None])
    assert got[0] is sv
    assert type(got[1]) is int and got[1] == rank[0]
    assert type(got[2]) is float and np.array_equal([got[2]], gap, equal_nan=True)


def _fix_signs_by_columns(basis):
    """The sign rule on numpy columns: a column whose first entry above
    RANK_RTOL times its largest is negative is negated."""
    basis = basis.copy()
    for j in range(basis.shape[1]):
        col = basis[:, j]
        nz = np.nonzero(np.abs(col) > rigidity.RANK_RTOL * max(1e-300, np.abs(col).max()))[0]
        if nz.size and col[nz[0]] < 0:
            basis[:, j] = -col
    return basis


_CUT = rigidity.RANK_RTOL
_ENTRIES = st.sampled_from([0.0, -0.0, -5e-324, _CUT, -_CUT, np.nextafter(_CUT, 1.0),
                            -np.nextafter(_CUT, 1.0), np.nextafter(_CUT, 0.0),
                            -np.nextafter(_CUT, 0.0)]) | st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(columns=st.integers(1, 3).flatmap(lambda k: st.lists(
    st.tuples(st.integers(0, 4), st.lists(_ENTRIES, max_size=5), st.sampled_from([1.0, -1.0])),
    min_size=k, max_size=k)))
def test_fix_signs_matches_the_column_rule(columns):
    """Signs fixed over Python lists equal the numpy column rule, bitwise,
    on 1 to 3 columns: leading zeros, then entries at and around the cut
    (each column ends in +-1, so the cut is RANK_RTOL itself).  The basis
    is the transposed view an SVD's rows give, and is left as it was."""
    columns = [[0.0] * zeros + col + [last] for zeros, col, last in columns]
    rows = max(map(len, columns))
    basis = np.array([col + [0.0] * (rows - len(col)) for col in columns]).T
    before = basis.copy()
    got = rigidity._fix_signs(basis)
    assert got.tobytes() == _fix_signs_by_columns(basis).tobytes()
    assert basis.tobytes() == before.tobytes()


# log10 of the smallest planted singular value over the largest, by kind:
# well conditioned, near the certificate's 1e-4 cut, near RANK_RTOL
_PLANTED = {"random": (-3.0, 0.0), "cut": (-4.3, -3.7), "rtol": (-9.3, -8.7)}


def _planted_block(rng, kind, m, w, scale):
    """An m x w complex matrix of the given kind: a planted spectrum
    U diag(s) V^H with random orthonormal U and V, scaled, an exactly
    singular one (a repeated row or column of the smaller side), zero, or
    one with an inf or NaN entry."""
    k = min(m, w)
    if k == 0 or kind == "zero" or (kind == "singular" and k < 2):
        return np.zeros((m, w), complex)
    u, v = (np.linalg.qr(rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)))[0]
            for d in (m, w))
    lo, hi = _PLANTED.get(kind, (-3.0, 0.0))
    s = np.sort(10 ** rng.uniform(lo, 0.0, k))[::-1]
    s[-1] = 10 ** rng.uniform(lo, hi)
    s[0] = 1.0
    block = (u * (scale * s)) @ v.conj().T
    if kind == "singular":
        if m >= w:
            block[:, -1] = block[:, 0]
        else:
            block[-1] = block[0]
    elif kind == "nonfinite" and block.size:
        block[rng.integers(m), rng.integers(w)] = rng.choice([np.inf, -np.inf, np.nan])
    return block


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kinds=st.lists(st.sampled_from(["random", "cut", "rtol", "singular", "zero",
                                       "nonfinite"]), max_size=14),
       m=st.integers(0, 12), w=st.integers(0, 12),
       scale=st.sampled_from([1.0, 1e-160, 1e150]),
       seed=st.integers(0, 2**32 - 1))
def test_full_rank_certificate_never_drops_a_value(kinds, m, w, scale, seed):
    """A matrix the certificate settles keeps every singular value in its
    own SVD, with sigma_min >= ~1e-4 sigma_max, whatever the stack size
    (so either factorization loop), shape and scale; a non-finite matrix is
    never settled, and a well-conditioned one of ordinary scale always is.
    The stack reads the rank and gap of each matrix's own SVD."""
    rng = np.random.default_rng(seed)
    k = min(m, w)
    stack = np.zeros((len(kinds), m, w), complex)
    for block, kind in zip(stack, kinds):
        block[...] = _planted_block(rng, kind, m, w, scale)
    certified = rigidity._full_rank(stack)
    assert certified.shape == (len(kinds),)
    finite = np.isfinite(stack).all(axis=(1, 2))
    assert not certified[~finite].any()
    for block, kind, settled in zip(stack[finite], np.array(kinds, dtype=object)[finite],
                                    certified[finite]):
        sv, rank, gap = rigidity._svd_rank(block)
        if settled:
            assert rank == k and gap == np.inf and sv[-1] >= 0.99e-4 * sv[0]
        if kind == "random" and scale == 1.0 and k:
            assert settled
    if finite.all():
        sv, rank, gap = rigidity._svd_rank(stack)
        for i, block in enumerate(stack):
            sv_i, rank_i, gap_i = rigidity._svd_rank(block)
            assert (rank[i], gap[i]) == (rank_i, gap_i)
            assert np.isnan(sv[i]).all() if certified[i] else np.array_equal(sv[i], sv_i)


def _counted_cholesky(monkeypatch, refuse_stacks):
    """Record the ndim of each ``np.linalg.cholesky`` call; with
    ``refuse_stacks`` every stacked call raises, so the certificate falls
    back to its loops."""
    calls, cholesky = [], np.linalg.cholesky

    def counted(G):
        calls.append(G.ndim)
        if refuse_stacks and G.ndim == 3:
            raise np.linalg.LinAlgError("stacked call refused")
        return cholesky(G)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


@pytest.mark.parametrize("J, m, w", [(12, 7, 4), (9, 3, 5), (2, 11, 9), (1, 6, 6)])
def test_batched_certificate_matches_column_steps(J, m, w, monkeypatch):
    """One Cholesky factorization of the whole stack certifies a stack of
    positive definite shifted Gram matrices, with J >= k (column steps
    otherwise) and J < k (one factorization per matrix otherwise), and the
    mask equals that of the loops; one singular, zero or non-finite matrix
    added leaves the others' entries as they were."""
    rng = np.random.default_rng(J * 100 + m)
    stack = np.array([_planted_block(rng, "random", m, w, 1.0) for _ in range(J)])
    calls = _counted_cholesky(monkeypatch, refuse_stacks=True)
    loops = rigidity._full_rank(stack)
    assert calls == [3] + ([2] * J if min(m, w) > J else [])
    monkeypatch.undo()
    calls = _counted_cholesky(monkeypatch, refuse_stacks=False)
    batched = rigidity._full_rank(stack)
    assert calls == [3]
    assert batched.all() and np.array_equal(batched, loops)
    for kind in ("singular", "zero", "nonfinite"):
        extra = _planted_block(rng, kind, m, w, 1.0)
        for at in (0, J):
            mask = rigidity._full_rank(np.insert(stack, at, extra, axis=0))
            assert not mask[at] and np.array_equal(np.delete(mask, at), batched), (kind, at)


def test_stress_check_matches_dense_reference(rng):
    # the scattered balance and the matrix-free lattice and tensor sums give
    # the dense reference's verdicts on periodic, invariant-only, random,
    # nearly periodic and zero stresses
    bases = [fixture(name) for name in FIXTURE_NAMES] + [subdivided_grid()]
    checked = Counter()
    for base in bases:
        for sub in sublattices_up_to(3):
            fw = relax(base, sub)
            stresses = [copy_stress(fw, v.values) for v in periodic_stress_space(base)]
            stresses += [copy_stress(fw, v.values)
                         for v in invariant_equilibrium_stress_space(base)]
            stresses += [s + 1e-6 * rng.standard_normal(fw.m) for s in stresses[:1]]
            stresses += [rng.standard_normal(fw.m), np.zeros(fw.m)]
            for s in stresses:
                rep = check_periodic_stress(fw, s)
                assert (rep.ok, rep.verdicts_agree) == oracle_stress_check(fw, s)
                checked[rep.ok] += 1
    assert checked[True] > 50 and checked[False] > 50


def test_stress_spaces_refuse_straddling_spectrum():
    # the equilibrium matrix of this relaxation reads its rank across a
    # singular value gap ratio of 2
    fw = relax(straddling_framework(), Sublattice(2, 0, 1))
    with pytest.raises(NumericalError, match="rank instability"):
        invariant_equilibrium_stress_space(fw)
    assert len(periodic_stress_space(fw)) == 5


def test_kernel_bases_refuse_straddling_spectrum():
    # R of this relaxation reads its rank across a singular value gap ratio
    # of 1.8 and R over the gauge rows across one of 2.4; the unrelaxed
    # framework's spectrum is well separated
    fw = relax(straddling_framework(2e-9), Sublattice(2, 0, 1))
    for kernel in (flex_space, gauge_reduced_kernel):
        with pytest.raises(NumericalError, match="rank instability"):
            kernel(fw)
    assert flex_space(straddling_framework(2e-9))[1].rank_gap > 1e6


def test_pair_table_refuses_past_its_cap_before_allocating(monkeypatch):
    """n^2 (2 cutoff + 1)^2 cells at the cap give a table and one more is
    refused; the cap admits ppt3 relaxed 8x8 (n = 192) at cutoff 2."""
    assert rigidity._MAX_PAIR_GRID >= max(1 << 20, 192 * 192 * 25)
    monkeypatch.setattr(rigidity, "_MAX_PAIR_GRID", 3 * 3 * 25)
    for cached in (pair_table, rigidity._pair_grid):
        monkeypatch.setattr(rigidity, cached.__name__, cached.__wrapped__)
    assert len(rigidity.pair_table(3, 2)) == 3 * 25 + 3 * 12
    for n, cutoff in ((4, 2), (3, 3), (1, 2**63)):
        with pytest.raises(FrameworkError, match="pair table too large"):
            rigidity.pair_table(n, cutoff)
    with pytest.raises(FrameworkError, match="cutoff must be >= 0"):
        rigidity.pair_table(3, -1)
