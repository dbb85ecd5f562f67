"""Dimension verdicts from character blocks: the primitive-cell search and
its agreement with the dense rank path."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perimax import (
    FrameworkError,
    NumericalError,
    PeriodicFramework,
    certify_ppt,
    count_identity_check,
    fixture,
    parse_framework,
    periodic_stress_space,
    relax,
    serialize_framework,
    sublattices_up_to,
)
from perimax import rigidity
from perimax.core import _canonicalize
from perimax.relax import Sublattice

from conftest import random_connected_framework, straddling_framework

FIXTURE_NAMES = ("square_grid", "kagome", "reentrant", "ppt3", "cubes", "ultrarigid")


def _moved_file(fw, angle=0.7, shift=(0.3, -0.2)):
    """fw rotated and translated, then written and read back as a file."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    moved = PeriodicFramework(rot @ fw.lattice, fw.positions @ rot.T + shift,
                              [fw.edge_key(k) for k in range(fw.m)])
    return parse_framework(serialize_framework(moved))


def _verdicts(fw, dense):
    """(sigma, delta, phi) of count_identity_check and the periodic stress
    dimension, each "refused" on NumericalError, through the dense path or
    through the blocks whenever fw has a primitive cell."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rigidity, "DENSE_RANK_MAX_N", 10 ** 9 if dense else 0)
        for verdict in (lambda: count_identity_check(fw), lambda: periodic_stress_space(fw)):
            try:
                rep = verdict()
            except NumericalError:
                out.append("refused")
                continue
            out.append(len(rep) if isinstance(rep, list) else (rep.sigma, rep.delta, rep.phi))
    return out


def _same_lattice(fw, parent, sub):
    """relax(parent, sub) spans fw's lattice: the basis change between them
    is a unimodular integer matrix."""
    change = np.linalg.solve(fw.lattice, relax(parent, sub).lattice)
    return (np.allclose(change, np.rint(change), atol=1e-9)
            and abs(round(np.linalg.det(np.rint(change)))) == 1)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_search_recovers_every_relaxation(name):
    """Every fixture relaxed to each sublattice of index <= 6, moved and read
    back from a file: the search finds exactly that index, its parent
    relaxes back to the input's lattice, and the block verdicts are the
    dense ones.  The fixtures themselves have no smaller cell (cubes is
    symmetric under a third of its cell as a point set, not as a graph)."""
    base = fixture(name)
    assert _moved_file(base).primitive_cell is None
    for sub in sublattices_up_to(6)[1:]:
        fw = _moved_file(relax(base, sub))
        cell = fw.primitive_cell
        parent = cell.parent
        assert cell.sublattice.index == sub.index and (parent.n, parent.m) == (base.n, base.m), sub
        assert _same_lattice(fw, parent, cell.sublattice), sub
        assert _verdicts(fw, dense=False) == _verdicts(fw, dense=True), sub


def _assert_unfolds_to(fw, cell):
    """The record's parent, unfolded by its maps, is fw: each vertex at its
    parent orbit plus its cell (to 1e-12 of fw's cell), each edge orbit
    (t, h, c) at the canonical parent row (orbit[t], orbit[h], cell[h] -
    cell[t] + M c) of its ``edge_orbit``, every parent orbit hit index
    times, the lattice parent.lattice @ M and index = |det M| = n / n0."""
    parent, M, orbit, cells = cell.parent, cell.matrix, cell.orbit, cell.cell
    index = abs(int(M[0, 0]) * int(M[1, 1]) - int(M[0, 1]) * int(M[1, 0]))
    assert index * parent.n == fw.n and index * parent.m == fw.m
    assert cell.sublattice == Sublattice.from_matrix(M)
    assert np.abs(parent.lattice @ M - fw.lattice).max() <= 1e-12 * fw.geometry_scale
    unfolded = parent.positions[orbit] + cells @ parent.lattice.T
    assert np.abs(np.linalg.solve(fw.lattice, (unfolded - fw.positions).T)).max() <= 1e-12
    rows = np.column_stack([orbit[fw.tails], orbit[fw.heads],
                            cells[fw.heads] - cells[fw.tails] + fw.shifts @ M.T])
    _canonicalize(rows)
    assert np.array_equal(rows, _edge_rows(parent)[cell.edge_orbit])
    assert (np.bincount(orbit, minlength=parent.n) == index).all()
    assert (np.bincount(cell.edge_orbit, minlength=parent.m) == index).all()
    for arr in (M, orbit, cells, cell.edge_orbit):
        assert not arr.flags.writeable


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_record_unfolds_to_every_relaxation(name):
    """Every fixture relaxed to each sublattice of index 2 to 6, and each of
    those relaxed again to index 2 or 3, read back from a file: the record
    that the search finds unfolds to the input, from a parent with the
    fixture's orbit counts."""
    base = fixture(name)
    for sub in sublattices_up_to(6)[1:]:
        once = relax(base, sub)
        for fw in [once] + [relax(once, again) for again in sublattices_up_to(3)[1:]]:
            fw = parse_framework(serialize_framework(fw))
            cell = fw.primitive_cell
            assert (cell.parent.n, cell.parent.m) == (base.n, base.m), sub
            _assert_unfolds_to(fw, cell)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       abd=st.sampled_from([(2, 0, 1), (1, 1, 2), (2, 1, 2), (3, 2, 3), (1, 3, 4), (5, 0, 1)]),
       angle=st.floats(0.0, 2 * math.pi))
def test_block_verdicts_equal_dense_on_random_relaxations(seed, abd, angle):
    """Random frameworks relaxed to a random sublattice (a disconnected
    relaxation is no framework), moved and read back: the search finds the
    index, times the base's own when it has a smaller cell, and the block
    verdicts are the dense ones."""
    base = random_connected_framework(np.random.default_rng(seed))
    own = base.primitive_cell
    try:
        fw = _moved_file(relax(base, Sublattice(*abd)), angle)
    except FrameworkError as exc:
        assert "disconnected" in str(exc)
        assume(False)
    cell = fw.primitive_cell
    assert cell is not None
    assert cell.sublattice.index == (own.sublattice.index if own else 1) * abd[0] * abd[2]
    assert _verdicts(fw, dense=False) == _verdicts(fw, dense=True)


def _edge_rows(fw):
    return np.column_stack([fw.tails, fw.heads, fw.shifts])


def test_moved_copy_falls_back_to_dense():
    """One vertex copy moved by 1e-7 of the cell is too close to call a
    translation and too far to match one: no cell, the dense verdict."""
    fw = _moved_file(relax(fixture("ppt3"), Sublattice(4, 1, 4)))
    positions = fw.positions.copy()
    positions[5] += 1e-7 * fw.lattice[:, 0]
    moved = PeriodicFramework(fw.lattice, positions, _edge_rows(fw))
    assert moved.primitive_cell is None
    assert _verdicts(moved, dense=False) == _verdicts(moved, dense=True) == _verdicts(fw, True)


@pytest.mark.parametrize("edge", [0, 17])
def test_reshifted_edge_copy_falls_back_to_dense(edge):
    """A relaxation with one copy of one edge orbit re-shifted keeps its
    symmetric positions but loses the graph symmetry: at vertex 0 (edge 0)
    the stars already differ, elsewhere (edge 17) only the edge images do."""
    fw = _moved_file(relax(fixture("ppt3"), Sublattice(4, 1, 4)))
    rows = _edge_rows(fw)
    assert (0 in rows[edge, :2]) == (edge == 0)
    rows[edge, 2] += 1
    reshifted = PeriodicFramework(fw.lattice, fw.positions, rows)
    assert reshifted.primitive_cell is None
    assert _verdicts(reshifted, dense=False) == _verdicts(reshifted, dense=True)


def test_thin_gap_refused_by_both_paths():
    """The straddling character block of an index-2 relaxation: the search
    finds the cell, and both paths refuse the counts."""
    fw = relax(straddling_framework(2e-9), Sublattice(2, 0, 1))
    assert fw.primitive_cell.sublattice == Sublattice(2, 0, 1)
    assert _verdicts(fw, dense=False)[0] == _verdicts(fw, dense=True)[0] == "refused"


def test_search_refuses_shift_sums_beyond_int64():
    """A two-copy relaxation of a one-vertex grid with an extra long loop:
    its parent shift doubles the loop's, which int64 holds for 2**40 but
    not for 2**62."""
    def doubled(c):
        return PeriodicFramework(np.diag([2.0, 1.0]), [[0.0, 0.0], [1.0, 0.0]],
                                 [(0, 1, (0, 0)), (0, 1, (-1, 0)), (0, 0, (0, 1)),
                                  (1, 1, (0, 1)), (0, 0, (c, 0)), (1, 1, (c, 0))])
    cell = doubled(2 ** 40).primitive_cell
    parent = cell.parent
    assert cell.sublattice == Sublattice(2, 0, 1) and parent.n == 1
    assert sorted(parent.edge_key(k)[2] for k in range(parent.m)) == [(0, 1), (1, 0),
                                                                      (2 ** 41, 0)]
    assert doubled(2 ** 62).primitive_cell is None


@pytest.fixture
def ladder_top():
    """ppt3 relaxed 8 x 8, moved and read back (n = 192, n0 = 3)."""
    return _moved_file(relax(fixture("ppt3"), Sublattice(8, 4, 8)))


def _svd_shapes(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


def test_block_verdicts_rank_no_wide_matrix(ladder_top, monkeypatch):
    """On the 8 x 8 file the counts and the certificate rank nothing wider
    than the parent's 2 n0 + 4 = 10 columns, and the empty periodic stress
    space needs no singular vectors."""
    shapes = _svd_shapes(monkeypatch)
    assert count_identity_check(ladder_top).phi == 1 and certify_ppt(ladder_top).valid
    assert shapes and max(shape[-1] for shape, _ in shapes) <= 10
    del shapes[:]
    assert periodic_stress_space(ladder_top) == []
    assert max(shape[-1] for shape, _ in shapes) <= 10
    assert not any(uv for _, uv in shapes)


def test_small_inputs_never_search(monkeypatch):
    """Inputs with n <= 12 (every fixture and its 2 x 2 relaxations) stay on
    the dense path without asking for a primitive cell."""
    assert rigidity.DENSE_RANK_MAX_N >= 12
    searched = []
    monkeypatch.setattr(PeriodicFramework, "primitive_cell",
                        property(lambda fw: searched.append(fw.n)))
    for name in FIXTURE_NAMES:
        for fw in (fixture(name), relax(fixture(name), Sublattice(2, 1, 2))):
            count_identity_check(fw)
            periodic_stress_space(fw)
            certify_ppt(fw)
    assert searched == []

