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


def _same_lattice(fw, parent, abd):
    """relax(parent, Sublattice(*abd)) spans fw's lattice: the basis change
    between them is a unimodular integer matrix."""
    change = np.linalg.solve(fw.lattice, relax(parent, Sublattice(*abd)).lattice)
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
        parent, (a, b, d) = fw.primitive_cell
        assert a * d == sub.index and (parent.n, parent.m) == (base.n, base.m), sub
        assert _same_lattice(fw, parent, (a, b, d)), sub
        assert _verdicts(fw, dense=False) == _verdicts(fw, dense=True), sub


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
    assert cell[1][0] * cell[1][2] == (own[1][0] * own[1][2] if own else 1) * abd[0] * abd[2]
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
    assert fw.primitive_cell[1] == (2, 0, 1)
    assert _verdicts(fw, dense=False)[0] == _verdicts(fw, dense=True)[0] == "refused"


def test_search_refuses_shift_sums_beyond_int64():
    """A two-copy relaxation of a one-vertex grid with an extra long loop:
    its parent shift doubles the loop's, which int64 holds for 2**40 but
    not for 2**62."""
    def doubled(c):
        return PeriodicFramework(np.diag([2.0, 1.0]), [[0.0, 0.0], [1.0, 0.0]],
                                 [(0, 1, (0, 0)), (0, 1, (-1, 0)), (0, 0, (0, 1)),
                                  (1, 1, (0, 1)), (0, 0, (c, 0)), (1, 1, (c, 0))])
    parent, abd = doubled(2 ** 40).primitive_cell
    assert abd == (2, 0, 1) and parent.n == 1
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

