"""Stress <-> lifting correspondence, folds, heights and terrain export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimax import (
    FrameworkError,
    NumericalError,
    PeriodicLifting,
    check_periodic_stress,
    classify_folds,
    export_terrain,
    fixture,
    insert_edge_orbit,
    is_pointed,
    lifting_from_stress,
    periodic_stress_space,
    relax,
    stress_from_lifting,
    sublattices_up_to,
    trace_faces,
    vertex_heights,
)
from perimax.lifting import compatibility_residual
from perimax.pseudotri import find_rigidifying_edges

from conftest import subdivided_grid


def sigma_ge_one_fixtures():
    out = []
    for name in ("square_grid", "kagome", "reentrant", "ppt3", "cubes",
                 "ultrarigid"):
        fw = fixture(name)
        if periodic_stress_space(fw):
            out.append((name, fw))
    out.append(("subdivided_grid", subdivided_grid()))
    return out


def doubly_inserted_ppt():
    """ppt3 with its two top compatible insertions: sigma = 1."""
    fw = fixture("ppt3")
    first = find_rigidifying_edges(fw)[0]
    fw1 = insert_edge_orbit(fw, first)
    for cand in find_rigidifying_edges(fw)[1:]:
        try:
            return insert_edge_orbit(fw1, cand), first, cand
        except Exception:
            continue
    raise AssertionError("no compatible second insertion found")


def test_flat_lifting_zero_stress():
    fw = fixture("cubes")
    fc = trace_faces(fw)
    flat = PeriodicLifting(np.zeros((fc.n_faces, 2)), np.full(fc.n_faces, 7.0))
    assert compatibility_residual(fw, fc, flat) == 0.0
    s = stress_from_lifting(fw, fc, flat)
    assert np.abs(s).max() == 0.0


def test_lifting_scaling_linearity():
    fw = fixture("cubes")
    fc = trace_faces(fw)
    s = periodic_stress_space(fw)[0].values
    lift = lifting_from_stress(fw, fc, s)
    assert np.abs(stress_from_lifting(fw, fc, lift.scaled(2.0)) - 2 * s).max() < 1e-12


def test_incompatible_lifting_rejected():
    fw = fixture("cubes")
    fc = trace_faces(fw)
    bad = PeriodicLifting(np.array([[1.0, 0.0]] * fc.n_faces),
                          np.zeros(fc.n_faces))
    with pytest.raises(NumericalError, match="incompatible lifting"):
        stress_from_lifting(fw, fc, bad)


def test_round_trip_all_stressed_fixtures():
    for name, fw in sigma_ge_one_fixtures():
        fc = trace_faces(fw)
        for vec in periodic_stress_space(fw):
            s = vec.values
            lift = lifting_from_stress(fw, fc, s, c0=0.0)
            back = stress_from_lifting(fw, fc, lift)
            assert np.abs(back - s).max() < 1e-9, name


def test_offset_constant_freedom():
    fw = fixture("cubes")
    fc = trace_faces(fw)
    s = periodic_stress_space(fw)[0].values
    l0 = lifting_from_stress(fw, fc, s, c0=0.0)
    l5 = lifting_from_stress(fw, fc, s, c0=5.0)
    assert np.abs(l5.offsets - l0.offsets - 5.0).max() < 1e-12
    assert np.abs(l5.normals - l0.normals).max() < 1e-12


def test_zero_stress_flat_terrain():
    fw = fixture("kagome")
    fc = trace_faces(fw)
    lift = lifting_from_stress(fw, fc, np.zeros(fw.m), c0=5.0)
    assert np.abs(lift.normals).max() == 0.0
    assert np.abs(lift.offsets - 5.0).max() == 0.0
    assert np.abs(vertex_heights(fw, fc, lift) - 5.0).max() < 1e-12


def test_nonperiodic_stress_rejected():
    sq = fixture("square_grid")
    fc = trace_faces(sq)
    for bad in (np.array([1.0, 0.0]), np.array([1.0, 1.0])):
        with pytest.raises(NumericalError, match="not a periodic stress") as exc:
            lifting_from_stress(sq, fc, bad)
        assert "residual" in str(exc.value)

    # same-sign invariant equilibrium stress on the aligned-path fixture
    fw = subdivided_grid()
    same_sign = np.array([1.0, 1.0, 1.0, 1.0])
    assert not check_periodic_stress(fw, same_sign).ok
    with pytest.raises(NumericalError, match="not a periodic stress"):
        lifting_from_stress(fw, trace_faces(fw), same_sign)


def test_fold_classification():
    fw = fixture("cubes")
    folds = classify_folds(fw, np.zeros(fw.m))
    assert all(f.fold == "flat" for f in folds)

    s = np.zeros(fw.m)
    s[2] = -1.0
    assert classify_folds(fw, s)[2].fold == "mountain"
    s[2] = 1.0
    assert classify_folds(fw, s)[2].fold == "valley"

    for name, fw in sigma_ge_one_fixtures():
        for vec in periodic_stress_space(fw):
            kinds = {f.fold for f in classify_folds(fw, vec.values)}
            assert "mountain" in kinds and "valley" in kinds, name

    # one stress value per edge orbit, no fewer and no more
    fw = fixture("cubes")
    for wrong in (np.ones(fw.m - 1), np.ones(fw.m + 1)):
        with pytest.raises(FrameworkError, match="one value per edge orbit"):
            classify_folds(fw, wrong)
        with pytest.raises(FrameworkError, match="one value per edge orbit"):
            lifting_from_stress(fw, trace_faces(fw), wrong)


def test_pointed_vertex_not_extremum():
    # unfold first so some vertices keep their pointed stars after the two
    # insertions
    from perimax.relax import Sublattice, relax

    fw = relax(fixture("ppt3"), Sublattice(2, 0, 1))
    cands = find_rigidifying_edges(fw)
    fw1 = insert_edge_orbit(fw, cands[0])
    fw2 = None
    for cand in cands[1:]:
        try:
            fw2 = insert_edge_orbit(fw1, cand)
            break
        except Exception:
            continue
    assert fw2 is not None
    basis = periodic_stress_space(fw2)
    assert len(basis) == 1
    fc = trace_faces(fw2)
    lift = lifting_from_stress(fw2, fc, basis[0].values)
    heights = vertex_heights(fw2, fc, lift)
    tol = 1e-12 * max(1.0, np.abs(heights).max())
    checked = 0
    for v in range(fw2.n):
        if not is_pointed(fw2, v):
            continue
        nbrs = [int(fw2.heads[k]) for k in range(fw2.m) if fw2.tails[k] == v]
        nbrs += [int(fw2.tails[k]) for k in range(fw2.m) if fw2.heads[k] == v]
        diffs = heights[nbrs] - heights[v]
        assert not np.all(diffs < -tol), "strict local max at %d" % v
        assert not np.all(diffs > tol), "strict local min at %d" % v
        checked += 1
    assert checked > 0


def test_handbuilt_cube_corner_terrain_induces_basis_stress():
    """An explicitly constructed cube-corner terrain over the rhombus
    tiling is compatible and induces the one-dimensional stress basis."""
    fw = fixture("cubes")
    fc = trace_faces(fw)
    c = 1.0 / (3.0 * np.sqrt(2.0))
    angles = {0: 2 * np.pi / 3, 1: -2 * np.pi / 3, 2: 0.0}
    normals = np.array([[c * np.cos(angles[f]), c * np.sin(angles[f])]
                        for f in range(fc.n_faces)])
    lift = PeriodicLifting(normals, np.zeros(fc.n_faces))
    assert compatibility_residual(fw, fc, lift) < 1e-12
    induced = stress_from_lifting(fw, fc, lift)
    basis = periodic_stress_space(fw)[0].values
    cosim = abs(float(induced @ basis)) / np.linalg.norm(induced)
    assert cosim > 1 - 1e-12


def test_round_trip_on_double_insertion():
    fw2, _, _ = doubly_inserted_ppt()
    fc = trace_faces(fw2)
    s = periodic_stress_space(fw2)[0].values
    lift = lifting_from_stress(fw2, fc, s)
    assert np.abs(stress_from_lifting(fw2, fc, lift) - s).max() < 1e-9


def test_fold_signs_match_terrain_concavity():
    """Mountain edges are concave creases of the lifted terrain.

    Probes the terrain a small step into both adjacent faces from each
    edge midpoint; a crease is a mountain exactly when the probed heights
    fall below the crease height.
    """
    fw = fixture("cubes")
    fc = trace_faces(fw)
    s = periodic_stress_space(fw)[0].values
    lift = lifting_from_stress(fw, fc, s)
    folds = {f.orbit: f.fold for f in classify_folds(fw, s)}
    lat = fw.lattice
    for tet in fc.tetrads:
        e = fw.edge_vector(tet.orbit)
        p = fw.positions[fw.tails[tet.orbit]]
        mid = p + 0.5 * e
        left_dir = np.array([-e[1], e[0]]) / np.linalg.norm(e)
        h = 1e-3
        lshift = (-tet.left_copy[0], -tet.left_copy[1])
        rshift = (-tet.right_copy[0], -tet.right_copy[1])
        on_edge = lift.height(lat, tet.left_face, lshift, mid)
        assert abs(on_edge - lift.height(lat, tet.right_face, rshift, mid)) < 1e-12
        probe = (lift.height(lat, tet.left_face, lshift, mid + h * left_dir)
                 + lift.height(lat, tet.right_face, rshift, mid - h * left_dir)
                 - 2 * on_edge)
        if folds[tet.orbit] == "mountain":
            assert probe < -1e-9
        elif folds[tet.orbit] == "valley":
            assert probe > 1e-9
        else:
            assert abs(probe) < 1e-12


def test_export_terrain_flat():
    fw = fixture("kagome")
    fc = trace_faces(fw)
    lift = lifting_from_stress(fw, fc, np.zeros(fw.m), c0=3.0)
    obj = export_terrain(fw, fc, lift, (2, 2))
    zs = [float(line.split()[3]) for line in obj.splitlines()
          if line.startswith("v ")]
    assert np.abs(np.array(zs) - 3.0).max() < 1e-12


def test_export_terrain_lattice_invariance_and_bumps():
    fw = fixture("cubes")
    fc = trace_faces(fw)
    s = periodic_stress_space(fw)[0].values
    lift = lifting_from_stress(fw, fc, s)
    obj = export_terrain(fw, fc, lift, (2, 2))
    lines = obj.splitlines()
    vrows = np.array([[float(x) for x in line.split()[1:]]
                      for line in lines if line.startswith("v ")])
    frows = [line for line in lines if line.startswith("f ")]
    # four congruent copies: every vertex translated by a generator keeps z
    lat = fw.lattice
    coords = {}
    for x, y, z in vrows:
        coords[(round(x, 9), round(y, 9))] = z
    hits = 0
    for (x, y), z in coords.items():
        for gen in (lat[:, 0], lat[:, 1]):
            key = (round(x + gen[0], 9), round(y + gen[1], 9))
            if key in coords:
                assert abs(coords[key] - z) < 1e-9
                hits += 1
    assert hits > 0
    # fan triangulation: each 4-gon splits in two
    assert len(frows) == 2 * 2 * fc.n_faces * 2
    # non-flat terrain
    assert vrows[:, 2].max() - vrows[:, 2].min() > 0.1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sub=st.sampled_from(sublattices_up_to(4)), data=st.data())
def test_lifting_round_trip_on_cubes_relaxations(sub, data):
    """Every periodic stress of a relaxation of cubes (each basis vector and
    a drawn combination) comes back from its lifting within 1e-9."""
    fw = relax(fixture("cubes"), sub)
    fc = trace_faces(fw)
    basis = np.array([v.values for v in periodic_stress_space(fw)])
    assert len(basis)
    coeffs = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=len(basis),
                                max_size=len(basis)))
    c0 = data.draw(st.floats(-10.0, 10.0))
    for s in [*basis, np.array(coeffs) @ basis]:
        back = stress_from_lifting(fw, fc, lifting_from_stress(fw, fc, s, c0=c0))
        assert np.abs(back - s).max() <= 1e-9
