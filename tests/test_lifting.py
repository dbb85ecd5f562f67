"""Stress <-> lifting correspondence, folds, heights and terrain export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimax import (
    FIXTURES,
    FrameworkError,
    NumericalError,
    PeriodicFramework,
    PeriodicLifting,
    check_periodic_stress,
    classify_folds,
    export_terrain,
    fixture,
    insert_edge_orbit,
    lifting_from_stress,
    periodic_stress_space,
    relax,
    stress_from_lifting,
    sublattices_up_to,
    trace_faces,
    vertex_heights,
)
from perimax.lifting import _edge_copy_endpoints, compatibility_residual
from perimax.pseudotri import find_rigidifying_edges, pointedness_margin
from perimax.topology import CORNER_ANGLE_TOL

from conftest import (oracle_compatibility_residual, oracle_export_terrain, oracle_face_objects,
                      oracle_lifting_from_stress, oracle_stress_from_lifting,
                      oracle_vertex_heights, subdivided_grid)


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
        if not pointedness_margin(fw2, v) > CORNER_ANGLE_TOL:
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
    for k in range(fw.m):
        e = fw.edge_vector(k)
        p = fw.positions[fw.tails[k]]
        mid = p + 0.5 * e
        left_dir = np.array([-e[1], e[0]]) / np.linalg.norm(e)
        h = 1e-3
        left, right = fc.left_face[k], fc.right_face[k]
        lshift, rshift = -fc.left_copy[k], -fc.right_copy[k]
        on_edge = lift.height(lat, left, lshift, mid)
        assert abs(on_edge - lift.height(lat, right, rshift, mid)) < 1e-12
        probe = (lift.height(lat, left, lshift, mid + h * left_dir)
                 + lift.height(lat, right, rshift, mid - h * left_dir)
                 - 2 * on_edge)
        if folds[k] == "mountain":
            assert probe < -1e-9
        elif folds[k] == "valley":
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


def sheared_cubes(k):
    """``cubes`` in the lattice basis Lambda U, U = [[1, k], [0, 1]]: the
    same infinite framework, with shifts U^-1 c of entries up to k + 1."""
    fw = fixture("cubes")
    unshear = np.array([[1, -k], [0, 1]])
    return PeriodicFramework(fw.lattice @ np.array([[1.0, k], [0.0, 1.0]]), fw.positions,
                             np.column_stack([fw.tails, fw.heads, fw.shifts @ unshear.T]))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7])
def test_edge_copy_heads_use_stored_edge_vectors(k):
    """The edge-copy heads the lifting reads are each tail plus the
    framework's stored edge vector, bit for bit, so normal jumps and copy
    endpoints use one rounding of each edge; sheared bases give shifts
    whose two roundings of p_head + Lambda c - p_tail differ."""
    fw = sheared_cubes(k)
    fc = trace_faces(fw)
    orbits = np.arange(fw.m)
    for copies in (fc.left_copy, fc.right_copy):
        p, q = _edge_copy_endpoints(fw, orbits, copies)
        assert q.tobytes() == (p + fw.edge_vectors()[orbits]).tobytes()


def _result_or_refusal(func, *args):
    """The result of func(*args), or its NumericalError's text and residuals."""
    try:
        return func(*args)
    except NumericalError as exc:
        return (str(exc), getattr(exc, "face_cycle_residual", None),
                getattr(exc, "period_residual", None))


def test_array_lifting_matches_slot_oracles():
    """Every fixture relaxed to every sublattice of index <= 4, under a
    seeded rigid motion: the lifting of each of up to two basis stresses,
    and the refusal of a random stress, equal those of the per-slot
    oracle bit for bit; so do the compatibility residual, the induced
    stress (or its refusal), the vertex heights and the OBJ terrain of the
    lifting and of a random one."""
    rng = np.random.default_rng(18)
    lifted = refused = 0
    for name in sorted(FIXTURES):
        for sub in sublattices_up_to(4):
            fw = relax(fixture(name), sub)
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            fw = fw.with_geometry(fw.positions @ rot.T + rng.uniform(-1, 1, 2), rot @ fw.lattice)
            fc, oc = trace_faces(fw), oracle_face_objects(fw)
            c0 = float(rng.uniform(-2, 2))
            stresses = [v.values for v in periodic_stress_space(fw)[:2]]
            for s in stresses + [rng.standard_normal(fw.m)]:
                got = _result_or_refusal(lifting_from_stress, fw, fc, s, c0)
                ref = _result_or_refusal(oracle_lifting_from_stress, fw, oc, s, c0)
                if isinstance(ref, tuple):
                    assert got == ref
                    refused += 1
                    continue
                assert np.array_equal(got.normals, ref.normals)
                assert np.array_equal(got.offsets, ref.offsets)
                lifted += 1
                rough = PeriodicLifting(rng.standard_normal(got.normals.shape),
                                        rng.standard_normal(got.offsets.shape))
                for lift in (got, rough):
                    assert (compatibility_residual(fw, fc, lift)
                            == oracle_compatibility_residual(fw, oc, lift))
                    back = _result_or_refusal(stress_from_lifting, fw, fc, lift)
                    ref_back = _result_or_refusal(oracle_stress_from_lifting, fw, oc, lift)
                    assert (back == ref_back if isinstance(ref_back, tuple)
                            else np.array_equal(back, ref_back))
                    assert np.array_equal(vertex_heights(fw, fc, lift),
                                          oracle_vertex_heights(fw, oc, lift))
                    for tiles in ((1, 1), (2, 3)):
                        assert (export_terrain(fw, fc, lift, tiles)
                                == oracle_export_terrain(fw, oc, lift, tiles))
    assert lifted > 60 and refused > 80
