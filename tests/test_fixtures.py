"""Fixture constructors: validity, analytics and frozen properties."""

import math

import numpy as np
import pytest

from perimax import (
    FrameworkError,
    certify_ppt,
    check_noncrossing,
    fixture,
    flex_space,
    periodic_stress_space,
    ultrarigidity_probe,
)
from perimax.fixtures import FIXTURES

GRAM_SHAPE = np.array([[2.0, 1.0], [1.0, 2.0]])


def test_all_fixtures_validate_and_are_noncrossing():
    for name in FIXTURES:
        fw = fixture(name)
        assert check_noncrossing(fw).ok, name


def test_fixture_dispatch():
    fw = fixture("kagome", theta=0.3)
    assert fw.n == 3
    with pytest.raises(FrameworkError, match="unknown fixture"):
        fixture("nope")
    with pytest.raises(FrameworkError, match="does not accept"):
        fixture("square_grid", theta=1.0)


def test_square_grid_counts():
    fw = fixture("square_grid")
    assert (fw.n, fw.m) == (1, 2)
    assert np.array_equal(fw.lattice, np.eye(2))


def test_kagome_gram_formula():
    for theta in np.linspace(-3.0, 3.0, 25):
        fw = fixture("kagome", theta=theta)
        w = fw.lattice.T @ fw.lattice
        assert np.abs(w - (1 + math.cos(theta)) * GRAM_SHAPE).max() < 1e-12
    w0 = fixture("kagome", theta=0.0).lattice
    assert np.abs(w0.T @ w0 - np.array([[4.0, 2.0], [2.0, 4.0]])).max() < 1e-12


def test_kagome_unit_edges_and_counts():
    fw = fixture("kagome", theta=1.234)
    assert (fw.n, fw.m) == (3, 6)
    assert np.abs(np.linalg.norm(fw.edge_vectors(), axis=1) - 1.0).max() < 1e-12


def test_kagome_parameter_range():
    with pytest.raises(FrameworkError):
        fixture("kagome", theta=math.pi)


def kagome_certifies(theta):
    """Non-crossing plus a valid certificate (crossing placements cannot
    even be traced)."""
    fw = fixture("kagome", theta=theta)
    if not check_noncrossing(fw).ok:
        return False
    try:
        return certify_ppt(fw).valid
    except FrameworkError:
        return False


def test_kagome_ppt_window():
    """Certification holds exactly on (pi/3, 2pi/3) and its mirror image,
    sampled at 0.01 resolution."""
    for theta in np.arange(0.05, math.pi - 0.05, 0.01):
        expected = math.pi / 3 + 1e-9 < theta < 2 * math.pi / 3 - 1e-9
        assert kagome_certifies(theta) == expected, theta
        assert kagome_certifies(-theta) == expected, -theta


def test_kagome_window_endpoints_by_bisection():
    for lo, hi, target in ((1.0, 1.1, math.pi / 3),
                           (2.0, 2.2, 2 * math.pi / 3)):
        a, b = lo, hi
        inside_low = kagome_certifies(a)
        while b - a > 1e-8:
            mid = 0.5 * (a + b)
            if kagome_certifies(mid) == inside_low:
                a = mid
            else:
                b = mid
        assert abs(0.5 * (a + b) - target) < 1e-6, target


def test_reentrant_counts_and_freedom():
    fw = fixture("reentrant")
    assert (fw.n, fw.m) == (2, 3)
    _, rep = flex_space(fw)
    assert rep.phi == 2
    from perimax.pseudotri import POINTED_TOL, pointedness_margin
    assert all(pointedness_margin(fw, v) > POINTED_TOL for v in range(fw.n))
    with pytest.raises(FrameworkError):
        fixture("reentrant", alpha=1.0, beta=0.5)


def test_reentrant_face_is_centrally_symmetric_hexagon():
    from perimax import trace_faces
    fw = fixture("reentrant")
    fc = trace_faces(fw)
    assert fc.n_faces == 1
    assert fc.start.tolist() == [0, 6]
    vertex = np.concatenate([fw.tails, fw.heads])[fc.order]
    pts = np.array([fw.positions[v] + fw.lattice @ np.array(s, float)
                    for v, s in zip(vertex, fc.copy[fc.order])])
    center = pts.mean(axis=0)
    mirrored = 2 * center - pts
    for p in mirrored:
        assert np.abs(pts - p).max(axis=1).min() < 1e-9


def test_ppt3_certificate():
    cert = certify_ppt(fixture("ppt3"))
    assert cert.valid
    assert cert.counts == (3, 6, 3)


def test_cubes_stress():
    fw = fixture("cubes")
    assert (fw.n, fw.m) == (3, 6)
    basis = periodic_stress_space(fw)
    assert len(basis) == 1
    assert basis[0].values.min() < 0 < basis[0].values.max()
    assert np.abs(np.linalg.norm(fw.edge_vectors(), axis=1) - 1.0).max() < 1e-12


def test_ultrarigid_fixture():
    fw = fixture("ultrarigid")
    assert fw.m == 2 * fw.n + 1
    _, rep = flex_space(fw)
    assert (rep.sigma, rep.phi) == (0, 0)
    assert ultrarigidity_probe(fw, 4).ultrarigid


def test_ultrarigid_fixture_is_the_certified_insertion():
    # the fixture is built from ppt3's data directly; inserting the frozen
    # edge through insert_edge_orbit (which checks crossings) must give the
    # same document byte for byte
    from perimax import insert_edge_orbit, serialize_framework
    from perimax.fixtures import _ULTRARIGID_EDGE

    inserted = insert_edge_orbit(fixture("ppt3"), _ULTRARIGID_EDGE)
    assert serialize_framework(fixture("ultrarigid")) == serialize_framework(inserted)
