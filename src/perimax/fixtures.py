"""Parametric example frameworks.

All constructors return validated frameworks; the non-parametric ones use
coordinates frozen once and certified by the toolkit's own checks rather
than by visual inspection.
"""

from __future__ import annotations

import math

import numpy as np

from .core import FrameworkError, PeriodicFramework

__all__ = [
    "square_grid",
    "kagome",
    "reentrant",
    "ppt3",
    "cubes",
    "ultrarigid",
    "fixture",
    "FIXTURES",
]


def square_grid():
    """One vertex orbit, two axis loop orbits, identity lattice."""
    return PeriodicFramework(
        np.eye(2), [[0.0, 0.0]], [(0, 0, (1, 0)), (0, 0, (0, 1))])


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def kagome(theta=math.pi / 2):
    """Corner-sharing triangle framework with one rotation parameter.

    One triangle of unit edges stays fixed while the triangle sharing its
    origin vertex is rotated by theta; the lattice follows so all six edge
    orbits keep unit length.  The Gram matrix of the generators is
    (1 + cos theta) * [[2, 1], [1, 2]].
    """
    if not -math.pi < theta < math.pi:
        raise FrameworkError("kagome angle must lie in (-pi, pi), got %r" % theta)
    positions = np.array([
        [0.0, 0.0],
        [-1.0, 0.0],
        [-0.5, -0.5 * math.sqrt(3.0)],
    ])
    rot = _rotation(theta)
    u = np.array([1.0, 0.0])
    v = np.array([0.5, 0.5 * math.sqrt(3.0)])
    lattice = np.column_stack([u + rot @ u, v + rot @ v])
    return PeriodicFramework(lattice, positions, _PPT3_EDGES)


def reentrant(alpha=math.pi / 8, beta=7 * math.pi / 8):
    """Reentrant honeycomb: two vertex orbits, three unit edge orbits.

    A vertical edge joins the orbits; the two oblique orbits leave the
    lower vertex at angles alpha and beta above the horizontal, so all
    three directions at each vertex fit in a half-plane.  The two angles
    are the parameters of its two-degree-of-freedom mechanism; alpha + beta
    = pi keeps the hexagonal face centrally symmetric.
    """
    if not (0.0 < alpha < beta < math.pi):
        raise FrameworkError(
            "reentrant angles must satisfy 0 < alpha < beta < pi")
    e1 = np.array([0.0, 1.0])
    e2 = np.array([math.cos(alpha), math.sin(alpha)])
    e3 = np.array([math.cos(beta), math.sin(beta)])
    lattice = np.column_stack([e2 - e3, e2 - e1])
    positions = np.array([[0.0, 0.0], [0.0, 1.0]])
    edges = [
        (0, 1, (0, 0)),
        (0, 1, (0, 1)),
        (0, 1, (-1, 1)),
    ]
    return PeriodicFramework(lattice, positions, edges)


# ppt3's frozen quotient data, shared with ultrarigid; kagome has the same
# edge orbits.
_PPT3_LATTICE = [
    [0.81155551, -0.45602917],
    [0.97736481, 1.3921752],
]
_PPT3_POSITIONS = [
    [0.0, 0.0],
    [-1.0088, -0.0659],
    [-0.5259, -0.8912254],
]
_PPT3_EDGES = [
    (0, 1, (0, 0)),
    (0, 2, (0, 0)),
    (1, 2, (0, 0)),
    (0, 1, (1, 0)),
    (0, 2, (0, 1)),
    (1, 2, (-1, 1)),
]


def ppt3():
    """A pseudo-triangulation with three vertex orbits and six edge orbits.

    Coordinates were frozen after perturbing a triangle mechanism away from
    all its symmetries and certifying the result (pointed, two triangles
    plus one pseudo-triangular hexagon, stress-free, one-dimensional flex).
    """
    return PeriodicFramework(_PPT3_LATTICE, _PPT3_POSITIONS, _PPT3_EDGES)


def cubes():
    """Rhombus tiling whose lifted terrain is an arrangement of cube
    corners; carries a one-dimensional periodic stress with mixed signs.

    Three vertex orbits: a six-valent rhombus corner, a three-valent one,
    and the cell center joined to alternating corners by unit spokes.
    """
    s3 = math.sqrt(3.0)
    positions = np.array([
        [0.0, 0.0],
        [1.0, 0.0],
        [0.5, 0.5 * s3],
    ])
    lattice = np.array([
        [1.5, 1.5],
        [0.5 * s3, -0.5 * s3],
    ])
    edges = [
        (0, 1, (0, 0)),
        (0, 1, (-1, 0)),
        (0, 1, (0, -1)),
        (0, 2, (0, 0)),
        (0, 2, (-1, 0)),
        (0, 2, (-1, 1)),
    ]
    return PeriodicFramework(lattice, positions, edges)


# Frozen from find_rigidifying_edges(ppt3()): the top-ranked insertable
# candidate of the one-degree-of-freedom flex.
_ULTRARIGID_EDGE = (1, 2, (0, 1))


def ultrarigid():
    """ppt3 plus its top rigidifying edge orbit; rigid under every
    relaxation probed up to index four.

    Built straight from ppt3's data; the tests check once that it equals
    insert_edge_orbit(ppt3(), _ULTRARIGID_EDGE), which certifies that the
    new orbit crosses nothing.
    """
    return PeriodicFramework(_PPT3_LATTICE, _PPT3_POSITIONS,
                             _PPT3_EDGES + [_ULTRARIGID_EDGE])


FIXTURES = {
    "square_grid": (square_grid, ()),
    "kagome": (kagome, ("theta",)),
    "reentrant": (reentrant, ("alpha", "beta")),
    "ppt3": (ppt3, ()),
    "cubes": (cubes, ()),
    "ultrarigid": (ultrarigid, ()),
}


def fixture(name, **params):
    """Build a fixture by name."""
    try:
        builder, accepted = FIXTURES[name]
    except KeyError:
        raise FrameworkError(
            "unknown fixture %r (choose from %s)"
            % (name, ", ".join(sorted(FIXTURES)))) from None
    unknown = set(params) - set(accepted)
    if unknown:
        raise FrameworkError(
            "fixture %s does not accept parameters %s"
            % (name, ", ".join(sorted(unknown))))
    return builder(**params)
