"""Framework data model, validation and JSON round trip."""

import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perimax import (
    FrameworkError,
    PeriodicFramework,
    canonical_edge,
    export_terrain,
    fixture,
    framework_from_dict,
    framework_to_dict,
    lifting_from_stress,
    parse_framework,
    relax,
    render_svg,
    serialize_framework,
    sublattices_up_to,
    trace_faces,
)
from perimax.core import (EDGE_LENGTH_RTOL, LATTICE_RANK_RTOL, MAX_LATTICE_COLUMN, _tile_range,
                          validate_geometry)
from perimax.fixtures import FIXTURES

from conftest import oracle_edge_orbits, oracle_framework_from_dict

SQUARE_GRID_DOC = """
{
  "dimension": 2,
  "lattice": [["1.0", "0.0"], ["0.0", "1.0"]],
  "vertices": [{"id": 0, "pos": ["0.0", "0.0"]}],
  "edges": [
    {"tail": 0, "head": 0, "shift": [1, 0]},
    {"tail": 0, "head": 0, "shift": [0, 1]}
  ]
}
"""


def test_parse_square_grid():
    fw = parse_framework(SQUARE_GRID_DOC)
    assert fw.n == 1 and fw.m == 2
    assert np.array_equal(fw.lattice, np.eye(2))


def test_parse_singular_lattice():
    doc = json.loads(SQUARE_GRID_DOC)
    doc["lattice"] = [["1", "1"], ["2", "2"]]
    with pytest.raises(FrameworkError, match="singular lattice"):
        parse_framework(json.dumps(doc))


def test_parse_ppt3_counts():
    fw = parse_framework(serialize_framework(fixture("ppt3")))
    assert (fw.n, fw.m) == (3, 6)


def test_parse_schema_errors():
    with pytest.raises(FrameworkError, match="invalid JSON"):
        parse_framework("{")
    with pytest.raises(FrameworkError, match="dimension"):
        parse_framework('{"dimension": 3}')
    doc = json.loads(SQUARE_GRID_DOC)
    doc["vertices"] = [{"id": 1, "pos": ["0", "0"]}]
    with pytest.raises(FrameworkError, match="consecutive"):
        parse_framework(json.dumps(doc))
    doc = json.loads(SQUARE_GRID_DOC)
    doc["edges"][0]["shift"] = [0, 0]
    with pytest.raises(FrameworkError, match="degenerate edge orbit 0"):
        parse_framework(json.dumps(doc))
    doc = json.loads(SQUARE_GRID_DOC)
    doc["edges"].append({"tail": 0, "head": 0, "shift": [-1, 0]})
    with pytest.raises(FrameworkError, match="duplicate edge orbit 2"):
        parse_framework(json.dumps(doc))
    # integers outside int64 (also after the canonical negation), integers
    # too large for a float, and booleans, which Python counts as integers
    for shift in ([2 ** 63, 0], [0, -2 ** 63], [10 ** 400, 0]):
        doc = json.loads(SQUARE_GRID_DOC)
        doc["edges"][0]["shift"] = shift
        with pytest.raises(FrameworkError, match="edge 0: shift must be a pair of 64-bit"):
            parse_framework(json.dumps(doc))
    doc = json.loads(SQUARE_GRID_DOC)
    doc["edges"][0]["shift"] = [True, 0]
    with pytest.raises(FrameworkError, match="edge 0: shift"):
        parse_framework(json.dumps(doc))
    doc = json.loads(SQUARE_GRID_DOC)
    doc["lattice"][0][0] = 10 ** 400
    with pytest.raises(FrameworkError, match="lattice column 0: number out of range"):
        parse_framework(json.dumps(doc))
    doc = json.loads(SQUARE_GRID_DOC)
    doc["lattice"][0][0] = True
    with pytest.raises(FrameworkError, match="lattice column 0: expected a decimal"):
        parse_framework(json.dumps(doc))
    doc = json.loads(SQUARE_GRID_DOC)
    doc["vertices"][0]["pos"][1] = True
    with pytest.raises(FrameworkError, match="vertex 0 pos: expected a decimal"):
        parse_framework(json.dumps(doc))
    doc = json.loads(SQUARE_GRID_DOC)
    doc["vertices"].append({"id": True, "pos": ["0.5", "0.5"]})
    with pytest.raises(FrameworkError, match="consecutive; got True"):
        parse_framework(json.dumps(doc))
    doc = json.loads(SQUARE_GRID_DOC)
    doc["edges"][0]["head"] = False
    with pytest.raises(FrameworkError, match="tail/head must be integers"):
        parse_framework(json.dumps(doc))
    # integer literals beyond the interpreter's digit limit, and nesting
    # beyond its recursion limit, fail inside the JSON decoder
    with pytest.raises(FrameworkError, match="invalid JSON"):
        parse_framework('{"dimension": %s}' % ("1" * 5000))
    with pytest.raises(FrameworkError, match="invalid JSON"):
        parse_framework("[" * 100000)


# edge cases of the JSON number model first, then any JSON value
_JSON_VALUES = st.sampled_from([2 ** 63, -2 ** 63, 10 ** 400, True, "1e400", "nan"])
_JSON_VALUES |= st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(FIXTURES)), data=st.data())
def test_mutated_documents_raise_only_framework_error(name, data):
    """Replacing or deleting any one entry of a fixture document gives a
    framework or FrameworkError, never another exception."""
    doc = framework_to_dict(fixture(name))
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or data.draw(st.booleans()):
            break
        node = child
    if isinstance(node, dict) and data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(_JSON_VALUES)
    try:
        framework_from_dict(doc)
    except FrameworkError:
        pass


def _number_form(draw, x):
    """x as a decimal string, a JSON float or, when integral, a JSON int."""
    forms = ["string", "float"] + ["int"] * (x.is_integer() and abs(x) < 1e300)
    form = draw(st.sampled_from(forms))
    return repr(x) if form == "string" else x if form == "float" else int(x)


# entries one step outside what a record accepts
_NEAR_MISSES = st.sampled_from([-1, 3, 2 ** 63, -2 ** 63, 2 ** 70, 10 ** 400, 0.5, 1.0, True,
                                None, "0", "x", "1e400", [], {}, [0], [0, 0, 0]])


@st.composite
def _record_documents(draw):
    """The JSON document of a fixture or of a framework with extreme
    coordinates and shifts, its numbers as decimal strings, JSON floats or
    JSON ints, its vertex records in any order and up to two of its records
    changed: a key deleted, or an entry, a field or the whole record
    replaced."""
    fw = draw(st.sampled_from(sorted(FIXTURES)).map(fixture) | _any_frameworks())
    doc = framework_to_dict(fw)
    doc["lattice"] = [[_number_form(draw, float(x)) for x in col] for col in doc["lattice"]]
    for rec in doc["vertices"]:
        rec["pos"] = [_number_form(draw, float(x)) for x in rec["pos"]]
    doc["vertices"] = draw(st.permutations(doc["vertices"]))
    doc = json.loads(json.dumps(doc))
    values = _NEAR_MISSES | _JSON_VALUES
    for _ in range(draw(st.integers(0, 2))):
        kinds = ["vertices", "edges"] if doc["edges"] else ["vertices"]
        records = doc[draw(st.sampled_from(kinds))]
        at = draw(st.integers(0, len(records) - 1))
        rec = records[at]
        key = draw(st.sampled_from(sorted(rec))) if isinstance(rec, dict) and rec else None
        action = draw(st.sampled_from(["entry", "entry", "field", "delete", "record"]))
        if action == "record" or key is None:
            records[at] = draw(values)
        elif action == "delete":
            del rec[key]
        elif action == "entry" and isinstance(rec[key], list) and rec[key]:
            rec[key][draw(st.integers(0, len(rec[key]) - 1))] = draw(values)
        else:
            rec[key] = draw(values)
    return doc


def _parsed(parse, doc):
    """The framework's arrays with their dtypes, or the refusal's message."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            fw = parse(doc)
    except FrameworkError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in (fw.lattice, fw.positions, fw.tails, fw.heads, fw.shifts)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_record_documents())
def test_bulk_parse_matches_record_oracle(doc):
    """Checking and converting records in bulk gives bitwise the framework
    of reading them one entry at a time, or the same message."""
    assert _parsed(framework_from_dict, doc) == _parsed(oracle_framework_from_dict, doc)


def test_bulk_parse_reports_first_failing_record():
    """The refusal names the first record that fails any check, whatever
    later records hold."""
    doc = framework_to_dict(fixture("ppt3"))
    doc["vertices"][1]["pos"][0] = "x"
    doc["vertices"][2]["id"] = 0
    doc["edges"][0]["shift"] = [0.5, 0]
    with pytest.raises(FrameworkError, match="^vertex 1 pos: bad decimal string 'x'$"):
        framework_from_dict(doc)
    doc["vertices"][1]["pos"][0] = "0.5"
    with pytest.raises(FrameworkError, match="^vertex ids must be unique and consecutive; got 0$"):
        framework_from_dict(doc)
    doc["vertices"][2]["id"] = 2
    doc["edges"][1] = {"tail": 0}
    with pytest.raises(FrameworkError, match="^edge 0: shift must be a pair of 64-bit"):
        framework_from_dict(doc)
    doc["edges"][0]["shift"] = [0, 0]
    with pytest.raises(FrameworkError, match="^edge 1: missing key 'head'$"):
        framework_from_dict(doc)
    # an end beyond int64 reaches the constructor, which names the given value
    doc["edges"][1] = {"tail": 2 ** 70, "head": 0, "shift": [1, 0]}
    with pytest.raises(FrameworkError, match=re.escape("unknown vertex (0, %d)" % 2 ** 70)):
        framework_from_dict(doc)


@pytest.mark.parametrize("lattice, positions, message", [
    (np.ones((3, 2)), [[0.0, 0.0]], "lattice must be a finite 2x2 matrix"),
    (np.eye(2), [[0.0, 0.0, 0.0], [0.5, 0.5, 0.0]], r"positions must be an \(n, 2\) array"),
], ids=["lattice-3x2", "positions-n-by-3"])
def test_constructor_refuses_misshapen_geometry(lattice, positions, message):
    with pytest.raises(FrameworkError, match=message):
        PeriodicFramework(lattice, positions, [(0, 0, (1, 0)), (0, 0, (0, 1))])


def test_disconnected_quotient_rejected():
    with pytest.raises(FrameworkError, match="disconnected"):
        PeriodicFramework(np.eye(2), [[0, 0], [1, 0]],
                          [(0, 0, (1, 0)), (1, 1, (1, 0))])


def test_zero_length_edge_rejected():
    with pytest.raises(FrameworkError, match="zero-length"):
        PeriodicFramework(np.eye(2), [[0, 0], [0, 0]], [(0, 1, (0, 0))])


def test_huge_lattice_refused_as_out_of_range():
    """A lattice column longer than 2**510 has a square or a determinant
    that can overflow: it is refused as out of range (not as a zero-length
    edge, its overflowed length read as zero), up to the largest floats;
    a column of exactly 2**510 is measured without overflow."""
    grid = [(0, 0, (1, 0)), (0, 0, (0, 1))]
    for entry in (1e200, 1e308, 1.7e308, -1.7976931348623157e308):
        with pytest.raises(FrameworkError, match=re.escape("(largest entry %g)" % abs(entry))):
            PeriodicFramework(entry * np.eye(2), [[0.0, 0.0]], grid)
        with pytest.raises(FrameworkError, match="lattice out of range"):
            validate_geometry(np.array([[1.0, 0.0], [entry, 1.0]]), np.zeros((1, 2)),
                              np.array([0]), np.array([0]), np.array([[1, 0]]))
    fw = PeriodicFramework(MAX_LATTICE_COLUMN * np.eye(2), [[0.0, 0.0]], grid)
    assert fw.geometry_scale == MAX_LATTICE_COLUMN
    assert np.array_equal(fw.edge_vectors(), MAX_LATTICE_COLUMN * np.eye(2))


def test_coincident_orbits_rejected():
    with pytest.raises(FrameworkError, match="coincide"):
        PeriodicFramework(np.eye(2), [[0.5, 0.5], [0.5, 0.5]],
                          [(0, 1, (1, 0)), (0, 1, (0, 1))])


def test_canonical_edge_form():
    assert canonical_edge(3, 1, (2, -1)) == (1, 3, (-2, 1))
    assert canonical_edge(2, 2, (-1, 4)) == (2, 2, (1, -4))
    assert canonical_edge(2, 2, (0, -3)) == (2, 2, (0, 3))
    assert canonical_edge(0, 1, (-1, 0)) == (0, 1, (-1, 0))
    # entries read as the constructor reads them: integral numbers only
    assert canonical_edge(True, 2.0, np.array([1, -1])) == (1, 2, (1, -1))
    for args, what in (((1.5, 0, (0.7, -2.2)), "tail"), (("3", 1, ("1", 0)), "tail"),
                       ((0, 1, (0.7, -2.2)), "shift entry"), ((0, 1, ("1", 0)), "shift entry")):
        with pytest.raises(FrameworkError, match="%s must be an integer" % what):
            canonical_edge(*args)
        with pytest.raises(FrameworkError):
            PeriodicFramework(np.eye(2), [[0.0, 0.0], [0.5, 0.5]], [args])
    for shift in ((1, 2, 3), (1,), 5, None):
        with pytest.raises(FrameworkError, match="shift must be a pair"):
            canonical_edge(0, 1, shift)


def test_edge_vectors_kept_from_construction():
    """``edge_vectors()`` returns the read-only array that the constructor's
    ``validate_geometry`` computed, the same object on every call, bit for
    bit the expression it evaluates, on the fixtures and their relaxations."""
    for name in sorted(FIXTURES):
        base = fixture(name)
        for fw in [base] + [relax(base, sub) for sub in sublattices_up_to(6)]:
            evecs = fw.edge_vectors()
            assert evecs is fw.edge_vectors() and not evecs.flags.writeable
            ref = fw.positions[fw.heads] + fw.shifts @ fw.lattice.T - fw.positions[fw.tails]
            assert evecs.shape == (fw.m, 2) and evecs.tobytes() == ref.tobytes(), (name, fw)
            with pytest.raises(ValueError):
                evecs[0, 0] = 0.0


def test_edge_vector_is_the_stored_row():
    """``fw.edge_vector(k)`` equals ``fw.edge_vectors()[k]`` bit for bit on
    seeded random frameworks with shifts up to +-9 and lattices of any
    scale: one rounding of each edge vector, not a second 2 x 2 product."""
    rng = np.random.default_rng(45)
    built = 0
    for _ in range(3000):
        lattice = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-3, 3)
        shifts = rng.integers(-9, 10, (3, 2)).tolist()
        edges = [(0, 1, shifts[0]), (1, 2, shifts[1]), (0, 2, shifts[2])]
        try:
            fw = PeriodicFramework(lattice, rng.standard_normal((3, 2)), edges)
        except FrameworkError:
            continue
        built += 1
        for k in range(fw.m):
            assert fw.edge_vector(k).tobytes() == fw.edge_vectors()[k].tobytes(), (fw, k)
    assert built > 2900


def test_edge_vectors_square_grid():
    fw = parse_framework(SQUARE_GRID_DOC)
    assert np.allclose(fw.edge_vector(0), [1.0, 0.0])
    assert np.allclose(fw.edge_vector(1), [0.0, 1.0])
    with pytest.raises(FrameworkError):
        fw.edge_vector(2)
    for k in (1.5, "1", None):
        with pytest.raises(FrameworkError, match="edge orbit index must be an integer"):
            fw.edge_vector(k)
    # an integral float or a bool reads as its int, as every API integer does
    for k, as_int in ((True, 1), (1.0, 1), (np.int64(0), 0)):
        assert np.array_equal(fw.edge_vector(k), fw.edge_vector(as_int))


def test_edge_vectors_kagome_unit_lengths():
    fw = fixture("kagome", theta=0.0)
    lengths = np.linalg.norm(fw.edge_vectors(), axis=1)
    assert np.abs(lengths - 1.0).max() < 1e-12
    # recomputed by hand from the constructor coordinates: the shifted
    # copy of vertex 1 sits one generator to the right of the origin
    assert np.abs(fw.edge_vector(3) - np.array([1.0, 0.0])).max() < 1e-12


def test_serialize_round_trip_bit_exact():
    for name in ("square_grid", "kagome", "reentrant", "ppt3", "cubes",
                 "ultrarigid"):
        fw = fixture(name)
        back = parse_framework(serialize_framework(fw))
        assert np.array_equal(back.positions, fw.positions)
        assert np.array_equal(back.lattice, fw.lattice)
        assert [back.edge_key(k) for k in range(back.m)] == \
               [fw.edge_key(k) for k in range(fw.m)]
        assert serialize_framework(back) == serialize_framework(fw)


def test_serialize_uses_decimal_strings():
    doc = framework_to_dict(fixture("kagome"))
    assert all(isinstance(x, str) for col in doc["lattice"] for x in col)
    assert all(isinstance(x, str) for v in doc["vertices"] for x in v["pos"])


def test_realize_patch_empty_range():
    """SVG drawings and terrains read a tile range alike: a pair
    of integral entries, each at least one, spanning at most 2^20 slots
    of max(n, 2m) per tile, refused before anything is allocated."""
    fw = fixture("square_grid")
    fc = trace_faces(fw)
    lift = lifting_from_stress(fw, fc, np.zeros(fw.m))
    for tiles, message in [((0, 3), "empty tile range"), ((2, -1), "empty tile range"),
                           (("a", 1), "pair of integers"), ((2.5, 1), "pair of integers"),
                           (("2", 1), "pair of integers"), ((2, 1, 1), "pair of integers"),
                           ((math.nan, 1), "pair of integers"), (3, "pair of integers"),
                           ((100000, 100000), "too large"), ((2 ** 18 + 1, 1), "too large")]:
        for make in (lambda: render_svg(fw, fc, tiles),
                     lambda: export_terrain(fw, fc, lift, tiles)):
            with pytest.raises(FrameworkError, match=message):
                make()
    assert _tile_range(fw, (2 ** 18, 1)) == (2 ** 18, 1)    # 2m = 4 slots a tile


def test_constructor_refuses_bad_integers():
    eye, pos = np.eye(2), [[0.0, 0.0], [0.3, 0.1]]
    for edges, message in [
            ([(0, 1, (0.7, 0))], "edge orbit 0: 0.7 is not an integer"),
            ([(1, 0, (-2 ** 63, 0))], "edge orbit 0: -9223372036854775808 is not"),
            ([(0, 1, (0, 0)), (0, 1, (2 ** 63, 0))], "edge orbit 1: 9223372036854775808"),
            ([(0, 1, (0, 0)), ("1", 0, (1, 0))], "edge orbit 1: '1' is not an integer"),
            ([(0, 1, (float("nan"), 0))], "edge orbit 0: nan is not an integer"),
            (np.array([[0, 1, 0, -2 ** 63]]), "edge orbit 0: -9223372036854775808"),
            ([(2 ** 70, 0, (1, 0))], "edge orbit 0 refers to an unknown vertex (0, %d)"
             % 2 ** 70),
            ([(0, 1)], "edges must be (tail, head, (c1, c2)) triples"),
            ([(0, 1, (0, 0)), (0, 1, (1, 0), 7)], "edges must be"),
            ([(0, 1, (0, 0, 1))], "edges must be")]:
        with pytest.raises(FrameworkError, match=re.escape(message)):
            PeriodicFramework(eye, pos, edges)
    # integral floats and numpy integers are integers; rows may come as an array
    fw = PeriodicFramework(eye, pos, [(1.0, np.int32(0), (np.int64(-1), 2.0))])
    assert fw.edge_key(0) == (0, 1, (1, -2)) and fw.tails.dtype == np.int64
    rows = np.array([[1, 0, -1, 2]])
    assert PeriodicFramework(eye, pos, rows).edge_key(0) == (0, 1, (1, -2))
    assert rows.tolist() == [[1, 0, -1, 2]]


_LATTICE = [[1.0, 0.31], [0.17, 1.13]]
_POSITIONS = [[0.0, 0.0], [0.413, 0.127], [0.271, 0.689], [0.853, 0.452]]
_WIDE = (2 ** 63 - 1, -(2 ** 63 - 1), 2 ** 63, -2 ** 63, 2 ** 70, -2 ** 70)


@st.composite
def _edge_lists(draw, n):
    """(tail, head, (c1, c2)) triples on n vertex orbits: reversed ends,
    loops, duplicates in both orientations, disconnected graphs and, in
    half of the lists, unknown vertices, entries at and beyond the int64
    range and non-integral floats.  Integral floats and numpy integers
    appear throughout."""
    dirty = draw(st.booleans())

    def entry(lo, hi):
        wide = dirty and draw(st.integers(0, 15)) == 0
        value = draw(st.sampled_from(_WIDE) if wide else st.integers(lo, hi))
        form = draw(st.sampled_from(["int"] * 6 + ["float", "numpy"] + ["half"] * dirty))
        if form == "float":
            return float(value)
        if form == "numpy" and abs(value) <= 2 ** 63 - 1:
            return np.int64(value)
        return value + 0.5 if form == "half" else value

    edges = []
    for _ in range(draw(st.integers(0, 8))):
        if edges and draw(st.integers(0, 3)) == 0:
            t, h, (c1, c2) = edges[draw(st.integers(0, len(edges) - 1))]
            edges.append((h, t, (-c1, -c2)) if draw(st.booleans()) else (t, h, (c1, c2)))
        else:
            edges.append((entry(-dirty, n - 1 + dirty), entry(-dirty, n - 1 + dirty),
                          (entry(-1, 1), entry(-1, 1))))
    return edges


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_constructor_matches_scalar_edge_oracle(data):
    """The array validation gives the scalar oracle's canonical arrays or its
    exact message, for triples and, where every entry is an int64, for the
    same rows as an (m, 4) array."""
    n = data.draw(st.integers(1, 4))
    edges = data.draw(_edge_lists(n))
    try:
        expected = oracle_edge_orbits(n, edges)
    except FrameworkError as exc:
        expected = str(exc)
    inputs = [edges]
    flat = [x for t, h, c in edges for x in (t, h, *c)]
    if all(isinstance(x, (int, np.integer)) and abs(x) < 2 ** 63 for x in flat):
        inputs.append(np.array(flat, dtype=np.int64).reshape(len(edges), 4))
    for given_edges in inputs:
        try:
            fw = PeriodicFramework(_LATTICE, _POSITIONS[:n], given_edges)
        except FrameworkError as exc:
            assert str(exc) == expected
        else:
            assert not isinstance(expected, str), expected
            for got, want in zip((fw.tails, fw.heads, fw.shifts), expected):
                assert got.dtype == want.dtype and np.array_equal(got, want)


_MAX_SHIFT = 2 ** 63 - 1
# -0.0, subnormals and the largest magnitudes first, then any finite float
_EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                                -1e308, 0.1, -1.0 / 3.0])
_COORDS = _EDGE_FLOATS | st.floats(-1e3, 1e3) | st.floats(allow_nan=False, allow_infinity=False)
_SHIFT_ENTRIES = st.sampled_from([_MAX_SHIFT, -_MAX_SHIFT, 0, 1, -1]) \
    | st.integers(-_MAX_SHIFT, _MAX_SHIFT)


@st.composite
def _any_frameworks(draw):
    """Valid frameworks with extreme coordinates and shifts."""
    n = draw(st.integers(1, 4))
    diagonal = st.sampled_from([1.0, -2.5, 1e-150, 1e150]) | st.floats(1e-3, 1e3)
    off_diagonal = st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1])
    lattice = [[draw(diagonal), draw(off_diagonal)], [draw(off_diagonal), draw(diagonal)]]
    positions = draw(st.lists(st.tuples(_COORDS, _COORDS), min_size=n, max_size=n))
    shifts = st.tuples(_SHIFT_ENTRIES, _SHIFT_ENTRIES)
    edges = [(v - 1, v, draw(shifts)) for v in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), shifts),
                           max_size=3))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return PeriodicFramework(lattice, positions, edges)
    except FrameworkError:
        assume(False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fw=_any_frameworks())
def test_serialize_matches_indented_json_oracle(fw):
    """The direct writer gives the text of the indented JSON encoder, and
    that text reads back bit-exactly."""
    text = serialize_framework(fw)
    assert text == json.dumps(framework_to_dict(fw), indent=2)
    with np.errstate(over="ignore", invalid="ignore"):
        back = parse_framework(text)
    assert back.lattice.tobytes() == fw.lattice.tobytes()
    assert back.positions.tobytes() == fw.positions.tobytes()
    assert np.array_equal(back.shifts, fw.shifts)


def test_serialize_extreme_values_and_empty_edges():
    with np.errstate(over="ignore"):    # both edge vectors overflow to -inf
        fw = PeriodicFramework([[1e150, -0.0], [5e-324, -2.5e145]],
                               [[1e308, -0.0], [-1e308, 5e-324]],
                               [(0, 1, (_MAX_SHIFT, -_MAX_SHIFT)), (0, 1, (0, 0))])
    text = serialize_framework(fw)
    assert text == json.dumps(framework_to_dict(fw), indent=2)
    assert '"-0.0"' in text and '"5e-324"' in text and '"1e+308"' in text
    assert str(-_MAX_SHIFT) in text
    edgeless = PeriodicFramework(np.eye(2), [[0.0, 0.0]], [])
    assert serialize_framework(edgeless) == json.dumps(framework_to_dict(edgeless), indent=2)
    assert serialize_framework(edgeless).endswith('"edges": []\n}')


def _numpy_validate_geometry(lattice, positions, tails, heads, shifts):
    """``validate_geometry`` in its numpy formulation (determinant by LU,
    ``np.linalg.norm`` columns): the oracle of the scalar one."""
    if not np.all(np.isfinite(lattice)):
        raise FrameworkError("lattice must be a finite 2x2 matrix")
    if not np.all(np.isfinite(positions)):
        raise FrameworkError("positions must be finite")
    col_norms = np.linalg.norm(lattice, axis=0)
    if not col_norms.max() <= MAX_LATTICE_COLUMN:
        raise FrameworkError("lattice out of range: a column is longer than 2**510 "
                             "(largest entry %g)" % np.abs(lattice).max())
    scale = max(float(col_norms.max()), float(np.abs(positions).max())) or 1.0
    det = float(np.linalg.det(lattice))
    if abs(det) < LATTICE_RANK_RTOL * float(col_norms.max()) ** 2 or det == 0.0:
        raise FrameworkError("singular lattice: |det| = %g" % abs(det))
    evecs = positions[heads] + shifts @ lattice.T - positions[tails]
    bad = np.nonzero(np.linalg.norm(evecs, axis=1) <= EDGE_LENGTH_RTOL * scale)[0]
    if bad.size:
        raise FrameworkError("zero-length edge orbit %d" % int(bad[0]))
    if len(positions) >= 2 and np.abs(positions - positions[0]).max() <= EDGE_LENGTH_RTOL * scale:
        raise FrameworkError("degenerate placement: all vertex orbits coincide")
    return scale, evecs


def _same_geometry_verdict(lattice, positions, edges):
    """Scalar and numpy validation agree: the same message (the singular
    lattice up to its printed determinant), else bitwise equal scale and
    edge vectors.  Returns the verdict."""
    lattice, positions = np.array(lattice, dtype=float), np.array(positions, dtype=float)
    tails, heads, shifts = edges[:, 0], edges[:, 1], edges[:, 2:]
    results = []
    for check in (validate_geometry, _numpy_validate_geometry):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                results.append(check(lattice, positions, tails, heads, shifts))
        except FrameworkError as exc:
            results.append(str(exc).split(": |det|")[0])
    got, want = results
    if isinstance(want, str):
        assert got == want
        return want
    assert not isinstance(got, str), got
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
    return "ok"


_PPT3_ROWS = np.array([(t, h, *c) for t, h, c in
                       (fixture("ppt3").edge_key(k) for k in range(6))])


def test_validate_geometry_matches_numpy_near_singular():
    """Lattices whose |det| / (largest column)**2 lies a factor 4 or more
    below, or 10 or more above, the threshold LATTICE_RANK_RTOL get the
    verdict of the numpy formulation, at every rotation and scale tried."""
    positions = fixture("ppt3").positions
    verdicts = Counter()
    for sin_delta in (0.0, 1e-17, 1e-15, 1e-14, 2.5e-13, 4e-11, 1e-9, 1e-6, 0.3, 1.0):
        for turn in np.linspace(-math.pi, math.pi, 7):
            for r1, r2, scale in ((1.0, 1.0, 1.0), (0.5, 2.0, 1e-3), (2.0, 0.5, 1e3),
                                  (1.3, 0.7, 1e120)):
                delta = math.asin(sin_delta)
                lattice = scale * np.array(
                    [[r1 * math.cos(turn), r2 * math.cos(turn + delta)],
                     [r1 * math.sin(turn), r2 * math.sin(turn + delta)]])
                verdict = _same_geometry_verdict(lattice, scale * positions, _PPT3_ROWS)
                verdicts[verdict] += 1
                assert (verdict == "ok") == (sin_delta >= 4e-11), (sin_delta, turn, scale)
    assert verdicts["ok"] and verdicts["singular lattice"]


_GEOMETRY_ENTRIES = st.sampled_from([0.0, -0.0, 1e-300, 1e200, math.nan, math.inf, -math.inf]) \
    | st.floats(-5.0, 5.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lattice=st.lists(_GEOMETRY_ENTRIES, min_size=4, max_size=4),
       positions=st.lists(_GEOMETRY_ENTRIES, min_size=6, max_size=6),
       coincide=st.booleans())
def test_validate_geometry_matches_numpy_oracle(lattice, positions, coincide):
    """Any lattice and placement, non-finite entries included, gets the
    numpy formulation's message or its bitwise scale and edge vectors."""
    positions = np.reshape(positions, (3, 2))
    if coincide:
        positions = np.repeat(positions[:1], 3, axis=0)
    _same_geometry_verdict(np.reshape(lattice, (2, 2)), positions, _PPT3_ROWS)
