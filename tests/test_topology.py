"""Non-crossing detection, face tracing, corner counts, SVG export."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from perimax import (
    FIXTURES,
    FrameworkError,
    PeriodicFramework,
    check_noncrossing,
    corner_count,
    fixture,
    render_svg,
    trace_faces,
)

from perimax.pseudotri import _candidate_table, pointedness_margin
from perimax.relax import Sublattice, relax, sublattices_up_to

from conftest import (crossed_grid, oracle_corner_count, oracle_face_objects, oracle_noncrossing,
                      oracle_render_svg, oracle_segments_cross, oracle_trace_faces,
                      oracle_window_crossings, subdivided_grid)


def test_square_grid_noncrossing():
    assert check_noncrossing(fixture("square_grid")).ok


def test_crossed_diagonals_detected():
    fw = crossed_grid()
    report = check_noncrossing(fw)
    assert not report.ok
    # the two diagonal orbits (ids 2 and 3) must appear in some crossing
    flat = {(a[0], b[0]) for a, b in report.crossings}
    assert any(2 in pair and 3 in pair for pair in flat)
    assert report.crossings == [((2, (0, 0)), (3, (0, 1)))]


def test_kagome_noncrossing_matches_oracle():
    fw = fixture("kagome", theta=math.pi / 2)
    assert oracle_noncrossing(fw)
    assert check_noncrossing(fw).ok


def test_noncrossing_agrees_with_oracle_across_angles():
    for theta in (-2.0, -0.7, 0.0, 0.9, 1.3, 2.4):
        fw = fixture("kagome", theta=theta)
        assert check_noncrossing(fw).ok == oracle_noncrossing(fw), theta


def test_square_grid_single_face():
    fw = fixture("square_grid")
    fc = trace_faces(fw)
    assert fc.n_faces == 1
    assert fc.start.tolist() == [0, 4]
    assert np.allclose(fc.corners, math.pi / 2)
    assert fw.n - fw.m + fc.n_faces == 0


def test_ppt3_face_count():
    fc = trace_faces(fixture("ppt3"))
    assert fc.n_faces == 3


def test_kagome_faces_hand_enumeration():
    # at theta=0: two unit triangles plus one regular hexagon
    fw = fixture("kagome", theta=0.0)
    fc = trace_faces(fw)
    sizes = np.diff(fc.start)
    assert sorted(sizes) == [3, 3, 6]
    hexagon = int(np.flatnonzero(sizes == 6)[0])
    assert np.allclose(fc.corners[fc.start[hexagon]:fc.start[hexagon + 1]], 2 * math.pi / 3,
                       atol=1e-12)


def test_corner_counts():
    sq = fixture("square_grid")
    rep = corner_count(sq, trace_faces(sq))
    assert rep.counts == [4]

    p3 = fixture("ppt3")
    rep = corner_count(p3, trace_faces(p3))
    assert sorted(rep.counts) == [3, 3, 3]
    assert rep.corner_identity_ok

    k0 = fixture("kagome", theta=0.0)
    fc = trace_faces(k0)
    rep = corner_count(k0, fc)
    hex_id = int(np.flatnonzero(np.diff(fc.start) == 6)[0])
    assert rep.counts[hex_id] == 6


def test_euler_and_slot_invariants():
    for name in ("square_grid", "kagome", "reentrant", "ppt3", "cubes",
                 "ultrarigid"):
        fw = fixture(name)
        fc = trace_faces(fw)
        assert fw.n - fw.m + fc.n_faces == 0, name
        # every edge orbit occupies exactly two boundary slots
        assert (np.bincount(fc.order % fw.m, minlength=fw.m) == 2).all(), name
        assert int(fw.degrees().sum()) == 2 * fw.m, name
        # boundary shifts cancel around every face: each slot's head is
        # its successor's tail, and the shifts along a face sum to zero
        deltas = np.concatenate([fw.shifts, -fw.shifts])
        assert (fc.copy[fc.succ] == fc.copy + deltas).all(), name
        for f in range(fc.n_faces):
            assert not deltas[fc.order[fc.start[f]:fc.start[f + 1]]].sum(axis=0).any()


def test_face_angle_sums():
    for name in ("kagome", "ppt3", "cubes", "reentrant"):
        fc = trace_faces(fixture(name))
        for f in range(fc.n_faces):
            angles = fc.corners[fc.start[f]:fc.start[f + 1]]
            assert abs(sum(angles) - (len(angles) - 2) * math.pi) < 1e-8


def test_tetrads_left_right_orientation():
    # square grid: the face lies above the horizontal loop (left of +x) and
    # right of the vertical loop seen from its own copy offsets
    fw = fixture("square_grid")
    fc = trace_faces(fw)
    assert fc.left_face[0] == fc.right_face[0] == 0
    dual_offset = tuple(fc.right_copy[0] - fc.left_copy[0])
    assert dual_offset == (0, 1) or dual_offset == (0, -1)


def test_degenerate_direction_rejected():
    from perimax import PeriodicFramework
    fw = PeriodicFramework(np.eye(2), [[0.0, 0.0], [0.25, 0.0]],
                           [(0, 1, (0, 0)), (0, 0, (1, 0))])
    with pytest.raises(FrameworkError, match="share a direction"):
        trace_faces(fw)


def _traced_or_refused(trace, fw):
    try:
        return trace(fw)
    except FrameworkError as exc:
        return str(exc)


def test_star_table_trace_matches_dict_oracle():
    """Fixtures (kagome at four angles) relaxed to every sublattice of
    index <= 4, each as given, under a seeded rigid motion and perturbed:
    faces, tetrads and vertex slots equal the dict tracer's, refusals carry
    its message, corner angles stay within 4 ulp of 2 pi, and every reflex
    corner minus pi is its vertex's pointedness margin bit for bit.  Corner
    counts and the SVG patch equal those of the per-slot oracles walking
    the dict tracer's faces."""
    rng = np.random.default_rng(9)
    bases = [fixture(name) for name in sorted(FIXTURES) if name != "kagome"]
    bases += [fixture("kagome", theta=theta) for theta in (0.0, 0.9, math.pi / 2, 2.4)]
    traced = refused = 0
    for base in bases:
        for sub in sublattices_up_to(4):
            fw = relax(base, sub)
            theta = rng.uniform(0, 2 * math.pi)
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            moved = fw.with_geometry(fw.positions @ rot.T + rng.uniform(-1, 1, 2),
                                     rot @ fw.lattice)
            scale = 0.1 * fw.geometry_scale / math.sqrt(fw.n)
            perturbed = fw.with_geometry(
                fw.positions + scale * rng.uniform(-1, 1, fw.positions.shape))
            for variant in (fw, moved, perturbed):
                got = _traced_or_refused(trace_faces, variant)
                ref = _traced_or_refused(oracle_trace_faces, variant)
                if isinstance(ref, str):
                    assert got == ref
                    refused += 1
                    continue
                traced += 1
                for name in ("face", "copy", "succ", "order", "start", "left_face",
                             "right_face", "left_copy", "right_copy", "vertex_slot"):
                    assert np.array_equal(getattr(got, name), getattr(ref, name)), name
                assert np.abs(got.corners - ref.corners).max() <= 4 * np.spacing(2 * math.pi)
                vertex = np.concatenate([variant.tails, variant.heads])[got.order]
                for v, angle in zip(vertex.tolist(), got.corners.tolist()):
                    if angle > math.pi:
                        assert angle - math.pi == pointedness_margin(variant, v)
                oc = oracle_face_objects(variant)
                assert corner_count(variant, got) == oracle_corner_count(variant, oc)
                assert render_svg(variant, got, (2, 3)) == oracle_render_svg(variant, oc, (2, 3))
    assert traced > 300 and refused > 10


def test_crossing_with_distant_representatives():
    # short edges at a representative several cells away still collide with
    # the lines through the origin; the pair window must recenter
    from perimax import PeriodicFramework
    fw = PeriodicFramework(
        np.eye(2),
        [[0.0, 0.0], [3.2, 0.35], [6.4, 0.7]],
        [(0, 0, (1, 0)), (0, 0, (0, 1)),
         (0, 1, (0, 0)), (1, 2, (0, 0)),
         (2, 2, (0, 1))])
    report = check_noncrossing(fw)
    assert not report.ok
    flat = {(a[0], b[0]) for a, b in report.crossings}
    # the vertical loop at the far representative crosses the horizontal
    # lines through the origin
    assert any(set(pair) == {0, 4} for pair in flat)
    # the full ordered list: first orbit, then partner orbit, then the
    # partner's shift in row-major order
    assert report.crossings == [
        ((0, (0, 0)), (4, (-6, -1))),
        ((1, (0, 0)), (2, (-3, 0))), ((1, (0, 0)), (2, (-2, 0))),
        ((1, (0, 0)), (2, (-1, 0))),
        ((1, (0, 0)), (3, (-6, 0))), ((1, (0, 0)), (3, (-5, 0))),
        ((1, (0, 0)), (3, (-4, 0))),
        ((2, (0, 0)), (4, (-6, -1))), ((2, (0, 0)), (4, (-5, -1))),
        ((2, (0, 0)), (4, (-4, -1))),
        ((3, (0, 0)), (4, (-3, -1))), ((3, (0, 0)), (4, (-2, -1))),
        ((3, (0, 0)), (4, (-1, -1))),
    ]


@pytest.mark.parametrize("theta, count, first, last, digest", [
    (2.9, 225,
     ((0, (0, 0)), (1, (-2, 4))), ((4, (0, 0)), (5, (5, -3))),
     "bfe321028f21ff6fb185636a329aa90d2dd7a0a033467236006e5fd56152b3c2"),
    (3.1, 7017,
     ((0, (0, 0)), (1, (-13, 26))), ((4, (0, 0)), (5, (28, -14))),
     "ec07b3d10dd90670a1ab9a3d11ca65491f790911bf44d3887d9bd228c078b529"),
])
def test_folded_kagome_crossing_lists_pinned(theta, count, first, last, digest):
    # near theta = pi the kagome triangles fold over each other and the
    # edges grow long in lattice coordinates; the digest pins the exact
    # ordered list (it is too long to spell out)
    crossings = check_noncrossing(fixture("kagome", theta=theta)).crossings
    assert len(crossings) == count
    assert crossings[0] == first and crossings[-1] == last
    assert hashlib.sha256(repr(crossings).encode()).hexdigest() == digest


def test_sheared_ppt3_relaxation_noncrossing():
    fw = relax(fixture("ppt3"), Sublattice(4, 1, 4))
    assert fw.m == 96
    report = check_noncrossing(fw)
    assert report.ok and report.crossings == []


def test_edgeless_framework_noncrossing():
    from perimax import PeriodicFramework
    report = check_noncrossing(PeriodicFramework(np.eye(2), [[0.0, 0.0]], []))
    assert report.ok and report.crossings == []


def test_edge_too_long_to_measure_is_refused():
    """A framework may hold an edge whose length overflows a float; the
    crossing check refuses it by orbit, a new orbit counted from m, without
    an overflow warning, and measures a long edge it can."""
    from perimax.topology import _orbit_crossing_rows
    cubes = fixture("cubes")
    positions = cubes.positions.copy()
    positions[0] = (1e200, 0.0)
    far = PeriodicFramework(cubes.lattice, positions, np.column_stack(
        [cubes.tails, cubes.heads, cubes.shifts]))
    # loop orbits of length 1e150 are measured; a new one 1e5 times longer is not
    loops = PeriodicFramework(1e150 * np.eye(2), [[0.0, 0.0]], [(0, 0, (1, 0)), (0, 0, (0, 1))])
    cases = [(far, np.empty((0, 4), int), 0),
             (loops, np.array([[0, 0, 1, 1], [0, 0, 100000, 0]]), loops.m + 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_noncrossing(loops).ok
        for fw, rows, orbit in cases:
            with pytest.raises(FrameworkError, match=r"^crossing check out of range: edge "
                                                     r"orbit %d is too long" % orbit):
                _orbit_crossing_rows(fw, rows)


# index <= 2 sublattices in canonical form (a, b, d), 0 <= b < d
SMALL_SUBLATTICES = [(1, 0, 1), (2, 0, 1), (1, 0, 2), (1, 1, 2)]


def _perturbed_relaxation(name, abd, scale, seed):
    """A relaxation of a fixture with every vertex moved by up to ``scale``
    along each axis; the lattice is kept."""
    fw = relax(fixture(name), Sublattice(*abd))
    rng = np.random.default_rng(seed)
    moved = fw.positions + scale * rng.uniform(-1.0, 1.0, fw.positions.shape)
    return fw.with_geometry(moved)


def _lattice_span(fw):
    """Per-axis spread, in lattice coordinates, of all edge endpoints of
    the representative copies."""
    tails = np.linalg.solve(fw.lattice, fw.positions[fw.tails].T).T
    heads = tails + np.linalg.solve(fw.lattice, fw.edge_vectors().T).T
    pts = np.vstack([tails, heads])
    return pts.max(axis=0) - pts.min(axis=0)


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["kagome", "cubes", "ppt3", "reentrant"]),
       abd=st.sampled_from(SMALL_SUBLATTICES),
       scale=st.sampled_from([0.0, 0.05, 0.2, 0.4, 0.5]),
       seed=st.integers(0, 2**32 - 1))
def test_noncrossing_property_against_oracle(name, abd, scale, seed):
    fw = _perturbed_relaxation(name, abd, scale, seed)
    # with every representative inside a box narrower than 3 lattice
    # units, crossing copies differ by shifts of at most 2, so a
    # translate of every crossing pair lies in the oracle's +-1 patch
    assume(bool(np.all(_lattice_span(fw) < 3.0)))
    assert check_noncrossing(fw).ok == oracle_noncrossing(fw)


def test_perturbed_relaxations_include_crossings():
    # the property above draws from both sides of the verdict
    verdicts = {oracle_noncrossing(_perturbed_relaxation(name, (1, 0, 1), 0.5, seed))
                for name in ("kagome", "cubes", "ppt3") for seed in range(3)}
    assert verdicts == {True, False}


def _all_pairs_crossings(fw):
    """``check_noncrossing``'s list by the all-pairs broad phase it had
    before its cell grid: every pair b1 <= b2 of edge orbits windowed over
    lattice shifts by ``oracle_window_crossings``."""
    from perimax import topology
    m = fw.m
    evecs = fw.edge_vectors()
    eps = topology._CROSSING_RTOL * max(float(np.linalg.norm(evecs, axis=1).max(initial=0.0)),
                                        fw.geometry_scale)
    rows = np.arange(m)
    row_start = rows * m - rows * (rows - 1) // 2

    def pairs(k):
        b1 = np.searchsorted(row_start, k, side="right") - 1
        return b1, k - row_start[b1] + b1

    return oracle_window_crossings(fw.lattice, fw.positions, fw.tails, fw.heads, fw.shifts,
                                   evecs, np.full(m, eps), m * (m + 1) // 2, pairs)


@pytest.mark.parametrize("name", sorted(FIXTURES) + ["folded kagome"])
def test_grid_crossings_match_all_pairs_on_relaxations(name):
    # every sublattice of index <= 4; the folded kagome (theta = 2.9)
    # crosses itself, with edges several lattice cells long
    base = fixture("kagome", theta=2.9) if name == "folded kagome" else fixture(name)
    for sub in sublattices_up_to(4):
        fw = relax(base, sub)
        assert check_noncrossing(fw).crossings == _all_pairs_crossings(fw), sub


def _window_orbit_crossings(fw, rows):
    """Per-row crossing lists of new orbits by ``oracle_window_crossings``:
    each row against every base orbit and its own copies, with the
    tolerance of fw extended by it; None for a zero-length row."""
    from perimax import core, topology
    m = fw.m
    tails = np.concatenate([fw.tails, rows[:, 0]])
    heads = np.concatenate([fw.heads, rows[:, 1]])
    shifts = np.concatenate([fw.shifts, rows[:, 2:]])
    evecs = fw.positions[heads] + shifts @ fw.lattice.T - fw.positions[tails]
    lengths = np.linalg.norm(evecs, axis=1)
    longest = max(fw.geometry_scale, float(lengths[:m].max(initial=0.0)))
    eps = topology._CROSSING_RTOL * np.maximum(lengths, longest)

    def pairs(k):
        # new row m + k // (m + 1) against base orbit k % (m + 1), or itself
        b1, b2 = k % (m + 1), m + k // (m + 1)
        return np.where(b1 == m, b2, b1), b2

    out = [[] for _ in rows]
    for (b1, s1), (b2, s2) in oracle_window_crossings(fw.lattice, fw.positions, tails, heads,
                                                      shifts, evecs, eps,
                                                      len(rows) * (m + 1), pairs):
        out[b2 - m].append(((min(b1, m), s1), (m, s2)))
    short = lengths[m:] <= core.EDGE_LENGTH_RTOL * fw.geometry_scale
    return [None if refused else found for refused, found in zip(short.tolist(), out)]


@pytest.mark.parametrize("name, theta", [(name, None) for name in sorted(FIXTURES)]
                         + [("kagome", 2.7), ("kagome", 2.9)])
def test_orbit_crossings_match_window_oracle(name, theta):
    """Every candidate orbit of the fixtures, of two folded (crossing)
    kagomes and of their relaxations of index <= 2 gets the window
    oracle's crossing list, in order, from the one grid pass, and the base
    list of that pass is ``check_noncrossing``'s."""
    from perimax.topology import _crossing_pairs, _orbit_crossing_rows
    base_fw = fixture(name) if theta is None else fixture(name, theta=theta)
    crossed = 0
    for sub in sublattices_up_to(2):
        fw = relax(base_fw, sub)
        rows = _candidate_table(fw, 2 if fw.m <= 8 else 1)
        (b1, b2, sx, sy), short = _orbit_crossing_rows(fw, rows)
        # each crossing as a pair, new rows named m, grouped by base and new row
        base, found = [], [[] for _ in rows]
        for row, pair in zip(b2.tolist(), _crossing_pairs(np.minimum(b1, fw.m),
                                                          np.minimum(b2, fw.m), sx, sy)):
            (base if row < fw.m else found[row - fw.m]).append(pair)
        found = [None if refused else pairs for refused, pairs in zip(short.tolist(), found)]
        assert base == check_noncrossing(fw).crossings, sub
        assert found == _window_orbit_crossings(fw, rows), sub
        crossed += sum(map(bool, found))
    assert crossed


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["kagome", "cubes", "ppt3", "reentrant"]),
       abd=st.sampled_from(SMALL_SUBLATTICES + [(2, 1, 2), (1, 2, 3)]),
       scale=st.sampled_from([0.0, 0.05, 0.2, 0.4, 0.5, 2.0]),
       seed=st.integers(0, 2**32 - 1))
def test_grid_crossings_match_all_pairs_property(name, abd, scale, seed):
    """Perturbed relaxations, crossing or not, with every vertex moved by
    up to 2 along each axis: the grid gives the all-pairs list, in
    order."""
    fw = _perturbed_relaxation(name, abd, scale, seed)
    assert check_noncrossing(fw).crossings == _all_pairs_crossings(fw)


def test_grid_work_is_linear_in_m(monkeypatch):
    """ppt3 relaxed 8x8 (m = 384): the grid hands the box test under 30 m
    copy pairs (the all-pairs windows held m (m + 1) / 2 pairs of 25 or
    more shifts), and the narrow phase gets under 10 m rows."""
    from perimax import topology
    fw = relax(fixture("ppt3"), Sublattice(8, 3, 8))
    screened, narrowed = [], []

    def cells(*args):
        for batch in cell_candidates(*args):
            screened.append(len(batch[0]))
            yield batch

    def narrow(*args):
        narrowed.append(len(args[-1]))
        return narrow_phase(*args)

    cell_candidates, narrow_phase = topology._cell_candidates, topology._narrow_phase
    monkeypatch.setattr(topology, "_cell_candidates", cells)
    monkeypatch.setattr(topology, "_narrow_phase", narrow)
    assert fw.m == 384 and check_noncrossing(fw).ok
    assert sum(screened) < 30 * fw.m
    assert sum(narrowed) < 10 * fw.m


def test_grid_batches_are_bounded(monkeypatch):
    """The grid hands out its copy pairs in batches of at most
    ``_SCREEN_CELLS`` (this relaxation's cells hold a few boxes each, and
    each pair of entries gives one shift), with the same crossing list."""
    from perimax import topology
    fw = _perturbed_relaxation("ppt3", (4, 1, 4), 0.05, 0)
    expected = check_noncrossing(fw).crossings
    batches = []

    def cells(*args):
        for batch in cell_candidates(*args):
            batches.append(len(batch[0]))
            yield batch

    cell_candidates = topology._cell_candidates
    monkeypatch.setattr(topology, "_cell_candidates", cells)
    monkeypatch.setattr(topology, "_SCREEN_CELLS", 64)
    assert check_noncrossing(fw).crossings == expected
    assert len(batches) > 10 and max(batches) <= 64


@pytest.mark.parametrize("cells", [1, 40, 1 << 20])
def test_screen_chunking_keeps_crossings(monkeypatch, cells):
    # chunk boundaries that split rows, or one chunk for everything, give
    # the same ordered list as the default chunking
    from perimax import topology
    frameworks = [fixture("kagome", theta=2.9), crossed_grid(),
                  _perturbed_relaxation("ppt3", (1, 1, 2), 0.5, 0)]
    expected = [check_noncrossing(fw).crossings for fw in frameworks]
    assert all(expected)
    monkeypatch.setattr(topology, "_SCREEN_CELLS", cells)
    assert [check_noncrossing(fw).crossings for fw in frameworks] == expected


def _long_orbit_ppt3(length):
    """``ppt3`` with the shift of edge orbit 0 set to (length, 0)."""
    fw = fixture("ppt3")
    edges = [fw.edge_key(k) for k in range(fw.m)]
    edges[0] = edges[0][:2] + ((length, 0),)
    return PeriodicFramework(fw.lattice, fw.positions, edges)


@pytest.mark.parametrize("name, rows", [("ppt3", 189), ("ppt3-4x4", 3015), ("shift 16", 2844),
                                        ("shift 256", 598440)])
def test_crossing_check_bound_counts_every_candidate(name, rows, monkeypatch):
    """The crossing check refuses more broad-phase candidates than
    ``_MAX_SCREEN_ROWS`` before expanding any.  ``rows`` is the number of
    (b1, b2, shift) rows its grid expands on each input (counted by
    instrumenting the expansion loop): a bound of ``rows`` changes no
    report, one of ``rows - 1`` refuses it.  The (256, 0) shift, about the
    longest orbit of ``ppt3`` the check holds, passes at the default bound."""
    from perimax import topology
    fws = {"ppt3": fixture("ppt3"), "ppt3-4x4": relax(fixture("ppt3"), Sublattice(4, 0, 4)),
           "shift 16": _long_orbit_ppt3(16), "shift 256": _long_orbit_ppt3(256)}
    fw = fws[name]
    expected = check_noncrossing(fw)
    monkeypatch.setattr(topology, "_MAX_SCREEN_ROWS", rows)
    assert check_noncrossing(fw) == expected
    monkeypatch.setattr(topology, "_MAX_SCREEN_ROWS", rows - 1)
    with pytest.raises(FrameworkError, match=r"^crossing check too large: .* exceed %d$"
                       % (rows - 1)):
        check_noncrossing(fw)


def test_long_orbit_crossing_check_expands_rows_per_batch():
    """One entry pair's rows are expanded at most ``_SCREEN_CELLS`` at a
    time.  On ``ppt3`` with a (256, 0) shift, where a few entry pairs hold
    nearly all of the 598,440 rows, the check peaks below 16 MB (92.6 MB
    when each pair's rows were expanded at once) and finds the same 764
    crossings (sha256 of their repr, pinned from that expansion)."""
    fw = _long_orbit_ppt3(256)
    check_noncrossing(fw)
    tracemalloc.start()
    try:
        crossings = check_noncrossing(fw).crossings
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak
    assert len(crossings) == 764
    assert hashlib.sha256(repr(crossings).encode()).hexdigest() == (
        "b4b6ef9f9e9b5aa517f59c290e2f56cce226fbda6045f1239bbe892a0b6e76d7")


# positions along a segment: before, at and between its ends, and past them
LINE_PARAMS = [-0.5, 0.0, 0.25, 0.5, 1.0, 1.5]
# normal offsets in units of eps: inside, at and outside the dead band
EPS_OFFSETS = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]


@st.composite
def segment_pairs(draw):
    """(p1, p2, q1, q2, shared, eps): segment q placed freely, through an
    endpoint of p (shared), along p's line (collinear, overlapping or not),
    or with an endpoint within a few eps of p; each offset by multiples of
    eps across p."""
    coord = st.integers(-8, 8).map(lambda i: i / 4)
    p1 = np.array([draw(coord), draw(coord)])
    p2 = p1 + np.array([draw(coord), draw(coord)])
    assume(np.any(p2 != p1))
    eps = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    d = p2 - p1
    normal = np.array([-d[1], d[0]]) / np.hypot(d[0], d[1])

    def near_line():
        t, off = draw(st.sampled_from(LINE_PARAMS)), draw(st.sampled_from(EPS_OFFSETS))
        return p1 + t * d + off * eps * normal

    kind = draw(st.sampled_from(["free", "shared", "collinear", "touch"]))
    shared = kind == "shared"
    if kind == "free":
        q1, q2 = (np.array([draw(coord), draw(coord)]) for _ in range(2))
    elif kind == "shared":
        q1 = draw(st.sampled_from([p1, p2])).copy()
        q2 = near_line() if draw(st.booleans()) else np.array([draw(coord), draw(coord)])
    elif kind == "collinear":
        q1, q2 = near_line(), near_line()
    else:
        q1, q2 = near_line(), np.array([draw(coord), draw(coord)])
    if draw(st.booleans()):
        q1, q2 = q2, q1
    assume(np.any(q2 != q1))
    return p1, p2, q1, q2, shared, eps


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(segment_pairs(), min_size=1, max_size=30))
def test_narrow_phase_matches_scalar_oracle(rows):
    """The array narrow phase gives every row the scalar test's verdict."""
    from perimax.topology import _narrow_phase

    p1, p2, q1, q2, shared, eps = (np.array(col) for col in zip(*rows))
    got = _narrow_phase(p1, p2, q1, q2, shared, eps)
    assert got.tolist() == [oracle_segments_cross(*row) for row in rows]


def test_subdivided_grid_faces():
    fw = subdivided_grid()
    fc = trace_faces(fw)
    assert fc.n_faces == 2
    assert np.diff(fc.start).tolist() == [4, 4]


def test_euler_on_perturbed_relaxations(rng):
    # face tracing stays consistent on unfolded, slightly deformed inputs
    for name in ("kagome", "cubes", "reentrant"):
        base = fixture(name)
        for _ in range(4):
            sub = Sublattice(int(rng.integers(1, 3)), 0, int(rng.integers(1, 3)))
            fw = relax(base, sub)
            pert = fw.with_geometry(
                fw.positions + 0.02 * rng.standard_normal(fw.positions.shape),
                fw.lattice + 0.02 * rng.standard_normal((2, 2)))
            if not check_noncrossing(pert).ok:
                continue
            fc = trace_faces(pert)
            assert pert.n - pert.m + fc.n_faces == 0
            assert len(fc.order) == fc.start[-1] == 2 * pert.m


def test_render_svg():
    fw = fixture("kagome")
    fc = trace_faces(fw)
    svg = render_svg(fw, fc, (2, 2))
    assert svg.startswith("<svg")
    assert svg.count("<polygon") == 2 * 2 * fc.n_faces
    assert "hsl(" in svg
