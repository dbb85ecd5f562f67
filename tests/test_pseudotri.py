"""Pointedness, certification, insertions and rigidifying candidates."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from perimax import (
    FIXTURES,
    EdgeCandidate,
    FrameworkError,
    NumericalError,
    PeriodicFramework,
    certify_ppt,
    check_noncrossing,
    find_rigidifying_edges,
    fixture,
    flex_space,
    insert_edge_orbit,
    periodic_stress_space,
    pointedness_margin,
    trace_faces,
)
from perimax import core, pseudotri, rigidity, topology
from perimax.pseudotri import (
    DERIVATIVE_RTOL,
    POINTED_TOL,
    PPTCertificate,
    candidate_pairs,
    oriented_flex,
    pair_length_derivative,
)
from perimax.core import canonical_edge
from perimax.relax import Sublattice, relax, sublattices_up_to, ultrarigidity_probe

from conftest import box_search, random_connected_framework, right_angle_pair

PPT_NAMES = ("kagome", "ppt3")


def test_right_angle_vertex_pointed():
    fw = right_angle_pair()
    # edges at 0 and 90 degrees: the reflex gap is 270 degrees
    assert abs(pointedness_margin(fw, 0) - math.pi / 2) < 1e-12
    assert pointedness_margin(fw, 0) > POINTED_TOL


def test_kagome_pointedness_by_angle():
    k0 = fixture("kagome", theta=0.0)
    # edges at 0, 60, 180, 240 degrees: largest gap 120 degrees
    assert abs(pointedness_margin(k0, 0) - (2 * math.pi / 3 - math.pi)) < 1e-12
    assert not pointedness_margin(k0, 0) > POINTED_TOL
    k = fixture("kagome", theta=math.pi / 2)
    assert all(pointedness_margin(k, v) > POINTED_TOL for v in range(3))


def _incident_directions_loop(fw, v):
    """Reference: one pass over the edges, tail end before head end."""
    evecs = fw.edge_vectors()
    dirs = []
    for k in range(fw.m):
        if fw.tails[k] == v:
            dirs.append(evecs[k])
        if fw.heads[k] == v:
            dirs.append(-evecs[k])
    return np.array(dirs).reshape(len(dirs), 2)


def _pointedness_margin_loop(fw, v):
    """Reference: the sorted angles of v's incident directions, their
    largest gap (the last wrapping to the first + 2 pi) minus pi."""
    dirs = _incident_directions_loop(fw, v)
    if len(dirs) == 0:
        return math.pi
    angles = np.sort(np.arctan2(dirs[:, 1], dirs[:, 0]))
    gaps = np.diff(np.concatenate([angles, angles[:1] + 2 * math.pi]))
    return float(gaps.max()) - math.pi


def test_pointedness_in_one_pass_matches_per_vertex_reference(rng):
    # one pass over all 2m incident directions gives every vertex's margin
    # bit for bit, and certify_ppt the same pointed list and failures
    frameworks = [fixture(name) for name in sorted(FIXTURES)]
    frameworks += [relax(fixture(name), sub) for name in ("kagome", "ppt3", "reentrant")
                   for sub in sublattices_up_to(4)]
    # non-pointed vertices, a vertex without edges and one with a single edge
    frameworks += [fixture("kagome", theta=0.0), right_angle_pair(),
                   PeriodicFramework(np.eye(2), [[0.0, 0.0]], []),
                   PeriodicFramework(np.eye(2), [[0.0, 0.0], [0.3, 0.2]],
                                     [(0, 0, (1, 0)), (0, 1, (0, 0))])]
    frameworks += [random_connected_framework(rng) for _ in range(40)]
    certified = 0
    for fw in frameworks:
        ref = [_pointedness_margin_loop(fw, v) for v in range(fw.n)]
        assert pseudotri._pointedness_margins(fw).tolist() == ref
        assert [pointedness_margin(fw, v) for v in range(fw.n)] == ref
        try:
            cert = certify_ppt(fw)
        except FrameworkError:
            continue    # faces that do not trace: no certificate to compare
        assert cert.pointed == [margin > pseudotri.POINTED_TOL for margin in ref]
        assert [f for f in cert.failures if "pointed" in f] == [
            "vertex %d is not pointed" % v for v, margin in enumerate(ref)
            if not margin > pseudotri.POINTED_TOL]
        certified += 1
    assert certified > 30


def test_vertex_index_range_checked():
    fw = fixture("ppt3")
    for v in (-1, fw.n):
        with pytest.raises(FrameworkError, match="vertex index %d out of range" % v):
            pointedness_margin(fw, v)


def test_certify_examples():
    cert = certify_ppt(fixture("ppt3"))
    assert cert.valid and cert.counts == (3, 6, 3)
    assert cert.stress_free and cert.flex_dim == 1

    cert = certify_ppt(fixture("square_grid"))
    assert not cert.valid
    assert any("corners" in f for f in cert.failures)
    assert "edge count" not in " ".join(cert.failures)  # m = 2n holds (2 = 2)

    cert = certify_ppt(fixture("reentrant"))
    assert not cert.valid
    assert any("edge count 3 != 2n = 4" in f for f in cert.failures)


@pytest.mark.parametrize("offset", [-2e-9, 2e-9])
def test_certificate_checks_noncrossing(offset):
    """The square grid plus a vertex 2e-9 from its vertical loop, joined to
    the grid vertex at (1, 0) and (1, 1).  Placed across the loop, both
    joins cross it, yet the faces trace; the certificate names the first
    crossing pair ahead of its other failures.  On the near side nothing
    crosses and the clause is absent."""
    fw = PeriodicFramework(np.eye(2), [[0.0, 0.0], [offset, 0.5]],
                           [(0, 0, (1, 0)), (0, 0, (0, 1)), (1, 0, (1, 0)), (1, 0, (1, 1))])
    assert trace_faces(fw).n_faces == 2
    crossings = check_noncrossing(fw).crossings
    failures = ["vertex 0 is not pointed", "face 0 has 4 corners"]
    if offset < 0:
        assert crossings == [((1, (0, 0)), (2, (1, 0))), ((1, (0, 0)), (3, (1, 1)))]
        failures.insert(0, "edge orbits cross: ((1, (0, 0)), (2, (1, 0)))")
    else:
        assert crossings == []
    cert = certify_ppt(fw)
    assert not cert.valid and cert.failures == failures


def test_oriented_flex_refuses_thin_gap(monkeypatch):
    """The flex of paths and of the search is read behind the gap guard:
    a kernel gap below RANK_GAP_MIN refuses it, while the pseudo-
    triangulations' own gap is inf (no singular value is dropped)."""
    fw = fixture("ppt3")
    kernel, read_rank = rigidity._kernel, rigidity._read_rank
    gaps = []

    def recorded(A):
        sv, rank, gap, basis = kernel(A)
        gaps.append(gap)
        return sv, rank, gap, basis

    monkeypatch.setattr(rigidity, "_kernel", recorded)
    oriented_flex(fw)
    assert gaps == [math.inf]
    # the guarded kernel refuses a gap of 2.0 read off its spectrum
    monkeypatch.setattr(rigidity, "_read_rank", lambda sv: (*read_rank(sv)[:2], 2.0))
    with pytest.raises(NumericalError, match="rank instability"):
        oriented_flex(fw)


def test_ppt_counts_identity():
    for name in PPT_NAMES:
        fw = fixture(name)
        cert = certify_ppt(fw)
        assert cert.valid
        n, m, n_star = cert.counts
        assert m == 2 * n and n_star == n
        assert int(fw.degrees().sum()) == n + 3 * n_star


def test_insertion_rigidifies():
    fw = fixture("ppt3")
    cands = find_rigidifying_edges(fw)
    assert cands and abs(cands[0].derivative) > 1e-3
    fw1 = insert_edge_orbit(fw, cands[0])
    _, rep = flex_space(fw1)
    assert (rep.sigma, rep.phi) == (0, 0)

    # a second independent insertion creates a one-dimensional stress
    for cand in cands[1:]:
        try:
            fw2 = insert_edge_orbit(fw1, cand)
        except FrameworkError:
            continue
        _, rep2 = flex_space(fw2)
        assert (rep2.sigma, rep2.phi) == (1, 0)
        break
    else:
        raise AssertionError("no compatible second insertion")


def test_insert_duplicate_rejected():
    fw = fixture("ppt3")
    with pytest.raises(FrameworkError, match="duplicate orbit"):
        insert_edge_orbit(fw, fw.edge_key(0))


def test_insert_crossing_rejected():
    # kagome at theta=pi/2: the pair (1, 2, (1, 0)) cuts through the fixed
    # triangle's surroundings
    fw = fixture("kagome", theta=math.pi / 2)
    crossing = None
    for key in candidate_pairs(fw, 2):
        try:
            insert_edge_orbit(fw, key)
        except FrameworkError as exc:
            if "crossing insertion" in str(exc):
                crossing = key
                break
    assert crossing is not None


def test_rigidify_requires_certificate():
    with pytest.raises(FrameworkError, match="not a certified"):
        find_rigidifying_edges(fixture("ultrarigid"))
    with pytest.raises(FrameworkError, match="not a certified"):
        find_rigidifying_edges(fixture("reentrant"))


def test_candidates_sorted_and_oriented():
    fw = fixture("ppt3")
    cands = find_rigidifying_edges(fw)
    mags = [abs(c.derivative) for c in cands]
    assert mags == sorted(mags, reverse=True)
    assert cands[0].derivative > 0  # orientation: top candidate expands


def test_double_insertion_sign_properties(rng):
    """Opposite stress signs on two inserted orbits; same-sign length rates."""
    for name in PPT_NAMES:
        fw = fixture(name)
        gauged, tangent, pairs, derivs = oriented_flex(fw, 2)
        cands = find_rigidifying_edges(fw)
        checked = 0
        guard = 0
        while checked < 20 and guard < 400:
            guard += 1
            i, j = rng.integers(0, len(cands), size=2)
            if i == j:
                continue
            a, b = cands[int(i)], cands[int(j)]
            try:
                fw2 = insert_edge_orbit(insert_edge_orbit(fw, a), b)
            except FrameworkError:
                continue
            basis = periodic_stress_space(fw2)
            assert len(basis) == 1, name
            s = basis[0].values
            sa, sb = s[fw2.m - 2], s[fw2.m - 1]
            assert sa * sb < 0, (name, a.key, b.key)
            # distance rates under the mechanism share a sign (or vanish)
            da = pair_length_derivative(gauged, tangent, a.tail, a.head, a.shift)
            db = pair_length_derivative(gauged, tangent, b.tail, b.head, b.shift)
            assert da * db >= -1e-12, (name, a.key, b.key)
            checked += 1
        assert checked == 20, name


def test_ppt_certificates_survive_relaxation():
    for name in PPT_NAMES:
        fw = fixture(name)
        for sub in sublattices_up_to(4):
            cert = certify_ppt(relax(fw, sub))
            assert cert.valid and cert.flex_dim == 1, (name, sub)


def test_insertion_order_of_new_orbit():
    fw = fixture("ppt3")
    cand = find_rigidifying_edges(fw)[0]
    fw1 = insert_edge_orbit(fw, cand)
    assert fw1.m == fw.m + 1
    assert fw1.edge_key(fw1.m - 1) == cand.key


def _candidate_pairs_loop(fw, cutoff):
    """Reference: canonical keys of every pair within the cutoff, deduplicated,
    existing orbits left out, sorted."""
    existing = {fw.edge_key(k) for k in range(fw.m)}
    out = set()
    for u in range(fw.n):
        for v in range(u, fw.n):
            for c1 in range(-cutoff, cutoff + 1):
                for c2 in range(-cutoff, cutoff + 1):
                    if u == v and (c1, c2) == (0, 0):
                        continue
                    key = canonical_edge(u, v, (c1, c2))
                    if key not in existing:
                        out.add(key)
    return sorted(out)


def test_candidate_pairs_match_loop_reference():
    for name in sorted(FIXTURES):
        fw = fixture(name)
        for cutoff in (1, 2):
            got = candidate_pairs(fw, cutoff)
            assert got == _candidate_pairs_loop(fw, cutoff), (name, cutoff)
            assert all(type(x) is int for u, v, c in got for x in (u, v) + c)


def _search_by_insertion(fw, cutoff):
    """Reference: every ranked candidate that insert_edge_orbit accepts."""
    _, _, pairs, derivs = oriented_flex(fw, cutoff)
    floor = DERIVATIVE_RTOL * max(1.0, max(abs(d) for d in derivs))
    ranked = sorted((EdgeCandidate(*key, d) for key, d in zip(pairs, derivs)
                     if abs(d) > floor),
                    key=lambda cand: (-abs(cand.derivative), cand.key))
    out = []
    for cand in ranked:
        try:
            insert_edge_orbit(fw, cand)
        except FrameworkError:
            continue
        out.append(cand)
    return out


def test_search_matches_insertion_reference():
    ppt3 = fixture("ppt3")
    cases = [(fixture("ppt3"), 2), (fixture("kagome"), 2),
             (relax(ppt3, Sublattice(1, 1, 2)), 1),
             (relax(ppt3, Sublattice(2, 0, 2)), 1)]
    for fw, cutoff in cases:
        ref = _search_by_insertion(fw, cutoff)
        assert ref and find_rigidifying_edges(fw, cutoff) == ref, (fw, cutoff)


def _search_outcome(fw, cutoff, search=find_rigidifying_edges):
    """The search's candidates, or the type and text of its refusal."""
    try:
        return search(fw, cutoff)
    except (FrameworkError, NumericalError) as err:
        return type(err).__name__, str(err)


def _placements(fw, rng):
    """fw rotated, sheared and with every vertex moved at random."""
    turn = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
    shear = np.array([[1.0, 0.6], [0.0, 1.0]])
    jiggle = 0.02 * fw.geometry_scale * rng.uniform(-1, 1, fw.positions.shape)
    moved = [fw.with_geometry(fw.positions @ a.T, a @ fw.lattice) for a in (turn, shear)]
    return moved + [fw.with_geometry(fw.positions + jiggle)]


def test_face_corner_filter_changes_no_search(rng):
    """A candidate the crossing grid clears meets no edge copy but at its
    ends, so it joins two corners of one face copy: the search, which
    rates only the face corners, gives the candidates (keys, derivative
    bits and order) and refusals (type and text) of the box search, which
    rated every pair-table row and kept the face corners afterwards.
    ppt3 and kagome at four angles (2.5 crosses itself), relaxed to index
    4 at cutoffs 0 and 1, to index 3 at cutoff 2 and to index 2 at cutoff
    3; to index 2 also rotated, sheared and perturbed at cutoffs 0 to 3.
    Cutoffs -1, 1.5 and 200 are refused with the box search's messages."""
    bases = [fixture("ppt3")] + [fixture("kagome", theta=t) for t in (math.pi / 2, 1.2, 1.9, 2.5)]
    cases = [(fw, cutoff) for base in bases for sub in sublattices_up_to(2)
             for fw in _placements(relax(base, sub), rng) for cutoff in (0, 1, 2, 3)]
    for cutoff, index in ((0, 4), (1, 4), (2, 3), (3, 2)):
        cases += [(relax(base, sub), cutoff) for base in bases for sub in sublattices_up_to(index)]
    cases += [(fixture("ppt3"), cutoff) for cutoff in (-1, 1.5, 200)]
    outcomes = [_search_outcome(fw, cutoff) for fw, cutoff in cases]
    assert outcomes == [_search_outcome(fw, cutoff, box_search) for fw, cutoff in cases]
    refused = sum(isinstance(out, tuple) for out in outcomes)
    assert 0 < refused < len(cases)
    assert [out[1] for out in outcomes[-3:]] == [
        "cutoff must be >= 0, got -1", "cutoff must be an integer, got 1.5",
        "pair table too large: 3 vertex orbits at cutoff 200 exceed 1048576 cells"]


def _face_corner_keys(fw, cutoff):
    """Reference: the sorted canonical keys within the cutoff, edge orbits
    excluded, that join two distinct vertex copies on the boundary walk of
    one face copy."""
    faces = trace_faces(fw)
    ends = np.concatenate([fw.tails, fw.heads])
    corners = set()
    for f in range(faces.n_faces):
        walk = [(int(ends[h]), tuple(faces.copy[h].tolist()))
                for h in faces.order[faces.start[f]:faces.start[f + 1]]]
        corners.update(canonical_edge(u, v, (b[0] - a[0], b[1] - a[1]))
                       for u, a in walk for v, b in walk if (u, a) != (v, b))
    corners -= {fw.edge_key(k) for k in range(fw.m)}
    return sorted(key for key in corners if max(map(abs, key[2])) <= cutoff)


@pytest.mark.parametrize("abd, cutoff, rated, boxed", [
    ((1, 0, 1), 2, 9, 105), ((2, 0, 2), 1, 36, 618), ((2, 1, 2), 1, 36, 618),
    ((4, 0, 4), 1, 144, 10_248), ((4, 0, 4), 2, 144, 28_680)])
def test_search_rates_face_corners_only(abd, cutoff, rated, boxed, monkeypatch):
    """The search computes length derivatives of the face-corner rows
    alone, not of the whole pair-table box less the edges."""
    fw = relax(fixture("ppt3"), Sublattice(*abd))
    tables = []

    def derivatives(fw, motion, table):
        tables.append(table.copy())
        return length_derivatives(fw, motion, table)

    length_derivatives = pseudotri._length_derivatives
    monkeypatch.setattr(pseudotri, "_length_derivatives", derivatives)
    find_rigidifying_edges(fw, cutoff)
    [table] = tables
    assert [(u, v, (c1, c2)) for u, v, c1, c2 in table.tolist()] == _face_corner_keys(fw, cutoff)
    assert len(table) == rated
    assert len(candidate_pairs(fw, cutoff)) == boxed


def test_search_on_crossing_base_raises_as_before(monkeypatch):
    # crossing (its faces do not trace), yet one candidate orbit crosses
    # nothing: only the check of the framework itself rejects it
    fw = fixture("kagome", theta=2.7)
    assert not check_noncrossing(fw).ok
    with pytest.raises(FrameworkError, match="Euler violation"):
        find_rigidifying_edges(fw)
    # past the certificate, every insertion fails, so no candidate is left
    monkeypatch.setattr(pseudotri, "certify_ppt", lambda fw: PPTCertificate(
        True, [], [], (fw.n, fw.m, fw.n), True, 1, []))
    assert _search_by_insertion(fw, 2) == []
    with pytest.raises(FrameworkError, match="no candidate found within cutoff 2"):
        find_rigidifying_edges(fw)


@pytest.mark.parametrize("abd, cutoff", [((1, 0, 1), 2), ((2, 0, 2), 1)])
def test_search_builds_one_framework(abd, cutoff, monkeypatch):
    """The gauged copy in oriented_flex is the only framework the search
    builds, whatever the number of candidates it screens."""
    fw = relax(fixture("ppt3"), Sublattice(*abd))
    builds = []

    def built(self, *args):
        builds.append(1)
        init(self, *args)

    init = core.PeriodicFramework.__init__
    monkeypatch.setattr(core.PeriodicFramework, "__init__", built)
    assert len(find_rigidifying_edges(fw, cutoff)) >= fw.m
    assert len(candidate_pairs(fw, cutoff)) > 100
    assert len(builds) == 1


def _face_corner_survivors(fw, cutoff):
    """Reference: the ranked candidates, in rank order, whose ends are
    vertex copies on the boundary walk of one face copy, as key rows."""
    faces = trace_faces(fw)
    ends = np.concatenate([fw.tails, fw.heads])
    corners = set()
    for f in range(faces.n_faces):
        walk = [(ends[h], faces.copy[h]) for h in faces.order[faces.start[f]:faces.start[f + 1]]]
        corners.update(canonical_edge(u, v, b - a) for u, a in walk for v, b in walk)
    ranked = [cand.key for cand in sorted(_ranked_candidates(fw, cutoff),
                                          key=lambda cand: (-abs(cand.derivative), cand.key))]
    return np.array([(u, v, *c) for u, v, c in ranked if (u, v, c) in corners])


def _ranked_candidates(fw, cutoff):
    """The candidates whose length derivative passes the search's floor."""
    _, _, pairs, derivs = oriented_flex(fw, cutoff)
    floor = DERIVATIVE_RTOL * max(1.0, max(abs(d) for d in derivs))
    return [EdgeCandidate(*key, d) for key, d in zip(pairs, derivs) if abs(d) > floor]


def test_search_runs_one_narrow_phase_per_chunk(monkeypatch):
    """With every screen in one chunk, the search makes two narrow-phase
    calls, one for the certificate's crossing check and one for the
    framework and the face-corner survivors together: exactly the rows of
    screening those survivors alone."""
    fw = relax(fixture("ppt3"), Sublattice(2, 0, 2))
    expected = find_rigidifying_edges(fw, 1)
    rows = []

    def narrow(*args):
        rows.append(len(args[-1]))
        return narrow_phase(*args)

    narrow_phase = topology._narrow_phase
    monkeypatch.setattr(topology, "_narrow_phase", narrow)
    monkeypatch.setattr(topology, "_SCREEN_CELLS", 1 << 30)
    assert find_rigidifying_edges(fw, 1) == expected
    assert len(rows) == 2
    searched, rows[:] = rows[:], []
    survivors = _face_corner_survivors(fw, 1)
    assert len(expected) <= len(survivors) < len(_ranked_candidates(fw, 1))
    topology._orbit_crossing_rows(fw, survivors)
    assert rows == searched[1:]


def test_search_memory_peak():
    """ppt3 relaxed 2x2 at cutoff 1 screens only its face-corner
    candidates: the search's tracemalloc peak stays under 2 MB (4.3 MB when
    all 618 candidates went through the crossing grid)."""
    fw = relax(fixture("ppt3"), Sublattice(2, 0, 2))
    find_rigidifying_edges(fw, 1)
    tracemalloc.start()
    try:
        find_rigidifying_edges(fw, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_search_leaves_numpy_ma_unimported():
    """The search deduplicates its face rows by their 1-D key codes, so a
    fresh process that runs it never imports ``numpy.ma``, which
    ``np.unique(..., axis=0)`` does (about 1.6 MB of resident memory)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pseudotri.__file__)))
    code = ("import sys; from perimax import find_rigidifying_edges, fixture; "
            "find_rigidifying_edges(fixture('ppt3')); "
            "sys.exit('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_search_builds_no_pair_grid():
    """The search rates face rows only, so it reads the cutoff's refusals
    without building the pair grid (18,528 vertex pairs x 9 shifts on
    ``ppt3`` 8x8 at cutoff 1), whose cache it leaves as it found it."""
    fw = relax(fixture("ppt3"), Sublattice(8, 0, 8))
    before = rigidity._pair_grid.cache_info()
    for cutoff in (1, 2.0):
        assert find_rigidifying_edges(fw, cutoff=cutoff)
    assert rigidity._pair_grid.cache_info() == before


def test_search_box_tests_grid_candidates_only(monkeypatch):
    """ppt3 relaxed 2x2 at cutoff 1 (619 candidates): the search, the
    certificate's check included, hands the box test under 250,000 copy
    rows (a window per candidate and base orbit held 1,168,770) and the
    narrow phase no more than those windows' 18,378 survivors."""
    fw = relax(fixture("ppt3"), Sublattice(2, 0, 2))
    boxed, narrowed = [], []

    def box(*args):
        found = copies_meeting_box(*args)
        boxed.append(found[2].size)
        return found

    def narrow(*args):
        narrowed.append(len(args[-1]))
        return narrow_phase(*args)

    copies_meeting_box, narrow_phase = topology._copies_meeting_box, topology._narrow_phase
    monkeypatch.setattr(topology, "_copies_meeting_box", box)
    monkeypatch.setattr(topology, "_narrow_phase", narrow)
    assert len(find_rigidifying_edges(fw, 1)) >= fw.m
    assert sum(boxed) < 250_000
    assert sum(narrowed) <= 18_378


def test_insertion_refuses_non_integer_entries():
    """A fractional entry is refused with the constructor's message, not
    truncated; integral floats are accepted as the constructor accepts
    them, and a duplicate keeps its own message."""
    fw = fixture("ppt3")
    edges = [fw.edge_key(k) for k in range(fw.m)]
    for entry in [(1.4, 2, (0.7, 1)), (1, 2, (0.5, 1)), (1, np.float64(2.25), (0, 1))]:
        with pytest.raises(FrameworkError) as built:
            PeriodicFramework(fw.lattice, fw.positions, edges + [entry])
        with pytest.raises(FrameworkError) as inserted:
            insert_edge_orbit(fw, entry)
        assert str(inserted.value) == str(built.value)
        assert str(inserted.value).startswith("edge orbit 6: ")
    inserted = insert_edge_orbit(fw, (2.0, 1.0, (0.0, np.float64(-1.0))))
    assert inserted.edge_key(6) == (1, 2, (0, 1))
    with pytest.raises(FrameworkError, match=r"^duplicate orbit: \(0, 1, \(0, 0\)\) already"):
        insert_edge_orbit(fw, (1.0, 0, (0, 0.0)))


def test_insertion_on_crossing_base_names_the_cause():
    # kagome folded to theta = 2.7 crosses itself; an orbit that crosses
    # too is refused for its own crossing, one that does not for the base's
    fw = fixture("kagome", theta=2.7)
    with pytest.raises(FrameworkError, match=r"crossing insertion: new orbit "
                       r"intersects \(\(0, \(0, 0\)\), \(6, \(-1, 1\)\)\)"):
        insert_edge_orbit(fw, (0, 0, (0, 1)))
    with pytest.raises(FrameworkError, match=r"crossings independent of the insertion: "
                       r"\(\(0, \(0, 0\)\), \(1, \(-1, 2\)\)\)"):
        insert_edge_orbit(fw, (1, 2, (1, 2)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_zero_length_candidate_pair_rejected():
    # vertex 1 sits on the lattice translate of vertex 0 that the candidate
    # pair (0, 1, (-1, 0)) joins, so that pair has no length to differentiate
    fw = PeriodicFramework(np.eye(2), [[0.0, 0.0], [1.0, 0.0], [0.3, 0.55]],
                           [(0, 2, (0, 0)), (1, 2, (-1, 0)), (0, 2, (0, -1)),
                            (1, 2, (0, 0)), (0, 1, (0, 1)), (2, 2, (1, 0))])
    with pytest.raises(NumericalError, match="non-finite length derivative"):
        oriented_flex(fw, 1)


def test_dimension_verdicts_compute_no_kernel_basis(monkeypatch):
    """The certificate and the ultrarigidity probe read sigma and phi from
    singular values alone: no SVD of theirs computes singular vectors."""
    computes_uv = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        computes_uv.append(kwargs.get("compute_uv", args[1] if len(args) > 1 else True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for fw in (fixture("ppt3"), relax(fixture("kagome"), Sublattice(2, 1, 2))):
        assert certify_ppt(fw).valid
        assert not ultrarigidity_probe(fw, 3).ultrarigid
    assert computes_uv and not any(computes_uv)
