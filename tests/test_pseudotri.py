"""Pointedness, certification, insertions and rigidifying candidates."""

import math

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
    is_pointed,
    periodic_stress_space,
    pointedness_margin,
)
from perimax import pseudotri
from perimax.pseudotri import (
    DERIVATIVE_RTOL,
    PPTCertificate,
    candidate_pairs,
    incident_directions,
    oriented_flex,
    pair_length_derivative,
)
from perimax.core import canonical_edge
from perimax.relax import Sublattice, relax, sublattices_up_to

from conftest import random_connected_framework, right_angle_pair

PPT_NAMES = ("kagome", "ppt3")


def test_right_angle_vertex_pointed():
    fw = right_angle_pair()
    # edges at 0 and 90 degrees: the reflex gap is 270 degrees
    assert abs(pointedness_margin(fw, 0) - math.pi / 2) < 1e-12
    assert is_pointed(fw, 0)


def test_kagome_pointedness_by_angle():
    k0 = fixture("kagome", theta=0.0)
    # edges at 0, 60, 180, 240 degrees: largest gap 120 degrees
    assert abs(pointedness_margin(k0, 0) - (2 * math.pi / 3 - math.pi)) < 1e-12
    assert not is_pointed(k0, 0)
    k = fixture("kagome", theta=math.pi / 2)
    assert all(is_pointed(k, v) for v in range(3))


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


def test_incident_directions_match_loop_reference(rng):
    # square grid: both loops sit at vertex 0, each gives +e then -e
    sq = fixture("square_grid")
    assert np.array_equal(incident_directions(sq, 0),
                          [sq.edge_vector(0), -sq.edge_vector(0),
                           sq.edge_vector(1), -sq.edge_vector(1)])
    frameworks = [fixture(name) for name in ("kagome", "ppt3", "cubes", "reentrant")]
    frameworks += [random_connected_framework(rng) for _ in range(20)]
    for fw in frameworks:
        for v in range(fw.n):
            ref = _incident_directions_loop(fw, v)
            got = incident_directions(fw, v)
            assert got.shape == ref.shape and np.array_equal(got, ref)


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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_zero_length_candidate_pair_rejected():
    # vertex 1 sits on the lattice translate of vertex 0 that the candidate
    # pair (0, 1, (-1, 0)) joins, so that pair has no length to differentiate
    fw = PeriodicFramework(np.eye(2), [[0.0, 0.0], [1.0, 0.0], [0.3, 0.55]],
                           [(0, 2, (0, 0)), (1, 2, (-1, 0)), (0, 2, (0, -1)),
                            (1, 2, (0, 0)), (0, 1, (0, 1)), (2, 2, (1, 0))])
    with pytest.raises(NumericalError, match="non-finite length derivative"):
        oriented_flex(fw, 1)
