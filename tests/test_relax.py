"""Sublattice enumeration, unfolding, stress persistence, ultrarigidity."""

import importlib
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perimax import (
    FrameworkError,
    NumericalError,
    PeriodicFramework,
    check_periodic_stress,
    copy_stress,
    fixture,
    flex_space,
    periodic_stress_space,
    relax,
    stress_persists,
    sublattices_of_index,
    sublattices_up_to,
    ultrarigidity_probe,
)
from perimax.relax import Sublattice

from conftest import (
    oracle_edge_orbits,
    oracle_nullspace,
    oracle_probe_entries,
    oracle_relax,
    oracle_stress_check,
    oracle_sublattices,
    oracle_unfolding,
    straddling_framework,
    subdivided_grid,
)

relax_module = importlib.import_module("perimax.relax")
rigidity_module = importlib.import_module("perimax.rigidity")

FIXTURE_NAMES = ("square_grid", "kagome", "reentrant", "ppt3", "cubes",
                 "ultrarigid")


def test_enumeration_counts_match_divisor_sums():
    # sigma_1(k) for k = 1..6
    assert [len(sublattices_of_index(k)) for k in range(1, 7)] == \
        [1, 3, 4, 7, 6, 12]


def test_enumeration_matches_bruteforce_oracle():
    for k in (1, 2, 3, 4):
        gens = oracle_sublattices(k)
        assert len(gens) == len(sublattices_of_index(k))
        # every brute-force lattice canonicalizes to a distinct enumerated form
        enum = {(s.a, s.b, s.d) for s in sublattices_of_index(k)}
        canon = set()
        for rows in gens:
            sub = Sublattice.from_matrix(np.array(rows))
            canon.add((sub.a, sub.b, sub.d))
        assert canon == enum, k


def test_index_two_forms():
    forms = {(s.a, s.b, s.d) for s in sublattices_of_index(2)}
    assert forms == {(2, 0, 1), (1, 0, 2), (1, 1, 2)}


def test_canonicalization_invariance(rng):
    for _ in range(200):
        while True:
            M = rng.integers(-5, 6, size=(2, 2))
            det = int(round(np.linalg.det(M)))
            if det != 0:
                break
        sub = Sublattice.from_matrix(M)
        assert sub.index == abs(det)
        # multiplying by a unimodular matrix does not change the sublattice
        U = np.array([[1, int(rng.integers(-3, 4))], [0, 1]])
        V = np.array([[1, 0], [int(rng.integers(-3, 4)), 1]])
        sub2 = Sublattice.from_matrix(M @ U @ V)
        assert (sub.a, sub.b, sub.d) == (sub2.a, sub2.b, sub2.d)


def test_reduce_roundtrip(rng):
    sub = Sublattice(3, 2, 4)
    for _ in range(100):
        z1, z2 = int(rng.integers(-20, 21)), int(rng.integers(-20, 21))
        r1, r2, k1, k2 = sub.reduce(z1, z2)
        assert 0 <= r1 < sub.a and 0 <= r2 < sub.d
        assert (z1, z2) == (r1 + k1 * sub.a, r2 + k1 * sub.b + k2 * sub.d)


def test_relax_identity():
    fw = fixture("cubes")
    unf = relax(fw, Sublattice(1, 0, 1))
    assert (unf.n, unf.m) == (fw.n, fw.m)
    assert np.allclose(unf.positions, fw.positions)
    assert [unf.edge_key(k) for k in range(unf.m)] == \
        [fw.edge_key(k) for k in range(fw.m)]


def test_relax_square_grid_two_columns():
    fw = fixture("square_grid")
    unf = relax(fw, Sublattice(2, 0, 1))
    assert (unf.n, unf.m) == (2, 4)
    _, rep = flex_space(unf)
    assert (rep.sigma, rep.phi) == (1, 2)
    # copied non-periodic stress stays non-periodic
    assert not check_periodic_stress(unf, copy_stress(unf, np.array([1.0, 0.0]))).ok


def test_relax_point_set_identical():
    # unfolded copies realize exactly the original infinite point set
    fw = fixture("ppt3")
    sub = Sublattice(2, 1, 2)
    unf = relax(fw, sub)
    assert (unf.n, unf.m) == (fw.n * 4, fw.m * 4)
    for vid in range(unf.n):
        i = int(unf.parent_vertex[vid])
        diff = np.linalg.solve(fw.lattice, unf.positions[vid] - fw.positions[i])
        assert np.abs(diff - np.round(diff)).max() < 1e-9
    # edge length multiset scales with the index
    la = np.sort(np.linalg.norm(unf.edge_vectors(), axis=1))
    lb = np.sort(np.tile(np.linalg.norm(fw.edge_vectors(), axis=1), 4))
    assert np.abs(la - lb).max() < 1e-9


def test_relax_kagome_keeps_certificate():
    from perimax import certify_ppt
    unf = relax(fixture("kagome"), Sublattice(2, 0, 2))
    assert (unf.n, unf.m) == (12, 24)
    cert = certify_ppt(unf)
    assert cert.valid and cert.flex_dim == 1


def test_stress_persistence():
    cb = fixture("cubes")
    s = periodic_stress_space(cb)[0].values
    assert stress_persists(cb, np.zeros(cb.m), Sublattice(1, 1, 2))
    for sub in sublattices_up_to(4):
        assert stress_persists(cb, s, sub), sub

    sg = subdivided_grid()
    sp = periodic_stress_space(sg)[0].values
    for sub in sublattices_of_index(2):
        assert stress_persists(sg, sp, sub), sub


def test_sigma_nondecreasing_under_relaxation():
    for name in FIXTURE_NAMES:
        fw = fixture(name)
        base = flex_space(fw)[1].sigma
        for sub in sublattices_up_to(4):
            assert flex_space(relax(fw, sub))[1].sigma >= base, (name, sub)


def test_count_identity_on_unfoldings():
    from perimax import count_identity_check
    for name in ("kagome", "cubes", "reentrant"):
        fw = fixture(name)
        for sub in sublattices_up_to(3):
            rep = count_identity_check(relax(fw, sub))
            assert rep.stress_flex_identity
            assert (rep.n, rep.m) == (fw.n * sub.index, fw.m * sub.index)


def test_relax_composition_isomorphism():
    fw = fixture("kagome")
    s1 = Sublattice.from_matrix([[2, 1], [0, 1]])
    s2 = Sublattice.from_matrix([[1, 0], [1, 2]])
    a = relax(relax(fw, s1), s2)
    b = relax(fw, Sublattice.from_matrix(s1.matrix @ s2.matrix))
    ra, rb = flex_space(a)[1], flex_space(b)[1]
    assert (a.n, a.m, ra.sigma, ra.delta) == (b.n, b.m, rb.sigma, rb.delta)
    la = np.sort(np.linalg.norm(a.edge_vectors(), axis=1))
    lb = np.sort(np.linalg.norm(b.edge_vectors(), axis=1))
    assert np.abs(la - lb).max() < 1e-9


def test_ultrarigidity_probe_examples():
    rep = ultrarigidity_probe(fixture("ultrarigid"), 4)
    assert rep.ultrarigid
    assert len(rep.entries) == 1 + 3 + 4 + 7
    assert all(e.phi == 0 for e in rep.entries)

    rep = ultrarigidity_probe(fixture("square_grid"), 2)
    assert not rep.ultrarigid
    assert rep.first_failure.sublattice.index == 1
    assert rep.first_failure.phi == 1

    with pytest.raises(FrameworkError):
        ultrarigidity_probe(fixture("square_grid"), 0)


def _same_unfolding(a, b):
    return (a.positions.tobytes() == b.positions.tobytes()
            and a.lattice.tobytes() == b.lattice.tobytes()
            and all(np.array_equal(x, y) for x, y in (
                (a.tails, b.tails), (a.heads, b.heads), (a.shifts, b.shifts),
                (a.parent_vertex, b.parent_vertex),
                (a.parent_edge, b.parent_edge))))


def test_relax_matches_loop_reference():
    # bitwise: same vertex and edge order, positions rounded like lat @ r
    for name in FIXTURE_NAMES:
        fw = fixture(name)
        for sub in sublattices_up_to(8):
            assert _same_unfolding(relax(fw, sub), oracle_relax(fw, sub)), (name, sub)
    fw = fixture("ppt3")
    for a in range(1, 9):
        for d in range(1, 9):
            for b in range(d):
                sub = Sublattice(a, b, d)
                assert _same_unfolding(relax(fw, sub), oracle_relax(fw, sub)), sub


def test_relax_rows_match_scalar_oracle():
    # the unfolded rows, validated as arrays, equal the loop-built triples
    # validated one orbit at a time, bit for bit
    for name in FIXTURE_NAMES:
        fw = fixture(name)
        for sub in sublattices_up_to(6):
            lattice, positions, edges, _, _ = oracle_unfolding(fw, sub)
            got = relax(fw, sub)
            assert got.lattice.tobytes() == lattice.tobytes()
            assert got.positions.tobytes() == positions.tobytes()
            for a, b in zip((got.tails, got.heads, got.shifts),
                            oracle_edge_orbits(len(positions), edges)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, sub)


def _count_calls(monkeypatch, calls, original):
    """Count calls of ``original`` through every perimax module holding it."""
    def counted(*args, **kwargs):
        calls[original.__name__] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "perimax" or name.startswith("perimax."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)


def test_stress_sweep_builds_no_matrix_and_no_scalar_edge(monkeypatch):
    from perimax import core, rigidity
    calls = Counter()
    _count_calls(monkeypatch, calls, core.canonical_edge)
    _count_calls(monkeypatch, calls, rigidity.rigidity_matrix)
    for unfolding_step in (relax_module._unfold, core.validate_geometry, core._require_connected):
        _count_calls(monkeypatch, calls, unfolding_step)
    build = core.PeriodicFramework.__init__

    def counted_build(self, *args, **kwargs):
        calls["build"] += 1
        build(self, *args, **kwargs)

    monkeypatch.setattr(core.PeriodicFramework, "__init__", counted_build)
    fw = relax(fixture("cubes"), Sublattice(1, 1, 2))
    s = periodic_stress_space(fw)[0].values
    calls.clear()
    assert all(stress_persists(fw, s, sub) for sub in sublattices_up_to(6))
    assert calls == Counter()
    # the counters see calls made through the modules and the constructor
    periodic_stress_space(fw)
    core.canonical_edge(1, 0, (0, 0))
    relax(fw, Sublattice(2, 0, 1))
    assert calls == Counter(rigidity_matrix=1, canonical_edge=1, build=1, _unfold=1,
                            validate_geometry=1, _require_connected=1)


def _disconnecting(shifts):
    """One vertex orbit with a loop orbit per shift: the closed walks shift
    by these vectors only, so some relaxations fall apart."""
    return PeriodicFramework(np.eye(2), [[0.0, 0.0]], [(0, 0, c) for c in shifts])


PERSISTENCE_FRAMEWORKS = dict(
    {name: fixture(name) for name in FIXTURE_NAMES},
    subdivided=subdivided_grid(),
    walks_2x1=_disconnecting([(2, 0), (0, 1)]),
    walks_1x3=_disconnecting([(1, 0), (1, 3)]),
    # lattice columns of 1.5 * 2**509: every relaxation of index > 1
    # makes a column longer than 2**510, out of range
    huge_lattice=PeriodicFramework(np.eye(2) * 1.5 * 2.0**509, [[0.0, 0.0]],
                                   [(0, 0, (1, 0)), (0, 0, (0, 1))]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(PERSISTENCE_FRAMEWORKS)),
       sub=st.sampled_from(sublattices_up_to(8)),
       noise=st.sampled_from([0.0, 1e-6, 0.1]),
       seed=st.integers(0, 2**32 - 1))
@example(name="square_grid", sub=Sublattice(1, 1, 2), noise=0.0, seed=0)
@example(name="square_grid", sub=Sublattice(2, 1, 3), noise=0.1, seed=1)
@example(name="cubes", sub=Sublattice(2, 1, 4), noise=1e-6, seed=2)
@example(name="walks_2x1", sub=Sublattice(2, 0, 1), noise=0.0, seed=3)
@example(name="walks_1x3", sub=Sublattice(1, 0, 3), noise=0.1, seed=4)
@example(name="huge_lattice", sub=Sublattice(1, 0, 1), noise=0.1, seed=5)
@example(name="huge_lattice", sub=Sublattice(2, 0, 1), noise=0.0, seed=6)
@example(name="walks_2x1", sub=Sublattice(2, 0, 2), noise=0.0, seed=7)
@example(name="walks_2x1", sub=Sublattice(2, 1, 2), noise=0.1, seed=8)
@example(name="walks_2x1", sub=Sublattice(4, 1, 3), noise=0.0, seed=9)
def test_stress_persists_matches_relaxed_check(name, sub, noise, seed):
    """The framework-free sweep gives the verdict of relax followed by the
    stress check, and of the dense oracle, on periodic stresses and on
    perturbed ones (not periodic), and refuses what relax refuses with
    the same message."""
    fw = PERSISTENCE_FRAMEWORKS[name]
    basis = periodic_stress_space(fw)
    s = basis[0].values if basis else np.zeros(fw.m)
    s = s + noise * np.random.default_rng(seed).uniform(-1.0, 1.0, fw.m)
    try:
        unfolded = relax(fw, sub)
    except FrameworkError as exc:
        with pytest.raises(FrameworkError) as refused:
            stress_persists(fw, s, sub)
        assert str(refused.value) == str(exc)
        return
    # the arrays the sweep checks are those the constructor stored
    lattice, positions, rows = relax_module._unfold(fw, sub)
    assert lattice.tobytes() == unfolded.lattice.tobytes()
    assert positions.tobytes() == unfolded.positions.tobytes()
    assert np.array_equal(rows, np.column_stack([unfolded.tails, unfolded.heads,
                                                 unfolded.shifts]))
    copied = copy_stress(unfolded, s)
    verdict = check_periodic_stress(unfolded, copied).ok
    assert stress_persists(fw, s, sub) == verdict == oracle_stress_check(unfolded, copied)[0]
    if noise == 0.1:
        assert not verdict


@pytest.mark.parametrize("fw, sub, message", [
    # copies of the one vertex 1 apart, within 1e-12 of the placement's scale
    (PeriodicFramework(np.eye(2), [[1.5e12, 0.0]], [(0, 0, (2, 0)), (0, 0, (0, 2))]),
     Sublattice(2, 0, 1), "degenerate placement: all vertex orbits coincide"),
    # orbit 2 (length 1.5) is short against the relaxed scale 2e12: copy 2 * 2
    (PeriodicFramework(1e12 * np.eye(2), [[0.0, 0.0], [1.5, 0.0]],
                       [(0, 0, (1, 0)), (0, 1, (1, 0)), (0, 1, (0, 0)), (0, 1, (0, 1)),
                        (0, 0, (0, 1))]),
     Sublattice(1, 0, 2), "zero-length edge orbit 4"),
])
def test_stress_persists_refuses_unfolded_geometry(fw, sub, message):
    """Geometry refusals that only the relaxed scale brings about, named as
    the constructor names them on the unfolding."""
    for call in (lambda: relax(fw, sub), lambda: stress_persists(fw, np.zeros(fw.m), sub)):
        with pytest.raises(FrameworkError) as refused:
            call()
        assert str(refused.value) == message


def test_copy_shifts_add_up_to_adjugate_times_shift():
    """Over the coset copies of orbit k the relaxed shifts add up to
    adj(M) c_k = (d c1, a c2 - b c1) exactly, a reversed loop copy counted
    negatively, so the lattice sums of a relaxation are those of adj(M) c."""
    for name in FIXTURE_NAMES:
        fw = fixture(name)
        evecs = fw.edge_vectors()
        c1, c2 = fw.shifts.T
        for sub in sublattices_up_to(12):
            lattice, positions, rows = relax_module._unfold(fw, sub)
            vecs = positions[rows[:, 1]] + rows[:, 2:] @ lattice.T - positions[rows[:, 0]]
            # a copy realizes e_k, or -e_k where canonical form reversed it
            sign = np.sign((vecs.reshape(fw.m, sub.index, 2) * evecs[:, None]).sum(axis=2))
            assert np.abs(sign).min() == 1, (name, sub)
            sums = (sign[:, :, None] * rows[:, 2:].reshape(fw.m, sub.index, 2)).sum(axis=1)
            assert np.array_equal(sums, np.column_stack([sub.d * c1, sub.a * c2 - sub.b * c1])), \
                (name, sub)


def test_sweep_tolerances_scale_as_relaxed_check(monkeypatch):
    """Over a range of tolerances the sweep flips where relax followed by the
    stress check flips, for a random perturbation (balance decides) and a
    balanced one that is not periodic (the lattice sums decide)."""
    rigidity = importlib.import_module("perimax.rigidity")
    for name, fw in (("cubes", fixture("cubes")), ("subdivided", subdivided_grid())):
        s0 = periodic_stress_space(fw)[0].values
        balance = np.zeros((fw.n, 2, fw.m))
        np.add.at(balance, (fw.heads, slice(None), np.arange(fw.m)), fw.edge_vectors())
        np.add.at(balance, (fw.tails, slice(None), np.arange(fw.m)), -fw.edge_vectors())
        balanced = oracle_nullspace(balance.reshape(2 * fw.n, fw.m))
        balanced -= np.outer(s0, s0 @ balanced) / (s0 @ s0)
        for u in (np.random.default_rng(0).uniform(-1.0, 1.0, fw.m), balanced[:, 0]):
            s = 5.0 * s0 + 1e-7 * u / np.abs(u).max()
            for sub in (Sublattice(1, 1, 2), Sublattice(3, 2, 4)):
                unfolded = relax(fw, sub)
                copied = copy_stress(unfolded, s)
                verdicts = []
                for rtol in np.geomspace(1e-16, 1e-4, 100):
                    monkeypatch.setattr(rigidity, "STRESS_RTOL", rtol)
                    verdict = stress_persists(fw, s, sub)
                    assert verdict == check_periodic_stress(unfolded, copied).ok, (name, sub, rtol)
                    verdicts.append(verdict)
                assert not verdicts[0] and verdicts[-1]


def test_cycle_basis_spans_closed_walk_shifts():
    """The lower Hermite basis of the closed-walk shifts, computed once."""
    grid = fixture("square_grid")
    assert grid.cycle_basis == (1, 0, 1) and grid.cycle_basis is grid.cycle_basis
    assert _disconnecting([(2, 0), (0, 1)]).cycle_basis == (2, 0, 1)
    assert _disconnecting([(1, 0), (1, 3)]).cycle_basis == (1, 0, 3)
    assert _disconnecting([(2, 3), (4, 1)]).cycle_basis == (2, 3, 5)
    assert _disconnecting([(0, 3), (0, -6)]).cycle_basis == (0, 0, 3)
    # the tree path to vertex 1 shifts by (1, 0); closed walks by (2, 0) and (0, 2)
    pair = PeriodicFramework(np.eye(2), [[0.0, 0.0], [0.5, 0.5]],
                             [(0, 1, (1, 0)), (0, 1, (3, 0)), (0, 1, (1, 2))])
    assert pair.cycle_basis == (2, 0, 2)
    tree = PeriodicFramework(np.eye(2), [[0.0, 0.0], [0.3, 0.2]], [(0, 1, (4, 1))])
    assert tree.cycle_basis == (0, 0, 0)
    # closed walks of every fixture reach every shift, on relaxations too
    for name in FIXTURE_NAMES:
        assert fixture(name).cycle_basis == (1, 0, 1), name
        assert relax(fixture(name), Sublattice(2, 1, 3)).cycle_basis == (1, 0, 1), name


def test_stress_persistence_refuses_wrong_stress_length():
    cb = fixture("cubes")
    s = list(periodic_stress_space(cb)[0].values)
    sub = Sublattice(1, 0, 2)
    unfolded = relax(cb, sub)
    for bad in (s + [5, 7], s[:-1], [s]):
        with pytest.raises(FrameworkError, match="one value per edge orbit"):
            stress_persists(cb, bad, sub)
        with pytest.raises(FrameworkError, match="one value per edge orbit"):
            copy_stress(unfolded, bad)


def test_stress_memo_keys_on_values():
    """The sweep keeps the stress terms of the last stress by its values:
    alternating two stresses, or changing the caller's array in place,
    gives the verdict of a fresh relaxed check every time, and a refused
    call leaves the next verdict as it was."""
    fw = fixture("cubes")
    periodic = periodic_stress_space(fw)[0].values
    perturbed = periodic + 1e-3 * np.random.default_rng(3).uniform(-1.0, 1.0, fw.m)
    given = periodic.copy()
    for sub in (Sublattice(1, 0, 1), Sublattice(1, 1, 2), Sublattice(3, 2, 4)):
        unfolded = relax(fw, sub)
        for values, expected in ((periodic, True), (perturbed, False), (periodic, True),
                                 (perturbed, False), (periodic, True)):
            given[:] = values    # same array, new values
            for s in (given, values):
                fresh = check_periodic_stress(unfolded, copy_stress(unfolded, s.copy())).ok
                assert stress_persists(fw, s, sub) == fresh == expected, (sub, expected)
            with pytest.raises(FrameworkError, match="one value per edge orbit"):
                stress_persists(fw, perturbed[:-1] if expected else periodic[:-1], sub)
            with pytest.raises(FrameworkError, match="relaxation too large"):
                stress_persists(fw, 1.0 - given, Sublattice(1, 0, 2 ** 40))
            assert stress_persists(fw, given, sub) == expected, (sub, expected)


def test_stress_persists_refusal_order():
    """A stress of the wrong length is refused after the relaxation's
    geometry and connectivity, as ``relax`` and then the relaxed check
    refuse it, and for its length on a relaxation that stands."""
    cases = [
        (PeriodicFramework(np.eye(2), [[1.5e12, 0.0]], [(0, 0, (2, 0)), (0, 0, (0, 2))]),
         Sublattice(2, 0, 1), "degenerate placement: all vertex orbits coincide"),
        (_disconnecting([(2, 0), (0, 1)]), Sublattice(2, 0, 1), "disconnected quotient graph"),
        (fixture("cubes"), Sublattice(1, 0, 2), "stress must have one value per edge orbit"),
    ]
    for fw, sub, message in cases:
        for s in (np.zeros(fw.m + 1), np.zeros(fw.m - 1), np.zeros((1, fw.m))):
            with pytest.raises(FrameworkError, match=message):
                stress_persists(fw, s, sub)


def test_stress_persists_at_large_index_builds_no_copies():
    """A periodic stress persists at index 2**17 from the closed-form
    residuals alone, with no (m, index, 2) array of copy shifts (12.6 MB
    for ``cubes``) behind the verdict."""
    fw = fixture("cubes")
    s = periodic_stress_space(fw)[0].values
    tracemalloc.start()
    try:
        verdict = stress_persists(fw, s, Sublattice(1, 0, 2 ** 17))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict
    assert peak < 1 << 20, peak


def test_copy_shifts_serve_only_undecided_scales(monkeypatch):
    """The copy shifts feed only the lattice and tensor scales, which decide
    nothing while those residuals are within STRESS_RTOL: with the builder
    refusing, a periodic stress still persists on every sublattice up to
    index 12 and passes the direct check, and a stress perturbed by 1e-3
    reaches the builder."""
    fw = fixture("cubes")
    s = periodic_stress_space(fw)[0].values

    def refuse(*args):
        raise AssertionError("copy shifts built")

    monkeypatch.setattr(rigidity_module, "_copy_shifts", refuse)
    assert all(stress_persists(fw, s, sub) for sub in sublattices_up_to(12))
    assert check_periodic_stress(fw, s).ok
    perturbed = s + 1e-3 * np.random.default_rng(5).uniform(-1.0, 1.0, fw.m)
    for call in (lambda: stress_persists(fw, perturbed, Sublattice(2, 1, 3)),
                 lambda: check_periodic_stress(fw, perturbed)):
        with pytest.raises(AssertionError, match="copy shifts built"):
            call()


@pytest.mark.parametrize("scale, stress", [(1e-7, [0.0, 1.0]), (1e7, [0.0, 1e-19])])
def test_every_residual_can_refuse_a_stress_alone(scale, stress):
    """On a square grid of lattice scale 1e-7 only the second lattice
    residual exceeds STRESS_RTOL, and at scale 1e7 with a tiny stress only
    the tensor residual does: each alone refuses the stress, directly and
    on every relaxation, as the dense oracle does."""
    fw = PeriodicFramework(scale * np.eye(2), [[0.0, 0.0]], [(0, 0, (1, 0)), (0, 0, (0, 1))])
    s = np.array(stress)
    direct = check_periodic_stress(fw, s)
    assert (direct.ok, direct.verdicts_agree) == oracle_stress_check(fw, s) == (False, False)
    for sub in sublattices_up_to(4):
        unfolded = relax(fw, sub)
        copied = copy_stress(unfolded, s)
        assert not stress_persists(fw, s, sub), sub
        assert oracle_stress_check(unfolded, copied) == (False, False), sub


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_stress_is_not_periodic(value):
    """A stress with a NaN or infinite value on any one orbit is not
    periodic, on the framework or after any relaxation up to index 3, and
    its lattice and tensor verdicts agree or not as the dense oracle's do."""
    for name in FIXTURE_NAMES:
        fw = fixture(name)
        basis = periodic_stress_space(fw)
        for k in range(fw.m):
            s = basis[0].values.copy() if basis else np.ones(fw.m)
            s[k] = value
            direct = check_periodic_stress(fw, s)
            assert not direct.ok, (name, k)
            assert direct.verdicts_agree == oracle_stress_check(fw, s)[1], (name, k)
            for sub in sublattices_up_to(3):
                unfolded = relax(fw, sub)
                copied = copy_stress(unfolded, s)
                relaxed = check_periodic_stress(unfolded, copied)
                assert not stress_persists(fw, s, sub), (name, k, sub)
                assert not relaxed.ok, (name, k, sub)
                assert relaxed.verdicts_agree == oracle_stress_check(unfolded, copied)[1], \
                    (name, k, sub)


def test_probe_reads_no_connectivity_when_closed_walks_reach_every_shift(monkeypatch):
    """With p t = 1 in the closed-walk basis (p, q, t), every minor gcd of
    ``_joined_index`` is 1, so the probe connects every relaxation without
    reading it."""
    def refuse(*args):
        raise AssertionError("connectivity read")

    fw = fixture("cubes")
    expected = ultrarigidity_probe(fw, 6)
    monkeypatch.setattr(PeriodicFramework, "_joined_index", refuse)
    assert fw.cycle_basis == (1, 0, 1)
    assert ultrarigidity_probe(fw, 6) == expected


def test_enumeration_lists_are_fresh():
    """Each call of the enumerations returns a new list, so changing one
    changes neither a later call nor the probe's entries."""
    expected = list(sublattices_up_to(6))
    probed = [e.sublattice for e in ultrarigidity_probe(fixture("ppt3"), 6).entries]
    assert probed == expected
    first = sublattices_up_to(6)
    first.reverse()
    first.append(Sublattice(1, 0, 7))
    of_four = sublattices_of_index(4)
    of_four.clear()
    assert sublattices_up_to(6) == expected
    assert sublattices_of_index(4) == [sub for sub in expected if sub.index == 4]
    report = ultrarigidity_probe(fixture("ppt3"), 6)
    assert [e.sublattice for e in report.entries] == expected
    report.entries.clear()
    assert [e.sublattice for e in ultrarigidity_probe(fixture("ppt3"), 6).entries] == expected


def test_oversize_relaxation_is_refused(monkeypatch):
    # cubes has n = 3, m = 6: index * 6 against a cap of 60
    monkeypatch.setattr(relax_module, "_MAX_UNFOLD", 60)
    cb = fixture("cubes")
    assert relax(cb, Sublattice(2, 1, 5)).m == 60
    assert stress_persists(cb, np.zeros(cb.m), Sublattice(5, 0, 2))
    for sub in (Sublattice(1, 0, 11), Sublattice(3, 2, 4),
                Sublattice.from_matrix([[2**62, 0], [0, 2**62]])):
        with pytest.raises(FrameworkError, match="relaxation too large"):
            relax(cb, sub)
        with pytest.raises(FrameworkError, match="relaxation too large"):
            stress_persists(cb, np.zeros(cb.m), sub)


def test_sublattice_refuses_a_fractional_entry():
    """``Sublattice(1.5, 0, 2)`` once read index 3.0 and sent ``relax`` to an
    unknown vertex; it is refused by name before either runs."""
    for entries, given in (((1.5, 0, 2), "a"), ((1, 0.5, 2), "b"), ((1, 0, "2"), "d")):
        with pytest.raises(FrameworkError, match=r"^sublattice %s must be an integer, got "
                           % given):
            Sublattice(*entries)


def test_sublattice_stores_integral_floats_as_ints():
    """``Sublattice(2.0, 0, 2)`` is the index-4 sublattice (2, 0, 2) with int
    entries, so ``stress_persists`` runs where it raised TypeError."""
    sub = Sublattice(2.0, np.int64(0), np.float64(2.0))
    assert sub == Sublattice(2, 0, 2)
    assert [type(v) for v in (sub.a, sub.b, sub.d, sub.index)] == [int] * 4
    cb = fixture("cubes")
    s = periodic_stress_space(cb)[0].values
    assert relax(cb, sub).n == relax(cb, Sublattice(2, 0, 2)).n == 4 * cb.n
    assert stress_persists(cb, s, sub) == stress_persists(cb, s, Sublattice(2, 0, 2))


@pytest.mark.parametrize("entry, shown", [(1.5, "1.5"), ("2", "'2'"), (float("nan"), "nan"),
                                          (None, "None"), ([2], r"\[2\]")])
def test_sublattice_matrix_refuses_non_integer_entries(entry, shown):
    """A fractional, string, NaN or missing entry is refused by name, where
    1.5 once truncated to 1, a string was parsed and NaN raised a bare
    ValueError; an integral float reads as its int."""
    with pytest.raises(FrameworkError, match=r"^sublattice matrix entry must be an integer, "
                       r"got %s$" % shown):
        Sublattice.from_matrix([[entry, 0], [0, 2]])
    assert Sublattice.from_matrix([[2.0, 0.0], [1.0, 2]]) == Sublattice(2, 1, 2)
    for ragged in ([[1, 0], [2]], [[1, 0, 0], [0, 1, 0]], 3):
        with pytest.raises(FrameworkError, match="^sublattice matrix must be 2x2$"):
            Sublattice.from_matrix(ragged)


def test_enumeration_and_probe_read_integral_counts():
    """Counts are read as sublattice entries are: 3.0 is 3, 2.5 is refused
    by name, where all of them raised TypeError."""
    ppt3 = fixture("ppt3")
    rep = ultrarigidity_probe(ppt3, 3.0)
    assert rep.max_index == 3 and type(rep.max_index) is int
    assert _probe_entries(ppt3, 3) == [(e.sublattice.a, e.sublattice.b, e.sublattice.d,
                                        e.phi, e.sigma) for e in rep.entries]
    assert sublattices_of_index(2.0) == sublattices_of_index(2)
    assert sublattices_up_to(np.int64(3)) == sublattices_up_to(3)
    for call, name in ((lambda: sublattices_up_to(2.5), "max_index"),
                       (lambda: sublattices_of_index("2"), "index"),
                       (lambda: ultrarigidity_probe(ppt3, 3.5), "max_index")):
        with pytest.raises(FrameworkError, match=r"^%s must be an integer, got " % name):
            call()


def test_sublattice_matrix_refuses_entries_beyond_int64():
    big = Sublattice.from_matrix([[2**63 - 1, 0], [-2**63, 1]])
    assert (big.a, big.b, big.d) == (2**63 - 1, 0, 1)
    for entry in (2**63, -2**63 - 1, 10**30):
        with pytest.raises(FrameworkError, match="64-bit integers"):
            Sublattice.from_matrix([[1, entry], [0, 1]])


def _probe_entries(fw, max_index):
    return [(e.sublattice.a, e.sublattice.b, e.sublattice.d, e.phi, e.sigma)
            for e in ultrarigidity_probe(fw, max_index).entries]


@pytest.mark.parametrize("name, max_index", [
    ("square_grid", 12), ("kagome", 12), ("reentrant", 12), ("cubes", 12),
    ("ppt3", 16), ("ultrarigid", 16)])
def test_probe_matches_dense_oracle(name, max_index):
    fw = fixture(name)
    assert _probe_entries(fw, max_index) == oracle_probe_entries(fw, max_index)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(["kagome", "cubes", "ppt3", "reentrant"]),
       abd=st.sampled_from([(1, 0, 1), (2, 0, 1), (1, 0, 2), (1, 1, 2)]),
       scale=st.sampled_from([0.0, 0.01, 0.1]),
       seed=st.integers(0, 2**32 - 1),
       max_index=st.integers(1, 6))
def test_character_counts_equal_dense_counts(name, abd, scale, seed, max_index):
    fw = relax(fixture(name), Sublattice(*abd))
    rng = np.random.default_rng(seed)
    fw = fw.with_geometry(fw.positions + scale * rng.uniform(-1.0, 1.0, fw.positions.shape),
                          fw.lattice + scale * rng.uniform(-1.0, 1.0, (2, 2)))
    assert _probe_entries(fw, max_index) == oracle_probe_entries(fw, max_index)


def test_probe_ranks_one_block_per_conjugate_pair(monkeypatch):
    # up to index 16: 3 real characters of order 2 and 610 conjugate pairs
    # of higher order, 613 of the 1,223 nontrivial characters, plus R
    ranked = Counter()
    svd_rank = rigidity_module._svd_rank

    def counted(A, *args, **kwargs):
        ranked[np.ndim(A)] += len(A) if np.ndim(A) == 3 else 1
        return svd_rank(A, *args, **kwargs)

    monkeypatch.setattr(rigidity_module, "_svd_rank", counted)
    rep = ultrarigidity_probe(fixture("ppt3"), 16)
    assert ranked == Counter({2: 1, 3: 613})
    assert len(rep.entries) == len(sublattices_up_to(16))


def _first_refused(fw, max_index):
    """First sublattice at which the dense oracle's unfolding is refused."""
    for sub in sublattices_up_to(max_index):
        try:
            oracle_relax(fw, sub)
        except FrameworkError:
            return sub
    return None


@pytest.mark.parametrize("fw, first", [
    # no edges: every relaxation of index > 1 falls apart
    (PeriodicFramework(np.eye(2), [[0.0, 0.0]], []), (1, 0, 2)),
    # closed walks shift by (2, 0) and (0, 1) only
    (PeriodicFramework(np.eye(2), [[0.0, 0.0]], [(0, 0, (2, 0)), (0, 0, (0, 1))]),
     (2, 0, 1)),
    # closed walks shift by (3, 0) and (0, 1): two orbits joined twice
    (PeriodicFramework(np.eye(2), [[0.0, 0.0], [0.4, 0.3]],
                       [(0, 1, (0, 0)), (0, 1, (3, 0)), (0, 0, (0, 1))]),
     (3, 0, 1)),
    # closed walks shift by (1, 1) and (0, 2): the third index-2 sublattice
    (PeriodicFramework(np.eye(2), [[0.0, 0.0], [0.4, 0.3]],
                       [(0, 1, (0, 0)), (0, 1, (1, 1)), (0, 1, (0, 2))]),
     (1, 1, 2)),
])
def test_probe_refuses_disconnected_relaxations(fw, first):
    sub = _first_refused(fw, 4)
    assert (sub.a, sub.b, sub.d) == first
    ultrarigidity_probe(fw, sub.index - 1)
    with pytest.raises(FrameworkError, match="disconnected quotient graph.*"
                       r"\(a=%d, b=%d, d=%d\)" % first):
        ultrarigidity_probe(fw, 4)


def _probe_refusal_frameworks():
    """The fixtures, their relaxations up to index 2, and one-vertex
    frameworks whose closed walks shift only by the given pairs."""
    out = {}
    for name in FIXTURE_NAMES:
        for sub in sublattices_up_to(2):
            out["%s %d,%d,%d" % (name, sub.a, sub.b, sub.d)] = relax(fixture(name), sub)
        out[name] = fixture(name)
    for shifts in (((2, 0), (0, 1)), ((1, 0), (1, 3)), ((2, 3), (4, 1)), ((0, 3), (0, -6))):
        out["walks %r" % (shifts,)] = _disconnecting(shifts)
    return out


PROBE_REFUSAL_FRAMEWORKS = _probe_refusal_frameworks()


def _first_disconnected(fw, max_index):
    """First sublattice, in enumeration order, whose unfolding ``relax``
    refuses as a disconnected quotient graph; None when none is."""
    for sub in sublattices_up_to(max_index):
        try:
            relax(fw, sub)
        except FrameworkError as exc:
            if "disconnected quotient graph" in str(exc):
                return sub
    return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(PROBE_REFUSAL_FRAMEWORKS)), max_index=st.integers(1, 8))
@example(name="walks ((2, 0), (0, 1))", max_index=8)
@example(name="walks ((1, 0), (1, 3))", max_index=8)
@example(name="walks ((2, 3), (4, 1))", max_index=8)
@example(name="walks ((0, 3), (0, -6))", max_index=8)
@example(name="cubes 2,0,1", max_index=8)
@example(name="ultrarigid 1,1,2", max_index=8)
def test_probe_refuses_where_relax_finds_a_disconnected_quotient(name, max_index):
    """The probe refuses exactly when ``relax``, whose constructor walks the
    unfolded quotient graph, finds some relaxation up to max_index
    disconnected, and names the first such sublattice."""
    fw = PROBE_REFUSAL_FRAMEWORKS[name]
    first = _first_disconnected(fw, max_index)
    if first is None:
        rep = ultrarigidity_probe(fw, max_index)
        assert [e.sublattice for e in rep.entries] == sublattices_up_to(max_index)
        return
    with pytest.raises(FrameworkError) as refused:
        ultrarigidity_probe(fw, max_index)
    assert str(refused.value) == ("disconnected quotient graph: relaxation to sublattice "
                                  "(a=%d, b=%d, d=%d)" % (first.a, first.b, first.d))


def test_probe_refuses_straddling_character_block():
    fw = straddling_framework()
    assert flex_space(fw)[1].rank_gap > 1e6
    rep = ultrarigidity_probe(fw, 1)
    assert [(e.phi, e.sigma) for e in rep.entries] == [(2, 2)]
    with pytest.raises(NumericalError, match="rank instability"):
        ultrarigidity_probe(fw, 2)


def _probe_outcome(fw, max_index):
    """Probe entries as (a, b, d, phi, sigma) tuples, or the refusal."""
    try:
        rep = ultrarigidity_probe(fw, max_index)
    except (FrameworkError, NumericalError) as err:
        return type(err).__name__, str(err)
    return [(e.sublattice.a, e.sublattice.b, e.sublattice.d, e.phi, e.sigma)
            for e in rep.entries]


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("straddling",))
def test_probe_reads_the_same_without_the_full_rank_certificate(name, monkeypatch):
    """Certified blocks skip their SVD and change nothing: the probe to
    index 12 on a framework and on each of its relaxations up to index 4
    gives the same entries and refusals with the certificate switched off,
    so that every block is decomposed.  The straddling framework and its
    relaxations are refused for their gaps (a disconnected relaxation is
    refused before any block is ranked)."""
    base = straddling_framework() if name == "straddling" else fixture(name)
    frameworks = [relax(base, sub) for sub in sublattices_up_to(4)]
    certified = [_probe_outcome(fw, 12) for fw in frameworks]
    monkeypatch.setattr(rigidity_module, "_full_rank", lambda A: np.zeros(len(A), dtype=bool))
    assert certified == [_probe_outcome(fw, 12) for fw in frameworks]
    refused = [outcome for outcome in certified if isinstance(outcome, tuple)]
    assert bool(refused) == (name == "straddling"), refused


@pytest.mark.parametrize("abd", [(2, 0, 1), (1, 2, 3), (3, 2, 4)])
def test_relaxation_shift_sums_stay_in_int64(abd):
    """Shifts at the largest entry the guard admits unfold as the oracle's
    Python-int arithmetic does, and one more is refused by ``relax`` and
    ``stress_persists`` before any arithmetic.  A loop (2**63 - 1, 0)
    relaxed to (2, 0, 1) once gave copy 1 the shift +2**62, not -2**62."""
    sub = Sublattice(*abd)
    room = (2 ** 63 - 1 - sub.index) // (sub.index + 2) - 1

    def loops(c):
        return PeriodicFramework(np.eye(2), [[0.0, 0.0]],
                                 [(0, 0, (1, 0)), (0, 0, (c, 1)), (0, 0, (1, -c))])

    fw = loops(room)
    got, want = relax(fw, sub), oracle_relax(fw, sub)
    assert sorted(map(got.edge_key, range(got.m))) == sorted(map(want.edge_key, range(want.m)))
    s = np.array([1.0, -0.5, 0.25])
    assert stress_persists(fw, s, sub) == check_periodic_stress(got, copy_stress(got, s)).ok
    for fw in (loops(room + 1), loops(2 ** 63 - 1)):
        for call in (lambda: relax(fw, sub), lambda: stress_persists(fw, s, sub)):
            with pytest.raises(FrameworkError, match="too large for a relaxation of index %d"
                               % sub.index):
                call()
    # index 1 unfolds nothing and keeps every shift
    assert relax(loops(2 ** 63 - 1), Sublattice(1, 0, 1)).edge_key(1) == (0, 0, (2 ** 63 - 1, 1))
