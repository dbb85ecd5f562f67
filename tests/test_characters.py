"""The one character table behind the ultrarigidity probe and the block
ranks: conjugate classes keyed by reduced form."""

import importlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimax import (FrameworkError, PeriodicFramework, fixture, relax, rigidity_matrix,
                     sublattices_up_to, ultrarigidity_probe)
from perimax.relax import Sublattice, _probe_sublattices

rigidity = importlib.import_module("perimax.rigidity")


def _oracle_class(x, y, k):
    """(N, x, y) of the character exp(2 pi i (x z1 + y z2) / k) in lowest
    terms, with (x, y) the lexicographically smaller of it and its
    conjugate."""
    g = math.gcd(math.gcd(x, y), k)
    x, y, n = x // g, y // g, k // g
    return (n,) + min((x, y), (-x % n, -y % n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(subs=st.lists(st.tuples(st.integers(1, 9), st.integers(0, 8), st.integers(1, 9))
                     .map(lambda t: (t[0], t[1] % t[2], t[2])), min_size=1, max_size=6))
def test_classes_match_scalar_oracle(subs):
    """Every character of every sublattice, enumerated one (theta1, theta2)
    at a time, lands in its conjugate class; each sublattice holds index - 1
    entries, and the classes are distinct and in (N, x, y) order."""
    subs = tuple(subs)
    classes, inverse, owner = rigidity._character_classes(subs)
    rows = [tuple(row) for row in classes.tolist()]
    assert rows == sorted(set(rows))
    got = Counter(zip(owner.tolist(), (rows[c] for c in inverse.tolist())))
    want = Counter()
    for i, (a, b, d) in enumerate(subs):
        k = a * d
        # theta = (x, y) / k is a character of Z^2 / M Z^2 when theta.M is integral
        for x in range(k):
            for y in range(k):
                if (a * x + b * y) % k == 0 and (d * y) % k == 0 and (x, y) != (0, 0):
                    want[i, _oracle_class(x, y, k)] += 1
    assert got == want
    assert np.bincount(owner, minlength=len(subs)).tolist() == [a * d - 1 for a, _, d in subs]


def _counted_svd_ranks(monkeypatch):
    ranked = Counter()
    svd_rank = rigidity._svd_rank

    def counted(A, *args, **kwargs):
        ranked[np.ndim(A)] += len(A) if np.ndim(A) == 3 else 1
        return svd_rank(A, *args, **kwargs)

    monkeypatch.setattr(rigidity, "_svd_rank", counted)
    return ranked


@pytest.mark.parametrize("abd, blocks", [
    # Z4 x Z4: 3 real characters and 6 conjugate pairs
    ((4, 0, 4), 9),
    # Z16: 1 real character and 7 conjugate pairs
    ((4, 1, 4), 8),
])
def test_block_rank_ranks_one_block_per_conjugate_pair(abd, blocks, monkeypatch):
    fw = relax(fixture("ppt3"), Sublattice(*abd))
    assert fw.n > rigidity.DENSE_RANK_MAX_N
    dense = rigidity._svd_rank(rigidity_matrix(fw))[1]
    ranked = _counted_svd_ranks(monkeypatch)
    rank, _ = rigidity._block_rank(fw)
    assert rank == dense
    assert ranked == Counter({2: 1, 3: blocks})


def test_unit_roots_are_bitwise_exp():
    """The roots table holds exp(2 pi i t / N), bitwise as ``np.exp``
    computes it, for every turn t < N of every class order N up to
    max_index 64, and its exact conjugate at -t."""
    classes = rigidity._character_classes(_probe_sublattices(64)[1])[0]
    orders = np.unique(classes[:, 0])
    assert orders.tolist() == list(range(2, 65))
    roots, start = rigidity._unit_roots(tuple(orders.tolist()))
    for N in orders[:, None, None]:
        t = np.arange(N[0, 0])[None, :]
        want = np.exp(2j * np.pi * t / N)
        assert roots[start[N] + t].tobytes() == want.tobytes()
        assert roots[start[N] - t[:, 1:]].tobytes() == want[:, 1:].conj().tobytes()


def _two_loops(size):
    """One vertex orbit with a loop along each generator: the first of
    length about 0.3, the second of length ``size``."""
    return PeriodicFramework(np.array([[0.1, 0.7 * size], [0.3, 0.2 * size]]), [[0.0, 0.0]],
                             [(0, 0, (1, 0)), (0, 0, (0, 1))])


@pytest.mark.parametrize("name", ["square_grid", "kagome", "reentrant", "ppt3", "cubes",
                                  "ultrarigid", "two loops"])
def test_assembled_gram_matches_block_product(name):
    """At seeded random unit phases, some of them 1, the Gram matrices
    that ``_character_blocks`` assembles from the edge terms equal the
    product of the built blocks, in the lower triangle and diagonal that
    the certificate reads, within 4 (m + 1) eps tr G (a Gram entry sums at
    most m + 1 terms, each no larger than the rows' share of tr G), on the
    fixture and on each of its relaxations up to index 4: loops
    (square_grid), m = 2n, m > 2n (ultrarigid), and a loop 1e5 times
    longer than the other, whose phase 1 must add exactly nothing.  Where m
    < 2n (reentrant) the Gram of the smaller side is R R^H, which the edge
    terms do not give, so the probe takes the product."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "two loops":
        frameworks = [_two_loops(size) for size in (1e-3, 1e-5, 1e-7)]
    else:
        frameworks = [fixture(name)] + [relax(fixture(name), sub) for sub in sublattices_up_to(4)]
    for fw in frameworks:
        N = rng.integers(2, 65, (24, 1))
        turns = rng.integers(0, 2 ** 62, (24, fw.m)) % N
        turns[:4] *= rng.integers(0, 2, (4, fw.m))    # phases 1
        roots, start = rigidity._unit_roots(tuple(np.unique(N).tolist()))
        build, tabulate = rigidity._character_blocks(fw)
        product = rigidity._gram(build(roots, start[N], turns))
        if fw.m < 2 * fw.n:
            assert name == "reentrant"
            continue
        assembled = tabulate()(roots, start[N], turns)
        assert assembled.shape == product.shape == (24, 2 * fw.n, 2 * fw.n)
        trace = np.trace(product, axis1=1, axis2=2).real
        bound = 4 * (fw.m + 1) * np.finfo(float).eps * trace[:, None, None]
        assert (np.abs(np.tril(assembled - product)) <= bound).all()


@pytest.mark.parametrize("size", [1e-5, 1e-7])
def test_a_short_loop_is_not_certified_by_a_long_one(size, monkeypatch):
    """Where the long loop's phase is 1 its row is zero, and the block has
    rank 1: rounding of the long loop's terms must not fill the Gram and
    certify rank 2.  The probe reads the same with the certificate off."""
    fw = _two_loops(size)
    certified = [(e.phi, e.sigma) for e in ultrarigidity_probe(fw, 8).entries]
    monkeypatch.setattr(rigidity, "_full_rank", lambda G: np.zeros(len(G), dtype=bool))
    assert [(e.phi, e.sigma) for e in ultrarigidity_probe(fw, 8).entries] == certified


def test_gram_route_by_shape(monkeypatch):
    """The edge terms assemble the Gram stacks only where m >= 2n and a
    chunk holds at least as many classes as the table has rows (m + 1): on
    ``ppt3`` to index 16 (613 classes, 7 rows) and ``square_grid`` (two
    loops, 3 rows), not on ``reentrant`` (m = 3 < 2n = 4) nor on ``ppt3``
    to index 2 (3 classes), whose chunks reach the ranking as blocks."""
    chunks = []
    svd_rank = rigidity._svd_rank

    def counted(A, *args):
        if np.ndim(A) == 3:
            chunks.append((A.shape, bool(args)))
        return svd_rank(A, *args)

    monkeypatch.setattr(rigidity, "_svd_rank", counted)
    for name, max_index in (("reentrant", 16), ("ppt3", 2), ("ppt3", 16), ("square_grid", 16)):
        ultrarigidity_probe(fixture(name), max_index)
    assert chunks == [((613, 3, 4), False), ((3, 6, 6), False), ((613, 6, 6), True),
                      ((613, 2, 2), True)]


def test_probe_at_the_index_cap():
    rep = ultrarigidity_probe(fixture("ultrarigid"), 64)
    assert rep.ultrarigid and rep.first_failure is None
    assert len(rep.entries) == 3403
    assert all(entry.phi == 0 for entry in rep.entries)
    with pytest.raises(FrameworkError, match="max_index must be between 1 and 64"):
        ultrarigidity_probe(fixture("ultrarigid"), 65)


@pytest.mark.parametrize("shift, first", [(2 ** 62, (2, 0, 1)), (2 ** 62 + 1, (3, 0, 1))])
def test_disconnected_check_reads_cycle_bases_beyond_int64(shift, first):
    """Closed walks shift by (2**62 + shift, 0) and (0, 1), so the relaxation
    to (a, 0, 1) is disconnected exactly when a divides 2**62 + shift.  The
    basis entry is past int64 and its minors are taken in exact Python ints:
    2**63 + 1 is odd, so (2, 0, 1) stays connected and (3, 0, 1) is the
    first cut."""
    fw = PeriodicFramework(np.eye(2), [[0.0, 0.0], [0.5, 0.2]],
                           [(0, 1, (2 ** 62, 0)), (1, 0, (shift, 0)), (0, 0, (0, 1))])
    assert fw.cycle_basis == (2 ** 62 + shift, 0, 1)
    with pytest.raises(FrameworkError, match=r"disconnected quotient graph: relaxation to "
                       r"sublattice \(a=%d, b=%d, d=%d\)" % first):
        ultrarigidity_probe(fw, 3)
