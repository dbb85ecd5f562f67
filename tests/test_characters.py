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
                     ultrarigidity_probe)
from perimax.relax import Sublattice

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

    def counted(A):
        ranked[np.ndim(A)] += len(A) if np.ndim(A) == 3 else 1
        return svd_rank(A)

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
