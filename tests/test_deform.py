"""Deformation paths: tangents, expansiveness, auxetic verdicts, events."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimax import (
    Configuration,
    FrameworkError,
    NumericalError,
    auxetic_tangent_check,
    continue_path,
    contraction_check,
    expansive_check,
    fixture,
    flex_tangent,
    gram_derivative,
)
from perimax.deform import ExpansiveReport, _constraint_system, _edge_lengths_sq
from perimax.pseudotri import pair_length_derivative
from perimax.relax import Sublattice, relax
from perimax.rigidity import gauge_reduced_kernel

from conftest import oracle_gram_rate_fd

GRAM_SHAPE = np.array([[2.0, 1.0], [1.0, 2.0]])


def rotation(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


def gauged_kagome(theta):
    return Configuration.from_framework(fixture("kagome", theta=theta))


def analytic_kagome_rate(theta):
    """Exact theta-derivative of the gauge-fixed parametrization.

    The gauge rotation angle is exactly theta / 2, giving closed forms for
    both the position and the lattice rates.
    """
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    cfg = gauged_kagome(theta)
    dpos = -0.5 * cfg.positions @ J.T
    u = np.array([1.0, 0.0])
    v = np.array([0.5, 0.5 * math.sqrt(3.0)])
    dlam = J @ rotation(theta) @ np.column_stack([u, v])
    dlat = -0.5 * J @ cfg.lattice + rotation(-theta / 2) @ dlam
    return np.concatenate([dpos.ravel(), dlat[:, 0], dlat[:, 1]])


def test_gauge_fix():
    cfg = gauged_kagome(1.2)
    assert cfg.gauge_ok()
    assert cfg.lattice[0, 0] > 0
    # gauge preserves the Gram matrix
    fw = fixture("kagome", theta=1.2)
    assert np.abs(cfg.gram() - fw.lattice.T @ fw.lattice).max() < 1e-12


def test_flex_tangent_unique_and_matches_analytic():
    theta = math.pi / 2
    cfg = gauged_kagome(theta)
    fw = fixture("kagome", theta=theta)
    t = flex_tangent(cfg, fw)
    assert abs(np.linalg.norm(t) - 1.0) < 1e-12
    a = analytic_kagome_rate(theta)
    cosim = abs(float(t @ a)) / np.linalg.norm(a)
    assert cosim > 1 - 1e-8


def test_flex_tangent_rejects_rigid():
    fw = fixture("ultrarigid")
    cfg = Configuration.from_framework(fw)
    with pytest.raises(NumericalError, match="not one-dimensional"):
        flex_tangent(cfg, fw)


def test_ppt3_tangent_unique():
    fw = fixture("ppt3")
    cfg = Configuration.from_framework(fw)
    gauged = fw.with_geometry(cfg.positions, cfg.lattice)
    assert gauge_reduced_kernel(gauged).shape[1] == 1


def test_gram_derivative_analytic():
    for theta in (0.6, 1.1, math.pi / 2, 2.0):
        cfg = gauged_kagome(theta)
        rate = gram_derivative(cfg, analytic_kagome_rate(theta))
        expected = -math.sin(theta) * GRAM_SHAPE
        assert np.abs(rate - expected).max() < 1e-8


def test_gram_derivative_zero_tangent():
    cfg = gauged_kagome(1.0)
    assert np.abs(gram_derivative(cfg, np.zeros(10))).max() == 0.0


def test_gram_derivative_matches_finite_differences():
    rate = gram_derivative(gauged_kagome(1.3), analytic_kagome_rate(1.3))
    fd = oracle_gram_rate_fd(gauged_kagome, 1.3)
    assert np.abs(rate - fd).max() < 1e-8 * max(1.0, np.abs(fd).max())


def test_expansive_check_kagome():
    theta = math.pi / 2
    cfg = gauged_kagome(theta)
    fw = fixture("kagome", theta=theta)
    t = flex_tangent(cfg, fw, cutoff=2)
    assert expansive_check(cfg, t, 2).ok
    rep = expansive_check(cfg, -t, 2)
    assert not rep.ok and rep.min_rate < 0


def test_expansive_fails_outside_range():
    theta = math.pi / 6
    fw = fixture("kagome", theta=theta)
    cfg = Configuration.from_framework(fw)
    t = flex_tangent(cfg, fw)
    gauged = fw.with_geometry(cfg.positions, cfg.lattice)
    d_ad = pair_length_derivative(gauged, t, 1, 2, (0, 1))
    d_bc = pair_length_derivative(gauged, t, 1, 2, (-1, 0))
    assert d_ad * d_bc < 0
    assert not expansive_check(cfg, t, 2).ok
    assert not expansive_check(cfg, -t, 2).ok


def test_auxetic_tangent_check_examples():
    assert auxetic_tangent_check(np.zeros((2, 2)))
    theta = 1.0
    assert auxetic_tangent_check(math.sin(theta) * GRAM_SHAPE)
    assert not auxetic_tangent_check(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_contraction_check_examples():
    L = np.array([[2.0, 0.5], [0.0, 1.0]])
    ok, norm = contraction_check(L, L)
    assert ok and abs(norm - 1.0) < 1e-12
    ok, norm = contraction_check(0.5 * L, L)
    assert ok and abs(norm - 0.5) < 1e-12
    ok, norm = contraction_check(L, 0.5 * L)
    assert not ok and abs(norm - 2.0) < 1e-12


def test_contraction_closed_form_kagome():
    th1, th2 = 1.4, 0.9   # lattice grows as theta decreases
    l1 = gauged_kagome(th1).lattice
    l2 = gauged_kagome(th2).lattice
    ok, norm = contraction_check(l1, l2)
    expected = math.sqrt((1 + math.cos(th1)) / (1 + math.cos(th2)))
    assert ok and abs(norm - expected) < 1e-12


def test_zero_step_path():
    path = continue_path(fixture("kagome"), steps=0)
    assert len(path.samples) == 1
    assert path.samples[0].gram_rate is None
    assert path.samples[0].expansive is None


def test_kagome_path_terminates_at_boundary():
    path = continue_path(fixture("kagome", theta=math.pi / 2), steps=200,
                         ds=2e-2)
    assert path.termination.startswith("event")
    assert "pointedness lost" in path.termination or "flat corner" in path.termination
    w = path.final.gram
    theta_star = math.acos(w[0, 0] / 2.0 - 1.0)
    assert abs(theta_star - math.pi / 3) < 1e-6


def test_path_conserves_lengths_and_verdicts():
    fw = fixture("ppt3")
    path = continue_path(fw, steps=100, ds=1e-2)
    ref = np.linalg.norm(
        fw.with_geometry(path.samples[0].configuration.positions,
                         path.samples[0].configuration.lattice)
        .edge_vectors(), axis=1)
    for s in path.samples:
        g = fw.with_geometry(s.configuration.positions, s.configuration.lattice)
        drift = np.abs(np.linalg.norm(g.edge_vectors(), axis=1) - ref)
        assert drift.max() < 1e-10 * max(1.0, ref.max())
        if s.expansive:
            assert s.auxetic
    taus = [s.tau for s in path.samples]
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_auxetic_path_contraction_consistency():
    # contraction must hold for ALL sample pairs, not just adjacent ones
    path = continue_path(fixture("kagome", theta=math.pi / 2), steps=60,
                         ds=1e-2)
    samples = [s for s in path.samples if s.auxetic]
    assert len(samples) > 50
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            ok, _ = contraction_check(samples[i].configuration.lattice,
                                      samples[j].configuration.lattice)
            assert ok


def test_gram_rate_fd_along_path():
    fw = fixture("ppt3")
    path = continue_path(fw, steps=20, ds=1e-2)
    for s in path.samples[:-1]:
        if s.gram_rate is None:
            continue
        # finite differences along the tangent direction
        cfg = s.configuration
        t = flex_tangent(cfg, fw)
        if float(np.trace(gram_derivative(cfg, t)) * np.trace(s.gram_rate)) < 0:
            t = -t
        h = 1e-5
        n = cfg.n

        def shifted(sign):
            z = cfg.as_vector() + sign * h * t
            return Configuration.from_vector(z, n).gram()

        fd = (shifted(+1) - shifted(-1)) / (2 * h)
        assert np.abs(fd - s.gram_rate).max() < 1e-6 * max(1.0, np.abs(fd).max())


def test_auxetic_but_not_expansive_tangent_exists():
    """The two-parameter mechanism admits auxetic tangents that contract
    some vertex pair."""
    fw = fixture("reentrant")
    cfg = Configuration.from_framework(fw)
    gauged = fw.with_geometry(cfg.positions, cfg.lattice)
    basis = gauge_reduced_kernel(gauged)
    assert basis.shape[1] == 2
    found = False
    for ang in np.linspace(0.0, 2 * math.pi, 181):
        t = math.cos(ang) * basis[:, 0] + math.sin(ang) * basis[:, 1]
        dom = gram_derivative(cfg, t)
        if auxetic_tangent_check(dom) and not expansive_check(cfg, t, 2).ok:
            found = True
            break
    assert found


def _expansive_check_loop(cfg, tangent, cutoff=2):
    """Reference: the per-pair loop over (u, v, c) in table order."""
    n = cfg.n
    dlat = np.column_stack([tangent[2 * n:2 * n + 2], tangent[2 * n + 2:]])
    vel = tangent[:2 * n].reshape(n, 2)
    min_rate, min_pair = math.inf, None
    max_abs, max_pair, top_signed = -1.0, None, 0.0
    for u in range(n):
        for v in range(u, n):
            for c1 in range(-cutoff, cutoff + 1):
                for c2 in range(-cutoff, cutoff + 1):
                    if u == v and (c1 < 0 or (c1 == 0 and c2 <= 0)):
                        continue
                    cvec = np.array([c1, c2], dtype=float)
                    sep = cfg.positions[v] + cfg.lattice @ cvec - cfg.positions[u]
                    rate = 2.0 * float(sep @ (vel[v] + dlat @ cvec - vel[u]))
                    if rate < min_rate:
                        min_rate, min_pair = rate, (u, v, (c1, c2))
                    if abs(rate) > max_abs:
                        max_abs, max_pair, top_signed = abs(rate), (u, v, (c1, c2)), rate
    if min_pair is None:
        return ExpansiveReport(True, 0.0, None)
    tol = 1e-9 * max(1.0, max_abs)
    return ExpansiveReport(min_rate >= -tol, min_rate, min_pair, top_signed, max_pair)


def _assert_same_report(got, ref):
    assert got.ok == ref.ok
    assert got.min_pair == ref.min_pair and got.top_pair == ref.top_pair
    assert np.sign(got.top_rate) == np.sign(ref.top_rate)
    assert abs(got.min_rate - ref.min_rate) <= 1e-12 * max(1.0, abs(ref.top_rate))


def _configurations():
    ppt3 = fixture("ppt3")
    return {
        "kagome": fixture("kagome", theta=math.pi / 2),
        "kagome-1.2": fixture("kagome", theta=1.2),
        "ppt3": ppt3,
        "ppt3-index2": relax(ppt3, Sublattice(1, 1, 2)),
        "reentrant": fixture("reentrant"),
    }


def test_expansive_check_matches_loop_along_paths():
    fws = _configurations()
    for name in ("kagome", "ppt3", "ppt3-index2"):
        fw = fws[name]
        for s in continue_path(fw, steps=15, ds=2e-2).samples:
            cfg = s.configuration
            t = flex_tangent(cfg, fw)
            for cutoff in (1, 2):
                _assert_same_report(expansive_check(cfg, t, cutoff),
                                    _expansive_check_loop(cfg, t, cutoff))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(["kagome", "kagome-1.2", "ppt3", "ppt3-index2",
                             "reentrant"]),
       cutoff=st.integers(0, 3), data=st.data())
def test_expansive_check_matches_loop_on_drawn_tangents(name, cutoff, data):
    cfg = Configuration.from_framework(_configurations()[name])
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    t = np.array(data.draw(st.lists(entries, min_size=2 * cfg.n + 4,
                                    max_size=2 * cfg.n + 4)))
    _assert_same_report(expansive_check(cfg, t, cutoff),
                        _expansive_check_loop(cfg, t, cutoff))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_expansive_check_rejects_nan_motion():
    cfg = gauged_kagome(math.pi / 2)
    with pytest.raises(NumericalError, match="non-finite"):
        expansive_check(cfg, np.full(2 * cfg.n + 4, np.nan))
    t = np.zeros(2 * cfg.n + 4)
    t[-1] = np.inf
    with pytest.raises(NumericalError, match="non-finite"):
        expansive_check(cfg, t)


def test_newton_iterate_gets_framework_checks():
    """A corrector iterate fails with the messages of the framework
    constructor, which validated every iterate before."""
    fw = fixture("ppt3")
    cfg = Configuration.from_framework(fw)
    n, z = fw.n, cfg.as_vector()
    ref_sq = _edge_lengths_sq(fw, cfg)
    F, J = _constraint_system(fw, z, ref_sq, n)
    assert np.abs(F).max() < 1e-12 and J.shape == (fw.m + 3, 2 * n + 4)
    bad = {
        "positions must be finite": (1, np.nan),
        "lattice must be a finite 2x2 matrix": (2 * n + 3, np.inf),
        "singular lattice": (2 * n + 2, None),
    }
    for message, (index, value) in bad.items():
        w = z.copy()
        if value is None:   # second generator parallel to the first
            w[2 * n + 2:] = 2.0 * w[2 * n:2 * n + 2]
        else:
            w[index] = value
        with pytest.raises(FrameworkError, match=message):
            _constraint_system(fw, w, ref_sq, n)
    w = z.copy()
    w[:2 * n] = 0.0     # every vertex orbit at the origin
    with pytest.raises(FrameworkError, match="zero-length edge orbit|coincide"):
        _constraint_system(fw, w, ref_sq, n)


def test_newton_jacobian_is_twice_the_rigidity_matrix():
    from perimax.rigidity import gauge_rows, rigidity_matrix

    fw = fixture("cubes")
    cfg = Configuration.from_framework(fw)
    gauged = fw.with_geometry(cfg.positions, cfg.lattice)
    _, J = _constraint_system(fw, cfg.as_vector(), _edge_lengths_sq(fw, cfg), fw.n)
    assert np.array_equal(J, np.vstack([2 * rigidity_matrix(gauged), gauge_rows(gauged)]))
