"""Deformation paths: tangents, expansiveness, auxetic verdicts, events."""

import json
import math
import re
import warnings
from unittest import mock

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
from perimax import core, deform, pseudotri, rigidity, topology
from perimax.deform import PSD_BAND, PSD_TOL, ExpansiveReport, _constraints
from perimax.pseudotri import certify_ppt, oriented_flex, pair_length_derivative
from perimax.relax import Sublattice, relax, sublattices_up_to
from perimax.rigidity import gauge_reduced_kernel

import conftest
from conftest import (oracle_auxetic_check, oracle_continue_path, oracle_gram_rate_fd,
                      oracle_pair_rates, oracle_ppt_margin)

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
    # first vertex at the origin, first lattice vector on the positive x-axis
    assert np.abs(cfg.positions[0]).max() <= 1e-12 and abs(cfg.lattice[1, 0]) <= 1e-12
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
    with pytest.raises(NumericalError, match="not one-dimensional"):
        oriented_flex(fw)


@pytest.mark.parametrize("name", ["ppt3", "kagome"])
def test_flex_tangent_and_oriented_flex_agree(name):
    """Both callers orient the flex by one rule: bitwise-equal tangents on
    every certified relaxation of index <= 4, at cutoffs 1 and 2, which are
    also those of the box rule (``conftest.box_oriented_flex``)."""
    base = fixture(name)
    checked = 0
    for sub in sublattices_up_to(4):
        fw = relax(base, sub)
        if not certify_ppt(fw).valid:
            continue
        cfg = Configuration.from_framework(fw)
        evecs = fw.with_geometry(cfg.positions, cfg.lattice).edge_vectors()
        for cutoff in (1, 2):
            _, tangent, _, _ = oriented_flex(fw, cutoff)
            assert np.array_equal(flex_tangent(cfg, fw), tangent), (sub, cutoff)
            boxed, _ = conftest.box_oriented_flex(*rigidity._flex_system(fw), cfg.positions,
                                                  cfg.lattice, evecs, cutoff)
            assert np.array_equal(boxed, tangent), (sub, cutoff)
            checked += 1
    assert checked == 30


@pytest.mark.parametrize("name", ["ppt3", "kagome"])
def test_area_rule_orients_paths_as_the_box_rule(name):
    """At every sample of forward and backward paths to their events, the
    flex turned to make the cell area grow is bitwise the one turned to
    make the pair-table pair with the largest |rate| expand, at cutoffs 1
    and 2: the auxetic sense is the expansive one."""
    fw = fixture(name)
    system = rigidity._flex_system(fw)
    checked = 0
    for ds in (1e-2, -1e-2):
        path = continue_path(fw, steps=200, ds=ds)
        assert path.termination.startswith("event")
        for s in path.samples:
            cfg = s.configuration
            evecs = fw.with_geometry(cfg.positions, cfg.lattice).edge_vectors()
            tangent = rigidity._oriented_flex(*system, cfg.lattice, evecs)
            for cutoff in (1, 2):
                boxed, _ = conftest.box_oriented_flex(*system, cfg.positions, cfg.lattice,
                                                      evecs, cutoff)
                assert np.array_equal(boxed, tangent), (ds, s.tau, cutoff)
                checked += 1
    assert checked > 100


def test_flex_with_no_area_rate_is_refused():
    """The square grid's flex is a shear, whose cell-area rate is exactly
    0: it has no expansive sense, and both readers refuse it by name."""
    fw = fixture("square_grid")
    with pytest.raises(NumericalError, match="no expansive sense"):
        flex_tangent(Configuration.from_framework(fw), fw)
    with pytest.raises(NumericalError, match="no expansive sense"):
        oriented_flex(fw)


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


def test_cutoff_is_read_as_an_integer(monkeypatch):
    """A pair-table cutoff of 1.5 is refused by name on the path, the
    expansive check and the rigidifying search, where it once read
    half-integer shifts (and a zero-length pair); 2.0 gives what 2 gives."""
    monkeypatch.setattr(rigidity, "_pair_grid", rigidity._pair_grid.__wrapped__)
    fw = fixture("ppt3")
    cfg = Configuration.from_framework(fw)
    t = flex_tangent(cfg, fw)
    calls = (lambda c: continue_path(fw, steps=3, cutoff=c),
             lambda c: expansive_check(cfg, t, c),
             lambda c: pseudotri.find_rigidifying_edges(fw, cutoff=c))
    for call in calls:
        with pytest.raises(FrameworkError, match=r"^cutoff must be an integer, got 1\.5$"):
            call(1.5)
    path, whole = calls[0](2.0), calls[0](2)
    assert path.termination == whole.termination
    assert [s.gram.tobytes() for s in path.samples] == [s.gram.tobytes() for s in whole.samples]
    assert calls[1](2.0) == calls[1](2)
    assert [(c.key, c.derivative) for c in calls[2](2.0)] == \
        [(c.key, c.derivative) for c in calls[2](2)]


def test_expansive_check_kagome():
    theta = math.pi / 2
    cfg = gauged_kagome(theta)
    fw = fixture("kagome", theta=theta)
    t = flex_tangent(cfg, fw)
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


def test_auxetic_check_refuses_malformed_rates():
    """A Gram rate with a NaN or infinite entry is refused (NumericalError):
    [[nan, 0], [0, 1]] once read auxetic, since max(1, nan, nan) kept 1 and
    ``eigvalsh`` returned [0, -0].  Any shape but 2 x 2 is refused
    (FrameworkError): a 3 x 3 rate once got a verdict."""
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(4):
            rate = np.eye(2)
            rate.flat[i] = bad
            with pytest.raises(NumericalError, match="^non-finite Gram rate$"):
                auxetic_tangent_check(rate)
    for shape in ((3, 3), (2,), (4,), (1, 2, 2), (2, 3), ()):
        with pytest.raises(FrameworkError, match=r"^Gram rate must be a 2x2 matrix, got shape %s$"
                           % re.escape(str(shape))):
            auxetic_tangent_check(np.zeros(shape))


# offsets of the smallest eigenvalue from the PSD cut, in band widths: the
# closed form decides beyond one, ``eigvalsh`` within
_BAND_OFFSETS = (-100.0, -2.0, -1.1, -0.9, -0.5, 0.0, 0.5, 0.9, 1.1, 2.0, 100.0)


@st.composite
def _gram_rates(draw):
    """(2 x 2 rate, its offset from the cut in band widths or None): either
    four entries of one scale 10^e, e in [-150, 150], zeros and asymmetric
    rates included, or a rotated symmetric part of that scale whose
    smaller eigenvalue sits a drawn offset from the cut, plus a skew part."""
    exp = draw(st.integers(-150, 150))
    unit = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        return np.array([draw(unit) for _ in range(4)]).reshape(2, 2) * 10.0 ** exp, None
    big, skew = abs(draw(unit)) * 10.0 ** exp, draw(unit) * 10.0 ** exp
    offset = draw(st.sampled_from(_BAND_OFFSETS))
    scale = max(1.0, big, math.sqrt(big * big + 2.0 * skew * skew))
    low = (offset * PSD_BAND - PSD_TOL) * scale
    r = rotation(draw(st.floats(0.0, math.pi)))    # big >= 0 > low
    return r @ np.diag([big, low]) @ r.T + np.array([[0.0, skew], [-skew, 0.0]]), offset


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_gram_rates())
def test_closed_form_auxetic_verdict_is_eigvalsh_verdict(drawn):
    """The closed-form verdict is the ``eigvalsh`` one on every 2 x 2 rate,
    from scales 1e-150 to 1e150, and around the cut: ``eigvalsh`` is called
    for an eigenvalue well within the band and not for one well beyond it
    (rounding moves the placed eigenvalue by about 1e-16 of the scale)."""
    rate, offset = drawn
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        verdict = auxetic_tangent_check(rate)
    assert verdict is oracle_auxetic_check(rate)
    if offset is not None and abs(offset) != 0.9 and abs(offset) != 1.1:
        assert eigvalsh.called == (abs(offset) < 1.0)


def test_contraction_check_examples():
    L = np.array([[2.0, 0.5], [0.0, 1.0]])
    ok, norm = contraction_check(L, L)
    assert ok and abs(norm - 1.0) < 1e-12
    ok, norm = contraction_check(0.5 * L, L)
    assert ok and abs(norm - 0.5) < 1e-12
    ok, norm = contraction_check(L, 0.5 * L)
    assert not ok and abs(norm - 2.0) < 1e-12


def test_deform_checks_refuse_malformed_input():
    """A tangent whose length is not 2n + 4 (once a bare reshape ValueError)
    and a comparison lattice that is not a finite 2 x 2 matrix (once a
    ``det`` warning and then LinAlgError from the SVD) are refused with
    FrameworkError, and without a warning; a comparison map that overflows
    is refused with NumericalError."""
    cfg = gauged_kagome(1.3)
    n = cfg.n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in ((2 * n + 3,), (2 * n + 5,), (0,), (2 * n + 4, 1), (2, n + 2)):
            message = r"^tangent must have shape \(%d,\) for %d vertex orbits, got shape %s$" % (
                2 * n + 4, n, re.escape(str(shape)))
            for check in (expansive_check, gram_derivative):
                with pytest.raises(FrameworkError, match=message):
                    check(cfg, np.zeros(shape))
        lattice = np.eye(2)
        for bad in (math.nan, math.inf, -math.inf):
            for pair in ((lattice, [[bad, 0.0], [0.0, 1.0]]), ([[1.0, bad], [0.0, 1.0]], lattice)):
                with pytest.raises(FrameworkError, match="^comparison lattice must be finite$"):
                    contraction_check(*pair)
        for pair in ((np.eye(3), lattice), (lattice, np.ones(2)), (lattice, [[1.0, 0.0]])):
            with pytest.raises(FrameworkError,
                               match=r"^comparison lattice must be a 2x2 matrix, got shape"):
                contraction_check(*pair)
        with pytest.raises(NumericalError, match="^comparison map out of range$"):
            contraction_check(np.diag([1e200, 1.0]), np.diag([1e-150, 1e150]))
    t = np.zeros(2 * n + 4)
    assert expansive_check(cfg, list(t)) == expansive_check(cfg, t)


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


def test_negative_step_count_refused():
    """A negative step count is refused before the certificate, as a
    negative cutoff is, not read as a zero-step path."""
    for steps in (-1, -3, -3.0):
        with pytest.raises(FrameworkError, match="steps must be >= 0, got -"):
            continue_path(fixture("kagome"), steps=steps)


def test_path_evaluates_pair_rates_once_per_sample(monkeypatch):
    """Each sample's expansive verdict comes from the rates of its final
    tangent: the shared rate kernel reads stacks of placements, and every
    sample is one row of exactly one of them."""
    rows = []

    def counted(positions, lattice, motion, cutoff):
        rows.extend(p.tobytes() for p in positions.reshape(-1, *positions.shape[-2:]))
        return rates(positions, lattice, motion, cutoff)

    rates = rigidity._pair_rates
    monkeypatch.setattr(rigidity, "_pair_rates", counted)
    monkeypatch.setattr(deform, "_pair_rates", counted)
    path = continue_path(fixture("ppt3"), steps=100, ds=0.01)
    assert len(path.samples) > 1
    assert rows == [s.configuration.positions.tobytes() for s in path.samples]


@pytest.mark.parametrize("name, steps", [("ppt3", 100), ("kagome", 100), ("ppt3-2x2", 40),
                                         ("ppt3-4x4", 3), ("ppt3-backward", 100),
                                         ("kagome-backward", 100)])
def test_pair_rate_grid_matches_row_oracle_along_paths(name, steps, monkeypatch):
    """Every row of every stacked rate evaluation of a path, through the
    event location of either direction (whose boundary sample may keep the
    last tangent), is bitwise the row-by-row stacked-product kernel's, and
    the rows are the samples, in chunks of as many as fit _CHUNK_CELLS
    pair-grid cells (25 shifts per vertex pair u <= v at cutoff 2).  A
    ppt3 4x4 sample (28,776 rows) fills a chunk of its own."""
    fws = {"ppt3": fixture("ppt3"), "kagome": fixture("kagome", theta=math.pi / 2),
           "ppt3-2x2": relax(fixture("ppt3"), Sublattice(2, 0, 2)),
           "ppt3-4x4": relax(fixture("ppt3"), Sublattice(4, 0, 4))}
    name, backward = name.removesuffix("-backward"), name.endswith("-backward")
    stacks = []

    def checked(positions, lattice, motion, cutoff):
        found = rates(positions, lattice, motion, cutoff)
        table = rigidity.pair_table(positions.shape[-2], cutoff)
        assert found.shape == (len(positions), len(table))
        for row, p, lat, mot in zip(found, positions, lattice, motion):
            assert np.array_equal(row, oracle_pair_rates(p, lat, mot, table))
        stacks.append(len(found))
        return found

    rates = rigidity._pair_rates
    monkeypatch.setattr(rigidity, "_pair_rates", checked)
    monkeypatch.setattr(deform, "_pair_rates", checked)
    path = continue_path(fws[name], steps=steps, ds=-1e-2 if backward else 1e-2)
    n, total = fws[name].n, len(path.samples)
    size = max(1, deform._CHUNK_CELLS // (n * (n + 1) // 2 * 25))
    assert total > 1 and stacks == [min(size, total - at) for at in range(0, total, size)]
    assert len(stacks) > 1 and (size > 1) == (name != "ppt3-4x4")


def test_newton_assembles_only_when_it_steps(monkeypatch):
    """On a path through an event bisection: one row assembly per lstsq
    step and per tangent, besides the certificate's rigidity matrix, and
    one geometry check per correction, at the point it returns, besides the
    one that gives both the reference lengths and the initial tangent.  The
    scatter tables and the gauge rows are built once per path, besides the
    certificate's."""
    counts = {"assembly": 0, "lstsq": 0, "correct": 0, "validate": 0, "tables": 0, "gauge": 0}

    def counting(name, f):
        def counted(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return counted

    def row_assembly(*args):
        counts["tables"] += 1
        return counting("assembly", assembly(*args))

    assembly, correct = rigidity._row_assembly, deform._newton_correct
    monkeypatch.setattr(rigidity, "_row_assembly", row_assembly)
    monkeypatch.setattr(rigidity, "gauge_rows", counting("gauge", rigidity.gauge_rows))
    monkeypatch.setattr(deform, "_lstsq", counting("lstsq", deform._lstsq))
    monkeypatch.setattr(deform, "_newton_correct", counting("correct", correct))
    monkeypatch.setattr(deform, "validate_geometry", counting("validate", core.validate_geometry))
    monkeypatch.setattr(deform, "_check_point", counting("validate", deform._check_point))
    fw = fixture("kagome", theta=math.pi / 2)
    certify_ppt(fw)
    certificate = dict(counts)
    assert (certificate["assembly"], certificate["tables"], certificate["gauge"]) == (1, 1, 0)
    for name in counts:
        counts[name] = 0
    path = continue_path(fw, steps=200, ds=2e-2)
    assert path.termination.startswith("event") and counts["correct"] > len(path.samples)
    assert counts["assembly"] == counts["lstsq"] + len(path.samples) + 1
    assert counts["validate"] == counts["correct"] + 1
    assert counts["tables"] == certificate["tables"] + 1
    assert counts["gauge"] == certificate["gauge"] + 1


def _recorded_lapack(monkeypatch):
    """Record the arguments of every bound least-squares and SVD gufunc
    call, which still return their results."""
    calls = {"lstsq": [], "svd": []}

    def recording(name, gufunc):
        def recorded(*args):
            calls[name].append(tuple(np.copy(a) for a in args))
            return gufunc(*args)
        return recorded

    monkeypatch.setattr(deform, "_lstsq", recording("lstsq", deform._lstsq))
    monkeypatch.setattr(rigidity, "_svd", recording("svd", rigidity._svd))
    return calls


@pytest.mark.parametrize("name", ["ppt3", "kagome", "ppt3-2x2"])
def test_bound_lapack_gufuncs_match_their_wrappers(name, monkeypatch):
    """numpy's LAPACK gufuncs, bound in ``rigidity`` without their wrappers,
    return the wrappers' results bit for bit on a path's own matrices: each
    Newton step's Jacobian and residual (``np.linalg.lstsq`` with its
    default rcond), each gauged flex matrix (``np.linalg.svd``), and the
    positive definite Gram matrices of both (``np.linalg.cholesky``).  A
    path traced while ``np.linalg.lstsq`` is replaced, as the benchmark's
    tracer replaces it to count the solves, calls it at every step and is
    bitwise the same path."""
    fw = relax(fixture("ppt3"), Sublattice(2, 0, 2)) if name == "ppt3-2x2" else fixture(name)
    calls = _recorded_lapack(monkeypatch)
    path = continue_path(fw, 8)
    monkeypatch.undo()
    assert len(calls["lstsq"]) >= 8 and len(calls["svd"]) == len(path.samples)
    grams = []
    for J, b, rcond in calls["lstsq"]:
        assert rcond == np.finfo(float).eps * max(J.shape) and b.shape == (len(J), 1)
        got = rigidity._lstsq(J, b, rcond)[0][:, 0]
        assert got.tobytes() == np.linalg.lstsq(J, b[:, 0], rcond=None)[0].tobytes()
        grams.append(J @ J.T)
    for (A,) in calls["svd"]:
        got, want = rigidity._svd(A), np.linalg.svd(A)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        grams.append(A @ A.T)
    for G in grams:
        assert rigidity._cholesky_lower(G).tobytes() == np.linalg.cholesky(G).tobytes()

    solves = []

    def counted(*args, **kwargs):
        solves.append(1)
        return lstsq(*args, **kwargs)

    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", counted)
    assert _path_record(continue_path(fw, 8)) == _path_record(path)
    assert len(solves) == len(calls["lstsq"])


def _failed(gufunc):
    """``gufunc`` as it returns when LAPACK fails: NaN of its results'
    shapes, with the floating-point invalid flag raised."""
    def failed(*args):
        return tuple(np.subtract(np.inf, np.full(np.shape(x), np.inf)) for x in gufunc(*args))
    return failed


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_failed_lapack_call_fails_correction_or_refuses_tangent(monkeypatch, tmp_path, capsys):
    """A Newton solve that LAPACK fails reads NaN, which fails its
    correction: the step halves from ds = 1e-2 until the predictor alone
    is within tolerance, and the path ends on corrector divergence within
    a few MIN_STEP of its start.  A flex SVD that fails refuses the tangent
    (NumericalError), and the CLI reports it as a numerical error.  No
    LinAlgError escapes and no RuntimeWarning leaks."""
    fw = fixture("ppt3")
    solves = []
    failed = _failed(deform._lstsq)
    monkeypatch.setattr(deform, "_lstsq", lambda *args: solves.append(1) or failed(*args))
    path = continue_path(fw, 10, ds=1e-2)
    assert (path.termination, path.event_margin) == ("corrector divergence", None)
    assert len(solves) >= 14 and 0 < path.final.tau < 10 * deform.MIN_STEP
    monkeypatch.undo()

    monkeypatch.setattr(rigidity, "_svd", _failed(rigidity._svd))
    for trace in (lambda: continue_path(fw, 10), lambda: flex_tangent(
            Configuration.from_framework(fw), fw), lambda: oriented_flex(fw)):
        with pytest.raises(NumericalError, match="SVD did not converge"):
            trace()
    from perimax.cli import EXIT_NUMERICAL, main
    document = tmp_path / "ppt3.json"
    document.write_text(core.serialize_framework(fw))
    assert main(["deform", str(document)]) == EXIT_NUMERICAL
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "numerical" and "SVD did not converge" in report["error"]


def test_kagome_path_terminates_at_boundary():
    path = continue_path(fixture("kagome", theta=math.pi / 2), steps=200,
                         ds=2e-2)
    assert path.termination.startswith("event")
    assert "pointedness lost" in path.termination or "flat corner" in path.termination
    w = path.final.gram
    theta_star = math.acos(w[0, 0] / 2.0 - 1.0)
    assert abs(theta_star - math.pi / 3) < 1e-6


@pytest.mark.parametrize("name", ["ppt3", "kagome"])
def test_path_traces_faces_once_and_builds_no_framework(name, monkeypatch):
    """The corner table comes from the certificate's faces: one trace per
    path, through the event and its bisection, and no framework built."""
    fw = fixture(name)
    traces, builds = [], []

    def traced(*args):
        traces.append(1)
        return trace(*args)

    def built(self, *args):
        builds.append(1)
        init(self, *args)

    trace, init = topology.trace_faces, core.PeriodicFramework.__init__
    monkeypatch.setattr(topology, "trace_faces", traced)
    monkeypatch.setattr(pseudotri, "trace_faces", traced)
    monkeypatch.setattr(core.PeriodicFramework, "__init__", built)
    path = continue_path(fw, steps=200, ds=2e-2)
    assert path.termination.startswith("event: pointedness lost")
    assert len(traces) == 1 and not builds


def _corner_table(fw):
    return deform._corner_table(fw, certify_ppt(fw).faces)


@pytest.mark.parametrize("name", ["ppt3", "kagome", "ppt3-2x2"])
def test_corner_table_margin_matches_retracing_oracle(name):
    """The table's margin and event text are those of a framework rebuilt
    and traced again at every path sample."""
    fws = {"ppt3": fixture("ppt3"), "kagome": fixture("kagome", theta=math.pi / 2),
           "ppt3-2x2": relax(fixture("ppt3"), Sublattice(2, 0, 2))}
    fw = fws[name]
    table = _corner_table(fw)
    for s in continue_path(fw, steps=100, ds=1e-2).samples:
        cfg = s.configuration
        moved = fw.with_geometry(cfg.positions, cfg.lattice)
        assert (deform._ppt_margin(table, moved.edge_vectors())
                == oracle_ppt_margin(fw, cfg.positions, cfg.lattice))


def test_corner_table_refuses_changed_corner_order():
    """A mirrored placement reverses every star: each face's angle sum
    becomes (k + 2) pi, which no fixed corner order allows."""
    fw = fixture("ppt3")
    table = _corner_table(fw)
    margin, _ = deform._ppt_margin(table, fw.edge_vectors())
    assert margin > 0
    mirrored = fw.edge_vectors() * np.array([-1.0, 1.0])
    with pytest.raises(NumericalError, match="corner order changed"):
        deform._ppt_margin(table, mirrored)


@pytest.mark.parametrize("name", ["ppt3", "ppt3-2x2", "kagome"])
def test_backward_path_ends_where_a_corner_closes(name):
    """Backwards along the flex a convex corner closes: past that point two
    edges at a vertex have crossed and one face's angle sum is off by
    2 pi (6 pi on the kagome, whose three corners close together).
    Bisection locates the point as an event, with tau falling and the last
    sample still inside."""
    fw = {"ppt3": fixture("ppt3"), "ppt3-2x2": relax(fixture("ppt3"), Sublattice(2, 0, 2)),
          "kagome": fixture("kagome")}[name]
    path = continue_path(fw, steps=200, ds=-1e-2)
    assert path.termination.startswith("event: corner closed on face ")
    taus = [s.tau for s in path.samples]
    assert all(b < a for a, b in zip(taus, taus[1:])) and taus[-2] - taus[-1] < 1e-2
    assert -1e-6 < path.event_margin <= 0.0
    last = path.final.configuration
    margin, _ = deform._ppt_margin(_corner_table(fw), fw.with_geometry(
        last.positions, last.lattice).edge_vectors())
    assert margin > 0.0


def test_kagome_event_needs_every_closed_corner(monkeypatch):
    """Past the kagome's backward event its face 1 is off by 6 pi with
    exactly three convex corners above pi: an event.  Read one of them as
    a reflex corner and the same point refuses, since the closed corners
    no longer account for the offset."""
    fw = fixture("kagome")
    seen = []

    def recorded(table, evecs):
        got = margin(table, evecs)
        seen.append((got[1], evecs))
        return got

    margin = deform._ppt_margin
    monkeypatch.setattr(deform, "_ppt_margin", recorded)
    assert continue_path(fw, steps=200, ds=-1e-2).termination == "event: corner closed on face 1"
    past = [evecs for reason, evecs in seen if reason == "corner closed on face 1"][-1]
    twin_in, out, face, sign, reasons, sums = table = _corner_table(fw)
    angles = topology._direction_angles(past)
    corners = topology._corner(angles[out], angles[twin_in], angles[twin_in] < angles[out])
    closed = np.flatnonzero((face == 1) & (sign > 0) & (corners > math.pi))
    assert len(closed) == 3
    assert margin(table, past)[1] == "corner closed on face 1"
    flipped = sign.copy()
    flipped[closed[0]] = -1.0
    with pytest.raises(NumericalError, match="corner order changed along the path: face 1"):
        margin([twin_in, out, face, flipped, reasons, sums], past)


def _path_record(path):
    """A path as exact bytes: per sample tau, positions, lattice, Gram matrix
    and its rate, verdicts and smallest pair rate; termination and margin."""
    def exact(x):
        return None if x is None else float(x).hex()
    return path.termination, exact(path.event_margin), [
        (exact(s.tau), s.configuration.positions.tobytes(), s.configuration.lattice.tobytes(),
         s.gram.tobytes(), None if s.gram_rate is None else s.gram_rate.tobytes(),
         s.expansive, s.auxetic, exact(s.min_pair_rate)) for s in path.samples]


@pytest.mark.parametrize("name, ds", [("ppt3", 1e-2), ("kagome", -1e-2)])
def test_path_turns_a_flex_read_the_other_way(name, ds, monkeypatch):
    """The flex is read up to sign at every sample; each sample turns it to
    follow the previous tangent, its rates with it.  Negating every other
    reading after the first leaves the path, through its event
    bisection, bitwise unchanged."""
    fw = fixture(name)
    expected = _path_record(continue_path(fw, steps=200, ds=ds))
    calls = []

    def turned(*args):
        t = read(*args)
        calls.append(1)
        return -t if len(calls) % 2 == 0 else t

    read = deform._oriented_flex
    monkeypatch.setattr(deform, "_oriented_flex", turned)
    assert _path_record(continue_path(fw, steps=200, ds=ds)) == expected
    assert expected[0].startswith("event") and len(calls) == len(expected[2]) > 2


_RELAXED = {"ppt3-2x2": (2, 0, 2), "ppt3-2x2-sheared": (2, 1, 2), "ppt3-1x2": (1, 1, 2)}


@pytest.mark.parametrize("ds", [1e-3, 1e-2, 3e-2, -1e-3, -1e-2, -3e-2])
@pytest.mark.parametrize("name", ["ppt3", "kagome", *_RELAXED])
def test_event_location_matches_halving_oracle(name, ds, monkeypatch):
    """Paths are bitwise those of the halving loop that corrects every
    midpoint (``oracle_continue_path``), at pair cutoffs 1 and 2, over as
    many steps as a budget of 2100 / n allows (every event but the 1e-3
    ones of the relaxations).  An event forward on ppt3 and kagome takes at
    most 10 corrections besides the accepted steps, where the halving takes
    24 to 29; backward, where the margin jumps as a corner closes, at most
    2 more than the halving."""
    fw = relax(fixture("ppt3"), Sublattice(*_RELAXED[name])) if name in _RELAXED else fixture(name)
    steps = min(int(1.6 / abs(ds)), 2100 // fw.n)
    counts = {}

    def counting(module):
        def counted(*args):
            counts[module] = counts.get(module, 0) + 1
            return newton(*args)
        newton = module._newton_correct
        monkeypatch.setattr(module, "_newton_correct", counted)

    counting(deform)
    counting(conftest)
    for cutoff in (1, 2):
        counts.clear()
        path = continue_path(fw, steps, ds, cutoff)
        expected = oracle_continue_path(fw, steps, ds, cutoff)
        assert _path_record(path) == _path_record(expected)
        # corrections besides the accepted steps, the last sample's included
        extra = {module: count - len(path.samples) + 1 for module, count in counts.items()}
        if not path.termination.startswith("event"):
            assert extra[deform] == extra[conftest]
        elif ds > 0 and name in ("ppt3", "kagome"):
            assert extra[deform] <= 10 < 24 <= extra[conftest]
        elif ds < 0:
            assert extra[deform] <= extra[conftest] + 2


@pytest.mark.parametrize("name", ["ppt3", "kagome", *_RELAXED])
def test_huge_step_matches_reference_corrector(name):
    """From ds = 1e200 the step halves past corrections that fail: squared
    lengths that overflow, lattice columns beyond 2**510 (which the
    reference corrector refuses at the first iterate, before its squares)
    and iterates that do not converge.  The path is bitwise the one of the
    reference corrector (``conftest._newton_correct``), which runs the
    framework constructor's checks at every iterate."""
    fw = relax(fixture("ppt3"), Sublattice(*_RELAXED[name])) if name in _RELAXED else fixture(name)
    path = continue_path(fw, 5, 1e200)
    assert _path_record(path) == _path_record(oracle_continue_path(fw, 5, 1e200))
    assert path.termination.startswith("event") and len(path.samples) == 2


@pytest.mark.parametrize("bracket", [(0.9, 1.0), (0.0, 1e-3)])
@pytest.mark.parametrize("name, ds", [("ppt3", 1e-2), ("ppt3", -1e-2), ("kagome", 1e-2)])
def test_event_location_reruns_halving_on_a_wrong_bracket(name, ds, bracket, monkeypatch):
    """A probed bracket whose ends do not hold (these fractions of the
    crossing step miss each event) sends midpoints to the wrong side; the
    ends the halving reaches then read wrong, and it runs again correcting
    every midpoint: the path is still the oracle's."""
    fw = fixture(name)
    monkeypatch.setattr(deform, "_probe", lambda at, step, fa, fb: tuple(
        t * step for t in bracket))
    calls = []
    newton = deform._newton_correct

    def counted(*args):
        calls.append(1)
        return newton(*args)

    monkeypatch.setattr(deform, "_newton_correct", counted)
    path = continue_path(fw, 200, ds)
    assert _path_record(path) == _path_record(oracle_continue_path(fw, 200, ds))
    assert path.termination.startswith("event") and len(calls) - len(path.samples) + 1 >= 27


def test_path_reads_steps_as_an_integer():
    """``steps`` is read by the integer rule of the pair cutoff: 3.0 and a
    numpy 3 give what 3 gives, while 1.5, NaN and "3" are refused by name
    (they once ran 2 steps, returned the initial sample alone and raised
    TypeError)."""
    fw = fixture("ppt3")
    whole = _path_record(continue_path(fw, 3))
    assert _path_record(continue_path(fw, 3.0)) == _path_record(continue_path(fw, np.int64(3))) \
        == whole
    for steps in (1.5, math.nan, "3"):
        with pytest.raises(FrameworkError, match=r"^steps must be an integer, got %s$"
                           % re.escape(repr(steps))):
            continue_path(fw, steps)


def test_zero_step_length_is_refused():
    """ds = 0 once traced steps + 1 copies of the initial sample and
    reported the step count reached; it is refused as a non-finite ds is."""
    for ds, text in ((0.0, "0"), (-0.0, "-0"), (0, "0")):
        with pytest.raises(FrameworkError, match=r"^step length ds must be nonzero, got %s$"
                           % text):
            continue_path(fixture("ppt3"), 3, ds)


def test_failing_corrector_ends_path_at_divergence(monkeypatch):
    """A corrector that never converges halves the step until it is at
    most MIN_STEP: ds = 1e-2 takes 14 halvings to 6.1e-7, one correction
    each besides the first, and the path keeps its initial sample."""
    steps = []

    def failing(residual, jacobian, z, tol_abs):
        steps.append(z)
        return z, False, None

    monkeypatch.setattr(deform, "_newton_correct", failing)
    path = continue_path(fixture("ppt3"), steps=10, ds=1e-2)
    assert (path.termination, path.event_margin) == ("corrector divergence", None)
    assert len(path.samples) == 1 and path.samples[0].tau == 0.0
    assert len(steps) == 15 and 0.5 * deform.MIN_STEP < 1e-2 / 2 ** 14 <= deform.MIN_STEP


def test_bisection_shrinks_past_failed_corrections(monkeypatch):
    """A midpoint whose correction fails is treated as past the boundary.
    With every midpoint failing the bracket shrinks to the step's start:
    the path ends at the event without a boundary sample, with the text
    and margin of the step that crossed."""
    fw = fixture("kagome", theta=math.pi / 2)
    expected = _path_record(continue_path(fw, steps=200, ds=2e-2))
    table = _corner_table(fw)
    crossed, failed = [], []

    def correct(residual, jacobian, z, tol_abs):
        if crossed:
            failed.append(z)
            return z, False, None
        z, ok, evecs = newton(residual, jacobian, z, tol_abs)
        if ok and deform._ppt_margin(table, evecs)[0] <= 0.0:
            crossed.append(deform._ppt_margin(table, evecs))
        return z, ok, evecs

    newton = deform._newton_correct
    monkeypatch.setattr(deform, "_newton_correct", correct)
    path = continue_path(fw, steps=200, ds=2e-2)
    (margin, reason), = crossed
    assert expected[0].startswith("event") and len(failed) > 20
    assert (path.termination, path.event_margin) == ("event: %s" % reason, margin)
    assert _path_record(path)[2] == expected[2][:-1]


def test_boundary_sample_keeps_last_tangent_when_flex_fails(monkeypatch):
    """The last configuration inside the boundary may read no clean flex
    (NumericalError); its sample then keeps the previous tangent and takes
    its rates there.  A failed read at any other sample is raised."""
    fw = fixture("kagome", theta=math.pi / 2)
    expected = continue_path(fw, steps=200, ds=2e-2)
    n = len(expected.samples)
    tangents = []

    def read(fail_at):
        def flex(*args):
            if len(tangents) == fail_at:
                raise NumericalError("deformation space is not one-dimensional (dimension 2)")
            t = oriented(*args)
            if tangents and float(t @ tangents[-1]) < 0:
                t = -t
            tangents.append(t)
            return t
        return flex

    oriented = deform._oriented_flex
    monkeypatch.setattr(deform, "_oriented_flex", read(n - 1))
    path = continue_path(fw, steps=200, ds=2e-2)
    assert _path_record(path)[:2] == _path_record(expected)[:2]
    assert _path_record(path)[2][:-1] == _path_record(expected)[2][:-1]
    last, cfg = path.final, expected.final.configuration
    assert last.tau == expected.final.tau and np.array_equal(last.gram, expected.final.gram)
    assert np.array_equal(last.configuration.positions, cfg.positions)
    report = expansive_check(cfg, tangents[-1])
    assert np.array_equal(last.gram_rate, gram_derivative(cfg, tangents[-1]))
    assert (last.expansive, last.min_pair_rate) == (report.ok, report.min_rate)
    tangents.clear()
    monkeypatch.setattr(deform, "_oriented_flex", read(2))
    with pytest.raises(NumericalError, match="not one-dimensional"):
        continue_path(fw, steps=200, ds=2e-2)


@pytest.mark.parametrize("rates_at, gram_at, trace_fails_at, raised", [
    (None, 5, 30, "Gram rate of sample 5"),
    (5, 6, 30, "non-finite squared-distance rate"),
    (6, 5, 30, "Gram rate of sample 5"),
    (5, 5, 30, "non-finite squared-distance rate"),
    (None, None, 30, "tracing fails at sample 30"),
    (None, 50, None, "Gram rate of sample 50"),
    (50, None, None, "non-finite squared-distance rate")])
def test_deferred_verdicts_raise_in_sample_order(rates_at, gram_at, trace_fails_at, raised,
                                                 monkeypatch):
    """The verdicts of a path are judged once it is traced, in stacked
    chunks (the 51 samples of this ppt3 path in two), yet a path raises
    what the sample-by-sample code raised: the first refused sample in
    path order, its rates before its Gram rate, even when tracing fails at
    a later sample, in a chunk whose rates hold a refused sample of their
    own, or at the last sample of a path that otherwise ends at its event;
    a tracing failure with no refused sample before it is raised as is.
    Every tangent up to the failure or the end is read first."""
    fw = fixture("ppt3")
    expected = continue_path(fw, steps=100, ds=1e-2)
    assert len(expected.samples) == 51 and expected.termination.startswith("event")
    at = {k: expected.samples[k] for k in (rates_at, gram_at) if k is not None}

    def pair_rates(positions, lattice, motion, cutoff):
        placed = positions.reshape(-1, *positions.shape[-2:])
        if rates_at is not None and any(np.array_equal(p, at[rates_at].configuration.positions)
                                        for p in placed):
            raise NumericalError("non-finite squared-distance rate")
        return rates(positions, lattice, motion, cutoff)

    def auxetic(dom):
        if gram_at is not None and np.array_equal(dom, at[gram_at].gram_rate):
            raise NumericalError("Gram rate of sample %d" % gram_at)
        return check(dom)

    def flex(*args):
        reads.append(1)
        if trace_fails_at is not None and len(reads) == trace_fails_at + 1:
            raise NumericalError("tracing fails at sample %d" % trace_fails_at)
        return oriented(*args)

    rates, check = deform._pair_rates, deform.auxetic_tangent_check
    oriented, reads = deform._oriented_flex, []
    monkeypatch.setattr(deform, "_pair_rates", pair_rates)
    monkeypatch.setattr(deform, "auxetic_tangent_check", auxetic)
    monkeypatch.setattr(deform, "_oriented_flex", flex)
    with pytest.raises(NumericalError, match="^%s$" % raised):
        continue_path(fw, steps=100, ds=1e-2)
    assert len(reads) == (trace_fails_at or len(expected.samples) - 1) + 1


def test_margin_of_a_reflex_corner_opened_past_two_pi():
    """A face whose angle sum is off (k - 2) pi by -2 pi has a reflex
    corner that opened through 2 pi and now reads small: the point is past
    the boundary by that reading, the smallest corner of the face.  Each
    row of this table turns from an edge at angle 0 to one at its corner:
    a pentagon whose reflex corner reads 0.3 (sum pi, not 3 pi) before a
    triangle whose corner of 1.5 pi closed through 0 (sum 3 pi, not pi)."""
    corners = np.array([0.3, 0.5, 0.6, 0.7, math.pi - 2.1, 1.5 * math.pi,
                        0.75 * math.pi, 0.75 * math.pi])
    rows = np.arange(len(corners))
    evecs = np.concatenate([np.tile([1.0, 0.0], (len(corners), 1)),
                            np.column_stack([np.cos(corners), np.sin(corners)])])
    face = np.array([0, 0, 0, 0, 0, 1, 1, 1])
    sign = np.where(rows == 0, -1.0, 1.0)
    table = [rows + len(corners), rows, face, sign, ("text",) * len(corners),
             (np.bincount(face) - 2) * math.pi]
    margin, reason = deform._ppt_margin(table, evecs)
    assert reason == "corner closed on face 0" and margin == pytest.approx(-0.3, abs=1e-12)


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
    """Reference: the per-pair loop over (u, v, c) in table order.  Returns
    the report and the largest |rate|."""
    n = cfg.n
    dlat = np.column_stack([tangent[2 * n:2 * n + 2], tangent[2 * n + 2:]])
    vel = tangent[:2 * n].reshape(n, 2)
    min_rate, min_pair = math.inf, None
    max_abs = -1.0
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
                    max_abs = max(max_abs, abs(rate))
    if min_pair is None:
        return ExpansiveReport(True, 0.0, None), 0.0
    tol = 1e-9 * max(1.0, max_abs)
    return ExpansiveReport(min_rate >= -tol, min_rate, min_pair), max_abs


def _assert_same_report(got, loop):
    ref, max_abs = loop
    assert got.ok == ref.ok and got.min_pair == ref.min_pair
    assert abs(got.min_rate - ref.min_rate) <= 1e-12 * max(1.0, max_abs)


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
    """A corrector iterate needs only a finite residual; the point a
    correction returns gets the checks of the framework constructor, with
    its messages: those of ``validate_geometry`` at the point's placement,
    read with int shifts.  A point they refuse is a failed correction."""
    fw = fixture("ppt3")
    cfg = Configuration.from_framework(fw)
    n, z, e = fw.n, cfg.as_vector(), fw.edge_vectors()
    residual, jacobian, _ = _constraints(fw, np.einsum("ij,ij->i", e, e))
    F, evecs, squares = residual(z)
    J = jacobian(evecs)
    assert np.abs(F).max() < 1e-12 and J.shape == (fw.m + 3, 2 * n + 4)
    assert np.array_equal(squares, np.einsum("ij,ij->i", evecs, evecs))

    def refusal(fw, residual, w):
        jacobian = _constraints(fw, np.ones(fw.m))[1]
        # an infinite lattice entry times a zero shift reads NaN, which is refused
        with np.errstate(invalid="ignore"):
            squares = residual(w)[2]
            # at an infinite tolerance every residual but a NaN one has converged
            point, ok, evecs = deform._newton_correct(residual, jacobian, w, math.inf)
        assert point is w and not ok and evecs is None
        with pytest.raises(FrameworkError) as got:
            deform._check_point(w, squares)
        with pytest.raises(FrameworkError) as want:
            core.validate_geometry(deform._lattice_rate(w, fw.n), w[:2 * fw.n].reshape(fw.n, 2),
                                   fw.tails, fw.heads, fw.shifts)
        assert str(got.value) == str(want.value)
        return str(got.value)

    bad = {
        "positions must be finite": (1, np.nan),
        "lattice must be a finite 2x2 matrix": (2 * n + 3, np.inf),
        "singular lattice": (2 * n + 2, None),
        "lattice out of range: a column is longer than 2**510": (2 * n, 2.0 ** 511),
    }
    for message, (index, value) in bad.items():
        w = z.copy()
        if value is None:   # second generator parallel to the first
            w[2 * n + 2:] = 2.0 * w[2 * n:2 * n + 2]
        else:
            w[index] = value
        assert refusal(fw, residual, w).startswith(message)
    w = z.copy()
    w[:2 * n] = 0.0     # every vertex orbit at the origin
    assert refusal(fw, residual, w).startswith("zero-length edge orbit")
    # one edge orbit closed: its head moved onto the tail's copy
    k = int(np.flatnonzero(fw.heads != 0)[-1])
    w = z.copy()
    w[2 * fw.heads[k]:2 * fw.heads[k] + 2] = (cfg.positions[fw.tails[k]]
                                              - cfg.lattice @ fw.shifts[k])
    assert refusal(fw, residual, w) == "zero-length edge orbit %d" % k
    # all vertex orbits at one point, every edge orbit spanning a lattice period
    fw = core.PeriodicFramework(np.eye(2), [[0.0, 0.0], [0.5, 0.4]],
                                [(0, 1, (1, 0)), (0, 1, (0, 1)), (0, 1, (1, 1)), (0, 0, (1, -1))])
    e = fw.edge_vectors()
    residual = _constraints(fw, np.einsum("ij,ij->i", e, e))[0]
    w = np.concatenate([np.zeros(2 * fw.n), [1.0, 0.0, 0.0, 1.0]])
    assert refusal(fw, residual, w) == "degenerate placement: all vertex orbits coincide"


def test_newton_jacobian_is_twice_the_rigidity_matrix():
    from perimax.rigidity import gauge_rows, rigidity_matrix

    fw = fixture("cubes")
    cfg = Configuration.from_framework(fw)
    gauged = fw.with_geometry(cfg.positions, cfg.lattice)
    e = gauged.edge_vectors()
    residual, jacobian, _ = _constraints(fw, np.einsum("ij,ij->i", e, e))
    J = jacobian(residual(cfg.as_vector())[1])
    assert np.array_equal(J, np.vstack([2 * rigidity_matrix(gauged), gauge_rows(gauged)]))
