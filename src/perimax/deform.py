"""One-parameter deformation paths: continuation, expansive and auxetic
certification.

Configurations are kept in a pinned gauge (vertex 0 at the origin, first
lattice generator on the positive x-axis) so the one-dimensional flex of a
pseudo-triangulation is literally one-dimensional and Newton correction is
well posed.  Expansiveness is checked on a finite set of vertex-copy pairs;
auxetic behavior through the positive-semidefiniteness of the Gram matrix
rate and, between samples, through lattice comparison operators of norm at
most one.  A step fills per-path buffers (``_constraints``), writes only
the rows' fixed pattern into a zeroed Jacobian and solves it with numpy's
lstsq gufunc (``rigidity._lstsq``), bitwise as ``np.linalg.lstsq``; a failed
solve reads NaN and fails its correction, and a failed SVD refuses the tangent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (FrameworkError, NumericalError, _edge_vectors, _geometry_scale, _integer,
                   _require_spread, validate_geometry)
from .pseudotri import _certified
from .rigidity import (_flex_system, _gauge_position, _lattice_rate, _lstsq, _oriented_flex,
                       _pair_grid, _pair_rates, pair_table)
from .topology import ANGLE_SUM_TOL, _corner, _corner_kinds, _direction_angles

__all__ = [
    "Configuration",
    "flex_tangent",
    "ExpansiveReport",
    "expansive_check",
    "gram_derivative",
    "auxetic_tangent_check",
    "contraction_check",
    "PathSample",
    "DeformationPath",
    "continue_path",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 20
MIN_STEP = 1e-6
EVENT_TAU_TOL = 1e-10
EXPANSIVE_TOL = 1e-9
PSD_TOL = 1e-9
PSD_BAND = 1e-12
CONTRACTION_TOL = 1e-9
# Pair-grid cells (vertex pairs u <= v times shifts) per stacked pass of a
# path's verdicts: about 128 KB per working array, or one sample's if larger.
_CHUNK_CELLS = 4096


@dataclass
class Configuration:
    """Vertex positions and lattice matrix in the pinned gauge."""

    positions: np.ndarray   # (n, 2), or (S, n, 2) for a stack
    lattice: np.ndarray     # (2, 2), columns generators, or (S, 2, 2)

    @classmethod
    def from_framework(cls, fw):
        """Gauge-fix a framework's placement: translate vertex 0 to the
        origin and rotate the first generator onto the positive x-axis."""
        return cls(*_gauge_position(fw))

    @property
    def n(self):
        return self.positions.shape[-2]

    def as_vector(self):
        return np.concatenate([self.positions.ravel(), self.lattice[:, 0], self.lattice[:, 1]])

    @classmethod
    def from_vector(cls, z, n):
        return cls(z[..., :2 * n].reshape(z.shape[:-1] + (n, 2)).copy(), _lattice_rate(z, n))

    def gram(self):
        return self.lattice.mT @ self.lattice


def flex_tangent(cfg, fw):
    """Unit gauge-reduced flex, oriented so that the cell area grows.

    Raises NumericalError when the reduced kernel is not one-dimensional
    or the flex changes no cell area.
    """
    evecs = validate_geometry(cfg.lattice, cfg.positions, fw.tails, fw.heads, fw.shifts)[1]
    return _oriented_flex(*_flex_system(fw), cfg.lattice, evecs)


@dataclass
class ExpansiveReport:
    ok: bool
    min_rate: float
    min_pair: tuple | None


def expansive_check(cfg, tangent, cutoff=2):
    """Rate of change of squared distances over all vertex-copy pairs
    within the shift cutoff (``pair_table``); expansive when none
    decreases.  Ties go to the first pair in table order."""
    rates = _pair_rates(cfg.positions, cfg.lattice, _motion(cfg, tangent), cutoff)
    ok, low = _expansive(rates)
    if not len(rates):
        return ExpansiveReport(ok, low, None)
    a, b, c1, c2 = pair_table(cfg.n, cutoff)[int(np.argmin(rates))].tolist()
    return ExpansiveReport(ok, low, (a, b, (c1, c2)))


def _expansive(rates):
    """(expansive, smallest rate) of squared-distance rates, or the lists of
    both over the rows of a stack: expansive when none is below
    -EXPANSIVE_TOL times max(1, largest |rate|); no rates read (True, 0.0)."""
    if not rates.shape[-1]:
        rates = np.zeros(rates.shape[:-1] + (1,))
    low, high = rates.min(axis=-1), rates.max(axis=-1)
    return (low >= -EXPANSIVE_TOL * np.maximum(np.maximum(1.0, -low), high)).tolist(), low.tolist()


def _motion(cfg, tangent):
    """A motion of cfg as a float vector (a row per configuration of a
    stack), refused (FrameworkError) unless it has the 2n + 4 entries of
    the positions and lattice columns."""
    motion = np.asarray(tangent, dtype=float)
    if motion.shape != cfg.positions.shape[:-2] + (2 * cfg.n + 4,):
        raise FrameworkError("tangent must have shape (%d,) for %d vertex orbits, got shape %s"
                             % (2 * cfg.n + 4, cfg.n, motion.shape))
    return motion


def gram_derivative(cfg, tangent):
    """Rate of change of the lattice Gram matrix under a motion, or of each
    one of a stack of configurations (S, n, 2), (S, 2, 2) under its own."""
    dlat = _lattice_rate(_motion(cfg, tangent), cfg.n)
    d = dlat.mT @ cfg.lattice + cfg.lattice.mT @ dlat
    return 0.5 * (d + d.mT)


def auxetic_tangent_check(domega):
    """True when the Gram rate lies in the positive semidefinite cone: the
    smaller eigenvalue of its symmetric part is at least -PSD_TOL times
    max(1, |trace|, Frobenius norm).  The eigenvalue is read in closed form,
    and ``eigvalsh`` is called only where the closed form's rounding could
    disagree with it: within PSD_BAND times that scale of the cut, or where
    the squared norm nears overflow.  A non-finite rate is refused
    (NumericalError), and so is any shape but 2 x 2 (FrameworkError)."""
    domega = np.asarray(domega, dtype=float)
    if domega.shape != (2, 2):
        raise FrameworkError("Gram rate must be a 2x2 matrix, got shape %s" % (domega.shape,))
    (a, b), (c, d) = domega.tolist()
    if not all(map(math.isfinite, (a, b, c, d))):
        raise NumericalError("non-finite Gram rate")
    squares = a * a + b * b + c * c + d * d
    scale = max(1.0, abs(a + d), math.sqrt(squares))
    low = 0.5 * (a + d) - math.hypot(0.5 * (a - d), 0.5 * (b + c))
    if squares <= 0.5 * sys.float_info.max and abs(low + PSD_TOL * scale) > PSD_BAND * scale:
        return low >= -PSD_TOL * scale
    scale = max(1.0, abs(float(np.trace(domega))), float(np.linalg.norm(domega)))
    eigs = np.linalg.eigvalsh(0.5 * (domega + domega.T))
    return bool(eigs.min() >= -PSD_TOL * scale)


def contraction_check(lattice_early, lattice_late):
    """Operator norm of the map taking the later lattice basis to the
    earlier one; a norm <= 1 certifies lattice-wise contraction.  Each
    lattice must be a finite 2 x 2 matrix (FrameworkError), the later one
    nonsingular, and the map finite (NumericalError)."""
    early, late = (np.asarray(x, dtype=float) for x in (lattice_early, lattice_late))
    for lat in (early, late):
        if lat.shape != (2, 2):
            raise FrameworkError("comparison lattice must be a 2x2 matrix, got shape %s"
                                 % (lat.shape,))
        if not np.isfinite(lat).all():
            raise FrameworkError("comparison lattice must be finite")
    if abs(np.linalg.det(late)) == 0.0:
        raise FrameworkError("singular comparison lattice")
    with np.errstate(over="ignore", invalid="ignore"):
        T = early @ np.linalg.inv(late)
    if not np.isfinite(T).all():
        raise NumericalError("comparison map out of range")
    norm = float(np.linalg.norm(T, 2))
    return norm <= 1.0 + CONTRACTION_TOL, norm


# -- continuation ----------------------------------------------------------


@dataclass
class PathSample:
    tau: float
    configuration: Configuration
    gram: np.ndarray
    gram_rate: np.ndarray | None
    expansive: bool | None
    auxetic: bool | None
    min_pair_rate: float | None = None


@dataclass
class DeformationPath:
    samples: list
    termination: str
    event_margin: float | None = None

    @property
    def final(self):
        return self.samples[-1]


def _constraints(fw, ref_sq):
    """Residual and Jacobian functions of the edge-length and gauge
    constraints at squared lengths ``ref_sq``, and the flex's
    ``_flex_system``, over what stays fixed along a path, built once: the
    float shifts, the row tables, the gauge rows and entries of z, and one
    buffer each for the residual, the Jacobian and the flex.  The residual
    at a raw configuration vector z, which the next call overwrites, also
    returns the edge vectors and their squared lengths, unchecked
    (``_check_point`` has the constructor's checks); the Jacobian (twice the
    rigidity matrix over the gauge rows) and the flex are assembled from them."""
    n, m, tails, heads, shifts = fw.n, fw.m, fw.tails, fw.heads, fw.shifts.astype(float)
    assemble, gauged = _flex_system(fw)
    jac, F, pinned = gauged.copy(), np.empty(m + 3), gauged[m:].argmax(axis=1)

    def residual(z):
        pos = z[:2 * n].reshape(n, 2)
        evecs = _edge_vectors(_lattice_rate(z, n), pos, tails, heads, shifts)
        squares = np.einsum("ij,ij->i", evecs, evecs)
        np.subtract(squares, ref_sq, out=F[:m])
        F[m:] = z[pinned]
        return F, evecs, squares

    def jacobian(evecs):
        # scaling by 2 is exact: the rows come out as twice the assembled ones
        assemble(2.0 * evecs, jac[:m])
        return jac

    return residual, jacobian, (assemble, gauged)


def _newton_correct(residual, jacobian, z, tol_abs):
    """Corrected iterate, whether it converged, and its edge vectors (None
    unless it did).  An iterate needs only a finite residual, and the
    Jacobian is assembled only at an iterate that goes on to take a step;
    the converged iterate alone gets the framework constructor's geometry
    checks (``_check_point``).  A non-finite residual (say, squared lengths
    that overflow after too long a step, or the NaN step of a failed solve),
    no convergence within NEWTON_MAX_ITER steps, or a converged point the
    checks refuse is a failed correction, not an invalid input."""
    for k in range(NEWTON_MAX_ITER + 1):
        F, evecs, squares = residual(z)
        err = float(np.abs(F).max())
        if err <= tol_abs:
            try:
                _check_point(z, squares)
            except FrameworkError:
                return z, False, None
            return z, True, evecs
        if k == NEWTON_MAX_ITER or not math.isfinite(err):
            return z, False, None
        J = jacobian(evecs)
        if np.linalg.lstsq is not np.linalg._linalg.lstsq:    # replaced, as bench/spans.py
            z = z + np.linalg.lstsq(J, -F, rcond=None)[0]     # replaces it to count solves
            continue
        with np.errstate(all="ignore"):    # np.linalg.lstsq's solution, NaN where it raised
            z = z + _lstsq(J, -F[:, None], sys.float_info.epsilon * max(J.shape))[0][:, 0]


def _check_point(z, squares):
    """The geometry checks of a framework's constructor, with its messages
    (``validate_geometry``), at the placement of a raw configuration vector
    z (lattice columns last) whose squared edge lengths are ``squares``."""
    positions = z[:-4].reshape(-1, 2)
    _require_spread(positions, squares,
                    _geometry_scale(z[-4:].reshape(2, 2).T, float(np.abs(positions).max())))


def _corner_table(fw, fc):
    """The face corners of a pseudo-triangulation, fixed along its path.

    Columns: the half-edges (orbit k forward at k, reversed at k + m) of
    the twin of the incoming and of the outgoing edge, the face, the margin
    sign (+1 convex, -1 reflex) and the event text; then, per face, the
    angle sum (k - 2) pi of its k corners.  Reflex corners come
    first, by vertex: a pointed vertex has exactly one, and while the stars
    stay fixed its margin is the vertex's pointedness margin.  The other
    corners follow in face order, boundary order.
    """
    m = fw.m
    pred = np.empty_like(fc.succ)
    pred[fc.succ] = np.arange(2 * m)
    out = fc.order
    vertex = np.concatenate([fw.tails, fw.heads])[out]
    reflex = _corner_kinds(fc.corners) < 0
    rows = np.argsort(np.where(reflex, vertex, fw.n + np.arange(2 * m)), kind="stable")
    out, vertex, reflex = out[rows], vertex[rows], reflex[rows]
    face = fc.face[out]
    reasons = tuple("pointedness lost at vertex %d" % v if r else "flat corner on face %d" % f
                    for v, f, r in zip(vertex.tolist(), face.tolist(), reflex.tolist()))
    return [(pred[out] + m) % (2 * m), out, face, np.where(reflex, -1.0, 1.0), reasons,
            (np.bincount(face) - 2) * math.pi]


def _ppt_margin(table, evecs):
    """Smallest signed margin to the pseudo-triangulation boundary at the
    given edge vectors, and its event text; the first row wins a tie.

    A face whose angle sum is off (k - 2) pi by 2 pi j, j > 0, is past the
    boundary when exactly j of its convex corners read above pi, having
    wrapped through 0 (two edges at a vertex crossed), and no reflex corner
    reads below pi; one off by -2 pi has a reflex corner that opened
    through 2 pi.  The point is past by the largest angle such a corner went
    beyond.  Raises NumericalError when a face's angle sum is off by
    anything else: the stars changed."""
    twin_in, out, face, sign, reasons, sums = table
    angles = _direction_angles(evecs)
    # the stars move along the path: a corner wraps where its next angle is below its own
    a, a_next = angles.take(out), angles.take(twin_in)
    corners = _corner(a, a_next, a_next < a)
    off = np.bincount(face, corners) - sums
    if np.abs(off).max() > ANGLE_SUM_TOL:    # else no face is off, and none turned
        turns = np.rint(off / (2 * math.pi))
        bad = np.abs(off - 2 * math.pi * turns) > ANGLE_SUM_TOL
        if turns.any():
            closed = np.bincount(face, (sign > 0) & (corners > math.pi), len(off))
            opened = np.bincount(face, (sign < 0) & (corners < math.pi), len(off))
            bad |= np.where(turns > 0, (closed != turns) | (opened > 0), turns < -1)
        if bad.any():
            off = np.where(bad, np.abs(off), -1.0)
            raise NumericalError("corner order changed along the path: face %d angle sum "
                                 "off (k-2)pi by %.3g" % (np.argmax(off), off.max()))
        if turns.any():
            # convex corners closed to just below 2 pi, or a reflex one opened past it
            f = int(np.flatnonzero(turns)[0])
            ring = corners[face == f]
            if turns[f] > 0:
                past = 2 * math.pi - ring[(sign[face == f] > 0) & (ring > math.pi)].min()
            else:
                past = ring.min()
            return -float(past), "corner closed on face %d" % f
    margins = sign * (math.pi - corners)
    i = int(margins.argmin())
    return float(margins[i]), reasons[i]


def _probe(at, step, fa, fb):
    """A bracket (a, b) of the boundary within the crossing step, by Illinois
    regula falsi (Dowell & Jarratt 1971) on the corrected margin: ``at(h)``
    is the correction h along, its margin at [2], which reads ``fa`` > 0 at
    0 (the last sample) and ``fb`` <= 0 at ``step``.  Each probe moves the
    end whose side it reads; the value at the other end is halved when that
    end also stayed at the previous probe, or there was none, so the probes
    close in from both sides.  Probing stops at a probe that fails to
    correct or, as in Brent's method, that leaves the bracket more than half
    as wide as two probes before, as where the margin jumps (a corner
    closing) or reads exactly 0; the bracket verified so far is kept."""
    a, b, side = 0.0, step, 0
    older, old = math.inf, abs(step)    # the width two probes back and one
    while fa > 0.0 and old > EVENT_TAU_TOL:
        h = b - fb * (b - a) / (fb - fa)
        found = at(h)
        if found is None:
            break
        if found[2] > 0.0:
            a, fa, fb, side = h, found[2], fb * (0.5 if side >= 0 else 1.0), 1
        else:
            b, fb, fa, side = h, found[2], fa * (0.5 if side <= 0 else 1.0), -1
        if abs(b - a) > 0.5 * older:
            break
        older, old = old, abs(b - a)
    return a, b


def _locate(corrected, step, margin, point):
    """(lo, its correction or None at lo = 0, the correction past) of the
    boundary within the crossing step, whose correction ``point`` reads
    past; the last sample, at 0, reads ``margin`` inside.  The step is
    halved until the bracket [lo, hi] is below EVENT_TAU_TOL, correcting
    each midpoint within the bracket that ``_probe`` verified; one outside
    takes its side uncorrected.  The halving runs again correcting every
    midpoint unless lo and hi then read inside and past, so the result is
    the full halving's when the margin changes sign once in the step."""
    seen = {step: point}    # a correction depends on h alone

    def at(h):
        if h not in seen:
            seen[h] = corrected(h)
        return seen[h]

    for a, b in (_probe(at, step, margin, point[2]), (0.0, step)):
        lo, hi, inside, past = 0.0, step, None, point
        while abs(hi - lo) > EVENT_TAU_TOL:
            mid = 0.5 * (lo + hi)
            if mid not in seen and not abs(a) < abs(mid) < abs(b):
                lo, hi = (mid, hi) if abs(mid) <= abs(a) else (lo, mid)
                continue
            found = at(mid)
            if found is None:
                hi = mid
            elif found[2] <= 0.0:
                hi, past = mid, found
            else:
                lo, inside = mid, found
        ends = at(lo) if lo else None, at(hi)
        if (not lo or ends[0] and ends[0][2] > 0.0) and ends[1] and ends[1][2] <= 0.0:
            return (lo,) + ends
    return lo, inside, past


def _judged(trace, n, cutoff):
    """The ``PathSample``s of a traced path's (tau, raw vector z, oriented
    tangent) triples, judged in chunks of samples whose pair grids hold at
    most _CHUNK_CELLS cells (or one sample): one ``_pair_rates`` call, the
    Gram matrices and their rates as stacks, then the verdicts per sample.
    The first sample in path order that would be refused alone raises, its
    rates before its Gram rate: a chunk whose rates are not all finite is
    judged again one sample at a time."""
    u, _, shifts, _ = _pair_grid(n, cutoff)
    size = max(1, _CHUNK_CELLS // (len(u) * len(shifts)))
    samples = []
    for at in range(0, len(trace), size):
        chunk = trace[at:at + size]
        taus, z, tangents = zip(*chunk)
        cfg, tangents = Configuration.from_vector(np.array(z), n), np.array(tangents)
        try:
            rates = _pair_rates(cfg.positions, cfg.lattice, tangents, cutoff)
        except NumericalError:
            if len(chunk) == 1:
                raise
            for one in chunk:
                samples += _judged([one], n, cutoff)
            continue
        for tau, p, lat, gram, dom, ok, low in zip(taus, cfg.positions, cfg.lattice, cfg.gram(),
                                                   gram_derivative(cfg, tangents),
                                                   *_expansive(rates)):
            samples.append(PathSample(tau, Configuration(p, lat), gram, dom, ok,
                                      auxetic_tangent_check(dom), low))
    return samples


def continue_path(fw, steps, ds=1e-2, cutoff=2):
    """Trace the one-parameter deformation of a pseudo-triangulation.

    Tangent predictor from the last sample's raw vector plus Newton
    correction on the edge-length and gauge constraints; the framework
    constructor's geometry checks run once per correction, on the point it
    converges to (``_newton_correct``), and once on the initial placement,
    which also gives the reference lengths.  Terminates on the step count,
    on corrector failure after step halving, or at the pseudo-triangulation
    boundary (a vertex losing pointedness, a face angle reaching pi or a
    corner closing to 0), located in either direction of ``ds`` by halving
    the crossing step after secant probes (``_locate``).  No verdict steers
    the path: they are judged once it is traced, in bounded stacked chunks
    (``_judged``), and errors surface in sample order.  ``steps`` is read
    as an integer, and a negative step count or a zero or non-finite step
    length ``ds`` is refused (FrameworkError).
    """
    if not math.isfinite(ds):
        raise FrameworkError("step length ds must be finite, got %g" % ds)
    if ds == 0:
        raise FrameworkError("step length ds must be nonzero, got %g" % ds)
    steps = _integer(steps, "steps")
    if steps < 0:
        raise FrameworkError("steps must be >= 0, got %d" % steps)
    cert = _certified(fw)
    cfg = Configuration.from_framework(fw)
    if steps == 0:
        return DeformationPath([PathSample(0.0, cfg, cfg.gram(), None, None, None)],
                               "step count reached")
    table = _corner_table(fw, cert.faces)
    # only the initial sample validates on its own: later ones take the
    # edge vectors their corrector validated
    _, evecs, ref_sq = validate_geometry(cfg.lattice, cfg.positions, fw.tails, fw.heads,
                                         fw.shifts)
    tol_abs = NEWTON_TOL * max(1.0, float(ref_sq.max()))
    residual, jacobian, system = _constraints(fw, ref_sq)

    trace = []    # (tau, raw vector, oriented tangent) of each sample

    def corrected(h):
        # (z, edge vectors, margin, event text) of the point h along, or None
        _, last, tangent = trace[-1]
        z, ok, evecs = _newton_correct(residual, jacobian, last + h * tangent, tol_abs)
        return (z, evecs) + _ppt_margin(table, evecs) if ok else None

    def sample(h, z, evecs, boundary=False):
        # move h along to z, the flex turned to follow the previous sample;
        # only a boundary sample may keep the last tangent
        tau, _, tangent = trace[-1] if trace else (0.0, None, None)
        try:
            t = _oriented_flex(*system, _lattice_rate(z, fw.n), evecs)
        except NumericalError:
            if not boundary:
                raise
            t = tangent
        if tangent is not None and float(t @ tangent) < 0:
            t = -t
        trace.append((tau + h, z, t))

    def walk():
        # the termination text and event margin of the traced path
        sample(0.0, cfg.as_vector(), evecs)
        _pair_grid(fw.n, cutoff)    # refuses the cutoff before the path is traced
        margin = _ppt_margin(table, evecs)[0]
        step = float(ds)
        # every sample after the first is an accepted step
        while len(trace) - 1 < steps:
            point = corrected(step)
            if point is None:
                if abs(step) <= MIN_STEP:
                    return "corrector divergence", None
                step *= 0.5
            elif point[2] > 0.0:
                sample(step, *point[:2])
                margin = point[2]
            else:
                lo, inside, point = _locate(corrected, step, margin, point)
                if inside is not None:
                    # boundary sample (the last configuration still inside)
                    sample(lo, *inside[:2], boundary=True)
                return "event: %s" % point[3], point[2]
        return "step count reached", None

    try:
        ended = walk()
    except Exception:
        if trace:
            _judged(trace, fw.n, cutoff)    # an earlier sample's refusal comes first
        raise
    return DeformationPath(_judged(trace, fw.n, cutoff), *ended)
