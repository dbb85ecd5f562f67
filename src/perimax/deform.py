"""One-parameter deformation paths: continuation, expansive and auxetic
certification.

Configurations are kept in a pinned gauge (vertex 0 at the origin, first
lattice generator on the positive x-axis) so the one-dimensional flex of a
pseudo-triangulation is literally one-dimensional and Newton correction is
well posed.  Expansiveness is checked on a finite set of vertex-copy pairs;
auxetic behavior through the positive-semidefiniteness of the Gram matrix
rate and, between samples, through lattice comparison operators of norm at
most one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FrameworkError, NumericalError, validate_geometry
from .pseudotri import certify_ppt, pointedness_margin
from .rigidity import gauge_reduced_kernel, gauge_rows, pair_table, rigidity_rows
from .topology import trace_faces

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
CONTRACTION_TOL = 1e-9


@dataclass
class Configuration:
    """Vertex positions and lattice matrix in the pinned gauge."""

    positions: np.ndarray   # (n, 2)
    lattice: np.ndarray     # (2, 2), columns generators

    @classmethod
    def from_framework(cls, fw):
        """Gauge-fix a framework's placement: translate vertex 0 to the
        origin and rotate the first generator onto the positive x-axis."""
        lam1 = fw.lattice[:, 0]
        norm = float(np.linalg.norm(lam1))
        if norm == 0.0:
            raise FrameworkError("first lattice generator is zero")
        c, s = lam1[0] / norm, lam1[1] / norm
        rot = np.array([[c, s], [-s, c]])
        positions = (fw.positions - fw.positions[0]) @ rot.T
        lattice = rot @ fw.lattice
        lattice[1, 0] = 0.0
        return cls(positions, lattice)

    @property
    def n(self):
        return self.positions.shape[0]

    def as_vector(self):
        return np.concatenate([self.positions.ravel(), self.lattice[:, 0], self.lattice[:, 1]])

    @classmethod
    def from_vector(cls, z, n):
        return cls(z[:2 * n].reshape(n, 2).copy(), _lattice_rate(z, n))

    def gram(self):
        return self.lattice.T @ self.lattice

    def gauge_ok(self, tol=1e-12):
        return (abs(self.positions[0, 0]) <= tol and abs(self.positions[0, 1]) <= tol
                and abs(self.lattice[1, 0]) <= tol and self.lattice[0, 0] > 0)


def _lattice_rate(tangent, n):
    return np.column_stack([tangent[2 * n:2 * n + 2], tangent[2 * n + 2:]])


def flex_tangent(cfg, fw, cutoff=2):
    """Unit generator of the gauge-reduced motion space, oriented so the
    vertex pair with the largest |distance rate| expands.

    Raises when the reduced kernel is not one-dimensional.
    """
    gauged = fw.with_geometry(cfg.positions, cfg.lattice)
    basis = gauge_reduced_kernel(gauged)
    if basis.shape[1] != 1:
        raise NumericalError(
            "deformation space is not one-dimensional (dimension %d)"
            % basis.shape[1])
    tangent = basis[:, 0] / np.linalg.norm(basis[:, 0])
    report = expansive_check(cfg, tangent, cutoff)
    if report.top_pair is not None and report.top_rate < 0:
        tangent = -tangent
    return tangent


@dataclass
class ExpansiveReport:
    ok: bool
    min_rate: float
    min_pair: tuple | None
    top_rate: float = 0.0      # signed rate of the pair with largest |rate|
    top_pair: tuple | None = None


def expansive_check(cfg, tangent, cutoff=2):
    """Rate of change of squared distances over all vertex-copy pairs
    within the shift cutoff (``pair_table``); expansive when none
    decreases.  Ties go to the first pair in table order."""
    n = cfg.n
    table = pair_table(n, cutoff)
    if not len(table):
        return ExpansiveReport(True, 0.0, None)
    u, v, c = table[:, 0], table[:, 1], table[:, 2:, None].astype(float)
    vel = tangent[:2 * n].reshape(n, 2)
    # stacked matmuls round each row like the single products lattice @ c, sep @ dsep
    sep = cfg.positions[v] + np.matmul(cfg.lattice, c)[:, :, 0] - cfg.positions[u]
    dsep = vel[v] + np.matmul(_lattice_rate(tangent, n), c)[:, :, 0] - vel[u]
    rates = 2.0 * np.matmul(sep[:, None], dsep[:, :, None])[:, 0, 0]
    if not np.all(np.isfinite(rates)):
        raise NumericalError("non-finite squared-distance rate")
    lo, top = int(np.argmin(rates)), int(np.argmax(np.abs(rates)))
    lo_pair, top_pair = [(a, b, (c1, c2)) for a, b, c1, c2 in table[[lo, top]].tolist()]
    tol = EXPANSIVE_TOL * max(1.0, abs(float(rates[top])))
    return ExpansiveReport(bool(rates[lo] >= -tol), float(rates[lo]), lo_pair,
                           float(rates[top]), top_pair)


def gram_derivative(cfg, tangent):
    """Rate of change of the lattice Gram matrix under a motion."""
    dlat = _lattice_rate(np.asarray(tangent, dtype=float), cfg.n)
    d = dlat.T @ cfg.lattice + cfg.lattice.T @ dlat
    return 0.5 * (d + d.T)


def auxetic_tangent_check(domega, tol=PSD_TOL):
    """True when the Gram rate lies in the positive semidefinite cone."""
    domega = np.asarray(domega, dtype=float)
    scale = max(1.0, abs(float(np.trace(domega))),
                float(np.linalg.norm(domega)))
    eigs = np.linalg.eigvalsh(0.5 * (domega + domega.T))
    return bool(eigs.min() >= -tol * scale)


def contraction_check(lattice_early, lattice_late, tol=CONTRACTION_TOL):
    """Operator norm of the map taking the later lattice basis to the
    earlier one; a norm <= 1 certifies lattice-wise contraction."""
    late = np.asarray(lattice_late, dtype=float)
    if abs(np.linalg.det(late)) == 0.0:
        raise FrameworkError("singular comparison lattice")
    T = np.asarray(lattice_early, dtype=float) @ np.linalg.inv(late)
    norm = float(np.linalg.norm(T, 2))
    return norm <= 1.0 + tol, norm


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


def _edge_lengths_sq(fw, cfg):
    _, e = validate_geometry(cfg.lattice, cfg.positions, fw.tails, fw.heads, fw.shifts)
    return np.einsum("ij,ij->i", e, e)


def _constraint_system(fw, z, ref_sq, n):
    """Edge-length and gauge residuals at the raw configuration vector z,
    and their Jacobian: twice the rigidity matrix over the gauge rows.  The
    iterate gets the geometric checks of a framework's constructor."""
    _, evecs = validate_geometry(_lattice_rate(z, n), z[:2 * n].reshape(n, 2),
                                 fw.tails, fw.heads, fw.shifts)
    F = np.concatenate([np.einsum("ij,ij->i", evecs, evecs) - ref_sq,
                        [z[0], z[1], z[2 * n + 1]]])
    J = np.vstack([2 * rigidity_rows(n, fw.tails, fw.heads, fw.shifts, evecs),
                   gauge_rows(fw)])
    return F, J


def _newton_correct(fw, z, ref_sq, n, tol_abs):
    for _ in range(NEWTON_MAX_ITER):
        F, J = _constraint_system(fw, z, ref_sq, n)
        if float(np.abs(F).max()) <= tol_abs:
            return z, True
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        z = z + step
    F, _ = _constraint_system(fw, z, ref_sq, n)
    return z, float(np.abs(F).max()) <= tol_abs


def _angle_classes(fw):
    """Corner/reflex classification of every face angle at the start;
    keeps the boundary margins signed (transversal) along the path."""
    return [[a < math.pi for a in face.corner_angles] for face in trace_faces(fw).faces]


def _ppt_margin(fw, cfg, classes):
    """Smallest signed margin to the pseudo-triangulation boundary.

    Positive while every vertex stays pointed and no face angle has crossed
    pi relative to its initial corner/reflex class.
    """
    gauged = fw.with_geometry(cfg.positions, cfg.lattice)
    margins = [(pointedness_margin(gauged, v), "pointedness lost at vertex %d" % v)
               for v in range(fw.n)]
    margins += [((math.pi - a) if corner else (a - math.pi), "flat corner on face %d" % face.id)
                for face in trace_faces(gauged).faces
                for a, corner in zip(face.corner_angles, classes[face.id])]
    return margins[int(np.argmin([margin for margin, _ in margins]))]


def continue_path(fw, steps, ds=1e-2, cutoff=2, stop_at_event=True):
    """Trace the one-parameter deformation of a pseudo-triangulation.

    Tangent predictor plus Newton correction on the edge-length and gauge
    constraints.  Terminates on the step count, on corrector failure after
    step halving, or at the pseudo-triangulation boundary (a vertex losing
    pointedness or a face angle reaching pi), located by bisection.
    """
    cert = certify_ppt(fw)
    if not cert.valid:
        raise FrameworkError(
            "not a certified pseudo-triangulation: %s" % "; ".join(cert.failures))
    n = fw.n
    cfg = Configuration.from_framework(fw)
    ref_sq = _edge_lengths_sq(fw, cfg)
    tol_abs = NEWTON_TOL * max(1.0, float(ref_sq.max()))

    samples = []
    tau = 0.0
    prev_tangent = None

    def make_sample(cfg, tangent):
        if tangent is None:
            return PathSample(tau, cfg, cfg.gram(), None, None, None)
        rep = expansive_check(cfg, tangent, cutoff)
        dom = gram_derivative(cfg, tangent)
        return PathSample(tau, cfg, cfg.gram(), dom, rep.ok,
                          auxetic_tangent_check(dom), rep.min_rate)

    def tangent_at(cfg):
        t = flex_tangent(cfg, fw, cutoff)
        if prev_tangent is not None and float(t @ prev_tangent) < 0:
            t = -t
        return t

    if steps <= 0:
        return DeformationPath([make_sample(cfg, None)], "step count reached")

    classes = _angle_classes(fw.with_geometry(cfg.positions, cfg.lattice))
    prev_tangent = tangent = tangent_at(cfg)
    samples.append(make_sample(cfg, tangent))

    termination = "step count reached"
    event_margin = None
    step = float(ds)
    k = 0
    while k < steps:
        z_pred = cfg.as_vector() + step * tangent
        z_new, ok = _newton_correct(fw, z_pred, ref_sq, n, tol_abs)
        if not ok:
            if abs(step) > MIN_STEP:
                step *= 0.5
                continue
            termination = "corrector divergence"
            break
        new_cfg = Configuration.from_vector(z_new, n)
        new_margin, reason = _ppt_margin(fw, new_cfg, classes)
        if stop_at_event and new_margin <= 0.0:
            # bisect the step length until the boundary is bracketed tightly
            lo, hi = 0.0, step
            lo_cfg = cfg
            while hi - lo > EVENT_TAU_TOL:
                mid = 0.5 * (lo + hi)
                z_mid, okm = _newton_correct(
                    fw, cfg.as_vector() + mid * tangent, ref_sq, n, tol_abs)
                if not okm:
                    hi = mid
                    continue
                mid_cfg = Configuration.from_vector(z_mid, n)
                m_mid, reason_mid = _ppt_margin(fw, mid_cfg, classes)
                if m_mid <= 0.0:
                    hi = mid
                    new_margin, reason = m_mid, reason_mid
                else:
                    lo, lo_cfg = mid, mid_cfg
            if lo > 0.0:
                # boundary sample (the last configuration still inside)
                tau += lo
                cfg = lo_cfg
                try:
                    prev_tangent = tangent = tangent_at(cfg)
                except NumericalError:
                    tangent = prev_tangent
                samples.append(make_sample(cfg, tangent))
            termination = "event: %s" % reason
            event_margin = new_margin
            break
        tau += step
        cfg = new_cfg
        prev_tangent = tangent = tangent_at(cfg)
        samples.append(make_sample(cfg, tangent))
        k += 1

    return DeformationPath(samples, termination, event_margin)
