"""Numerical certification: isometry, flatness, planarity, mesh topology.

Every check measures a residual against an explicit threshold and reports
worst value and location, so a failing certificate says where to look.
Finite differences only ever see guarded interior grids; the library's job is
to keep the checks honest, not to make them pass.

The batteries the CLI runs, with every state, grid, stencil step and
threshold they use, live here too; TOLERANCES holds the overridable ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import deformation, development, folding, pillowbox
from .curves import integrate_travels
from .errors import (CollinearSamples, DegenerateMetric, DomainError,
                     GridTooCoarse, ScheduleViolation)
from .mesh import (TriMesh, min_triangle_area_check, quarter_grid_v,
                   self_intersection_pairs)
from .profiles import VALIDATION_SAMPLES, FundamentalData
from .quadrature import gauss_segments

# The states of certify's checks, as values of the schedule's t.
_ISOMETRY_STATES = (0.0, 0.25, 0.5, 0.75, 1.0)
_FLATNESS_STATES = (0.0, 0.5, 1.0)
_STRUCTURE_STATES = (0.0, 0.3, 0.7, 1.0)
_TOPOLOGY_STATES = {0.0: True, 0.5: False, 1.0: True}     # t: closed

TOLERANCES = {
    "isometry": 1e-6,
    "flatness": 1e-5,
    "planarity": 1e-8,
    "depth": 1e-8,
}


@dataclass
class CheckReport:
    """One certified inequality: worst residual vs threshold."""

    check: str
    grid: str
    worst: float
    at: tuple
    threshold: float
    passed: bool

    @classmethod
    def bounded(cls, check: str, grid: str, worst: float, at: tuple,
                threshold: float) -> "CheckReport":
        """The report of the inequality worst <= threshold."""
        return cls(check, grid, worst, at, threshold, worst <= threshold)

    def to_dict(self) -> dict:
        return {"check": self.check, "grid": self.grid,
                "worst": float(self.worst),
                "at": [float(x) for x in self.at],
                "threshold": float(self.threshold), "pass": bool(self.passed)}


def _as_grid(s_values, v_values):
    s = np.atleast_1d(np.asarray(s_values, dtype=float))
    v = np.asarray(v_values, dtype=float)
    if v.ndim == 1:
        v = np.broadcast_to(v, (s.size, v.size))
    if s.size < 3 or v.shape[1] < 3:
        raise GridTooCoarse("need at least 3 samples per direction")
    smat = np.broadcast_to(s[:, None], v.shape)
    return smat, v


def check_isometry(sampler, reference, s_values, v_values, h_s: float,
                   h_v: float, threshold: float = 1e-6,
                   label: str = "isometry") -> CheckReport:
    """Compare the measured first fundamental form of sampler(s, v) with the
    reference metric on the given grid.

    reference(smat, vmat) returns (E, F, G) arrays.  The v stencil must not
    cross a crease, so callers keep |v| > h_v away from ruling switches.
    """
    smat, vmat = _as_grid(s_values, v_values)
    Xs = (sampler(smat + h_s, vmat) - sampler(smat - h_s, vmat)) / (2.0 * h_s)
    Xv = (sampler(smat, vmat + h_v) - sampler(smat, vmat - h_v)) / (2.0 * h_v)
    E = np.einsum('...j,...j->...', Xs, Xs)
    F = np.einsum('...j,...j->...', Xs, Xv)
    G = np.einsum('...j,...j->...', Xv, Xv)
    E0, F0, G0 = reference(smat, vmat)
    resid = np.maximum(np.abs(E - E0),
                       np.maximum(np.abs(F - F0), np.abs(G - G0)))
    worst = float(np.max(resid))
    k = np.unravel_index(int(np.argmax(resid)), resid.shape)
    return CheckReport.bounded(label, f"{smat.shape[0]}x{smat.shape[1]}",
                               worst, (float(smat[k]), float(vmat[k])),
                               threshold)


def check_flatness(sampler, s_values, v_values, h_s: float, h_v: float,
                   threshold: float = 1e-5,
                   label: str = "flatness") -> CheckReport:
    """Gaussian curvature of the sampled surface via a 3x3 stencil."""
    smat, vmat = _as_grid(s_values, v_values)

    X0 = sampler(smat, vmat)
    Xp = sampler(smat + h_s, vmat)
    Xm = sampler(smat - h_s, vmat)
    Yp = sampler(smat, vmat + h_v)
    Ym = sampler(smat, vmat - h_v)
    Xs = (Xp - Xm) / (2.0 * h_s)
    Xv = (Yp - Ym) / (2.0 * h_v)
    Xss = (Xp - 2.0 * X0 + Xm) / h_s ** 2
    Xvv = (Yp - 2.0 * X0 + Ym) / h_v ** 2
    Xsv = (sampler(smat + h_s, vmat + h_v) - sampler(smat + h_s, vmat - h_v)
           - sampler(smat - h_s, vmat + h_v) + sampler(smat - h_s, vmat - h_v)
           ) / (4.0 * h_s * h_v)

    E = np.einsum('...j,...j->...', Xs, Xs)
    F = np.einsum('...j,...j->...', Xs, Xv)
    G = np.einsum('...j,...j->...', Xv, Xv)
    det = E * G - F * F
    if np.any(det < 1e-12):
        raise DegenerateMetric(f"EG - F^2 reaches {float(np.min(det)):.3e}")
    n = np.cross(Xs, Xv)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    Lf = np.einsum('...j,...j->...', Xss, n)
    Mf = np.einsum('...j,...j->...', Xsv, n)
    Nf = np.einsum('...j,...j->...', Xvv, n)
    K = (Lf * Nf - Mf * Mf) / det
    worst = float(np.max(np.abs(K)))
    k = np.unravel_index(int(np.argmax(np.abs(K))), K.shape)
    return CheckReport.bounded(label, f"{smat.shape[0]}x{smat.shape[1]}",
                               worst, (float(smat[k]), float(vmat[k])),
                               threshold)


@dataclass
class PlanarityReport:
    """Best plane through the x-axis fitting the samples."""

    normal: tuple
    max_deviation: float
    lambda_estimate: float
    n_samples: int


def check_crease_planarity(points) -> PlanarityReport:
    """Fit a plane containing the x-axis (normal (0, p, q)) to the samples
    and estimate the fold parameter as -p/q from z = lam y."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.shape[0] < 3:
        raise CollinearSamples("need at least 3 samples")
    M = pts[:, 1:3]
    scale = float(np.max(np.abs(M))) if M.size else 0.0
    _, svals, vt = np.linalg.svd(M, full_matrices=False)
    if scale <= 0 or svals[0] < 1e-12 * (1.0 + float(np.max(np.abs(pts)))):
        raise CollinearSamples("samples lie on the x-axis; plane undetermined")
    p, q = vt[-1]
    deviation = float(np.max(np.abs(M @ vt[-1])))
    lam = float(-p / q) if abs(q) > 1e-12 else float("inf")
    return PlanarityReport((0.0, float(p), float(q)), deviation, lam,
                           pts.shape[0])


@dataclass
class TopologyReport:
    vertices: int
    edges: int
    faces: int
    euler: int
    closed: bool
    boundary_edges: int
    nonmanifold_edges: int
    intersections: int
    volume: float
    volume_valid: bool

    def to_dict(self) -> dict:
        return {"vertices": self.vertices, "edges": self.edges,
                "faces": self.faces, "euler": self.euler,
                "closed": self.closed, "boundary_edges": self.boundary_edges,
                "nonmanifold_edges": self.nonmanifold_edges,
                "intersections": self.intersections, "volume": self.volume,
                "volume_valid": self.volume_valid}


def topology_report(mesh: TriMesh, count_intersections: bool = True) -> TopologyReport:
    """Combinatorial and geometric summary of a welded mesh."""
    min_triangle_area_check(mesh)
    closed = mesh.is_closed()
    inter = len(self_intersection_pairs(mesh)) if count_intersections else 0
    volume_valid = closed and mesh.orientation_consistent()
    volume = mesh.signed_volume() if volume_valid else 0.0
    return TopologyReport(mesh.n_vertices, mesh.n_edges(), mesh.n_faces,
                          mesh.euler_characteristic(), closed,
                          mesh.boundary_edge_count(),
                          mesh.nonmanifold_edge_count(), inter, volume,
                          volume_valid)


# ---------------------------------------------------------------------------
# batteries
# ---------------------------------------------------------------------------

def _metric_reference(data: FundamentalData):
    def reference(smat, vmat):
        z1 = np.asarray(data.zeta.eval(smat, 1))
        return np.ones_like(z1), -z1, np.ones_like(z1)
    return reference


def _structure_checks(data, quarters, s, z0, tols):
    """Crease height/planarity, end confinement (the vertical end v = zeta
    - b is on xi_lower) and ruling norms on the interior grid s, heights z0."""
    reports = []
    for t, quarter in quarters.items():
        c = quarter.crease.point(s)
        gap_y = np.abs(c[:, 1] - z0)
        reports.append(CheckReport.bounded(
            f"crease-height t={t:g}", f"{s.size}", float(np.max(gap_y)),
            (float(s[np.argmax(gap_y)]), 0.0), 1e-9))
        plan = check_crease_planarity(c)
        gap = abs(plan.lambda_estimate - quarter.lam)
        reports.append(CheckReport.bounded(
            f"crease-plane t={t:g}", f"{s.size}", gap, (quarter.lam, 0.0),
            tols["planarity"]))
        vert = c + (c[:, 1] - data.b)[:, None] * quarter.xi_lower
        worst_b = float(np.max(np.abs(vert[:, 1] - data.b)))
        reports.append(CheckReport.bounded(
            f"vertical-end t={t:g}", f"{s.size}", worst_b, (0.0, 0.0), 1e-9))
        ends = quarter.crease.point(np.array([0.0, data.length]))
        worst_axis = float(np.max(np.abs(ends[:, 1:])))
        reports.append(CheckReport.bounded(
            f"endpoints-on-axis t={t:g}", "2", worst_axis, (0.0, 0.0), 1e-9))
        norm_gap = max(abs(float(np.linalg.norm(quarter.xi_upper)) - 1.0),
                       abs(float(np.linalg.norm(quarter.xi_lower)) - 1.0))
        reports.append(CheckReport.bounded(
            f"ruling-unit t={t:g}", "2", norm_gap, (0.0, 0.0), 1e-12))
    return reports


def box_checks(folded: pillowbox.QuarterParametrization, n_s: int, n_v: int):
    """Checks on the folded quarter's box; returns (reports, topology, box)."""
    box = pillowbox.assemble_box(folded, n_s, n_v)
    topo = topology_report(box)
    data = folded.data
    grid = f"{n_s}x{n_v}"
    bound = (2.0 * data.half_width()) * (2.0 * data.b) * (2.0 * data.max_height())
    reports = [
        CheckReport("box-closed", grid, float(topo.boundary_edges), (0.0, 0.0),
                    0.5, topo.closed and topo.euler == 2),
        CheckReport("box-no-intersections", grid, float(topo.intersections),
                    (0.0, 0.0), 0.5, topo.intersections == 0),
        CheckReport("box-volume-bounds", grid, topo.volume, (0.0, bound),
                    bound, topo.volume_valid and 0.0 < topo.volume < bound),
    ]
    return reports, topo, box


def development_checks(data: FundamentalData, n_s: int, n_v: int):
    """Checks on the flat state; returns (reports, development, pattern
    graph, double rectangle).  Grids below 2x2 raise GridTooCoarse, as
    mesh.assemble_reflected's do."""
    if n_s < 2 or n_v < 2:
        raise GridTooCoarse("need n_s >= 2 and n_v >= 2")
    reports = []
    dev = development.PlanarDevelopment(data)
    two_a = dev.width
    s = np.linspace(0.0, data.length, n_s + 1)
    z0 = np.asarray(data.zeta.eval(s, 0))
    vmat = quarter_grid_v(z0, data.b, n_v // 2, n_v - n_v // 2)
    pts = dev.Y(np.broadcast_to(s, vmat.shape), vmat)
    lo = pts.reshape(-1, 3).min(axis=0)
    hi = pts.reshape(-1, 3).max(axis=0)
    worst = max(abs(lo[0]), abs(lo[1]), abs(hi[0] - two_a), abs(hi[1] - data.b),
                abs(lo[2]), abs(hi[2]))
    reports.append(CheckReport.bounded(
        "development-image", f"{n_s}x{n_v}", float(worst), (0.0, 0.0), 1e-6))
    rect = development.double_rectangle_mesh(two_a, 2.0 * data.b,
                                             max(n_s // 2, 2))
    topo = topology_report(rect)
    ok = topo.closed and topo.euler == 2 and abs(topo.volume) <= 1e-12
    reports.append(CheckReport(
        "double-rectangle", f"{max(n_s // 2, 2)}", abs(topo.volume),
        (0.0, 0.0), 1e-12, ok))
    psi = dev.pattern
    pat = development.validate_pattern_conditions(psi, data.b)
    reports.append(CheckReport(
        "pattern-conditions", f"{VALIDATION_SAMPLES}",
        float(min(e["margin"] for e in pat.entries)),
        (0.0, 0.0), 0.0, pat.valid))
    return reports, dev, psi, rect


def _dichotomy_check(folded, s):
    strip = folded.upper_strip
    v = np.full_like(s, 0.1 * folded.data.b)
    base = folding.first_fundamental_form(strip, s, v)
    dual = folding.first_fundamental_form(strip.dual(), s, v)
    gap = float(max(np.max(np.abs(b - d)) for b, d in zip(base, dual)))
    return CheckReport.bounded("dual-metric-agreement", f"{s.size}", gap,
                               (0.0, 0.0), 1e-8)


def _obstruction_checks(data, quarters, folded, box_topo, n_s, n_v, tols):
    reports = []
    zmax = data.max_height()
    for t in (0.25, 0.5, 0.75):
        lam = quarters[t].lam
        depth = deformation.horizontal_end_depth(data, lam)
        predicted = deformation.depth_coefficient(lam) * zmax
        gap = abs(depth - predicted)
        # the grid label "4001" names no sample count the check takes; it
        # is golden bytes of verify.json, so it stays
        reports.append(CheckReport.bounded(
            f"depth-formula t={t:g}", "4001", gap, (depth, predicted),
            tols["depth"]))
    for t, want_closed in _TOPOLOGY_STATES.items():
        # the box is the folded quarter's mesh
        topo = box_topo if quarters[t] is folded else topology_report(
            deformation.assemble_deformed(quarters[t], n_s, n_v))
        if want_closed:
            ok = topo.closed and topo.euler == 2 and topo.intersections == 0
        else:
            ok = (not topo.closed) and topo.intersections > 0
        reports.append(CheckReport(
            f"topology t={t:g}", f"{n_s}x{n_v}", float(topo.boundary_edges),
            (float(topo.intersections), 0.0), 0.5, ok))
    return reports


def certify(data: FundamentalData, schedule, n_s: int, n_v: int, eps: float,
            tols: dict) -> list:
    """The full battery: isometry and flatness of the strips, crease and end
    structure, the box, the flat state, the closure obstruction and the
    dual-metric dichotomy, in that order.  tols maps each TOLERANCES name
    to its threshold; eps is the endpoint guard of the interior grids, a
    DomainError if it lets a stencil step past either end of [0, L].  A
    schedule that validate_schedule rejects is a ScheduleViolation naming
    the first failed entry, before any check runs.  The box is the
    (lam, mu) = (1, 0) state: its quarter serves the box, the dual-metric
    strips and every state at (1, 0), which reuses its mesh."""
    for e in deformation.validate_schedule(data, schedule).entries:
        if not e["passed"]:
            raise ScheduleViolation(
                f"fold parameter {e['lam']} at t = {e['t']:g} fails "
                f"{e['name']}, margin {e['margin']:.3e}")
    n_half = max(n_v // 4, 3)
    # One quarter per distinct (lam, mu), whose states' checks share its
    # crease and travel memo: the folded one first, then the states in the
    # order the checks first use them, so an error names the first checked.
    folded = pillowbox.QuarterParametrization(data)
    by_state = {(1.0, 0.0): folded}
    quarters = {}
    for t in dict.fromkeys(_ISOMETRY_STATES + _STRUCTURE_STATES):
        key = (schedule.lam(t), schedule.mu(t))
        if key not in by_state:
            by_state[key] = deformation.DeformedQuarter(data, *key)
        quarters[t] = by_state[key]
    L, tol = data.length, data.zeta.domain_tol
    h_iso = (1e-5 * max(L, 1.0), 1e-6 * max(data.b, 1.0))
    h_flat = (1e-4 * max(L, 1.0), 1e-4 * max(data.b, 1.0))
    h_s = max(h_iso[0], h_flat[0])      # stencils reach the grid's ends +- h_s
    s = folding.interior_grid(L, n_s, eps)
    if s[0] - h_s < -tol or s[-1] + h_s > L + tol:
        raise DomainError(f"endpoint guard {eps:g} lets the stencil step "
                          f"{h_s:g} leave [0, {L:g}]; it must be at least "
                          f"{h_s / L:g}")
    # The one grid of every check: the heights z0 over s, and per strip a v
    # grid clear of crease and rim.
    z0 = np.asarray(data.zeta.eval(s, 0))
    frac = np.linspace(0.08, 0.92, n_half)
    strips = {"upper": z0[:, None] * frac,
              "lower": -(data.b - z0)[:, None] * frac}
    # Every crease set the checks below ask for, all in one quadrature
    # pass.  A set listed but unused costs only time, a set used but not
    # listed only a second pass; the memo's bits are the same either way.
    travel = {quarter.crease: [] for quarter in by_state.values()}
    for quarter in quarters.values():
        travel[quarter.crease].append(s)
    for t in _ISOMETRY_STATES:
        travel[quarters[t].crease] += [s + h_iso[0], s - h_iso[0]]
    for t in _FLATNESS_STATES:
        travel[quarters[t].crease] += [s + h_flat[0], s - h_flat[0]]
    for t in _STRUCTURE_STATES:
        travel[quarters[t].crease].append(np.array([0.0, L]))
    for quarter in [folded] + [quarters[t] for t in _TOPOLOGY_STATES]:
        travel[quarter.crease].append(deformation.grid_columns(L, n_s))
    integrate_travels(travel)
    # A stencil of steps (h_s, h_v) samples each strip through that strip's
    # own smooth extension, with room to straddle the curved boundary.
    reference = _metric_reference(data)
    reports = [check_isometry(
        quarters[t].sampler(side, 2.0 * (h_iso[0] + h_iso[1])), reference,
        s, v, *h_iso, tols["isometry"], f"isometry t={t:g} {side}")
        for t in _ISOMETRY_STATES for side, v in strips.items()]
    reports += [check_flatness(
        quarters[t].sampler(side, 2.0 * (h_flat[0] + h_flat[1])),
        s, v, *h_flat, tols["flatness"], f"flatness t={t:g} {side}")
        for t in _FLATNESS_STATES for side, v in strips.items()]
    reports += _structure_checks(
        data, {t: quarters[t] for t in _STRUCTURE_STATES}, s, z0, tols)
    box_reports, box_topo, _ = box_checks(folded, n_s, n_v)
    reports += box_reports
    reports += development_checks(data, n_s, n_v)[0]
    reports += _obstruction_checks(data, quarters, folded, box_topo, n_s, n_v,
                                   tols)
    reports.append(_dichotomy_check(folded, s))
    return reports


def _map_gaps(travel, s, u) -> tuple[float, float]:
    """The gaps of a monotone map where a box reads it: the Newton residual
    max |forward(u) - s| at abscissae s with u = inverse(s), and the
    largest gap between the map's cumulative table and an independent
    fixed 15-point Gauss integral of its rate over each table cell."""
    inverse_gap = float(np.max(np.abs(travel.forward(u) - s)))
    cells = gauss_segments(travel.rate, travel.grid[:-1], travel.grid[1:])
    table_gap = float(np.max(np.abs(travel.table[1:] - np.cumsum(cells))))
    return inverse_gap, table_gap


def family_members(data: FundamentalData, t_values, n_s: int, n_v: int):
    """Per t, the pattern-scaling member's (row, box, passed): passed means
    a closed sphere whose map is right where the box reads it, both gaps of
    _map_gaps within 1e-9.  Every member develops onto the base's double
    rectangle (deformation.pattern_scaling_family), so the row's width is
    the base's.  The box is sampled over the base arc length
    (deformation.assemble_pattern_scaled) at the base abscissae of its
    columns, which the member's travel.inverse gives; those are the points
    _map_gaps checks.  The row reports no self-intersection count and its
    verdict reads none, so the box's topology is taken without the
    intersection test.  Volume order is left to the caller to report;
    pattern scaling can raise the volume at small t (the hyperbolic arch of
    length 2.402, width 1.411 with b = 0.761 does)."""
    width = 2.0 * data.half_width()
    for t in t_values:
        member, box, u = deformation.assemble_pattern_scaled(data, t, n_s,
                                                             n_v)
        topo = topology_report(box, count_intersections=False)
        inverse_gap, table_gap = _map_gaps(
            member.zeta.travel, deformation.grid_columns(member.length, n_s),
            u)
        row = {"t": t, "closed": topo.closed, "euler": topo.euler,
               "volume": topo.volume, "width": width,
               "inverse_gap": inverse_gap, "table_gap": table_gap}
        yield row, box, topo.closed and topo.euler == 2 \
            and max(inverse_gap, table_gap) <= 1e-9


def state_report(data: FundamentalData, schedule, t: float, n_s: int,
                 n_v: int) -> tuple[dict, TriMesh]:
    """One deformed state: its fold parameter and drift, closure depth, weld
    report, topology (with intersections) and the schedule's validity, as
    `deform --t` reports them, and its mesh."""
    sched_report = deformation.validate_schedule(data, schedule)
    q = deformation.deformed_quarter(data, schedule, t)
    m = deformation.assemble_deformed(q, n_s, n_v)
    topo = topology_report(m)
    return {"t": t, "lam": q.lam, "mu": q.mu,
            "depth": deformation.horizontal_end_depth(data, q.lam),
            "weld": m.weld_report, "topology": topo.to_dict(),
            "schedule": sched_report.to_dict()}, m


def sweep_trace(data: FundamentalData, schedule, t_values, n_s: int,
                n_v: int) -> list:
    """One summary row per t: fold state, closure depth, mesh topology."""
    rows = []
    for t in np.asarray(t_values, dtype=float):
        q = deformation.deformed_quarter(data, schedule, float(t))
        topo = topology_report(deformation.assemble_deformed(q, n_s, n_v),
                               count_intersections=False)
        rows.append({"t": float(t), "lam": q.lam, "mu": q.mu,
                     "depth": deformation.horizontal_end_depth(data, q.lam),
                     "closed": topo.closed,
                     "boundary_edges": topo.boundary_edges,
                     "euler": topo.euler, "volume": topo.volume,
                     "volume_valid": topo.volume_valid})
    return rows
