"""Acceptance battery for the demo box (b = 1, hyperbolic arch on [0, 2]).

Each test certifies one headline property of the construction at its stated
tolerance and prints a single PASS/FAIL line; together they cover the folded
box, its development, the full deformation family, and the topology
obstruction in between.
"""

from __future__ import annotations

import numpy as np

from pillowfold.deformation import (DeformationSchedule, DeformedQuarter,
                                    assemble_deformed, deformed_quarter,
                                    horizontal_end_depth,
                                    pattern_scaling_family)
from pillowfold.development import PlanarDevelopment, double_rectangle_mesh
from pillowfold.folding import (DevelopableStrip, first_fundamental_form,
                                frenet_frame, interior_grid)
from pillowfold.mesh import quarter_grid_v
from pillowfold.pillowbox import QuarterParametrization, assemble_box
from pillowfold.profiles import FundamentalData
from pillowfold.verify import (check_crease_planarity, check_flatness,
                               check_isometry, topology_report)

import oracles as oc

DATA = FundamentalData.demo()
SCHEDULE = DeformationSchedule.linear()
T_GRID = np.round(np.linspace(0.0, 1.0, 11), 10)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def strip_vgrid(s, n_half, side):
    frac = np.linspace(0.08, 0.92, n_half)
    z0 = oc.demo_zeta(s, 0)
    if side == "upper":
        return z0[:, None] * frac
    return -(1.0 - z0)[:, None] * frac


def metric_reference(smat, vmat):
    z1 = oc.demo_zeta(smat, 1)
    return np.ones_like(z1), -z1, np.ones_like(z1)


def test_criterion_1_isometry_family():
    # measured (E, F, G) within 1e-6 of (1, -zeta', 1) on both strips of
    # every deformation stage, 64 x 32 interior samples per stage
    tol = 1e-6
    h_s, h_v = 2e-5, 1e-6
    s = interior_grid(2.0, 64)
    worst = 0.0
    for t in T_GRID:
        q = DeformedQuarter(DATA, float(1.0 - t))
        for side in ("upper", "lower"):
            rep = check_isometry(q.sampler(side, 2 * (h_s + h_v)),
                                 metric_reference, s,
                                 strip_vgrid(s, 16, side), h_s, h_v, tol)
            worst = max(worst, rep.worst)
    report(1, "isometry of the family", worst <= tol,
           f"worst={worst:.3e} tol={tol:g} over {T_GRID.size} stages x 64x32")


def test_criterion_2_endpoint_collapse():
    # the family starts at the folded box map and ends at the development
    tol = 1e-8
    s = np.linspace(0.0, 2.0, 33)
    vmat = quarter_grid_v(oc.demo_zeta(s, 0), 1.0, 8, 8)
    smat = np.broadcast_to(s, vmat.shape)
    start = DeformedQuarter(DATA, SCHEDULE.lam(0.0)).X(smat, vmat)
    box = QuarterParametrization(DATA).X(smat, vmat)
    end = DeformedQuarter(DATA, SCHEDULE.lam(1.0)).X(smat, vmat)
    flat = PlanarDevelopment(DATA).Y(smat, vmat)
    gap0 = float(np.max(np.abs(start - box)))
    gap1 = float(np.max(np.abs(end - flat)))
    report(2, "endpoint collapse", max(gap0, gap1) <= tol,
           f"|X^0 - X|={gap0:.3e} |X^1 - Y|={gap1:.3e} tol={tol:g}")


def test_criterion_3_flatness():
    # Gaussian curvature below 1e-5 on every strip at every stage
    tol = 1e-5
    h = 2e-4
    # margin keeps min |v| = 0.08 zeta(s) > 2h so no stencil crosses the crease
    s = interior_grid(2.0, 48, 0.01)
    worst = 0.0
    for t in T_GRID:
        q = DeformedQuarter(DATA, float(1.0 - t))
        for side in ("upper", "lower"):
            rep = check_flatness(q.sampler(side, 4 * h), s,
                                 strip_vgrid(s, 8, side), h, h, tol)
            worst = max(worst, rep.worst)
    report(3, "flatness of all strips", worst <= tol,
           f"worst |K|={worst:.3e} tol={tol:g}")


def test_criterion_4_structural_confinement():
    # crease keeps its height profile, stays in the plane z = lam y with
    # endpoints on the x-axis; the vertical end stays in y = b; rulings are
    # unit vectors
    tol, tol_ruling = 1e-9, 1e-12
    s = np.linspace(0.0, 2.0, 257)
    z0 = oc.demo_zeta(s, 0)
    worst_y = worst_plane = worst_end = worst_b = worst_xi = 0.0
    for t in T_GRID:
        lam = float(1.0 - t)
        q = DeformedQuarter(DATA, lam)
        c = q.crease.point(s)
        worst_y = max(worst_y, float(np.max(np.abs(c[:, 1] - z0))))
        worst_plane = max(worst_plane,
                          float(np.max(np.abs(c[:, 2] - lam * c[:, 1]))))
        if 0.0 < lam < 1.0:
            assert abs(check_crease_planarity(c).lambda_estimate - lam) < 1e-9
        ends = q.crease.point(np.array([0.0, 2.0]))
        worst_end = max(worst_end, float(np.max(np.abs(ends[:, 1:]))))
        worst_b = max(worst_b,
                      float(np.max(np.abs(oc.vertical_end(q, s)[:, 1] - 1.0))))
        worst_xi = max(worst_xi,
                       abs(float(np.linalg.norm(q.xi_upper)) - 1.0),
                       abs(float(np.linalg.norm(q.xi_lower)) - 1.0))
    ok = (max(worst_y, worst_plane, worst_end, worst_b) <= tol
          and worst_xi <= tol_ruling)
    report(4, "structural confinement", ok,
           f"height={worst_y:.1e} plane={worst_plane:.1e} ends={worst_end:.1e} "
           f"y=b={worst_b:.1e} (tol {tol:g}); |xi|-1={worst_xi:.1e} "
           f"(tol {tol_ruling:g})")


def test_criterion_5_depth_and_topology():
    # the horizontal end dips by -lam (1 - lam^2)/(1 + lam^2) max(zeta),
    # so every intermediate stage is an open mesh with self-intersections
    tol = 1e-8
    worst = 0.0
    for lam in (0.2, 0.4, 0.5, 0.6, 0.8):
        sampled = horizontal_end_depth(DATA, lam)
        predicted = -lam * (1.0 - lam ** 2) / (1.0 + lam ** 2) * DATA.max_height()
        worst = max(worst, abs(sampled - predicted))
    half_gap = abs(horizontal_end_depth(DATA, 0.5) - oc.DEPTH_HALF)
    topo_ok = True
    states = []
    for t in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        topo = topology_report(
            assemble_deformed(deformed_quarter(DATA, SCHEDULE, t), 48, 24))
        if t in (0.0, 1.0):
            good = topo.closed and topo.euler == 2 and topo.intersections == 0
        else:
            good = (not topo.closed) and topo.intersections > 0
        topo_ok = topo_ok and good
        states.append(f"t={t:g}:{'closed' if topo.closed else 'open'}"
                      f"/x{topo.intersections}")
    ok = worst <= tol and half_gap <= tol and topo_ok
    report(5, "depth formula and topology break", ok,
           f"depth gap={worst:.2e} half-fold gap={half_gap:.2e} tol={tol:g}; "
           + " ".join(states))


def test_criterion_6_development():
    # developed width 2 ln(1 + sqrt 2), image filling the rectangle, and the
    # double rectangle as a closed zero-volume sphere
    tol_width, tol_image = 1e-8, 1e-6
    dev = PlanarDevelopment(DATA)
    width_gap = abs(dev.width - oc.TWO_A)
    s = np.linspace(0.0, 2.0, 65)
    vmat = quarter_grid_v(oc.demo_zeta(s, 0), 1.0, 16, 16)
    pts = dev.Y(np.broadcast_to(s, vmat.shape), vmat).reshape(-1, 3)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    image_gap = max(abs(lo[0]), abs(hi[0] - oc.TWO_A), abs(lo[1]),
                    abs(hi[1] - 1.0), abs(lo[2]), abs(hi[2]))
    rect = double_rectangle_mesh(dev.width, 2.0, 16)
    topo = topology_report(rect)
    rect_ok = topo.closed and topo.euler == 2 and abs(topo.volume) < 1e-14
    ok = width_gap <= tol_width and image_gap <= tol_image and rect_ok
    report(6, "development", ok,
           f"width gap={width_gap:.2e} (tol {tol_width:g}) "
           f"image gap={image_gap:.2e} (tol {tol_image:g}) "
           f"double rectangle closed={topo.closed} euler={topo.euler} "
           f"|volume|={abs(topo.volume):.1e}")


def test_criterion_7_pattern_scaling_contrast():
    # the naive shrinking family: stays a closed sphere over the same
    # rectangle but loses volume, unlike the isometric family
    tol = 1e-6
    base_w, base_h = 2.0 * DATA.half_width(), 2.0 * DATA.b
    vols, ok = [], True
    for t in (0.0, 0.25, 0.5, 0.75, 0.95):
        member = pattern_scaling_family(DATA, t)
        topo = topology_report(assemble_box(member, 32, 16))
        w_gap = abs(2.0 * member.half_width() - base_w)
        h_gap = abs(2.0 * member.b - base_h)
        ok = ok and topo.closed and topo.euler == 2 and max(w_gap, h_gap) <= tol
        vols.append(topo.volume)
    decreasing = all(a > b for a, b in zip(vols, vols[1:]))
    vanishing = vols[-1] < 0.15 * vols[0]
    ok = ok and decreasing and vanishing
    report(7, "pattern-scaling contrast", ok,
           f"rectangle gap tol={tol:g}; volumes="
           + ">".join(f"{v:.4f}" for v in vols))


def test_criterion_8_oracle_cross_checks():
    # curvature and ruling angles at the apex, and the metric F entry at
    # s = 1/2, against independent finite-difference/quadrature oracles
    tol = 1e-8
    quarter = QuarterParametrization(DATA)
    strip = quarter.upper_strip
    apex = np.array([1.0])
    kappa = float(frenet_frame(quarter.crease, apex).kappa[0])
    # oracle: kappa = |c''| by five-point differencing of the velocity
    fd_acc = oc.five_point_diff(quarter.crease.velocity, apex, 1e-5)
    kappa_fd = float(np.linalg.norm(fd_acc))
    gap_kappa = max(abs(kappa - oc.KAPPA_AT_1), abs(kappa - kappa_fd))
    gap_alpha = abs(float(np.asarray(strip.alpha(apex))[0]) - oc.ALPHA_AT_1)
    gap_beta = abs(float(strip.beta(apex)[0]) - oc.BETA_AT_1)
    # oracle: F = cos(beta) = -zeta'(1/2), against the kernel's ruling angle,
    # plus the quadrature route for the crease x-progress that the same
    # sigma controls
    f_lib = float(np.cos(strip.beta(np.array([0.5]))[0]))
    gap_f = abs(f_lib - oc.F_HALF)
    assert abs(f_lib - (-0.447214)) < 1e-6
    x1_lib = float(quarter.crease.point(1.0)[0])
    gap_x1 = abs(x1_lib - oc.X1_SIMPSON_1E4)
    ok = (max(gap_kappa, gap_alpha, gap_beta, gap_f) <= tol and gap_x1 < 1e-6)
    report(8, "oracle cross-checks", ok,
           f"kappa gap={gap_kappa:.1e} alpha gap={gap_alpha:.1e} "
           f"beta gap={gap_beta:.1e} F gap={gap_f:.1e} (tol {tol:g}); "
           f"x(1) vs fixed Simpson={gap_x1:.1e}")


def test_criterion_9_dual_metric_dichotomy():
    # plane crease: both strips carry the same metric; twisted crease: the
    # mirror strip differs
    tol_agree, tol_differ = 1e-8, 1e-3
    quarter = QuarterParametrization(DATA)
    s = interior_grid(2.0, 33)
    v = np.full_like(s, 0.1)

    def metric_gap(strip):
        base = first_fundamental_form(strip, s, v)
        dual = first_fundamental_form(strip.dual(), s, v)
        return max(float(np.max(np.abs(b - d))) for b, d in zip(base, dual))

    pillow_gap = metric_gap(quarter.upper_strip)

    helix = oc.Helix.from_curvature_torsion(1.0, 0.3, turns=0.5)
    tau = frenet_frame(helix, np.array([1.0])).tau[0]
    assert abs(tau - 0.3) < 1e-12
    strip = DevelopableStrip(helix, lambda x: np.full(np.shape(x), 0.6),
                             lambda x: np.zeros(np.shape(x)))
    sh = np.linspace(0.3, 0.9 * helix.length, 33)
    vh = np.full_like(sh, 0.1)
    base = first_fundamental_form(strip, sh, vh)
    dual = first_fundamental_form(strip.dual(), sh, vh)
    helix_gap = max(float(np.max(np.abs(b - d))) for b, d in zip(base, dual))

    ok = pillow_gap <= tol_agree and helix_gap > tol_differ
    report(9, "dual-metric dichotomy", ok,
           f"plane crease gap={pillow_gap:.2e} (tol {tol_agree:g}), "
           f"twisted crease gap={helix_gap:.2e} (must exceed {tol_differ:g})")
