"""Command line interface.

Subcommands: validate, build, develop, deform, family, verify.  Reports go to
stdout as JSON; artifact files (OBJ, SVG, trace JSON) go into --out.  Exit
code 0 means every requested check passed.  Output depends only on inputs and
flags, never on wall clock or randomness.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import deformation, development, folding, mesh, pillowbox, verify
from .deformation import DeformationSchedule
from .errors import DomainError, IoError, PillowFoldError
from .profiles import FundamentalData, validate_fundamental_data

_TOL_DEFAULTS = {
    "isometry": 1e-6,
    "flatness": 1e-5,
    "planarity": 1e-8,
    "collapse": 1e-8,
    "depth": 1e-8,
    "image": 1e-6,
}


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IoError(f"cannot read JSON from {path}: {exc}") from exc


def _read_data(path: str | None) -> FundamentalData:
    if path is None:
        return FundamentalData.demo()
    return FundamentalData.from_descriptor(_read_json(path))


def _load_data(path: str | None) -> FundamentalData:
    """Fundamental data that validate accepts; DomainError (exit 2) naming
    the first failed gating entry otherwise."""
    data = _read_data(path)
    report = validate_fundamental_data(data.b, data.zeta)
    if not report.valid:
        e = next(e for e in report.entries if e["gating"] and not e["passed"])
        raise DomainError(f"invalid fundamental data: {e['name']} fails, "
                          f"margin {e['margin']:g} at s = {e['worst_s']:g}")
    return data


def _load_schedule(name: str) -> DeformationSchedule:
    desc = {"kind": name} if name in ("linear", "cosine") else _read_json(name)
    return DeformationSchedule.from_descriptor(desc)


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        ns, nv = text.lower().split("x")
        return int(ns), int(nv)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must look like 48x24, got {text!r}") from exc


def _parse_numbers(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from exc


def _parse_tol(pairs, parser) -> dict:
    tols = dict(_TOL_DEFAULTS)
    for item in pairs or []:
        if "=" not in item:
            parser.error(f"--tol expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        if name not in tols:
            parser.error(f"unknown tolerance {name!r}; "
                         f"known: {', '.join(sorted(tols))}")
        try:
            tols[name] = float(value)
        except ValueError:
            parser.error(f"--tol {name} expects a number, got {value!r}")
    return tols


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _artifact(out_dir: str | None, name: str) -> str | None:
    if out_dir is None:
        return None
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _fmt_t(t: float) -> str:
    return format(float(t), "g").replace("-", "m").replace(".", "p")


# ---------------------------------------------------------------------------
# grids for the checks
# ---------------------------------------------------------------------------

def _strip_grid(data: FundamentalData, n_s: int, n_half: int, side: str,
                eps: float):
    """Interior (s, v) grid for one strip; v stays clear of crease and rim."""
    s = folding.interior_grid(data.length, n_s, eps)
    frac = np.linspace(0.08, 0.92, n_half)
    z0 = np.asarray(data.zeta.eval(s, 0))
    if side == "upper":
        v = z0[:, None] * frac
    else:
        v = -(data.b - z0)[:, None] * frac
    return s, v


def _metric_reference(data: FundamentalData):
    def reference(smat, vmat):
        z1 = np.asarray(data.zeta.eval(smat, 1))
        return np.ones_like(z1), -z1, np.ones_like(z1)
    return reference


def _isometry_checks(data, quarters, n_s, n_half, eps, tol):
    """quarters maps each t to its DeformedQuarter, as for the two below."""
    reports = []
    h_s = 1e-5 * max(data.length, 1.0)
    h_v = 1e-6 * max(data.b, 1.0)
    ref = _metric_reference(data)
    slack = 2.0 * (h_s + h_v)
    for t, quarter in quarters.items():
        for side in ("upper", "lower"):
            s, v = _strip_grid(data, n_s, n_half, side, eps)
            rep = verify.check_isometry(
                quarter.sampler(side, slack), ref, s, v, h_s, h_v, tol,
                label=f"isometry t={t:g} {side}")
            reports.append(rep)
    return reports


def _flatness_checks(data, quarters, n_s, n_half, eps, tol):
    reports = []
    h_s = 1e-4 * max(data.length, 1.0)
    h_v = 1e-4 * max(data.b, 1.0)
    slack = 2.0 * (h_s + h_v)
    for t, quarter in quarters.items():
        for side in ("upper", "lower"):
            s, v = _strip_grid(data, n_s, n_half, side, eps)
            rep = verify.check_flatness(
                quarter.sampler(side, slack), s, v, h_s, h_v, tol,
                label=f"flatness t={t:g} {side}")
            reports.append(rep)
    return reports


def _structure_checks(data, quarters, n_s, eps, tols):
    """Crease height/planarity, end confinement, ruling norms."""
    reports = []
    s = folding.interior_grid(data.length, n_s, eps)
    z0 = np.asarray(data.zeta.eval(s, 0))
    for t, quarter in quarters.items():
        c = quarter.crease.point(s)
        worst_y = float(np.max(np.abs(c[:, 1] - z0)))
        reports.append(verify.CheckReport(
            f"crease-height t={t:g}", f"{s.size}", worst_y,
            (float(s[np.argmax(np.abs(c[:, 1] - z0))]), 0.0), 1e-9,
            worst_y <= 1e-9))
        plan = verify.check_crease_planarity(c)
        gap = abs(plan.lambda_estimate - quarter.lam)
        reports.append(verify.CheckReport(
            f"crease-plane t={t:g}", f"{s.size}", gap, (quarter.lam, 0.0),
            tols["planarity"], gap <= tols["planarity"]))
        vert = quarter.vertical_end(s)
        worst_b = float(np.max(np.abs(vert[:, 1] - data.b)))
        reports.append(verify.CheckReport(
            f"vertical-end t={t:g}", f"{s.size}", worst_b, (0.0, 0.0), 1e-9,
            worst_b <= 1e-9))
        ends = quarter.crease.point(np.array([0.0, data.length]))
        worst_axis = float(np.max(np.abs(ends[:, 1:])))
        reports.append(verify.CheckReport(
            f"endpoints-on-axis t={t:g}", "2", worst_axis, (0.0, 0.0), 1e-9,
            worst_axis <= 1e-9))
        norm_gap = max(abs(float(np.linalg.norm(quarter.xi_upper)) - 1.0),
                       abs(float(np.linalg.norm(quarter.xi_lower)) - 1.0))
        reports.append(verify.CheckReport(
            f"ruling-unit t={t:g}", "2", norm_gap, (0.0, 0.0), 1e-12,
            norm_gap <= 1e-12))
    return reports


def _box_topology_checks(data, n_s, n_v):
    """Checks on the assembled box; returns (reports, topology, box)."""
    reports = []
    box = pillowbox.assemble_box(data, n_s, n_v)
    topo = verify.topology_report(box)
    reports.append(verify.CheckReport(
        "box-closed", f"{n_s}x{n_v}", float(topo.boundary_edges), (0.0, 0.0),
        0.5, topo.closed and topo.euler == 2))
    reports.append(verify.CheckReport(
        "box-no-intersections", f"{n_s}x{n_v}", float(topo.intersections),
        (0.0, 0.0), 0.5, topo.intersections == 0))
    bound = (2.0 * data.half_width()) * (2.0 * data.b) * (2.0 * data.max_height())
    ok = topo.volume_valid and 0.0 < topo.volume < bound
    reports.append(verify.CheckReport(
        "box-volume-bounds", f"{n_s}x{n_v}", topo.volume, (0.0, bound),
        bound, ok))
    return reports, topo, box


def _development_checks(data, n_s, n_v, tols):
    """Checks on the flat state; returns (reports, development, pattern
    graph, double rectangle)."""
    reports = []
    dev = development.developing_map(data)
    two_a = dev.width
    s = np.linspace(0.0, data.length, n_s + 1)
    z0 = np.asarray(data.zeta.eval(s, 0))
    vmat = mesh.quarter_grid_v(z0, data.b, max(n_v // 2, 1),
                               max(n_v - n_v // 2, 1))
    pts = dev.Y(np.broadcast_to(s, vmat.shape), vmat)
    lo = pts.reshape(-1, 3).min(axis=0)
    hi = pts.reshape(-1, 3).max(axis=0)
    worst = max(abs(lo[0]), abs(lo[1]), abs(hi[0] - two_a), abs(hi[1] - data.b),
                abs(lo[2]), abs(hi[2]))
    reports.append(verify.CheckReport(
        "development-image", f"{n_s}x{n_v}", float(worst), (0.0, 0.0),
        tols["image"], worst <= tols["image"]))
    rect = development.double_rectangle_mesh(two_a, 2.0 * data.b,
                                             max(n_s // 2, 2))
    topo = verify.topology_report(rect)
    ok = topo.closed and topo.euler == 2 and abs(topo.volume) <= 1e-12
    reports.append(verify.CheckReport(
        "double-rectangle", f"{max(n_s // 2, 2)}", abs(topo.volume),
        (0.0, 0.0), 1e-12, ok))
    psi = development.pattern_graph(data)
    pat = development.validate_pattern_conditions(psi, data.b)
    reports.append(verify.CheckReport(
        "pattern-conditions", f"{pat.n_samples}",
        float(min(e["margin"] for e in pat.entries if e["gating"])),
        (0.0, 0.0), 0.0, pat.valid))
    return reports, dev, psi, rect


def _dual_metric_gap(strip, s, v):
    base = folding.first_fundamental_form(strip, s, v).closed
    dual = folding.first_fundamental_form(strip.dual(), s, v).closed
    return float(max(np.max(np.abs(b - d)) for b, d in zip(base, dual)))


def _dichotomy_check(data, n_s, eps):
    quarter = pillowbox.quarter_parametrization(data)
    s = folding.interior_grid(data.length, n_s, eps)
    v = np.full_like(s, 0.1 * data.b)
    gap = _dual_metric_gap(quarter.upper_strip, s, v)
    return verify.CheckReport("dual-metric-agreement", f"{n_s}", gap,
                              (0.0, 0.0), 1e-8, gap <= 1e-8)


def _obstruction_checks(data, schedule, n_s, n_v, tols):
    reports = []
    zmax = data.max_height()
    for t in (0.25, 0.5, 0.75):
        lam = schedule.lam(t)
        depth = deformation.horizontal_end_depth(data, lam)
        predicted = -lam * (1.0 - lam ** 2) / (1.0 + lam ** 2) * zmax
        gap = abs(depth - predicted)
        reports.append(verify.CheckReport(
            f"depth-formula t={t:g}", "4001", gap, (depth, predicted),
            tols["depth"], gap <= tols["depth"]))
    for t, want_closed in ((0.0, True), (0.5, False), (1.0, True)):
        m = deformation.assemble_deformed(data, schedule, t, n_s, n_v)
        topo = verify.topology_report(m)
        if want_closed:
            ok = topo.closed and topo.euler == 2 and topo.intersections == 0
        else:
            ok = (not topo.closed) and topo.intersections > 0
        reports.append(verify.CheckReport(
            f"topology t={t:g}", f"{n_s}x{n_v}", float(topo.boundary_edges),
            (float(topo.intersections), 0.0), 0.5, ok))
    return reports


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    data = _read_data(args.input)
    report = validate_fundamental_data(data.b, data.zeta, args.samples)
    _emit(report.to_dict())
    return 0 if report.valid else 1


def _cmd_build(args) -> int:
    data = _load_data(args.input)
    n_s, n_v = args.grid
    reports, topo, box = _box_topology_checks(data, n_s, n_v)
    path = _artifact(args.out, "box.obj")
    if path:
        mesh.export_obj(box, path)
    _emit({"topology": topo.to_dict(),
           "checks": [r.to_dict() for r in reports],
           "artifacts": [path] if path else []})
    return 0 if all(r.passed for r in reports) else 1


def _cmd_develop(args) -> int:
    data = _load_data(args.input)
    n_s, n_v = args.grid
    tols = args.tols
    reports, dev, psi, rect = _development_checks(data, n_s, n_v, tols)
    artifacts = []
    svg_path = _artifact(args.out, "pattern.svg")
    if svg_path:
        xs = np.linspace(0.0, psi.length, 257)
        ys = np.asarray(psi.eval(xs, 0))
        lower = np.stack([xs, ys], axis=1)
        upper = np.stack([xs, 2.0 * data.b - ys], axis=1)
        mesh.export_svg(svg_path, psi.length, 2.0 * data.b, [lower, upper])
        artifacts.append(svg_path)
    obj_path = _artifact(args.out, "double_rectangle.obj")
    if obj_path:
        mesh.export_obj(rect, obj_path)
        artifacts.append(obj_path)
    _emit({"width": dev.width, "height": 2.0 * data.b,
           "checks": [r.to_dict() for r in reports], "artifacts": artifacts})
    return 0 if all(r.passed for r in reports) else 1


def _cmd_deform(args) -> int:
    data = _load_data(args.input)
    schedule = _load_schedule(args.schedule)
    n_s, n_v = args.grid
    sched_report = deformation.validate_schedule(data, schedule)
    if args.sweep is not None:
        ts = np.linspace(0.0, 1.0, args.sweep)
        rows = deformation.sweep_trace(data, schedule, ts, n_s, n_v)
        path = _artifact(args.out, "trace.json")
        if path:
            mesh.export_trace(rows, path)
        _emit({"schedule": sched_report.to_dict(), "trace": rows,
               "artifacts": [path] if path else []})
        return 0 if sched_report.valid else 1
    t = args.t
    lam = schedule.lam(t)
    m = deformation.assemble_deformed(data, schedule, t, n_s, n_v)
    topo = verify.topology_report(m)
    path = _artifact(args.out, f"deformed_t{_fmt_t(t)}.obj")
    if path:
        mesh.export_obj(m, path)
    _emit({"t": t, "lam": lam, "mu": schedule.mu(t),
           "depth": deformation.horizontal_end_depth(data, lam),
           "weld": m.weld_report, "topology": topo.to_dict(),
           "schedule": sched_report.to_dict(),
           "artifacts": [path] if path else []})
    return 0 if sched_report.valid else 1


def _cmd_family(args) -> int:
    data = _load_data(args.input)
    n_s, n_v = args.grid
    base_width = 2.0 * data.half_width()
    rows = []
    ok = True
    artifacts = []
    for t in args.t_values:
        member = deformation.pattern_scaling_family(data, t)
        box = pillowbox.assemble_box(member, n_s, n_v)
        topo = verify.topology_report(box)
        width = 2.0 * member.half_width()
        row = {"t": t, "closed": topo.closed, "euler": topo.euler,
               "volume": topo.volume, "width": width,
               "width_gap": abs(width - base_width)}
        ok = ok and topo.closed and topo.euler == 2 \
            and row["width_gap"] <= 1e-6
        rows.append(row)
        path = _artifact(args.out, f"family_t{_fmt_t(t)}.obj")
        if path:
            mesh.export_obj(box, path)
            artifacts.append(path)
    # Reported, not gated: pattern scaling can raise the volume at small t
    # (the hyperbolic arch of length 2.402, width 1.411 with b = 0.761 does).
    vols = [r["volume"] for r in rows]
    decreasing = all(v1 > v2 for v1, v2 in zip(vols, vols[1:]))
    _emit({"rows": rows, "volumes_decreasing": decreasing,
           "artifacts": artifacts})
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    data = _load_data(args.input)
    schedule = _load_schedule(args.schedule)
    n_s, n_v = args.grid
    eps = args.eps_endpoint
    tols = args.tols
    n_half = max(n_v // 4, 3)
    # One quarter per state, so the checks of a state share its crease and
    # that crease's travel memo.  They are built in the order the checks
    # first use them, so a schedule error names the first state checked.
    quarters = {t: deformation.deformed_quarter(data, schedule, t)
                for t in (0.0, 0.25, 0.5, 0.75, 1.0, 0.3, 0.7)}

    def at(*t_values):
        return {t: quarters[t] for t in t_values}
    reports = []
    reports += _isometry_checks(data, at(0.0, 0.25, 0.5, 0.75, 1.0),
                                n_s, n_half, eps, tols["isometry"])
    reports += _flatness_checks(data, at(0.0, 0.5, 1.0),
                                n_s, n_half, eps, tols["flatness"])
    reports += _structure_checks(data, at(0.0, 0.3, 0.7, 1.0),
                                 n_s, eps, tols)
    reports += _box_topology_checks(data, n_s, n_v)[0]
    reports += _development_checks(data, n_s, n_v, tols)[0]
    reports += _obstruction_checks(data, schedule, n_s, n_v, tols)
    reports.append(_dichotomy_check(data, n_s, eps))
    payload = [r.to_dict() for r in reports]
    path = _artifact(args.out, "verify.json")
    if path:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    _emit({"checks": payload,
           "passed": int(sum(r.passed for r in reports)),
           "total": len(reports)})
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pillowfold",
        description="Curved-folding pillow box construction and certification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid="48x24"):
        p.add_argument("--input", help="fundamental data JSON (default: demo box)")
        p.add_argument("--grid", type=_parse_grid, default=_parse_grid(grid),
                       help=f"sampling grid NSxNV (default {grid})")
        p.add_argument("--out", help="directory for artifact files")
        p.add_argument("--eps-endpoint", type=float, default=1e-3,
                       help="endpoint guard fraction for interior grids")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="override a named tolerance")

    p = sub.add_parser("validate", help="check fundamental data admissibility")
    common(p)
    p.add_argument("--samples", type=int, default=99)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("build", help="assemble the folded box mesh")
    common(p)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("develop", help="flat pattern and double rectangle")
    common(p)
    p.set_defaults(fn=_cmd_develop)

    p = sub.add_parser("deform", help="deformed states along a schedule")
    common(p)
    p.add_argument("--t", type=float, help="single deformation parameter")
    p.add_argument("--sweep", type=int, help="number of t samples in [0, 1]")
    p.add_argument("--schedule", default="linear",
                   help="linear | cosine | schedule JSON path")
    p.set_defaults(fn=_cmd_deform)

    p = sub.add_parser("family", help="pattern-scaling family of boxes")
    common(p)
    p.add_argument("--pattern-scaling", action="store_true", required=True)
    p.add_argument("--t-values", type=_parse_numbers,
                   default="0,0.25,0.5,0.75,0.95")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("verify", help="full certification battery")
    common(p, grid="32x16")
    p.add_argument("--all", action="store_true", required=True)
    p.add_argument("--schedule", default="linear")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.tols = _parse_tol(getattr(args, "tol", None), parser)
    if args.command == "validate" and args.samples < 1:
        parser.error("--samples must be >= 1")
    if args.command == "deform":
        if (args.t is None) == (args.sweep is None):
            parser.error("deform needs exactly one of --t or --sweep")
        if args.sweep is not None and args.sweep < 2:
            parser.error("--sweep must be >= 2")
    try:
        return args.fn(args)
    except PillowFoldError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
