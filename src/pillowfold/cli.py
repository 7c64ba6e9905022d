"""Command line interface.

Subcommands: validate, build, develop, deform, family, verify.  Each takes
only the flags it reads, hands them to the library (the checks, their grids
and thresholds live in verify), and emits the result: reports go to stdout as
JSON; artifact files (OBJ, SVG, trace JSON) go into --out.  Exit code 0 means
every requested check passed.  Output depends only on inputs and flags, never
on wall clock or randomness.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import deformation, mesh, pillowbox, verify
from .deformation import DeformationSchedule
from .errors import DomainError, IoError, PillowFoldError
from .profiles import FundamentalData, validate_fundamental_data


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
    the first failed entry otherwise."""
    data = _read_data(path)
    report = validate_fundamental_data(data.b, data.zeta)
    if not report.valid:
        e = next(e for e in report.entries if not e["passed"])
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
    tols = dict(verify.TOLERANCES)
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
        if not np.isfinite(tols[name]) or tols[name] < 0.0:
            parser.error(f"--tol {name} must be finite and >= 0, "
                         f"got {value!r}")
    return tols


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _artifact(out_dir: str | None, name: str) -> str | None:
    if out_dir is None:
        return None
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot use {out_dir} for artifacts: {exc}") from exc
    return os.path.join(out_dir, name)


def _fmt_t(t: float) -> str:
    """t in an artifact name: the shortest text that reads back as the same
    float, a trailing '.0' dropped, so distinct t give distinct names."""
    text = repr(float(t)).removesuffix(".0")
    return text.replace("-", "m").replace(".", "p")


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
    reports, topo, box = verify.box_checks(
        pillowbox.QuarterParametrization(data), *args.grid)
    path = _artifact(args.out, "box.obj")
    if path:
        mesh.export_obj(box, path)
    _emit({"topology": topo.to_dict(),
           "checks": [r.to_dict() for r in reports],
           "artifacts": [path] if path else []})
    return 0 if all(r.passed for r in reports) else 1


def _cmd_develop(args) -> int:
    data = _load_data(args.input)
    reports, dev, psi, rect = verify.development_checks(data, *args.grid)
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
    if args.sweep is not None:
        sched_report = deformation.validate_schedule(data, schedule)
        ts = np.linspace(0.0, 1.0, args.sweep)
        rows = verify.sweep_trace(data, schedule, ts, n_s, n_v)
        path = _artifact(args.out, "trace.json")
        if path:
            mesh.export_trace(rows, path)
        _emit({"schedule": sched_report.to_dict(), "trace": rows,
               "artifacts": [path] if path else []})
        return 0 if sched_report.valid else 1
    report, m = verify.state_report(data, schedule, args.t, n_s, n_v)
    path = _artifact(args.out, f"deformed_t{_fmt_t(args.t)}.obj")
    if path:
        mesh.export_obj(m, path)
    _emit({**report, "artifacts": [path] if path else []})
    return 0 if report["schedule"]["valid"] else 1


def _cmd_family(args) -> int:
    data = _load_data(args.input)
    rows = []
    ok = True
    artifacts = []
    for row, box, passed in verify.family_members(data, args.t_values,
                                                   *args.grid):
        rows.append(row)
        ok = ok and passed
        path = _artifact(args.out, f"family_t{_fmt_t(row['t'])}.obj")
        if path:
            mesh.export_obj(box, path)
            artifacts.append(path)
    vols = [r["volume"] for r in rows]
    decreasing = all(v1 > v2 for v1, v2 in zip(vols, vols[1:]))
    _emit({"rows": rows, "volumes_decreasing": decreasing,
           "artifacts": artifacts})
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    data = _load_data(args.input)
    schedule = _load_schedule(args.schedule)
    reports = verify.certify(data, schedule, *args.grid, args.eps_endpoint,
                             args.tols)
    payload = [r.to_dict() for r in reports]
    path = _artifact(args.out, "verify.json")
    if path:
        mesh.export_trace(payload, path)
    _emit({"checks": payload,
           "passed": int(sum(r.passed for r in reports)),
           "total": len(reports)})
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pillowfold",
        description="Curved-folding pillow box construction and certification")
    sub = parser.add_subparsers(dest="command", required=True)

    def data_input(p):
        p.add_argument("--input", help="fundamental data JSON (default: demo box)")

    def common(p, grid="48x24"):
        data_input(p)
        p.add_argument("--grid", type=_parse_grid, default=_parse_grid(grid),
                       help=f"sampling grid NSxNV (default {grid})")
        p.add_argument("--out", help="directory for artifact files")

    p = sub.add_parser("validate", help="check fundamental data admissibility")
    data_input(p)
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
    p.add_argument("--pattern-scaling", action="store_true",
                   help="the pattern-scaling family, the only one and the "
                        "default; the flag may be given or left out")
    p.add_argument("--t-values", type=_parse_numbers,
                   default="0,0.25,0.5,0.75,0.95")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("verify", help="full certification battery")
    common(p, grid="32x16")
    p.add_argument("--all", action="store_true", required=True)
    p.add_argument("--schedule", default="linear")
    p.add_argument("--eps-endpoint", type=float, default=1e-3,
                   help="endpoint guard fraction for interior grids")
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override a named tolerance: "
                        + ", ".join(verify.TOLERANCES))
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        args.tols = _parse_tol(args.tol, parser)
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
