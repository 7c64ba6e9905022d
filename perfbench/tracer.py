"""Outside-in tracer for pillowfold's layers.

The tracer replaces public functions and methods of the program's modules
with wrappers that record spans in memory, then puts the originals back.  A
module-level function is also replaced under every alias that another
pillowfold module imported by name (`verify.self_intersection_pairs`,
`curves.cumulative_integral`, `pillowbox.assemble_reflected`, ...), since
patching only the defining module would miss those callers.

Self time is kept with a stack: a span's self time is its duration minus the
inclusive time of the spans it called.  `ProfileFunction.eval` is re-entrant
for derived profiles, so totals count only the outermost span of a name or a
layer.  The wrappers' own work (stack upkeep, counters) happens outside the
timed call and is kept apart as `trace.bookkeeping_s`, so

    sum of layer self times + trace.bookkeeping_s = traced job wall time

holds up to the few instructions between the last clock read and the return.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = ("profiles", "quadrature", "curves", "folding", "pillowbox",
          "development", "deformation", "mesh", "verify", "cli")

# (module, function or Class.method, span name): the public entry points the
# three workloads reach.  The layer of a span is the module it wraps; several
# functions may share one span name.
SPANS = (
    ("profiles", "ProfileFunction.eval", "profiles.eval"),
    ("profiles", "validate_fundamental_data", "profiles.validate"),
    ("profiles", "graph_to_arclength_profile", "profiles.reparametrize"),
    ("profiles", "FundamentalData.half_width", "profiles.half_width"),
    ("profiles", "FundamentalData.max_height", "profiles.max_height"),
    ("quadrature", "integrate_segments", "quadrature.integrate"),
    ("quadrature", "cumulative_integral", "quadrature.cumulative"),
    ("quadrature", "gauss_segments", "quadrature.gauss"),
    ("curves", "ProfileCrease.point", "curves.crease_point"),
    ("curves", "ProfileCrease.sigma", "curves.sigma"),
    ("curves", "ProfileCrease.velocity", "curves.velocity"),
    ("curves", "ProfileCrease.acceleration", "curves.acceleration"),
    ("folding", "first_fundamental_form", "folding.fundamental_form"),
    ("folding", "frenet_frame", "folding.frenet_frame"),
    ("folding", "interior_grid", "folding.interior_grid"),
    ("pillowbox", "assemble_box", "pillowbox.assemble_box"),
    ("pillowbox", "QuarterParametrization.__init__", "pillowbox.quarter"),
    ("pillowbox", "QuarterParametrization.X", "pillowbox.X"),
    ("development", "PlanarDevelopment.__init__", "development.developing_map"),
    ("development", "PlanarDevelopment.Y", "development.Y"),
    ("development", "pattern_graph", "development.pattern_graph"),
    ("development", "validate_pattern_conditions", "development.pattern_conditions"),
    ("development", "double_rectangle_mesh", "development.double_rectangle"),
    ("deformation", "DeformedQuarter.__init__", "deformation.quarter"),
    ("deformation", "DeformedQuarter.X", "deformation.X"),
    ("deformation", "assemble_deformed", "deformation.assemble"),
    ("deformation", "pattern_scaling_family", "deformation.family_member"),
    ("deformation", "validate_schedule", "deformation.validate_schedule"),
    ("deformation", "horizontal_end_depth", "deformation.end_depth"),
    ("mesh", "TriMesh.__post_init__", "mesh.build"),
    ("mesh", "TriMesh.edges_with_counts", "mesh.edge_table"),
    ("mesh", "TriMesh.orientation_consistent", "mesh.orientation"),
    ("mesh", "quarter_grid_v", "mesh.sample"),
    ("mesh", "sample_quarter", "mesh.sample"),
    ("mesh", "assemble_reflected", "mesh.weld"),
    ("mesh", "self_intersection_pairs", "mesh.intersect"),
    ("mesh", "min_triangle_area_check", "mesh.area_check"),
    ("mesh", "export_obj", "mesh.export"),
    ("verify", "check_isometry", "verify.isometry"),
    ("verify", "check_flatness", "verify.flatness"),
    ("verify", "check_crease_planarity", "verify.planarity"),
    ("verify", "topology_report", "verify.topology"),
    ("verify", "CheckReport.__init__", "verify.check_report"),
    ("cli", "main", "cli.job"),
)


def _program_modules() -> list:
    """(name, module) of every loaded pillowfold module."""
    return [(n, m) for n, m in list(sys.modules.items())
            if m is not None and (n == "pillowfold" or n.startswith("pillowfold."))]


def _counting(fn, counters, key):
    """fn, adding the number of points it is asked for to counters[key]."""
    def counted(*args):
        counters[key] = counters.get(key, 0) + int(np.size(args[0]))
        return fn(*args)
    return counted


class Tracer:
    """Spans and counters for the jobs run between install() and uninstall()."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}     # outermost span of each name
        self.layer_total_s: dict[str, float] = {}   # outermost span of each layer
        self.counters: dict[str, float] = {}
        self.bookkeeping_s = 0.0
        self.jobs = 0
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple] = []
        self._seen: dict[tuple, set] = {}
        self._alive: list = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in SPANS that the loaded program defines."""
        mods = {name: sys.modules.get(f"pillowfold.{name}") for name in LAYERS}
        family = [m for _, m in _program_modules()]
        self.missing = []
        for layer, target, span in SPANS:
            mod = mods[layer]
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = (owner.__dict__.get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None)) if owner is not None else None
            if original is None:
                self.missing.append(f"{layer}.{target}")
                continue
            wrapper = self._wrap(original, span, layer)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for m in family:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @staticmethod
    def patched_state() -> dict:
        """Identity of every attribute the tracer may replace, for restore checks."""
        state = {}
        for n, m in _program_modules():
            for name, value in list(vars(m).items()):
                state[(n, name)] = id(value)
                if isinstance(value, type) and value.__module__ == n:
                    for attr, member in list(vars(value).items()):
                        state[(n, f"{name}.{attr}")] = id(member)
        return state

    # -- spans ---------------------------------------------------------------

    def begin_job(self) -> None:
        """Per-job state: the crease points already asked for."""
        self._seen = {}
        self._alive = []
        self.jobs += 1

    def _wrap(self, fn, span, layer):
        before = _BEFORE.get(span)
        after = _AFTER.get(span)
        stack, depth = self._stack, self._depth
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        layer_total = self.layer_total_s
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            if before is not None:
                args = before(tracer, args)
            frame = [0.0]
            stack.append(frame)
            depth[span] = depth.get(span, 0) + 1
            depth[layer] = depth.get(layer, 0) + 1
            t0 = perf_counter()
            result = failed = None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                depth[span] -= 1
                depth[layer] -= 1
                calls[span] = calls.get(span, 0) + 1
                self_s[span] = self_s.get(span, 0.0) + dur - frame[0]
                if depth[span] == 0:
                    total_s[span] = total_s.get(span, 0.0) + dur
                if depth[layer] == 0:
                    layer_total[layer] = layer_total.get(layer, 0.0) + dur
                if after is not None and not failed:
                    after(tracer, args, result)
                t_exit = perf_counter()
                if stack:
                    stack[-1][0] += t_exit - t_enter
                    tracer.bookkeeping_s += (t_exit - t_enter) - dur
            return result

        return wrapper

    def count(self, key: str, n) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: per traced job, ratios over the whole run."""
        jobs = max(self.jobs, 1)
        c, calls = self.counters, self.calls

        def per_job(x):
            return x / jobs

        def ratio(a, b):
            return a / b if b else 0.0

        def n(span):
            return per_job(calls.get(span, 0))

        def own(span):
            return per_job(self.self_s.get(span, 0.0))

        def total(span):
            return per_job(self.total_s.get(span, 0.0))

        out = {
            "profiles.eval.calls": n("profiles.eval"),
            "profiles.eval.points": per_job(c.get("profiles.eval.points", 0)),
            "profiles.eval.self_s": own("profiles.eval"),
            "profiles.eval.nested_ratio": ratio(c.get("profiles.eval.nested", 0),
                                                calls.get("profiles.eval", 0)),
            "profiles.validate.self_s": own("profiles.validate"),
            "quadrature.integrate.calls": n("quadrature.integrate"),
            "quadrature.integrate.points": per_job(c.get("quadrature.integrate.points", 0)),
            "quadrature.integrate.self_s": own("quadrature.integrate"),
            "quadrature.gauss.calls": n("quadrature.gauss"),
            "quadrature.gauss.points": per_job(c.get("quadrature.gauss.points", 0)),
            "quadrature.gauss.self_s": own("quadrature.gauss"),
            "curves.crease_point.calls": n("curves.crease_point"),
            "curves.crease_point.points": per_job(c.get("curves.crease_point.points", 0)),
            "curves.crease_point.total_s": total("curves.crease_point"),
            "curves.crease_point.repeat_ratio": ratio(
                c.get("curves.crease_point.repeats", 0),
                c.get("curves.crease_point.points", 0)),
            "folding.fundamental_form.calls": n("folding.fundamental_form"),
            "folding.fundamental_form.total_s": total("folding.fundamental_form"),
            "pillowbox.assemble_box.calls": n("pillowbox.assemble_box"),
            "pillowbox.assemble_box.total_s": total("pillowbox.assemble_box"),
            "development.pattern_graph.calls": n("development.pattern_graph"),
            "development.total_s": per_job(self.layer_total_s.get("development", 0.0)),
            "deformation.quarter.calls": n("deformation.quarter"),
            "deformation.assemble.total_s": total("deformation.assemble"),
            "deformation.family_member.total_s": total("deformation.family_member"),
            "deformation.validate_schedule.self_s": own("deformation.validate_schedule"),
            "mesh.sample.self_s": own("mesh.sample"),
            "mesh.weld.self_s": own("mesh.weld"),
            "mesh.meshes_built": n("mesh.build"),
            "mesh.faces_built": per_job(c.get("mesh.faces_built", 0)),
            "mesh.edge_table.calls": n("mesh.edge_table"),
            "mesh.edge_table.self_s": own("mesh.edge_table"),
            "mesh.edge_table.calls_per_mesh": ratio(calls.get("mesh.edge_table", 0),
                                                    calls.get("mesh.build", 0)),
            "mesh.intersect.calls": n("mesh.intersect"),
            "mesh.intersect.faces": per_job(c.get("mesh.intersect.faces", 0)),
            "mesh.intersect.hits": per_job(c.get("mesh.intersect.hits", 0)),
            "mesh.intersect.self_s": own("mesh.intersect"),
            "mesh.export.bytes": per_job(c.get("mesh.export.bytes", 0)),
            "mesh.export.self_s": own("mesh.export"),
            "verify.isometry.self_s": own("verify.isometry"),
            "verify.flatness.self_s": own("verify.flatness"),
            "verify.stencil_points": per_job(c.get("verify.stencil_points", 0)),
            "verify.topology.self_s": own("verify.topology"),
            "verify.checks.run": n("verify.check_report"),
            "verify.checks.failed": per_job(c.get("verify.checks.failed", 0)),
            "cli.job.self_s": own("cli.job"),
        }
        for layer in LAYERS[:-1]:
            out[f"{layer}.self_s"] = per_job(sum(
                v for k, v in self.self_s.items() if k.startswith(layer + ".")))
        out["trace.bookkeeping_s"] = per_job(self.bookkeeping_s)
        out["trace.job_s"] = total("cli.job")
        layers = sum(out[f"{layer}.self_s"] for layer in LAYERS[:-1])
        out["trace.accounted_ratio"] = ratio(
            layers + out["cli.job.self_s"] + out["trace.bookkeeping_s"],
            out["trace.job_s"])
        return out


# -- counters taken at the layer boundaries ----------------------------------

def _before_eval(tr, args):
    if len(args) > 1:
        tr.count("profiles.eval.points", int(np.size(args[1])))
    if tr._depth.get("profiles.eval", 0):
        tr.count("profiles.eval.nested", 1)
    return args


def _counter_on_first_arg(key):
    """Count the points the span asks of the callable in its first argument."""
    def before(tr, args):
        if not args:
            return args
        return (_counting(args[0], tr.counters, key),) + tuple(args[1:])
    return before


def _before_crease_point(tr, args):
    if len(args) < 2:
        return args
    crease, s = args[0], args[1]
    flat = np.asarray(s, dtype=float).ravel()
    uniq = np.unique(flat).tolist()
    key = (id(crease.data), crease.lam)
    seen = tr._seen.get(key)
    if seen is None:
        seen = tr._seen[key] = set()
        tr._alive.append(crease.data)   # keeps id() unique within the job
    before = len(seen)
    seen.update(uniq)
    repeats = (flat.size - len(uniq)) + (len(uniq) - (len(seen) - before))
    tr.count("curves.crease_point.points", flat.size)
    tr.count("curves.crease_point.repeats", repeats)
    return args


def _after_build(tr, args, result):
    tr.count("mesh.faces_built", args[0].n_faces)


def _after_intersect(tr, args, result):
    tr.count("mesh.intersect.faces", args[0].n_faces)
    tr.count("mesh.intersect.hits", len(result))


def _after_export(tr, args, result):
    tr.count("mesh.export.bytes", os.path.getsize(args[1]))   # export_obj(mesh, path)


def _after_check_report(tr, args, result):
    tr.count("verify.checks.failed", int(not args[0].passed))


_BEFORE = {
    "profiles.eval": _before_eval,
    "quadrature.integrate": _counter_on_first_arg("quadrature.integrate.points"),
    "quadrature.gauss": _counter_on_first_arg("quadrature.gauss.points"),
    "curves.crease_point": _before_crease_point,
    "verify.isometry": _counter_on_first_arg("verify.stencil_points"),
    "verify.flatness": _counter_on_first_arg("verify.stencil_points"),
}

_AFTER = {
    "mesh.build": _after_build,
    "mesh.intersect": _after_intersect,
    "mesh.export": _after_export,
    "verify.check_report": _after_check_report,
}
