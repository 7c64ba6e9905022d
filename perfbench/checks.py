"""Facts about each job's output, computed by the benchmark itself.

The depth comes from the closed form, the width from fixed-step Simpson on
the benchmark's own profile model, and the topology from the paper's claims.
Where the program states a verdict (exit code, `volumes_decreasing`), the
checks require it to agree with the facts.  Each check returns a list of
problems; an empty list means the output is right.
"""

from __future__ import annotations

import numpy as np

from inputs import length, max_height, zeta_function

DEPTH_TOL = 1e-6      # relative to max zeta; the program samples 4001 points
WIDTH_TOL = 1e-8      # relative to the developed width


def depth_closed_form(desc: dict, lam: float) -> float:
    """-lam (1 - lam^2) / (1 + lam^2) * max zeta."""
    return -lam * (1.0 - lam ** 2) / (1.0 + lam ** 2) * max_height(desc)


def developed_width(desc: dict, n: int = 8192) -> float:
    """int_0^L sqrt(1 - zeta'^2) ds by composite Simpson with n steps."""
    zeta = desc["zeta"]
    f = zeta_function(zeta)
    s = np.linspace(0.0, length(zeta), n + 1)
    y = np.sqrt(np.clip(1.0 - f(s, 1) ** 2, 0.0, None))
    h = s[1] - s[0]
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def _depth_problem(desc, t, got) -> list:
    want = depth_closed_form(desc, 1.0 - t)
    if abs(got - want) > DEPTH_TOL * max_height(desc):
        return [f"depth at t={t:g} is {got!r}, closed form {want!r}"]
    return []


def _topology_problem(t, closed, boundary, euler, hits) -> list:
    """The paper: closed, Euler 2, no hits at t in {0, 1}; open with hits between."""
    if t in (0.0, 1.0):
        if not closed or boundary != 0 or hits != 0 or euler not in (None, 2):
            return [f"t={t:g} should be a closed sphere without self-intersections: "
                    f"closed={closed} boundary={boundary} euler={euler} hits={hits}"]
    elif closed or boundary == 0 or hits == 0:
        return [f"t={t:g} should be open and self-intersecting: "
                f"closed={closed} boundary={boundary} hits={hits}"]
    return []


def check_certify(job, payload: dict, rc: int, golden: bytes | None) -> list:
    problems = []
    checks = {c["check"]: c for c in payload["checks"]}
    if (rc == 0) != (payload["passed"] == payload["total"] == len(checks)):
        problems.append(f"exit {rc} disagrees with {payload['passed']}/{payload['total']} passed")
    for t in (0.25, 0.5, 0.75):
        entry = checks.get(f"depth-formula t={t:g}")
        if entry is None:
            problems.append(f"no depth-formula t={t:g} check")
        else:
            problems += _depth_problem(job.desc, t, entry["at"][0])
    for t in (0.0, 0.5, 1.0):
        entry = checks.get(f"topology t={t:g}")
        if entry is None:
            problems.append(f"no topology t={t:g} check")
            continue
        boundary, hits = entry["worst"], entry["at"][0]
        problems += _topology_problem(t, boundary == 0, boundary, None, hits)
    if golden is not None:
        with open(job.out / "verify.json", "rb") as fh:
            if fh.read() != golden:
                problems.append("demo verify.json differs from docs/golden/verify.json")
    return problems


def check_fold_mesh(job, payload: dict, rc: int) -> list:
    topo = payload["topology"]
    problems = _depth_problem(job.desc, job.t, payload["depth"])
    problems += _topology_problem(job.t, topo["closed"], topo["boundary_edges"],
                                  topo["euler"], topo["intersections"])
    if abs(payload["lam"] - (1.0 - job.t)) > 1e-15:
        problems.append(f"lam {payload['lam']!r} for t={job.t:g} on the linear schedule")
    counts = {"v": 0, "f": 0}
    with open(payload["artifacts"][0], "r", encoding="ascii") as fh:
        for line in fh:
            if line[:2] in ("v ", "f "):
                counts[line[0]] += 1
    if (counts["v"], counts["f"]) != (topo["vertices"], topo["faces"]):
        problems.append(f"OBJ holds {counts['v']} vertices and {counts['f']} faces, "
                        f"report says {topo['vertices']} and {topo['faces']}")
    return problems


def check_family(job, payload: dict, rc: int) -> list:
    rows = payload["rows"]
    problems = []
    if [r["t"] for r in rows] != job.t_values:
        problems.append(f"rows for t={[r['t'] for r in rows]}, asked {job.t_values}")
    width = developed_width(job.desc)
    for r in rows:
        if not (r["closed"] and r["euler"] == 2):
            problems.append(f"member t={r['t']:g} not a closed sphere")
        if abs(r["width"] - width) > WIDTH_TOL * width:
            problems.append(f"member t={r['t']:g} width {r['width']!r}, Simpson {width!r}")
    # Volumes that do not decrease are the program's own certificate failure
    # (exit 1), not a wrong output: pattern scaling can raise the volume at
    # small t.  The output is wrong when its verdict disagrees with the volumes.
    vols = [r["volume"] for r in rows]
    decreasing = all(a > b for a, b in zip(vols, vols[1:]))
    if payload["volumes_decreasing"] is not decreasing:
        problems.append(f"volumes_decreasing is {payload['volumes_decreasing']} for {vols}")
    if rc == 0 and not decreasing:
        problems.append(f"exit 0 although volumes do not decrease: {vols}")
    return problems
