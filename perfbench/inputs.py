"""Seeded inputs: fundamental data `(b, zeta)` of the four serializable kinds.

Every seeded draw is passed through the program's own admissibility check,
`validate_fundamental_data`; rejected draws are counted, not hidden.  Seeded
end slopes stay below 1/sqrt2 by a drawn margin, so the only inputs whose
slope reaches 1/sqrt2 (sigma with a square-root zero at `lam = 1`, the
property that drives quadrature cost) are the demo box, which each workload
includes at a fixed share.
"""

from __future__ import annotations

import math

import numpy as np

KINDS = ("hyperbolic", "circular", "poly", "table")
CRITICAL_SLOPE = 1.0 / math.sqrt(2.0)
DEMO = {"b": 1.0, "zeta": {"kind": "hyperbolic", "length": 2.0, "width": 1.0}}


def _draw_zeta(kind: str, rng: np.random.Generator) -> dict:
    """End slopes in about [0.4, 0.7] and max zeta in about [0.09, 0.19] L.

    Flatter arches make thinner mesh triangles above the crease, and the
    intersection test's memory and time grow with the thinness, so a wider
    band would make runs differ by seed more than by code.
    """
    length = float(rng.uniform(1.5, 3.0))
    half = 0.5 * length
    if kind == "hyperbolic":
        # end slope half / hypot(half, width) < 1/sqrt2  <=>  width > half
        return {"kind": kind, "length": length,
                "width": half * float(rng.uniform(1.15, 2.0))}
    if kind == "circular":
        # end slope half / sqrt(r^2 - half^2) < 1/sqrt2  <=>  r > sqrt3 half
        return {"kind": kind, "length": length,
                "radius": math.sqrt(3.0) * half * float(rng.uniform(1.1, 1.5))}
    if kind == "poly":
        # a s (L - s)(1 + c s / L): zero ends, end slopes a L and a L (1 + c)
        c = float(rng.uniform(-0.3, 0.3))
        a = CRITICAL_SLOPE * float(rng.uniform(0.6, 0.9)) / (length * (1.0 + max(c, 0.0)))
        return {"kind": kind, "length": length,
                "coeffs": [0.0, a * length, a * (c - 1.0), -a * c / length]}
    # table: a tilted parabolic arch, perturbed at evenly spaced knots
    n = int(rng.integers(6, 10))
    u = np.linspace(0.0, 1.0, n)
    tilt = float(rng.uniform(-0.3, 0.3))
    h = length / 4.0 * CRITICAL_SLOPE * float(rng.uniform(0.6, 0.85))
    bump = 1.0 + 0.01 * rng.uniform(-1.0, 1.0, n)
    values = 4.0 * h * u * (1.0 - u) * (1.0 + tilt * (u - 0.5)) * bump
    values[0] = values[-1] = 0.0
    s = length * u
    return {"kind": kind, "s": s.tolist(), "values": values.tolist()}


def zeta_function(zeta: dict):
    """zeta(s, order) for a profile descriptor, written apart from the program."""
    kind = zeta["kind"]
    if kind == "table":
        from scipy.interpolate import CubicSpline
        spline = CubicSpline(zeta["s"], zeta["values"])
        return lambda s, order=0: spline(s, order)
    if kind == "poly":
        derivs = [np.polynomial.Polynomial(zeta["coeffs"])]
        derivs += [derivs[0].deriv(1), derivs[0].deriv(2)]
        return lambda s, order=0: derivs[order](s)
    half = 0.5 * zeta["length"]
    if kind == "hyperbolic":
        w = zeta["width"]
        root = lambda u: np.hypot(u, w)  # noqa: E731
        forms = (lambda u: math.hypot(half, w) - root(u), lambda u: -u / root(u),
                 lambda u: -w * w / root(u) ** 3)
    else:
        r = zeta["radius"]
        root = lambda u: np.sqrt(r * r - u * u)  # noqa: E731
        forms = (lambda u: root(u) - math.sqrt(r * r - half * half),
                 lambda u: -u / root(u), lambda u: -r * r / root(u) ** 3)
    return lambda s, order=0: forms[order](np.asarray(s, dtype=float) - half)


def length(zeta: dict) -> float:
    return float(zeta["s"][-1]) if zeta["kind"] == "table" else float(zeta["length"])


def end_slope(desc: dict) -> float:
    """Largest |zeta'| at the two ends."""
    f = zeta_function(desc["zeta"])
    return float(max(abs(f(0.0, 1)), abs(f(length(desc["zeta"]), 1))))


def max_height(desc: dict, n: int = 4097) -> float:
    """max zeta: at the midpoint for the symmetric arches, else on a dense grid."""
    zeta = desc["zeta"]
    f = zeta_function(zeta)
    if zeta["kind"] in ("hyperbolic", "circular"):
        return float(f(0.5 * zeta["length"]))
    return float(np.max(f(np.linspace(0.0, length(zeta), n))))


def reaches_critical_slope(desc: dict) -> bool:
    return end_slope(desc) >= CRITICAL_SLOPE * (1.0 - 1e-12)


class InputGenerator:
    """Deterministic stream of admissible descriptors for one seed.

    `draw(kind)` returns the next admissible descriptor of that kind; the
    admissibility check is the program's `validate_fundamental_data`, passed
    in as `validate(desc) -> bool` so this module does not import the program.
    """

    def __init__(self, seed: int, validate):
        self.rng = np.random.default_rng(seed % 2 ** 64)   # any integer seed
        self.validate = validate
        self.rejected = {k: 0 for k in KINDS}

    def draw(self, kind: str) -> dict:
        while True:
            zeta = _draw_zeta(kind, self.rng)
            # b in [2.0, 2.8] max zeta (the demo has 2.4).  The mesh rows split
            # b - zeta below the crease and zeta above it; the further apart
            # the two row heights, the more candidate pairs the intersection
            # test holds, and its memory and time vary by seed with them.
            desc = {"b": 0.0, "zeta": zeta}
            desc["b"] = max_height(desc) * float(self.rng.uniform(2.0, 2.8))
            if self.validate(desc):
                return desc
            self.rejected[kind] += 1

    def t_open(self) -> float:
        """An open state of the isometric family, t in [0.05, 0.95]."""
        return round(float(self.rng.uniform(0.05, 0.95)), 6)

    def t_values(self, n: int) -> list:
        """Increasing pattern-scaling parameters starting at 0, below 0.95."""
        rest = np.sort(self.rng.uniform(0.05, 0.95, n - 1))
        return [0.0] + [round(float(t), 6) for t in rest]

