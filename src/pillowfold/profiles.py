"""Height profiles over an arc-length interval and their validation.

A profile zeta: [0, L] -> R prescribes, together with a half-depth b, all the
data the construction needs: the folded box, its flat pattern, and the whole
deformation family are computed from (b, zeta) alone.  Profiles carry analytic
first and second derivatives because downstream curvature formulas divide by
quantities that vanish at the ends of the interval, where finite differences
would be hopeless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, IoError, NonFiniteEvaluation, NonMonotone)
from .quadrature import cumulative_integral, gauss_segments, integrate_segments

_SERIALIZABLE_KINDS = ("hyperbolic", "circular", "poly", "table")


def safe_sqrt(x, floor: float = -1e-12):
    """sqrt clamped against tiny negative round-off; genuine negatives NaN."""
    x = np.asarray(x, dtype=float)
    out = np.sqrt(np.clip(x, 0.0, None))
    return np.where(x < floor, np.nan, out)


class ProfileFunction:
    """Scalar function on [0, length] with derivatives up to order 2.

    Construct through the classmethods or from_descriptor; kinds "hyperbolic",
    "circular", "poly" and "table" round-trip through JSON descriptors, while
    derived profiles evaluate but do not serialize: "scaled" (scaled),
    "reparam" (graph_to_arclength_profile), "graph"
    (development.pattern_graph) and "pattern-scaled"
    (deformation.pattern_scaling_family: one monotone map over the base arc
    length).  travel, where set, is that map: s = travel.forward(u) takes
    the base abscissa u to this profile's s.
    """

    def __init__(self, length: float, kind: str, evaluator, params: dict | None = None,
                 travel: _MonotoneMap | None = None):
        if not np.isfinite(length) or length <= 0:
            raise DomainError(f"profile length must be positive, got {length}")
        self.length = float(length)
        self.kind = kind
        self._evaluator = evaluator
        self.params = dict(params or {})
        self.travel = travel

    # -- evaluation ---------------------------------------------------------

    def eval(self, s, order: int = 0):
        if order not in (0, 1, 2):
            raise ValueError(f"derivative order must be 0, 1 or 2, got {order}")
        arr = np.asarray(s, dtype=float)
        tol = 1e-9 * max(self.length, 1.0)
        if np.any(arr < -tol) or np.any(arr > self.length + tol):
            bad = arr[(arr < -tol) | (arr > self.length + tol)].flat[0]
            raise DomainError(f"s = {bad} outside [0, {self.length}]")
        clipped = np.clip(arr, 0.0, self.length)
        out = np.asarray(self._evaluator(clipped, order), dtype=float)
        if not np.all(np.isfinite(out)):
            raise NonFiniteEvaluation(
                f"profile ({self.kind}) returned non-finite values at order {order}")
        if np.isscalar(s) or np.ndim(s) == 0:
            return float(out)
        return out

    def scaled(self, factor: float) -> "ProfileFunction":
        """Same abscissa, values multiplied by a positive factor."""
        if not np.isfinite(factor) or factor <= 0:
            raise DomainError(f"scale factor must be positive, got {factor}")
        inner = self._evaluator
        return ProfileFunction(self.length, "scaled",
                               lambda s, order: factor * np.asarray(inner(s, order)),
                               params={"factor": factor, "base_kind": self.kind})

    # -- constructors -------------------------------------------------------

    @classmethod
    def hyperbolic(cls, length: float = 2.0, width: float = 1.0) -> "ProfileFunction":
        """Concave arch sqrt(l^2 + w^2) - sqrt((s - l)^2 + w^2), l = length/2."""
        if length <= 0 or width <= 0:
            raise DomainError("length and width must be positive")
        half = 0.5 * length
        apex = float(np.hypot(half, width))

        def evaluator(s, order):
            u = s - half
            root = np.hypot(u, width)
            if order == 0:
                return apex - root
            if order == 1:
                return -u / root
            return -(width * width) / root ** 3

        return cls(length, "hyperbolic", evaluator,
                   {"length": length, "width": width})

    @classmethod
    def circular(cls, length: float, radius: float) -> "ProfileFunction":
        """Circular arc of given radius with zero ends."""
        if length <= 0:
            raise DomainError("length must be positive")
        half = 0.5 * length
        if radius <= half:
            raise DomainError(
                f"radius {radius} must exceed half the length {half}")
        base = float(np.sqrt(radius * radius - half * half))

        def evaluator(s, order):
            u = s - half
            root = np.sqrt(radius * radius - u * u)
            if order == 0:
                return root - base
            if order == 1:
                return -u / root
            return -(radius * radius) / root ** 3

        return cls(length, "circular", evaluator,
                   {"length": length, "radius": radius})

    @classmethod
    def polynomial(cls, coeffs, length: float) -> "ProfileFunction":
        """Polynomial in s with coefficients low order first."""
        poly = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
        derivs = (poly, poly.deriv(1), poly.deriv(2))

        def evaluator(s, order):
            return derivs[order](s)

        return cls(length, "poly", evaluator,
                   {"coeffs": [float(c) for c in np.asarray(coeffs, dtype=float)],
                    "length": length})

    @classmethod
    def tabulated(cls, s_knots, values) -> "ProfileFunction":
        s_knots = np.asarray(s_knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if s_knots.ndim != 1 or s_knots.size < 4 or s_knots.shape != values.shape:
            raise DomainError("need >= 4 matching knots and values")
        if np.any(np.diff(s_knots) <= 0):
            raise NonMonotone("knot abscissae must be strictly increasing")
        if s_knots[0] != 0.0:
            raise DomainError("knots must start at 0")
        # imported here: scipy.interpolate costs most of the package's
        # import time, and only tabulated profiles need it
        from scipy.interpolate import CubicSpline
        spline = CubicSpline(s_knots, values)

        def evaluator(s, order):
            return spline(s, nu=order)

        return cls(float(s_knots[-1]), "table", evaluator,
                   {"s": [float(x) for x in s_knots],
                    "values": [float(v) for v in values]})

    # -- serialization ------------------------------------------------------

    def descriptor(self) -> dict:
        if self.kind not in _SERIALIZABLE_KINDS:
            raise IoError(f"profile kind '{self.kind}' does not serialize")
        return {"kind": self.kind, **self.params}

    @classmethod
    def from_descriptor(cls, desc: dict) -> "ProfileFunction":
        kind = desc.get("kind")
        if kind == "hyperbolic":
            return cls.hyperbolic(desc.get("length", 2.0), desc.get("width", 1.0))
        if kind == "circular":
            return cls.circular(desc["length"], desc["radius"])
        if kind == "poly":
            return cls.polynomial(desc["coeffs"], desc["length"])
        if kind == "table":
            return cls.tabulated(desc["s"], desc["values"])
        raise IoError(f"unknown profile kind {kind!r}")


@dataclass
class FundamentalData:
    """Half-depth b and height profile zeta: everything else is derived."""

    b: float
    zeta: ProfileFunction

    def __post_init__(self):
        if not np.isfinite(self.b) or self.b <= 0:
            raise DomainError(f"b must be positive, got {self.b}")
        self._half_width = None

    @property
    def length(self) -> float:
        return self.zeta.length

    def half_width(self, tol: float = 1e-12) -> float:
        """Half the developed width, int_0^L sqrt(1 - zeta'^2)/2 ds."""
        if self._half_width is None:
            def speed(s):
                return safe_sqrt(1.0 - self.zeta.eval(s, 1) ** 2)
            total = integrate_segments(speed, np.array([0.0]),
                                       np.array([self.length]), tol)[0]
            self._half_width = 0.5 * float(total)
        return self._half_width

    def max_height(self, n: int = 4097) -> float:
        s = np.linspace(0.0, self.length, n)
        return float(np.max(self.zeta.eval(s, 0)))

    def descriptor(self) -> dict:
        return {"b": self.b, "zeta": self.zeta.descriptor()}

    @classmethod
    def from_descriptor(cls, desc: dict) -> "FundamentalData":
        if "b" not in desc or "zeta" not in desc:
            raise IoError("descriptor needs keys 'b' and 'zeta'")
        return cls(float(desc["b"]), ProfileFunction.from_descriptor(desc["zeta"]))

    @classmethod
    def demo(cls) -> "FundamentalData":
        """Unit-depth box over the hyperbolic arch on [0, 2]."""
        return cls(1.0, ProfileFunction.hyperbolic(2.0, 1.0))


@dataclass
class ValidationReport:
    """Per-condition results; valid means every gating entry passed."""

    entries: list
    valid: bool
    n_samples: int
    bc_tol: float

    def to_dict(self) -> dict:
        return {"valid": self.valid, "n_samples": self.n_samples,
                "bc_tol": self.bc_tol, "entries": self.entries}


def validate_fundamental_data(b: float, zeta: ProfileFunction,
                              n_samples: int = 99,
                              bc_tol: float = 1e-9) -> ValidationReport:
    """Check (b, zeta) against the admissibility conditions.

    Interior conditions are sampled on the open grid s_i = L i/(n+1),
    i = 1..n; endpoint values use bc_tol.  The endpoint slope may sit exactly
    on the degenerate value 1/sqrt2, as the demo's does, so its entry passes
    while its margin 1/sqrt2 - max(|zeta'(0)|, |zeta'(L)|) is >= -bc_tol;
    steeper ends make the folded crease's rate sqrt(1 - 2 zeta'^2) complex.
    """
    if not np.isfinite(b) or b <= 0:
        raise DomainError(f"b must be positive, got {b}")
    L = zeta.length
    if L <= 0:
        raise DomainError(f"profile length must be positive, got {L}")
    s = L * np.arange(1, n_samples + 1) / (n_samples + 1)
    z0 = np.asarray(zeta.eval(s, 0))
    z1 = np.asarray(zeta.eval(s, 1))
    z2 = np.asarray(zeta.eval(s, 2))
    ends = np.array([zeta.eval(0.0, 0), zeta.eval(L, 0)])

    def entry(name, margin, worst_s, passed=None):
        passed = margin > 0 if passed is None else passed
        return {"name": name, "passed": bool(passed), "margin": float(margin),
                "worst_s": float(worst_s), "gating": True}

    entries = [
        entry("endpoints-zero", bc_tol - np.max(np.abs(ends)),
              0.0 if abs(ends[0]) >= abs(ends[1]) else L),
        entry("interior-positive", np.min(z0), s[np.argmin(z0)]),
        entry("below-b", b - np.max(z0), s[np.argmax(z0)]),
        entry("concave", -np.max(z2), s[np.argmax(z2)]),
        entry("slope-margin", np.min(1.0 - 2.0 * z1 ** 2),
              s[np.argmax(z1 ** 2)]),
    ]
    end_slopes = np.abs([zeta.eval(0.0, 1), zeta.eval(L, 1)])
    end_margin = 1.0 / np.sqrt(2.0) - np.max(end_slopes)
    entries.append(entry("endpoint-slope", end_margin,
                         0.0 if end_slopes[0] >= end_slopes[1] else L,
                         passed=end_margin >= -bc_tol))
    valid = all(e["passed"] for e in entries)
    return ValidationReport(entries, valid, n_samples, bc_tol)


class _MonotoneMap:
    """Strictly increasing map u -> int_0^u rate, with accurate inverse.

    A cumulative table seeds interpolation; forward values are corrected by
    fixed-order quadrature within a table cell and the inverse is polished by
    a few Newton steps, so both directions are deterministic and vectorize.
    """

    def __init__(self, rate, span: float, tol: float = 1e-12, n_table: int = 1025):
        self.rate = rate
        self.span = float(span)
        self.grid = np.linspace(0.0, self.span, n_table)
        self.table = cumulative_integral(rate, self.grid, tol=tol)
        if np.any(np.diff(self.table) <= 0.0):
            raise NonMonotone("cumulative rate is not strictly increasing")
        self.total = float(self.table[-1])

    def forward(self, u):
        u = np.clip(np.asarray(u, dtype=float), 0.0, self.span)
        k = np.clip(np.searchsorted(self.grid, u, side="right") - 1,
                    0, len(self.grid) - 2)
        return self.table[k] + gauss_segments(self.rate, self.grid[k], u)

    def inverse(self, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.total)
        u = np.interp(x, self.table, self.grid)
        for _ in range(3):
            u = np.clip(u - (self.forward(u) - x) / self.rate(u),
                        0.0, self.span)
        return u


def graph_to_arclength_profile(f: ProfileFunction,
                               mode: str) -> tuple[float, ProfileFunction]:
    """Convert a graph profile f(x) to an arc-length profile zeta(s).

    mode "space-crease" takes s as arc length of the folded crease
    (x, f(x), f(x)); mode "plane-crease" takes s as arc length of the planar
    graph (x, f(x)).  Derivatives transform with the speed m = sqrt(1 + k f'^2)
    (k = 2 or 1): zeta' = f'/m and zeta'' = f''/m^4.
    """
    if mode == "space-crease":
        k = 2.0
    elif mode == "plane-crease":
        k = 1.0
    else:
        raise DomainError(f"mode must be 'space-crease' or 'plane-crease', got {mode!r}")

    def speed(x):
        return np.sqrt(1.0 + k * np.asarray(f.eval(x, 1)) ** 2)

    mapping = _MonotoneMap(speed, f.length)
    L = mapping.total

    def evaluator(s, order):
        x = mapping.inverse(s)
        if order == 0:
            return f.eval(x, 0)
        m = speed(x)
        if order == 1:
            return np.asarray(f.eval(x, 1)) / m
        return np.asarray(f.eval(x, 2)) / m ** 4

    return L, ProfileFunction(L, "reparam", evaluator,
                              {"mode": mode, "base_kind": f.kind})
