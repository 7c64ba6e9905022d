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
from functools import cached_property

import numpy as np

from .errors import DomainError, IoError, NonFiniteEvaluation, NonMonotone
from .quadrature import cumulative_integral, gauss_segments, integrate_segments

_SERIALIZABLE_KINDS = ("hyperbolic", "circular", "poly", "table")

# Boundary-condition tolerance: how far zeta(0), zeta(L), an end slope or a
# schedule's end values may sit from their exact values.
BC_TOL = 1e-9
# Interior samples, on the open grid L i/(n + 1), i = 1..n, of the shape
# conditions (profile, pattern graph) and of the slope every fold margin reads.
VALIDATION_SAMPLES = 99
_SLOPE_SAMPLES = 511
_SQRT_FLOOR = -1e-12        # below this a radicand is a genuine negative
_WIDTH_TOL = 1e-12          # quadrature tolerance of the developed width
_HEIGHT_SAMPLES = 4097      # even samples of max zeta
_MAP_TOL = 1e-12            # quadrature tolerance of a monotone map's table
_MAP_TABLE = 1025           # table points of a monotone map


def safe_sqrt(x):
    """sqrt clamped against tiny negative round-off; genuine negatives NaN."""
    x = np.asarray(x, dtype=float)
    out = np.sqrt(np.clip(x, 0.0, None))
    return np.where(x < _SQRT_FLOOR, np.nan, out)


def _domain_tol(length: float) -> float:
    return 1e-9 * max(length, 1.0)


def domain_guard(s, length: float) -> np.ndarray:
    """s as a float array on [0, length], the one domain check of profiles
    and curves: points within 1e-9 max(length, 1) outside are clipped to
    the ends, and a point beyond raises DomainError naming the first.

    One min and one max decide the common case: when every point lies in
    [0, length], s comes back unclipped, with the bits np.clip would give
    (-0.0 included), and may be the caller's own array, so no evaluator
    writes into its argument.  NaN fails both comparisons and takes the
    masked path, which passes it on for the evaluator's finiteness check.
    """
    arr = np.asarray(s, dtype=float)
    if arr.size and arr.min() >= 0.0 and arr.max() <= length:
        return arr
    tol = _domain_tol(length)
    outside = (arr < -tol) | (arr > length + tol)
    if np.any(outside):
        raise DomainError(f"s = {arr[outside].flat[0]} outside [0, {length}]")
    return np.clip(arr, 0.0, length)


class ProfileFunction:
    """Scalar function on [0, length] with derivatives up to order 2.

    Construct through the classmethods or from_descriptor; kinds "hyperbolic",
    "circular", "poly" and "table" round-trip through JSON descriptors, while
    derived profiles evaluate but do not serialize: "graph"
    (development.pattern_graph), "reparam" (graph_to_arclength_profile) and
    "pattern-scaled" (deformation.pattern_scaling_family), all made by
    reparametrized, whose monotone map s = travel.forward(u) from the base
    abscissa u to this profile's s is their travel.
    """

    def __init__(self, length: float, kind: str, evaluator, params: dict | None = None,
                 travel: _MonotoneMap | None = None):
        if not np.isfinite(length) or length <= 0:
            raise DomainError(f"profile length must be positive, got {length}")
        self.length = float(length)
        self.domain_tol = _domain_tol(self.length)       # eval's s slack
        self.kind = kind
        self._evaluator = evaluator
        self.params = dict(params or {})
        self.travel = travel

    # -- evaluation ---------------------------------------------------------

    def eval(self, s, order: int = 0):
        if order not in (0, 1, 2):
            raise ValueError(f"derivative order must be 0, 1 or 2, got {order}")
        out = np.asarray(self._evaluator(domain_guard(s, self.length), order),
                         dtype=float)
        if not np.all(np.isfinite(out)):
            raise NonFiniteEvaluation(
                f"profile ({self.kind}) returned non-finite values at order {order}")
        if np.isscalar(s) or np.ndim(s) == 0:
            return float(out)
        return out

    # -- sampled extremes ---------------------------------------------------
    # Each depends on the profile alone, so it is sampled once and held.

    @cached_property
    def steepest_slope(self) -> tuple:
        """(m, s): m = max zeta'^2 on the _SLOPE_SAMPLES open grid, at s."""
        return _steepest_slope(self)

    @cached_property
    def max_value(self) -> float:
        """max zeta on _HEIGHT_SAMPLES even samples of [0, L]."""
        return _max_value(self)

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

    @property
    def length(self) -> float:
        return self.zeta.length

    def half_width(self) -> float:
        """Half the developed width, int_0^L sqrt(1 - zeta'^2)/2 ds."""
        def speed(s):
            return safe_sqrt(1.0 - self.zeta.eval(s, 1) ** 2)
        total = integrate_segments(speed, np.array([0.0]),
                                   np.array([self.length]), _WIDTH_TOL)[0]
        return 0.5 * float(total)

    def max_height(self) -> float:
        return self.zeta.max_value

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
    """Per-condition results; valid means every entry passed."""

    entries: list
    valid: bool

    @classmethod
    def of(cls, entries: list) -> "ValidationReport":
        return cls(entries, all(e["passed"] for e in entries))

    def to_dict(self) -> dict:
        return {"valid": self.valid, "bc_tol": BC_TOL, "entries": self.entries}


def _open_grid(length: float, n: int) -> np.ndarray:
    """The n interior samples L i/(n + 1), i = 1..n."""
    return length * np.arange(1, n + 1) / (n + 1)


def condition_entry(name, margin, worst_s, passed=None) -> dict:
    """One admissibility record; it passes when margin > 0 unless told."""
    passed = margin > 0 if passed is None else passed
    return {"name": name, "passed": bool(passed), "margin": float(margin),
            "worst_s": float(worst_s)}


def _steepest_slope(zeta: ProfileFunction) -> tuple:
    """m = max zeta'^2 on the _SLOPE_SAMPLES open grid, and its s; read
    through zeta.steepest_slope, which holds it."""
    s = _open_grid(zeta.length, _SLOPE_SAMPLES)
    z2 = np.asarray(zeta.eval(s, 1)) ** 2
    k = np.argmax(z2)
    return z2[k], s[k]


def _max_value(zeta: ProfileFunction) -> float:
    """max zeta on _HEIGHT_SAMPLES even samples; read through
    zeta.max_value, which holds it."""
    s = np.linspace(0.0, zeta.length, _HEIGHT_SAMPLES)
    return float(np.max(zeta.eval(s, 0)))


def _sigma_squared(steepest, lam):
    lam = np.asarray(lam, dtype=float)
    return 1.0 - (1.0 + lam * lam) * steepest


def admissibility_margin(data: FundamentalData, lam):
    """The fold margin 1 - (1 + lam^2) m at the steepest slope m = max
    zeta'^2, to the bit the least sample of sigma_lam^2 (rounding is
    monotone); a float for a scalar lam, one per entry for an array."""
    return _sigma_squared(data.zeta.steepest_slope[0], lam)


def shape_conditions(f: ProfileFunction, b: float) -> tuple:
    """The entries endpoints-zero (within BC_TOL), interior-positive,
    below-b and concave of f against b, on the open grid of
    VALIDATION_SAMPLES points; returned with that grid and f' on it, which
    each caller's slope condition reads."""
    if not np.isfinite(b) or b <= 0:
        raise DomainError(f"b must be positive, got {b}")
    L = f.length
    x = _open_grid(L, VALIDATION_SAMPLES)
    f0, f1, f2 = (np.asarray(f.eval(x, k)) for k in range(3))
    ends = np.array([f.eval(0.0, 0), f.eval(L, 0)])
    entries = [
        condition_entry("endpoints-zero", BC_TOL - np.max(np.abs(ends)),
                        0.0 if abs(ends[0]) >= abs(ends[1]) else L),
        condition_entry("interior-positive", np.min(f0), x[np.argmin(f0)]),
        condition_entry("below-b", b - np.max(f0), x[np.argmax(f0)]),
        condition_entry("concave", -np.max(f2), x[np.argmax(f2)]),
    ]
    return entries, x, f1


def validate_fundamental_data(b: float,
                              zeta: ProfileFunction) -> ValidationReport:
    """Check (b, zeta) against the admissibility conditions: the shape
    conditions, slope-margin (admissibility_margin at lam = 1, reached at
    the steepest slope) and endpoint-slope.

    The endpoint slope may sit exactly on the degenerate value 1/sqrt2, as
    the demo's does, so its entry passes while its margin 1/sqrt2 -
    max(|zeta'(0)|, |zeta'(L)|) is >= -BC_TOL; steeper ends make the folded
    crease's rate sqrt(1 - 2 zeta'^2) complex.
    """
    entries = shape_conditions(zeta, b)[0]
    steepest, worst_s = zeta.steepest_slope
    entries.append(condition_entry("slope-margin",
                                   _sigma_squared(steepest, 1.0), worst_s))
    L = zeta.length
    end_slopes = np.abs([zeta.eval(0.0, 1), zeta.eval(L, 1)])
    end_margin = 1.0 / np.sqrt(2.0) - np.max(end_slopes)
    entries.append(condition_entry(
        "endpoint-slope", end_margin,
        0.0 if end_slopes[0] >= end_slopes[1] else L,
        passed=end_margin >= -BC_TOL))
    return ValidationReport.of(entries)


class _MonotoneMap:
    """Strictly increasing map u -> int_0^u rate, with accurate inverse.

    A cumulative table seeds interpolation; forward values are corrected by
    fixed-order quadrature within a table cell and the inverse is polished by
    a few Newton steps, so both directions are deterministic and vectorize.
    Each Newton step calls the rate once: its Gauss integrand evaluates the
    rate on the nodes and on u together, and keeps the values at u for the
    step's slope.  The rate is elementwise, so every value has the bits of a
    call of its own.
    """

    def __init__(self, rate, span: float):
        self.rate = rate
        self.span = float(span)
        self.grid = np.linspace(0.0, self.span, _MAP_TABLE)
        self.table = cumulative_integral(rate, self.grid, tol=_MAP_TOL)
        if np.any(np.diff(self.table) <= 0.0):
            raise NonMonotone("cumulative rate is not strictly increasing")
        self.total = float(self.table[-1])

    def _forward(self, u, rate):
        """forward at u in [0, span], with rate as the Gauss integrand."""
        k = np.clip(np.searchsorted(self.grid, u, side="right") - 1,
                    0, len(self.grid) - 2)
        return self.table[k] + gauss_segments(rate, self.grid[k], u)

    def forward(self, u):
        return self._forward(np.clip(np.asarray(u, dtype=float), 0.0,
                                     self.span), self.rate)

    def _newton_step(self, u, x):
        """u - (forward(u) - x) / rate(u), clipped, from one rate call."""
        at_u = []

        def nodes_and_u(nodes):
            values = self.rate(np.concatenate([nodes, np.ravel(u)]))
            at_u.append(values[nodes.size:].reshape(np.shape(u)))
            return values[:nodes.size]

        forward = self._forward(u, nodes_and_u)
        return np.clip(u - (forward - x) / at_u[0], 0.0, self.span)

    def inverse(self, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.total)
        u = np.interp(x, self.table, self.grid)
        for _ in range(3):
            u = self._newton_step(u, x)
        return u


def reparametrized(f: ProfileFunction, k: float, c: float = 1.0, *,
                   kind: str) -> ProfileFunction:
    """c f(u) read along x = int_0^u m, m = sqrt(1 + k f'^2).

    Every derived profile is one of these.  k = -1 makes x the developed
    abscissa int_0^u sqrt(1 - f'^2) of the crease pattern; k = c^2 - 1 the
    arc length of the scaled pattern (int_0^u sqrt(1 - f'^2), c f); k = 1
    or 2 the arc length of the graph (u, f) or of the folded crease
    (u, f, f).  With u = u(x) the inverse map and dm/du = k f' f''/m,

        g = c f(u),  g' = c f'/m,  g'' = c f''/(1 + k f'^2)^2.

    The map is kept as the profile's travel; the length is its total.
    """

    def rate(u):
        return safe_sqrt(1.0 + k * np.asarray(f.eval(u, 1)) ** 2)

    travel = _MonotoneMap(rate, f.length)

    def evaluator(x, order):
        u = travel.inverse(x)
        if order == 0:
            return c * np.asarray(f.eval(u, 0))
        f1 = np.asarray(f.eval(u, 1))
        if order == 1:
            return c * f1 / safe_sqrt(1.0 + k * f1 ** 2)
        return c * np.asarray(f.eval(u, 2)) / (1.0 + k * f1 ** 2) ** 2

    return ProfileFunction(travel.total, kind, evaluator, travel=travel)


def graph_to_arclength_profile(f: ProfileFunction,
                               mode: str) -> tuple[float, ProfileFunction]:
    """Convert a graph profile f(x) to an arc-length profile zeta(s).

    mode "space-crease" takes s as arc length of the folded crease
    (x, f(x), f(x)); mode "plane-crease" takes s as arc length of the planar
    graph (x, f(x)): reparametrized with k = 2 or 1.
    """
    k = {"space-crease": 2.0, "plane-crease": 1.0}.get(mode)
    if k is None:
        raise DomainError(f"mode must be 'space-crease' or 'plane-crease', got {mode!r}")
    zeta = reparametrized(f, k, kind="reparam")
    return zeta.length, zeta
