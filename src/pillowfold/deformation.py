"""The one-parameter family of crease-preserving isometric deformations.

Every deformation of the box that keeps both strips flat and the crease
pattern fixed is, up to rigid motion, given by a fold parameter lam and a
drift mu: the crease becomes c = (mu + int sigma_lam, zeta, lam zeta) with
sigma_lam = sqrt(1 - (1 + lam^2) zeta'^2), the lower ruling stays (0, -1, 0)
and the upper ruling rotates to (0, lam^2 - 1, -2 lam)/(1 + lam^2).  lam = 1
is the closed box, lam = 0 the flat double rectangle; in between the
horizontal end leaves the plane z = 0 by

    depth(s) = -lam (1 - lam^2) / (1 + lam^2) * zeta(s),

so no intermediate state closes up.
"""

from __future__ import annotations

import numpy as np

from .curves import ProfileCrease
from .errors import (DomainError, GridTooCoarse, IoError, OutOfDomain,
                     ScheduleViolation)
from .mesh import TriMesh, assemble_reflected
from .profiles import (BC_TOL, FundamentalData, ValidationReport,
                       admissibility_margin, reparametrized)

_T_TOL = 1e-12

XI_LOWER = np.array([0.0, -1.0, 0.0])


class DeformationSchedule:
    """Fold parameter lam(t) and drift mu(t) over t in [0, 1], with the
    knots of t between which |lam| is monotone: 0, 1 and a table's t values
    inside (0, 1)."""

    def __init__(self, knots, lam, mu=None):
        self.knots = knots
        self._lam = lam
        self._mu = mu if mu is not None else (lambda t: np.zeros_like(np.asarray(t, dtype=float)))

    def _at(self, f, t):
        arr = np.asarray(t, dtype=float)
        # NaN fails both comparisons, so it is refused with the rest
        if not np.all((arr >= -_T_TOL) & (arr <= 1.0 + _T_TOL)):
            raise DomainError("t must lie in [0, 1]")
        out = np.asarray(f(np.clip(arr, 0.0, 1.0)), dtype=float)
        return float(out) if np.ndim(t) == 0 else out

    def lam(self, t):
        return self._at(self._lam, t)

    def mu(self, t):
        return self._at(self._mu, t)

    @classmethod
    def linear(cls) -> "DeformationSchedule":
        return cls((0.0, 1.0), lambda t: 1.0 - np.asarray(t, dtype=float))

    @classmethod
    def cosine(cls) -> "DeformationSchedule":
        return cls((0.0, 1.0),
                   lambda t: np.cos(0.5 * np.pi * np.asarray(t, dtype=float)))

    @classmethod
    def from_table(cls, t_knots, lam_values, mu_values=None) -> "DeformationSchedule":
        try:
            t_knots = np.asarray(t_knots, dtype=float)
            lam_values = np.asarray(lam_values, dtype=float)
            mu_values = (np.zeros_like(t_knots) if mu_values is None
                         else np.asarray(mu_values, dtype=float))
        except (TypeError, ValueError) as exc:
            raise DomainError(f"table schedule values must be numbers: {exc}") from exc
        if t_knots.ndim != 1 or t_knots.size < 2:
            raise DomainError("a table schedule needs at least 2 t values")
        if lam_values.shape != t_knots.shape or mu_values.shape != t_knots.shape:
            raise DomainError("table lam and mu need one value per t value")
        if not np.all(np.isfinite([t_knots, lam_values, mu_values])):
            raise DomainError("table t, lam and mu values must be finite")
        if np.any(np.diff(t_knots) <= 0):
            raise DomainError("table t values must be strictly increasing")
        return cls((0.0, *t_knots[(t_knots > 0) & (t_knots < 1)], 1.0),
                   lambda t: np.interp(t, t_knots, lam_values),
                   lambda t: np.interp(t, t_knots, mu_values))

    @classmethod
    def from_descriptor(cls, desc: dict) -> "DeformationSchedule":
        if not isinstance(desc, dict) or "kind" not in desc:
            raise IoError("schedule descriptor needs a \"kind\"")
        kind = desc["kind"]
        if kind == "linear":
            return cls.linear()
        if kind == "cosine":
            return cls.cosine()
        if kind == "table":
            missing = [k for k in ("t", "lam") if k not in desc]
            if missing:
                raise IoError(f"table schedule lacks {', '.join(missing)}")
            return cls.from_table(desc["t"], desc["lam"], desc.get("mu"))
        raise IoError(f"unknown schedule kind {kind!r}")


def validate_schedule(data: FundamentalData,
                      schedule: DeformationSchedule) -> ValidationReport:
    """Endpoint values lam(0) = 1, lam(1) = 0 and a positive fold margin at
    every knot.  Between knots |lam| is monotone, so its largest value on
    [0, 1] is at a knot, and the margin falls as lam^2 grows: the knots
    decide every t."""
    entries = []
    for name, t, end in (("starts-folded", 0.0, 1.0), ("ends-flat", 1.0, 0.0)):
        lam = schedule.lam(t)
        margin = BC_TOL - abs(lam - end)
        entries.append({"name": name, "t": t, "lam": lam,
                        "passed": bool(margin >= 0), "margin": float(margin)})
    lams = [schedule.lam(t) for t in schedule.knots]
    margins = admissibility_margin(data, lams)
    entries += [{"name": "fold-margin", "t": t, "lam": lam, "mu": schedule.mu(t),
                 "margin": float(m), "passed": bool(m > 0)}
                for t, lam, m in zip(schedule.knots, lams, margins)]
    return ValidationReport.of(entries)


def quarter_domain(top, v, b: float, length: float,
                   slack: float) -> np.ndarray:
    """v broadcast to the shape of top, after checking v in [top - b, top]
    up to the tolerance 1e-9 max(length, b) loosened by slack; top is the
    crease's height y at each point's abscissa, which the caller holds.
    Every quarter map (folded, deformed, pattern-scaled, developed) is
    defined on this domain."""
    v_arr = np.broadcast_to(np.asarray(v, dtype=float), np.shape(top))
    tol = 1e-9 * max(length, b) + slack
    if np.any(v_arr > top + tol) or np.any(v_arr < top - b - tol):
        raise OutOfDomain("v outside [zeta - b, zeta]")
    return v_arr


def grid_columns(length: float, n_s: int) -> np.ndarray:
    """The abscissae of a quarter mesh's n_s + 1 columns, evenly spaced
    over [0, length]; GridTooCoarse below n_s = 2."""
    if n_s < 2:
        raise GridTooCoarse("need n_s >= 2 and n_v >= 2")
    return np.linspace(0.0, length, n_s + 1)


class DeformedQuarter:
    """Embedding X(s, v) = crease(s) + v xi of one quarter at fold parameter
    lam, drift mu, of the pattern-scaling member at c = scale, written over
    the abscissa s of data's profile zeta; xi is xi_upper for v >= 0 and
    xi_lower below, the rulings of lam.  The crease is

        (mu + int_0^s sigma_{lam scale}, scale zeta(s), lam scale zeta(s)),
        sigma_k = sqrt(1 - (1 + k^2) zeta'^2),

    on v in [scale zeta - b, scale zeta].  At scale = 1 this is the deformed
    quarter of data itself, and the folded box is lam = 1
    (pillowbox.QuarterParametrization).  At scale = c it is the member's
    quarter at lam read at base abscissa u instead of the member's own arc
    length s_t(u) (see pattern_scaling_family): sigma_member ds =
    sigma_{lam c} du.  Construction raises ScheduleViolation unless
    admissibility_margin(data, lam scale) > 0, the fold margin that
    validate and validate_schedule read at the same fold parameter to the
    bit; it has the sign of the member's own margin at lam."""

    def __init__(self, data: FundamentalData, lam: float, mu: float = 0.0,
                 scale: float = 1.0):
        if not np.all(np.isfinite([lam, mu, scale])):
            raise DomainError("fold parameter, drift and scale must be finite")
        margin = admissibility_margin(data, lam * scale)
        if margin <= 0.0:
            raise ScheduleViolation(
                f"fold parameter {lam * scale} makes sigma^2 reach "
                f"{margin:.3e} <= 0")
        self.data = data
        self.lam = float(lam)
        self.mu = float(mu)
        self.scale = float(scale)
        self.length = data.length
        self.crease = ProfileCrease(data, lam=self.lam * self.scale,
                                    mu=self.mu, alpha=self.scale)
        denom = 1.0 + self.lam ** 2
        self.xi_upper = np.array([0.0, (self.lam ** 2 - 1.0) / denom,
                                  -2.0 * self.lam / denom])
        self.xi_lower = XI_LOWER.copy()

    def _base(self, s, v, slack: float) -> tuple:
        """The crease points over s and v, checked against their height."""
        base = self.crease.point(np.atleast_1d(np.asarray(s, dtype=float)))
        return base, quarter_domain(base[..., 1], v, self.data.b,
                                    self.length, slack)

    def X(self, s, v) -> np.ndarray:
        base, v_arr = self._base(s, v, 0.0)
        ruling = np.where((v_arr >= 0.0)[..., None], self.xi_upper, self.xi_lower)
        return base + v_arr[..., None] * ruling

    def sampler(self, side: str, slack: float = 0.0):
        """The "upper" or "lower" strip as its own smooth extension
        crease(s) + v xi_side, for stencil-based checks, with a fixed domain
        slack.  The ruling is fixed by side, not by sign(v), so a stencil
        that reaches across the crease stays on one strip; where X's ruling
        is the same, the points are X's to the bit."""
        xi = {"upper": self.xi_upper, "lower": self.xi_lower}[side]

        def strip(s, v):
            base, v_arr = self._base(s, v, slack)
            return base + v_arr[..., None] * xi
        return strip


def deformed_quarter(data: FundamentalData, schedule: DeformationSchedule,
                     t: float) -> DeformedQuarter:
    return DeformedQuarter(data, schedule.lam(t), schedule.mu(t))


def depth_coefficient(lam: float) -> float:
    """depth(s) / zeta(s) on the horizontal end at fold parameter lam."""
    return -lam * (1.0 - lam ** 2) / (1.0 + lam ** 2)


def horizontal_end_depth(data: FundamentalData, lam: float) -> float:
    """Most negative z on the horizontal end: the closure obstruction.

    Zero exactly at lam in {0, 1}; strictly negative for lam in (0, 1) since
    zeta > 0 somewhere.  The coefficient is <= 0 on [0, 1], so the minimum
    of coefficient * zeta is the coefficient times max zeta, read from the
    one sampled maximum, data.max_height().
    """
    if not np.isfinite(lam) or lam < 0.0 or lam > 1.0 + 1e-12:
        raise DomainError(f"fold parameter must lie in [0, 1], got {lam}")
    return float(depth_coefficient(lam) * data.max_height())


def assemble_deformed(quarter: DeformedQuarter, n_s: int, n_v: int) -> TriMesh:
    """Mesh of all four reflected copies of the quarter.

    The horizontal-end correspondence is welded only when it actually lies in
    the plane z = 0; in between the mesh is reported open, never an error.
    """
    return assemble_reflected(quarter.X, grid_columns(quarter.length, n_s),
                              quarter.data.b, n_v)


def pattern_scaling_family(data: FundamentalData, t: float) -> FundamentalData:
    """Fundamental data whose pattern graph is (1 - t) times the original.

    Scaling the graph preserves the developed width exactly, so all family
    members share one double rectangle; t > 0 also removes the endpoint
    degeneracy (the scaled slope stays below the critical value).

    The member is evaluated over the base arc length u rather than through
    the pattern graph: with c = 1 - t, the graph (x(u), c zeta(u)),
    dx/du = sqrt(1 - zeta'^2), has arc-length rate m(u) = sqrt(1 + (c^2 - 1)
    zeta'^2), so the member is profiles.reparametrized(zeta, c^2 - 1, c),
    whose travel is s_t(u) = int_0^u m, and zeta_t' = c zeta'/m at
    u = s_t^-1(s).  Admissible data have |zeta'| <= 1/sqrt2, so
    m >= sqrt(1 - zeta'^2) >= 1/sqrt2: the map has no square-root zero even
    where the base end slope is critical.  At t = 0 the rate is 1 and the
    member is zeta itself.

    The member's folded quarter is the base's DeformedQuarter(data, 1,
    scale=c), read at u: its crease's rate is sigma_t = sqrt(1 - 2
    zeta_t'^2) = sqrt(1 - (1 + c^2) zeta'^2) / m, so sigma_t ds = sigma_c
    du, and its y and z are c zeta(u).  For the same reason 1 - 2 zeta_t'^2
    = (1 - (1 + c^2) zeta'^2) / m^2 has the sign of sigma_c^2 at u, so
    its least sample has the sign of admissibility_margin(data, c).
    assemble_pattern_scaled builds the member's box that way.
    """
    if not np.isfinite(t) or t < 0.0 or t >= 1.0:
        raise DomainError(f"t must lie in [0, 1), got {t}")
    c = 1.0 - t
    return FundamentalData(data.b, reparametrized(
        data.zeta, c * c - 1.0, c, kind="pattern-scaled"))


def assemble_pattern_scaled(data: FundamentalData, t: float, n_s: int,
                            n_v: int) -> tuple[FundamentalData, TriMesh,
                                               np.ndarray]:
    """The pattern-scaling member at t, its closed box, and the base
    abscissae u of the box's columns.

    The box is the member's folded box's grid, columns evenly spaced in the
    member's arc length s, but each column is sampled at its base abscissa
    u = s_t^-1(s) by DeformedQuarter(data, 1, scale=c) (see
    pattern_scaling_family): the inverse map runs once per column, and the
    crease travel integrates sigma_c of the base profile.  Faces, face
    labels and welds are that box's; vertices agree to the quadrature's
    rounding.  As there, the horizontal end lies in z = 0 and is welded.
    """
    member = pattern_scaling_family(data, t)
    quarter = DeformedQuarter(data, 1.0, scale=1.0 - t)
    u = member.zeta.travel.inverse(grid_columns(member.length, n_s))
    return member, assemble_reflected(quarter.X, u, data.b, n_v), u
