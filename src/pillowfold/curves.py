"""Arc-length parametrized space curves.

Every curve exposes point/velocity/acceleration on [0, length], vectorized
over s.  Curves that know their torsion in closed form set analytic_torsion
(a constant) or provide third_derivative; the frame builder prefers those and
falls back to finite differences otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, EndpointSingularity
from .profiles import FundamentalData, safe_sqrt
from .quadrature import cumulative_integral

SIGMA_MIN = 1e-6


class SpaceCurve:
    """Base class; subclasses implement point, velocity, acceleration."""

    length: float
    analytic_torsion: float | None = None

    def _check_domain(self, s):
        arr = np.asarray(s, dtype=float)
        tol = 1e-9 * max(self.length, 1.0)
        if np.any(arr < -tol) or np.any(arr > self.length + tol):
            bad = arr[(arr < -tol) | (arr > self.length + tol)].flat[0]
            raise DomainError(f"s = {bad} outside [0, {self.length}]")
        return np.clip(arr, 0.0, self.length)

    def point(self, s) -> np.ndarray:
        raise NotImplementedError

    def velocity(self, s) -> np.ndarray:
        raise NotImplementedError

    def acceleration(self, s) -> np.ndarray:
        raise NotImplementedError


class Line(SpaceCurve):
    def __init__(self, origin, direction, length: float = 1.0):
        d = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(d)
        if norm == 0:
            raise DomainError("direction must be nonzero")
        self.origin = np.asarray(origin, dtype=float)
        self.direction = d / norm
        self.length = float(length)
        self.analytic_torsion = 0.0

    def point(self, s):
        s = self._check_domain(s)
        return self.origin + s[..., None] * self.direction

    def velocity(self, s):
        s = self._check_domain(s)
        return np.broadcast_to(self.direction, s.shape + (3,)).copy()

    def acceleration(self, s):
        s = self._check_domain(s)
        return np.zeros(s.shape + (3,))


class Circle(SpaceCurve):
    """Circle of given radius in the z = 0 plane, one full turn."""

    def __init__(self, radius: float):
        if radius <= 0:
            raise DomainError("radius must be positive")
        self.radius = float(radius)
        self.length = 2.0 * np.pi * self.radius
        self.analytic_torsion = 0.0

    def point(self, s):
        s = self._check_domain(s)
        th = s / self.radius
        return np.stack([self.radius * np.cos(th), self.radius * np.sin(th),
                         np.zeros_like(th)], axis=-1)

    def velocity(self, s):
        s = self._check_domain(s)
        th = s / self.radius
        return np.stack([-np.sin(th), np.cos(th), np.zeros_like(th)], axis=-1)

    def acceleration(self, s):
        s = self._check_domain(s)
        th = s / self.radius
        return np.stack([-np.cos(th), -np.sin(th), np.zeros_like(th)],
                        axis=-1) / self.radius


class Helix(SpaceCurve):
    """Circular helix (r cos, r sin, h theta) over a fixed number of turns."""

    def __init__(self, radius: float, pitch: float, turns: float = 1.0):
        if radius <= 0:
            raise DomainError("radius must be positive")
        self.radius = float(radius)
        self.pitch = float(pitch)
        self._speed = float(np.hypot(radius, pitch))
        self.length = 2.0 * np.pi * turns * self._speed
        self.analytic_torsion = self.pitch / (self._speed ** 2)

    @classmethod
    def from_curvature_torsion(cls, kappa: float, tau: float,
                               turns: float = 1.0) -> "Helix":
        if kappa <= 0:
            raise DomainError("curvature must be positive")
        c = kappa * kappa + tau * tau
        return cls(kappa / c, tau / c, turns)

    def _theta(self, s):
        return self._check_domain(s) / self._speed

    def point(self, s):
        th = self._theta(s)
        return np.stack([self.radius * np.cos(th), self.radius * np.sin(th),
                         self.pitch * th], axis=-1)

    def velocity(self, s):
        th = self._theta(s)
        return np.stack([-self.radius * np.sin(th), self.radius * np.cos(th),
                         np.full_like(th, self.pitch)], axis=-1) / self._speed

    def acceleration(self, s):
        th = self._theta(s)
        return np.stack([-self.radius * np.cos(th), -self.radius * np.sin(th),
                         np.zeros_like(th)], axis=-1) / self._speed ** 2

    def third_derivative(self, s):
        th = self._theta(s)
        return np.stack([self.radius * np.sin(th), -self.radius * np.cos(th),
                         np.zeros_like(th)], axis=-1) / self._speed ** 3


class CurveWithoutJerk(SpaceCurve):
    """Wrapper hiding any analytic torsion data, forcing the numeric path."""

    def __init__(self, base: SpaceCurve):
        self.base = base
        self.length = base.length
        self.analytic_torsion = None

    def point(self, s):
        return self.base.point(s)

    def velocity(self, s):
        return self.base.velocity(s)

    def acceleration(self, s):
        return self.base.acceleration(s)


class ProfileCrease(SpaceCurve):
    """Folded crease determined by (b, zeta) and a fold parameter lam.

    c(s) = (mu + int_0^s sigma, alpha zeta(s), lam zeta(s)) with
    sigma = sqrt(1 - (1 + lam^2) zeta'^2).  With the default alpha = 1,
    |c'| = 1 exactly.  A pattern-scaling member's folded crease, read over
    the base abscissa s, is lam = alpha = c
    (deformation.pattern_scaling_family); velocity and acceleration are then
    derivatives in that s, not of unit speed.  The curve lies in the plane
    alpha z = lam y, so its torsion vanishes identically.  Acceleration
    divides by sigma and refuses evaluation once sigma drops below
    SIGMA_MIN; at the fully folded parameter lam = 1 that excludes the two
    endpoints, everywhere else the whole closed interval is fine.

    point integrates sigma once per distinct set of abscissae: the cumulative
    integral over [0] + the sorted unique s is kept on the instance, keyed by
    that unique set.  A repeated set is the same integral of the same points,
    so the memo returns the bits a fresh computation would; sets are never
    merged, since each cumulative value depends on the whole point set.
    """

    def __init__(self, data: FundamentalData, lam: float = 1.0, mu: float = 0.0,
                 alpha: float = 1.0):
        if not np.isfinite(lam):
            raise DomainError("fold parameter must be finite")
        self.data = data
        self.lam = float(lam)
        self.mu = float(mu)
        self.alpha = float(alpha)
        self.length = data.length
        self.analytic_torsion = 0.0
        self._travel = {}

    def sigma(self, s):
        z1 = np.asarray(self.data.zeta.eval(self._check_domain(s), 1))
        return safe_sqrt(1.0 - (1.0 + self.lam ** 2) * z1 ** 2)

    def _sigma_checked(self, s):
        sig = self.sigma(s)
        if np.any(~np.isfinite(sig)) or np.any(sig < SIGMA_MIN):
            arr = np.atleast_1d(np.asarray(s, dtype=float))
            bad = arr[np.atleast_1d((~np.isfinite(sig)) | (sig < SIGMA_MIN))]
            raise EndpointSingularity(
                f"sigma below {SIGMA_MIN} at s = {bad.flat[0]}; "
                "stay inside the open interval")
        return sig

    def point(self, s):
        s_arr = self._check_domain(s)
        flat = s_arr.reshape(-1)
        uniq, inverse = np.unique(flat, return_inverse=True)
        key = uniq.tobytes()
        cum = self._travel.get(key)
        if cum is None:
            pts = np.concatenate([[0.0], uniq]) if uniq[0] > 0.0 else uniq
            cum = self._travel[key] = cumulative_integral(self.sigma, pts,
                                                          tol=1e-12)
        x = cum[-uniq.size:][inverse].reshape(s_arr.shape)
        z0 = np.asarray(self.data.zeta.eval(s_arr, 0))
        return np.stack([self.mu + x, self.alpha * z0, self.lam * z0], axis=-1)

    def velocity(self, s):
        s_arr = self._check_domain(s)
        z1 = np.asarray(self.data.zeta.eval(s_arr, 1))
        return np.stack([self._sigma_checked(s_arr), self.alpha * z1,
                         self.lam * z1], axis=-1)

    def acceleration(self, s):
        s_arr = self._check_domain(s)
        sig = self._sigma_checked(s_arr)
        z1 = np.asarray(self.data.zeta.eval(s_arr, 1))
        z2 = np.asarray(self.data.zeta.eval(s_arr, 2))
        sig_prime = -(1.0 + self.lam ** 2) * z1 * z2 / sig
        return np.stack([sig_prime, self.alpha * z2, self.lam * z2], axis=-1)

    def plane_travel(self, s):
        """x-coordinate progress int_0^s sigma (without the mu offset)."""
        return self.point(s)[..., 0] - self.mu


def require_unit_speed(curve: SpaceCurve, s, tol: float = 1e-8) -> None:
    """Sanity check used by constructors of derived objects."""
    speed = np.linalg.norm(curve.velocity(s), axis=-1)
    err = float(np.max(np.abs(speed - 1.0)))
    if err > tol:
        raise DomainError(f"curve is not unit speed (max deviation {err:.3e})")
