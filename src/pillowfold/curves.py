"""Arc-length parametrized space curves.

Every curve exposes point/velocity/acceleration on [0, length], vectorized
over s, and its constant torsion as analytic_torsion, which the frame
builder reads.  The pillow box's crease is planar, so its torsion is 0.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, EndpointSingularity
from .profiles import FundamentalData, safe_sqrt
# cumulative_integral stays importable here under its one-set name, which
# perfbench's tracer patches; the crease integrates through the batched form.
from .quadrature import cumulative_integral, cumulative_integrals  # noqa: F401

SIGMA_MIN = 1e-6


class SpaceCurve:
    """Base class; subclasses set length and analytic_torsion and implement
    point, velocity and acceleration."""

    length: float
    analytic_torsion: float

    def _check_domain(self, s):
        arr = np.asarray(s, dtype=float)
        tol = 1e-9 * max(self.length, 1.0)
        if np.any(arr < -tol) or np.any(arr > self.length + tol):
            bad = arr[(arr < -tol) | (arr > self.length + tol)].flat[0]
            raise DomainError(f"s = {bad} outside [0, {self.length}]")
        return np.clip(arr, 0.0, self.length)


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
    integrate_travel fills the memo for several sets in one quadrature pass
    (quadrature.cumulative_integrals); the sets share that pass but keep
    their own integrals, so a batched set returns the bits of a set that
    point integrated alone.  point sends a miss through it as a single set.
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

    def integrate_travel(self, s_sets) -> None:
        """Fill the travel memo of every abscissa set in s_sets that it
        lacks, all in one quadrature pass; each set is keyed as point keys
        it, and no two sets are merged."""
        todo = {}
        for s in s_sets:
            uniq = np.unique(self._check_domain(s))
            key = uniq.tobytes()
            if key not in self._travel:
                todo[key] = (np.concatenate([[0.0], uniq]) if uniq[0] > 0.0
                             else uniq)
        if todo:
            self._travel.update(zip(todo, cumulative_integrals(
                self.sigma, list(todo.values()), tol=1e-12)))

    def point(self, s):
        s_arr = self._check_domain(s)
        uniq, inverse = np.unique(s_arr.reshape(-1), return_inverse=True)
        key = uniq.tobytes()
        if key not in self._travel:
            self.integrate_travel([uniq])
        x = self._travel[key][-uniq.size:][inverse].reshape(s_arr.shape)
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
