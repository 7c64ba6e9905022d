"""Arc-length parametrized space curves.

Every curve exposes point/velocity/acceleration on [0, length], vectorized
over s, and its constant torsion as analytic_torsion, which the frame
builder reads.  The pillow box's crease is planar, so its torsion is 0.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, EndpointSingularity
from .profiles import FundamentalData, domain_guard, safe_sqrt
# cumulative_integral stays importable here under its one-set name, which
# perfbench's tracer patches; the crease integrates through the batched form.
from .quadrature import cumulative_integral, cumulative_integrals  # noqa: F401

SIGMA_MIN = 1e-6


def _rate(z1, k: float) -> np.ndarray:
    """The crease rate sigma = sqrt(1 - k zeta'^2) from zeta' values z1."""
    return safe_sqrt(1.0 - k * np.asarray(z1) ** 2)


class SpaceCurve:
    """Base class; subclasses set length and analytic_torsion and implement
    point, velocity and acceleration."""

    length: float
    analytic_torsion: float

    def _check_domain(self, s):
        return domain_guard(s, self.length)


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
    The memo is filled by integrate_travels, one quadrature pass that
    creases of one profile share: every set integrates sqrt(1 - k zeta'^2)
    with its own crease's k = 1 + lam^2 and keeps its own integral, so a
    set returns the bits of a set that point integrated alone.
    integrate_travel is its one-crease call, and point sends a miss
    through it as a single set.  point also evaluates zeta on the unique
    abscissae only and scatters every coordinate back to the points, so a
    repeated abscissa costs one evaluation.
    """

    def __init__(self, data: FundamentalData, lam: float = 1.0, mu: float = 0.0,
                 alpha: float = 1.0):
        if not np.isfinite(lam):
            raise DomainError("fold parameter must be finite")
        self.data = data
        self.lam = float(lam)
        self.mu = float(mu)
        self.alpha = float(alpha)
        self.k = 1.0 + self.lam ** 2       # sigma^2 = 1 - k zeta'^2
        self.length = data.length
        self.analytic_torsion = 0.0
        self._travel = {}

    def sigma(self, s):
        return _rate(self.data.zeta.eval(self._check_domain(s), 1), self.k)

    def _sigma_checked(self, s, z1):
        sig = _rate(z1, self.k)
        if np.any(~np.isfinite(sig)) or np.any(sig < SIGMA_MIN):
            arr = np.atleast_1d(s)
            bad = arr[np.atleast_1d((~np.isfinite(sig)) | (sig < SIGMA_MIN))]
            raise EndpointSingularity(
                f"sigma below {SIGMA_MIN} at s = {bad.flat[0]}; "
                "stay inside the open interval")
        return sig

    def integrate_travel(self, s_sets) -> None:
        """Fill the travel memo of every abscissa set in s_sets that it
        lacks: integrate_travels for this crease alone."""
        integrate_travels({self: s_sets})

    def point(self, s):
        s_arr = self._check_domain(s)
        uniq, inverse = np.unique(s_arr.reshape(-1), return_inverse=True)
        key = uniq.tobytes()
        if key not in self._travel:
            self.integrate_travel([uniq])
        travel = self._travel[key]
        x = travel[travel.size - uniq.size:]
        z0 = np.asarray(self.data.zeta.eval(uniq, 0))
        points = np.stack([self.mu + x, self.alpha * z0, self.lam * z0], axis=-1)
        return points[inverse].reshape(s_arr.shape + (3,))

    def velocity(self, s):
        s_arr = self._check_domain(s)
        z1 = np.asarray(self.data.zeta.eval(s_arr, 1))
        return np.stack([self._sigma_checked(s_arr, z1), self.alpha * z1,
                         self.lam * z1], axis=-1)

    def acceleration(self, s):
        s_arr = self._check_domain(s)
        z1 = np.asarray(self.data.zeta.eval(s_arr, 1))
        sig = self._sigma_checked(s_arr, z1)
        z2 = np.asarray(self.data.zeta.eval(s_arr, 2))
        sig_prime = -self.k * z1 * z2 / sig
        return np.stack([sig_prime, self.alpha * z2, self.lam * z2], axis=-1)


def integrate_travels(crease_sets) -> None:
    """Fill the travel memos of several creases of one profile in one
    quadrature pass.

    crease_sets maps each crease to its abscissa sets; every set a crease's
    memo lacks is keyed as point keys it and integrated from 0, and no two
    sets are merged.  The pass's integrand is sqrt(1 - k zeta'^2) with each
    set's own crease's k (quadrature.cumulative_integrals' per-set value),
    which sigma computes with the same k, so every value has the bits of a
    set integrated alone.  Raises ValueError if the creases with sets to
    integrate do not share one profile.
    """
    todo = {}
    for crease, s_sets in crease_sets.items():
        for s in s_sets:
            uniq = np.unique(crease._check_domain(s))
            key = uniq.tobytes()
            if key not in crease._travel:
                todo[crease, key] = (np.concatenate([[0.0], uniq])
                                     if uniq.size == 0 or uniq[0] > 0.0
                                     else uniq)
    if not todo:
        return
    zeta = next(iter(todo))[0].data.zeta
    if any(crease.data.zeta is not zeta for crease, _ in todo):
        raise ValueError("creases integrated in one pass must share a profile")

    # the integrand is the crease's sigma without its domain check: the
    # pass's points lie in [0, L] already, and zeta.eval checks and clips
    # the same way
    travels = cumulative_integrals(
        lambda s, k: _rate(zeta.eval(s, 1), k), list(todo.values()),
        tol=1e-12, params=[crease.k for crease, _ in todo])
    for (crease, key), travel in zip(todo, travels):
        crease._travel[key] = travel
