"""Curved-fold kernel: Frenet data, ruling angles, developable strips.

A strip is determined by a unit-speed crease and an angle function alpha(s)
between the osculating plane and the strip's tangent plane.  The ruling angle
beta(s) is then forced by developability,

    cot(beta) = (alpha' + tau) / (kappa sin(alpha)),

and the strip is X(s, v) = c(s) + v xi(s) with
xi = cos(beta) T + sin(beta) (cos(alpha) N + sin(alpha) B).  Negating alpha
mirrors the strip across the osculating plane and replaces alpha' + tau by
alpha' - tau in the cotangent; that mirrored strip is the dual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import SpaceCurve
from .errors import (DegenerateAngle, GridTooCoarse, OutOfDomain,
                     VanishingCurvature)

KAPPA_MIN = 1e-8
_SIN_ALPHA_MIN = 1e-12


@dataclass
class FrenetData:
    """Frame samples along a curve; vectors are rows of (n, 3) arrays."""

    s: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    binormal: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray


def frenet_frame(curve: SpaceCurve, s, kappa_min: float = KAPPA_MIN,
                 fd_step: float = 1e-4) -> FrenetData:
    """Frenet frame and curvatures at the given arc-length samples.

    Torsion comes from analytic data when the curve provides it; otherwise a
    five-point stencil differentiates the acceleration (centers clamped away
    from the interval ends).
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    T = curve.velocity(s_arr)
    A = curve.acceleration(s_arr)
    kappa = np.linalg.norm(A, axis=-1)
    if np.any(kappa < kappa_min):
        bad = s_arr[kappa < kappa_min].flat[0]
        raise VanishingCurvature(
            f"curvature below {kappa_min} at s = {bad}")
    N = A / kappa[..., None]
    B = np.cross(T, N)

    if curve.analytic_torsion is not None:
        tau = np.full(s_arr.shape, float(curve.analytic_torsion))
    elif hasattr(curve, "third_derivative"):
        jerk = curve.third_derivative(s_arr)
        tau = np.einsum('...j,...j->...', np.cross(T, A), jerk) / kappa ** 2
    else:
        h = fd_step * max(curve.length, 1.0)
        centre = np.clip(s_arr, 2 * h, curve.length - 2 * h)
        jerk = (curve.acceleration(centre - 2 * h)
                - 8.0 * curve.acceleration(centre - h)
                + 8.0 * curve.acceleration(centre + h)
                - curve.acceleration(centre + 2 * h)) / (12.0 * h)
        tau = np.einsum('...j,...j->...', np.cross(T, A), jerk) / kappa ** 2
    return FrenetData(s_arr, T, N, B, kappa, tau)


def beta_from_alpha(alpha, alpha_prime, kappa, tau):
    """Ruling angle in (0, pi) solving the developability condition."""
    alpha = np.asarray(alpha, dtype=float)
    denom = np.asarray(kappa, dtype=float) * np.sin(alpha)
    if np.any(np.abs(denom) < _SIN_ALPHA_MIN):
        raise DegenerateAngle("kappa sin(alpha) vanishes, ruling undefined")
    cot = (np.asarray(alpha_prime, dtype=float) + np.asarray(tau, dtype=float)) / denom
    return np.arctan2(np.ones_like(cot), cot)


class DevelopableStrip:
    """One flat strip attached to a crease along its length.

    alpha and alpha_prime are callables of s.  v_lo/v_hi bound the ruling
    parameter per s (callables or constants); the crease itself is v = 0.
    """

    def __init__(self, curve: SpaceCurve, alpha, alpha_prime, v_lo, v_hi):
        self.curve = curve
        self.alpha = alpha
        self.alpha_prime = alpha_prime
        self.v_lo = v_lo if callable(v_lo) else (lambda s, c=float(v_lo): np.full_like(np.asarray(s, dtype=float), c))
        self.v_hi = v_hi if callable(v_hi) else (lambda s, c=float(v_hi): np.full_like(np.asarray(s, dtype=float), c))

    def dual(self) -> "DevelopableStrip":
        """Mirror strip across the osculating plane (alpha negated)."""
        a, ap = self.alpha, self.alpha_prime
        return DevelopableStrip(self.curve,
                                lambda s: -np.asarray(a(s)),
                                lambda s: -np.asarray(ap(s)),
                                self.v_lo, self.v_hi)

    def frame(self, s) -> FrenetData:
        return frenet_frame(self.curve, s)

    def beta(self, s):
        fr = self.frame(s)
        return beta_from_alpha(self.alpha(fr.s), self.alpha_prime(fr.s),
                               fr.kappa, fr.tau)

    def ruling(self, s) -> np.ndarray:
        fr = self.frame(s)
        al = np.asarray(self.alpha(fr.s), dtype=float)
        be = beta_from_alpha(al, self.alpha_prime(fr.s), fr.kappa, fr.tau)
        n_g = np.cos(al)[..., None] * fr.normal + np.sin(al)[..., None] * fr.binormal
        return (np.cos(be)[..., None] * fr.tangent
                + np.sin(be)[..., None] * n_g)

    def point(self, s, v) -> np.ndarray:
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        v_arr = np.broadcast_to(np.asarray(v, dtype=float), s_arr.shape)
        tol = 1e-9 * max(self.curve.length, 1.0)
        lo = np.asarray(self.v_lo(s_arr), dtype=float)
        hi = np.asarray(self.v_hi(s_arr), dtype=float)
        if np.any(v_arr < lo - tol) or np.any(v_arr > hi + tol):
            raise OutOfDomain("ruling parameter v outside the strip")
        return self.curve.point(s_arr) + v_arr[..., None] * self.ruling(s_arr)


@dataclass
class OrigamiMapRecord:
    """A crease with its two strips, folding into each other along v = 0."""

    upper: DevelopableStrip
    lower: DevelopableStrip

    @property
    def curve(self) -> SpaceCurve:
        return self.upper.curve


def fold_pair(curve: SpaceCurve, alpha, alpha_prime, v_width) -> OrigamiMapRecord:
    """Strip on alpha and its mirror image, each of breadth v_width."""
    upper = DevelopableStrip(curve, alpha, alpha_prime, 0.0, v_width)
    lower = DevelopableStrip(curve, alpha, alpha_prime, 0.0, v_width).dual()
    return OrigamiMapRecord(upper, lower)


def strip_geometry(strip: DevelopableStrip, s) -> dict:
    """Pointwise invariants of the strip along the crease."""
    fr = strip.frame(s)
    al = np.asarray(strip.alpha(fr.s), dtype=float)
    ap = np.asarray(strip.alpha_prime(fr.s), dtype=float)
    be = beta_from_alpha(al, ap, fr.kappa, fr.tau)
    return {
        "s": fr.s,
        "kappa": fr.kappa,
        "tau": fr.tau,
        "alpha": al,
        "beta": be,
        "kappa_g": fr.kappa * np.cos(al),
        "kappa_n": fr.kappa * np.sin(al),
        "tau_g": fr.tau + ap,
        "ruling": strip.ruling(fr.s),
    }


def beta_derivative(strip: DevelopableStrip, s, h_factor: float = 1e-6):
    """Centered difference of the ruling angle; beta is smooth wherever the
    frame is, so this is accurate to ~h^2."""
    h = h_factor * max(strip.curve.length, 1.0)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    centre = np.clip(s_arr, h, strip.curve.length - h)
    return (np.asarray(strip.beta(centre + h))
            - np.asarray(strip.beta(centre - h))) / (2.0 * h)


@dataclass
class MetricSample:
    """First fundamental form at (s, v) samples, measured and closed form."""

    s: np.ndarray
    v: np.ndarray
    measured: tuple
    closed: tuple

    def max_discrepancy(self) -> float:
        return float(max(np.max(np.abs(m - c))
                         for m, c in zip(self.measured, self.closed)))


def first_fundamental_form(strip: DevelopableStrip, s, v,
                           h_factor: float = 1e-5) -> MetricSample:
    """Metric of X(s, v) = c(s) + v xi(s).

    measured: centered differences of the embedding.  closed: the developable
    strip identity E = (sin(beta) - v (beta' + kappa_g))^2 + cos^2(beta),
    F = cos(beta), G = 1.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    v_arr = np.broadcast_to(np.asarray(v, dtype=float), s_arr.shape)
    L = strip.curve.length
    h = h_factor * max(L, 1.0)
    if np.any(s_arr < h) or np.any(s_arr > L - h):
        raise OutOfDomain("metric stencil leaves the parameter interval")

    def emb(ss, vv):
        return strip.curve.point(ss) + vv[..., None] * strip.ruling(ss)

    Xs = (emb(s_arr + h, v_arr) - emb(s_arr - h, v_arr)) / (2.0 * h)
    Xv = strip.ruling(s_arr)
    E_m = np.einsum('...j,...j->...', Xs, Xs)
    F_m = np.einsum('...j,...j->...', Xs, Xv)
    G_m = np.einsum('...j,...j->...', Xv, Xv)

    fr = strip.frame(s_arr)
    al = np.asarray(strip.alpha(fr.s), dtype=float)
    be = beta_from_alpha(al, strip.alpha_prime(fr.s), fr.kappa, fr.tau)
    bp = beta_derivative(strip, s_arr)
    kg = fr.kappa * np.cos(al)
    E_c = (np.sin(be) - v_arr * (bp + kg)) ** 2 + np.cos(be) ** 2
    F_c = np.cos(be)
    G_c = np.ones_like(E_c)
    return MetricSample(s_arr, v_arr, (E_m, F_m, G_m), (E_c, F_c, G_c))


def interior_grid(length: float, n: int, eps: float = 1e-3) -> np.ndarray:
    """n samples of [0, L] shrunk by the endpoint guard fraction eps."""
    if n < 3:
        raise GridTooCoarse("need at least 3 samples")
    return np.linspace(eps * length, (1.0 - eps) * length, n)
