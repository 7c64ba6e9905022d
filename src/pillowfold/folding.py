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
from .errors import (DegenerateAngle, DomainError, GridTooCoarse,
                     VanishingCurvature)

KAPPA_MIN = 1e-8
_SIN_ALPHA_MIN = 1e-12
# centred-difference step of beta', relative to max(L, 1)
_BETA_STEP = 1e-6


@dataclass
class FrenetData:
    """Frame samples along a curve; vectors are rows of (n, 3) arrays."""

    s: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    binormal: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray


def frenet_frame(curve: SpaceCurve, s) -> FrenetData:
    """Frenet frame and curvatures at the given arc-length samples; the
    torsion is the curve's analytic_torsion."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    T = curve.velocity(s_arr)
    A = curve.acceleration(s_arr)
    kappa = np.linalg.norm(A, axis=-1)
    if np.any(kappa < KAPPA_MIN):
        bad = s_arr[kappa < KAPPA_MIN].flat[0]
        raise VanishingCurvature(
            f"curvature below {KAPPA_MIN} at s = {bad}")
    N = A / kappa[..., None]
    B = np.cross(T, N)
    tau = np.full(s_arr.shape, float(curve.analytic_torsion))
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
    """One flat strip attached to a crease along its length; alpha and
    alpha_prime are callables of s.  The crease itself is v = 0."""

    def __init__(self, curve: SpaceCurve, alpha, alpha_prime):
        self.curve = curve
        self.alpha = alpha
        self.alpha_prime = alpha_prime

    def dual(self) -> "DevelopableStrip":
        """Mirror strip across the osculating plane (alpha negated)."""
        a, ap = self.alpha, self.alpha_prime
        return DevelopableStrip(self.curve,
                                lambda s: -np.asarray(a(s)),
                                lambda s: -np.asarray(ap(s)))

    def frame(self, s) -> FrenetData:
        return frenet_frame(self.curve, s)

    def beta(self, s):
        fr = self.frame(s)
        return beta_from_alpha(self.alpha(fr.s), self.alpha_prime(fr.s),
                               fr.kappa, fr.tau)


def beta_derivative(strip: DevelopableStrip, s):
    """Centered difference of the ruling angle; beta is smooth wherever the
    frame is, so this is accurate to ~h^2."""
    h = _BETA_STEP * max(strip.curve.length, 1.0)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    centre = np.clip(s_arr, h, strip.curve.length - h)
    return (np.asarray(strip.beta(centre + h))
            - np.asarray(strip.beta(centre - h))) / (2.0 * h)


def first_fundamental_form(strip: DevelopableStrip, s, v) -> tuple:
    """Metric (E, F, G) of X(s, v) = c(s) + v xi(s) from the developable
    strip identity E = (sin(beta) - v (beta' + kappa_g))^2 + cos^2(beta),
    F = cos(beta), G = 1."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    v_arr = np.broadcast_to(np.asarray(v, dtype=float), s_arr.shape)
    fr = strip.frame(s_arr)
    al = np.asarray(strip.alpha(fr.s), dtype=float)
    be = beta_from_alpha(al, strip.alpha_prime(fr.s), fr.kappa, fr.tau)
    bp = beta_derivative(strip, s_arr)
    kg = fr.kappa * np.cos(al)
    E = (np.sin(be) - v_arr * (bp + kg)) ** 2 + np.cos(be) ** 2
    return E, np.cos(be), np.ones_like(E)


def interior_grid(length: float, n: int, eps: float = 1e-3) -> np.ndarray:
    """n samples of [0, L] shrunk by the endpoint guard fraction eps, which
    must lie in (0, 1/2) for the grid to run forward inside the interval."""
    if n < 3:
        raise GridTooCoarse("need at least 3 samples")
    if not 0.0 < eps < 0.5:
        raise DomainError(f"endpoint guard fraction must lie in (0, 0.5), "
                          f"got {eps}")
    return np.linspace(eps * length, (1.0 - eps) * length, n)
