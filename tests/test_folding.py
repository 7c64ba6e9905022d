from __future__ import annotations

import numpy as np
import pytest

from pillowfold.curves import ProfileCrease
from pillowfold.errors import (DegenerateAngle, DomainError, GridTooCoarse,
                               OutOfDomain, VanishingCurvature)
from pillowfold.folding import (DevelopableStrip, beta_from_alpha,
                                beta_derivative, first_fundamental_form,
                                frenet_frame, interior_grid)
from pillowfold.pillowbox import QuarterParametrization
from pillowfold.profiles import FundamentalData, ProfileFunction

import oracles as oc


def helix_strip(tau=0.3, alpha0=0.6):
    curve = oc.Helix.from_curvature_torsion(1.0, tau, turns=0.5)
    return DevelopableStrip(curve,
                            lambda s: np.full(np.shape(s), alpha0),
                            lambda s: np.zeros(np.shape(s)))


def test_frenet_frame_circle():
    circ = oc.Helix(2.0, 0.0)
    s = np.linspace(0.5, 10.0, 9)
    fr = frenet_frame(circ, s)
    assert np.max(np.abs(fr.kappa - 0.5)) < 1e-12
    assert np.max(np.abs(fr.tau)) == 0.0
    # orthonormal right-handed frame
    for a, b in ((fr.tangent, fr.normal), (fr.tangent, fr.binormal),
                 (fr.normal, fr.binormal)):
        assert np.max(np.abs(np.einsum('ij,ij->i', a, b))) < 1e-12
    assert np.max(np.abs(np.cross(fr.tangent, fr.normal) - fr.binormal)) < 1e-12


def test_frenet_torsion_analytic_vs_numeric():
    kappa, tau = 1.0, 0.3
    hel = oc.Helix.from_curvature_torsion(kappa, tau)
    s = np.linspace(0.2, 0.8 * hel.length, 11)
    exact = frenet_frame(hel, s)
    assert np.max(np.abs(exact.tau - tau)) < 1e-12
    # Frenet-Serret B' = -tau N, with B' by centred differences of the frame
    db = oc.central_diff(lambda x: frenet_frame(hel, x).binormal, s, 1e-5)
    numeric = -np.einsum('ij,ij->i', db, exact.normal)
    assert np.max(np.abs(numeric - tau)) < 1e-6


def test_frenet_rejects_straight_line():
    # a linear profile has zeta'' = 0, so the crease's acceleration is 0
    line = ProfileCrease(FundamentalData(1.0, ProfileFunction.polynomial(
        [0.1, 0.5], 2.0)), lam=0.5)
    with pytest.raises(VanishingCurvature):
        frenet_frame(line, np.array([0.5]))


def test_beta_from_alpha_values():
    # torsion-free crease with constant alpha: cot(beta) = 0, beta = pi/2
    beta = beta_from_alpha(0.5, 0.0, 2.0, 0.0)
    assert abs(float(beta) - np.pi / 2.0) < 1e-15
    # positive cot gives beta below pi/2, negative above
    assert float(beta_from_alpha(0.5, 0.3, 2.0, 0.0)) < np.pi / 2.0
    assert float(beta_from_alpha(0.5, -0.3, 2.0, 0.0)) > np.pi / 2.0
    with pytest.raises(DegenerateAngle):
        beta_from_alpha(0.0, 0.0, 2.0, 0.0)


def test_strip_geometry_invariants():
    strip = helix_strip()
    s = np.linspace(0.2, 2.0, 13)
    ruling = oc.ruling(strip, s)
    beta = strip.beta(s)
    assert np.max(np.abs(np.linalg.norm(ruling, axis=-1) - 1.0)) < 1e-12
    # the ruling makes the angle beta with the tangent
    tangent = strip.frame(s).tangent
    assert np.max(np.abs(np.einsum('ij,ij->i', ruling, tangent)
                         - np.cos(beta))) < 1e-12
    # constant alpha, constant torsion: beta is constant along the strip
    assert np.max(np.abs(beta - beta[0])) < 1e-12
    assert np.max(np.abs(beta_derivative(strip, s))) < 1e-6


def test_pillow_quarter_angles():
    quarter = QuarterParametrization(FundamentalData.demo())
    strip = quarter.upper_strip
    s = np.array([1.0])
    kappa = float(frenet_frame(quarter.crease, s).kappa[0])
    alpha = float(np.asarray(strip.alpha(s))[0])
    assert abs(kappa - oc.KAPPA_AT_1) < 1e-12
    assert abs(alpha - oc.ALPHA_AT_1) < 1e-12
    assert abs(float(strip.beta(s)[0]) - oc.BETA_AT_1) < 1e-12
    # geodesic curvature kappa cos(alpha)
    assert abs(kappa * np.cos(alpha) - 1.0) < 1e-12
    assert np.max(np.abs(oc.ruling(strip, s)[0]
                         - np.array([0.0, 0.0, -1.0]))) < 1e-12


def test_metric_measured_matches_closed_form():
    strip = helix_strip()
    s = np.linspace(0.3, 1.8, 9)
    v = np.full_like(s, 0.15)
    closed = first_fundamental_form(strip, s, v)
    measured = oc.measured_metric(strip, s, v)
    assert max(float(np.max(np.abs(m - c)))
               for m, c in zip(measured, closed)) < 1e-6
    # G = 1 and F = cos(beta) exactly for a unit ruling field
    assert np.max(np.abs(measured[2] - 1.0)) < 1e-10


def test_metric_stencil_domain_guard():
    # a difference stencil that leaves [0, L] is refused by the crease's own
    # domain check, not extrapolated
    strip = QuarterParametrization(FundamentalData.demo()).upper_strip
    with pytest.raises(DomainError):
        oc.measured_metric(strip, np.array([0.0]), np.array([0.1]))


def test_dual_strip_is_involution_and_mirror():
    strip = helix_strip()
    dual = strip.dual()
    back = dual.dual()
    s = np.linspace(0.3, 1.8, 7)
    assert np.max(np.abs(np.asarray(dual.alpha(s)) + np.asarray(strip.alpha(s)))) == 0.0
    assert np.max(np.abs(np.asarray(back.alpha(s)) - np.asarray(strip.alpha(s)))) == 0.0
    # twisted crease: the mirror strip has a genuinely different metric,
    # visible in F = cos(beta) flipping sign
    v = np.full_like(s, 0.15)
    base = first_fundamental_form(strip, s, v)
    dual_m = first_fundamental_form(dual, s, v)
    gap = max(float(np.max(np.abs(b - d))) for b, d in zip(base, dual_m))
    assert gap > 1e-3


def test_pillow_dual_metrics_agree():
    quarter = QuarterParametrization(FundamentalData.demo())
    s = np.linspace(0.2, 1.8, 9)
    v = np.full_like(s, 0.1)
    base = first_fundamental_form(quarter.upper_strip, s, v)
    dual = first_fundamental_form(quarter.upper_strip.dual(), s, v)
    gap = max(float(np.max(np.abs(b - d))) for b, d in zip(base, dual))
    assert gap < 1e-8


def test_fold_pair_structure():
    # the folded quarter's two strips: one crease, alpha negated, and the
    # two strip maps meeting on it at v = 0
    quarter = QuarterParametrization(FundamentalData.demo())
    upper = quarter.upper_strip
    lower = upper.dual()
    assert upper.curve is quarter.crease and lower.curve is quarter.crease
    s = np.array([0.5, 1.0])
    assert np.array_equal(np.asarray(lower.alpha(s)),
                          -np.asarray(upper.alpha(s)))
    zero = np.zeros_like(s)
    assert np.array_equal(quarter.sampler("upper")(s, zero),
                          quarter.sampler("lower")(s, zero))


def test_strip_point_domain():
    # zeta(1) = sqrt 2 - 1 < 0.5: the point lies beyond the upper strip
    quarter = QuarterParametrization(FundamentalData.demo())
    with pytest.raises(OutOfDomain):
        quarter.X(np.array([1.0]), 0.5)
    with pytest.raises(OutOfDomain):
        quarter.sampler("upper")(np.array([1.0]), 0.5)


def test_interior_grid():
    g = interior_grid(2.0, 5, eps=1e-3)
    assert g.shape == (5,)
    assert g[0] == 2e-3 and g[-1] == 2.0 - 2e-3
    with pytest.raises(GridTooCoarse):
        interior_grid(2.0, 2)
    # a guard of 1/2 or more collapses or reverses the grid
    for eps in (0.0, 0.5, 0.6, -1.0, float("nan")):
        with pytest.raises(DomainError):
            interior_grid(2.0, 5, eps=eps)
