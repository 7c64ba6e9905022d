from __future__ import annotations

import numpy as np
import pytest

from pillowfold.curves import Circle, CurveWithoutJerk, Helix, Line
from pillowfold.errors import (DegenerateAngle, GridTooCoarse, OutOfDomain,
                               VanishingCurvature)
from pillowfold.folding import (DevelopableStrip, beta_from_alpha,
                                beta_derivative, first_fundamental_form,
                                fold_pair, frenet_frame, interior_grid,
                                strip_geometry)
from pillowfold.pillowbox import QuarterParametrization
from pillowfold.profiles import FundamentalData

import oracles as oc


def helix_strip(tau=0.3, alpha0=0.6):
    curve = Helix.from_curvature_torsion(1.0, tau, turns=0.5)
    return DevelopableStrip(curve,
                            lambda s: np.full(np.shape(s), alpha0),
                            lambda s: np.zeros(np.shape(s)),
                            -0.2, 0.2)


def test_frenet_frame_circle():
    circ = Circle(2.0)
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
    hel = Helix.from_curvature_torsion(kappa, tau)
    s = np.linspace(0.2, 0.8 * hel.length, 11)
    exact = frenet_frame(hel, s)
    assert np.max(np.abs(exact.tau - tau)) < 1e-12
    # hiding the analytic data forces the finite-difference fallback
    numeric = frenet_frame(CurveWithoutJerk(hel), s)
    assert np.max(np.abs(numeric.tau - tau)) < 1e-6


def test_frenet_rejects_straight_line():
    with pytest.raises(VanishingCurvature):
        frenet_frame(Line([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]), np.array([0.5]))


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
    geo = strip_geometry(strip, s)
    assert np.max(np.abs(geo["kappa_g"] ** 2 + geo["kappa_n"] ** 2
                         - geo["kappa"] ** 2)) < 1e-12
    assert np.max(np.abs(geo["tau_g"] - (geo["tau"] + 0.0))) < 1e-12
    assert np.max(np.abs(np.linalg.norm(geo["ruling"], axis=-1) - 1.0)) < 1e-12
    # constant alpha, constant torsion: beta is constant along the strip
    assert np.max(np.abs(geo["beta"] - geo["beta"][0])) < 1e-12
    assert np.max(np.abs(beta_derivative(strip, s))) < 1e-6


def test_pillow_quarter_angles():
    quarter = QuarterParametrization(FundamentalData.demo())
    geo = strip_geometry(quarter.upper_strip, np.array([1.0]))
    assert abs(float(geo["kappa"][0]) - oc.KAPPA_AT_1) < 1e-12
    assert abs(float(geo["alpha"][0]) - oc.ALPHA_AT_1) < 1e-12
    assert abs(float(geo["beta"][0]) - oc.BETA_AT_1) < 1e-12
    assert abs(float(geo["kappa_g"][0]) - 1.0) < 1e-12
    assert np.max(np.abs(geo["ruling"][0] - np.array([0.0, 0.0, -1.0]))) < 1e-12


def test_metric_measured_matches_closed_form():
    strip = helix_strip()
    s = np.linspace(0.3, 1.8, 9)
    v = np.full_like(s, 0.15)
    sample = first_fundamental_form(strip, s, v)
    assert sample.max_discrepancy() < 1e-6
    # G = 1 and F = cos(beta) exactly for a unit ruling field
    assert np.max(np.abs(sample.measured[2] - 1.0)) < 1e-10


def test_metric_stencil_domain_guard():
    strip = helix_strip()
    with pytest.raises(OutOfDomain):
        first_fundamental_form(strip, np.array([0.0]), np.array([0.1]))


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
    base = first_fundamental_form(strip, s, v).closed
    dual_m = first_fundamental_form(dual, s, v).closed
    gap = max(float(np.max(np.abs(b - d))) for b, d in zip(base, dual_m))
    assert gap > 1e-3


def test_pillow_dual_metrics_agree():
    quarter = QuarterParametrization(FundamentalData.demo())
    s = np.linspace(0.2, 1.8, 9)
    v = np.full_like(s, 0.1)
    base = first_fundamental_form(quarter.upper_strip, s, v).closed
    dual = first_fundamental_form(quarter.upper_strip.dual(), s, v).closed
    gap = max(float(np.max(np.abs(b - d))) for b, d in zip(base, dual))
    assert gap < 1e-8


def test_fold_pair_structure():
    curve = Helix.from_curvature_torsion(1.0, 0.3, turns=0.5)
    record = fold_pair(curve, lambda s: np.full(np.shape(s), 0.6),
                       lambda s: np.zeros(np.shape(s)), 0.2)
    assert record.curve is curve
    s = np.array([0.5, 1.0])
    assert np.max(np.abs(np.asarray(record.lower.alpha(s)) + 0.6)) < 1e-15
    # both strips share the crease at v = 0
    pu = record.upper.point(s, 0.0)
    pl = record.lower.point(s, 0.0)
    assert np.max(np.abs(pu - pl)) == 0.0


def test_strip_point_domain():
    strip = helix_strip()
    with pytest.raises(OutOfDomain):
        strip.point(np.array([1.0]), 0.5)


def test_interior_grid():
    g = interior_grid(2.0, 5, eps=1e-3)
    assert g.shape == (5,)
    assert g[0] == 2e-3 and g[-1] == 2.0 - 2e-3
    with pytest.raises(GridTooCoarse):
        interior_grid(2.0, 2)
