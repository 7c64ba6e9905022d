from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from pillowfold.deformation import DeformedQuarter
from pillowfold.errors import ScheduleViolation, WeldFailure
from pillowfold.curves import ProfileCrease
from pillowfold.pillowbox import (XI_LOWER, XI_UPPER, QuarterParametrization,
                                  assemble_box)
from pillowfold.profiles import FundamentalData, ProfileFunction
from pillowfold.verify import topology_report

import oracles as oc
from strategies import admissible_data


def test_crease_curve_against_quadrature_oracle():
    crease = ProfileCrease(FundamentalData.demo(), lam=1.0)
    assert crease.lam == 1.0
    x1 = float(crease.point(1.0)[0])
    assert abs(x1 - oc.X1_TRUE) < 1e-9
    assert abs(x1 - oc.X1_SIMPSON_1E4) < 1e-6


def test_quarter_rulings_are_constant_units():
    quarter = QuarterParametrization(FundamentalData.demo())
    assert np.allclose(XI_UPPER, [0.0, 0.0, -1.0], atol=1e-15)
    assert np.allclose(XI_LOWER, [0.0, -1.0, 0.0], atol=1e-15)
    s = np.linspace(0.1, 1.9, 7)
    # the Frenet-frame route reproduces the same constant rulings
    assert np.max(np.abs(quarter.upper_strip.ruling(s) - XI_UPPER)) < 1e-12
    assert np.max(np.abs(quarter.lower_strip.ruling(s) - XI_LOWER)) < 1e-12


def test_quarter_surface_structure():
    data = FundamentalData.demo()
    quarter = QuarterParametrization(data)
    s = np.linspace(0.0, 2.0, 21)
    z0 = oc.demo_zeta(s, 0)
    # crease row equals the folded crease
    crease_pts = quarter.X(s, np.zeros_like(s))
    assert np.max(np.abs(crease_pts[:, 1] - z0)) < 1e-12
    assert np.max(np.abs(crease_pts[:, 2] - z0)) < 1e-12
    # horizontal end (v = zeta) drops to the z = 0 plane
    horiz = oc.horizontal_end(quarter, s)
    assert np.max(np.abs(horiz[:, 2])) < 1e-12
    assert np.max(np.abs(horiz[:, 1] - z0)) < 1e-12
    # vertical end (v = zeta - b) sits in the y = b plane
    vert = oc.vertical_end(quarter, s)
    assert np.max(np.abs(vert[:, 1] - data.b)) < 1e-12


def test_quarter_ruling_angle_value():
    strip = QuarterParametrization(FundamentalData.demo()).upper_strip
    assert abs(float(np.cos(strip.beta(np.array([0.5]))[0])) - oc.F_HALF) < 1e-12
    # independent oracle: cos(beta) = -zeta'(s), on both strips
    s = np.linspace(0.1, 1.9, 9)
    for side in (strip, strip.dual()):
        assert np.max(np.abs(np.cos(side.beta(s)) + oc.demo_zeta(s, 1))) < 1e-12


def test_box_topology_and_volume():
    box = assemble_box(FundamentalData.demo(), n_s=24, n_v=12)
    topo = topology_report(box)
    assert topo.closed
    assert topo.euler == 2
    assert box.orientation_consistent()
    assert topo.intersections == 0
    assert topo.volume_valid
    assert 0.0 < topo.volume < oc.V_CONTINUUM
    assert box.weld_report["vertical_end"] == "welded"
    assert box.weld_report["endpoint_columns"] == "welded"
    assert box.weld_report["horizontal_end"] == "welded"
    assert box.weld_report["boundary_edge_count"] == 0


def box_volume(data, n_s, n_v) -> float:
    topo = topology_report(assemble_box(data, n_s, n_v),
                           count_intersections=False)
    assert topo.volume_valid
    return topo.volume


def test_box_volume_grid_convergence():
    v1 = box_volume(FundamentalData.demo(), 64, 32)
    v2 = box_volume(FundamentalData.demo(), 128, 64)
    assert abs(v1 - oc.V_64x32) < 1e-12
    assert abs(v2 - oc.V_128x64) < 1e-12
    assert abs(v1 - v2) / v2 < oc.V_REL_64_128
    assert abs(v2 - oc.V_CONTINUUM) / oc.V_CONTINUUM < oc.V_REL_128_CONT
    # refinement approaches the continuum volume from below
    assert v1 < v2 < oc.V_CONTINUUM


def test_box_scales_with_profile():
    # halving the profile halves the box height; volume shrinks accordingly
    data = FundamentalData.demo()
    small = FundamentalData(1.0, ProfileFunction(
        2.0, "scaled", lambda s, order: 0.5 * data.zeta.eval(s, order)))
    v_small = box_volume(small, 32, 16)
    v_full = box_volume(data, 32, 16)
    assert v_small < v_full


def test_weld_failure_on_open_profile():
    # nonzero endpoint heights leave the four copies apart at the corners
    bad = FundamentalData(1.0, ProfileFunction.polynomial([0.3], 2.0))
    with pytest.raises(WeldFailure):
        assemble_box(bad, n_s=8, n_v=4)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(admissible_data())
def test_folded_quarter_is_the_lam_1_deformed_quarter(data):
    quarter = QuarterParametrization(data)
    assert isinstance(quarter, DeformedQuarter)
    assert quarter.lam == 1.0 and quarter.mu == 0.0
    deformed = DeformedQuarter(data, 1.0)
    # both ends, the crease row v = 0 and both rims
    s = np.linspace(0.0, data.length, 9)
    z0 = np.asarray(data.zeta.eval(s, 0))
    vmat = np.stack([z0 - data.b, 0.5 * (z0 - data.b), np.zeros_like(z0),
                     0.5 * z0, z0])
    smat = np.broadcast_to(s, vmat.shape)
    assert np.array_equal(quarter.X(smat, vmat), deformed.X(smat, vmat))
    assert np.array_equal(oc.vertical_end(quarter, s),
                          oc.vertical_end(deformed, s))
    assert np.array_equal(oc.horizontal_end(quarter, s),
                          oc.horizontal_end(deformed, s))
    # the Frenet strip pair rules the quarter by the same constant rulings
    inner = np.linspace(0.1, 0.9, 9) * data.length
    assert np.max(np.abs(quarter.upper_strip.ruling(inner)
                         - deformed.xi_upper)) < 1e-12
    assert np.max(np.abs(quarter.lower_strip.ruling(inner)
                         - deformed.xi_lower)) < 1e-12


def test_folded_quarter_refuses_a_negative_fold_margin():
    # end slope 1/hypot(1, 0.7) > 1/sqrt2: sigma^2 = 1 - 2 zeta'^2 reaches
    # -0.339 near the ends, so the folded state does not exist
    data = FundamentalData.from_descriptor(
        {"b": 1.0, "zeta": {"kind": "hyperbolic", "length": 2.0,
                            "width": 0.7}})
    with pytest.raises(ScheduleViolation):
        QuarterParametrization(data)
