from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from pillowfold.deformation import DeformedQuarter
from pillowfold.development import (PlanarDevelopment, double_rectangle_mesh,
                                    pattern_graph, validate_pattern_conditions)
from pillowfold.errors import GridTooCoarse, NonGraph, OutOfDomain
from pillowfold.profiles import FundamentalData, ProfileFunction
from pillowfold.mesh import _CONTACT_FACTOR, self_intersection_pairs
from pillowfold.verify import topology_report

import oracles as oc
from strategies import admissible_data


def test_development_width_matches_closed_form():
    dev = PlanarDevelopment(FundamentalData.demo())
    assert abs(dev.width - oc.TWO_A) < 1e-10
    oracle = oc.fixed_simpson(
        lambda s: np.sqrt(1.0 - oc.demo_zeta(s, 1) ** 2), 0.0, 2.0, 40_000)
    assert abs(dev.width - oracle) < 1e-8


def test_development_image_is_flat_rectangle():
    data = FundamentalData.demo()
    dev = PlanarDevelopment(data)
    s = np.linspace(0.0, 2.0, 33)
    z0 = oc.demo_zeta(s, 0)
    # crease image is the graph of zeta over the developed abscissa
    g = dev.gamma(s)
    assert np.max(np.abs(g[:, 1] - z0)) < 1e-12
    assert np.max(np.abs(g[:, 2])) == 0.0
    assert abs(g[0, 0]) < 1e-12 and abs(g[-1, 0] - oc.TWO_A) < 1e-10
    # ends of the v range land on the rectangle edges y = 0 and y = b
    top = dev.Y(s, z0)
    bottom = dev.Y(s, z0 - data.b)
    assert np.max(np.abs(top[:, 1])) < 1e-12
    assert np.max(np.abs(bottom[:, 1] - data.b)) < 1e-12
    with pytest.raises(OutOfDomain):
        dev.Y(np.array([1.0]), np.array([0.9]))


def test_development_is_isometric():
    # developed speed along the crease must equal 1 (arc length preserved)
    dev = PlanarDevelopment(FundamentalData.demo())
    s = np.linspace(0.1, 1.9, 25)
    h = 1e-6
    d = (dev.gamma(s + h) - dev.gamma(s - h)) / (2.0 * h)
    speed = np.linalg.norm(d, axis=1)
    assert np.max(np.abs(speed - 1.0)) < 1e-8


def test_pattern_graph_matches_closed_form():
    psi = pattern_graph(FundamentalData.demo())
    assert abs(psi.length - oc.TWO_A) < 1e-10
    x = np.linspace(0.0, psi.length, 41)
    assert np.max(np.abs(psi.eval(x, 0) - oc.demo_pattern(x))) < 1e-9
    # apex at the halfway abscissa
    assert abs(psi.eval(oc.PATTERN_SHIFT, 0) - oc.ZETA_MAX) < 1e-9
    # slope oracle: psi' = -sinh(x - a)
    assert np.max(np.abs(psi.eval(x, 1)
                         + np.sinh(x - oc.PATTERN_SHIFT))) < 1e-8
    # curvature oracle: psi'' = -cosh(x - a)
    assert np.max(np.abs(psi.eval(x, 2)
                         + np.cosh(x - oc.PATTERN_SHIFT))) < 1e-8


def test_pattern_slope_stays_subunit_inside():
    psi = pattern_graph(FundamentalData.demo())
    x = np.linspace(0.01, psi.length - 0.01, 99)
    assert np.max(np.abs(psi.eval(x, 1))) < 1.0


def test_validate_pattern_demo_passes():
    report = validate_pattern_conditions(pattern_graph(FundamentalData.demo()), 1.0)
    assert report.valid
    names = [e["name"] for e in report.entries]
    assert names == ["endpoints-zero", "slope-subunit", "concave",
                     "interior-positive", "below-b"]


def test_validate_pattern_steep_slope_fails():
    # peak slope 1.2 violates the sub-unit slope condition
    steep = ProfileFunction.polynomial([0.0, 1.2, -0.6], 2.0)
    report = validate_pattern_conditions(steep, 1.0)
    assert not report.valid
    entry = next(e for e in report.entries if e["name"] == "slope-subunit")
    assert not entry["passed"]
    assert entry["margin"] < -0.3


def test_validate_pattern_rejects_non_graph():
    broken = ProfileFunction(1.0, "poly",
                             lambda x, order: np.full(np.shape(x), np.nan))
    with pytest.raises(NonGraph):
        validate_pattern_conditions(broken, 1.0)


@settings(derandomize=True, max_examples=16, deadline=None)
@given(admissible_data())
def test_double_rectangle_counts_and_topology(data):
    # the flat quarter's mesh on grids from 2x2: two coincident sheets over
    # [0, 2a] x [0, 2b] in z = 0 that close into a sphere of zero volume
    flat = DeformedQuarter(data, 0.0)
    width = 2.0 * data.half_width()
    for n_s, n_v in ((2, 2), (3, 2), (2, 3), (8, 4)):
        rect = double_rectangle_mesh(flat, n_s, n_v)
        assert np.all(rect.vertices[:, 2] == 0.0)
        lo, hi = rect.vertices.min(axis=0), rect.vertices.max(axis=0)
        assert np.max(np.abs(lo[:2])) < 1e-12
        assert abs(hi[0] - width) < 1e-9 * width and hi[1] == 2.0 * data.b
        assert rect.euler_characteristic() == 2
        assert rect.is_closed()
        assert rect.nonmanifold_edge_count() == 0
        assert rect.orientation_consistent()
        topo = topology_report(rect, count_intersections=False)
        assert topo.volume_valid and abs(topo.volume) < 1e-14
    with pytest.raises(GridTooCoarse):
        double_rectangle_mesh(flat, 1, 2)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(admissible_data())
def test_double_rectangle_no_spurious_intersections(data):
    # coincident coplanar sheets must not count as self-intersections, by
    # the mesh layer's test and by the brute-force oracle alike
    for n_s, n_v in ((2, 2), (4, 4)):
        rect = double_rectangle_mesh(DeformedQuarter(data, 0.0), n_s, n_v)
        assert self_intersection_pairs(rect) == []
        assert oc.brute_force_intersections(rect, _CONTACT_FACTOR) == []
