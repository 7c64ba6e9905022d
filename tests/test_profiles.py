from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pillowfold.errors import (DomainError, IoError, NonFiniteEvaluation,
                               NonMonotone)
from pillowfold.profiles import (BC_TOL, FundamentalData, ProfileFunction,
                                 graph_to_arclength_profile, reparametrized,
                                 validate_fundamental_data)

import oracles as oc
from strategies import admissible_data


def test_hyperbolic_demo_values():
    z = ProfileFunction.hyperbolic(2.0, 1.0)
    assert abs(z.eval(1.0, 0) - oc.ZETA_MAX) < 1e-15
    assert abs(z.eval(0.0, 0)) < 1e-15
    assert abs(z.eval(2.0, 0)) < 1e-15
    s = np.linspace(0.1, 1.9, 37)
    assert np.max(np.abs(z.eval(s, 0) - oc.demo_zeta(s, 0))) < 1e-15
    assert np.max(np.abs(z.eval(s, 1) - oc.demo_zeta(s, 1))) < 1e-15
    assert np.max(np.abs(z.eval(s, 2) - oc.demo_zeta(s, 2))) < 1e-15


def test_derivatives_match_finite_differences():
    z = ProfileFunction.hyperbolic(2.0, 1.0)
    s = np.linspace(0.2, 1.8, 9)
    fd1 = oc.central_diff(lambda x: z.eval(x, 0), s, 1e-6)
    fd2 = oc.central_diff(lambda x: z.eval(x, 1), s, 1e-6)
    assert np.max(np.abs(z.eval(s, 1) - fd1)) < 1e-9
    assert np.max(np.abs(z.eval(s, 2) - fd2)) < 1e-9


def test_eval_scalar_and_array_types():
    z = ProfileFunction.hyperbolic()
    assert isinstance(z.eval(1.0), float)
    out = z.eval(np.array([0.5, 1.5]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)


def test_eval_domain_and_order_guards():
    z = ProfileFunction.hyperbolic()
    with pytest.raises(DomainError):
        z.eval(-0.1)
    with pytest.raises(DomainError):
        z.eval(2.5)
    z.eval(2.0 + 1e-12)  # inside the domain tolerance
    with pytest.raises(ValueError):
        z.eval(1.0, order=3)


def test_non_finite_values_rejected():
    bad = ProfileFunction(1.0, "poly",
                          lambda s, order: np.full(np.shape(s), np.nan))
    with pytest.raises(NonFiniteEvaluation):
        bad.eval(0.5)


def test_circular_profile_geometry():
    L, R = 2.0, 1.5
    z = ProfileFunction.circular(L, R)
    assert abs(z.eval(0.0, 0)) < 1e-15
    assert abs(z.eval(L, 0)) < 1e-15
    assert abs(z.eval(L / 2, 0) - (R - np.sqrt(R * R - 1.0))) < 1e-15
    s = np.linspace(0.2, 1.8, 9)
    fd1 = oc.central_diff(lambda x: z.eval(x, 0), s, 1e-6)
    assert np.max(np.abs(z.eval(s, 1) - fd1)) < 1e-9
    with pytest.raises(DomainError):
        ProfileFunction.circular(2.0, 0.9)


def test_polynomial_profile():
    z = ProfileFunction.polynomial([0.0, 0.6, -0.3], 2.0)
    s = np.linspace(0.0, 2.0, 11)
    assert np.max(np.abs(z.eval(s, 0) - (0.6 * s - 0.3 * s * s))) < 1e-15
    assert np.max(np.abs(z.eval(s, 1) - (0.6 - 0.6 * s))) < 1e-15
    assert np.max(np.abs(z.eval(s, 2) + 0.6)) < 1e-15


def test_tabulated_profile_approximates_samples():
    knots = np.linspace(0.0, 2.0, 41)
    z = ProfileFunction.tabulated(knots, oc.demo_zeta(knots, 0))
    s = np.linspace(0.0, 2.0, 101)
    assert np.max(np.abs(z.eval(s, 0) - oc.demo_zeta(s, 0))) < 1e-5
    with pytest.raises(NonMonotone):
        ProfileFunction.tabulated([0.0, 1.0, 0.5, 2.0], [0.0, 1.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        ProfileFunction.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])


def test_import_leaves_scipy_interpolate_unloaded():
    # only tabulated profiles need scipy.interpolate, so the package does
    # not pay for it at import
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pillowfold; print('scipy.interpolate' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_every_exported_name_resolves():
    # a stale name in __all__ would break `from pillowfold import *`
    import pillowfold
    assert len(set(pillowfold.__all__)) == len(pillowfold.__all__)
    missing = [n for n in pillowfold.__all__ if not hasattr(pillowfold, n)]
    assert missing == []
    namespace = {}
    exec("from pillowfold import *", namespace)
    assert set(pillowfold.__all__) <= set(namespace)


def test_descriptor_round_trips():
    cases = [
        ProfileFunction.hyperbolic(2.0, 1.0),
        ProfileFunction.circular(2.0, 1.5),
        ProfileFunction.polynomial([0.0, 0.6, -0.3], 2.0),
        ProfileFunction.tabulated(np.linspace(0.0, 2.0, 5), [0.0, 0.2, 0.3, 0.2, 0.0]),
    ]
    s = np.linspace(0.0, 2.0, 17)
    for z in cases:
        back = ProfileFunction.from_descriptor(z.descriptor())
        assert back.length == z.length
        assert np.array_equal(np.asarray(back.eval(s, 0)), np.asarray(z.eval(s, 0)))
    with pytest.raises(IoError):
        ProfileFunction.from_descriptor({"kind": "mystery"})
    # a derived profile evaluates but does not serialize
    with pytest.raises(IoError):
        graph_to_arclength_profile(ProfileFunction.hyperbolic(),
                                   "plane-crease")[1].descriptor()


def test_fundamental_data_basics():
    data = FundamentalData.demo()
    assert data.length == 2.0
    assert abs(data.max_height() - oc.ZETA_MAX) < 1e-9
    assert abs(2.0 * data.half_width() - oc.TWO_A) < 1e-10
    with pytest.raises(DomainError):
        FundamentalData(0.0, ProfileFunction.hyperbolic())
    back = FundamentalData.from_descriptor(data.descriptor())
    assert back.b == data.b and back.length == data.length
    with pytest.raises(IoError):
        FundamentalData.from_descriptor({"b": 1.0})


def test_half_width_against_oracle():
    data = FundamentalData.demo()

    def speed(s):
        return np.sqrt(1.0 - oc.demo_zeta(s, 1) ** 2)

    oracle = oc.fixed_simpson(speed, 0.0, 2.0, 40_000)
    assert abs(2.0 * data.half_width() - oracle) < 1e-8


def test_validate_demo_data_passes():
    report = validate_fundamental_data(1.0, ProfileFunction.hyperbolic())
    assert report.valid
    names = [e["name"] for e in report.entries]
    assert names == ["endpoints-zero", "interior-positive", "below-b",
                     "concave", "slope-margin", "endpoint-slope"]
    assert all(e["passed"] for e in report.entries)
    d = report.to_dict()
    assert d["valid"] and sorted(d) == ["bc_tol", "entries", "valid"]


def test_validate_flat_profile_fails_positivity():
    flat = ProfileFunction.polynomial([0.0], 2.0)
    report = validate_fundamental_data(1.0, flat)
    assert not report.valid
    entry = next(e for e in report.entries if e["name"] == "interior-positive")
    assert not entry["passed"]


def test_validate_shallow_b_fails_below_b():
    report = validate_fundamental_data(0.3, ProfileFunction.hyperbolic())
    assert not report.valid
    entry = next(e for e in report.entries if e["name"] == "below-b")
    assert not entry["passed"]
    assert abs(entry["margin"] - oc.B03_MARGIN) < 1e-6


def test_validate_steep_profile_fails_slope():
    # peak slope 0.75 > 1/sqrt(2): folding at lam = 1 would be impossible
    steep = ProfileFunction.polynomial([0.0, 0.75, -0.375], 2.0)
    report = validate_fundamental_data(1.0, steep)
    entry = next(e for e in report.entries if e["name"] == "slope-margin")
    assert not entry["passed"]
    assert not report.valid


@pytest.mark.parametrize("excess, valid", [(-2.0, True), (0.0, True),
                                            (2.0, False)])
def test_validate_end_slope_threshold(excess, valid):
    # a s - a s^2 / 2 on [0, 2]: end slopes +-a, interior slopes below a
    a = 1.0 / np.sqrt(2.0) + excess * BC_TOL
    report = validate_fundamental_data(
        1.0, ProfileFunction.polynomial([0.0, a, -0.5 * a], 2.0))
    entry = next(e for e in report.entries if e["name"] == "endpoint-slope")
    assert entry["passed"] == valid
    assert abs(entry["margin"] + excess * BC_TOL) < 1e-15
    assert report.valid == valid


def test_graph_to_arclength_plane_mode():
    # the demo crease pattern, converted back to an arc-length profile,
    # must reproduce the demo profile and its domain length
    pattern = ProfileFunction(
        oc.TWO_A, "poly",
        lambda x, order: {0: oc.demo_pattern(x),
                          1: -np.sinh(np.asarray(x) - oc.PATTERN_SHIFT),
                          2: -np.cosh(np.asarray(x) - oc.PATTERN_SHIFT)}[order])
    L, zeta_hat = graph_to_arclength_profile(pattern, "plane-crease")
    assert abs(L - 2.0) < 1e-10
    s = np.linspace(0.05, 1.95, 21)
    assert np.max(np.abs(zeta_hat.eval(s, 0) - oc.demo_zeta(s, 0))) < 1e-9
    assert np.max(np.abs(zeta_hat.eval(s, 1) - oc.demo_zeta(s, 1))) < 1e-9
    assert np.max(np.abs(zeta_hat.eval(s, 2) - oc.demo_zeta(s, 2))) < 1e-9


def test_graph_to_arclength_space_mode():
    # graph of the fully folded crease over its x-progress; recovering the
    # profile needs the doubled slope contribution in the speed
    g = ProfileFunction.polynomial([0.0, 0.4, -0.2], 2.0)

    def folded_graph_speed(x):
        return np.sqrt(1.0 + 2.0 * (0.4 - 0.4 * np.asarray(x)) ** 2)

    L, zeta_hat = graph_to_arclength_profile(g, "space-crease")
    oracle_L = oc.fixed_simpson(folded_graph_speed, 0.0, 2.0, 20_000)
    assert abs(L - oracle_L) < 1e-9
    assert abs(zeta_hat.eval(L / 2.0, 0) - 0.2) < 1e-9
    with pytest.raises(DomainError):
        graph_to_arclength_profile(g, "diagonal")


@settings(derandomize=True, max_examples=16, deadline=None)
@given(admissible_data(), st.sampled_from(["pattern", "scaled", "graph",
                                           "crease"]),
       st.floats(0.0, 1.0, exclude_min=True),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_inverse_has_the_bits_of_separate_newton_calls(data, which, c, at):
    # k = -1 (pattern), c^2 - 1 (scaled pattern), 1 (graph), 2 (crease)
    k = {"pattern": -1.0, "scaled": c * c - 1.0, "graph": 1.0,
         "crease": 2.0}[which]
    travel = reparametrized(data.zeta, k, c, kind="reparam").travel
    x = np.concatenate([[0.0, travel.total], travel.table,
                        travel.total * np.asarray(at)])
    assert np.array_equal(travel.inverse(x), oc.newton_inverse(travel, x))
    assert np.array_equal(travel.inverse(x[-1]),
                          oc.newton_inverse(travel, x[-1]))
