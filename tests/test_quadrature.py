from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pillowfold import quadrature
from pillowfold.curves import ProfileCrease
from pillowfold.errors import NonFiniteEvaluation, QuadratureFailure
from pillowfold.profiles import FundamentalData, safe_sqrt
from pillowfold.quadrature import (cumulative_integral, cumulative_integrals,
                                   gauss_segments, integrate_segments)

from oracles import fixed_simpson, separate_call_simpson

_ARCH_S = np.linspace(0.0, 2.0, 7)
_TABLE = FundamentalData.from_descriptor({"b": 1.0, "zeta": {
    "kind": "table", "s": _ARCH_S.tolist(),
    "values": (0.25 * np.sin(np.pi * _ARCH_S / 2.0)).round(12).tolist()}})

# integrand and interval: the demo's folded sigma has square-root zeros at
# both ends
INTEGRANDS = {
    "exp": (np.exp, -3.0, 3.0),
    "demo-sigma": (ProfileCrease(FundamentalData.demo(), lam=1.0).sigma,
                   0.0, 2.0),
    "table-sigma": (ProfileCrease(_TABLE, lam=1.0).sigma, 0.0, 2.0),
}


def _counted(fn):
    calls = []

    def wrapped(x):
        calls.append(np.size(x))
        return fn(x)
    return wrapped, calls


def _integral(fn, a, b, tol=1e-10):
    """integrate_segments over the one segment [a, b]."""
    return float(integrate_segments(fn, [a], [b], [tol])[0])


def test_adaptive_simpson_cubic_exact():
    val = _integral(lambda x: x ** 3, 0.0, 1.0)
    assert abs(val - 0.25) < 1e-13


def test_adaptive_simpson_transcendental():
    val = _integral(np.sin, 0.0, 2.0, tol=1e-12)
    assert abs(val - (1.0 - np.cos(2.0))) < 1e-11
    oracle = fixed_simpson(np.sin, 0.0, 2.0, 20_000)
    assert abs(val - oracle) < 1e-10


def test_adaptive_simpson_sqrt_singularity():
    # infinite derivative at 0, finite values; adaptive splitting handles it
    val = _integral(np.sqrt, 0.0, 1.0, tol=1e-10)
    assert abs(val - 2.0 / 3.0) < 1e-9


def test_integrate_segments_matches_scalar_calls():
    lo = np.array([0.0, 0.5, 1.0])
    hi = np.array([0.5, 1.5, 1.0])
    vals = integrate_segments(np.cos, lo, hi, 1e-12)
    for k in range(3):
        want = np.sin(hi[k]) - np.sin(lo[k])
        assert abs(vals[k] - want) < 1e-11
    assert vals[2] == 0.0


def test_integrate_segments_panel_budget(monkeypatch):
    def wiggly(x):
        return np.sin(1000.0 * x)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    with pytest.raises(QuadratureFailure):
        integrate_segments(wiggly, np.array([0.0]), np.array([1.0]), 1e-14)


def _panels(fn, points, tol=1e-12):
    """The panels cumulative_integral makes on one set: after the three
    points of each starting segment, every panel takes two integrand points
    in the one sweep it is open."""
    counted, calls = _counted(fn)
    cumulative_integral(counted, points, tol)
    return (sum(calls) - 3 * (len(points) - 1)) // 2


def test_panel_cap_is_per_set(monkeypatch):
    fn = INTEGRANDS["demo-sigma"][0]
    points = np.linspace(0.0, 2.0, 9)
    need = _panels(fn, points)
    alone = cumulative_integral(fn, points)
    # at the cap each set passes alone, and three of them pass together
    # although they make three times the cap's panels
    monkeypatch.setattr(quadrature, "MAX_PANELS", need)
    assert np.array_equal(cumulative_integral(fn, points), alone)
    for got in cumulative_integrals(fn, [points] * 3):
        assert np.array_equal(got, alone)
    # one panel over it a set fails alone, with the one-set message, and
    # three such sets fail together
    monkeypatch.setattr(quadrature, "MAX_PANELS", need - 1)
    with pytest.raises(QuadratureFailure,
                       match=rf"^panel cap {need - 1} exceeded \("):
        cumulative_integral(fn, points)
    with pytest.raises(QuadratureFailure,
                       match=rf"^panel cap {3 * (need - 1)} exceeded \("):
        cumulative_integrals(fn, [points] * 3)


def test_non_finite_integrand_rejected():
    def bad(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.5, np.nan, 1.0)
    # the message names the first such point as a plain float
    with pytest.raises(NonFiniteEvaluation, match=r"not finite near 1\.0$"):
        _integral(bad, 0.0, 1.0)


def test_cumulative_integral_prefix_sums():
    points = np.linspace(0.0, 2.0, 17)
    vals = cumulative_integral(np.exp, points)
    assert vals[0] == 0.0
    want = np.exp(points) - 1.0
    assert np.max(np.abs(vals - want)) < 1e-11
    # cumulative values are consistent with single-shot integrals
    tail = _integral(np.exp, 0.0, float(points[-1]), tol=1e-13)
    assert abs(vals[-1] - tail) < 1e-11


def test_cumulative_integral_unsorted_rejected():
    with pytest.raises(Exception):
        cumulative_integral(np.exp, np.array([0.0, 2.0, 1.0]))


def test_gauss_segments_high_degree_polynomial():
    # 15-point Gauss-Legendre is exact through degree 29
    coeffs = np.zeros(21)
    coeffs[20] = 1.0
    poly = np.polynomial.Polynomial(coeffs)

    def fn(x):
        return poly(np.asarray(x, dtype=float))

    val = gauss_segments(fn, np.array([0.0]), np.array([2.0]))
    want = 2.0 ** 21 / 21.0
    assert abs(float(val[0]) - want) < 1e-9 * want


def test_gauss_segments_vectorized_over_segments():
    a = np.array([0.0, 1.0, -1.0])
    b = np.array([1.0, 3.0, 1.0])
    vals = gauss_segments(np.cos, a, b)
    want = np.sin(b) - np.sin(a)
    assert np.max(np.abs(vals - want)) < 1e-13


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(INTEGRANDS)),
       cuts=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12),
       tol=st.sampled_from([1e-6, 1e-9, 1e-12]), by_width=st.booleans())
def test_one_integrand_call_per_sweep_same_bits(name, cuts, tol, by_width):
    fn, lo, hi = INTEGRANDS[name]
    pts = lo + (hi - lo) * np.sort(cuts)
    if by_width:       # cumulative_integral's split of the tolerance
        tol = np.maximum(tol * np.diff(pts) / max(hi - lo, 1e-300), 1e-16)
    fused, fused_calls = _counted(fn)
    apart, apart_calls = _counted(fn)
    got = integrate_segments(fused, pts[:-1], pts[1:], tol)
    want = separate_call_simpson(apart, pts[:-1], pts[1:], tol)
    assert np.array_equal(got, want)
    # three calls at the start and two per sweep, against one and one
    sweeps, odd = divmod(len(apart_calls) - 3, 2)
    assert odd == 0
    assert len(fused_calls) == 1 + sweeps
    assert sum(fused_calls) == sum(apart_calls)


@pytest.mark.parametrize("windows", [
    [(0.95, 1.1), (0.45, 0.55)],      # at the start: a midpoint and an end
    [(0.7, 0.8), (0.2, 0.3)],         # in the first sweep: both quarters
])
def test_first_non_finite_point_named_as_by_separate_calls(windows):
    def bad(x):
        x = np.asarray(x, dtype=float)
        hit = np.zeros(x.shape, dtype=bool)
        for lo, hi in windows:
            hit |= (x > lo) & (x < hi)
        return np.where(hit, np.nan, x * x)

    for lo, hi in (([0.0], [1.0]), ([0.0, 0.5], [0.5, 1.0])):
        with pytest.raises(NonFiniteEvaluation) as want:
            separate_call_simpson(bad, lo, hi, 1e-10)
        with pytest.raises(NonFiniteEvaluation) as got:
            integrate_segments(bad, lo, hi, 1e-10)
        assert str(got.value) == str(want.value)


def _zero_width(x, n):
    return [x] * n


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(INTEGRANDS)),
       sets=st.lists(st.one_of(
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
           st.builds(_zero_width, st.floats(0.0, 1.0), st.integers(2, 4))),
           min_size=1, max_size=5),
       tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_cumulative_integrals_have_the_bits_of_one_call_per_set(name, sets,
                                                                 tol):
    fn, lo, hi = INTEGRANDS[name]
    point_sets = [lo + (hi - lo) * np.sort(cuts) for cuts in sets]
    got = cumulative_integrals(fn, point_sets, tol)
    assert len(got) == len(point_sets)
    for pts, cum in zip(point_sets, got):
        assert np.array_equal(cum, cumulative_integral(fn, pts, tol))
        if pts[-1] == pts[0]:       # a 1-point or zero-width set
            assert np.array_equal(cum, np.zeros(pts.size))


_DEMO_ZETA = FundamentalData.demo().zeta


def _sigma_family(s, k):
    return safe_sqrt(1.0 - k * _DEMO_ZETA.eval(s, 1) ** 2)


@pytest.mark.parametrize("fn", [_sigma_family, lambda x, p: np.exp(p * x)])
def test_cumulative_integrals_with_set_values_have_the_bits_of_one_call_per_value(fn):
    # the demo's sigma at k = 2 has square-root zeros at both ends
    point_sets = [np.linspace(0.0, 2.0, 9), np.array([0.7]),
                  np.full(3, 1.3), np.linspace(0.1, 1.9, 5),
                  np.linspace(0.0, 2.0, 9), np.array([0.0, 0.4, 2.0])]
    values = [2.0, 1.25, 1.49, 1.0 + 0.7 ** 2, 1.0, 2.0]
    got = cumulative_integrals(fn, point_sets, 1e-12, params=values)
    assert len(got) == len(point_sets)
    for pts, value, cum in zip(point_sets, values, got):
        want = cumulative_integral(lambda x: fn(x, value), pts, 1e-12)
        assert np.array_equal(cum, want)
        if pts[-1] == pts[0]:       # a 1-point or zero-width set
            assert np.array_equal(cum, np.zeros(pts.size))
