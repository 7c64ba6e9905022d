from __future__ import annotations

import numpy as np
import pytest

from pillowfold.errors import NonFiniteEvaluation, QuadratureFailure
from pillowfold.quadrature import (adaptive_simpson, cumulative_integral,
                                   gauss_segments, integrate_segments)

from oracles import fixed_simpson


def test_adaptive_simpson_cubic_exact():
    val = adaptive_simpson(lambda x: x ** 3, 0.0, 1.0)
    assert abs(val - 0.25) < 1e-13


def test_adaptive_simpson_transcendental():
    val = adaptive_simpson(np.sin, 0.0, 2.0, tol=1e-12)
    assert abs(val - (1.0 - np.cos(2.0))) < 1e-11
    oracle = fixed_simpson(np.sin, 0.0, 2.0, 20_000)
    assert abs(val - oracle) < 1e-10


def test_adaptive_simpson_sqrt_singularity():
    # infinite derivative at 0, finite values; adaptive splitting handles it
    val = adaptive_simpson(np.sqrt, 0.0, 1.0, tol=1e-10)
    assert abs(val - 2.0 / 3.0) < 1e-9


def test_integrate_segments_matches_scalar_calls():
    lo = np.array([0.0, 0.5, 1.0])
    hi = np.array([0.5, 1.5, 1.0])
    vals = integrate_segments(np.cos, lo, hi, 1e-12)
    for k in range(3):
        want = np.sin(hi[k]) - np.sin(lo[k])
        assert abs(vals[k] - want) < 1e-11
    assert vals[2] == 0.0


def test_integrate_segments_panel_budget():
    def wiggly(x):
        return np.sin(1000.0 * x)
    with pytest.raises(QuadratureFailure):
        integrate_segments(wiggly, np.array([0.0]), np.array([1.0]),
                           1e-14, max_panels=8)


def test_non_finite_integrand_rejected():
    def bad(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.5, np.nan, 1.0)
    # the message names the first such point as a plain float
    with pytest.raises(NonFiniteEvaluation, match=r"not finite near 1\.0$"):
        adaptive_simpson(bad, 0.0, 1.0)


def test_cumulative_integral_prefix_sums():
    points = np.linspace(0.0, 2.0, 17)
    vals = cumulative_integral(np.exp, points)
    assert vals[0] == 0.0
    want = np.exp(points) - 1.0
    assert np.max(np.abs(vals - want)) < 1e-11
    # cumulative values are consistent with single-shot integrals
    tail = adaptive_simpson(np.exp, 0.0, float(points[-1]), tol=1e-13)
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
