from __future__ import annotations

import numpy as np
import pytest

from pillowfold.curves import (Circle, CurveWithoutJerk, Helix, Line,
                               ProfileCrease, require_unit_speed)
from pillowfold.errors import DomainError, EndpointSingularity
from pillowfold.profiles import FundamentalData

import oracles as oc


def test_line_is_unit_speed_and_straight():
    line = Line([1.0, 2.0, 3.0], [0.0, 0.0, 5.0], length=4.0)
    s = np.linspace(0.0, 4.0, 5)
    require_unit_speed(line, s)
    assert np.allclose(line.point(4.0), [1.0, 2.0, 7.0])
    assert np.max(np.abs(line.acceleration(s))) == 0.0
    with pytest.raises(DomainError):
        Line([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])


def test_circle_geometry():
    circ = Circle(2.0)
    assert abs(circ.length - 4.0 * np.pi) < 1e-12
    s = np.linspace(0.0, circ.length, 9)
    require_unit_speed(circ, s)
    pts = circ.point(s)
    assert np.max(np.abs(np.linalg.norm(pts[:, :2], axis=1) - 2.0)) < 1e-12
    assert np.max(np.abs(pts[:, 2])) == 0.0
    acc = np.linalg.norm(circ.acceleration(s), axis=1)
    assert np.max(np.abs(acc - 0.5)) < 1e-12


def test_helix_curvature_torsion_round_trip():
    kappa, tau = 1.0, 0.3
    hel = Helix.from_curvature_torsion(kappa, tau)
    s = np.linspace(0.1, 0.9 * hel.length, 7)
    require_unit_speed(hel, s)
    acc = np.linalg.norm(hel.acceleration(s), axis=1)
    assert np.max(np.abs(acc - kappa)) < 1e-12
    assert abs(hel.analytic_torsion - tau) < 1e-12
    # third derivative against a finite-difference oracle
    fd = oc.five_point_diff(hel.acceleration, s, 1e-5)
    assert np.max(np.abs(hel.third_derivative(s) - fd)) < 1e-8


def test_curve_without_jerk_hides_analytic_data():
    hel = Helix(1.0, 0.5)
    wrapped = CurveWithoutJerk(hel)
    assert wrapped.analytic_torsion is None
    assert not hasattr(wrapped, "third_derivative")
    s = np.array([0.3, 1.1])
    assert np.array_equal(wrapped.point(s), hel.point(s))
    assert np.array_equal(wrapped.acceleration(s), hel.acceleration(s))


def test_profile_crease_folded_progress():
    crease = ProfileCrease(FundamentalData.demo(), lam=1.0)
    p = crease.point(1.0)
    assert abs(p[0] - oc.X1_TRUE) < 1e-9
    assert abs(p[1] - oc.ZETA_MAX) < 1e-15
    assert abs(p[2] - oc.ZETA_MAX) < 1e-15
    assert abs(crease.point(2.0)[0] - oc.D_TOTAL) < 1e-9


def test_profile_crease_unit_speed_and_plane():
    data = FundamentalData.demo()
    for lam in (0.0, 0.5, 1.0):
        crease = ProfileCrease(data, lam=lam)
        s = np.linspace(0.05, 1.95, 41)
        require_unit_speed(crease, s)
        pts = crease.point(s)
        assert np.max(np.abs(pts[:, 2] - lam * pts[:, 1])) < 1e-12


def test_profile_crease_half_fold_progress():
    crease = ProfileCrease(FundamentalData.demo(), lam=0.5)
    assert abs(crease.plane_travel(1.0) - oc.XT_HALF) < 1e-9
    shifted = ProfileCrease(FundamentalData.demo(), lam=0.5, mu=3.0)
    assert abs(shifted.point(1.0)[0] - 3.0 - oc.XT_HALF) < 1e-9
    assert abs(shifted.plane_travel(1.0) - oc.XT_HALF) < 1e-9


def test_profile_crease_endpoint_singularity():
    crease = ProfileCrease(FundamentalData.demo(), lam=1.0)
    with pytest.raises(EndpointSingularity):
        crease.velocity(0.0)
    with pytest.raises(EndpointSingularity):
        crease.acceleration(2.0)
    # points stay finite right up to the endpoints
    assert np.all(np.isfinite(crease.point(np.array([0.0, 2.0]))))
    # away from full fold the endpoints are regular
    half = ProfileCrease(FundamentalData.demo(), lam=0.5)
    require_unit_speed(half, np.array([0.0, 2.0]))


@pytest.mark.parametrize("lam", [1.0, 0.5, 0.0])
def test_profile_crease_memo_returns_fresh_bits(lam):
    # the stencil pattern of the isometry check: s, s + h, s - h, again
    data = FundamentalData.demo()
    s = np.broadcast_to(np.linspace(0.001, 1.999, 31)[:, None], (31, 4))
    h = 2e-5
    crease = ProfileCrease(data, lam=lam)
    for arg in (s, s + h, s - h, s, s + h):
        got = crease.point(arg)
        assert np.array_equal(got, ProfileCrease(data, lam=lam).point(arg))


def test_profile_crease_memo_hands_out_copies():
    crease = ProfileCrease(FundamentalData.demo(), lam=1.0)
    s = np.linspace(0.0, 2.0, 17)
    want = ProfileCrease(FundamentalData.demo(), lam=1.0).point(s)
    crease.point(s)[:] = -1.0
    crease.plane_travel(s)[:] = -1.0
    assert np.array_equal(crease.point(s), want)


def test_require_unit_speed_rejects_fast_curve():
    fast = Line([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], length=1.0)
    fast.direction = np.array([2.0, 0.0, 0.0])  # break the invariant
    with pytest.raises(DomainError):
        require_unit_speed(fast, np.array([0.5]))


def test_domain_guard():
    crease = ProfileCrease(FundamentalData.demo())
    with pytest.raises(DomainError):
        crease.point(-0.5)
    with pytest.raises(DomainError):
        ProfileCrease(FundamentalData.demo(), lam=float("nan"))
