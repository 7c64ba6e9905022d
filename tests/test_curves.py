from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pillowfold import curves, profiles, quadrature
from pillowfold.curves import ProfileCrease
from pillowfold.errors import DomainError, EndpointSingularity
from pillowfold.profiles import FundamentalData, ProfileFunction

import oracles as oc
from strategies import admissible_data


def speed_gap(curve, s) -> float:
    """Largest deviation of |c'(s)| from 1 over the samples."""
    return float(np.max(np.abs(
        np.linalg.norm(curve.velocity(s), axis=-1) - 1.0)))


def test_line_is_unit_speed_and_straight():
    # a linear profile makes the crease a straight line at every lam
    line = ProfileCrease(FundamentalData(1.0, ProfileFunction.polynomial(
        [0.1, 0.5], 4.0)), lam=0.6)
    s = np.linspace(0.0, 4.0, 5)
    assert speed_gap(line, s) < 1e-12
    assert np.allclose(line.point(s),
                       line.point(0.0) + s[:, None] * line.velocity(0.0),
                       rtol=0.0, atol=1e-12)
    assert np.max(np.abs(line.acceleration(s))) == 0.0
    with pytest.raises(DomainError):
        line.point(4.5)


def test_circle_geometry():
    # the helix oracle at pitch 0 is the circle of radius 2
    circ = oc.Helix(2.0, 0.0)
    assert abs(circ.length - 4.0 * np.pi) < 1e-12
    assert circ.analytic_torsion == 0.0
    s = np.linspace(0.0, circ.length, 9)
    assert speed_gap(circ, s) < 1e-12
    pts = circ.point(s)
    assert np.max(np.abs(np.linalg.norm(pts[:, :2], axis=1) - 2.0)) < 1e-12
    assert np.max(np.abs(pts[:, 2])) == 0.0
    acc = np.linalg.norm(circ.acceleration(s), axis=1)
    assert np.max(np.abs(acc - 0.5)) < 1e-12


def test_helix_curvature_torsion_round_trip():
    kappa, tau = 1.0, 0.3
    hel = oc.Helix.from_curvature_torsion(kappa, tau)
    s = np.linspace(0.1, 0.9 * hel.length, 7)
    assert speed_gap(hel, s) < 1e-12
    acc = hel.acceleration(s)
    assert np.max(np.abs(np.linalg.norm(acc, axis=1) - kappa)) < 1e-12
    assert abs(hel.analytic_torsion - tau) < 1e-12
    # torsion (c' x c'') . c''' / kappa^2, with c''' by five-point differences
    jerk = oc.five_point_diff(hel.acceleration, s, 1e-5)
    numeric = np.einsum('ij,ij->i', np.cross(hel.velocity(s), acc),
                        jerk) / kappa ** 2
    assert np.max(np.abs(numeric - tau)) < 1e-8


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
        assert speed_gap(crease, s) < 1e-8
        pts = crease.point(s)
        assert np.max(np.abs(pts[:, 2] - lam * pts[:, 1])) < 1e-12


def test_profile_crease_half_fold_progress():
    crease = ProfileCrease(FundamentalData.demo(), lam=0.5)
    assert abs(crease.point(1.0)[0] - oc.XT_HALF) < 1e-9
    # the drift mu moves the crease along x only
    shifted = ProfileCrease(FundamentalData.demo(), lam=0.5, mu=3.0)
    assert abs(shifted.point(1.0)[0] - 3.0 - oc.XT_HALF) < 1e-9
    assert np.array_equal(shifted.point(1.0)[1:], crease.point(1.0)[1:])


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
    assert speed_gap(half, np.array([0.0, 2.0])) < 1e-8


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


@settings(derandomize=True, max_examples=8, deadline=None)
@given(data=admissible_data(), lam=st.sampled_from([1.0, 0.5, 0.0]))
def test_profile_crease_batch_returns_fresh_bits(data, lam):
    # certify's sets: an interior grid, its stencil neighbours, the ends
    # and the mesh columns, integrated in one pass
    L = data.length
    s = np.linspace(0.001 * L, 0.999 * L, 17)
    h = 1e-4 * max(L, 1.0)
    sets = [s, s + h, s - h, np.array([0.0, L]), np.linspace(0.0, L, 9)]
    crease = ProfileCrease(data, lam=lam)
    passes = []

    def counted(fn, point_sets, *args, **kwargs):
        passes.append(len(point_sets))
        return quadrature.cumulative_integrals(fn, point_sets, *args, **kwargs)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(curves, "cumulative_integrals", counted)
        crease.integrate_travel(sets)
        got = [crease.point(arg) for arg in sets]
    assert passes == [len(sets)]
    for arg, pts in zip(sets, got):
        assert np.array_equal(pts, ProfileCrease(data, lam=lam).point(arg))


@pytest.mark.parametrize("lam", [1.0, 0.5])
def test_profile_crease_guards_and_evaluates_once_per_call(lam, monkeypatch):
    # velocity and acceleration take sigma from the zeta' they hold: one
    # domain guard of their own plus one per zeta evaluation, and the bits
    # of sigma
    crease = ProfileCrease(FundamentalData.demo(), lam=lam)
    s = np.linspace(0.05, 1.95, 13)
    counts = {"guard": 0, "eval": 0}
    guard, evaluate = profiles.domain_guard, ProfileFunction.eval

    def counted_guard(*args):
        counts["guard"] += 1
        return guard(*args)

    def counted_eval(self, *args):
        counts["eval"] += 1
        return evaluate(self, *args)

    for module in (profiles, curves):
        monkeypatch.setattr(module, "domain_guard", counted_guard)
    monkeypatch.setattr(ProfileFunction, "eval", counted_eval)
    calls, per_call = {}, []
    for name in ("sigma", "velocity", "acceleration"):
        counts.update(guard=0, eval=0)
        calls[name] = getattr(crease, name)(s)
        per_call.append((counts["guard"], counts["eval"]))
    assert per_call == [(2, 1), (2, 1), (3, 2)]
    sigma = calls["sigma"]
    assert np.array_equal(calls["velocity"][:, 0], sigma)
    z1, z2 = (evaluate(crease.data.zeta, s, k) for k in (1, 2))
    assert np.array_equal(calls["acceleration"][:, 0],
                          -crease.k * z1 * z2 / sigma)


def test_profile_crease_memo_hands_out_copies():
    crease = ProfileCrease(FundamentalData.demo(), lam=1.0)
    s = np.linspace(0.0, 2.0, 17)
    want = ProfileCrease(FundamentalData.demo(), lam=1.0).point(s)
    crease.point(s)[:] = -1.0
    assert np.array_equal(crease.point(s), want)


def test_domain_guard():
    crease = ProfileCrease(FundamentalData.demo())
    with pytest.raises(DomainError):
        crease.point(-0.5)
    with pytest.raises(DomainError):
        ProfileCrease(FundamentalData.demo(), lam=float("nan"))
