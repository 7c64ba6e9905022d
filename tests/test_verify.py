from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings

from pillowfold import deformation, pillowbox, verify
from pillowfold.curves import ProfileCrease, integrate_travels
from pillowfold.deformation import (DeformationSchedule, DeformedQuarter,
                                    assemble_deformed, deformed_quarter)
from pillowfold.errors import (CollinearSamples, DegenerateMetric,
                               GridTooCoarse, ScheduleViolation)
from pillowfold.mesh import (TriMesh, assemble_reflected,
                             self_intersection_pairs)
from pillowfold.pillowbox import QuarterParametrization, assemble_box
from pillowfold.profiles import FundamentalData
from pillowfold.quadrature import cumulative_integral
from pillowfold.verify import (TOLERANCES, certify, check_crease_planarity,
                               check_flatness, check_isometry, topology_report)

import oracles as oc
from strategies import admissible_data

H_S = 2e-5
H_V = 2e-6


def pillow_grid(n_s=12, n_half=5):
    s = np.linspace(0.1, 1.9, n_s)
    frac = np.linspace(0.1, 0.9, n_half)
    v = oc.demo_zeta(s, 0)[:, None] * frac
    return s, v


def metric_reference(smat, vmat):
    z1 = oc.demo_zeta(smat, 1)
    return np.ones_like(z1), -z1, np.ones_like(z1)


def test_isometry_check_passes_on_pillow():
    q = DeformedQuarter(FundamentalData.demo(), 1.0)
    s, v = pillow_grid()
    rep = check_isometry(q.sampler("upper", 2 * (H_S + H_V)), metric_reference,
                         s, v, H_S, H_V)
    assert rep.passed
    assert rep.worst < 1e-7


def test_isometry_check_fails_on_scaled_surface():
    q = DeformedQuarter(FundamentalData.demo(), 1.0)
    base = q.sampler("upper", 2 * (H_S + H_V))

    def stretched(s, v):
        return 1.1 * base(s, v)

    s, v = pillow_grid()
    rep = check_isometry(stretched, metric_reference, s, v, H_S, H_V)
    assert not rep.passed
    # E picks up the factor 1.1^2: residual about 0.21
    assert abs(rep.worst - 0.21) < 1e-2


def test_isometry_check_report_shape():
    q = DeformedQuarter(FundamentalData.demo(), 0.5)
    s, v = pillow_grid()
    rep = check_isometry(q.sampler("upper", 2 * (H_S + H_V)), metric_reference,
                         s, v, H_S, H_V, label="isometry t=0.5")
    d = rep.to_dict()
    assert set(d) == {"check", "grid", "worst", "at", "threshold", "pass"}
    json.dumps(d)
    assert d["grid"] == "12x5"
    with pytest.raises(GridTooCoarse):
        check_isometry(q.sampler("upper"), metric_reference, s[:2], v[:2],
                       H_S, H_V)


def test_flatness_passes_on_pillow_and_cylinder():
    q = DeformedQuarter(FundamentalData.demo(), 1.0)
    s, v = pillow_grid()
    h = 2e-4
    rep = check_flatness(q.sampler("upper", 4 * h), s, v, h, h)
    assert rep.passed and rep.worst < 1e-6

    def cylinder(sm, vm):
        return np.stack([np.cos(sm), np.sin(sm), vm], axis=-1)

    rep = check_flatness(cylinder, np.linspace(0.0, 2.0, 9),
                         np.linspace(-0.5, 0.5, 7), h, h)
    assert rep.passed


def test_flatness_fails_on_sphere():
    def sphere(sm, vm):
        return np.stack([np.cos(sm) * np.cos(vm), np.sin(sm) * np.cos(vm),
                         np.sin(vm)], axis=-1)

    h = 2e-4
    rep = check_flatness(sphere, np.linspace(0.2, 1.2, 9),
                         np.linspace(0.1, 0.6, 7), h, h)
    assert not rep.passed
    assert abs(rep.worst - 1.0) < 1e-2


def test_flatness_degenerate_metric():
    def collapsed(sm, vm):
        return np.stack([sm, np.zeros_like(sm), np.zeros_like(sm)], axis=-1)

    with pytest.raises(DegenerateMetric):
        check_flatness(collapsed, np.linspace(0.2, 1.2, 5),
                       np.linspace(0.1, 0.6, 5), 1e-4, 1e-4)


def test_crease_planarity_estimates_fold_parameter():
    for lam in (0.25, 0.5, 1.0):
        q = DeformedQuarter(FundamentalData.demo(), lam)
        pts = q.crease.point(np.linspace(0.1, 1.9, 33))
        rep = check_crease_planarity(pts)
        assert abs(rep.lambda_estimate - lam) < 1e-9
        assert rep.max_deviation < 1e-12
        assert rep.n_samples == 33


def test_crease_planarity_flat_state():
    q = DeformedQuarter(FundamentalData.demo(), 0.0)
    rep = check_crease_planarity(q.crease.point(np.linspace(0.1, 1.9, 33)))
    assert abs(rep.lambda_estimate) < 1e-12


def test_crease_planarity_rejects_axis_samples():
    pts = np.stack([np.linspace(0.0, 1.0, 9), np.zeros(9), np.zeros(9)], axis=-1)
    with pytest.raises(CollinearSamples):
        check_crease_planarity(pts)
    with pytest.raises(CollinearSamples):
        check_crease_planarity(pts[:2])


def test_enclosed_volume_cube():
    v, f = oc.unit_cube_mesh()
    topo = topology_report(TriMesh(v, f))
    assert topo.volume_valid and topo.volume == 1.0
    # translation invariance of the divergence-theorem integral
    far = topology_report(TriMesh(v + [17.0, -3.0, 101.0], f))
    assert far.volume_valid and abs(far.volume - 1.0) < 1e-12


def test_enclosed_volume_guards():
    # an open or inconsistently wound mesh encloses no volume: reported
    # invalid, with volume 0
    v, f = oc.unit_cube_mesh()
    flipped = f.copy()
    flipped[0] = flipped[0, ::-1]
    for mesh, closed in ((TriMesh(v, f[:-1]), False),
                         (TriMesh(v, flipped), True)):
        topo = topology_report(mesh, count_intersections=False)
        assert topo.closed == closed
        assert not topo.volume_valid and topo.volume == 0.0


def test_count_self_intersections_crossing_pair():
    verts = np.array([
        [0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0],
        [0.5, 0.5, -1.0], [1.5, 0.5, 1.0], [0.5, 1.5, 1.0],
    ])
    faces = np.array([[0, 1, 2], [3, 4, 5]])
    assert len(self_intersection_pairs(TriMesh(verts, faces))) == 1
    # sharing a vertex excludes the pair
    faces_shared = np.array([[0, 1, 2], [0, 4, 5]])
    assert len(self_intersection_pairs(TriMesh(verts, faces_shared))) == 0


def test_topology_report_cube_and_box():
    v, f = oc.unit_cube_mesh()
    topo = topology_report(TriMesh(v, f))
    assert (topo.vertices, topo.edges, topo.faces) == (8, 18, 12)
    assert topo.euler == 2 and topo.closed
    assert topo.intersections == 0
    assert topo.volume_valid and topo.volume == 1.0
    json.dumps(topo.to_dict())

    box = assemble_box(QuarterParametrization(FundamentalData.demo()), 16,
                       8)
    topo = topology_report(box)
    assert topo.closed and topo.euler == 2 and topo.volume > 0.0


_DRIFT = DeformationSchedule.from_table([0.0, 0.5, 1.0], [1.0, 0.6, 0.0],
                                        [0.2, -0.1, 0.3])


@pytest.mark.parametrize("schedule, meshes", [
    (DeformationSchedule.linear(), 3), (DeformationSchedule.cosine(), 3),
    (_DRIFT, 4)])
def test_certify_builds_each_state_once(monkeypatch, schedule, meshes):
    # one folded quarter for the box, the dichotomy strip and the t = 0
    # state, and one per other state: seven quarters.  A drifting t = 0
    # state is a quarter and a mesh of its own.
    drifts = meshes - 3
    counts = {"quarters": 0, "meshes": 0}
    init = DeformedQuarter.__init__

    def counted_init(self, *args, **kwargs):
        counts["quarters"] += 1
        init(self, *args, **kwargs)

    def counted_assembly(*args, **kwargs):
        counts["meshes"] += 1
        return assemble_reflected(*args, **kwargs)

    data = FundamentalData.demo()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DeformedQuarter, "__init__", counted_init)
        for module in (deformation, pillowbox):
            mp.setattr(module, "assemble_reflected", counted_assembly)
        reports = certify(data, schedule, 8, 4, 1e-3, TOLERANCES)
    assert counts == {"quarters": 7 + drifts, "meshes": meshes}
    assert all(r.passed for r in reports)
    # the t = 0 entry is that of a mesh of its own, reused or not
    topo = topology_report(
        assemble_deformed(deformed_quarter(data, schedule, 0.0), 8, 4))
    entry = next(r for r in reports if r.check == "topology t=0")
    assert entry.to_dict() == {
        "check": "topology t=0", "grid": "8x4",
        "worst": float(topo.boundary_edges),
        "at": [float(topo.intersections), 0.0], "threshold": 0.5,
        "pass": topo.closed and topo.euler == 2 and topo.intersections == 0}


@settings(derandomize=True, max_examples=16, deadline=None)
@given(admissible_data())
@example(FundamentalData.from_descriptor({"b": 24.101564661360722, "zeta": {
    "kind": "poly", "coeffs": [0.0, 0.5665826322127744,
                               -0.04992268597162145, -0.0019293384385479346],
    "length": 8.534366189375195}}))
def test_certify_passes_every_admissible_box(data):
    # the example's depth-formula once read 1.18e-8 > 1e-8: its two sides
    # took the maximum of zeta on two sample grids
    reports = certify(data, DeformationSchedule.linear(), 8, 4, 1e-3,
                      TOLERANCES)
    assert [r.check for r in reports if not r.passed] == []


@settings(derandomize=True, max_examples=16, deadline=None)
@given(admissible_data())
def test_certify_pass_gives_each_crease_the_bits_of_its_own(data):
    # certify integrates the sets of every state's crease in one pass; each
    # memo entry has the bits of that crease's sets integrated alone, and
    # of its sigma's cumulative integral over the set
    for schedule, creases in ((DeformationSchedule.linear(), 7), (_DRIFT, 8)):
        passes = []

        def recorded(crease_sets):
            integrate_travels(crease_sets)
            passes.append({crease: (list(sets), dict(crease._travel))
                           for crease, sets in crease_sets.items()})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "integrate_travels", recorded)
            certify(data, schedule, 8, 4, 1e-3, TOLERANCES)
        assert [len(p) for p in passes] == [creases]
        for crease, (sets, memo) in passes[0].items():
            alone = ProfileCrease(data, crease.lam, crease.mu, crease.alpha)
            alone.integrate_travel(sets)
            assert memo.keys() == alone._travel.keys()
            for key, travel in memo.items():
                assert np.array_equal(travel, alone._travel[key])
                uniq = np.frombuffer(key)
                pts = np.concatenate([[0.0], uniq]) if uniq[0] > 0.0 else uniq
                assert np.array_equal(
                    travel, cumulative_integral(crease.sigma, pts, 1e-12))


@settings(derandomize=True, max_examples=8, deadline=None)
@given(admissible_data())
def test_certify_quarters_keep_read_only_crease_points_of_fresh_bits(data):
    # every crease point set a quarter keeps is shared, hence read-only,
    # and has the bits of a fresh quarter's crease evaluated on that set
    init = DeformedQuarter.__init__
    for schedule in (DeformationSchedule.linear(), _DRIFT):
        quarters = []

        def recorded_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            quarters.append(self)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DeformedQuarter, "__init__", recorded_init)
            certify(data, schedule, 8, 4, 1e-3, TOLERANCES)
        assert any(q._points for q in quarters)
        for q in quarters:
            fresh = DeformedQuarter(data, q.lam, q.mu, q.scale)
            for (shape, key), points in q._points.items():
                assert not points.flags.writeable
                s = np.frombuffer(key).reshape(shape)
                assert np.array_equal(points, fresh.crease.point(s))


@pytest.mark.parametrize("lam, message", [
    ([1.0, 1.0], "fold parameter 1.0 at t = 1 fails ends-flat, "
                 "margin -1.000e+00"),
    ([0.5, 0.0], "fold parameter 0.5 at t = 0 fails starts-folded, "
                 "margin -5.000e-01")])
def test_certify_refuses_a_schedule_that_does_not_fold_and_unfold(lam,
                                                                  message):
    schedule = DeformationSchedule.from_table([0.0, 1.0], lam)
    with pytest.raises(ScheduleViolation) as info:
        certify(FundamentalData.demo(), schedule, 8, 4, 1e-3, TOLERANCES)
    assert str(info.value) == message
