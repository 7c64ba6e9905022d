from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pillowfold import deformation, verify
from pillowfold.curves import ProfileCrease
from pillowfold.deformation import (DeformationSchedule, DeformedQuarter,
                                    admissibility_margin, assemble_deformed,
                                    assemble_pattern_scaled, deformed_quarter,
                                    depth_coefficient, grid_columns,
                                    horizontal_end_depth,
                                    pattern_scaling_family, validate_schedule)
from pillowfold.development import PlanarDevelopment
from pillowfold.errors import (DomainError, GridTooCoarse, IoError,
                               OutOfDomain, ScheduleViolation)
from pillowfold.pillowbox import QuarterParametrization, assemble_box
from pillowfold.profiles import (FundamentalData, ProfileFunction,
                                 validate_fundamental_data)
from pillowfold.verify import family_members, sweep_trace, topology_report

import oracles as oc
from strategies import admissible_data


def test_schedule_linear_and_cosine():
    lin = DeformationSchedule.linear()
    assert lin.lam(0.0) == 1.0 and lin.lam(1.0) == 0.0
    assert lin.mu(0.5) == 0.0
    ts = np.linspace(0.0, 1.0, 5)
    assert np.max(np.abs(lin.lam(ts) - (1.0 - ts))) == 0.0
    cos = DeformationSchedule.cosine()
    assert abs(cos.lam(0.0) - 1.0) < 1e-15
    assert abs(cos.lam(1.0)) < 1e-15
    for t in (1.5, np.nan):
        with pytest.raises(DomainError, match=r"t must lie in \[0, 1\]"):
            lin.lam(t)


def test_schedule_table_and_descriptors():
    tab = DeformationSchedule.from_descriptor(
        {"kind": "table", "t": [0.0, 0.5, 1.0], "lam": [1.0, 0.4, 0.0]})
    assert abs(tab.lam(0.25) - 0.7) < 1e-15
    assert tab.mu(0.25) == 0.0
    assert DeformationSchedule.from_descriptor(
        {"kind": "linear"}).lam(0.3) == 0.7
    # "kind" is required: without it no schedule is guessed
    for desc in ({"kind": "spiral"}, {}, {"lambda": "cos"}):
        with pytest.raises(IoError):
            DeformationSchedule.from_descriptor(desc)
    with pytest.raises(DomainError):
        DeformationSchedule.from_table([0.0, 0.0, 1.0], [1.0, 0.5, 0.0])
    # a table needs t and lam, one lam (and mu) per t, and at least 2 knots
    for desc in ({"kind": "table", "t": [0, 1]},
                 {"kind": "table", "lam": [1, 0]}):
        with pytest.raises(IoError):
            DeformationSchedule.from_descriptor(desc)
    for desc in ({"kind": "table", "t": [0, 0.5, 1], "lam": [1, 0]},
                 {"kind": "table", "t": [0, 1], "lam": [1, 0], "mu": [0]},
                 {"kind": "table", "t": [0], "lam": [1]},
                 {"kind": "table", "t": 0.5, "lam": 1},
                 {"kind": "table", "t": [0, "x"], "lam": [1, 0]},
                 # non-finite values: NaN passes the increasing-t test
                 {"kind": "table", "t": [0, 0.5, 1], "lam": [1, np.inf, 0]},
                 {"kind": "table", "t": [0, np.nan, 1], "lam": [1, 0.5, 0]},
                 {"kind": "table", "t": [0, 0.5, np.inf], "lam": [1, 0.5, 0]},
                 {"kind": "table", "t": [0, 1], "lam": [1, 0],
                  "mu": [0, -np.inf]}):
        with pytest.raises(DomainError):
            DeformationSchedule.from_descriptor(desc)


def test_validate_schedule_demo():
    data = FundamentalData.demo()
    report = validate_schedule(data, DeformationSchedule.linear())
    assert report.valid
    assert {e["name"] for e in report.entries} == {
        "starts-folded", "ends-flat", "fold-margin"}


# lam spikes to 1.5 at the knot t = 0.01 only
SPIKE_SCHEDULE = {"kind": "table", "t": [0.0, 0.01, 0.02, 1.0],
                  "lam": [1.0, 1.5, 1.0, 0.0]}


def test_validate_schedule_rejections():
    data = FundamentalData.demo()
    # never unfolds
    stuck = DeformationSchedule.from_table([0.0, 1.0], [1.0, 1.0])
    rep = validate_schedule(data, stuck)
    assert not rep.valid
    assert not next(e for e in rep.entries if e["name"] == "ends-flat")["passed"]
    # overfolds: sigma^2 goes negative at t = 0
    wild = DeformationSchedule.from_table([0.0, 1.0], [3.0, 0.0])
    rep = validate_schedule(data, wild)
    assert not rep.valid
    worst = min(e["margin"] for e in rep.entries if e["name"] == "fold-margin")
    assert worst < 0.0
    # overfolds at one knot inside (0, 1)
    rep = validate_schedule(data,
                            DeformationSchedule.from_descriptor(SPIKE_SCHEDULE))
    failed = [e for e in rep.entries if not e["passed"]]
    assert [(e["name"], e["t"], e["lam"]) for e in failed] == [
        ("fold-margin", 0.01, 1.5)]
    assert failed[0]["margin"] == admissibility_margin(data, 1.5)


@settings(derandomize=True, max_examples=16, deadline=None)
@given(admissible_data(), st.sampled_from(["linear", "spike"]))
def test_admissibility_is_one_fold_margin(data, name):
    # validate's slope-margin, each knot's fold-margin and the quarter gate
    # at the same lam are one value to the bit, and the schedule reads no
    # zeta': the profile holds the steepest slope validate sampled
    schedule = (DeformationSchedule.from_descriptor(SPIKE_SCHEDULE)
                if name == "spike" else DeformationSchedule.linear())
    slope = next(e for e in validate_fundamental_data(data.b, data.zeta).entries
                 if e["name"] == "slope-margin")
    assert slope["margin"] == admissibility_margin(data, 1.0)
    evaluate, orders = data.zeta.eval, []

    def counted(s, order=0):
        orders.append(order)
        return evaluate(s, order)

    data.zeta.eval = counted
    report = validate_schedule(data, schedule)
    del data.zeta.eval
    assert orders == []
    folds = [e for e in report.entries if e["name"] == "fold-margin"]
    assert [e["t"] for e in folds] == list(schedule.knots)
    assert folds[0]["margin"] == slope["margin"]
    gate = []

    def spied(*args):
        gate.append(admissibility_margin(*args))
        return gate[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deformation, "admissibility_margin", spied)
        for e in folds:
            try:
                DeformedQuarter(data, e["lam"])
            except ScheduleViolation:
                assert not e["passed"]
    assert gate == [e["margin"] for e in folds]
    assert np.array_equal(
        admissibility_margin(data, [e["lam"] for e in folds]), gate)


@settings(derandomize=True, max_examples=16, deadline=None)
@given(admissible_data())
def test_fold_margin_is_the_least_sample_to_the_bit(data):
    # 1 - (1 + lam^2) max zeta'^2 is min(1 - (1 + lam^2) zeta'^2) over the
    # gate's 511 open-grid samples: rounding is monotone
    z1 = np.asarray(data.zeta.eval(data.length * np.arange(1, 512) / 512, 1))
    for lam in (0.0, 0.5, 1.0, 1.5):
        least = np.min(1.0 - (1.0 + lam * lam) * z1 ** 2)
        assert admissibility_margin(data, lam) == least


def test_demo_gate_message_at_lam_one_and_a_half():
    with pytest.raises(ScheduleViolation) as info:
        DeformedQuarter(FundamentalData.demo(), 1.5)
    assert str(info.value) == ("fold parameter 1.5 makes sigma^2 reach "
                               "-6.186e-01 <= 0")


def test_schedule_knots():
    assert DeformationSchedule.linear().knots == (0.0, 1.0)
    assert DeformationSchedule.cosine().knots == (0.0, 1.0)
    # t values outside (0, 1) hold lam constant there: only 0 and 1 count
    table = DeformationSchedule.from_table([-0.5, 0.25, 1.0, 2.0],
                                           [1.0, 1.2, 0.0, 0.0])
    assert table.knots == (0.0, 0.25, 1.0)
    spike = DeformationSchedule.from_descriptor(SPIKE_SCHEDULE)
    assert spike.knots == (0.0, 0.01, 0.02, 1.0)


def test_admissibility_margin_values():
    data = FundamentalData.demo()
    # max zeta'^2 approaches 1/2 at the ends: margin ~ (1 - lam^2)/2
    assert admissibility_margin(data, 1.0) > 0.0
    assert admissibility_margin(data, 1.0) < 0.01
    assert abs(admissibility_margin(data, 0.0) - 0.5) < 5e-3
    assert admissibility_margin(data, 3.0) < 0.0


def test_deformed_quarter_guards():
    data = FundamentalData.demo()
    with pytest.raises(ScheduleViolation):
        DeformedQuarter(data, 3.0)
    with pytest.raises(DomainError):
        DeformedQuarter(data, float("nan"))


def test_deformed_quarter_structure():
    data = FundamentalData.demo()
    q = DeformedQuarter(data, 0.5)
    assert abs(depth_coefficient(q.lam) + 0.3) < 1e-15
    s = np.linspace(0.0, 2.0, 41)
    z0 = oc.demo_zeta(s, 0)
    # crease keeps its height profile and stays in the plane z = lam y
    c = q.crease.point(s)
    assert np.max(np.abs(c[:, 1] - z0)) < 1e-12
    assert np.max(np.abs(c[:, 2] - 0.5 * c[:, 1])) < 1e-12
    # vertical end pinned to y = b, horizontal end reaching the depth formula
    assert np.max(np.abs(oc.vertical_end(q, s)[:, 1] - data.b)) < 1e-12
    horiz = oc.horizontal_end(q, s)
    assert abs(float(np.min(horiz[:, 2])) - oc.DEPTH_HALF) < 1e-9
    # rulings are unit vectors
    assert abs(np.linalg.norm(q.xi_upper) - 1.0) < 1e-15
    assert abs(np.linalg.norm(q.xi_lower) - 1.0) < 1e-15


def _check_v_domain(quarter_map, s, top, b, tol, slack=0.0):
    """quarter_map takes v up to slack + 0.5 tol past either end of
    [top - b, top] and raises OutOfDomain at slack + 2 tol past, at any one
    abscissa."""
    for bound, out in ((top, 1.0), (top - b, -1.0)):
        quarter_map(s, bound + out * (slack + 0.5 * tol))
        for j in (0, s.size // 2):
            v = bound.copy()
            v[j] += out * (slack + 2.0 * tol)
            with pytest.raises(OutOfDomain):
                quarter_map(s, v)


@pytest.mark.parametrize("c", [1.0, 0.5])
def test_quarter_v_domain_threshold(c):
    # v lies in [c zeta - b, c zeta] up to tol = 1e-9 max(L, b); a stencil
    # sampler adds its slack
    data = FundamentalData.demo()
    tol = 1e-9 * max(data.length, data.b)
    s = np.linspace(0.0, data.length, 9)
    top = c * data.zeta.eval(s, 0)
    quarter = DeformedQuarter(data, 1.0, scale=c)
    _check_v_domain(quarter.X, s, top, data.b, tol)
    for side in ("upper", "lower"):
        _check_v_domain(quarter.sampler(side, 1e-3), s, top, data.b, tol,
                        slack=1e-3)
    if c == 1.0:
        _check_v_domain(PlanarDevelopment(data).Y, s, top, data.b, tol)


def test_grid_columns_spacing_and_floor():
    assert np.array_equal(grid_columns(2.0, 4), np.linspace(0.0, 2.0, 5))
    for n_s in (1, 0, -3):
        with pytest.raises(GridTooCoarse):
            grid_columns(2.0, n_s)


def test_deformation_endpoints_reproduce_box_and_development():
    data = FundamentalData.demo()
    schedule = DeformationSchedule.linear()
    s = np.linspace(0.05, 1.95, 21)
    v = 0.3 * oc.demo_zeta(s, 0) - 0.2
    start = deformed_quarter(data, schedule, 0.0)
    assert np.max(np.abs(start.X(s, v)
                         - QuarterParametrization(data).X(s, v))) < 1e-10
    end = deformed_quarter(data, schedule, 1.0)
    assert np.max(np.abs(end.X(s, v)
                         - PlanarDevelopment(data).Y(s, v))) < 1e-10


def test_horizontal_end_depth_formula():
    data = FundamentalData.demo()
    assert horizontal_end_depth(data, 0.0) == 0.0
    assert abs(horizontal_end_depth(data, 1.0)) < 1e-12
    assert abs(horizontal_end_depth(data, 0.5) - oc.DEPTH_HALF) < 1e-9
    # deepest obstruction near lam = 0.5, shallow near the ends
    assert horizontal_end_depth(data, 0.5) < horizontal_end_depth(data, 0.05)
    assert horizontal_end_depth(data, 0.5) < horizontal_end_depth(data, 0.95)
    with pytest.raises(DomainError):
        horizontal_end_depth(data, 1.5)


def test_obstruction_witness_depth_band():
    # strictly below -1e-3 through the middle of the deformation
    data = FundamentalData.demo()
    schedule = DeformationSchedule.linear()
    for t in np.linspace(0.1, 0.9, 9):
        assert horizontal_end_depth(data, schedule.lam(float(t))) < -1e-3


def test_assembled_deformation_topology():
    data = FundamentalData.demo()
    schedule = DeformationSchedule.linear()
    closed = assemble_deformed(deformed_quarter(data, schedule, 0.0), 16, 8)
    assert closed.is_closed()
    mid = assemble_deformed(deformed_quarter(data, schedule, 0.5), 16, 8)
    assert not mid.is_closed()
    assert mid.weld_report["horizontal_end"] == "open"
    assert mid.boundary_edge_count() > 0
    assert not topology_report(mid, count_intersections=False).volume_valid
    flat = topology_report(
        assemble_deformed(deformed_quarter(data, schedule, 1.0), 16, 8),
        count_intersections=False)
    assert flat.closed and flat.volume_valid
    assert abs(flat.volume) < 1e-14


def test_horizontal_end_weld_threshold():
    # the horizontal end and its rho_H image lie 2 |coeff(lam)| zeta(s) apart,
    # so the end welds exactly while 2 |coeff| max_grid zeta <= the weld
    # tolerance: for t up to ~3e-6 and from ~1 - 3e-6 on, at 48x24
    data = FundamentalData.demo()
    schedule = DeformationSchedule.linear()
    zeta_max = float(np.max(data.zeta.eval(np.linspace(0.0, 2.0, 49), 0)))

    def weld(t):
        report = assemble_deformed(deformed_quarter(data, schedule, t),
                                   48, 24).weld_report
        want = 2.0 * abs(depth_coefficient(schedule.lam(t))) * zeta_max
        # near lam = 1 the end's z is the difference of two terms ~zeta that
        # cancel to ~t zeta, so it keeps about 1e-16 / t of relative accuracy
        assert abs(report["worst_gap"]["horizontal_end"] / want - 1.0) < 1e-9
        assert report["worst_gap"]["vertical_end"] <= report["tol"]
        assert report["worst_gap"]["endpoint_columns"] <= report["tol"]
        return report

    for t in (0.37, 0.5, 1e-3):
        assert weld(t)["horizontal_end"] == "open"
    for t_near, welded_side in ((3e-6, -1.0), (1.0 - 1e-6, 1.0)):
        tol = weld(t_near)["tol"]
        # |coeff(lam)| = tol / (2 zeta_max): lam^3 + c lam^2 - lam + c = 0
        c = tol / (2.0 * zeta_max)
        lams = np.roots([1.0, c, -1.0, c]).real
        t_cross = 1.0 - lams[np.argmin(np.abs(lams - schedule.lam(t_near)))]
        # the tolerance moves with the bounding box by ~1e-7 over this range
        for side in (-1.0, 1.0):
            t = t_cross + side * 1e-3 * min(t_cross, 1.0 - t_cross)
            report = weld(t)
            assert abs(report["tol"] / tol - 1.0) < 1e-6
            assert report["horizontal_end"] == (
                "welded" if side == welded_side else "open")


def test_pattern_scaling_family_members():
    data = FundamentalData.demo()
    base_width = data.half_width()
    member = pattern_scaling_family(data, 0.5)
    assert abs(member.max_height() - 0.5 * oc.ZETA_MAX) < 1e-9
    assert abs(member.half_width() - base_width) < 1e-9
    start = pattern_scaling_family(data, 0.0)
    s = np.linspace(0.0, 2.0, 17)
    assert np.max(np.abs(np.asarray(start.zeta.eval(s, 0))
                         - oc.demo_zeta(s, 0))) < 1e-9
    with pytest.raises(DomainError):
        pattern_scaling_family(data, 1.0)


def test_pattern_scaling_volumes_decrease_continuously():
    data = FundamentalData.demo()
    ts = np.linspace(0.0, 0.95, 11)
    vols = []
    for t in ts:
        member = pattern_scaling_family(data, float(t))
        topo = topology_report(
            assemble_box(QuarterParametrization(member), 16, 8),
            count_intersections=False)
        assert topo.volume_valid
        vols.append(topo.volume)
    vols = np.asarray(vols)
    assert np.all(np.diff(vols) < 0.0)
    # successive differences stay within 3x the neighbouring local slope:
    # no jumps, the trace is a discretely continuous curve heading to 0
    gaps = np.abs(np.diff(vols))
    for k in range(1, len(gaps)):
        assert gaps[k] < 3.0 * gaps[k - 1] + 1e-12
        assert gaps[k - 1] < 3.0 * gaps[k] + 1e-12
    assert vols[-1] < 0.15 * vols[0]


@settings(derandomize=True, max_examples=8, deadline=None)
@given(admissible_data(), st.floats(0.0, 0.95))
def test_pattern_scaling_matches_nested_maps(data, t):
    member = pattern_scaling_family(data, t)
    nested = oc.nested_pattern_scaling(data, t)
    assert abs(member.length - nested.length) < 1e-12
    s = np.linspace(0.0, member.length, 33)
    for order in (0, 1, 2):
        assert np.max(np.abs(member.zeta.eval(s, order)
                             - nested.zeta.eval(s, order))) < 1e-12
    assert abs(member.half_width() - data.half_width()) < 1e-12


@pytest.mark.parametrize("data", [
    FundamentalData.demo(),
    FundamentalData(0.8, ProfileFunction.hyperbolic(2.5, 1.6)),
    FundamentalData(0.5, ProfileFunction.circular(1.0, 1.2)),
    FundamentalData(1.0, ProfileFunction.polynomial([0.0, 0.6, -0.3], 2.0)),
    FundamentalData(1.0, ProfileFunction.tabulated(
        [0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 0.2, 0.27, 0.2, 0.0])),
], ids=["demo", "hyperbolic", "circular", "poly", "table"])
def test_pattern_scaling_at_zero_is_the_base(data):
    member = pattern_scaling_family(data, 0.0)
    s = np.linspace(0.0, data.length, 33)
    for order in (0, 1, 2):
        assert np.max(np.abs(member.zeta.eval(s, order)
                             - data.zeta.eval(s, order))) < 1e-14


@settings(derandomize=True, max_examples=8, deadline=None)
@given(admissible_data(), st.floats(0.0, 0.95))
def test_member_box_matches_the_nested_reference(data, t):
    # the member's box sampled over the base arc length against the generic
    # assembly through the member's own (nested-map) profile
    member, box, _ = assemble_pattern_scaled(data, t, 24, 12)
    ref = assemble_box(QuarterParametrization(member), 24, 12)
    assert np.array_equal(box.faces, ref.faces)
    assert np.array_equal(box.face_labels, ref.face_labels)
    for name in ("vertical_end", "endpoint_columns", "horizontal_end"):
        assert box.weld_report[name] == ref.weld_report[name] == "welded"
    assert np.max(np.abs(box.vertices - ref.vertices)) <= 1e-12 * ref.diagonal()
    # the identity behind it: the member's crease at s_t(u) is the base's
    # crease at fold parameter c with y scaled by c, to the quadrature's 1e-12
    c = 1.0 - t
    u = np.linspace(0.0, data.length, 33)
    got = ProfileCrease(member, lam=1.0).point(member.zeta.travel.forward(u))
    want = ProfileCrease(data, lam=c).point(u)
    want[:, 1] *= c
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("data", [
    FundamentalData.demo(),
    FundamentalData(0.6, ProfileFunction.circular(2.0, 2.0)),
    FundamentalData(0.761, ProfileFunction.hyperbolic(2.402, 1.411)),
], ids=["demo", "circular", "hyperbolic"])
@pytest.mark.parametrize("t", [0.3, 0.5, 0.95])
def test_member_crease_matches_the_closed_form(data, t):
    # measured at most 2.7e-15 on these boxes
    member = pattern_scaling_family(data, t)
    u = np.linspace(0.0, data.length, 17)
    got = ProfileCrease(member, lam=1.0).point(member.zeta.travel.forward(u))
    quarter = DeformedQuarter(data, 1.0, scale=1.0 - t)
    want = oc.pattern_member_crease(data, t, u)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(quarter.crease.point(u) - want)) < 1e-12


@settings(derandomize=True, max_examples=8, deadline=None)
@given(admissible_data(), st.floats(0.0, 0.95))
def test_member_gate_is_the_base_margin_at_c(data, t):
    # 1 - 2 zeta_t'^2 = (1 - (1 + c^2) zeta'^2) / m^2 at s = s_t(u)
    member = pattern_scaling_family(data, t)
    c = 1.0 - t
    u = data.length * np.arange(1, 512) / 512
    z1 = np.asarray(data.zeta.eval(u, 1))
    m2 = 1.0 - (1.0 - c * c) * z1 ** 2
    zt1 = np.asarray(member.zeta.eval(member.zeta.travel.forward(u), 1))
    assert np.max(np.abs((1.0 - 2.0 * zt1 ** 2)
                         - (1.0 - (1.0 + c * c) * z1 ** 2) / m2)) < 1e-14


@pytest.mark.parametrize("t", [0.0, 0.1, 0.4, 0.6])
def test_member_gate_accepts_and_rejects_as_before(t):
    # end slopes 0.8 > 1/sqrt2: sigma_c^2 = 1 - (1 + c^2) 0.64 at the ends
    # is negative for c > 0.75, positive below
    steep = FundamentalData(1.0, ProfileFunction.polynomial([0.0, 0.8, -0.4], 2.0))
    member = pattern_scaling_family(steep, t)
    admitted = admissibility_margin(steep, 1.0 - t) > 0.0
    assert admitted == (admissibility_margin(member, 1.0) > 0.0) == (t > 0.25)
    if admitted:
        assert np.array_equal(
            assemble_pattern_scaled(steep, t, 16, 8)[1].faces,
            assemble_box(QuarterParametrization(member), 16, 8).faces)
        return
    with pytest.raises(ScheduleViolation):
        assemble_pattern_scaled(steep, t, 16, 8)
    with pytest.raises(ScheduleViolation):
        assemble_box(QuarterParametrization(member), 16, 8)


def test_demo_family_rows_are_pinned():
    rows = [row for row, _, passed in family_members(
        FundamentalData.demo(), oc.FAMILY_T, 48, 24) if passed]
    assert len(rows) == len(oc.FAMILY_T)
    for row, want in zip(rows, oc.FAMILY_VOLUMES_48x24):
        assert abs(row["volume"] / want - 1.0) <= 1e-12


@pytest.mark.parametrize("name, data", [
    ("demo", FundamentalData.demo()),
    ("table", FundamentalData(0.5, ProfileFunction.tabulated(
        [0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 0.2, 0.27, 0.2, 0.0]))),
])
def test_family_rows_need_no_intersection_test(monkeypatch, name, data):
    def refuse(mesh):
        raise AssertionError("family_members ran the intersection test")
    monkeypatch.setattr(verify, "self_intersection_pairs", refuse)
    width = 2.0 * data.half_width()
    got = list(family_members(data, oc.FAMILY_ROWS_T, 24, 12))
    assert len(got) == len(oc.FAMILY_ROWS_T)
    for (row, _, passed), t, (volume, nested, gap) in zip(
            got, oc.FAMILY_ROWS_T, oc.FAMILY_ROWS_24x12[name]):
        gaps = {key: row.pop(key) for key in ("inverse_gap", "table_gap")}
        assert (row, passed) == ({"t": t, "closed": True, "euler": 2,
                                  "volume": volume, "width": width}, True)
        assert max(gaps.values()) <= 1e-9
        # the member's own nested-map width, which the row does not read
        member_width = 2.0 * pattern_scaling_family(data, t).half_width()
        assert member_width == nested
        assert abs(member_width - width) == gap


# an admissible table box on which a member's nested-map width was wrong
PINNED_TABLE_BOX = {"b": 0.4771704637444383, "zeta": {"kind": "table", "s": [
    0.0, 0.22232451341955045, 0.4446490268391009, 0.6669735402586514,
    0.8892980536782018, 1.1116225670977522, 1.3339470805173028,
    1.5562715939368532, 1.7785961073564036], "values": [
    0.0, 0.09525088480202629, 0.16874542303381504, 0.2121103682936304,
    0.2326034968067694, 0.22247959460731728, 0.18081589059912598,
    0.10794453292695617, 0.0]}}


def test_family_width_is_the_developed_width():
    # the member's nested-map width at t = 0.836951 was 2.3e-8 short on this
    # table box: its adaptive Simpson accepted a panel straddling the image
    # of a knot; every member develops onto the base's double rectangle
    data = FundamentalData.from_descriptor(PINNED_TABLE_BOX)
    width = PlanarDevelopment(data).width
    for row, _, passed in family_members(data, (0.0, 0.4042, 0.836951),
                                         24, 12):
        assert passed
        assert abs(row["width"] - width) <= 1e-12
        assert max(row["inverse_gap"], row["table_gap"]) <= 1e-9


def test_sweep_trace_rows():
    data = FundamentalData.demo()
    schedule = DeformationSchedule.linear()
    ts = np.linspace(0.0, 1.0, 5)
    rows = sweep_trace(data, schedule, ts, 12, 6)
    assert len(rows) == 5
    assert [r["t"] for r in rows] == sorted(r["t"] for r in rows)
    for row in rows:
        assert set(row) >= {"t", "lam", "mu", "depth", "closed",
                            "boundary_edges", "euler", "volume", "volume_valid"}
        interior = 0.0 < row["t"] < 1.0
        assert row["closed"] == (not interior)
        assert row["volume_valid"] == (not interior)
        want_depth = horizontal_end_depth(data, row["lam"])
        assert abs(row["depth"] - want_depth) < 1e-12
    closed = assemble_deformed(deformed_quarter(data, schedule, 0.0), 12, 6)
    assert abs(rows[0]["volume"] - closed.signed_volume()) < 1e-12
    assert abs(rows[-1]["volume"]) < 1e-14
