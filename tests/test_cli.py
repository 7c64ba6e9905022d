from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from pillowfold import curves, profiles, quadrature
from pillowfold.cli import main
from pillowfold.deformation import DeformationSchedule
from pillowfold.profiles import FundamentalData
from pillowfold.verify import TOLERANCES, certify

import oracles as oc
from strategies import admissible_data

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "docs" / "golden"

# end slope 0.7075 > 1/sqrt2: the folded crease cannot be travelled
STEEP_ARCH = {"b": 1.0, "zeta": {"kind": "hyperbolic", "length": 2.0,
                                 "width": 0.99889}}


# a drifting table schedule, whose t = 0 state (lam, mu) = (1, 0.2) is not
# the box, so certify meshes it
DRIFT_SCHEDULE = {"kind": "table", "t": [0.0, 0.5, 1.0],
                  "lam": [1.0, 0.6, 0.0], "mu": [0.2, -0.1, 0.3]}


# lam spikes to 1.5 at the knot t = 0.01 only
SPIKE_SCHEDULE = {"kind": "table", "t": [0, 0.01, 0.02, 1],
                  "lam": [1, 1.5, 1, 0]}


def hidden_bump() -> dict:
    """0.27 sin(pi s / 2) on 801 knots over [0, 2], the knot at s = 1.51
    raised by 1e-3: its spline's slope passes 1/sqrt2 between two of the
    99 shape-condition samples."""
    s = np.linspace(0.0, 2.0, 801)
    values = 0.27 * np.sin(0.5 * np.pi * s)
    values[604] += 1e-3
    return {"b": 1.0, "zeta": {"kind": "table", "s": s.tolist(),
                               "values": values.tolist()}}


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return rc, payload, captured.err


def test_validate_demo(capsys):
    rc, payload, _ = run_cli(capsys, "validate")
    assert rc == 0
    assert payload["valid"]


def test_validate_from_input_file(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(
        {"b": 1.0, "zeta": {"kind": "hyperbolic", "length": 2.0, "width": 1.0}}))
    rc, payload, _ = run_cli(capsys, "validate", "--input", str(good))
    assert rc == 0 and payload["valid"]

    shallow = tmp_path / "shallow.json"
    shallow.write_text(json.dumps(
        {"b": 0.3, "zeta": {"kind": "hyperbolic", "length": 2.0, "width": 1.0}}))
    rc, payload, _ = run_cli(capsys, "validate", "--input", str(shallow))
    assert rc == 1 and not payload["valid"]

    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps(STEEP_ARCH))
    rc, payload, _ = run_cli(capsys, "validate", "--input", str(steep))
    assert rc == 1 and not payload["valid"]
    failed = [e["name"] for e in payload["entries"] if not e["passed"]]
    assert failed == ["endpoint-slope"]


@pytest.mark.parametrize("argv", [
    ["build"], ["develop"], ["deform", "--t", "0.5"],
    ["family", "--pattern-scaling"], ["verify", "--all"],
], ids=["build", "develop", "deform", "family", "verify"])
def test_rejected_input_exits_2_naming_the_entry(argv, capsys, tmp_path):
    # every subcommand but validate refuses data that validate rejects
    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps(STEEP_ARCH))
    rc, payload, err = run_cli(capsys, *argv, "--input", str(steep),
                               "--grid", "8x4")
    assert rc == 2 and payload is None
    err = json.loads(err)
    assert err["error"] == "DomainError"
    assert err["message"].startswith(
        "invalid fundamental data: endpoint-slope fails, margin -0.000392")


def test_missing_input_file_exits_2(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "validate", "--input",
                         str(tmp_path / "nope.json"))
    assert rc == 2
    assert json.loads(err)["error"] == "IoError"


# fundamental data that does not parse: a missing key is an IoError, a value
# that is not a finite number (or list of them) a DomainError; exit 1 would
# mean a failed check
MALFORMED_DATA = {
    "circular-without-radius": (
        {"b": 1.0, "zeta": {"kind": "circular", "length": 2.0}}, "IoError"),
    "table-with-nan": (
        {"b": 1.0, "zeta": {"kind": "table", "s": [0.0, 0.5, 1.0, 1.5, 2.0],
                            "values": [0.0, 0.2, float("nan"), 0.2, 0.0]}},
        "DomainError"),
    "b-a-word": ({"b": "x", "zeta": {"kind": "hyperbolic"}}, "DomainError"),
    "poly-coeff-a-word": (
        {"b": 1.0, "zeta": {"kind": "poly", "coeffs": ["a"], "length": 2.0}},
        "DomainError"),
    "hyperbolic-length-a-string": (
        {"b": 1.0, "zeta": {"kind": "hyperbolic", "length": "2"}},
        "DomainError"),
    "poly-coeffs-a-number": (
        {"b": 1.0, "zeta": {"kind": "poly", "coeffs": 3.0, "length": 2.0}},
        "DomainError"),
    "poly-coeffs-empty": (
        {"b": 1.0, "zeta": {"kind": "poly", "coeffs": [], "length": 2.0}},
        "DomainError"),
    "zeta-a-number": ({"b": 1.0, "zeta": 3}, "IoError"),
    "data-a-number": (3, "IoError"),
}


@pytest.mark.parametrize("name", MALFORMED_DATA)
def test_malformed_fundamental_data_exits_2(name, capsys, tmp_path):
    document, error = MALFORMED_DATA[name]
    path = tmp_path / "data.json"
    # json writes a NaN as the NaN literal that Python's reader accepts
    path.write_text(json.dumps(document))
    rc, payload, err = run_cli(capsys, "validate", "--input", str(path))
    assert rc == 2 and payload is None
    assert json.loads(err)["error"] == error


def test_build_writes_closed_box(capsys, tmp_path):
    out = tmp_path / "out"
    rc, payload, _ = run_cli(capsys, "build", "--grid", "24x12",
                             "--out", str(out))
    assert rc == 0
    assert payload["topology"]["closed"]
    assert payload["topology"]["euler"] == 2
    assert payload["topology"]["volume"] > 0.0
    box = oc.load_obj(out / "box.obj")
    assert box.is_closed()


def test_build_is_deterministic(capsys, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "build", "--grid", "16x8", "--out", str(out1))
    run_cli(capsys, "build", "--grid", "16x8", "--out", str(out2))
    assert (out1 / "box.obj").read_bytes() == (out2 / "box.obj").read_bytes()


def test_develop_outputs(capsys, tmp_path):
    out = tmp_path / "dev"
    rc, payload, _ = run_cli(capsys, "develop", "--out", str(out))
    assert rc == 0
    assert abs(payload["width"] - oc.TWO_A) < 1e-9
    assert payload["height"] == 2.0
    assert all(c["pass"] for c in payload["checks"])
    assert (out / "pattern.svg").exists()
    rect = oc.load_obj(out / "double_rectangle.obj")
    assert rect.is_closed() and rect.euler_characteristic() == 2
    # the double rectangle is the flat state's mesh, byte for byte
    run_cli(capsys, "deform", "--t", "1", "--out", str(out))
    assert (out / "double_rectangle.obj").read_bytes() \
        == (out / "deformed_t1.obj").read_bytes()
    # below 2x2 develop refuses the grid, as every other subcommand does
    for grid in ("1x1", "0x0", "8x-4", "-3x4"):
        coarse = tmp_path / f"coarse{grid}"
        rc, payload, err = run_cli(capsys, "develop", f"--grid={grid}",
                                   "--out", str(coarse))
        assert rc == 2 and payload is None, grid
        assert json.loads(err)["error"] == "GridTooCoarse"
        assert not coarse.exists()


def test_deform_single_state(capsys, tmp_path):
    out = tmp_path / "mid"
    rc, payload, _ = run_cli(capsys, "deform", "--t", "0.5", "--grid", "16x8",
                             "--out", str(out))
    assert rc == 0
    assert payload["lam"] == 0.5
    assert abs(payload["depth"] - oc.DEPTH_HALF) < 1e-9
    assert not payload["topology"]["closed"]
    assert payload["topology"]["intersections"] > 0
    weld = payload["weld"]
    assert weld["horizontal_end"] == "open"
    # the end and its mirror image are 2 |depth| apart; the rest closes
    assert abs(weld["worst_gap"]["horizontal_end"]
               - 2.0 * abs(oc.DEPTH_HALF)) < 1e-9
    assert weld["worst_gap"]["vertical_end"] <= weld["tol"]
    assert weld["worst_gap"]["endpoint_columns"] <= weld["tol"]
    assert (out / "deformed_t0p5.obj").exists()


def test_deform_sweep_trace(capsys, tmp_path):
    out = tmp_path / "sweep"
    rc, payload, _ = run_cli(capsys, "deform", "--sweep", "5", "--grid", "12x6",
                             "--out", str(out))
    assert rc == 0
    with open(out / "trace.json", "r", encoding="ascii") as fh:
        rows = json.load(fh)
    assert [r["t"] for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert rows == payload["trace"]
    closed_flags = [r["closed"] for r in rows]
    assert closed_flags == [True, False, False, False, True]


def test_deform_sweep_rows_are_the_single_state_topology(capsys):
    # a sweep row is the topology summary deform --t reports for its state
    rc, payload, _ = run_cli(capsys, "deform", "--sweep", "5", "--grid", "12x6")
    assert rc == 0
    fields = ("closed", "boundary_edges", "euler", "volume", "volume_valid")
    for row in payload["trace"]:
        rc, state, _ = run_cli(capsys, "deform", "--t", repr(row["t"]),
                               "--grid", "12x6")
        assert rc == 0
        want = {k: state[k] for k in ("t", "lam", "mu", "depth")}
        want.update({k: state["topology"][k] for k in fields})
        assert row == want


def test_deform_flag_validation():
    with pytest.raises(SystemExit):
        main(["deform"])
    with pytest.raises(SystemExit):
        main(["deform", "--t", "0.5", "--sweep", "3"])
    with pytest.raises(SystemExit):
        main(["deform", "--sweep", "1"])


def test_deform_out_of_range_t_exits_2(capsys):
    for t in ("1.5", "-0.5", "nan"):
        rc, _, err = run_cli(capsys, "deform", "--t", t, "--grid", "8x4")
        assert rc == 2
        assert json.loads(err) == {"error": "DomainError",
                                   "message": "t must lie in [0, 1]"}, t


def test_deform_custom_schedule_file(capsys, tmp_path):
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"kind": "cosine"}))
    rc, payload, _ = run_cli(capsys, "deform", "--t", "0.5", "--grid", "12x6",
                             "--schedule", str(sched))
    assert rc == 0
    assert abs(payload["lam"] - np.cos(np.pi / 4.0)) < 1e-12
    sched.write_text(json.dumps({"lambda": "cos"}))
    rc, _, err = run_cli(capsys, "deform", "--t", "0.5", "--grid", "12x6",
                         "--schedule", str(sched))
    assert rc == 2
    assert json.loads(err)["error"] == "IoError"


def test_deform_malformed_table_schedule_exits_2(capsys, tmp_path):
    sched = tmp_path / "sched.json"
    for desc, error in (({"kind": "table", "t": [0, 1]}, "IoError"),
                        ({"kind": "table", "t": [0, 1], "lam": [1]},
                         "DomainError")):
        sched.write_text(json.dumps(desc))
        rc, _, err = run_cli(capsys, "deform", "--t", "0.5", "--grid", "12x6",
                             "--schedule", str(sched))
        assert rc == 2
        assert json.loads(err)["error"] == error


def test_family_pattern_scaling(capsys):
    rc, payload, _ = run_cli(capsys, "family", "--pattern-scaling",
                             "--grid", "16x8")
    assert rc == 0
    assert payload["volumes_decreasing"]
    rows = payload["rows"]
    assert [r["t"] for r in rows] == [0.0, 0.25, 0.5, 0.75, 0.95]
    assert all(r["closed"] and r["euler"] == 2 for r in rows)
    assert len({r["width"] for r in rows}) == 1
    assert all(max(r["inverse_gap"], r["table_gap"]) <= 1e-9 for r in rows)


def test_family_pattern_scaling_flag_is_optional(capsys):
    # the pattern-scaling family is the only one, so naming it changes nothing
    argv = ["family", "--grid", "16x8", "--t-values", "0,0.5"]
    assert main(argv) == 0
    bare = capsys.readouterr().out
    assert main(argv + ["--pattern-scaling"]) == 0
    assert capsys.readouterr().out == bare
    assert json.loads(bare)["rows"]


def test_artifact_names_spell_t_so_distinct_t_get_distinct_files(capsys,
                                                                  tmp_path):
    # 0.1000001 and 0.1000002 agree to six significant digits
    out = tmp_path / "fam"
    rc, payload, _ = run_cli(capsys, "family", "--pattern-scaling",
                             "--grid", "8x4", "--out", str(out), "--t-values",
                             "0,1e-05,0.37,0.5,0.1000001,0.1000002")
    assert rc == 0
    names = ["family_t0.obj", "family_t1em05.obj", "family_t0p37.obj",
             "family_t0p5.obj", "family_t0p1000001.obj",
             "family_t0p1000002.obj"]
    assert payload["artifacts"] == [str(out / n) for n in names]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    rc, payload, _ = run_cli(capsys, "deform", "--t", "1", "--grid", "8x4",
                             "--out", str(out))
    assert payload["artifacts"] == [str(out / "deformed_t1.obj")]


@pytest.mark.parametrize("t_values, repeated", [
    ("0.5,0.5", "0.5"), ("0,0.25,0.250", "0.25"), ("0,-0", "-0.0")])
def test_family_refuses_a_repeated_t_value(t_values, repeated, capsys,
                                           tmp_path):
    # equal t would make two members share one artifact name: a usage
    # error that names the value, raised before anything is written
    out = tmp_path / "fam"
    with pytest.raises(SystemExit) as exc:
        main(["family", "--pattern-scaling", "--grid", "8x4", "--out",
              str(out), "--t-values", t_values])
    assert exc.value.code == 2
    assert f"value {repeated} is repeated" in capsys.readouterr().err
    assert not out.exists()


def test_family_reports_but_does_not_gate_volume_order(capsys, tmp_path):
    # pattern scaling raises this box's volume from t = 0 to t = 0.05
    box = tmp_path / "hyperbolic.json"
    box.write_text(json.dumps({"b": 0.761, "zeta": {
        "kind": "hyperbolic", "length": 2.402, "width": 1.411}}))
    rc, payload, _ = run_cli(capsys, "family", "--pattern-scaling",
                             "--t-values", "0,0.05,0.1", "--grid", "48x24",
                             "--input", str(box))
    vols = [r["volume"] for r in payload["rows"]]
    assert vols[0] < vols[1]
    assert payload["volumes_decreasing"] is False
    assert rc == 0


def test_verify_all_integrates_each_crease_set_once(capsys, monkeypatch,
                                                   tmp_path):
    # one quadrature pass for the creases of every state, whether or not
    # the t = 0 state drifts away from the box
    drift = tmp_path / "drift.json"
    drift.write_text(json.dumps(DRIFT_SCHEDULE))
    passes = []

    def counted(*args, **kwargs):
        passes.append(1)
        return quadrature.cumulative_integrals(*args, **kwargs)
    monkeypatch.setattr(curves, "cumulative_integrals", counted)
    for schedule in ("linear", "cosine", str(drift)):
        passes.clear()
        rc, _, _ = run_cli(capsys, "verify", "--all", "--grid", "32x16",
                           "--schedule", schedule)
        assert rc == 0
        assert len(passes) == 1, schedule


def test_verify_all_samples_the_steepest_slope_and_height_once(capsys,
                                                              monkeypatch):
    # every fold margin reads one max zeta'^2 and every bound and depth one
    # max zeta, which the profile holds
    counts = {}

    def counting(name):
        original = getattr(profiles, name)

        def counted(zeta):
            counts[name] = counts.get(name, 0) + 1
            return original(zeta)
        return counted
    for name in ("_steepest_slope", "_max_value"):
        monkeypatch.setattr(profiles, name, counting(name))
    rc, _, _ = run_cli(capsys, "verify", "--all")
    assert rc == 0
    assert counts == {"_steepest_slope": 1, "_max_value": 1}


def test_verify_all_evaluates_each_crease_set_once(capsys, monkeypatch):
    # each quarter keeps the crease points of every s array it is asked
    # for, so the stencils' repeated sets cost one crease evaluation each,
    # and a crease evaluates zeta once per distinct abscissa; its velocity
    # and acceleration, which the dual-metric strips read, evaluate zeta'
    # once each
    counts = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    counting(curves.ProfileCrease, "point")
    counting(profiles.ProfileFunction, "eval")
    rc, _, _ = run_cli(capsys, "verify", "--all")
    assert rc == 0
    assert counts == {"point": 35, "eval": 188}


def test_verify_all_passes(capsys):
    rc, payload, _ = run_cli(capsys, "verify", "--all")
    assert rc == 0
    assert payload["passed"] == payload["total"]
    names = [c["check"] for c in payload["checks"]]
    assert any(n.startswith("isometry") for n in names)
    assert any(n.startswith("flatness") for n in names)
    assert any(n.startswith("topology") for n in names)
    assert "dual-metric-agreement" in names


@settings(derandomize=True, max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=admissible_data())
def test_verify_all_passes_on_admissible_boxes(data, capsys, tmp_path):
    # 8 examples draw all four profile kinds
    path = tmp_path / "box.json"
    path.write_text(json.dumps(data.descriptor()))
    rc, payload, _ = run_cli(capsys, "verify", "--all", "--input", str(path))
    assert [c["check"] for c in payload["checks"] if not c["pass"]] == []
    assert rc == 0


@pytest.mark.parametrize("box", [
    None,
    {"b": 0.6, "zeta": {"kind": "circular", "length": 2.0, "radius": 2.0}},
    {"b": 0.761, "zeta": {"kind": "hyperbolic", "length": 2.402,
                          "width": 1.411}},
], ids=["demo", "circular", "hyperbolic"])
def test_certify_is_what_verify_all_prints(box, capsys, tmp_path):
    argv = ["verify", "--all"]
    data = FundamentalData.demo()
    if box is not None:
        path = tmp_path / "box.json"
        path.write_text(json.dumps(box))
        argv += ["--input", str(path)]
        data = FundamentalData.from_descriptor(box)
    rc, payload, _ = run_cli(capsys, *argv)
    assert rc == 0
    reports = certify(data, DeformationSchedule.linear(), 32, 16, 1e-3,
                      TOLERANCES)
    assert [r.to_dict() for r in reports] == payload["checks"]


def test_verify_all_schedule_error_names_the_first_state(capsys, tmp_path):
    # lam(0.25) = 1.5: the quarter of the first isometry state past t = 0
    # cannot be travelled, and no check may have run before it is refused
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"kind": "table", "t": [0, 0.25, 1],
                                 "lam": [1, 1.5, 0]}))
    rc, payload, err = run_cli(capsys, "verify", "--all", "--schedule",
                               str(sched), "--out", str(tmp_path / "out"))
    assert rc == 2 and payload is None
    err = json.loads(err)
    assert err["error"] == "ScheduleViolation"
    assert err["message"].startswith("fold parameter 1.5 ")
    assert not (tmp_path / "out").exists()


def test_spike_schedule_is_refused_at_its_knot(capsys, tmp_path):
    sched = tmp_path / "spike.json"
    sched.write_text(json.dumps(SPIKE_SCHEDULE))
    rc, payload, _ = run_cli(capsys, "deform", "--t", "0.5", "--grid", "8x4",
                             "--schedule", str(sched))
    assert rc == 1 and payload["schedule"]["valid"] is False
    failed = [e for e in payload["schedule"]["entries"] if not e["passed"]]
    assert [(e["name"], e["t"], e["lam"]) for e in failed] == [
        ("fold-margin", 0.01, 1.5)]
    rc, payload, err = run_cli(capsys, "verify", "--all", "--schedule",
                               str(sched), "--out", str(tmp_path / "out"))
    assert rc == 2 and payload is None
    assert json.loads(err) == {
        "error": "ScheduleViolation",
        "message": "fold parameter 1.5 at t = 0.01 fails fold-margin, "
                   "margin -6.186e-01"}
    assert not (tmp_path / "out").exists()


def test_hidden_bump_fails_the_slope_margin(capsys, tmp_path):
    # slope-margin reads the quarter gate's grid, which sees the bump
    path = tmp_path / "bump.json"
    path.write_text(json.dumps(hidden_bump()))
    rc, payload, _ = run_cli(capsys, "validate", "--input", str(path))
    assert rc == 1
    failed = [e for e in payload["entries"] if not e["passed"]]
    assert [e["name"] for e in failed] == ["slope-margin"]
    assert abs(failed[0]["margin"] + 0.394) < 1e-3
    rc, payload, err = run_cli(capsys, "deform", "--t", "0.5", "--grid", "8x4",
                               "--input", str(path))
    assert rc == 2 and payload is None
    err = json.loads(err)
    assert err["error"] == "DomainError" and "slope-margin" in err["message"]


def test_verify_all_check_order_is_the_golden_order(capsys, tmp_path):
    # the check names and their order depend on neither box nor schedule
    golden = json.loads((GOLDEN / "verify.json").read_text())
    path = tmp_path / "circular.json"
    path.write_text(json.dumps(
        {"b": 0.6, "zeta": {"kind": "circular", "length": 2.0, "radius": 2.0}}))
    rc, payload, _ = run_cli(capsys, "verify", "--all", "--input", str(path),
                             "--schedule", "cosine")
    assert rc == 0
    names = [c["check"] for c in payload["checks"]]
    assert len(names) == 49
    assert names == [c["check"] for c in golden]


@pytest.mark.parametrize("eps", ["0.5", "0.6", "-1", "nan", "9e-5", "1e-12"])
def test_verify_endpoint_guard_outside_the_open_half_exits_2(eps, capsys,
                                                             tmp_path):
    # 0.5 collapses every interior grid to s = L/2, 0.6 runs it backwards:
    # neither certifies anything, so neither may pass.  Below 1e-4 the
    # demo's flatness stencil, step 2e-4, would leave [0, 2].
    rc, payload, err = run_cli(capsys, "verify", "--all", "--grid", "8x4",
                               f"--eps-endpoint={eps}",
                               "--out", str(tmp_path))
    assert rc == 2 and payload is None
    err = json.loads(err)
    assert err["error"] == "DomainError"
    assert err["message"].startswith("endpoint guard")
    if 0.0 < float(eps) < 1e-4:
        assert err["message"].endswith("it must be at least 0.0001")
    assert list(tmp_path.iterdir()) == []


def test_verify_tolerance_override_can_fail(capsys):
    rc, payload, _ = run_cli(capsys, "verify", "--all",
                             "--tol", "isometry=1e-16")
    assert rc == 1
    assert payload["passed"] < payload["total"]


@pytest.mark.parametrize("argv", [
    ["family", "--pattern-scaling", "--t-values", "0,abc"],
    ["family", "--pattern-scaling", "--t-values", ",0.5"],
    ["verify", "--all", "--tol", "isometry=abc"],
    ["verify", "--all", "--tol", "isometry=nan"],
    ["verify", "--all", "--tol", "isometry=inf"],
    ["verify", "--all", "--tol", "isometry=-inf"],
    ["verify", "--all", "--tol", "isometry=-1"],
], ids=["t-values-word", "t-values-empty", "tol-word", "tol-nan", "tol-inf",
        "tol-minus-inf", "tol-negative"])
def test_malformed_numeric_input_exits_2(argv, capsys):
    # a usage error, not exit 1, which means a failed check
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if "--tol" in argv and "abc" not in argv[-1]:
        assert "must be finite and >= 0" in err


# each subcommand with --out, and the first artifact it writes there
UNUSABLE_OUT = [
    (["build"], "box.obj"),
    (["develop"], "pattern.svg"),
    (["deform", "--t", "0.5"], "deformed_t0p5.obj"),
    (["family", "--pattern-scaling", "--t-values", "0"], "family_t0.obj"),
    (["verify", "--all"], "verify.json"),
]


@pytest.mark.parametrize("blocked", ["out-is-a-file", "artifact-is-a-dir"])
@pytest.mark.parametrize("argv, artifact", UNUSABLE_OUT,
                         ids=[argv[0] for argv, _ in UNUSABLE_OUT])
def test_unusable_out_exits_2(argv, artifact, blocked, capsys, tmp_path):
    out = tmp_path / "out"
    if blocked == "out-is-a-file":
        out.write_text("")
    else:
        (out / artifact).mkdir(parents=True)
    rc, payload, err = run_cli(capsys, *argv, "--grid", "8x4",
                               "--out", str(out))
    assert rc == 2 and payload is None
    assert json.loads(err)["error"] == "IoError"


# flags that their subcommand used to accept and ignore
REMOVED_FLAGS = [
    ["validate", "--grid", "3x3"],
    ["validate", "--out", "d"],
    ["validate", "--eps-endpoint", "0.1"],
    ["validate", "--tol", "isometry=1"],
    ["validate", "--samples", "5"],
    ["verify", "--all", "--tol", "collapse=1"],
] + [argv + flag
     for argv in (["build"], ["develop"], ["deform", "--t", "0.5"],
                  ["family", "--pattern-scaling"])
     for flag in (["--eps-endpoint", "0.1"], ["--tol", "isometry=1"])]


@pytest.mark.parametrize("argv", REMOVED_FLAGS,
                         ids=[" ".join(a) for a in REMOVED_FLAGS])
def test_removed_flag_is_a_usage_error(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_tolerance_name_rejected(capsys):
    # development-image reads 0.0 by construction, so its threshold is fixed
    for name in ("bogus", "image"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--all", "--tol", f"{name}=1"])
        assert exc.value.code == 2
        assert f"unknown tolerance {name!r}" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "pillowfold", "build", "--grid", "12x6",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["topology"]["closed"]
    assert (tmp_path / "box.obj").exists()
