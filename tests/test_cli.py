from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from pillowfold import curves, quadrature
from pillowfold.cli import main
from pillowfold.mesh import load_obj

import oracles as oc
from strategies import admissible_data

# end slope 0.7075 > 1/sqrt2: the folded crease cannot be travelled
STEEP_ARCH = {"b": 1.0, "zeta": {"kind": "hyperbolic", "length": 2.0,
                                 "width": 0.99889}}


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


def test_build_writes_closed_box(capsys, tmp_path):
    out = tmp_path / "out"
    rc, payload, _ = run_cli(capsys, "build", "--grid", "24x12",
                             "--out", str(out))
    assert rc == 0
    assert payload["topology"]["closed"]
    assert payload["topology"]["euler"] == 2
    assert payload["topology"]["volume"] > 0.0
    box = load_obj(out / "box.obj")
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
    rect = load_obj(out / "double_rectangle.obj")
    assert rect.is_closed() and rect.euler_characteristic() == 2


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


def test_deform_flag_validation():
    with pytest.raises(SystemExit):
        main(["deform"])
    with pytest.raises(SystemExit):
        main(["deform", "--t", "0.5", "--sweep", "3"])
    with pytest.raises(SystemExit):
        main(["deform", "--sweep", "1"])


def test_deform_out_of_range_t_exits_2(capsys):
    rc, _, err = run_cli(capsys, "deform", "--t", "1.5")
    assert rc == 2
    assert json.loads(err)["error"] == "DomainError"


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
    assert all(r["width_gap"] <= 1e-6 for r in rows)


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


def test_verify_all_integrates_each_crease_set_once(capsys, monkeypatch):
    # 114 crease integrals when every call integrated afresh
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return quadrature.cumulative_integral(*args, **kwargs)
    monkeypatch.setattr(curves, "cumulative_integral", counted)
    rc, _, _ = run_cli(capsys, "verify", "--all", "--grid", "32x16")
    assert rc == 0
    assert 0 < len(calls) <= 40


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


def test_verify_tolerance_override_can_fail(capsys):
    rc, payload, _ = run_cli(capsys, "verify", "--all",
                             "--tol", "isometry=1e-16")
    assert rc == 1
    assert payload["passed"] < payload["total"]


@pytest.mark.parametrize("argv", [
    ["family", "--pattern-scaling", "--t-values", "0,abc"],
    ["family", "--pattern-scaling", "--t-values", ",0.5"],
    ["verify", "--all", "--tol", "isometry=abc"],
    ["validate", "--samples", "0"],
], ids=["t-values-word", "t-values-empty", "tol-word", "samples-0"])
def test_malformed_numeric_input_exits_2(argv, capsys):
    # a usage error, not exit 1, which means a failed check
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_tolerance_name_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "--all", "--tol", "bogus=1"])


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "pillowfold", "build", "--grid", "12x6",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["topology"]["closed"]
    assert (tmp_path / "box.obj").exists()
