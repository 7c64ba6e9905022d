"""The benchmark's own tests: `python -m pytest perfbench` from the repo root.

They run each workload in --smoke mode (one round, small grids) and check the
result line against BENCHMARK.json, then check the tracer's patching directly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace == "1":
        assert abs(result["metrics"]["trace.accounted_ratio"]["value"] - 1.0) < 1e-6
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "perfbench wall (unscaled): " in proc.stdout


def test_tracer_patches_aliases_and_restores_originals():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        from pillowfold import cli, curves, mesh, pillowbox, quadrature, verify
        from tracer import Tracer
        before = Tracer.patched_state()
        originals = (verify.self_intersection_pairs, curves.cumulative_integral,
                     pillowbox.assemble_reflected, cli.main)
        tracer = Tracer()
        tracer.install()
        try:
            assert tracer.missing == []
            assert verify.self_intersection_pairs is mesh.self_intersection_pairs
            assert verify.self_intersection_pairs is not originals[0]
            assert curves.cumulative_integral is quadrature.cumulative_integral
            assert curves.cumulative_integral is not originals[1]
            assert pillowbox.assemble_reflected is not originals[2]
            tracer.begin_job()
            assert cli.main(["deform", "--t", "0.5", "--grid", "8x4"]) == 0
        finally:
            tracer.uninstall()
        assert Tracer.patched_state() == before
        assert (verify.self_intersection_pairs, curves.cumulative_integral,
                pillowbox.assemble_reflected, cli.main) == originals
        m = tracer.metrics()
        assert m["mesh.intersect.calls"] == 1 and m["mesh.intersect.hits"] > 0
        assert abs(m["trace.accounted_ratio"] - 1.0) < 1e-6
    finally:
        sys.path.remove(str(HERE))
        sys.path.remove(str(ROOT / "src"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
