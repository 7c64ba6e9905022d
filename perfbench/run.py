"""pillowfold benchmark: seeded CLI workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the program from
`src/`.  One client process runs `pillowfold.cli.main` in-process, one job at
a time, in whole rounds (see workloads.py) until `--seconds` have passed.
Every job's output is checked against facts the benchmark computes itself
(checks.py).

--trace 0 reports the end-to-end metrics.  Their times are scaled to a fixed
reference speed by a kernel timed between jobs (speed.py), because the
machine's own speed drifts more than the bounds allow; the raw wall times are
printed beside them.  --trace 1 runs every job twice, untraced and under the
outside-in tracer (tracer.py), alternating which runs first, requires
identical stdout from both, and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is the JSON result.  --smoke shrinks the
grids and the run, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# Cap BLAS and OpenMP threads at nproc before numpy loads, here and in children.
for _var in THREAD_VARS:
    _have = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_have), NPROC) if _have.isdigit() and int(_have) > 0 else NPROC)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
from inputs import reaches_critical_slope  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import NAMES, ORDER as KIND_ORDER, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "docs" / "golden" / "verify.json"
SETUP_SAMPLES = 5
WARM_UP_GRID = "16x8"

END_TO_END = {"jobs_per_s": "1/s", "job_s.p50": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def load_program():
    """Import pillowfold from this checkout's src/, and nothing else."""
    if not (SRC / "pillowfold" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'pillowfold'}; "
                         "run from the root of a pillowfold checkout")
    sys.path.insert(0, str(SRC))
    import pillowfold.cli as cli
    from pillowfold.profiles import FundamentalData, validate_fundamental_data
    if Path(cli.__file__).resolve().parent != SRC / "pillowfold":
        raise SystemExit(f"perfbench: imported pillowfold from {cli.__file__}, not {SRC}")

    def validate(desc: dict) -> bool:
        data = FundamentalData.from_descriptor(desc)
        return validate_fundamental_data(data.b, data.zeta).valid

    return cli, validate


def environment() -> dict:
    import scipy
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS}}


def run_job(cli, argv: list) -> tuple:
    """(exit code or None, stdout, error text, wall seconds) of one in-process job."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:   # a crash is a failed job, not the end of the run
        rc, error = None, traceback.format_exc(limit=3)
    dt = perf_counter() - t0
    return rc, out.getvalue(), error or err.getvalue(), dt


def run_traced(cli, tracer, argv: list) -> tuple:
    tracer.install()
    tracer.begin_job()
    try:
        rc, stdout, _, dt = run_job(cli, argv)
    finally:
        tracer.uninstall()
    return rc, stdout, dt


def measure_setup(paths: list) -> tuple:
    """Wall times of fresh `python -m pillowfold validate` processes, and the
    speed kernel's times before, between and after them."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, kernel = [], [speed.kernel_s()]
    for path in paths:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pillowfold", "validate", "--input",
                               str(path)], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        times.append(perf_counter() - t0)
        kernel.append(speed.kernel_s())
        if proc.returncode != 0 or json.loads(proc.stdout).get("valid") is not True:
            raise RuntimeError(f"validate {path} exited {proc.returncode}: {proc.stderr[-500:]}")
    return times, kernel


def warm_up(cli, job, workdir: Path) -> None:
    """Run `job` once at a small grid, untimed, so imports and lazy set-up finish."""
    argv = list(job.argv)
    argv[argv.index("--grid") + 1] = WARM_UP_GRID
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(workdir / "warm-up")
    run_job(cli, argv)


def judge(job, rc, stdout, error, golden) -> tuple:
    """(problems, cert_failed) for one job; problems make it an error."""
    if rc is None:
        return [error.strip().splitlines()[-1] if error else "no exit code"], False
    if rc not in (0, 1):
        return [f"exit {rc}: {error.strip()[-300:]}"], False
    try:
        payload = json.loads(stdout)
        if job.workload == "certify":
            problems = checks.check_certify(job, payload, rc, golden if job.demo else None)
        elif job.workload == "fold-mesh":
            problems = checks.check_fold_mesh(job, payload, rc)
        else:
            problems = checks.check_family(job, payload, rc)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems, rc == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids and one round, for the benchmark's own tests")
    args = parser.parse_args(argv)

    cli, validate = load_program()
    if not GOLDEN.is_file():
        raise SystemExit(f"perfbench: missing {GOLDEN}")
    golden = GOLDEN.read_bytes()
    traced = bool(args.trace)
    grids = ({"fold-mesh": "16x8", "pattern-family": "12x6"}
             if args.smoke else None)

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = Workload(args.workload, args.seed, workdir, validate, grids)
        rnd = wl.next_round()
        inputs = list(dict.fromkeys(job.argv[-1] for job in rnd))
        setup, setup_kernel = ([], []) if traced else measure_setup(
            [inputs[i % len(inputs)] for i in range(SETUP_SAMPLES)])
        warm_up(cli, rnd[-1], workdir)

        tracer = Tracer()
        before = Tracer.patched_state() if traced else None
        results = []        # (job, rc, stdout, error, seconds)
        n_rounds = 0
        traced_s = []
        kernel = []         # speed kernel times, one before each untraced job and one at the end
        aside_s = 0.0       # drawing inputs and timing the kernel, kept out of the loop's wall time
        start = perf_counter()
        while True:
            for job in rnd:
                if not traced:
                    kernel.append(speed.kernel_s())
                    aside_s += kernel[-1]
                # Traced jobs alternate between running before and after
                # their untraced twin, so warm-up favours neither side.
                traced_first = traced and len(results) % 2 == 1
                if traced_first:
                    rc_t, stdout_t, dt_t = run_traced(cli, tracer, job.argv)
                rc, stdout, error, dt = run_job(cli, job.argv)
                if traced:
                    if not traced_first:
                        rc_t, stdout_t, dt_t = run_traced(cli, tracer, job.argv)
                    traced_s.append(dt_t)
                    if (rc_t, stdout_t) != (rc, stdout):
                        rc, error = None, "traced run printed other output than the untraced run"
                results.append((job, rc, stdout, error, dt))
            n_rounds += 1
            if args.smoke or perf_counter() - start - aside_s >= args.seconds:
                break
            t0 = perf_counter()
            rnd = wl.next_round()
            aside_s += perf_counter() - t0
        wall = perf_counter() - start - aside_s
        if not traced:
            kernel.append(speed.kernel_s())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        errors, cert_fails, messages = 0, 0, []
        for job, rc, stdout, error, _ in results:
            problems, cert_failed = judge(job, rc, stdout, error, golden)
            errors += bool(problems)
            cert_fails += cert_failed and not problems
            messages += [f"{job.kind} {' '.join(job.argv[:4])}: {p}" for p in problems]
        restored = not traced or Tracer.patched_state() == before
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(results)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": environment(),
        "jobs": n, "rounds": n_rounds,
        "kind_mix": {k: sum(r[0].kind == k for r in results) for k in KIND_ORDER},
        "job_s_by_kind": {k: round(statistics.median(ts), 4) for k in KIND_ORDER
                          if (ts := [r[4] for r in results if r[0].kind == k])},
        "rejected_draws": wl.gen.rejected,
        "critical_slope_share": sum(reaches_critical_slope(r[0].desc) for r in results) / n,
        "error_ratio": errors / n,
        "cert_fail_ratio": cert_fails / n,
        "exit1_by_kind": {k: sum(r[0].kind == k and r[1] == 1 for r in results)
                          for k in KIND_ORDER},
        "tracer_restored": restored,
    }
    print("perfbench " + json.dumps(info))
    for message in messages[:20]:
        print("perfbench error: " + message)

    if traced:
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = sum(r[4] for r in results) / sum(traced_s) - 1.0
        metrics["error_ratio"] = info["error_ratio"]
        metrics["cert_fail_ratio"] = info["cert_fail_ratio"]
        units = {name: unit_of(name) for name in metrics}
        if tracer.missing:
            print("perfbench tracer could not find: " + ", ".join(tracer.missing))
    else:
        times = [r[4] for r in results]
        job_s = speed.scaled(times, kernel)
        metrics = {"jobs_per_s": n / sum(job_s),
                   "job_s.p50": statistics.median(job_s),
                   "setup_s": statistics.median(setup) * speed.REF_S
                              / statistics.median(setup_kernel + kernel),
                   "peak_rss_mb": peak_rss_mb,
                   "ok_ratio": 1.0 - errors / n}
        units = END_TO_END
        print(f"perfbench samples: {n} jobs in {wall:.3f} s, {len(setup)} set-up processes")
        print(f"perfbench speed kernel: median {statistics.median(kernel):.6f} s over "
              f"{len(kernel)} samples in the loop, {statistics.median(setup_kernel):.6f} s "
              f"over {len(setup_kernel)} in set-up; reference {speed.REF_S} s")
        print(f"perfbench wall (unscaled): jobs_per_s = {n / wall:.6g} 1/s, "
              f"job_s.p50 = {statistics.median(times):.6g} s, "
              f"setup_s = {statistics.median(setup):.6g} s")
    for name, value in metrics.items():
        print(f"perfbench metric {name} = {value:.6g} {units[name]}")
    if not traced:
        for name in ("error_ratio", "cert_fail_ratio"):
            print(f"perfbench metric {name} = {info[name]:.6g} ratio")

    correct = errors == 0 and restored
    print(json.dumps({"correct": correct, "attempted": n, "failed": errors,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("calls_per_mesh"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
