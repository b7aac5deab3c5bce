"""Benchmark of triharm: one workload, measured in fresh child processes.

Run from the repository root:

    python3 bench/run.py --workload solve2d-lshape64 --seed 1 --seconds 20 --trace 0

Every job and every set-up probe is its own ``bench/job.py`` process with
``src`` on ``PYTHONPATH`` and BLAS/OpenMP pinned to one thread, one process
at a time.  Jobs repeat until ``--seconds`` have passed (at least one).

``--trace 0`` reports the end-to-end metrics: median job wall time and
set-up time, median peak RSS of a job process, and the worst relative H3
error against the paper's tables.  ``--trace 1`` alternates untraced and
traced jobs and reports the per-layer metrics of the traced ones with the
tracing overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5            # set-up samples per run: job processes plus probes
JOB_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class JobError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_job(args, *extra) -> dict:
    cmd = [sys.executable, str(BENCH / "job.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size,
           "--expected", args.expected, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise JobError(f"job exceeded {JOB_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise JobError(f"job exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values) -> float:
    return float(statistics.median(values))


def measure(args):
    """Run the jobs of one benchmark run; return (setups, jobs, traced)."""
    run_job(args, "--setup-only")     # warm the bytecode and file caches
    setups, jobs, traced = [], [], []
    start = time.perf_counter()
    while (not jobs or (args.trace and not traced)
           or time.perf_counter() - start < args.seconds):
        if args.trace and len(traced) < len(jobs):
            traced.append(run_job(args, "--trace"))
        else:
            jobs.append(run_job(args))
            setups.append(jobs[-1]["setup_s"])
    while not args.trace and len(setups) < SETUPS:
        setups.append(run_job(args, "--setup-only")["setup_s"])
    return setups, jobs, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload's smoke-test sizes")
    parser.add_argument("--expected", default=str(workloads.EXPECTED_FILE),
                        help="recorded errors the answers are checked against")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "triharm" / "__init__.py").is_file():
        print(f"no triharm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups, jobs, traced = measure(args)
    except JobError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    attempted = sum(j["attempted"] for j in jobs + traced)
    failures = [f for j in jobs + traced for f in j["failures"]]
    for failure in failures:
        print(f"FAILED {failure}")
    walls = [j["wall_s"] for j in jobs]
    if args.trace:
        names = workloads.PER_LAYER
        metrics = {name: median(j["layers"][name] for j in traced)
                   for name in names}
        metrics["trace.wall_s"] = median(j["wall_s"] for j in traced)
        metrics["trace.untraced_wall_s"] = median(walls)
        metrics["trace.overhead"] = metrics["trace.wall_s"] / median(walls) - 1.0
        for j in traced:
            print("spans " + json.dumps(j["spans"]))
    else:
        names = workloads.END_TO_END
        metrics = {
            "wall_s": median(walls),
            "setup_s": median(setups),
            "peak_rss_mb": median(j["peak_rss_mb"] for j in jobs),
            "h3_rel_err": max(j["h3_rel_err"] for j in jobs),
        }
    print("record " + json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "jobs": len(jobs), "traced_jobs": len(traced),
        "wall_s": walls, "setup_s": setups, "env": jobs[0]["env"],
    }))
    for name, value in metrics.items():
        print(f"{name:28s} {value:.6g} {names[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": names[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
