"""One benchmark job in a fresh process: set up, run one workload, check it.

    python3 bench/job.py --workload NAME --seed N [--size full|tiny]
                         [--setup-only] [--trace] [--expected FILE]

``bench/run.py`` starts this with ``src`` on ``PYTHONPATH`` and the BLAS
and OpenMP thread counts pinned in the environment, so the pin holds before
NumPy loads.  The last line of stdout is one JSON record of the job.
"""

import time

T0 = time.perf_counter()

import argparse
import ctypes
import dataclasses
import json
import os
import sys

import spans
import workloads


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                out[os.path.basename(path)] = int(getattr(lib, symbol)())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def run_ops(ops, checker: workloads.Checker, amplitude: float):
    """Run the workload's operations through the modules' public names."""
    import numpy as np
    from triharm import analysis, cases, reference, verify
    from triharm.solver import SolverError

    def problem(case_name):
        # the problem is linear: amplitude c scales u, f and every error
        case = cases.get_case(case_name)
        return dataclasses.replace(
            case,
            source=lambda p: amplitude * case.source(p),
            derivative=lambda alpha, p: amplitude * case.derivative(alpha, p))

    for op in ops:
        kind = op[0]
        if kind == "suite":
            _, name, dims = op
            checker.verification(verify.run_suite(name, dims=dims))
            continue
        _, case_name, family_name, size = op
        case = problem(case_name)
        family = reference.family_from_name(family_name)
        label = f"{kind} {workloads.solve_key(case_name, family_name, size)}"
        try:
            if kind == "solve":
                space, coeffs, report = analysis.solve_case(case, family, size)
                errs = analysis.broken_norms(space, coeffs, case)
                checker.solve(case_name, family_name, size, errs, report,
                              dofs=space.n_dofs)
            elif kind == "study":
                reports = {}
                study = analysis.convergence_study(
                    case, family, list(size),
                    progress=lambda n, _e, rep: reports.__setitem__(n, rep))
                for n, errs in zip(study.levels, study.errors):
                    checker.solve(case_name, family_name, n, errs, reports[n])
            elif kind == "cg":
                _, direct, report = analysis.solve_case(case, family, size)
                _, viacg, _ = analysis.solve_case(
                    case, family, size, solver="cg", cg_tol=workloads.CG_TOL)
                rel = float(np.abs(direct - viacg).max() / np.abs(direct).max())
                checker.agreement(label, rel, report)
            else:
                raise ValueError(f"unknown operation {kind!r}")
        except SolverError as exc:
            checker.crashed(label, exc, len(size) if kind == "study" else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--expected", default=str(workloads.EXPECTED_FILE))
    args = parser.parse_args(argv)

    # set-up: what every CLI call pays before its first solve
    from triharm import reference
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    for family, dim in workloads.WORKLOADS[args.workload].bases:
        reference.build_dual_basis(reference.family_from_name(family), dim)
    setup_s = time.perf_counter() - T0
    record = {"setup_s": setup_s, "env": environment()}

    if not args.setup_only:
        amplitude = workloads.amplitude(args.seed)
        ops = getattr(workloads.WORKLOADS[args.workload], args.size)
        checker = workloads.Checker(workloads.load_expected(args.expected),
                                    amplitude)
        t1 = time.perf_counter()
        run_ops(ops, checker, amplitude)
        record.update(
            wall_s=time.perf_counter() - t1,
            peak_rss_mb=spans.peak_rss_mb(),
            h3_rel_err=max(checker.h3_rel, default=None),
            attempted=checker.attempted,
            failures=checker.failures,
        )
        if tracer is not None:
            record["spans"] = tracer.spans
            record["layers"] = spans.layer_metrics(tracer.spans,
                                                   workloads.PER_LAYER)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
