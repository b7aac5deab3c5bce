"""Command-line frontend: convergence studies, single solves, verification.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure (solver breakdown or non-finite results).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import broken_norms, convergence_study, solve_case
from .cases import CASE_NAMES, get_case
from .reference import family_from_name
from .solver import SolverError
from .verify import SUITES, run_suite

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the config error code on bad flags."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="triharm",
                     description="Sixth-order (tri-harmonic) nonconforming "
                                 "finite element solver on n-rectangle meshes")
    parser.add_argument("--config", metavar="FILE",
                        help="plain key=value file of defaults; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--element", default="adini",
                       choices=["adini", "adini-type", "morley", "morley-type"],
                       help="element family (default: adini)")
        p.add_argument("--case", default="smooth2d", choices=list(CASE_NAMES),
                       help="manufactured problem (default: smooth2d)")
        p.add_argument("--q-stiffness", type=int, default=6,
                       help="Gauss points per axis for stiffness (default 6)")
        p.add_argument("--q-load", type=int, default=8,
                       help="Gauss points per axis for the load (default 8)")
        p.add_argument("--q-error", type=int, default=8,
                       help="Gauss points per axis for error norms (default 8)")
        p.add_argument("--solver", default="direct", choices=["direct", "cg"])
        p.add_argument("--tol", type=float, default=1e-10,
                       help="iterative solver relative tolerance")

    p_conv = sub.add_parser("convergence", help="refinement study with orders")
    common(p_conv)
    p_conv.add_argument("--levels", type=_int_list, default=[4, 8, 16, 32],
                        help="comma-separated doubling refinements, e.g. 4,8,16")
    p_conv.add_argument("--output", metavar="FILE",
                        help="write the CSV table here (default: stdout)")
    p_conv.add_argument("--markdown", metavar="FILE",
                        help="also write a Markdown table here")

    p_solve = sub.add_parser("solve", help="single solve with error norms")
    common(p_solve)
    p_solve.add_argument("--n", type=int, default=8, help="cells per unit length")
    p_solve.add_argument("--dump", metavar="FILE",
                         help="write 'index value' coefficient lines here")

    p_ver = sub.add_parser("verify", help="element verification suites")
    p_ver.add_argument("--suite", default="all", choices=list(SUITES) + ["all"])
    p_ver.add_argument("--dims", type=_int_list, default=[2, 3],
                       help="dimensions to cover (default 2,3)")
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend defaults from a key=value file so explicit flags win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        return argv
    path = argv[i + 1]
    extra: list[str] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {line!r}")
                key, value = (tok.strip() for tok in line.split("=", 1))
                flag = "--" + key.replace("_", "-")
                if value.lower() in ("true", "yes", "on"):
                    extra.append(flag)
                else:
                    extra.extend([flag, value])
    except OSError as exc:
        sys.stderr.write(f"error: cannot read config: {exc}\n")
        raise SystemExit(EXIT_CONFIG)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        raise SystemExit(EXIT_CONFIG)
    # insert after the subcommand so argparse assigns them there
    head = argv[: i]
    tail = [a for a in argv[i + 2:]]
    sub_pos = next((j for j, a in enumerate(head + tail)
                    if not a.startswith("-")), None)
    merged = head + tail
    if sub_pos is None:
        return merged + extra
    return merged[: sub_pos + 1] + extra + merged[sub_pos + 1:]


def _load_problem(args):
    case = get_case(args.case)
    family = family_from_name(args.element)
    return case, family


def _write(path: str, text: str) -> bool:
    """Write an output file; report an unwritable path as one error line."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {path}: {exc.strerror or exc}\n")
        return False
    return True


def cmd_convergence(args) -> int:
    case, family = _load_problem(args)
    if len(args.levels) < 2:
        sys.stderr.write("error: need at least two refinement levels\n")
        return EXIT_CONFIG
    try:
        def progress(n, errs, rep):
            print(f"# N={n:<4d} errors=({errs[0]:.6e}, {errs[1]:.6e}, "
                  f"{errs[2]:.6e}, {errs[3]:.6e})  "
                  f"[{rep.method}, {rep.seconds:.1f}s]", file=sys.stderr)

        report = convergence_study(
            case, family, args.levels,
            q_stiffness=args.q_stiffness, q_load=args.q_load,
            q_error=args.q_error, solver=args.solver, cg_tol=args.tol,
            progress=progress)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except SolverError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC

    csv = report.to_csv()
    if args.output:
        if not _write(args.output, csv):
            return EXIT_CONFIG
    else:
        sys.stdout.write(csv)
    if args.markdown and not _write(args.markdown, report.to_markdown()):
        return EXIT_CONFIG
    finest = report.orders()[-1]
    print("# observed orders at finest pair: "
          + ", ".join("n/a" if o is None else f"{o:.2f}" for o in finest),
          file=sys.stderr)
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.n < 1:
        sys.stderr.write("error: --n must be a positive integer\n")
        return EXIT_CONFIG
    case, family = _load_problem(args)
    try:
        space, coeffs, rep = solve_case(
            case, family, args.n, q_stiffness=args.q_stiffness,
            q_load=args.q_load, solver=args.solver, cg_tol=args.tol)
        errs = broken_norms(space, coeffs, case, q=args.q_error)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except SolverError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC
    if not all(np.isfinite(errs)):
        sys.stderr.write("numerical failure: non-finite error norms\n")
        return EXIT_NUMERIC
    print(f"case={case.name} element={family} N={args.n} "
          f"dofs={space.n_dofs} free={len(space.free_dofs())}")
    for label, value in zip(("L2", "H1", "H2", "H3"), errs):
        print(f"{label:3s} error = {value:.6e}")

    def show(value, fmt=""):
        return "-" if value is None else format(value, fmt)

    print(f"solver={rep.method} ordering={show(rep.ordering)} "
          f"fill={show(rep.fill)} iterations={show(rep.iterations)} "
          f"residual={rep.relative_residual:.3e} "
          f"factor_seconds={show(rep.factor_seconds, '.2f')} "
          f"seconds={rep.seconds:.2f}")
    if args.dump:
        lines = "".join(f"{i} {v:.17e}\n" for i, v in enumerate(coeffs))
        if not _write(args.dump, lines):
            return EXIT_CONFIG
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        reports = run_suite(args.suite, dims=tuple(args.dims))
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    failed = False
    for rep in reports:
        for label, ok, detail in rep.items:
            status = "PASS" if ok else "FAIL"
            line = f"[{status}] {rep.suite}: {label}"
            if detail and not ok:
                line += f" ({detail})"
            print(line)
            failed = failed or not ok
    return EXIT_VERIFY if failed else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config_file(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "convergence":
        return cmd_convergence(args)
    if args.command == "solve":
        return cmd_solve(args)
    if args.command == "verify":
        return cmd_verify(args)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
