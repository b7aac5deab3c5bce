"""Command-line frontend: convergence studies, single solves, verification.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure (solver breakdown or non-finite results), 4 internal
error (any other exception, a bug: its traceback is printed), 141 when the
reader closes stdout early (128 + SIGPIPE, as a shell reports for ``cat``).
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

import numpy as np

from .analysis import broken_norms, check_levels, convergence_study, solve_case
from .cases import CASE_NAMES, get_case
from .multigrid import check_tolerance
from .reference import family_from_name
from .solver import SolverError
from .verify import SUITES, run_suite, suite_dims

__all__ = ["main", "build_parser", "ConfigError"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141


class ConfigError(ValueError):
    """A command line or config file the CLI rejects: exit code 2."""


class _Parser(argparse.ArgumentParser):
    """argparse whose errors reach ``main`` as ConfigError, after the usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


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


def _config_flags(path: str) -> list[str]:
    """Turn a file of ``key = value`` lines into ``--key=value`` flags."""
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc.strerror or exc}")
    flags = []
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad line in config {path}: {line!r}")
        key, value = (tok.strip() for tok in line.split("=", 1))
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _check(args) -> None:
    """The CLI's own checks of the parsed values, before any work is done:
    a level, tolerance or dimension the run would reject raises
    ConfigError.  The parser's choices check the case and element."""
    study = args.command == "convergence"
    try:
        if args.command == "verify":
            suite_dims(args.suite, args.dims)
            return
        check_levels(args.levels if study else [args.n], study)
        if args.solver == "cg":
            check_tolerance(args.tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _write(path: str, text: str, mode: str = "w") -> None:
    """Write an output file; an unwritable path raises one readable OSError."""
    try:
        with open(path, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}")


def _corrections(rep) -> str:
    """A report's refinement corrections, comma-separated, or ``-``."""
    return ",".join(f"{c:.1e}" for c in rep.corrections or ()) or "-"


def _writing(paths, work, args) -> int:
    """``work(args)``, the one rule of the commands' output files: every
    path given is checked before the work, by opening it to append, which
    truncates no file, and a failed run leaves behind no file it created."""
    paths = [p for p in paths if p]
    new = [p for p in paths if not os.path.exists(p)]
    try:
        for path in paths:
            _write(path, "", mode="a")
        return work(args)
    except BaseException:
        for path in filter(os.path.exists, new):
            os.remove(path)
        raise


def cmd_convergence(args) -> int:
    return _writing([args.output, args.markdown], _convergence, args)


def _convergence(args) -> int:
    def progress(n, errs, rep):
        refined = (f", {rep.precision}, corrections={_corrections(rep)}"
                   if rep.precision else "")
        print(f"# N={n:<4d} errors=({errs[0]:.6e}, {errs[1]:.6e}, "
              f"{errs[2]:.6e}, {errs[3]:.6e})  "
              f"[{rep.method}, {rep.seconds:.1f}s{refined}]", file=sys.stderr)

    report = convergence_study(
        get_case(args.case), family_from_name(args.element), args.levels,
        solver=args.solver, cg_tol=args.tol, progress=progress)
    csv = report.to_csv()
    if args.output:
        _write(args.output, csv)
    else:
        sys.stdout.write(csv)
    if args.markdown:
        _write(args.markdown, report.to_markdown())
    finest = report.orders()[-1]
    print("# observed orders at finest pair: "
          + ", ".join("n/a" if o is None else f"{o:.2f}" for o in finest),
          file=sys.stderr)
    return EXIT_OK


def cmd_solve(args) -> int:
    return _writing([args.dump], _solve, args)


def _solve(args) -> int:
    case, family = get_case(args.case), family_from_name(args.element)
    space, coeffs, rep = solve_case(case, family, args.n, solver=args.solver,
                                    cg_tol=args.tol)
    errs = broken_norms(space, coeffs, case)
    if not all(np.isfinite(errs)):
        raise SolverError("non-finite error norms")
    print(f"case={case.name} element={family} N={args.n} "
          f"dofs={space.n_dofs} free={len(space.free_dofs())}")
    for label, value in zip(("L2", "H1", "H2", "H3"), errs):
        print(f"{label:3s} error = {value:.6e}")

    def show(value, fmt=""):
        return "-" if value is None else format(value, fmt)

    print(f"solver={rep.method} ordering={show(rep.ordering)} "
          f"fill={show(rep.fill)} fronts={show(rep.fronts)} "
          f"factored={show(rep.factored)} "
          f"iterations={show(rep.iterations)} "
          f"residual={rep.relative_residual:.3e} "
          f"precision={show(rep.precision)} "
          f"corrections={_corrections(rep)} "
          f"factor_seconds={show(rep.factor_seconds, '.2f')} "
          f"seconds={rep.seconds:.2f}")
    if args.dump:
        _write(args.dump,
               "".join(f"{i} {v:.17e}\n" for i, v in enumerate(coeffs)))
    return EXIT_OK


def cmd_verify(args) -> int:
    failed = False
    for rep in run_suite(args.suite, dims=tuple(args.dims)):
        for label, ok, detail in rep.items:
            status = "PASS" if ok else "FAIL"
            line = f"[{status}] {rep.suite}: {label}"
            if detail and not ok:
                line += f" ({detail})"
            print(line)
            failed = failed or not ok
    return EXIT_VERIFY if failed else EXIT_OK


COMMANDS = {"convergence": cmd_convergence, "solve": cmd_solve,
            "verify": cmd_verify}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # --config may sit before or after the subcommand; without allow_abbrev
    # an abbreviated subcommand flag such as --c would be read as --config
    pre = _Parser(prog="triharm", add_help=False, allow_abbrev=False)
    pre.add_argument("--config", metavar="FILE")
    try:
        known, rest = pre.parse_known_args(argv)
        if known.config is not None:
            # right after the subcommand, so explicit flags that follow win
            rest[1:1] = _config_flags(known.config)
        args = build_parser().parse_args(rest)
        _check(args)
        status = COMMANDS[args.command](args)
        sys.stdout.flush()   # a closed stdout shows here, not at shutdown
        return status
    except BrokenPipeError:
        # quiet the interpreter's final flush into the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ConfigError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except SolverError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC
    except Exception:
        traceback.print_exc()
        sys.stderr.write("internal error: this is a bug in triharm\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
