"""Command-line interface: output formats, exit codes, config files."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from triharm.cli import build_parser, main
from triharm.solver import SolverError


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_prints_norms(capsys):
    code, out, _ = run_cli(
        ["solve", "--case", "smooth2d", "--element", "adini", "--n", "4"],
        capsys)
    assert code == 0
    assert "H3  error" in out and "solver=direct" in out
    assert "ordering=nested-dissection fill=" in out
    fronts = int(out.split(" fronts=")[1].split()[0])
    factored = int(out.split(" fronts=")[1].split()[1].removeprefix("factored="))
    assert fronts >= factored >= 1


def test_solve_with_cg_marks_direct_only_fields(capsys):
    code, out, _ = run_cli(
        ["solve", "--case", "smooth2d", "--element", "morley", "--n", "4",
         "--solver", "cg"], capsys)
    assert code == 0
    assert "solver=cg ordering=- fill=- fronts=- factored=- iterations=" in out
    assert " precision=- corrections=- factor_seconds=- " in out


def test_solve_prints_the_precision_and_the_corrections(capsys):
    for case, precision in (("smooth2d", "float64"), ("smooth3d", "float32")):
        code, out, _ = run_cli(["solve", "--case", case, "--n", "2"], capsys)
        assert code == 0
        assert f" precision={precision} corrections=" in out
        corrections = out.split(" corrections=")[1].split()[0]
        if precision == "float64":
            assert corrections == "-"
        else:
            values = [float(c) for c in corrections.split(",")]
            assert len(values) >= 2 and values[-1] <= 1e-10


def test_convergence_progress_shows_the_precision_and_the_corrections(capsys):
    code, _, err = run_cli(["convergence", "--case", "smooth3d", "--levels", "2,4"],
                           capsys)
    assert code == 0
    progress = [line for line in err.splitlines() if line.startswith("# N=")]
    assert len(progress) == 2
    assert all("[direct, " in line and ", float32, corrections=" in line
               for line in progress)


def test_convergence_csv_to_stdout(capsys):
    code, out, err = run_cli(
        ["convergence", "--case", "smooth2d", "--element", "adini",
         "--levels", "4,8"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,h,e0,order0,e1,order1,e2,order2,e3,order3"
    assert lines[1].startswith("4,")
    assert "observed orders" in err


def test_convergence_deterministic_output(tmp_path, capsys):
    args = ["convergence", "--case", "smooth2d", "--element", "morley",
            "--levels", "2,4"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_convergence_passes_tol_to_cg(capsys):
    # under 1e-12 (and the default 1e-10) CG prints the direct solver's
    # table; stopped at 1e-4 it differs in every row
    def table(*solver):
        code, out, _ = run_cli(
            ["convergence", "--case", "smooth2d", "--element", "adini",
             "--levels", "4,8", *solver], capsys)
        assert code == 0
        return out.strip().splitlines()

    loose = table("--solver", "cg", "--tol", "1e-4")
    tight = table("--solver", "cg", "--tol", "1e-12")
    assert tight == table()
    assert loose[1] != tight[1]
    assert loose[2] != tight[2]


def test_convergence_file_outputs(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    md_path = tmp_path / "table.md"
    code, out, _ = run_cli(
        ["convergence", "--case", "smooth2d", "--element", "adini",
         "--levels", "4,8", "--output", str(csv_path),
         "--markdown", str(md_path)], capsys)
    assert code == 0
    assert out == ""
    assert csv_path.read_text().startswith("N,h,")
    assert md_path.read_text().startswith("| N |")


def test_verify_suite_output(capsys):
    code, out, _ = run_cli(["verify", "--suite", "unisolvence",
                            "--dims", "1,2"], capsys)
    assert code == 0
    assert all(line.startswith("[PASS]") for line in out.strip().splitlines())


def test_verify_unisolvence_in_five_dimensions(capsys):
    code, out, _ = run_cli(["verify", "--suite", "unisolvence", "--dims", "5"],
                           capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 9
    assert all(line.startswith("[PASS]") for line in lines)


def test_repeated_dimension_is_verified_once(capsys):
    code, out, _ = run_cli(["verify", "--suite", "unisolvence",
                            "--dims", "2,2"], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == len(set(lines)) == 6


def test_exit_code_config_errors(capsys):
    assert run_cli(["convergence", "--levels", "4"], capsys)[0] == 2
    assert run_cli(["solve", "--n", "0"], capsys)[0] == 2
    assert run_cli(["verify", "--suite", "bogus"], capsys)[0] == 2
    # quadrature is fixed by the discretisation: --q-* flags are unknown
    assert run_cli(["solve", "--n", "2", "--q-error", "0"], capsys)[0] == 2
    assert run_cli(["convergence", "--levels", "x,y"], capsys)[0] == 2
    assert run_cli(["convergence", "--deterministic"], capsys)[0] == 2
    # the continuity suite is a proof over the basis; it samples nothing
    assert run_cli(["verify", "--suite", "continuity", "--trials", "0"], capsys)[0] == 2


def test_internal_value_error_is_not_a_config_error(monkeypatch, capsys):
    # a bug inside the library exits 4 with its traceback, where it used to
    # read as a configuration error
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("triharm.cli.solve_case", broken)
    code, out, err = run_cli(["solve", "--n", "2"], capsys)
    assert code == 4
    assert out == ""
    assert "Traceback" in err
    assert "ValueError: operands could not be broadcast together" in err
    assert err.splitlines()[-1].startswith("internal error:")


def test_parser_errors_print_the_usage_and_one_error_line(capsys):
    code, out, err = run_cli(["verify", "--suite", "bogus"], capsys)
    assert (code, out) == (2, "")
    lines = err.strip().splitlines()
    assert lines[0].startswith("usage: triharm verify")
    assert [line for line in lines if line.startswith("error:")] == lines[-1:]
    assert lines[-1].startswith("error: argument --suite: invalid choice: 'bogus'")
    # a --config flag without its file is reported the same way
    code, _, err = run_cli(["solve", "--config"], capsys)
    assert code == 2
    assert err.strip().splitlines()[-1] == "error: argument --config: expected one argument"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve", "--help"])
    assert err.value.code == 0
    assert "--element" in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["continuity", "local-interp", "patch"])
def test_verify_suite_with_nothing_to_check_is_a_config_error(suite, capsys):
    code, out, err = run_cli(["verify", "--suite", suite, "--dims", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "n >= 2" in err


@pytest.mark.parametrize("suite", ["unisolvence", "duality", "continuity"])
def test_verify_below_one_dimension_is_a_config_error(suite, capsys):
    code, out, err = run_cli(["verify", "--suite", suite, "--dims", "0"], capsys)
    assert (code, out, err) == (2, "", "error: dimensions must be >= 1, got 0\n")


def test_verify_without_dimensions_is_a_config_error(capsys):
    code, out, err = run_cli(["verify", "--suite", "duality", "--dims", ""], capsys)
    assert (code, out, err) == (2, "", "error: no dimensions given\n")


@pytest.mark.parametrize("args", [
    ["convergence", "--levels", "2,4", "--output", "{dir}/table.csv"],
    ["convergence", "--levels", "2,4", "--markdown", "{dir}/table.md"],
    ["solve", "--n", "2", "--dump", "{dir}/coeffs.txt"],
])
def test_unwritable_output_is_a_config_error(args, tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    args = [a.format(dir=missing) for a in args]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    lines = err.strip().splitlines()
    assert lines[-1].startswith(f"error: cannot write {missing}")
    assert "Traceback" not in err


def test_solution_dump(tmp_path, capsys):
    dump = tmp_path / "coeffs.txt"
    code, _, _ = run_cli(
        ["solve", "--case", "smooth2d", "--element", "adini", "--n", "2",
         "--dump", str(dump)], capsys)
    assert code == 0
    lines = dump.read_text().strip().splitlines()
    idx, val = lines[0].split()
    assert idx == "0"
    float(val)
    space_dofs = len(lines)
    assert space_dofs == 5 * 9  # Adini on a 2x2 grid


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = smooth2d\nelement = morley\nn = 2\n")
    code, out, _ = run_cli(["solve", "--config", str(cfg)], capsys)
    assert code == 0
    assert "element=morley" in out and "N=2" in out
    # explicit flag wins over the config value
    code, out, _ = run_cli(
        ["solve", "--config", str(cfg), "--element", "adini"], capsys)
    assert code == 0
    assert "element=adini" in out


def test_lshape_solve_matches_published_value(capsys):
    code, out, _ = run_cli(
        ["solve", "--case", "lshape2d", "--element", "adini", "--n", "2"],
        capsys)
    assert code == 0
    h3 = next(float(ln.split("=")[1]) for ln in out.splitlines()
              if ln.startswith("H3"))
    assert abs(h3 - 2.353) / 2.353 < 0.1


@pytest.mark.parametrize("where", [
    ["--config={cfg}", "solve"],
    ["--config", "{cfg}", "solve"],
    ["solve", "--config", "{cfg}"],
])
def test_config_file_is_honoured_before_or_after_the_subcommand(
        where, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("element = morley\nn = 2\n")
    code, out, _ = run_cli([a.format(cfg=cfg) for a in where], capsys)
    assert code == 0
    assert "element=morley" in out and "N=2" in out


def test_abbreviated_case_flag_is_not_read_as_config(capsys):
    code, out, _ = run_cli(["solve", "--c", "lshape2d", "--n", "2"], capsys)
    assert code == 0
    assert "case=lshape2d" in out


@pytest.mark.parametrize("text", [None, "element = morley\nn 2\n"])
def test_unusable_config_file_is_a_config_error(text, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    code, out, err = run_cli(["solve", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and str(cfg) in lines[0]


@pytest.mark.parametrize("work, args", [
    ("convergence_study", ["convergence", "--levels", "2,4", "--output"]),
    ("solve_case", ["solve", "--n", "2", "--dump"]),
], ids=["convergence", "solve-dump"])
def test_unwritable_output_fails_before_any_solve(work, args, tmp_path, capsys,
                                                  monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(f"triharm.cli.{work}", fail)
    missing = tmp_path / "no-such-dir" / "output.txt"
    code, out, err = run_cli([*args, str(missing)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {missing}")


def test_existing_output_is_kept_when_the_study_fails(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    csv_path.write_text("kept\n")
    code, _, _ = run_cli(["convergence", "--levels", "2,3",
                          "--output", str(csv_path)], capsys)
    assert code == 2
    assert csv_path.read_text() == "kept\n"


def test_new_output_is_removed_when_the_study_fails(tmp_path, capsys,
                                                   monkeypatch):
    csv_path, md_path = tmp_path / "new.csv", tmp_path / "new.md"
    code, _, err = run_cli(["convergence", "--levels", "2,3", "--output",
                            str(csv_path), "--markdown", str(md_path)], capsys)
    assert code == 2
    assert err.startswith("error: levels must double")
    assert not csv_path.exists() and not md_path.exists()

    # a run that fails after it created its output files removes them
    def breakdown(*args, **kwargs):
        assert all(path.exists() for path in created)
        raise SolverError("breakdown")

    dump = tmp_path / "coeffs.txt"
    for work, args, created in [
        ("convergence_study", ["convergence", "--levels", "2,4", "--output",
                               str(csv_path), "--markdown", str(md_path)],
         [csv_path, md_path]),
        ("solve_case", ["solve", "--n", "2", "--dump", str(dump)], [dump]),
    ]:
        monkeypatch.setattr(f"triharm.cli.{work}", breakdown)
        code, _, _ = run_cli(args, capsys)
        assert code == 3
        assert not any(path.exists() for path in created)


def test_cg_tolerance_that_is_not_positive_is_a_config_error(capsys):
    code, out, err = run_cli(
        ["solve", "--n", "2", "--solver", "cg", "--tol=-1"], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: CG tolerance must be finite and > 0, got -1.0"]


@pytest.mark.parametrize("args", [
    ["solve", "--n", "2"],
    ["verify", "--suite", "unisolvence", "--dims", "2"],
])
def test_closed_stdout_exits_quietly_with_the_sigpipe_status(args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    read_end, write_end = os.pipe()
    os.close(read_end)   # the reader is gone before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "triharm.cli", *args],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_readme_command_line_flags_match_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", section))

    def long_options(parser):
        for action in parser._actions:
            yield from (s for s in action.option_strings if s.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from long_options(sub)

    assert documented == set(long_options(build_parser())) - {"--help"}
