"""Broken norms, single solves, and the convergence-study driver."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from triharm import analysis, assembly
from triharm.analysis import (
    ErrorReport, broken_norms, check_levels, convergence_study, solve_case,
)
from triharm.assembly import DATA_Q, derivative_multiindices, gauss_rule
from triharm.cases import case_lshape2d, case_smooth2d, case_smooth3d, polynomial_case
from triharm.interpolation import canonical_interpolate, quasi_interpolate
from triharm.mesh import BoxDomain, uniform_mesh
from triharm.reference import ADINI_TYPE, MORLEY
from triharm.space import build_space
from test_solver import AlternatingCells

UNIT_SQUARE = BoxDomain((0.0, 0.0), (1.0, 1.0))


def test_broken_norms_of_known_polynomial():
    # coeffs = 0 turns the error norms into norms of u itself
    case = polynomial_case({(1, 0): 1}, UNIT_SQUARE)
    space = build_space(uniform_mesh(UNIT_SQUARE, (2, 2)), ADINI_TYPE)
    l2, h1, h2, h3 = broken_norms(space, np.zeros(space.n_dofs), case)
    assert l2 == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)
    assert h1 == pytest.approx(1.0, rel=1e-12)
    assert h2 == pytest.approx(0.0, abs=1e-13)
    assert h3 == pytest.approx(0.0, abs=1e-13)


def test_broken_norms_reject_coefficients_of_another_space():
    # N=8 coefficients read on the N=4 space would give a wrong H3 in silence
    case = case_smooth2d()
    space = build_space(case.mesh(4), ADINI_TYPE)
    for n in (8, 2):
        other = build_space(case.mesh(n), ADINI_TYPE)
        with pytest.raises(ValueError, match=rf"coefficient vector has shape "
                                             rf"\({other.n_dofs},\), expected "
                                             rf"\({space.n_dofs},\)"):
            broken_norms(space, np.zeros(other.n_dofs), case)


def test_broken_norms_mixed_multiplicity():
    # u = xy: |u|_2^2 integrates 2 (d_xy u)^2 = 2 via the 2!/(1!1!) weight
    case = polynomial_case({(1, 1): 1}, UNIT_SQUARE)
    space = build_space(uniform_mesh(UNIT_SQUARE, (2, 2)), ADINI_TYPE)
    h2 = broken_norms(space, np.zeros(space.n_dofs), case)[2]
    assert h2 == pytest.approx(math.sqrt(2.0), rel=1e-12)


def dense_broken_norms(space, coeffs, case, q=8):
    """Point-by-point reference: the exact solution at every quadrature
    point of every cell as one [m, dim] array."""
    mesh, elem = space.mesh, space.element
    rule = gauss_rule(q, mesh.dim)
    half = mesh.cell_half_lengths
    pts = mesh.cell_centers[:, None, :] + half[:, None, :] * rule.points[None, :, :]
    flat = pts.reshape(-1, mesh.dim)
    jac = np.prod(half, axis=1)
    ref_coeffs = coeffs[space.cell_dof_indices] * space.cell_scalings
    acc = np.zeros(4)
    for m in range(4):
        for alpha, mult in derivative_multiindices(mesh.dim, m):
            exact = case.derivative(alpha, flat).reshape(mesh.n_cells, -1)
            uh = ref_coeffs @ elem.eval_shape(alpha, rule.points).T
            uh = uh * np.prod(half ** (-np.array(alpha)), axis=1)[:, None]
            acc[m] += mult * float(np.sum(jac * ((exact - uh) ** 2 @ rule.weights)))
    return tuple(math.sqrt(v) for v in acc)


def quintic_case():
    # not in the Adini space: its errors (7e-4 ... 3.7 at N=4) lie far above
    # pytest.approx's absolute floor of 1e-12
    return polynomial_case({(5, 0): 1, (2, 3): -3, (0, 2): 1}, UNIT_SQUARE)


def solved(case, family, n):
    space, coeffs, _ = solve_case(case, family, n)
    return space, coeffs


def alternating(case, hi=None):
    """``case`` on cells whose widths alternate 1:2 (``AlternatingCells``),
    on the box [0, hi] if given, else on the case's own domain."""
    fields = {f.name: getattr(case, f.name) for f in dataclasses.fields(case)}
    if hi is not None:
        fields["domain"] = BoxDomain((0.0,) * case.dim, hi)
    return AlternatingCells(**fields)


ALTERNATING_BOX_3D = (1.0, 0.8, 1.3)


@pytest.mark.parametrize("make", [
    lambda: (case_smooth3d(), *solved(case_smooth3d(), MORLEY, 4)),
    lambda: (case_lshape2d(), *solved(case_lshape2d(), ADINI_TYPE, 8)),
    lambda: (quintic_case(), *solved(quintic_case(), ADINI_TYPE, 4)),
    lambda: (alternating(case_smooth3d(), ALTERNATING_BOX_3D),
             *solved(alternating(case_smooth3d(), ALTERNATING_BOX_3D),
                     ADINI_TYPE, (4, 6, 4))),
], ids=["smooth3d-morley4", "lshape2d-adini8", "quintic-adini4",
        "smooth3d-adini-alternating-4x6x4"])
def test_broken_norms_match_dense_reference(make, monkeypatch):
    case, space, coeffs = make()
    want = dense_broken_norms(space, coeffs, case)
    assert min(want) > 1e-6    # so that a zero result cannot pass
    # one block at the default size, then blocks of 7 cells, the last short
    assert space.mesh.n_cells % 7 != 0
    for block_points in (assembly.BLOCK_POINTS, 7 * DATA_Q ** space.dim + 5):
        monkeypatch.setattr(assembly, "BLOCK_POINTS", block_points)
        got = broken_norms(space, coeffs, case)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12)


def test_broken_norms_memory_stays_within_a_few_blocks(traced_peak):
    # smooth3d Morley N=16 has 4096 cells and 2M quadrature points: one
    # float64 array over all of them is 16 MB, a block's is 1 MB
    case = case_smooth3d()
    space = build_space(case.mesh(16), MORLEY)
    coeffs = np.zeros(space.n_dofs)
    assert traced_peak(lambda: broken_norms(space, coeffs, case)) <= 12 * 2 ** 20


def test_quasi_interpolation_memory_stays_within_a_few_blocks(traced_peak):
    # its moments come block by block as well: one grid over all 4096 cells
    # of smooth3d Morley N=16 peaked at 21 MB, blocks of 256 cells at 4 MB
    case = case_smooth3d()
    space = build_space(case.mesh(16), MORLEY)
    quasi_interpolate(space, case.u)     # warm the element's tables
    assert traced_peak(lambda: quasi_interpolate(space, case.u)) <= 8 * 2 ** 20


def test_every_call_sees_the_cells_last_in_blocks_of_own_cells(monkeypatch):
    # the load of assemble, the u of quasi_interpolate and every derivative
    # of broken_norms get the grids of cell_blocks: the q nodes of axis i on
    # array axis i, the cells on the last axis, every cell once and in
    # order, at its own centre + h * node
    case = alternating(case_smooth3d(), ALTERNATING_BOX_3D)
    mesh = case.mesh((4, 6, 4))
    half = mesh.cell_half_lengths
    # the 14-digit keys that group the cells for the stiffness differ here
    # from the cells' own half-lengths
    assert not np.array_equal(np.round(half, 14), half)
    block_points = 7 * DATA_Q ** 3 + 5
    assert mesh.n_cells % 7 != 0
    monkeypatch.setattr(assembly, "BLOCK_POINTS", block_points)

    seen: dict = {}

    def record(key, points):
        seen.setdefault(key, []).append(points)
        return points

    space = build_space(mesh, ADINI_TYPE)
    assembly.assemble(space, lambda p: case.source(record("load", p)))
    coeffs = quasi_interpolate(space, lambda p: case.u(record("u", p)))
    broken_norms(space, coeffs, dataclasses.replace(
        case, derivative=lambda alpha, p: case.derivative(alpha, record(alpha, p))))
    assert len(seen) == 2 + 20       # the load, u and 20 multi-indices

    nodes = gauss_rule(DATA_Q, 3).nodes[:, None]
    for key, grids in seen.items():
        assert len(grids) == math.ceil(mesh.n_cells / 7), key
        for grid in grids:
            assert len(grid) == 3
            for i, g in enumerate(grid):
                assert g.shape[:-1] == tuple(DATA_Q if j == i else 1 for j in range(3))
            assert g.shape[-1] * DATA_Q ** 3 <= block_points
        for i in range(3):
            got = np.concatenate([grid[i].reshape(DATA_Q, -1) for grid in grids], axis=1)
            assert np.array_equal(got, mesh.cell_centers[:, i] + half[:, i] * nodes), key


def test_broken_norms_scale_with_an_amplitude_wrapper():
    # the same wrapper as the benchmark's: the open grid passes through it
    c = 1.7
    case = case_smooth3d()
    space, coeffs = solved(case, MORLEY, 2)
    scaled = dataclasses.replace(
        case, derivative=lambda alpha, p: c * case.derivative(alpha, p))
    got = broken_norms(space, c * coeffs, scaled)
    for g, e in zip(got, broken_norms(space, coeffs, case)):
        assert g == pytest.approx(c * e, rel=1e-12)


def test_a_fractional_level_is_rejected_not_rounded():
    # solve_case(case, family, 3.9) used to solve N=3, and the study below
    # passed its doubling check with a row labelled 2.5 solved at N=2
    with pytest.raises(ValueError, match="integers"):
        solve_case(case_smooth2d(), MORLEY, 3.9)
    with pytest.raises(ValueError, match="integers"):
        convergence_study(case_smooth2d(), MORLEY, [2.5, 5])
    with pytest.raises(ValueError, match="integers"):
        solve_case(case_lshape2d(), ADINI_TYPE, 2.7)


def test_solve_case_reproduces_first_table_row():
    case = case_smooth2d()
    space, coeffs, report = solve_case(case, ADINI_TYPE, 4)
    errs = broken_norms(space, coeffs, case)
    expected = (1.142e-01, 7.092e-01, 8.272e+00, 1.436e+02)
    for got, want in zip(errs, expected):
        assert abs(got - want) / want < 0.1
    assert report.relative_residual < 1e-9


def test_lshape64_errors_stay_inside_the_benchmark_rtol():
    # the benchmark's tightest correctness check, read from its own file:
    # a change to the matrix bits moves these errors by up to ~1e-4
    path = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
    expected = json.loads(path.read_text())
    want = expected["solves"]["lshape2d/adini/64"]
    case = case_lshape2d()
    space, coeffs, report = solve_case(case, ADINI_TYPE, 64)
    assert space.n_dofs == want["dofs"]
    np.testing.assert_allclose(broken_norms(space, coeffs, case), want["errors"],
                               rtol=expected["rtol"], atol=0)
    assert report.relative_residual < 1e-9


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_coarsest_3d_solve_is_the_canonical_interpolant(family):
    # at smooth3d N=2 the solve returns the canonical interpolant, so the
    # reported H3 error (the known red 3D Morley entry) is the interpolation
    # error of the boundary data, not a solver error
    case = case_smooth3d()
    space, coeffs, _ = solve_case(case, family, 2)
    interp = canonical_interpolate(space, case)
    free = space.free_dofs()
    assert np.abs(coeffs[free] - interp[free]).max() < 1e-13
    h3 = broken_norms(space, coeffs, case)[3]
    assert h3 == pytest.approx(broken_norms(space, interp, case)[3], rel=1e-12)
    if family == MORLEY:
        assert h3 == pytest.approx(127.2353, rel=1e-6)


@pytest.mark.parametrize("case, family, n", [
    (case_smooth2d(), MORLEY, 4), (case_lshape2d(), ADINI_TYPE, 8),
    (case_smooth3d(), ADINI_TYPE, 2),
], ids=["smooth2d-morley-4", "lshape2d-adini-8", "smooth3d-adini-2"])
def test_direct_solve_case_never_forms_a_on_all_rows(case, family, n, monkeypatch):
    # the direct path builds A's rows where it reads them, never all of
    # them at once: the all-rows build and assemble raise, and every set
    # of rows built leaves some row out
    def refuse(*args, **kwargs):
        raise AssertionError("formed A on all rows")

    built = []
    real_call = assembly.RowBuilder.__call__

    def call(self, r):
        built.append((len(r), self.shape[0]))
        return real_call(self, r)

    monkeypatch.setattr(assembly.RowBuilder, "matrix", refuse)
    monkeypatch.setattr(assembly.RowBuilder, "__call__", call)
    monkeypatch.setattr(analysis, "assemble", refuse)
    monkeypatch.setattr(assembly, "assemble", refuse)
    space, coeffs, report = solve_case(case, family, n)
    assert report.method == "direct" and report.relative_residual < 1e-9
    assert built and all(size < rows for size, rows in built)
    assert coeffs.shape == (space.n_dofs,)


def test_solve_case_cg_matches_direct():
    case = case_smooth2d()
    _, direct, _ = solve_case(case, MORLEY, 4)
    _, viacg, rep = solve_case(case, MORLEY, 4, solver="cg", cg_tol=1e-12)
    assert rep.iterations > 0
    scale = np.abs(direct).max()
    assert np.abs(direct - viacg).max() < 1e-7 * scale


def test_convergence_study_orders_and_validation():
    case = case_smooth2d()
    report = convergence_study(case, ADINI_TYPE, [4, 8])
    assert report.levels == [4, 8]
    orders = report.orders()
    assert orders[0] == (None,) * 4
    assert orders[1][3] == pytest.approx(1.04, abs=0.1)
    # the one level rule, which the CLI reports as a configuration error
    for levels, message in (([4], "two"), ([4, 12], "must double"), ([0, 0], ">= 1")):
        with pytest.raises(ValueError, match=message):
            convergence_study(case, ADINI_TYPE, levels)
    with pytest.raises(ValueError, match="must be >= 1, got 0"):
        check_levels([0], study=False)


@pytest.mark.parametrize("make, sizes, want", [
    (case_smooth2d, (32, 64), {MORLEY: (2.002, 2.002, 2.003, 1.016),
                               ADINI_TYPE: (1.999, 2.002, 1.999, 1.001)}),
    # pre-asymptotic at these sizes (8 -> 16 gives H3 orders 1.13 and 1.04)
    (case_smooth3d, (4, 8), {MORLEY: (3.631, 3.063, 2.104, 1.407),
                             ADINI_TYPE: (4.087, 3.090, 2.069, 1.195)}),
], ids=["smooth2d", "smooth3d"])
def test_orders_hold_on_cells_of_unequal_widths(make, sizes, want):
    # every cell's half-lengths differ between axes, so a swap of axes in
    # the h^alpha scalings or the chain factors would move these orders
    case = alternating(make())
    for family, orders in want.items():
        errs = [broken_norms(*solved(case, family, (n,) * case.dim), case)
                for n in sizes]
        got = [math.log2(c / f) for c, f in zip(*errs)]
        assert got == pytest.approx(orders, abs=0.02)


def test_error_report_csv_and_markdown_format():
    report = ErrorReport("demo", "adini")
    report.add(4, 0.25, (1.0e-1, 2.0e-1, 3.0e-1, 4.0e-1))
    report.add(8, 0.125, (2.5e-2, 5.0e-2, 7.5e-2, 2.0e-1))
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "N,h,e0,order0,e1,order1,e2,order2,e3,order3"
    assert lines[1].startswith("4,2.500000e-01,1.000000e-01,,")
    assert ",2.00," in lines[2] and lines[2].endswith("1.00")
    md = report.to_markdown()
    assert md.count("|") > 10 and "2.00" in md


def test_convergence_study_reports_the_largest_cell_width_as_h():
    # h is twice the largest half-length: 1/N on the unit square
    report = convergence_study(case_smooth2d(), MORLEY, [4, 8])
    assert report.h == [0.25, 0.125]
    assert report.to_csv().splitlines()[1].startswith("4,2.500000e-01,")


def test_unknown_solver_rejected():
    with pytest.raises(ValueError):
        solve_case(case_smooth2d(), ADINI_TYPE, 2, solver="gmres")
