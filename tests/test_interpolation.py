"""Canonical and projection-averaging interpolation operators."""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg

from test_solver import CUBICS
from triharm.analysis import broken_norms
from triharm.assembly import DATA_Q, gauss_rule
from triharm.cases import (
    case_lshape2d, case_smooth2d, case_smooth3d, monomials_case, polynomial_case,
)
from triharm.interpolation import (
    boundary_values_from_case, canonical_interpolate, quasi_interpolate,
)
from triharm.mesh import BoxDomain, lshape_mesh, uniform_mesh
from triharm.reference import ADINI_TYPE, MORLEY, build_dual_basis
from triharm.space import build_space

UNIT_SQUARE = BoxDomain((0.0, 0.0), (1.0, 1.0))


def cubic_case():
    return polynomial_case(CUBICS[2], UNIT_SQUARE)


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_canonical_reproduces_cubics(family):
    case = cubic_case()
    space = build_space(uniform_mesh(UNIT_SQUARE, (3, 2)), family)
    coeffs = canonical_interpolate(space, case)
    errs = broken_norms(space, coeffs, case)
    assert all(e < 1e-11 for e in errs)


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_quasi_interpolation_reproduces_cubics(family):
    # cubics lie in the shape space, so the local projection is exact and
    # every incident cell reads the same DoF value
    case = cubic_case()
    space = build_space(uniform_mesh(UNIT_SQUARE, (3, 2)), family)
    coeffs = quasi_interpolate(space, case.u)
    errs = broken_norms(space, coeffs, case)
    # tolerance reflects the conditioning of the local mass matrix (up to
    # 5e5 in 2D), which the Cholesky solve meets at ~1e-9 in H3
    assert all(e < 1e-8 for e in errs)


def test_quasi_zero_boundary_variant():
    case = case_smooth2d()
    space = build_space(uniform_mesh(UNIT_SQUARE, (4, 4)), ADINI_TYPE)
    coeffs = quasi_interpolate(space, case.u, zero_boundary=True)
    assert np.allclose(coeffs[space.boundary_dofs()], 0.0)
    assert np.abs(coeffs[space.free_dofs()]).max() > 0


def test_canonical_matches_derivative_functionals():
    case = case_smooth2d()
    space = build_space(uniform_mesh(UNIT_SQUARE, (2, 2)), MORLEY)
    coeffs = canonical_interpolate(space, case)
    # value and gradient at 9 vertices, then the normal second derivative
    # at the 6 faces of each axis
    assert space.dof_alpha == (
        [(0, 0), (1, 0), (0, 1)] * 9 + [(2, 0)] * 6 + [(0, 2)] * 6)
    for gi, alpha in enumerate(space.dof_alpha):
        pt = space.dof_points[gi][None, :]
        assert coeffs[gi] == pytest.approx(float(case.derivative(alpha, pt)[0]))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_one_call_gives_every_cubic_monomial_interpolant_bit_for_bit(family, n):
    # the patch test's table: a column per monomial, each the bits of its
    # own interpolation through polynomial_case, on both patch meshes
    box = BoxDomain((0.0,) * n, (1.0,) * n)
    cubics = [e for e in itertools.product(range(4), repeat=n) if sum(e) <= 3]
    for subs in ((2,) * n, (4,) + (2,) * (n - 1)):
        space = build_space(uniform_mesh(box, subs), family)
        table = canonical_interpolate(space, monomials_case(cubics, box))
        assert table.shape == (space.n_dofs, len(cubics))
        for column, e in zip(table.T, cubics):
            want = canonical_interpolate(space, polynomial_case({e: 1}, box))
            assert np.array_equal(column.view(np.int64), want.view(np.int64)), e


def test_boundary_values_ordering():
    case = case_smooth2d()
    space = build_space(uniform_mesh(UNIT_SQUARE, (2, 2)), ADINI_TYPE)
    bvals = boundary_values_from_case(space, case)
    full = canonical_interpolate(space, case)
    np.testing.assert_array_equal(bvals, full[space.boundary_dofs()])


def test_quasi_interpolation_first_order_h3_decay():
    case = case_smooth2d()
    errs = []
    for n in (4, 8):
        space = build_space(uniform_mesh(UNIT_SQUARE, (n, n)), ADINI_TYPE)
        coeffs = quasi_interpolate(space, case.u)
        errs.append(broken_norms(space, coeffs, case)[3])
    rate = np.log2(errs[0] / errs[1])
    assert rate == pytest.approx(1.0, abs=0.3)


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_canonical_makes_the_same_derivative_calls_as_a_per_dof_loop(family):
    space = build_space(lshape_mesh(2), family)
    calls = []

    def recording(alpha, points):
        calls.append((alpha, points.copy()))
        return case_lshape2d().derivative(alpha, points)

    case = dataclasses.replace(case_lshape2d(), derivative=recording)
    coeffs = canonical_interpolate(space, case)
    groups: dict[tuple, list[int]] = {}
    for gi, alpha in enumerate(space.dof_alpha):
        groups.setdefault(alpha, []).append(gi)
    assert len(calls) == len(groups)
    want = np.empty(space.n_dofs)
    for (alpha, points), (group_alpha, idx) in zip(calls, groups.items()):
        assert alpha == group_alpha
        np.testing.assert_array_equal(points, space.dof_points[idx])
        want[idx] = case_lshape2d().derivative(alpha, points)
    np.testing.assert_array_equal(coeffs, want)


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
@pytest.mark.parametrize("n", [2, 3])
def test_the_mass_matrix_is_the_elements_grammian_of_the_values(family, n,
                                                                monkeypatch):
    # quasi_interpolate factors the element's cached Grammian, which has the
    # bits of phi^T (w phi) on the DATA_Q rule
    elem, rule = build_dual_basis(family, n), gauss_rule(DATA_Q, n)
    phi = np.matmul(*elem.monomial_table((0,) * n, rule))
    mass = elem.grammian((0,) * n, rule)
    want = phi.T @ (rule.weights[:, None] * phi)
    assert np.array_equal(mass.view(np.int64), want.view(np.int64))
    assert not mass.flags.writeable
    factored = []
    cho_factor = scipy.linalg.cho_factor
    monkeypatch.setattr(scipy.linalg, "cho_factor",
                        lambda a: factored.append(a) or cho_factor(a))
    space = build_space(uniform_mesh(BoxDomain((0.0,) * n, (1.0,) * n), 2), family)
    quasi_interpolate(space, lambda grid: 1.0)
    assert len(factored) == 1 and factored[0] is mass


def dense_quasi_interpolate(space, u):
    """The projection-averaging interpolant from ``u`` at every cell's
    Gauss points as one dense [m, dim] array, projected by one
    points-by-cells product and a Cholesky solve, and averaged by
    ``np.bincount``."""
    mesh, elem = space.mesh, space.element
    rule = gauss_rule(DATA_Q, mesh.dim)
    phi = elem.eval_shape((0,) * mesh.dim, rule.points)
    factor = scipy.linalg.cho_factor(phi.T @ (rule.weights[:, None] * phi))
    pts = mesh.cell_centers + mesh.cell_half_lengths * rule.points[:, None, :]
    uv = u(pts.reshape(-1, mesh.dim)).reshape(len(rule.weights), -1)
    moments = uv.T @ (rule.weights[:, None] * phi)
    readings = scipy.linalg.cho_solve(factor, moments.T).T / space.cell_scalings
    dofs = space.cell_dof_indices.ravel()
    return (np.bincount(dofs, readings.ravel(), space.n_dofs)
            / np.bincount(dofs, minlength=space.n_dofs))


@pytest.mark.parametrize("case, mesh, family", [
    (case_lshape2d(), lambda: lshape_mesh(4), ADINI_TYPE),
    (case_smooth3d(), lambda: case_smooth3d().mesh(2), MORLEY),
], ids=["lshape4-adini", "smooth3d2-morley"])
def test_quasi_interpolation_on_the_open_grid_matches_dense_points(case, mesh, family):
    space = build_space(mesh(), family)
    got = quasi_interpolate(space, case.u)
    assert np.array_equal(got, dense_quasi_interpolate(space, case.u))
