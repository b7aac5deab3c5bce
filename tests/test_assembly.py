"""Quadrature, element matrices, and global assembly of the sixth-order form."""

from types import SimpleNamespace

import numpy as np
import pytest

from triharm.assembly import (
    _cell_groups, apply_dirichlet, assemble, derivative_multiindices,
    element_load, element_stiffness, gauss_rule,
)
from triharm.cases import polynomial_case
from triharm.interpolation import canonical_interpolate
from triharm.mesh import BoxDomain, uniform_mesh
from triharm.polynomials import Polynomial
from triharm.reference import ADINI_TYPE, MORLEY, Q1, apply_dof, build_dual_basis
from triharm.space import build_space

UNIT_SQUARE = BoxDomain((0.0, 0.0), (1.0, 1.0))


def test_gauss_rule_polynomial_exactness():
    rule = gauss_rule(6, 1)
    x = rule.points[:, 0]
    for k in (0, 2, 5, 10, 11):
        exact = float(Polynomial.monomial(1, (k,)).integrate_box([-1], [1]))
        assert abs(rule.weights @ x ** k - exact) < 1e-14


def test_gauss_rule_tensor_weights():
    rule = gauss_rule(4, 3)
    assert rule.points.shape == (64, 3)
    assert rule.weights.sum() == pytest.approx(8.0)  # volume of [-1,1]^3
    # points are the tensor product of the nodes, last axis fastest
    grid = np.stack(np.meshgrid(*[rule.nodes] * 3, indexing="ij"), axis=-1)
    np.testing.assert_array_equal(rule.points, grid.reshape(-1, 3))


def test_derivative_multiindices_order3():
    pairs = dict(derivative_multiindices(2, 3))
    assert pairs == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    assert sum(dict(derivative_multiindices(3, 3)).values()) == 27  # 3^3 tuples


def test_reference_stiffness_rank_and_quadratic_kernel():
    elem = build_dual_basis(MORLEY, 2)
    k = element_stiffness(np.ones(2), elem, gauss_rule(6, 2))
    assert k.shape == (16, 16)
    assert np.allclose(k, k.T, atol=1e-12)
    eig = np.linalg.eigvalsh(k)
    assert np.sum(np.abs(eig) < 1e-9 * np.abs(eig).max()) == 6  # dim P2
    # quadratics lie exactly in the kernel
    for exps in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        mono = Polynomial.monomial(2, exps)
        vec = np.array([float(apply_dof(d, mono, 2)) for d in elem.dofs])
        assert np.linalg.norm(k @ vec) < 1e-10 * np.abs(eig).max()


def test_stiffness_scaling_law():
    # uniform scaling h -> s h multiplies the reference-DoF matrix by s^(n-6)
    rule = gauss_rule(6, 2)
    elem = build_dual_basis(ADINI_TYPE, 2)
    k1 = element_stiffness(np.array([0.5, 0.5]), elem, rule)
    k2 = element_stiffness(np.array([0.25, 0.25]), elem, rule)
    s = 0.5
    np.testing.assert_allclose(k2, s ** (2 - 6) * k1, rtol=1e-12, atol=1e-10)


def test_unit_load_against_exact_integrals():
    elem = build_dual_basis(Q1, 2)
    rule = gauss_rule(8, 2)
    f = lambda pts: np.ones(pts.shape[0])
    load = element_load(np.zeros(2), np.ones(2), elem, rule, f)
    # each Q1 basis function integrates to 1 over the reference cell
    np.testing.assert_allclose(load, np.ones(4), rtol=1e-13)
    exact = [float(phi.integrate_box([-1, -1], [1, 1])) for phi in elem.basis]
    np.testing.assert_allclose(load, exact, rtol=1e-13)


def test_two_cell_global_assembly_structure():
    mesh = uniform_mesh(BoxDomain((0.0, 0.0), (2.0, 1.0)), (2, 1))
    space = build_space(mesh, MORLEY)
    assert space.n_dofs == 25  # 6 vertices x 3 + 7 faces
    system = assemble(space, None, gauss_rule(6, 2), gauss_rule(8, 2))
    a = system.matrix.toarray()
    assert a.shape == (25, 25)
    assert np.allclose(a, a.T, atol=1e-10 * np.abs(a).max())
    assert np.allclose(system.rhs, 0.0)


def test_global_quadratic_in_kernel():
    x, y = (Polynomial.variable(2, i) for i in range(2))
    u = 1 + 2 * x - y + x ** 2 + 3 * x * y - 2 * y ** 2
    case = polynomial_case(u, UNIT_SQUARE)
    for family in (MORLEY, ADINI_TYPE):
        space = build_space(uniform_mesh(UNIT_SQUARE, (2, 2)), family)
        system = assemble(space, None, gauss_rule(6, 2), gauss_rule(8, 2))
        coeffs = canonical_interpolate(space, case)
        resid = system.matrix @ coeffs
        scale = abs(system.matrix).max() * np.abs(coeffs).max()
        assert np.abs(resid[space.free_dofs()]).max() < 1e-10 * scale


def test_dirichlet_elimination_readback():
    case = polynomial_case(Polynomial.variable(2, 0) ** 3, UNIT_SQUARE)
    space = build_space(uniform_mesh(UNIT_SQUARE, (2, 2)), ADINI_TYPE)
    system = assemble(space, case.source, gauss_rule(6, 2), gauss_rule(8, 2))
    bvals = canonical_interpolate(space, case)[space.boundary_dofs()]
    reduced = apply_dirichlet(system, bvals)
    assert reduced.matrix.shape[0] == len(space.free_dofs())
    full = reduced.reconstruct(np.zeros(reduced.matrix.shape[0]))
    np.testing.assert_array_equal(full[space.boundary_dofs()], bvals)


def test_insufficient_stiffness_rule_rejected():
    space = build_space(uniform_mesh(UNIT_SQUARE, (1, 1)), MORLEY)
    with pytest.raises(ValueError):
        assemble(space, None, gauss_rule(3, 2), gauss_rule(8, 2))


def test_cell_groups_match_a_per_cell_loop():
    # three distinct half-lengths, one differing only below the rounding
    rng = np.random.default_rng(3)
    sizes = np.array([[0.25, 0.5], [0.125, 0.5], [0.25, 0.5 + 1e-15]])
    half = sizes[rng.integers(0, 3, size=40)]
    space = SimpleNamespace(mesh=SimpleNamespace(cell_half_lengths=half))
    want: dict[tuple, list[int]] = {}
    for ci, h in enumerate(half):
        want.setdefault(tuple(np.round(h, 14)), []).append(ci)
    got = _cell_groups(space)
    assert list(got) == list(want)
    for key, cells in want.items():
        assert got[key].tolist() == cells
