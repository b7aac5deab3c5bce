"""Reference element: shape spaces, DoF sets, dual bases, closed forms."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from triharm import reference
from triharm.assembly import derivative_multiindices, gauss_rule
from triharm.polynomials import Polynomial, det, invert
from triharm.reference import (
    ADINI_CLASSIC, ADINI_TYPE, MORLEY, Q1, apply_dof, build_dual_basis,
    dof_matrix, dof_set, family_from_name, morley_closed_form, partial_adini,
    q1_closed_form, shape_space, unisolvence_determinant,
)
from triharm.verify import _families_for


def test_shape_space_sizes():
    for n in range(1, 5):
        assert len(shape_space(ADINI_TYPE, n)) == 2 ** n * (2 * n + 1)
        assert len(shape_space(Q1, n)) == 2 ** n
        assert len(shape_space(ADINI_CLASSIC, n)) == 2 ** n * (n + 1)
    assert len(shape_space(MORLEY, 2)) == 16
    assert len(shape_space(MORLEY, 3)) == (3 + 1) * 2 ** 3 + 2 * 3  # 38


def test_dof_counts():
    assert len(dof_set(MORLEY, 2)) == 16          # 4 vertices x 3 + 4 faces
    assert len(dof_set(MORLEY, 3)) == 38          # 8 x 4 + 6 faces
    assert len(dof_set(ADINI_TYPE, 3)) == 56      # 8 x 7
    assert len(dof_set(ADINI_TYPE, 2)) == 20
    for n in (1, 2, 3):
        # one value and one directional derivative per vertex
        assert len(dof_set(partial_adini(0), n)) == 2 ** n * 2


def test_q1_closed_form_is_nodal():
    for n in (2, 3):
        elem = build_dual_basis(Q1, n)
        closed = q1_closed_form(n)
        assert all(a == b for a, b in zip(elem.basis, closed))


def test_morley_closed_form_matches_dual_basis():
    for n in (2, 3):
        elem = build_dual_basis(MORLEY, n)
        closed = morley_closed_form(n)
        assert all(a == b for a, b in zip(elem.basis, closed))


def test_morley_face_function_formula():
    # the +-side face function along axis k is (1/16)(xi_k^2-1)^2 (xi_k+1)
    n = 2
    elem = build_dual_basis(MORLEY, n)
    x0 = Polynomial.variable(n, 0)
    expected = Fraction(1, 16) * (x0 ** 2 - 1) ** 2 * (x0 + 1)
    face_plus = None
    for dof, phi in zip(elem.dofs, elem.basis):
        if dof.face == (0, 1):
            face_plus = phi
    assert face_plus == expected


def test_kronecker_delta_property():
    for fam, n in ((MORLEY, 2), (ADINI_TYPE, 2), (MORLEY, 3)):
        elem = build_dual_basis(fam, n)
        for j, dof in enumerate(elem.dofs):
            for i, phi in enumerate(elem.basis):
                assert apply_dof(dof, phi, n) == (1 if i == j else 0)


def test_value_partition_of_unity():
    for fam, n in ((MORLEY, 2), (MORLEY, 3), (ADINI_TYPE, 2)):
        elem = build_dual_basis(fam, n)
        total = Polynomial.zero(n)
        for dof, phi in zip(elem.dofs, elem.basis):
            if not any(dof.alpha):
                total = total + phi
        assert total == Polynomial.constant(n, 1)


def test_unisolvence_determinants_nonzero():
    for n in range(1, 5):
        assert unisolvence_determinant(ADINI_TYPE, n) != 0
    for n in (2, 3, 4):
        assert unisolvence_determinant(MORLEY, n) != 0


def test_family_from_name():
    assert family_from_name("Morley-Type") == MORLEY
    assert family_from_name("adini") == ADINI_TYPE
    assert family_from_name("partial-adini", axis=1) == partial_adini(1)
    with pytest.raises(ValueError):
        family_from_name("hermite")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dof_matrix_matches_applied_functionals(n):
    # oracle: apply every DoF functional to every shape monomial
    for family in _families_for(n):
        monomials = shape_space(family, n)
        expected = [[apply_dof(d, Polynomial.monomial(n, m), n) for m in monomials]
                    for d in dof_set(family, n)]
        matrix = dof_matrix(family, n)
        assert matrix == expected, family
        assert all(type(v) is int for row in matrix for v in row)


def test_adini_4d_inverse_is_exact():
    vmat = dof_matrix(ADINI_TYPE, 4)
    inv, d = invert(vmat)
    m = len(vmat)
    assert m == 144
    # the denominator is det(V), and V times the numerators is d I in ints
    assert det(vmat) == d
    assert all(type(v) is int for row in inv for v in row)
    prod = [[sum(vmat[i][k] * inv[k][j] for k in range(m)) for j in range(m)]
            for i in range(m)]
    assert prod == [[d if i == j else 0 for j in range(m)] for i in range(m)]


def test_singular_dof_matrix_does_not_pair(monkeypatch):
    real = reference.shape_space

    def repeated(family, n):
        mono = real(family, n)
        return mono[:-1] + mono[:1]

    monkeypatch.setattr(reference, "shape_space", repeated)
    monkeypatch.setattr(reference, "_element_cache", {})
    with pytest.raises(ValueError, match="do not pair"):
        build_dual_basis(MORLEY, 2)


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
@pytest.mark.parametrize("n", [2, 3])
def test_eval_shape_is_the_exact_derivative(family, n):
    # Gauss points, random points off every symmetry plane (a table with
    # its axes swapped cannot agree), and dyadic points where the exact
    # rational values are cheap
    elem = build_dual_basis(family, n)
    dyadic = [(Fraction(1, 4), Fraction(-1, 2)) + (Fraction(3, 8),) * (n - 2),
              (Fraction(0),) * n, (Fraction(1),) * n]
    pts = np.vstack([gauss_rule(4, n).points,
                     np.random.default_rng(7 + n).uniform(-1.0, 1.0, size=(13, n)),
                     np.array(dyadic, dtype=float)])
    degree = elem.max_degree_per_axis()
    # every order up to the shape degree per axis, and one past it
    for alpha in itertools.product(range(degree + 2), repeat=n):
        got = elem.eval_shape(alpha, pts)
        assert got.shape == (len(pts), elem.n_dofs)
        if max(alpha) > degree:
            assert not got.any()
            continue
        direct = [phi.diff_multi(alpha) for phi in elem.basis]
        # the float sum of the exact derivative's terms, and its exact
        # values at the dyadic points
        want = np.stack([d.eval_grid(pts) for d in direct], axis=1)
        want[-len(dyadic):] = [[float(d(p)) for d in direct] for p in dyadic]
        scale = np.abs(want).max(axis=0)
        assert (np.abs(got - want) <= 1e-13 * scale).all(), alpha


def test_eval_shape_checks_its_arguments():
    elem = build_dual_basis(ADINI_TYPE, 2)
    with pytest.raises(ValueError, match="wrong dimension"):
        elem.eval_shape((0, 0), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="wrong length"):
        elem.eval_shape((0, 0, 0), np.zeros((1, 2)))


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_monomial_table_keeps_the_monomials_past_alpha(family, n):
    # its values are those of eval_shape, checked against the exact basis
    elem = build_dual_basis(family, n)
    pts = gauss_rule(4, n).points
    for order in range(4):
        for alpha, _ in derivative_multiindices(n, order):
            table, coeffs = elem.monomial_table(alpha, pts)
            kept = [m for m in elem.monomials if min(np.subtract(m, alpha)) >= 0]
            assert table.shape == (len(pts), len(kept))
            assert coeffs.shape == (len(kept), elem.n_dofs)
