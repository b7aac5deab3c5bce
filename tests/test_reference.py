"""Reference element: shape spaces, DoF sets, dual bases, closed forms."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from oracle import Polynomial, apply_dof, basis, q1_closed_form
from triharm import reference, verify
from triharm.assembly import derivative_multiindices, gauss_rule
from triharm.reference import (
    ADINI_CLASSIC, ADINI_TYPE, MORLEY, Q1, build_dual_basis, certified_inverse,
    coefficient, dof_matrix, dof_rows, dof_set, exact_product, family_from_name,
    functional_rows, is_exact_inverse, mean, morley_closed_form, partial_adini,
    shape_space,
)
from triharm.verify import _families_for


@pytest.fixture
def fresh_elements():
    """An empty element cache, so a patched build is not read from it,
    emptied again afterwards, so no patched element outlives the test."""
    build_dual_basis.cache_clear()
    yield
    build_dual_basis.cache_clear()


def gauss_jordan_inverse(matrix):
    """Oracle: plain Gauss-Jordan elimination over Fractions (zero entries
    are skipped, which keeps the 4D elements to seconds)."""
    m = len(matrix)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(m)]
         for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        a[col] = [v / p if v else v for v in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w if w else v for v, w in zip(a[r], a[col])]
    return [row[m:] for row in a]


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
        assert all(a == b for a, b in zip(basis(elem), closed))


def closed_form_polynomials(functions, n):
    """The integer closed form as exact polynomials: each function the sum
    of its terms' products of univariate factors, over 2^(n+3)."""
    factor = lambda k, p: Polynomial(n, {tuple(e * (i == k) for i in range(n)): int(c)
                                         for e, c in enumerate(p)})
    scale = Polynomial.constant(n, Fraction(1, 2 ** (n + 3)))
    return [sum((math.prod(map(factor, range(n), factors), start=scale)
                 for factors in terms), Polynomial.zero(n)) for terms in functions]


def test_morley_closed_form_matches_dual_basis():
    for n in (2, 3):
        elem = build_dual_basis(MORLEY, n)
        closed = morley_closed_form(n)
        assert len(closed) == elem.n_dofs
        assert all(p.dtype == np.int64 for terms in closed for t in terms for p in t)
        assert closed_form_polynomials(closed, n) == basis(elem)


def test_morley_face_function_formula():
    # the +-side face function along axis k is (1/16)(xi_k^2-1)^2 (xi_k+1)
    n = 2
    elem = build_dual_basis(MORLEY, n)
    x0 = Polynomial.variable(n, 0)
    expected = Fraction(1, 16) * (x0 ** 2 - 1) ** 2 * (x0 + 1)
    face_plus = None
    for dof, phi in zip(elem.dofs, basis(elem)):
        if dof.face == (0, 1):
            face_plus = phi
    assert face_plus == expected


def test_kronecker_delta_property():
    for fam, n in ((MORLEY, 2), (ADINI_TYPE, 2), (MORLEY, 3)):
        elem = build_dual_basis(fam, n)
        phis = basis(elem)
        for j, dof in enumerate(elem.dofs):
            for i, phi in enumerate(phis):
                assert apply_dof(dof, phi, n) == (1 if i == j else 0)


def test_value_partition_of_unity():
    for fam, n in ((MORLEY, 2), (MORLEY, 3), (ADINI_TYPE, 2)):
        elem = build_dual_basis(fam, n)
        total = Polynomial.zero(n)
        for dof, phi in zip(elem.dofs, basis(elem)):
            if not any(dof.alpha):
                total = total + phi
        assert total == Polynomial.constant(n, 1)


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certified_inverse_is_the_exact_inverse(n):
    for family in _families_for(n):
        matrix = dof_matrix(family, n)
        coeffs, d = certified_inverse(matrix)
        assert all(type(v) is int for row in coeffs for v in row)
        # d is a power of two, and the smallest: some numerator is odd
        assert d & (d - 1) == 0
        assert d == 1 or any(v % 2 for row in coeffs for v in row), family
        exact = [[Fraction(v, d) for v in row] for row in coeffs]
        assert exact == gauss_jordan_inverse(matrix), family


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_built_float_coefficients_round_the_exact_inverse(n):
    for family in _families_for(n):
        elem = build_dual_basis(family, n)
        exact = gauss_jordan_inverse(dof_matrix(family, n))
        got = [[v / elem.denominator for v in row] for row in elem.coeffs]
        assert got == [[float(v) for v in row] for row in exact], family


@pytest.mark.parametrize("matrix", [[[1, 2], [2, 4]], [[2, 1], [1, 2]]],
                         ids=["singular", "inverse-over-3"])
def test_a_matrix_without_a_dyadic_inverse_is_not_certified(matrix, monkeypatch,
                                                           fresh_elements):
    with pytest.raises(ValueError, match="not certified"):
        certified_inverse(matrix)
    # as the DoF matrix of every family: no element, and no unisolvence
    monkeypatch.setattr(reference, "dof_matrix", lambda family, n: matrix)
    with pytest.raises(ValueError, match="not certified"):
        build_dual_basis(Q1, 1)
    rep = verify.verify_unisolvence((1,))
    assert rep.items[0] == ("q1 n=1", False, "not certified")
    assert not any(ok for _, ok, _ in rep.items)


def test_exact_inverse_check_stays_inside_int64():
    assert is_exact_inverse([[2, 0], [0, 4]], [[2, 0], [0, 1]], 4)
    assert not is_exact_inverse([[2, 0], [0, 4]], [[2, 0], [0, 1]], 8)
    # true, but with a denominator of 2^62 or more: not certified
    assert not is_exact_inverse([[2 ** 31]], [[2 ** 31]], 2 ** 62)
    assert not is_exact_inverse([[1]], [[2 ** 70]], 2 ** 70)
    # products past the int64 bound run in Python ints, and certify
    a = 2 ** 40
    assert is_exact_inverse([[a, a - 1], [1, 1]], [[1, 1 - a], [-1, a]], 1)
    assert not is_exact_inverse([[a, a - 1], [1, 1]], [[1, 2 - a], [-1, a]], 1)


def test_exact_product_leaves_int64_only_past_the_bound():
    small = exact_product([[3, -1], [0, 2]], [[1, 0], [5, 7]], [2, 1])
    assert small.dtype == np.int64 and small.tolist() == [[-4, -7], [20, 14]]
    # 2^31 * 2^31 = 2^62 is past the bound: Python ints, exact, no wrap
    big = exact_product([[2 ** 31, 2 ** 31]], [[2 ** 31], [2 ** 31]])
    assert big.dtype == object and big.tolist() == [[2 ** 63]]
    # a 1-D factor is a diagonal matrix, on either side
    assert exact_product([2, 3], [[1, 1], [1, 1]]).tolist() == [[2, 2], [3, 3]]
    assert exact_product([[2 ** 40]], [2 ** 40]).tolist() == [[2 ** 80]]


def test_mean_is_scaled_to_integers_by_its_degree():
    factor = mean(5)             # lcm(1, 3, 5) = 15
    assert [factor(e) for e in range(6)] == [15, 0, 5, 0, 3, 0]
    assert mean(1)(0) == 1 and mean(7)(6) == 105 // 7


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_functional_row_matches_the_polynomial_oracle(family):
    # F(d^alpha x^m) for F = value at x0 = -1, mean over x1, coefficient of
    # x2^t, against the exact derivative, evaluation and box integral
    monomials = shape_space(family, 3)
    degree = max(map(max, monomials))
    scale = math.lcm(*range(1, degree + 2, 2))
    for alpha in ((0, 0, 0), (2, 0, 0), (0, 1, 1), (1, 2, 0)):
        for t in range(4):
            [row] = functional_rows(
                [(alpha, [-1, mean(degree), coefficient(t)])], monomials)
            want = []
            for m in monomials:
                d = Polynomial.monomial(3, m).diff_multi(alpha)
                value = 0
                for (e0, e1, e2), c in d.terms.items():
                    line = Polynomial.monomial(1, (e1,))
                    value += (c * (-1) ** e0 * line.integrate_box([-1], [1]) / 2
                              * scale * (e2 == t))
                want.append(value)
            assert row == want, (alpha, t)
            assert all(type(v) is int for v in row)


def loop_row(alpha, factors, monomials):
    """Reference: one functional's row, a Python product per monomial."""
    width = max(map(max, monomials)) + 1
    tables = [[math.perm(m, a) * (f(m - a) if callable(f) else f ** (m - a))
               if m >= a else 0 for m in range(width)]
              for a, f in zip(alpha, factors)]
    return [math.prod(map(list.__getitem__, tables, m)) for m in monomials]


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_functional_rows_match_a_loop_in_int64_and_past_it(family):
    # the values 2^30 and -3^20 at a point push the products past int64,
    # which the rows must carry in Python ints, not wrap
    monomials = shape_space(family, 3)
    functionals = [((0, 0, 0), [-1, 0, 1]), ((1, 0, 2), [1, mean(5), coefficient(1)]),
                   ((0, 2, 0), [2 ** 30, 2 ** 30, -3 ** 20]),
                   ((2, 1, 0), [mean(5), -3 ** 20, 2 ** 30])]
    rows = functional_rows(functionals, monomials)
    assert rows == [loop_row(a, f, monomials) for a, f in functionals]
    assert max(abs(v) for v in rows[2]) >= 2 ** 63
    assert all(type(v) is int for row in rows for v in row)


def test_dof_rows_shift_the_derivative():
    elem = build_dual_basis(Q1, 2)
    cubics = [(3, 0), (1, 2), (0, 0)]
    shifted = dof_rows(elem.dofs, cubics, (1, 0))
    want = [[apply_dof(d, Polynomial.monomial(2, m).diff(0), 2) for m in cubics]
            for d in elem.dofs]
    assert shifted == want


def test_singular_dof_matrix_does_not_pair(monkeypatch, fresh_elements):
    real = reference.shape_space

    def repeated(family, n):
        mono = real(family, n)
        return mono[:-1] + mono[:1]

    monkeypatch.setattr(reference, "shape_space", repeated)
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
    degree, phis = elem.max_degree_per_axis(), basis(elem)
    # every order up to the shape degree per axis, and one past it
    for alpha in itertools.product(range(degree + 2), repeat=n):
        got = elem.eval_shape(alpha, pts)
        assert got.shape == (len(pts), elem.n_dofs)
        if max(alpha) > degree:
            assert not got.any()
            continue
        direct = [phi.diff_multi(alpha) for phi in phis]
        # the float sum of the exact derivative's terms, and its exact
        # values at the dyadic points
        want = np.stack([d(tuple(pts.T)) for d in direct], axis=1)
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
    # its product is eval_shape at the rule's points, checked against the
    # exact basis above
    elem = build_dual_basis(family, n)
    rule = gauss_rule(4, n)
    for order in range(4):
        for alpha, _ in derivative_multiindices(n, order):
            table, coeffs = elem.monomial_table(alpha, rule)
            kept = [m for m in elem.monomials if min(np.subtract(m, alpha)) >= 0]
            assert table.shape == (len(rule.points), len(kept))
            assert coeffs.shape == (len(kept), elem.n_dofs)
            assert np.array_equal(table @ coeffs, elem.eval_shape(alpha, rule.points))
            assert elem.monomial_table(alpha, rule)[0] is table


def test_eval_shape_at_fresh_points_adds_no_cache_entry():
    elem = build_dual_basis(ADINI_TYPE, 2)
    before = list(elem._table_cache)
    rng = np.random.default_rng(11)
    for alpha in [(0, 0), (1, 2), (3, 0)]:
        elem.eval_shape(alpha, rng.uniform(-1.0, 1.0, size=(9, 2)))
    assert list(elem._table_cache) == before
