"""Exact rational polynomial arithmetic, calculus, and linear algebra."""

from fractions import Fraction

import numpy as np
import pytest

from triharm.polynomials import Polynomial, det, invert


def univar(coeffs):
    """Polynomial in one variable from [c0, c1, ...]."""
    return Polynomial(1, {(k,): c for k, c in enumerate(coeffs)})


def test_expand_quintic_product():
    # (x^2 - 1)^2 (x + 1) = x^5 + x^4 - 2x^3 - 2x^2 + x + 1
    x = Polynomial.variable(1, 0)
    p = (x ** 2 - 1) ** 2 * (x + 1)
    assert p == univar([1, 1, -2, -2, 1, 1])


def test_face_bubble_second_derivative_endpoints():
    # d^2/dx^2 of (1/16)(x^2-1)^2 (x+1) is 1 at x=1 and 0 at x=-1
    x = Polynomial.variable(1, 0)
    r = Fraction(1, 16) * (x ** 2 - 1) ** 2 * (x + 1)
    d2 = r.diff(0, 2)
    assert d2([Fraction(1)]) == 1
    assert d2([Fraction(-1)]) == 0


def test_face_bubble_third_derivative_at_zero():
    x = Polynomial.variable(1, 0)
    r = Fraction(1, 16) * (x ** 2 - 1) ** 2 * (x + 1)
    d3 = r.diff(0, 3)
    # (1/16)(60x^2 + 24x - 12) at 0
    assert d3 == Fraction(1, 16) * univar([-12, 24, 60])
    assert d3([Fraction(0)]) == Fraction(-3, 4)


def test_integrate_quartic_bubble():
    x = Polynomial.variable(1, 0)
    p = (x ** 2 - 1) ** 2
    assert p.integrate_box([-1], [1]) == Fraction(16, 15)


def test_integrate_box_multivariate():
    x, y = (Polynomial.variable(2, i) for i in range(2))
    p = x ** 2 * y + 3
    # int over [0,1]^2 of x^2 y = 1/6; constant contributes 3
    assert p.integrate_box([0, 0], [1, 1]) == Fraction(1, 6) + 3


def test_arithmetic_and_scalars():
    x, y = (Polynomial.variable(2, i) for i in range(2))
    p = 2 * x - y + Fraction(1, 2)
    q = p * p
    assert q([Fraction(1), Fraction(1)]) == Fraction(9, 4)
    assert (p - p).is_zero()
    assert (-p) + p == Polynomial.zero(2)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)


def test_diff_multi_and_degree():
    x, y = (Polynomial.variable(2, i) for i in range(2))
    p = x ** 3 * y ** 2
    assert p.degree() == 5
    assert p.diff_multi((2, 1)) == 12 * x * y
    assert p.diff(0, 4).is_zero()


def test_eval_grid_matches_exact_call():
    x, y = (Polynomial.variable(2, i) for i in range(2))
    p = x ** 4 - 3 * x * y + Fraction(2, 3) * y ** 2
    rng = np.random.default_rng(0)
    # dyadic rationals are exact in binary floating point
    pts = rng.integers(-64, 65, size=(50, 2)) / 64.0
    exact = [float(p([Fraction(a), Fraction(b)])) for a, b in pts]
    assert np.allclose(p.eval_grid(pts), exact, rtol=1e-14, atol=1e-14)


def test_restrict_reduces_dimension():
    x, y = (Polynomial.variable(2, i) for i in range(2))
    p = x ** 2 * y + y ** 2
    r = p.restrict(0, Fraction(1, 2))
    assert r.dim == 1
    t = Polynomial.variable(1, 0)
    assert r == Fraction(1, 4) * t + t ** 2
    # univariate restriction keeps a dummy variable
    one_d = (Polynomial.variable(1, 0) ** 2).restrict(0, 3)
    assert one_d == Polynomial.constant(1, 9)


def test_det_known_values():
    assert det([[2, 1], [1, 2]]) == 3
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[Fraction(1, 2), 0, 0], [0, 3, 0], [0, 0, 4]]) == 6
    # permutation sign
    assert det([[0, 1], [1, 0]]) == -1


def test_invert_roundtrip_and_singular():
    m = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    inv, d = invert(m)
    size = len(m)
    prod = [[sum(m[i][k] * inv[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)]
    assert prod == [[d if i == j else 0 for j in range(size)] for i in range(size)]
    with pytest.raises(ZeroDivisionError):
        invert([[1, 2], [2, 4]])


def gauss_jordan_inverse(matrix):
    """Oracle: plain Gauss-Jordan elimination over Fractions."""
    m = len(matrix)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(m)]
         for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[m:] for row in a]


def random_rational_matrix(rng, m):
    return [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
             for _ in range(m)] for _ in range(m)]


def test_invert_matches_fraction_gauss_jordan():
    rng = np.random.default_rng(3)
    matrices = [random_rational_matrix(rng, m) for m in (1, 2, 3, 5, 8)]
    # zero leading entries force row swaps, at the first and at later steps
    matrices += [
        [[0, 1], [1, 0]],
        [[0, 2, 1], [0, 1, 3], [4, 0, 1]],
        [[1, 2, 3, 4], [2, 4, 7, 1], [0, 0, 0, 5], [3, 1, 0, 0]],
        [[Fraction(1, 2), Fraction(1, 3), 0], [Fraction(3, 2), 1, 2], [1, 0, Fraction(5, 7)]],
    ]
    for matrix in matrices:
        assert det(matrix) != 0
        inv, d = invert(matrix)
        assert [[Fraction(v, d) for v in row] for row in inv] == \
            gauss_jordan_inverse(matrix)


def test_invert_returns_fractions_of_integer_input():
    # integer numerators over the one denominator det(A)
    inv, d = invert([[2, 0], [0, 4]])
    assert (inv, d) == ([[4, 0], [0, 2]], 8)
    assert all(type(v) is int for row in inv for v in row)
    inv, d = invert([[Fraction(1, 2), 0], [0, 4]])
    assert [[Fraction(v, d) for v in row] for row in inv] == \
        [[2, 0], [0, Fraction(1, 4)]]
    assert all(type(v) is int for row in inv for v in row)


def test_det_sign_of_row_swaps():
    m = [[1, 2, 0], [3, 1, 4], [0, Fraction(1, 2), 5]]
    d = det(m)
    assert d == -27   # 1 * (5 - 2) - 2 * 15
    assert det([m[1], m[0], m[2]]) == -d
    assert det([m[1], m[2], m[0]]) == d
    # the elimination itself has to swap: zero first pivot, then zero second
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


def test_singular_matrices():
    singular = [
        [[0, 0], [0, 0]],
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]],
        # full first column, dependent rest: fails only at a later step
        [[1, 2, 3], [2, 4, 6], [3, 1, 1]],
    ]
    for matrix in singular:
        assert det(matrix) == 0
        with pytest.raises(ZeroDivisionError):
            invert(matrix)


def test_non_square_matrix_is_rejected():
    for matrix in ([[1, 2]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            det(matrix)
        with pytest.raises(ValueError):
            invert(matrix)
