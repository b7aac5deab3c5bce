"""Exact rational polynomial arithmetic and calculus."""

from fractions import Fraction

import numpy as np
import pytest

from triharm.polynomials import Polynomial


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

