"""The tests' oracle: exact rational polynomial arithmetic and calculus."""

from fractions import Fraction

import numpy as np
import pytest

from oracle import Polynomial


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


def test_call_on_arrays_matches_exact_values_in_broadcast_shape():
    x, y = (Polynomial.variable(2, i) for i in range(2))
    p = x ** 4 - 3 * x * y + Fraction(3, 4) * y ** 2 + 5
    rng = np.random.default_rng(0)
    # dyadic points and coefficients: every float operation is exact
    pts = rng.integers(-64, 65, size=(50, 2)) / 64.0
    exact = [p((Fraction(a), Fraction(b))) for a, b in pts]
    assert all(isinstance(v, Fraction) for v in exact)
    got = p(tuple(pts.T))
    assert got.dtype == np.float64 and got.shape == (50,)
    assert got.tolist() == exact

    # an open grid of 3 x 4 nodes in each of 5 cells, the cell axis last
    lo = rng.integers(-8, 8, size=(2, 5)) / 8.0
    grid = ((lo[0] + np.arange(3)[:, None] / 16.0)[:, None, :],
            (lo[1] + np.arange(4)[:, None] / 16.0)[None, :, :])
    got = p(grid)
    assert got.shape == (3, 4, 5)
    xs, ys = (a.ravel() for a in np.broadcast_arrays(*grid))
    assert got.ravel().tolist() == [p((Fraction(a), Fraction(b)))
                                    for a, b in zip(xs, ys)]

    # no term, or no variable: still one value per point
    zero, const = Polynomial.zero(2), Polynomial.constant(2, Fraction(3, 2))
    assert zero(grid).shape == const(grid).shape == (3, 4, 5)
    assert not zero(grid).any() and (const(grid) == 1.5).all()
    assert zero(tuple(pts.T)).shape == (50,)
    assert zero((Fraction(1), 2)) == 0 and isinstance(zero((1, 2)), Fraction)

