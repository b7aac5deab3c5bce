"""Manufactured solutions: sources, derivatives, finite-difference oracle."""

import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from oracle import Polynomial
from triharm import cases
from triharm.assembly import derivative_multiindices
from triharm.cases import (
    case_lshape2d, case_smooth2d, case_smooth3d, get_case, monomials_case,
    polynomial_case,
)
from triharm.mesh import BoxDomain

UNIT_CUBE = BoxDomain((0.0,) * 3, (1.0,) * 3)
BOX = BoxDomain((-1.0,) * 3, (1.0,) * 3)


def finite_difference(case, alpha, pts, step=1e-5):
    """Central-difference approximation of the mixed partial `alpha` of u."""
    def rec(orders, points):
        for axis, order in enumerate(orders):
            if order > 0:
                e = np.zeros(points.shape[1])
                e[axis] = step
                lower = tuple(o - (i == axis) for i, o in enumerate(orders))
                return (rec(lower, points + e) - rec(lower, points - e)) / (2 * step)
        return case.u(points)
    return rec(tuple(alpha), pts)


def random_interior_points(dim, count, rng, lo=0.1, hi=0.9):
    return rng.uniform(lo, hi, size=(count, dim))


# central differences balance truncation against roundoff (which grows like
# eps / step^order), so higher orders need a larger step and looser tolerance
FD_STEP = {1: 1e-5, 2: 1e-4, 3: 1e-3}
FD_RTOL = {1: 1e-6, 2: 1e-6, 3: 1e-4}


@pytest.mark.parametrize("case_fn", [case_smooth2d, case_smooth3d])
def test_all_partials_match_finite_differences(case_fn):
    case = case_fn()
    rng = np.random.default_rng(42)
    pts = random_interior_points(case.dim, 100, rng)
    for order in range(1, 4):
        for alpha in _multi_indices(case.dim, order):
            exact = case.derivative(alpha, pts)
            approx = finite_difference(case, alpha, pts, step=FD_STEP[order])
            scale = max(np.abs(exact).max(), 1.0)
            assert np.abs(exact - approx).max() < FD_RTOL[order] * scale


def _multi_indices(dim, order):
    return [alpha for alpha, _ in derivative_multiindices(dim, order)]


def test_smooth2d_source_and_third_derivative():
    case = case_smooth2d()
    rng = np.random.default_rng(0)
    pts = random_interior_points(2, 50, rng)
    u = case.u(pts)
    np.testing.assert_allclose(case.source(pts), (8 * math.pi ** 2) ** 3 * u,
                               rtol=1e-12)
    expected = (2 * math.pi) ** 3 * np.sin(2 * math.pi * pts[:, 0]) \
        * np.cos(2 * math.pi * pts[:, 1])
    np.testing.assert_allclose(case.derivative((3, 0), pts), expected,
                               rtol=1e-12, atol=1e-9)


def test_smooth3d_source_and_mixed_derivative():
    case = case_smooth3d()
    rng = np.random.default_rng(1)
    pts = random_interior_points(3, 50, rng)
    u = case.u(pts)
    np.testing.assert_allclose(case.source(pts), 216 * math.pi ** 6 * u,
                               rtol=1e-12)
    # d^3 u / dx dy dz of sin(2 pi x) cos(pi y) cos(pi z): the two
    # single-derivative minus signs cancel
    expected = 2 * math.pi ** 3 * np.cos(2 * math.pi * pts[:, 0]) \
        * np.sin(math.pi * pts[:, 1]) * np.sin(math.pi * pts[:, 2])
    np.testing.assert_allclose(case.derivative((1, 1, 1), pts), expected,
                               rtol=1e-12, atol=1e-9)
    fd = finite_difference(case, (1, 1, 1), pts, step=FD_STEP[3])
    np.testing.assert_allclose(fd, expected, rtol=1e-4, atol=1e-4)


def test_lshape_solution_properties():
    case = case_lshape2d()
    rng = np.random.default_rng(2)
    # points in the upper half of the L, away from the singular corner
    pts = rng.uniform([0.2, 0.2], [0.9, 0.9], size=(100, 2))
    assert np.allclose(case.source(pts), 0.0)
    # polar form r^2.5 sin(2.5 theta)
    r = np.hypot(pts[:, 0], pts[:, 1])
    theta = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * math.pi)
    np.testing.assert_allclose(case.u(pts), r ** 2.5 * np.sin(2.5 * theta),
                               rtol=1e-12)
    # derivative oracle holds away from the origin
    for alpha in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 3)):
        exact = case.derivative(alpha, pts)
        approx = finite_difference(case, alpha, pts, step=FD_STEP[sum(alpha)])
        assert np.abs(exact - approx).max() < 1e-4 * max(np.abs(exact).max(), 1)


def test_lshape_vanishes_on_clamped_rays():
    case = case_lshape2d()
    # theta = 0 ray (positive x-axis) and theta = 3 pi / 2 ray both have
    # sin(2.5 theta) = 0 or the domain boundary; check the theta=0 ray
    x = np.linspace(0.1, 0.9, 9)
    pts = np.column_stack([x, np.zeros(9)])
    assert np.abs(case.u(pts)).max() < 1e-12


def test_lshape_derivatives_follow_the_branch_in_every_quadrant():
    # the tensor grid of these nodes has points in all four quadrants, on the
    # rays theta = pi/2, theta = pi with y = +-0.0, theta = 3 pi/2 with
    # x = +-0.0, theta = 0, and the origin with every sign of zero
    xs = np.array([-0.6, -0.0, 0.0, 0.45])
    ys = np.array([-0.9, -0.0, 0.0, 0.8])
    grid = np.ix_(xs, ys)
    x, y = (a.ravel() for a in np.broadcast_arrays(*grid))
    pts = np.column_stack([x, y])
    r = np.hypot(x, y)
    theta = np.mod(np.arctan2(y, x), 2 * math.pi)
    case = case_lshape2d()
    for order in range(4):
        s = 2.5 - order
        c = math.prod(2.5 - j for j in range(order))
        # order 3 is singular at the origin: compare away from it
        at = r > 0 if order == 3 else np.ones(len(r), dtype=bool)
        modulus = c * r[at] ** s
        for a, b in _multi_indices(2, order):
            want = np.imag(1j ** b * modulus * np.exp(1j * s * theta[at]))
            for got in (case.derivative((a, b), pts),
                        case.derivative((a, b), grid).ravel()):
                # relative to |c z^s|: the sine may vanish where z^s does not
                assert np.all(np.abs(got[at] - want) <= 1e-13 * modulus)
                if order < 3:
                    assert np.all(got[r == 0] == 0.0)


def test_polynomial_case_source_is_minus_laplacian_cubed():
    case = polynomial_case({(6, 0): 1}, BoxDomain((0.0, 0.0), (1.0, 1.0)))
    pts = np.array([[0.3, 0.7], [0.5, 0.5]])
    # Delta^3 x^6 = 720, so (-Delta)^3 u = -720
    np.testing.assert_allclose(case.source(pts), -720.0)
    np.testing.assert_allclose(case.derivative((2, 0), pts),
                               30 * pts[:, 0] ** 4, rtol=1e-13)


def test_polynomial_case_builds_its_source_on_the_first_source_call(monkeypatch):
    # (-Delta)^3 u takes three Laplacians; a case that is only
    # differentiated takes none of them
    calls, real = [], cases._laplacian
    monkeypatch.setattr(cases, "_laplacian",
                        lambda terms, dim: calls.append(terms) or real(terms, dim))
    case = polynomial_case({(7, 1, 0): 1, (0, 0, 2): 1}, UNIT_CUBE)
    pts = np.array([[0.3, 0.7, 0.2], [0.5, 0.5, 0.9]])
    case.u(pts)
    case.derivative((1, 0, 0), pts)
    assert calls == []
    want = -5040.0 * pts[:, 0] * pts[:, 1]      # (-Delta)^3 x^7 y
    for _ in range(2):      # built once
        np.testing.assert_allclose(case.source(pts), want, rtol=1e-14)
        assert len(calls) == 3


def laplacian_cubed(poly: Polynomial) -> Polynomial:
    lap = lambda q: sum((q.diff(i, 2) for i in range(q.dim)), Polynomial.zero(q.dim))
    return lap(lap(lap(poly)))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# int and Fraction coefficients; the harmonic part of the third cancels in
# the Laplacian, and x^2 comes back on the last axis
POLYNOMIALS = [
    {(4, 1, 0): 1, (0, 1, 2): -3, (0, 0, 0): 2},
    {(3, 0, 0): 1, (1, 1, 1): -2, (0, 2, 1): 1, (0, 0, 3): 1, (1, 0, 0): -1,
     (0, 0, 0): 1, (7, 0, 0): 1},
    {(4, 0, 0): 1, (2, 2, 0): -6, (0, 4, 0): 1, (2, 0, 2): 1, (1, 1, 1): 5, (2, 0, 0): 3},
    {(8, 1, 0): Fraction(1, 3), (2, 1, 3): Fraction(-5, 7), (0, 0, 6): Fraction(2, 9),
     (1, 0, 0): Fraction(1, 10)},
]


@pytest.mark.parametrize("terms", POLYNOMIALS, ids=range(len(POLYNOMIALS)))
def test_polynomial_cases_have_the_oracles_bits(terms):
    # every derivative of order <= 3 and the source, on dense points and on
    # an open grid with the cells last, bit for bit (-0.0 included) against
    # the oracle's float evaluation, which rounds each exact coefficient once
    case, columns = polynomial_case(terms, BOX), monomials_case(list(terms), BOX)
    poly, monomials = Polynomial(3, terms), [Polynomial.monomial(3, e) for e in terms]
    grid = cell_grid(3, 5, 4, np.random.default_rng(3), cells_last=True)
    pts = dense(grid)[0]
    for points, xs in ((pts, tuple(pts.T)), (grid, grid)):
        for alpha in (a for order in range(4) for a in _multi_indices(3, order)):
            assert same_bits(case.derivative(alpha, points), poly.diff_multi(alpha)(xs))
            want = np.stack([m.diff_multi(alpha)(xs) for m in monomials], axis=-1)
            assert same_bits(columns.derivative(alpha, points), want)
        # the source is negated after the sum: -0.0 where it vanishes
        assert same_bits(case.source(points), -laplacian_cubed(poly)(xs))


def test_monomials_case_sources_past_degree_five_are_exact():
    # at dyadic points, where the values of degree 6 to 8 are exact in floats
    exps = [(6, 0, 0), (4, 2, 0), (2, 2, 2), (3, 3, 1), (0, 8, 0), (5, 1, 2), (1, 1, 1)]
    case = monomials_case(exps, BOX)
    dyadic = [(Fraction(1, 4), Fraction(-1, 2), Fraction(3, 8)),
              (Fraction(-3, 4), Fraction(5, 16), Fraction(1)), (Fraction(0),) * 3]
    got = case.source(np.array(dyadic, dtype=float))
    assert got.tolist() == [[-laplacian_cubed(Polynomial.monomial(3, e))(p) for e in exps]
                            for p in dyadic]
    # Delta^3 of x^6, x^4 y^2 and x^2 y^2 z^2 is 720, 144 and 48
    assert (got[:, :3] == [-720.0, -144.0, -48.0]).all()


def test_case_registry():
    assert get_case("smooth2d").dim == 2
    assert get_case("smooth3d").dim == 3
    assert get_case("lshape2d").domain is None
    with pytest.raises(ValueError):
        get_case("nonexistent")


def test_case_mesh_factory():
    assert get_case("smooth2d").mesh(4).n_cells == 16
    assert get_case("lshape2d").mesh(4).n_cells == 48
    assert get_case("smooth3d").mesh(2).n_cells == 8
    # one count per axis
    mesh = get_case("smooth3d").mesh((2, 1, 3))
    assert mesh.n_cells == 6
    np.testing.assert_array_equal(mesh.cell_half_lengths[0], [0.25, 0.5, 1 / 6])


def cell_grid(dim, n_cells, q, rng, cells_last=False):
    """Open grid of q nodes per axis in each of n_cells random cells, with
    the cell axis first (axis i varies along array axis i + 1), or moved
    last, as ``assembly.cell_blocks`` hands it over."""
    lo = rng.uniform(-0.9, 0.5, size=(n_cells, dim))
    nodes = np.sort(rng.uniform(0.0, 0.4, size=q))
    grid = tuple(
        (lo[:, [i]] + nodes).reshape((n_cells,) + (1,) * i + (q,) + (1,) * (dim - i - 1))
        for i in range(dim))
    if cells_last:
        grid = tuple(np.ascontiguousarray(np.moveaxis(g, 0, -1)) for g in grid)
    return grid


def dense(grid):
    """The [m, dim] points of an open grid, last axis fastest."""
    full = np.broadcast_arrays(*grid)
    return np.stack([x.ravel() for x in full], axis=1), full[0].shape


OPEN_GRID_CASES = {
    "smooth2d": case_smooth2d,
    "smooth3d": case_smooth3d,
    "lshape2d": case_lshape2d,
    "polynomial": lambda: polynomial_case(POLYNOMIALS[0], UNIT_CUBE),
    # a 3D cubic, whose d^3/dz^3 is the constant 6, plus x^7 for a source
    # (-Delta)^3 u = -5040 x that is not zero
    "polynomial-cubic": lambda: polynomial_case(POLYNOMIALS[1], UNIT_CUBE),
}


@pytest.mark.parametrize("cells_last", [False, True], ids=["cells-first", "cells-last"])
@pytest.mark.parametrize("name", sorted(OPEN_GRID_CASES))
def test_open_grid_matches_dense_points(name, cells_last):
    case = OPEN_GRID_CASES[name]()
    grid = cell_grid(case.dim, 5, 4, np.random.default_rng(7), cells_last)
    pts, shape = dense(grid)
    for order in range(4):
        for alpha in _multi_indices(case.dim, order):
            got = case.derivative(alpha, grid)
            want = case.derivative(alpha, pts).reshape(shape)
            assert got.shape == shape
            scale = max(np.abs(want).max(), 1e-300)
            assert np.abs(got - want).max() <= 1e-14 * scale
    for fn in (case.u, case.source):
        got = fn(grid)
        assert got.shape == shape
        np.testing.assert_allclose(got, fn(pts).reshape(shape), rtol=1e-14)


def test_open_grid_from_ix_and_zero_results_keep_the_broadcast_shape():
    # x y has vanishing third derivatives and source: still one value a point
    case = polynomial_case({(1, 1): 1}, BoxDomain((0.0, 0.0), (1.0, 1.0)))
    grid = np.ix_(np.linspace(0.1, 0.9, 3), np.linspace(0.2, 0.8, 5))
    assert case.derivative((3, 0), grid).shape == (3, 5)
    assert case.source(grid).shape == (3, 5)
    np.testing.assert_allclose(case.u(grid), grid[0] * grid[1], rtol=1e-15)
    assert case_lshape2d().source(grid).shape == (3, 5)
    with pytest.raises(ValueError):
        case.derivative((0, 0), grid + (grid[0],))


WIDTH_CASES = {
    "smooth2d": case_smooth2d,
    "lshape2d": case_lshape2d,
    "polynomial": lambda: polynomial_case({(2, 1): 1}, BoxDomain((0.0, 0.0), (1.0, 1.0))),
}


@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (4, 1), (5,)])
@pytest.mark.parametrize("name", sorted(WIDTH_CASES))
def test_dense_points_of_the_wrong_width_raise(name, shape):
    # a dense array is [m, dim]: a [4, 3] or [3, 4] array is not six 2D points
    case = WIDTH_CASES[name]()
    for fn in (case.u, case.source, lambda pts: case.derivative((1, 2), pts)):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            fn(np.zeros(shape))
    assert case.u(np.full((4, 2), 0.5)).shape == (4,)


def flattened_axes(points, dim):
    """The axes of dense points as they were read before values kept the
    leading shape: the ``[m, dim]`` rows of a flattened array."""
    if isinstance(points, tuple):
        return tuple(np.asarray(x, dtype=float) for x in points)
    return tuple(np.asarray(points, dtype=float).reshape(-1, dim).T)


@pytest.mark.parametrize("name", sorted(WIDTH_CASES) + ["smooth3d"])
def test_dense_points_keep_their_leading_shape(name, monkeypatch):
    # values of [..., dim] points have shape [...], each the value of its
    # point among [m, dim] points; [m, dim] points keep the bits the
    # flattened axes gave them
    case = {**WIDTH_CASES, "smooth3d": case_smooth3d}[name]()
    rng = np.random.default_rng(4)
    points = rng.uniform(-1.0, 1.0, (2, 3, case.dim))
    flat = points.reshape(-1, case.dim)
    alphas = [a for order in range(4) for a in _multi_indices(case.dim, order)]
    fns = [case.source] + [functools.partial(case.derivative, a) for a in alphas]
    want = [fn(flat) for fn in fns]
    for fn, ref in zip(fns, want):
        got = fn(points)
        assert got.shape == (2, 3)
        assert got.tobytes() == ref.reshape(2, 3).tobytes()
        one = fn(points[1, 2])
        assert np.shape(one) == () and np.asarray(one).tobytes() == ref[5:6].tobytes()
    monkeypatch.setattr(cases, "_axes", flattened_axes)
    fresh = {**WIDTH_CASES, "smooth3d": case_smooth3d}[name]()
    fns = [fresh.source] + [functools.partial(fresh.derivative, a) for a in alphas]
    for fn, ref in zip(fns, want):
        assert fn(flat).tobytes() == ref.tobytes()


def test_lshape_reuses_polar_data_with_bit_identical_values():
    # one case answers every multi-index from its cached r, theta and powers;
    # a fresh case per call computes each value from scratch
    grid = cell_grid(2, 6, 4, np.random.default_rng(11))
    pts, _ = dense(grid)
    pts = np.vstack([pts, [[0.0, 0.0]]])       # r = 0 takes the zero branch
    alphas = [a for order in range(4) for a in _multi_indices(2, order)]
    cached = case_lshape2d()
    for points in (grid, pts, grid):           # switching points drops the cache
        for alpha in alphas:
            got = cached.derivative(alpha, points)
            want = case_lshape2d().derivative(alpha, points)
            assert np.array_equal(got, want)
    # the cache follows the coordinates, not the array objects
    moving = (grid[0].copy(), grid[1])
    for alpha in alphas[:3]:
        cached.derivative(alpha, moving)
    moving[0][...] += 0.125
    for alpha in alphas:
        assert np.array_equal(cached.derivative(alpha, moving),
                              case_lshape2d().derivative(alpha, moving))
