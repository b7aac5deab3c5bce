"""Manufactured solutions for the tri-harmonic problem.

Each case supplies the exact solution, all partial derivatives up to order
three (vectorized over point arrays), and the source f = (-Delta)^3 u.

Points come in one of two forms: a dense ``[..., dim]`` array, giving
values of its leading shape (``[m]`` for ``[m, dim]`` points), or an open
grid, a tuple of ``dim`` coordinate arrays that broadcast together (as
``np.ix_`` returns), giving values of the broadcast shape.  A separable solution, such as a cosine product or each monomial of
a polynomial, evaluates each factor on its own axis array, so a tensor grid
of q points per axis costs q, not q^dim, evaluations of a factor.
An open grid may carry extra broadcast axes, such as the cell axis that
``assembly.cell_blocks`` puts last on every grid the library hands over.
A case must work elementwise; ``monomials_case``, whose values carry one
trailing column per monomial, is for ``canonical_interpolate`` alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import BoxDomain, StructuredMesh, lshape_mesh, uniform_mesh

__all__ = [
    "ManufacturedCase", "case_smooth2d", "case_lshape2d", "case_smooth3d",
    "polynomial_case", "monomials_case", "get_case", "CASE_NAMES",
]

# a dense [m, dim] array, or an open grid of dim broadcasting coordinate arrays
Points = np.ndarray | tuple[np.ndarray, ...]


def _axes(points: Points, dim: int) -> tuple[np.ndarray, ...]:
    """The coordinate arrays of ``points``, one per axis: an open grid's
    arrays, or the last axis's columns of a dense ``[..., dim]`` array,
    each of shape ``points.shape[:-1]``."""
    if isinstance(points, tuple):
        if len(points) != dim:
            raise ValueError(f"open grid has {len(points)} axes, need {dim}")
        return tuple(np.asarray(x, dtype=float) for x in points)
    points = np.asarray(points, dtype=float)
    if points.shape[-1:] != (dim,):
        raise ValueError(f"points of shape {points.shape}, need [..., {dim}]")
    return tuple(np.moveaxis(points, -1, 0))


@dataclass
class ManufacturedCase:
    name: str
    dim: int
    domain: BoxDomain | None      # None marks the 2D L-shape
    source: Callable[[Points], np.ndarray]
    derivative: Callable[[tuple[int, ...], Points], np.ndarray]

    def u(self, points: Points) -> np.ndarray:
        return self.derivative((0,) * self.dim, points)

    def mesh(self, n) -> StructuredMesh:
        """Mesh of ``n`` cells per axis, or of ``n[i]`` along axis i; the
        L-shape takes ``n`` cells per unit length."""
        if self.domain is None:
            return lshape_mesh(n)
        return uniform_mesh(self.domain, n)


def _cosine_product(name: str, domain: BoxDomain, freqs, phases) -> ManufacturedCase:
    """u = prod_i cos(k_i x_i + phi_i); derivatives shift phases by pi/2."""
    k = np.asarray(freqs, dtype=float)
    phi = np.asarray(phases, dtype=float)
    dim = len(k)
    lam = float(np.sum(k ** 2)) ** 3  # (-Delta)^3 eigenvalue

    def derivative(alpha, points):
        xs = _axes(points, dim)
        out = 1.0
        for i, a in enumerate(alpha):
            # each cosine sees only its own axis; the product broadcasts
            out = out * (k[i] ** a) * np.cos(k[i] * xs[i] + phi[i] + a * math.pi / 2)
        return out

    def source(points):
        return lam * derivative((0,) * dim, points)

    return ManufacturedCase(name, dim, domain, source, derivative)


def case_smooth2d() -> ManufacturedCase:
    """u = cos(2 pi x) cos(2 pi y) on the unit square; f = (8 pi^2)^3 u."""
    return _cosine_product(
        "smooth2d", BoxDomain((0.0, 0.0), (1.0, 1.0)),
        freqs=(2 * math.pi, 2 * math.pi), phases=(0.0, 0.0),
    )


def case_smooth3d() -> ManufacturedCase:
    """u = sin(2 pi x) cos(pi y) cos(pi z) on the unit cube; f = (6 pi^2)^3 u."""
    return _cosine_product(
        "smooth3d", BoxDomain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        freqs=(2 * math.pi, math.pi, math.pi),
        phases=(-math.pi / 2, 0.0, 0.0),
    )


def case_lshape2d() -> ManufacturedCase:
    """Singular harmonic solution r^2.5 sin(2.5 theta) on the L-shape.

    u is the imaginary part of z^{5/2} with the branch theta in [0, 2 pi)
    of ``mod(arctan2(y, x), 2 pi)`` (the cut lies inside the removed
    quadrant), so f vanishes identically and u sits in H^{3.5 - eps} only.
    """
    p = 2.5
    # broken_norms asks for 10 multi-indices on one grid, which need only
    # the four powers z^(p - |alpha|): keep z, its root w and the powers of
    # the last points asked for, as long as their coordinates stay the same
    last: dict = {"axes": None}

    def zpow(points, order):
        axes = _axes(points, 2)
        if last["axes"] is None or not all(
                a.shape == b.shape and np.array_equal(a, b)
                for a, b in zip(last["axes"], axes)):
            x, y = axes
            # not separable: broadcast to the full grid; + 0.0 turns
            # y = -0.0 into +0.0, where theta = pi, whatever sign of zero
            # the complex product 1j * y would keep
            z = x + 1j * (y + 0.0)
            # the principal root has theta in (-pi, pi]: negating it below
            # the x-axis moves theta to [0, 2 pi); an array even of one
            # point, which np.negative can write
            w = np.asarray(np.sqrt(z))
            np.negative(w, out=w, where=np.broadcast_to(y < 0, w.shape))
            last.update(axes=tuple(a.copy() for a in axes), z=z, w=w,
                        powers={})
        out = last["powers"].get(order)
        if out is None:
            z, w = last["z"], last["w"]
            if order == 0:
                out = z * z * w
            elif order == 1:
                out = z * w
            elif order == 2:
                out = w
            else:
                # z^{-1/2} is set to 0 at r = 0
                out = np.divide(1.0, w, out=np.zeros_like(w), where=w != 0)
            out.setflags(write=False)
            last["powers"][order] = out
        return out

    def derivative(alpha, points):
        a, b = alpha
        order = a + b
        coeff = 1.0
        for j in range(order):
            coeff *= p - j
        # d^a_x d^b_y Im(z^p) = Im(i^b coeff z^{p - a - b}), and Im(i^b v)
        # is Im v, Re v, -Im v, -Re v for b = 0, 1, 2, 3 mod 4
        v = zpow(points, order)
        sign = -1.0 if b % 4 >= 2 else 1.0
        return (sign * coeff) * (v.imag if b % 2 == 0 else v.real)

    def source(points):
        return np.zeros(np.broadcast_shapes(*(x.shape for x in _axes(points, 2))))

    return ManufacturedCase("lshape2d", 2, None, source, derivative)


def _laplacian(terms: dict, dim: int) -> dict:
    """Delta of the polynomial {exponent tuple: coefficient}, exactly: the
    terms of d_0^2, then those of d_1^2, ... added in, a coefficient that
    cancels dropped after each axis."""
    out = {}
    for i in range(dim):
        for e, c in terms.items():
            if e[i] >= 2:
                key = e[:i] + (e[i] - 2,) + e[i + 1:]
                out[key] = out.get(key, 0) + c * e[i] * (e[i] - 1)
        out = {e: c for e, c in out.items() if c}
    return out


def _polynomials_case(polys: list[dict], domain: BoxDomain, name: str,
                      columns: bool) -> ManufacturedCase:
    """The case of the polynomials {exponent tuple: coefficient}: one
    trailing column per polynomial with ``columns``, else of the one alone.

    d^alpha of a term c x^e is the factor c prod_i perm(e_i, alpha_i),
    exact and rounded once, times x_i^(e_i - alpha_i) axis by axis, for all
    terms at once; each polynomial sums its terms' values left to right
    from +0.0.  The source is -(Delta^3 u), negated after that sum, with
    Delta^3 u built exactly on the first ``source`` call."""
    dim = domain.dim
    # a zero coefficient leaves no term, as in the exact polynomial
    polys = [{tuple(map(int, e)): c for e, c in p.items() if c} for p in polys]

    @functools.cache
    def lap3() -> list[dict]:
        return [_laplacian(_laplacian(_laplacian(p, dim), dim), dim) for p in polys]

    def evaluate(of: list[dict], alpha, points) -> np.ndarray:
        xs = _axes(points, dim)
        # block k holds term k of every polynomial, 0 x^0 past one's end
        blocks = itertools.zip_longest(*map(dict.items, of), fillvalue=((0,) * dim, 0))
        terms = [t for block in blocks for t in block]
        exps = np.array([e for e, _ in terms], dtype=np.int64).reshape(len(terms), dim)
        factor = [float(c * math.prod(map(math.perm, e, alpha))) for e, c in terms]
        shape = np.broadcast_shapes(*(x.shape for x in xs))
        values = np.broadcast_to(np.array(factor, dtype=float), shape + (len(terms),))
        for x, a, e in zip(xs, alpha, exps.T):
            powers = np.stack([x ** p for p in range(max(e.max(initial=0) - a, 0) + 1)],
                              axis=-1)
            values = values * powers[..., np.maximum(e - a, 0)]
        out = np.zeros(shape + (len(of),))
        for k in range(0, len(terms), len(of)):
            out += values[..., k:k + len(of)]
        return out if columns else out[..., 0]

    return ManufacturedCase(name, dim, domain,
                            lambda points: -evaluate(lap3(), (0,) * dim, points),
                            functools.partial(evaluate, polys))


def polynomial_case(terms: dict, domain: BoxDomain,
                    name: str = "polynomial") -> ManufacturedCase:
    """u = sum c x^e over ``terms`` {exponent tuple: coefficient}, each
    coefficient an int or an exact rational; source (-Delta)^3 u."""
    return _polynomials_case([terms], domain, name, columns=False)


def monomials_case(exponents, domain: BoxDomain) -> ManufacturedCase:
    """The monomials x^e, e in ``exponents``, at once: values carry one
    trailing column per monomial, in order, so the case is not elementwise
    and only ``interpolation.canonical_interpolate`` takes it.  Each column
    has the bits of ``polynomial_case({e: 1})``."""
    return _polynomials_case([{tuple(e): 1} for e in exponents], domain,
                             "monomials", columns=True)


_CASES = {
    "smooth2d": case_smooth2d,
    "lshape2d": case_lshape2d,
    "smooth3d": case_smooth3d,
}
CASE_NAMES = tuple(_CASES)


def get_case(name: str) -> ManufacturedCase:
    if name not in _CASES:
        raise ValueError(f"unknown case {name!r}; choose from {CASE_NAMES}")
    return _CASES[name]()
