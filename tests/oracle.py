"""The tests' independent exact oracle: sparse multivariate polynomials
over ``fractions.Fraction``, and from them the reference element's nodal
basis, its DoF functionals and the Q1 closed form.  One call evaluates a
polynomial: exactly at rational points, in float64 on coordinate arrays.
The package does no rational arithmetic: its exact checks are integer rows
times the certified coefficients (``reference.functional_rows``).
"""

import math
from fractions import Fraction
from numbers import Rational

import numpy as np

from triharm.reference import DofFunctional, ReferenceElement, reference_vertices


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    raise TypeError(f"expected a rational coefficient, got {value!r}")


class Polynomial:
    """Sparse polynomial: exponent tuple -> nonzero Fraction coefficient."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(dim)
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != dim:
                raise ValueError(f"exponent {exps} has wrong length for dim {dim}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _as_fraction(coeff)
            if c != 0:
                clean[exps] = clean[exps] + c if exps in clean else c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value) -> "Polynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, axis: int) -> "Polynomial":
        if not 0 <= axis < dim:
            raise ValueError("axis out of range")
        exps = tuple(1 if i == axis else 0 for i in range(dim))
        return cls(dim, {exps: 1})

    @classmethod
    def monomial(cls, dim: int, exps, coeff=1) -> "Polynomial":
        return cls(dim, {tuple(exps): coeff})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.dim == other.dim and self.terms == other.terms
        return NotImplemented

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        parts = []
        for exps in sorted(self.terms):
            mono = "*".join(
                f"x{i}^{e}" for i, e in enumerate(exps) if e
            ) or "1"
            parts.append(f"{self.terms[exps]}*{mono}")
        return "Polynomial(" + " + ".join(parts) + ")"

    # -- arithmetic --------------------------------------------------------

    def _check_dim(self, other: "Polynomial"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dim, other)
        self._check_dim(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return Polynomial(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _as_fraction(other)
            return Polynomial(self.dim, {e: c * v for e, v in self.terms.items()})
        self._check_dim(other)
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                terms[key] = terms.get(key, Fraction(0)) + ca * cb
        return Polynomial(self.dim, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.dim, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------------

    def diff(self, axis: int, order: int = 1) -> "Polynomial":
        """Exact partial derivative d^order / d x_axis^order."""
        if not 0 <= axis < self.dim:
            raise ValueError("axis out of range")
        if order < 0:
            raise ValueError("order must be >= 0")
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[axis]
            if e < order:
                continue
            fac = 1
            for j in range(e, e - order, -1):
                fac *= j
            # distinct exponents stay distinct, so no two terms merge
            terms[exps[:axis] + (e - order,) + exps[axis + 1:]] = coeff * fac
        return Polynomial(self.dim, terms)

    def diff_multi(self, alpha) -> "Polynomial":
        out = self
        for axis, order in enumerate(alpha):
            if order:
                out = out.diff(axis, order)
        return out

    def __call__(self, point):
        """Evaluate at one point, exactly, or at arrays of points in float64.

        Rational coordinates give the exact ``Fraction``.  Otherwise the
        coordinates are arrays that broadcast together, such as an open grid
        or the columns of a dense ``[m, dim]`` array, and the values come in
        float64 of the broadcast shape.  Each power is taken on its own axis
        array, so an open grid of q nodes per axis costs q powers, not q^dim.
        """
        if len(point) != self.dim:
            raise ValueError("point has wrong length")
        exact = all(isinstance(x, Rational) for x in point)
        if exact:
            xs, total = point, Fraction(0)
        else:
            xs = [np.asarray(x, dtype=float) for x in point]
            total = np.zeros(np.broadcast_shapes(*(x.shape for x in xs)))
        for exps, coeff in self.terms.items():
            val = coeff if exact else float(coeff)
            for x, e in zip(xs, exps):
                if e:
                    val = val * x ** e
            total += val
        return total

    def integrate_box(self, lo, hi) -> Fraction:
        """Exact integral over the box [lo, hi] via monomial antiderivatives."""
        lo = [_as_fraction(x) for x in lo]
        hi = [_as_fraction(x) for x in hi]
        if len(lo) != self.dim or len(hi) != self.dim:
            raise ValueError("box has wrong dimension")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("degenerate box")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            val = coeff
            for a, b, e in zip(lo, hi, exps):
                val *= (b ** (e + 1) - a ** (e + 1)) / (e + 1)
            total += val
        return total


def apply_dof(dof: DofFunctional, poly: Polynomial, n: int) -> Fraction:
    """Apply a reference DoF functional to a polynomial, exactly."""
    return poly.diff_multi(dof.alpha)(dof.anchor(n))


def basis(elem: ReferenceElement) -> list[Polynomial]:
    """The nodal basis of ``elem`` as exact polynomials."""
    return [Polynomial(elem.dim, {m: Fraction(row[a], elem.denominator)
                                  for m, row in zip(elem.monomials, elem.coeffs)})
            for a in range(elem.n_dofs)]


def q1_closed_form(n: int) -> list[Polynomial]:
    """Multilinear nodal basis p_0i = 2^-n prod(1 + s_ij xi_j)."""
    return [math.prod((1 + s * Polynomial.variable(n, j) for j, s in enumerate(signs)),
                      start=Polynomial.constant(n, Fraction(1, 2 ** n)))
            for signs in reference_vertices(n)]
