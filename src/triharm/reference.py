"""Reference elements on the cube [-1, 1]^n.

Each element family is described by its shape-space monomials and a list of
degree-of-freedom functionals, each a derivative d^alpha taken at a vertex
or at a face center.  The DoF-monomial matrix V has integer entries in closed
form.  Its exact inverse, the coefficients of the nodal basis dual to the
DoFs, is the float inverse certified in integers: scaled by the smallest
power of two d = 2^k that makes it integral and rounded to C, it is exact
when V C = d I holds in int64 (Rump, Acta Numerica 19, 2010).  That one
product proves unisolvence and duality at once.  C over d is the element's
only data: every derivative d^alpha of the basis and every Grammian
(``grammian``) is evaluated from it, and every exact check is an integer
row over the monomials (``functional_rows``) times C, under one overflow
guard (``exact_product``).

Reference DoFs use xi-derivatives (unit half-lengths); the physical
functionals are recovered at map time by the h-power scalings stored in the
finite element space.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Family", "Q1", "ADINI_CLASSIC", "MORLEY", "ADINI_TYPE",
    "partial_adini", "family_from_name",
    "DofFunctional", "ReferenceElement",
    "shape_space", "dof_set", "build_dual_basis",
    "morley_closed_form", "dof_matrix", "dof_rows",
    "mean", "coefficient", "functional_rows", "exact_product",
    "certified_inverse", "is_exact_inverse", "reference_vertices",
]


@dataclass(frozen=True)
class Family:
    """Element family, described by the facts that define its element.

    Vertex DoFs are derivatives up to ``order`` (0 value, 1 gradient,
    2 pure second derivative) along every axis, or along ``axis`` alone for
    the partial Adini element; ``faces`` adds one second normal derivative
    per face center.  ``shape_space`` and ``dof_set`` follow from these.
    """

    name: str
    axis: int | None = None
    order: int = 0
    faces: bool = False

    def __str__(self):
        if self.axis is not None:
            return f"{self.name}[{self.axis}]"
        return self.name


Q1 = Family("q1")
ADINI_CLASSIC = Family("adini-classic", order=1)
MORLEY = Family("morley", order=1, faces=True)
ADINI_TYPE = Family("adini", order=2)


def partial_adini(axis: int) -> Family:
    return Family("partial-adini", axis, order=1)


def family_from_name(name: str, axis: int | None = None) -> Family:
    name = name.lower()
    table = {
        "q1": Q1,
        "adini-classic": ADINI_CLASSIC,
        "adini": ADINI_TYPE,
        "adini-type": ADINI_TYPE,
        "morley": MORLEY,
        "morley-type": MORLEY,
    }
    if name in table:
        return table[name]
    if name == "partial-adini":
        if axis is None:
            raise ValueError("partial-adini requires an axis")
        return partial_adini(axis)
    raise ValueError(f"unknown element family {name!r}")


@dataclass(frozen=True)
class DofFunctional:
    """A nodal linear functional: the derivative d^alpha at an anchor.

    The anchor is vertex ``vertex`` (lexicographic index) of the reference
    cell, or the center of face ``face = (axis, side)``.
    """

    alpha: tuple[int, ...]
    vertex: int | None = None
    face: tuple[int, int] | None = None

    def anchor(self, n: int) -> tuple[int, ...]:
        """Reference coordinates of the anchor, each in {-1, 0, 1}."""
        if self.face is None:
            return reference_vertices(n)[self.vertex]
        axis, side = self.face
        return tuple(side * (i == axis) for i in range(n))


def reference_vertices(n: int) -> list[tuple[int, ...]]:
    """Vertex sign patterns in lexicographic order, (-1,...,-1) first."""
    return list(itertools.product((-1, 1), repeat=n))


# -- shape spaces ----------------------------------------------------------

def _derivative_axes(family: Family, n: int) -> list[int]:
    if family.axis is None:
        return list(range(n))
    if not 0 <= family.axis < n:
        raise ValueError(f"{family} axis out of range for n={n}")
    return [family.axis]


def shape_space(family: Family, n: int) -> list[tuple[int, ...]]:
    """Monomial exponent tuples spanning the shape space.

    Q1, then Q1 * x_j^(2k) per derivative axis j and k = 1..order, then
    x_j^4 and x_j^5 per axis when the family has face DoFs.  The order is
    fixed: the rows of the coefficients and the columns of monomial tables
    follow it.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    q1 = list(itertools.product((0, 1), repeat=n))
    mono = list(q1)
    for j in _derivative_axes(family, n):
        for k in range(1, family.order + 1):
            mono += [b[:j] + (b[j] + 2 * k,) + b[j + 1:] for b in q1]
    if family.faces:
        for j in range(n):
            mono += [tuple(p * (i == j) for i in range(n)) for p in (4, 5)]
    return mono


def dof_set(family: Family, n: int) -> list[DofFunctional]:
    """Ordered DoF list: per vertex (lexicographic) the value, gradients and
    pure second derivatives, then the second normal derivative at each face
    center per (axis, side)."""
    pure = lambda j, k: tuple(k * (i == j) for i in range(n))
    axes = _derivative_axes(family, n)
    alphas = [(0,) * n] + [pure(j, k) for k in range(1, family.order + 1)
                           for j in axes]
    dofs = [DofFunctional(alpha, vertex=v) for v in range(2 ** n) for alpha in alphas]
    if family.faces:
        dofs += [DofFunctional(pure(k, 2), face=(k, side))
                 for k in range(n) for side in (-1, 1)]
    return dofs


# -- linear functionals on monomials: on x^m, d^alpha then one factor per
# axis, each a function of the exponent e that d^alpha leaves on its axis

def mean(degree: int):
    """Axis factor: the mean of s^e over [-1, 1] times the lcm of the odd
    numbers up to degree + 1, an integer for e <= degree, which must bound
    the row's exponents.  Rows compared must share the degree (the scale)."""
    scale = math.lcm(*range(1, degree + 2, 2))
    return lambda e: 0 if e % 2 else scale // (e + 1)


def coefficient(t: int):
    """Axis factor: the indicator [e == t], the coefficient of s^t."""
    return lambda e: int(e == t)


def functional_rows(functionals, monomials) -> list[list[int]]:
    """Rows over ``monomials`` of the functionals ``(alpha, factors)``, row
    j taking x^m -> prod_i perm(m_i, alpha_i) f_i(e_i), e_i = m_i - alpha_i:
    the functional F(d^alpha x^m) for one axis factor f_i per axis, an int
    s for the value s^e at s, or a function of e (``mean``,
    ``coefficient``).  Each row is the product over the axes of one table
    per axis factor, gathered at the monomials' exponents: in int64 when
    the product of the tables' largest entries fits, else in Python ints.
    The entries are Python ints either way."""
    mono = np.array(monomials).reshape(len(monomials), -1)
    width, axes = int(mono.max()) + 1, np.arange(mono.shape[1])
    rows = []
    for alpha, factors in functionals:
        tables = [[math.perm(m, a) * (f(m - a) if callable(f) else f ** (m - a))
                   if m >= a else 0 for m in range(width)]
                  for a, f in zip(alpha, factors)]
        fits = math.prod(max(map(abs, t)) for t in tables) < 2 ** 63
        gathered = np.array(tables, np.int64 if fits else object)[axes, mono]
        rows.append(np.prod(gathered, axis=1).tolist())
    return rows


def dof_rows(dofs, monomials, shift) -> list[list[int]]:
    """Rows over ``monomials`` of the DoF functionals applied after d^shift:
    dof_j(d^shift x^m)."""
    return functional_rows([(list(map(sum, zip(d.alpha, shift))),
                             d.anchor(len(shift))) for d in dofs], monomials)


def dof_matrix(family: Family, n: int) -> list[list[int]]:
    """Generalized Vandermonde matrix: V[j][m] = dof_j(monomial_m).

    Anchors have coordinates in {-1, 0, 1}, so every entry is an integer
    given in closed form.
    """
    monomials = shape_space(family, n)
    dofs = dof_set(family, n)
    if len(monomials) != len(dofs):
        raise ValueError(
            f"{family} at n={n}: {len(monomials)} monomials vs {len(dofs)} DoFs"
        )
    return dof_rows(dofs, monomials, (0,) * n)


# 2^k times the float inverse of a DoF matrix is ~1e-12 from its integers at
# every n <= 6; a wrong pick of k only costs the certificate (the integer
# product fails), never its truth.
_ROUND_TOL = 2.0 ** -20


def exact_product(*factors) -> np.ndarray:
    """Exact product of integer matrices, left to right (a 1-D factor is
    diagonal).  A step a @ b runs in int64 when max row |a|_1 * max |b| <
    2^62 bounds its entries, partial sums and the sum of two such products,
    else in Python ints (an object array): nothing ever wraps."""
    out = np.asarray(factors[0])
    for b in map(np.asarray, factors[1:]):
        rows = np.abs(out) if out.ndim == 1 else np.abs(out).sum(axis=1)
        fits = max(int(rows.max()), 1) * int(np.abs(b).max()) < 2 ** 62
        a, b = (x.astype(np.int64 if fits else object) for x in (out, b))
        out = a[:, None] * b if a.ndim == 1 else a * b if b.ndim == 1 else a @ b
    return out


def is_exact_inverse(matrix, numerators, denominator: int) -> bool:
    """True when ``matrix @ numerators == denominator * I`` exactly, the
    product taken by ``exact_product``.  A denominator of 2^62 or more is
    not certified."""
    return abs(denominator) < 2 ** 62 and np.array_equal(
        exact_product(matrix, numerators),
        denominator * np.eye(len(matrix), dtype=np.int64))


def certified_inverse(matrix) -> tuple[list[list[int]], int]:
    """Exact inverse of an integer matrix as numerators C over d = 2^k.

    For the smallest k >= 0 at which 2^k times the float inverse rounds to
    integers C, checks ``is_exact_inverse(matrix, C, 2^k)``.  Raises
    ``ValueError`` when the matrix is not certified: singular, or with an
    inverse that is not dyadic.
    """
    v = np.array(matrix, dtype=np.int64)
    try:
        scaled = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise ValueError("not certified: singular in floats") from exc
    d = 1
    while np.abs(scaled).max() < 2.0 ** 62:    # False on inf and nan too
        c = np.rint(scaled)
        if np.abs(scaled - c).max() <= _ROUND_TOL:
            c = c.astype(np.int64)
            if is_exact_inverse(v, c, d):
                return c.tolist(), d
            break
        scaled, d = 2.0 * scaled, 2 * d
    raise ValueError("not certified: no dyadic inverse checks out")


@dataclass
class ReferenceElement:
    """Reference element with nodal basis dual to the DoFs, kept as the exact
    inverse of the DoF matrix: integer numerators ``coeffs[m][a]`` over one
    ``denominator`` d, basis function a being sum_m coeffs[m][a] / d * x^m.
    Built elements have d = 2^k, the reduced denominator."""

    dim: int
    family: Family
    monomials: list[tuple[int, ...]]
    dofs: list[DofFunctional]
    coeffs: list[list[int]]   # [monomial][basis function]
    denominator: int
    # (deriv, q, dim) -> (P, C) and -> Grammian on that Gauss rule; both
    # start empty, also on a dataclasses.replace copy with new coeffs
    _table_cache: dict = field(default_factory=dict, repr=False, init=False)
    _grammian_cache: dict = field(default_factory=dict, repr=False, init=False)

    @property
    def n_dofs(self) -> int:
        return len(self.dofs)

    def max_degree_per_axis(self) -> int:
        return max(max(m) for m in self.monomials)

    def eval_shape(self, deriv: tuple[int, ...], points: np.ndarray) -> np.ndarray:
        """Evaluate d^deriv of every basis function: matrix [n_points, n_dofs],
        the product ``P @ C`` of the monomial tables at the points.  Not
        cached; on a Gauss rule, ``monomial_table`` is."""
        table, coeffs = self._tables(deriv, points)
        return table @ coeffs

    def monomial_table(self, deriv: tuple[int, ...], rule
                       ) -> tuple[np.ndarray, np.ndarray]:
        """(P, C) at the points of a Gauss rule, with ``P @ C`` the d^deriv
        of the basis there, cached per derivative and rule: the cache holds
        at most one pair per multi-index and rule, whatever the mesh.

        Only the shape monomials m >= deriv survive d^deriv: P[p, s] =
        perm(m_s, deriv) * prod_i x_pi^(m_si - deriv_i) at the points, and C
        holds the rows coeffs[m_s] / denominator, each rounded once from
        ints.  A third derivative keeps few monomials, so P C v costs a
        fraction of the full table's work.
        """
        key = (tuple(map(int, deriv)), rule.q, rule.dim)
        hit = self._table_cache.get(key)
        if hit is None:
            hit = self._table_cache[key] = self._tables(deriv, rule.points)
        return hit

    def grammian(self, deriv: tuple[int, ...], rule) -> np.ndarray:
        """``d.T @ (w d)`` for ``d = P @ C`` of ``monomial_table`` and the
        rule's weights w, cached per derivative and rule, read-only: the
        stiffness's Grammians and, for deriv 0, the L2 mass matrix."""
        key = (tuple(map(int, deriv)), rule.q, rule.dim)
        hit = self._grammian_cache.get(key)
        if hit is None:
            d = np.matmul(*self.monomial_table(deriv, rule))
            hit = self._grammian_cache[key] = d.T @ (rule.weights[:, None] * d)
            hit.setflags(write=False)
        return hit

    def _tables(self, deriv, points) -> tuple[np.ndarray, np.ndarray]:
        """(P, C) of ``monomial_table`` at any [m, dim] points, read-only."""
        deriv = tuple(map(int, deriv))
        if len(deriv) != self.dim:
            raise ValueError("derivative multi-index has wrong length")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError("points have wrong dimension")
        factors = [math.prod(map(math.perm, m, deriv)) for m in self.monomials]
        keep = np.flatnonzero(factors)      # the monomials m >= deriv
        exps = np.array(self.monomials)[keep] - deriv
        width = self.max_degree_per_axis() + 1
        table = np.empty((len(pts), len(keep)))
        table[...] = np.array(factors, dtype=float)[keep]
        for x, e in zip(pts.T, exps.T):
            table *= np.vander(x, width, increasing=True)[:, e]
        coeffs = np.array([[c / self.denominator for c in self.coeffs[s]]
                           for s in keep]).reshape(len(keep), self.n_dofs)
        for arr in (table, coeffs):
            arr.setflags(write=False)
        return table, coeffs


@functools.cache
def build_dual_basis(family: Family, n: int) -> ReferenceElement:
    """Build (and cache) the reference element with its certified nodal basis."""
    matrix = dof_matrix(family, n)     # n < 1 or unequal sizes raise as they are
    try:
        coeffs, d = certified_inverse(matrix)
    except ValueError as exc:
        raise ValueError(
            f"DoF matrix for {family} at n={n} is {exc} (shape space and DoF"
            " set do not pair, or the inverse is not dyadic)"
        ) from exc
    return ReferenceElement(n, family, shape_space(family, n), dof_set(family, n),
                            coeffs, d)


# -- closed form -----------------------------------------------------------

def morley_closed_form(n: int) -> list[list[tuple[np.ndarray, ...]]]:
    """Closed-form Morley-type nodal basis with unit half-lengths, as
    integer numerators over 2^(n+3): basis function a is 2^-(n+3) times the
    sum over its terms of prod_k p_k(xi_k), each term a tuple of n int64
    coefficient vectors p_k in increasing powers of xi_k, built from
    (1 + s xi_k), (xi_k^2 - 1)^2 and xi_k.

    Returned in the same order as ``dof_set(MORLEY, n)``: per vertex
    [value, grad_1..grad_n], then face functions per axis (-, +).
    """
    if n < 2:
        raise ValueError("Morley-type closed form needs n >= 2")
    ones = [np.array([1])] * n
    bump = np.array([1, 0, -2, 0, 1])     # (xi^2 - 1)^2

    def term(k, p, rest):
        """p on axis k, rest[i] on every other axis i."""
        return tuple(p if i == k else rest[i] for i in range(n))

    basis = []
    for signs in reference_vertices(n):
        lins = [np.array([1, s]) for s in signs]     # prod of (1 + s_k xi_k)
        # 2^(n+3) p0 = 4 (2 + sum_k (s_k xi_k - xi_k^2)) prod
        #              + sum_k 3 s_k xi_k (xi_k^2 - 1)^2
        basis.append([term(0, 8 * lins[0], lins)]
                     + [term(k, 4 * np.convolve([0, s, -1], lins[k]), lins)
                        for k, s in enumerate(signs)]
                     + [term(k, 3 * s * np.convolve([0, 1], bump), ones)
                        for k, s in enumerate(signs)])
        # 2^(n+3) p_j = 4 s_j (xi_j^2 - 1) prod - (s_j + 3 xi_j) (xi_j^2 - 1)^2
        for j, s in enumerate(signs):
            basis.append([term(j, 4 * s * np.convolve([-1, 0, 1], lins[j]), lins),
                          term(j, -np.convolve([s, 3], bump), ones)])
    # 2^(n+3) r = 2^(n-1) side (xi_k^2 - 1)^2 (xi_k + side)
    basis += [[term(k, 2 ** (n - 1) * side * np.convolve([side, 1], bump), ones)]
              for k in range(n) for side in (-1, 1)]
    return basis
