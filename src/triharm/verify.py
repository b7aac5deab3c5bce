"""Exact and numerical verification suites for the element families.

Unisolvence and duality are one integer product V C = d I per element, the
certificate of ``reference.certified_inverse``.  The other exact checks are
integer rows over the shape monomials times the certified C: the weak /
strong continuity of second derivatives across faces, the face-integral
identities behind the tangential-normal estimates and P3 reproduction.
The Morley basis meets its closed form as integers too: the closed form's
numerators, summed over every monomial its terms touch, against C.  No
suite does rational arithmetic.
The patch test is a float proof: one Cholesky factor per mesh solves for
every cubic monomial, each solution compared with its interpolant, all of
them interpolated in one call.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .cases import monomials_case
from .interpolation import canonical_interpolate
from .mesh import BoxDomain, uniform_mesh
from .reference import (
    ADINI_CLASSIC, ADINI_TYPE, MORLEY, Q1, Family, ReferenceElement,
    build_dual_basis, coefficient, dof_matrix, dof_rows, exact_product,
    functional_rows, is_exact_inverse, mean, morley_closed_form, partial_adini,
    shape_space,
)
from .solver import cholesky
from .space import build_space

__all__ = [
    "VerificationReport",
    "verify_unisolvence", "verify_duality", "verify_weak_continuity",
    "verify_local_interpolation", "verify_patch_test", "run_suite", "suite_dims",
    "SUITES",
]


@dataclass
class VerificationReport:
    suite: str
    items: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, label: str, ok: bool, detail: str = ""):
        self.items.append((label, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.items)

    def failures(self):
        return [(label, detail) for label, ok, detail in self.items if not ok]


def _families_for(n: int) -> list[Family]:
    if n < 1:
        raise ValueError(f"dimensions must be >= 1, got {n}")
    fams = [Q1, ADINI_CLASSIC, ADINI_TYPE]
    fams += [partial_adini(i) for i in range(n)]
    if n >= 2:
        fams.append(MORLEY)
    return fams


def verify_unisolvence(dims=(1, 2, 3, 4)) -> VerificationReport:
    """A certified inverse of the DoF-monomial matrix per family: V C = d I
    in integers, d = 2^k, proves the matrix invertible.  It is the one
    ``build_dual_basis`` checks, so the element is built once for every
    suite.  A matrix that is not certified is a failed item; a dimension
    below 1 raises ``ValueError``."""
    rep = VerificationReport("unisolvence")
    for n in dims:
        for fam in _families_for(n):
            try:
                d = build_dual_basis(fam, n).denominator
            except ValueError:
                rep.add(f"{fam} n={n}", False, "not certified")
            else:
                rep.add(f"{fam} n={n}", True, f"d=2^{d.bit_length() - 1}")
    return rep


def _is_dual(elem: ReferenceElement) -> bool:
    """dof_j(phi_a) == [a == j] exactly: V C == d I in integers."""
    return is_exact_inverse(dof_matrix(elem.family, elem.dim), elem.coeffs,
                            elem.denominator)


def _closed_form_numerators(elem: ReferenceElement, functions) -> np.ndarray | None:
    """N[m, a], the numerator of x^m in function a of a closed form given as
    sums of separable integer products (``morley_closed_form``): each term
    adds the outer product of its factors' nonzero coefficients at the
    monomials they touch, in int64.  None when a term touches a monomial
    outside the shape space."""
    n, width = elem.dim, elem.max_degree_per_axis() + 1
    place = width ** np.arange(n)
    row = np.full(width ** n, -1)          # shape monomial row by key
    row[np.array(elem.monomials) @ place] = np.arange(len(elem.monomials))
    out = np.zeros((len(elem.monomials), len(functions)), np.int64)
    for a, terms in enumerate(functions):
        for factors in terms:
            support = [np.flatnonzero(p) for p in factors]
            if max(e.max(initial=0) for e in support) >= width:
                return None
            rows = row[functools.reduce(np.add.outer, [
                e * w for e, w in zip(support, place)]).ravel()]
            if (rows < 0).any():
                return None
            # distinct monomials within a term: one addition each
            out[rows, a] += functools.reduce(np.multiply.outer, [
                p[e] for p, e in zip(factors, support)]).ravel()
    return out


def verify_duality(dims=(1, 2, 3, 4)) -> VerificationReport:
    """Exact Kronecker-delta duality, closed forms, and P3 reproduction.

    The Morley basis equals its closed form, numerators N over 2^(n+3),
    when d N = 2^(n+3) C in integers on every shape monomial and no term of
    the closed form touches another monomial: full polynomial equality."""
    rep = VerificationReport("duality")
    for n in dims:
        for fam in _families_for(n):
            rep.add(f"delta {fam} n={n}", _is_dual(build_dual_basis(fam, n)))
    for n in (n for n in dims if n >= 2):
        elem = build_dual_basis(MORLEY, n)
        numerators = _closed_form_numerators(elem, morley_closed_form(n))
        size = len(elem.monomials)
        ok = numerators is not None and np.array_equal(
            exact_product([elem.denominator] * size, numerators),
            exact_product([2 ** (n + 3)] * size, elem.coeffs))
        rep.add(f"morley closed form n={n}", ok)
        # P3 reproduction, every cubic its own interpolant: C V = d E in
        # integers, V the DoFs of the cubics and E their shape monomials
        cubics = _cubics(n)
        for fam in (MORLEY, ADINI_TYPE):
            elem = build_dual_basis(fam, n)
            embed = np.array([[int(m == c) for c in cubics] for m in elem.monomials])
            ok = embed.sum() == len(cubics) and np.array_equal(
                exact_product(elem.coeffs, dof_rows(elem.dofs, cubics, (0,) * n)),
                elem.denominator * embed)
            rep.add(f"P3 reproduction {fam} n={n}", ok)
    return rep


# -- weak continuity on small meshes (exact integer rows) -------------------

def _has_face_dofs(family: Family) -> bool:
    """True for Morley-type elements (face DoFs), False for Adini-type ones
    (vertex second derivatives); other elements are not H3-nonconforming."""
    if not family.faces and family.order < 2:
        raise ValueError(f"{family} has neither face nor second-derivative DoFs;"
                         " the H3 suites apply to Morley- and Adini-type elements")
    return family.faces


def _dyadic(values: np.ndarray) -> np.ndarray:
    """Floats as exact integer numerators over one common power of two."""
    ratios = [v.as_integer_ratio() for v in values.ravel().tolist()]
    den = max(d for _, d in ratios)
    return np.array([p * den // d for p, d in ratios], object).reshape(values.shape)


def _exact_setup(family: Family, n: int, subs):
    """Space over [-1,1]^n with its per-cell DoF scalings and half-lengths,
    each read exactly as integers over one power of two (``_dyadic``)."""
    mesh = uniform_mesh(BoxDomain((-1.0,) * n, (1.0,) * n), subs)
    space = build_space(mesh, family)
    return space, _dyadic(space.cell_scalings), _dyadic(mesh.cell_half_lengths)


def _face_functional(n: int, axes, k: int, side: int, tangential):
    """``(alpha, factors)`` of d^alpha (alpha = sum of e_a over ``axes``)
    on the face x_k = side, read by the axis factors ``tangential`` on the
    other axes in order (``functional_rows``)."""
    rest = iter(tangential)
    return ([axes.count(i) for i in range(n)],
            [side if i == k else next(rest) for i in range(n)])


def _face_quantities(elem: ReferenceElement, k: int, side: int, morley: bool):
    """Checked quantities on face (k, side) of the reference cell, keyed
    (a, b, t), and their integer matrix over the basis, rows times C: the
    second derivative along axes a, b as a face mean (Morley-type: pairs of
    tangential axes and (k, k), t None) or as the coefficient of monomial t
    of its trace (Adini-type: (k, k) only), times a positive factor shared
    by the basis.  On a cell it scales by 1 / (h_a h_b)."""
    if morley:
        keys = [(a, b, None) for a in range(elem.dim) for b in range(a, elem.dim)
                if k not in (a, b)] + [(k, k, None)]
    else:
        keys = [(k, k, t) for t in dict.fromkeys(
            m[:k] + m[k + 1:] for m in elem.monomials if m[k] >= 2)]
    means = [mean(elem.max_degree_per_axis())] * (elem.dim - 1)
    rows = np.array(functional_rows(
        [_face_functional(elem.dim, (a, b), k, side,
                          means if t is None else map(coefficient, t))
         for a, b, t in keys], elem.monomials))
    # most monomials read zero on every key: multiply only the others
    used = np.flatnonzero(rows.any(axis=0))
    return keys, exact_product(rows[:, used], [elem.coeffs[m] for m in used])


def verify_weak_continuity(family: Family, n: int) -> VerificationReport:
    """Second-derivative continuity across and on faces, proved exactly.

    Morley-type: face means of tangential-tangential and normal-normal
    second derivatives agree across every interior face and vanish on
    boundary faces when the boundary DoFs are zero.  Adini-type: the
    normal-normal trace agrees as a polynomial, and vanishes on boundary
    faces in the zero-boundary case.

    Every checked quantity is linear in the global coefficient vector, so
    each face gets one integer row per quantity: each cell's quantity
    matrix times its DoF scalings and the other cell's h_a h_b, scattered
    through its DoF map.  An interior row must vanish identically and a
    boundary row on the free DoFs, which covers every coefficient vector.
    """
    morley = _has_face_dofs(family)
    rep = VerificationReport(f"continuity {family} n={n}")

    # two meshes: a single shared face, and a grid with an interior vertex
    for subs in ([2] + [1] * (n - 1), [2] * n):
        space, scalings, halves = _exact_setup(family, n, subs)
        mesh = space.mesh
        faces = {(k, side): _face_quantities(space.element, k, side, morley)
                 for k in range(n) for side in (-1, 1)}
        interior, boundary = [], []
        for fi in range(mesh.n_faces):
            k = int(mesh.face_axis[fi])
            lo, hi = (int(c) for c in mesh.face_cells[fi])  # face: lo's +1 side
            keys = faces[k, 1][0]
            hh = {c: [1 if c < 0 else halves[c, a] * halves[c, b] for a, b, _ in keys]
                  for c in (lo, hi)}
            # jump = lo's (+1) - hi's (-1), times h_a h_b of both cells
            terms = {c: side * exact_product(hh[other], faces[k, side][1], scalings[c])
                     for side, c, other in ((1, lo, hi), (-1, hi, lo)) if c >= 0}
            # the row over the DoFs of the face's one or two cells
            dofs, local = np.unique(space.cell_dof_indices[list(terms)],
                                    return_inverse=True)
            row = np.zeros((len(keys), len(dofs)), np.result_type(*terms.values()))
            for term, cols in zip(terms.values(), local.reshape(len(terms), -1)):
                row[:, cols] += term
            bad = interior
            if mesh.boundary_face_mask[fi]:
                bad, row[:, space.boundary_mask[dofs]] = boundary, 0
            bad += [f"face {fi}, d{a}{b} {'mean' if t is None else f'x^{t}'},"
                    f" dof {dofs[j]}: {row[q, j]}"
                    for q, j in zip(*np.nonzero(row)) for a, b, t in [keys[q]]]

        label = "x".join(map(str, subs))
        for name, bad in (("interior jumps", interior),
                          ("boundary traces", boundary)):
            first = f"{len(bad)} nonzero; first: {bad[0]} (scaled)" if bad else ""
            rep.add(f"mesh {label}: {name}", not bad, first)
    return rep


# -- face-integral identities of the local interpolation operators ---------

def verify_local_interpolation(family: Family, n: int) -> VerificationReport:
    """Exact face integrals of the interpolation residual derivative.

    For every shape-space monomial v and every face F_j^pm with j != i:
    Morley-type checks d_i(d_i Pi1 v - Pi0 d_i Pi1 v); Adini-type checks
    d_i(d_i v - Pi^{e_i} d_i v).  Both integrate to zero exactly.

    With X the source coefficients of every v (d_AC Pi1 v, or v), C / d the
    target interpolant (Pi0 or Pi^{e_i}), W its DoFs of d_i x^m and R1, R0
    the face means of d_i d_i x^m and d_i x^m: R1 X d - R0 C W X = 0.
    """
    morley = _has_face_dofs(family)
    rep = VerificationReport(f"local-interp {family} n={n}")
    monomials = shape_space(family, n)
    source, x = monomials, np.eye(len(monomials), dtype=np.int64)
    if morley:   # d_AC Pi1 v, the Adini-classic interpolant of every v
        ac = build_dual_basis(ADINI_CLASSIC, n)
        source = ac.monomials
        x = exact_product(ac.coeffs, dof_rows(ac.dofs, monomials, (0,) * n))
    bad = []
    for i in range(n):
        target = build_dual_basis(Q1 if morley else partial_adini(i), n)
        means = [mean(max(map(max, source + target.monomials)))] * (n - 1)
        faces = [(j, side) for j in range(n) if j != i for side in (-1, 1)]
        r1, r0 = (functional_rows([_face_functional(n, axes, j, side, means)
                                   for j, side in faces], mono)
                  for mono, axes in ((source, (i, i)), (target.monomials, (i,))))
        w = dof_rows(target.dofs, source, shift=[int(a == i) for a in range(n)])
        residual = (exact_product([target.denominator] * len(faces), r1, x)
                    - exact_product(r0, target.coeffs, w, x))
        bad += [f"v={monomials[m]} i={i} j={j} side={side} -> {residual[f, m]}"
                for f, m in zip(*np.nonzero(residual)) for j, side in [faces[f]]]
    detail = f"{len(bad)} nonzero; first: {bad[0]} (scaled)" if bad else ""
    rep.add("all shape-space basis functions", not bad, detail)
    return rep


# -- patch test ------------------------------------------------------------

def _cubics(n: int) -> list[tuple[int, ...]]:
    """Exponents of the C(n+3, 3) monomials of degree at most 3."""
    return [e for e in itertools.product(range(4), repeat=n) if sum(e) <= 3]


def verify_patch_test(family: Family, n: int) -> VerificationReport:
    """u_h = Pi_h u for every cubic u, on two meshes with interior vertices.

    The solve is linear in u and (-Delta)^3 u = 0, so the cubic monomials
    cover every cubic and differ only in the boundary data: one Cholesky
    factor per mesh serves all, and one interpolation gives Pi_h of every
    monomial, a column each.  The factor's pass over A's free rows
    multiplies them by the boundary data of all columns.  Equal
    coefficients, to 1e-9 of max(1, max |Pi_h u|), are equal functions in
    every broken norm, and Pi_h u = u (duality's P3 reproduction)."""
    rep = VerificationReport(f"patch {family} n={n}")
    domain = BoxDomain((0.0,) * n, (1.0,) * n)
    cubics = _cubics(n)
    for subs in ((2,) * n, (4,) + (2,) * (n - 1)):
        space = build_space(uniform_mesh(domain, subs), family)
        free = space.free_dofs()
        table = canonical_interpolate(space, monomials_case(cubics, domain))
        # the boundary data alone: A's free rows couple them to the free DoFs
        factor = cholesky(space, x=np.where(space.boundary_mask[:, None], table, 0.0))
        devs = []
        for exact, ax, e in zip(table.T, factor.ax.T, cubics):
            u_h = np.where(space.boundary_mask, exact, 0.0)
            u_h[free] = factor.solve(-ax)
            scale = max(1.0, np.abs(exact).max())
            devs.append((np.abs(u_h - exact).max() / scale, e))
        dev, e = max(devs)
        rep.add(f"cells={subs}: {len(cubics)} cubic monomials", dev <= 1e-9,
                f"worst x^{e}: deviation {dev:.1e}")
    return rep


SUITES = ("unisolvence", "duality", "continuity", "local-interp", "patch")


def _suite_reports(name: str, dims) -> list[VerificationReport]:
    if name == "unisolvence":
        return [verify_unisolvence(dims)]
    if name == "duality":
        return [verify_duality(dims)]
    check = {"continuity": verify_weak_continuity,
             "local-interp": verify_local_interpolation,
             "patch": verify_patch_test}[name]
    return [check(fam, n) for n in dims if n >= 2 for fam in (MORLEY, ADINI_TYPE)]


def suite_dims(name: str, dims) -> tuple[int, ...]:
    """The dimensions ``run_suite(name, dims)`` checks: each once, in
    first-seen order.  An unknown suite, no dimension, one below 1, or
    nothing to check (continuity, local-interp and patch need n >= 2)
    raises ``ValueError``."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    dims = tuple(dict.fromkeys(dims))
    if not dims:
        raise ValueError("no dimensions given")
    if low := [n for n in dims if n < 1]:
        raise ValueError(f"dimensions must be >= 1, got {', '.join(map(str, low))}")
    if name not in ("all", "unisolvence", "duality") and max(dims) < 2:
        raise ValueError(f"suite {name!r} checks nothing for dims={dims}"
                         " (continuity, local-interp and patch need n >= 2)")
    return dims


def run_suite(name: str, dims=(2, 3)) -> list[VerificationReport]:
    """Run one named suite (or 'all') over the requested dimensions.

    A dimension listed twice runs once, in first-seen order.  The
    continuity, local-interp and patch suites need n >= 2; 'all' skips
    them for smaller n.  Arguments that ``suite_dims`` rejects raise
    ``ValueError`` before anything is built.
    """
    dims = suite_dims(name, dims)
    names = SUITES if name == "all" else (name,)
    return [rep for sub in names for rep in _suite_reports(sub, dims)]
