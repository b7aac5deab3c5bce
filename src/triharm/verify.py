"""Numerical and exact verification suites for the element families.

Covers unisolvence and duality (one exact integer product V C = d I per
element, the certificate of ``reference.certified_inverse``), the weak /
strong continuity of second derivatives across faces, the face-integral
identities behind the tangential-normal estimates, and polynomial patch
tests of the full solve pipeline.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .analysis import broken_norms, solve_case
from .cases import polynomial_case
from .mesh import BoxDomain, uniform_mesh
from .polynomials import Polynomial
from .reference import (
    ADINI_CLASSIC, ADINI_TYPE, MORLEY, Q1, Family, ReferenceElement, apply_dof,
    build_dual_basis, dof_matrix, is_exact_inverse,
    morley_closed_form, partial_adini, shape_space,
)
from .space import build_space

__all__ = [
    "VerificationReport",
    "verify_unisolvence", "verify_duality", "verify_weak_continuity",
    "verify_local_interpolation", "verify_patch_test", "run_suite", "SUITES",
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
    fams = [Q1, ADINI_CLASSIC, ADINI_TYPE]
    fams += [partial_adini(i) for i in range(n)]
    if n >= 2:
        fams.append(MORLEY)
    return fams


def verify_unisolvence(dims=(1, 2, 3, 4)) -> VerificationReport:
    """A certified inverse of the DoF-monomial matrix per family: V C = d I
    in integers, d = 2^k, proves the matrix invertible.  It is the one
    ``build_dual_basis`` checks, so the element is built once for every
    suite."""
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


def verify_duality(dims=(1, 2, 3, 4)) -> VerificationReport:
    """Exact Kronecker-delta duality, closed forms, and P3 reproduction."""
    rep = VerificationReport("duality")
    for n in dims:
        for fam in _families_for(n):
            rep.add(f"delta {fam} n={n}", _is_dual(build_dual_basis(fam, n)))
    for n in (n for n in dims if n >= 2):
        ok = build_dual_basis(MORLEY, n).basis == morley_closed_form(n)
        rep.add(f"morley closed form n={n}", ok)
        # P3 reproduction: every cubic monomial is its own interpolant
        cubics = [Polynomial.monomial(n, exps)
                  for exps in itertools.product(range(4), repeat=n)
                  if sum(exps) <= 3]
        for fam in (MORLEY, ADINI_TYPE):
            ok = all(_interpolate(fam, n, mono) == mono for mono in cubics)
            rep.add(f"P3 reproduction {fam} n={n}", ok)
    return rep


# -- weak continuity on small meshes (exact rational arithmetic) -----------

def _has_face_dofs(family: Family) -> bool:
    """True for Morley-type elements (face DoFs), False for Adini-type ones
    (vertex second derivatives); other elements are not H3-nonconforming."""
    if not family.faces and family.order < 2:
        raise ValueError(f"{family} has neither face nor second-derivative DoFs;"
                         " the H3 suites apply to Morley- and Adini-type elements")
    return family.faces


def _exact_setup(family: Family, n: int, subs):
    """Space over [-1,1]^n with exact per-cell scalings and half-lengths.

    Cell geometry is dyadic, so the float-to-Fraction conversion is exact.
    """
    domain = BoxDomain((-1.0,) * n, (1.0,) * n)
    mesh = uniform_mesh(domain, subs)
    space = build_space(mesh, family)
    scalings = [[Fraction(float(s)) for s in row] for row in space.cell_scalings]
    halves = [[Fraction(float(h)) for h in row] for row in mesh.cell_half_lengths]
    return space, scalings, halves


def _face_traces(phi: Polynomial, morley: bool) -> dict:
    """Checked quantities of one reference basis function on each face
    (k, side) of the reference cell, before the half-length scaling.

    A quantity is keyed (a, b, exps): the second derivative along axes
    a, b, as a face integral (Morley-type: tangential-tangential pairs and
    (k, k), exps None) or as the coefficient of monomial exps of the trace
    (Adini-type: (k, k) only).  On a cell it scales by 1 / (h_a h_b).
    """
    n = phi.dim
    box = [-1] * max(n - 1, 1), [1] * max(n - 1, 1)
    first = [phi.diff(a) for a in range(n)]
    second = {}
    out = {}
    for k in range(n):
        tang = [t for t in range(n) if t != k] if morley else []
        pairs = [(a, b) for i, a in enumerate(tang) for b in tang[i:]] + [(k, k)]
        for side in (-1, 1):
            quantities = out[k, side] = {}
            for a, b in pairs:
                if (a, b) not in second:
                    second[a, b] = first[a].diff(b)
                trace = second[a, b].restrict(k, side)
                if not morley:
                    quantities.update(((a, b, e), c) for e, c in trace.terms.items())
                elif mean := trace.integrate_box(*box):
                    quantities[a, b, None] = mean
    return out


def verify_weak_continuity(family: Family, n: int) -> VerificationReport:
    """Second-derivative continuity across and on faces, proved exactly.

    Morley-type: face means of tangential-tangential and normal-normal
    second derivatives agree across every interior face and vanish on
    boundary faces when the boundary DoFs are zero.  Adini-type: the
    normal-normal trace agrees as a polynomial, and vanishes on boundary
    faces in the zero-boundary case.

    Every checked quantity is linear in the global coefficient vector, so
    each face gets one exact row, keyed by (quantity, global DoF): the
    per-basis-function traces of its cells, scattered through the cell maps
    and scalings.  An interior row must vanish identically and a boundary
    row on the free DoFs, which covers every coefficient vector at once.
    """
    morley = _has_face_dofs(family)
    rep = VerificationReport(f"continuity {family} n={n}")

    elem = traces = None   # both meshes share the reference element
    # two meshes: a single shared face, and a grid with an interior vertex
    for subs in ([2] + [1] * (n - 1), [2] * n):
        space, scalings, halves = _exact_setup(family, n, subs)
        mesh = space.mesh
        free = ~space.boundary_mask
        if space.element is not elem:
            elem = space.element
            traces = [_face_traces(phi, morley) for phi in elem.basis]

        def scatter(row: dict, ci: int, k: int, side: int):
            h = halves[ci]
            for li, local in enumerate(traces):
                gi = int(space.cell_dof_indices[ci, li])
                c = side * scalings[ci][li]   # jump = lo's (+1) - hi's (-1)
                for q, v in local[k, side].items():
                    row[q, gi] = row.get((q, gi), 0) + c * v / (h[q[0]] * h[q[1]])

        interior, boundary = [], []
        for fi in range(mesh.n_faces):
            k = int(mesh.face_axis[fi])
            row = {}
            lo, hi = (int(c) for c in mesh.face_cells[fi])  # face: lo's +1 side
            if lo >= 0:
                scatter(row, lo, k, 1)
            if hi >= 0:
                scatter(row, hi, k, -1)
            if mesh.boundary_face_mask[fi]:
                boundary += [(fi, q, gi, v) for (q, gi), v in row.items()
                             if v and free[gi]]
            else:
                interior += [(fi, q, gi, v) for (q, gi), v in row.items() if v]

        label = "x".join(map(str, subs))
        for name, bad in (("interior jumps", interior),
                          ("boundary traces", boundary)):
            detail = ""
            if bad:
                fi, (a, b, exps), gi, v = bad[0]
                term = "mean" if exps is None else f"x^{exps}"
                detail = (f"{len(bad)} nonzero entries; first: face {fi},"
                          f" d{a}{b} {term}, dof {gi}: {v}")
            rep.add(f"mesh {label}: {name}", not bad, detail)
    return rep


# -- face-integral identities of the local interpolation operators ---------

def _interpolate(family: Family, n: int, v: Polynomial) -> Polynomial:
    """Canonical reference-cell interpolation: x^m gets sum_j N[m][j] dof_j(v) / d."""
    elem = build_dual_basis(family, n)
    values = [apply_dof(dof, v, n) for dof in elem.dofs]
    scale = math.lcm(*(x.denominator for x in values))
    nums, d = [int(x * scale) for x in values], scale * elem.denominator
    return Polynomial(n, {m: Fraction(sum(map(operator.mul, row, nums)), d)
                          for m, row in zip(elem.monomials, elem.coeffs)})


def verify_local_interpolation(family: Family, n: int) -> VerificationReport:
    """Exact face integrals of the interpolation residual derivative.

    For every shape-space monomial v and every face F_j^pm with j != i:
    Morley-type checks d_i(d_i Pi1 v - Pi0 d_i Pi1 v); Adini-type checks
    d_i(d_i v - Pi^{e_i} d_i v).  Both integrate to zero exactly.
    """
    morley = _has_face_dofs(family)
    rep = VerificationReport(f"local-interp {family} n={n}")
    box = [-1] * max(n - 1, 1), [1] * max(n - 1, 1)
    ok = True
    worst = ""
    for exps in shape_space(family, n):
        v = Polynomial.monomial(n, exps)
        for i in range(n):
            if morley:
                w = _interpolate(ADINI_CLASSIC, n, v)
                u = w.diff(i)
                g = u - _interpolate(Q1, n, u)
            else:
                u = v.diff(i)
                g = u - _interpolate(partial_adini(i), n, u)
            gi = g.diff(i)
            for j in range(n):
                if j == i:
                    continue
                for side in (-1, 1):
                    val = gi.restrict(j, side).integrate_box(*box)
                    if val != 0:
                        ok = False
                        worst = f"v={exps} i={i} j={j} side={side} -> {val}"
    rep.add("all shape-space basis functions", ok, worst)
    return rep


# -- patch test ------------------------------------------------------------

def _random_cubic(n: int, rng: random.Random) -> Polynomial:
    p = Polynomial.zero(n)
    for exps in itertools.product(range(4), repeat=n):
        if sum(exps) > 3:
            continue
        c = rng.randint(-3, 3)
        if c:
            p = p + Polynomial.monomial(n, exps, c)
    return p


def verify_patch_test(family: Family, n: int) -> VerificationReport:
    """Cubic solutions are reproduced by the solved discrete problem."""
    rep = VerificationReport(f"patch {family} n={n}")
    rng = random.Random(0)
    x = [Polynomial.variable(n, i) for i in range(n)]
    cubics = [("x1^3", x[0] ** 3), ("x1^2 x2", x[0] ** 2 * x[1] if n >= 2 else x[0] ** 3)]
    if n >= 3:
        cubics.append(("x1 x2 x3", x[0] * x[1] * x[2]))
    cubics.append(("random cubic", _random_cubic(n, rng)))

    if n == 2:
        mesh_subs = [(2, 1), (2, 2), (4, 2)]
    elif n == 3:
        mesh_subs = [(2, 1, 1), (2, 2, 1), (2, 2, 2)]
    else:
        mesh_subs = [(2,) + (1,) * (n - 1)]
    domain = BoxDomain((0.0,) * n, (1.0,) * n)

    for label, u in cubics:
        case = polynomial_case(u, domain, name=label)
        for subs in mesh_subs:
            space, coeffs, _ = solve_case(case, family, subs)
            errs = broken_norms(space, coeffs, case)
            scale = max(1.0, broken_norms(space, np.zeros(space.n_dofs), case)[3])
            ok = errs[3] <= 1e-7 * scale
            rep.add(f"{label} cells={subs}", ok, f"|u-u_h|_3={errs[3]:.2e}")
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


def run_suite(name: str, dims=(2, 3)) -> list[VerificationReport]:
    """Run one named suite (or 'all') over the requested dimensions.

    A dimension listed twice runs once, in first-seen order.  The
    continuity, local-interp and patch suites need n >= 2; 'all' skips
    them for smaller n, and a run that would check nothing, or is given no
    dimensions, raises ``ValueError``.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    dims = tuple(dict.fromkeys(dims))
    if not dims:
        raise ValueError("no dimensions given")
    names = SUITES if name == "all" else (name,)
    reports = [rep for sub in names for rep in _suite_reports(sub, dims)]
    if not any(rep.items for rep in reports):
        raise ValueError(f"suite {name!r} checks nothing for dims={dims}"
                         " (continuity, local-interp and patch need n >= 2)")
    return reports
