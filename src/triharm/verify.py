"""Numerical and exact verification suites for the element families.

Covers unisolvence and duality (exact rational arithmetic), the weak /
strong continuity of second derivatives across faces, the face-integral
identities behind the tangential-normal estimates, and polynomial patch
tests of the full solve pipeline.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .analysis import broken_norms
from .assembly import apply_dirichlet, assemble, gauss_rule
from .cases import polynomial_case
from .interpolation import boundary_values_from_case
from .mesh import BoxDomain, uniform_mesh
from .polynomials import Polynomial
from .reference import (
    ADINI_CLASSIC, ADINI_TYPE, MORLEY, Q1, Family, apply_dof, build_dual_basis,
    dof_set, morley_closed_form, partial_adini, unisolvence_determinant,
)
from .solver import solve_direct
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
    """Exact nonzero determinant of the DoF-monomial matrix per family."""
    rep = VerificationReport("unisolvence")
    for n in dims:
        for fam in _families_for(n):
            d = unisolvence_determinant(fam, n)
            rep.add(f"{fam} n={n}", d != 0, f"det={d}")
    return rep


def verify_duality(dims=(1, 2, 3, 4)) -> VerificationReport:
    """Exact Kronecker-delta duality, closed forms, and P3 reproduction."""
    rep = VerificationReport("duality")
    for n in dims:
        for fam in _families_for(n):
            elem = build_dual_basis(fam, n)
            ok = all(
                apply_dof(dof, phi, n) == (1 if i == j else 0)
                for j, dof in enumerate(elem.dofs)
                for i, phi in enumerate(elem.basis)
            )
            rep.add(f"delta {fam} n={n}", ok)
    for n in (2, 3):
        elem = build_dual_basis(MORLEY, n)
        closed = morley_closed_form(n)
        ok = all(a == b for a, b in zip(elem.basis, closed))
        rep.add(f"morley closed form n={n}", ok)
    # P3 reproduction: sum_i dof_i(m) basis_i == m for every cubic monomial
    for n in (2, 3):
        for fam in (MORLEY, ADINI_TYPE):
            elem = build_dual_basis(fam, n)
            ok = True
            for exps in itertools.product(range(4), repeat=n):
                if sum(exps) > 3:
                    continue
                mono = Polynomial.monomial(n, exps)
                rec = Polynomial.zero(n)
                for dof, phi in zip(elem.dofs, elem.basis):
                    rec = rec + apply_dof(dof, mono, n) * phi
                if rec != mono:
                    ok = False
                    break
            rep.add(f"P3 reproduction {fam} n={n}", ok)
    return rep


# -- weak continuity on small meshes (exact rational arithmetic) -----------

def _has_face_dofs(family: Family, n: int) -> bool:
    """True for Morley-type elements (face DoFs), False for Adini-type ones
    (vertex second derivatives); other elements are not H3-nonconforming."""
    kinds = {dof.kind for dof in dof_set(family, n)}
    if "face_nn" not in kinds and "second" not in kinds:
        raise ValueError(f"{family} has neither face nor second-derivative DoFs;"
                         " the H3 suites apply to Morley- and Adini-type elements")
    return "face_nn" in kinds


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


def _cell_polynomial(space, scalings, ci: int, coeffs) -> Polynomial:
    """Exact reference-coordinate polynomial of cell ci for integer DoFs."""
    elem = space.element
    p = Polynomial.zero(space.dim)
    for li, phi in enumerate(elem.basis):
        gi = space.cell_dof_indices[ci, li]
        c = scalings[ci][li] * coeffs[gi]
        if c:
            p = p + c * phi
    return p


def verify_weak_continuity(family: Family, n: int, trials: int = 100,
                           seed: int = 0) -> VerificationReport:
    """Second-derivative continuity across and on faces, exactly.

    Morley-type: face means of tangential-tangential and normal-normal
    second derivatives agree across the interior face and vanish on
    boundary faces for coefficient vectors with zero boundary DoFs.
    Adini-type: the normal-normal trace agrees pointwise (polynomial
    identity), and vanishes on boundary faces in the zero-boundary case.
    """
    morley = _has_face_dofs(family, n)
    rep = VerificationReport(f"continuity {family} n={n}")
    rng = random.Random(seed)
    box = [-1] * max(n - 1, 1), [1] * max(n - 1, 1)

    def d2(p: Polynomial, halves, a: int, b: int) -> Polynomial:
        return p.diff(a).diff(b) * (1 / (halves[a] * halves[b]))

    def face_mean(p: Polynomial, axis: int, side: int) -> Fraction:
        return p.restrict(axis, side).integrate_box(*box)

    def second_pairs(axes):
        return [(a, b) for i, a in enumerate(axes) for b in axes[i:]]

    # two meshes: a single shared face, and a grid with an interior vertex
    for subs in ([2] + [1] * (n - 1), [2] * n):
        space, scalings, halves = _exact_setup(family, n, subs)
        mesh = space.mesh
        interior_ok = True
        boundary_ok = True
        for _ in range(trials):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(space.n_dofs)]
            coeffs0 = list(coeffs)
            for gi in np.nonzero(space.boundary_mask)[0]:
                coeffs0[gi] = Fraction(0)
            cell_polys = [_cell_polynomial(space, scalings, ci, coeffs)
                          for ci in range(mesh.n_cells)]
            cell_polys0 = [_cell_polynomial(space, scalings, ci, coeffs0)
                           for ci in range(mesh.n_cells)]

            for fi in range(mesh.n_faces):
                k = int(mesh.face_axis[fi])
                tang = [t for t in range(n) if t != k]
                lo, hi = mesh.face_cells[fi]   # the face is lo's +1 side
                if not mesh.boundary_face_mask[fi]:
                    pl, ph = cell_polys[lo], cell_polys[hi]
                    hl, hh = halves[lo], halves[hi]
                    if morley:
                        for a, b in second_pairs(tang) + [(k, k)]:
                            jump = (face_mean(d2(pl, hl, a, b), k, 1)
                                    - face_mean(d2(ph, hh, a, b), k, -1))
                            if jump != 0:
                                interior_ok = False
                    else:
                        tr_l = d2(pl, hl, k, k).restrict(k, 1)
                        tr_h = d2(ph, hh, k, k).restrict(k, -1)
                        if tr_l != tr_h:
                            interior_ok = False
                else:
                    # boundary face, zero-boundary coefficient vector
                    ci, side = (lo, 1) if lo >= 0 else (hi, -1)
                    p = cell_polys0[ci]
                    if morley:
                        for a, b in second_pairs(tang) + [(k, k)]:
                            if face_mean(d2(p, halves[ci], a, b), k, side) != 0:
                                boundary_ok = False
                    else:
                        tr = d2(p, halves[ci], k, k).restrict(k, side)
                        if not tr.is_zero():
                            boundary_ok = False

        label = "x".join(map(str, subs))
        rep.add(f"mesh {label}: interior jumps ({trials} vectors)", interior_ok)
        rep.add(f"mesh {label}: boundary traces ({trials} vectors)", boundary_ok)
    return rep


# -- face-integral identities of the local interpolation operators ---------

def _interpolate(family: Family, n: int, v: Polynomial) -> Polynomial:
    """Canonical reference-cell interpolation onto the given family."""
    elem = build_dual_basis(family, n)
    out = Polynomial.zero(n)
    for dof, phi in zip(elem.dofs, elem.basis):
        out = out + apply_dof(dof, v, n) * phi
    return out


def verify_local_interpolation(family: Family, n: int) -> VerificationReport:
    """Exact face integrals of the interpolation residual derivative.

    For every shape-space monomial v and every face F_j^pm with j != i:
    Morley-type checks d_i(d_i Pi1 v - Pi0 d_i Pi1 v); Adini-type checks
    d_i(d_i v - Pi^{e_i} d_i v).  Both integrate to zero exactly.
    """
    morley = _has_face_dofs(family, n)
    rep = VerificationReport(f"local-interp {family} n={n}")
    from .reference import shape_space
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


def verify_patch_test(family: Family, n: int, seed: int = 0) -> VerificationReport:
    """Cubic solutions are reproduced by the solved discrete problem."""
    rep = VerificationReport(f"patch {family} n={n}")
    rng = random.Random(seed)
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
            mesh = uniform_mesh(domain, subs)
            space = build_space(mesh, family)
            system = assemble(space, case.source, gauss_rule(6, n), gauss_rule(8, n))
            reduced = apply_dirichlet(system, boundary_values_from_case(space, case))
            xf, _ = solve_direct(reduced)
            errs = broken_norms(space, reduced.reconstruct(xf), case)
            scale = max(1.0, broken_norms(space, np.zeros(space.n_dofs), case)[3])
            ok = errs[3] <= 1e-7 * scale
            rep.add(f"{label} cells={subs}", ok, f"|u-u_h|_3={errs[3]:.2e}")
    return rep


SUITES = ("unisolvence", "duality", "continuity", "local-interp", "patch")


def run_suite(name: str, dims=(2, 3), trials: int = 100) -> list[VerificationReport]:
    """Run one named suite (or 'all') over the requested dimensions."""
    reports: list[VerificationReport] = []
    if name == "unisolvence":
        reports.append(verify_unisolvence(dims))
    elif name == "duality":
        reports.append(verify_duality(dims))
    elif name == "continuity":
        for n in dims:
            if n < 2:
                continue
            for fam in (MORLEY, ADINI_TYPE):
                reports.append(verify_weak_continuity(fam, n, trials=trials))
    elif name == "local-interp":
        for n in dims:
            if n < 2:
                continue
            for fam in (MORLEY, ADINI_TYPE):
                reports.append(verify_local_interpolation(fam, n))
    elif name == "patch":
        for n in dims:
            if n < 2:
                continue
            for fam in (MORLEY, ADINI_TYPE):
                reports.append(verify_patch_test(fam, n))
    elif name == "all":
        for sub in SUITES:
            reports.extend(run_suite(sub, dims=dims, trials=trials))
    else:
        raise ValueError(f"unknown suite {name!r}")
    return reports
