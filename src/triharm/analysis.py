"""Broken-norm errors, single solves, and convergence studies.

The error norms integrate over each cell's tensor grid of Gauss nodes,
handed to the case as the open grids of ``assembly.cell_blocks``, with
the cell axis last, one block of cells at a time, so their memory does
not grow with the mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    DATA_Q, apply_dirichlet, assemble, cell_blocks, check_length,
    derivative_multiindices, gauss_rule, load_vector, reconstruct,
)
from .cases import ManufacturedCase
from .interpolation import boundary_values_from_case
from .multigrid import solve_cg
from .reference import Family
from .solver import SolveReport, solve_direct
from .space import FeSpace, build_space

__all__ = [
    "broken_norms", "solve_case", "ErrorReport", "check_levels",
    "convergence_study",
]


def broken_norms(space: FeSpace, coeffs: np.ndarray, case: ManufacturedCase,
                 q: int = DATA_Q) -> tuple[float, float, float, float]:
    """(L2, broken H1, H2, H3 semi-norms) of exact-minus-discrete.

    Mixed partials enter with the multinomial multiplicity m!/alpha!, the
    same weighting as the ordered-tuple sums of the bilinear form.

    Cells are taken in the blocks of ``assembly.cell_blocks``, so each
    temporary stays near 1 MB whatever the mesh size.  Within a
    block every multi-index sees the same open grid, with the cell axis
    last so that a case's products broadcast over a long axis, which lets
    a case reuse work across them (the L-shape keeps z and its root).
    d^alpha u_h is evaluated through the element's monomials that survive
    d^alpha (``ReferenceElement.monomial_table``).
    """
    check_length("coefficient vector", coeffs, space.n_dofs)
    mesh = space.mesh
    elem = space.element
    dim = mesh.dim
    rule = gauss_rule(q, dim)
    half = mesh.cell_half_lengths
    jac = np.prod(half, axis=1)
    ref_coeffs = coeffs[space.cell_dof_indices] * space.cell_scalings
    terms = [(m, alpha, mult, *elem.monomial_table(alpha, rule))
             for m in range(4)
             for alpha, mult in derivative_multiindices(dim, m)]

    acc = np.zeros(4)
    for cells, grid in cell_blocks(mesh, rule):
        full = (q,) * dim + grid[0].shape[-1:]
        for m, alpha, mult, table, monomial in terms:
            exact = np.broadcast_to(case.derivative(alpha, grid), full)
            exact = exact.reshape(len(rule.weights), -1)
            # the chain rule's h^-alpha scales each cell's monomial coefficients
            chain = np.prod(half[cells] ** (-np.array(alpha)), axis=1)
            diff = table @ ((monomial @ ref_coeffs[cells].T) * chain)  # [npts, nb]
            np.subtract(exact, diff, out=diff)
            np.square(diff, out=diff)
            acc[m] += mult * float((rule.weights @ diff) @ jac[cells])
    return tuple(math.sqrt(v) for v in acc)


def solve_case(case: ManufacturedCase, family: Family, n: int,
               solver: str = "direct", cg_tol: float = 1e-10,
               ) -> tuple[FeSpace, np.ndarray, SolveReport]:
    """Impose exact-DoF boundary data on one refinement and solve it.

    The direct solver builds the stiffness matrix's rows where it reads
    them, so only CG assembles the matrix on all DoFs."""
    if solver not in ("direct", "cg"):
        raise ValueError(f"unknown solver {solver!r}")
    space = build_space(case.mesh(n), family)
    g = boundary_values_from_case(space, case)
    if solver == "direct":
        x, report = solve_direct(apply_dirichlet(space, load_vector(space, case.source), g))
    else:
        system = assemble(space, case.source)
        x, report = solve_cg(apply_dirichlet(space, system.rhs, g), system.matrix,
                             tol=cg_tol)
    return space, reconstruct(space, x, g), report


def check_levels(levels, study: bool = True) -> None:
    """Raise ``ValueError`` unless every level is at least 1 cell per unit
    length and, for a convergence ``study``, there are at least two levels,
    each doubling the last."""
    if study and len(levels) < 2:
        raise ValueError("need at least two refinement levels")
    if study and any(b != 2 * a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must double: got " + repr(levels))
    if min(levels) < 1:
        raise ValueError(f"cells per unit length must be >= 1, got {min(levels)}")


@dataclass
class ErrorReport:
    """Per-level broken-norm errors with observed orders log2(e(N)/e(2N))."""

    case: str
    family: str
    levels: list[int] = field(default_factory=list)
    h: list[float] = field(default_factory=list)
    errors: list[tuple[float, float, float, float]] = field(default_factory=list)

    def add(self, n: int, h: float, errs):
        self.levels.append(n)
        self.h.append(h)
        self.errors.append(tuple(errs))

    def orders(self) -> list[tuple[float | None, ...]]:
        out = []
        for i in range(len(self.levels)):
            if i == 0:
                out.append((None,) * 4)
            else:
                prev, cur = self.errors[i - 1], self.errors[i]
                out.append(tuple(
                    math.log2(p / c) if p > 0 and c > 0 else None
                    for p, c in zip(prev, cur)
                ))
        return out

    def to_csv(self) -> str:
        lines = ["N,h,e0,order0,e1,order1,e2,order2,e3,order3"]
        for n, h, errs, ords in zip(self.levels, self.h, self.errors, self.orders()):
            cells = [str(n), f"{h:.6e}"]
            for e, o in zip(errs, ords):
                cells.append(f"{e:.6e}")
                cells.append("" if o is None else f"{o:.2f}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        head = ("| N | $\\|u-u_h\\|_0$ | order | $|u-u_h|_{1,h}$ | order "
                "| $|u-u_h|_{2,h}$ | order | $|u-u_h|_{3,h}$ | order |")
        sep = "|" + "---|" * 9
        lines = [head, sep]
        for n, errs, ords in zip(self.levels, self.errors, self.orders()):
            cells = [str(n)]
            for e, o in zip(errs, ords):
                cells.append(f"{e:.3e}")
                cells.append("-" if o is None else f"{o:.2f}")
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


def convergence_study(case: ManufacturedCase, family: Family,
                      levels: list[int], solver: str = "direct",
                      cg_tol: float = 1e-10, progress=None) -> ErrorReport:
    """Solve a refinement sequence and collect errors and observed orders."""
    check_levels(levels)
    report = ErrorReport(case.name, str(family))
    for n in levels:
        space, coeffs, solve_report = solve_case(case, family, n, solver=solver,
                                                 cg_tol=cg_tol)
        errs = broken_norms(space, coeffs, case)
        hmax = float(space.mesh.cell_half_lengths.max()) * 2.0
        report.add(n, hmax, errs)
        if progress is not None:
            progress(n, errs, solve_report)
    return report
