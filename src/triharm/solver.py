"""Solvers for the reduced symmetric positive definite system.

The default is a sparse LU factorization in geometric nested-dissection
order (George 1973): the free DoFs are split recursively at the mesh
vertex plane nearest the median of their longest extent, and the DoFs on
that plane, which separate the two halves, are numbered last.  The system
is SPD, so the factorization runs in SuperLU's symmetric mode with a
pivot threshold of zero, which takes every nonzero diagonal entry as the
pivot; a relative residual check of 1e-9 guards that assumption.  The tri-harmonic operator conditions like
h^-6, which makes Jacobi-preconditioned CG a checked alternative rather
than the default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import ReducedSystem

__all__ = ["SolveReport", "solve_direct", "solve_cg", "SolverError",
           "nested_dissection", "separator_split"]


class SolverError(RuntimeError):
    pass


@dataclass
class SolveReport:
    method: str
    iterations: int | None
    relative_residual: float
    seconds: float
    ordering: str | None = None      # direct: "nested-dissection" or "natural"
    fill: int | None = None          # direct: entries SuperLU stores for L and U
    factor_seconds: float | None = None  # direct: time spent in the factorization


def _residual(a, x, b) -> float:
    nb = np.linalg.norm(b)
    if nb == 0:
        return float(np.linalg.norm(a @ x))
    return float(np.linalg.norm(a @ x - b) / nb)


def separator_split(points: np.ndarray, axis_nodes: list[np.ndarray]):
    """Split points at the vertex plane nearest the median of the longest axis.

    Returns index arrays ``(left, right, separator)`` into ``points``, or
    None when no vertex plane lies strictly inside the points' extent.
    Every cell lies on one side of a vertex plane, so no cell holds a DoF
    of ``left`` and one of ``right``: the DoFs on the plane separate them.
    """
    lo, hi = points.min(axis=0), points.max(axis=0)
    for axis in np.argsort(lo - hi, kind="stable"):
        nodes = axis_nodes[axis]
        inside = nodes[(nodes > lo[axis]) & (nodes < hi[axis])]
        if inside.size:
            coord = points[:, axis]
            cut = inside[np.argmin(np.abs(inside - np.median(coord)))]
            return (np.flatnonzero(coord < cut), np.flatnonzero(coord > cut),
                    np.flatnonzero(coord == cut))
    return None


def nested_dissection(points: np.ndarray,
                      axis_nodes: list[np.ndarray]) -> np.ndarray:
    """Nested-dissection order of the DoFs anchored at ``points``.

    Each block is split by ``separator_split``; both halves are ordered
    recursively, then the separator follows them.  A block that no vertex
    plane cuts keeps its natural order.
    """

    def order(idx):
        split = separator_split(points[idx], axis_nodes)
        if split is None:
            return [idx]
        left, right, sep = split
        return order(idx[left]) + order(idx[right]) + [idx[sep]]

    return np.concatenate(order(np.arange(len(points))))


def solve_direct(system: ReducedSystem) -> tuple[np.ndarray, SolveReport]:
    """Sparse LU in nested-dissection order, with a residual check.

    The permuted system ``P A P^T`` is factored in SuperLU's symmetric mode
    with diagonal pivots only, which is stable for the SPD systems the
    assembly produces.  A zero pivot raises SolverError, and so does a
    relative residual above 1e-9, the guard on the pivot-free factorization
    of a matrix that is not SPD.  Systems built without DoF points are
    factored in natural order.
    """
    a, b = system.matrix, system.rhs
    n = a.shape[0]
    t0 = time.perf_counter()
    if system.dof_points is None or n == 0:
        ordering, perm = "natural", np.arange(n)
    else:
        ordering = "nested-dissection"
        perm = nested_dissection(system.dof_points, system.axis_nodes)
    x, fill, factor_s = np.zeros(n), 0, 0.0
    if n:
        t_factor = time.perf_counter()
        try:
            lu = spla.splu(a[perm][:, perm].tocsc(), permc_spec="NATURAL",
                           diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SolverError(f"factorization failed: {exc}") from exc
        factor_s = time.perf_counter() - t_factor
        x[perm] = lu.solve(b[perm])
        # lu.nnz counts L and U as SuperLU stores them; materialising lu.L
        # for L.nnz + U.nnz would cost a copy of L (~140 MB at 3D Morley N=16)
        fill = lu.nnz
    res = _residual(a, x, b) if n else 0.0
    report = SolveReport("direct", None, res, time.perf_counter() - t0,
                         ordering=ordering, fill=fill, factor_seconds=factor_s)
    if not np.isfinite(res) or res > 1e-9:
        raise SolverError(
            f"direct solve residual {res:.3e} exceeds 1e-9; "
            "system may not be SPD (assembly or BC bug)"
        )
    return x, report


def solve_cg(system: ReducedSystem, tol: float = 1e-10,
             maxiter: int | None = None) -> tuple[np.ndarray, SolveReport]:
    """Jacobi-preconditioned conjugate gradients.

    Raises SolverError on non-convergence; for fine meshes (condition number
    ~ h^-6) the direct solver is the reliable choice.  A tolerance that is
    not finite and positive raises ValueError.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"CG tolerance must be finite and > 0, got {tol}")
    a, b = system.matrix, system.rhs
    t0 = time.perf_counter()
    if a.shape[0] == 0:
        return np.zeros(0), SolveReport("cg", 0, 0.0, time.perf_counter() - t0)
    diag = a.diagonal()
    if np.any(diag <= 0):
        raise SolverError("non-positive diagonal entry; system not SPD")
    m = sp.diags(1.0 / diag)
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    x, info = spla.cg(a, b, rtol=tol, atol=0.0,
                      maxiter=maxiter or 20 * a.shape[0], M=m, callback=count)
    res = _residual(a, x, b)
    report = SolveReport("cg", iters, res, time.perf_counter() - t0)
    if info != 0 or res > 10 * tol:
        raise SolverError(
            f"CG failed to converge (info={info}, residual={res:.3e}); "
            "use the direct solver"
        )
    return x, report
