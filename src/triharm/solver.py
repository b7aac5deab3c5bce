"""Solvers for the reduced symmetric positive definite system.

The default is a multifrontal Cholesky factorization (Duff & Reid 1983;
Liu 1992) on a geometric nested-dissection tree (George 1973).  The free
DoFs are split recursively at the mesh vertex plane nearest the median of
their longest extent, and the DoFs on that plane, which separate the two
halves, are numbered after them.  Each separator, and each block left
unsplit, is a front: a contiguous range of the permuted numbering whose
columns of L are computed together in one dense matrix.  In postorder, a
front gathers its lower entries of the matrix and its children's update
matrices, factors its diagonal block with LAPACK's ``dpotrf``, and hands
the Schur complement on its remaining rows to its parent.  Only L is
stored.  A non-positive pivot raises SolverError, and a relative residual
check of 1e-9 guards every direct solve.

The alternative is conjugate gradients preconditioned by the multigrid
V-cycle of ``multigrid``, whose coarsest level the same Cholesky factors.
The tri-harmonic operator conditions like h^-6; the V-cycle keeps the
iteration count nearly flat under refinement (18 to 34 on the L-shape from
N=4 to N=32), where diagonal scaling alone needed thousands.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from .assembly import ReducedSystem
from .multigrid import VCycle

__all__ = ["SolveReport", "solve_direct", "solve_cg", "SolverError", "Front",
           "Cholesky", "cholesky", "nested_dissection", "separator_split",
           "permuted_lower", "update_rows"]


class SolverError(RuntimeError):
    pass


@dataclass
class SolveReport:
    method: str
    iterations: int | None
    relative_residual: float
    seconds: float
    ordering: str | None = None      # direct: "nested-dissection" or "natural"
    fill: int | None = None          # direct: entries of L the fronts store
    factor_seconds: float | None = None  # direct: time spent in the factorization


@dataclass(frozen=True)
class Front:
    """Columns ``start:stop`` of the permuted matrix, eliminated together.

    ``children`` index the fronts whose update matrices this one absorbs;
    they come before it in postorder.
    """

    start: int
    stop: int
    children: tuple[int, ...] = ()


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
            # np.median without its overhead: the mean of the middle pair
            mid = [(len(coord) - 1) // 2, len(coord) // 2]
            median = np.partition(coord, mid)[mid].sum() / 2
            cut = inside[np.argmin(np.abs(inside - median))]
            return (np.flatnonzero(coord < cut), np.flatnonzero(coord > cut),
                    np.flatnonzero(coord == cut))
    return None


def nested_dissection(points: np.ndarray, axis_nodes: list[np.ndarray]
                      ) -> tuple[np.ndarray, list[Front]]:
    """Nested-dissection order of the DoFs anchored at ``points``, and its fronts.

    Each block is split by ``separator_split``; both halves are ordered
    recursively, then the separator follows them as their parent front.  A
    block that no vertex plane cuts, or whose separator has at least as many
    DoFs as its smaller half, is not split: it keeps its natural order and
    becomes one leaf front.  The fronts are listed in postorder.

    A separator's own DoFs are split by the same rule and numbered left half,
    separator, right half, recursively, so the closed box of it that borders
    a descendant block is a few contiguous runs.
    """
    pieces, fronts = [], []

    def split(idx):
        parts = separator_split(points[idx], axis_nodes) if len(idx) > 1 else None
        if parts is None or len(parts[2]) >= min(map(len, parts[:2])):
            return None
        return [idx[p] for p in parts]

    def in_order(idx):
        parts = split(idx)
        if parts is None:
            return idx
        left, right, sep = parts
        return np.concatenate([in_order(left), in_order(sep), in_order(right)])

    def visit(idx) -> int:
        parts = split(idx)
        children = ()
        if parts is not None:
            left, right, sep = parts
            children = (visit(left), visit(right))
            idx = in_order(sep)
        start = fronts[-1].stop if fronts else 0
        pieces.append(idx)
        fronts.append(Front(start, start + len(idx), children))
        return len(fronts) - 1

    visit(np.arange(len(points)))
    return np.concatenate(pieces), fronts


def permuted_lower(a: sp.spmatrix, perm: np.ndarray) -> sp.csc_matrix:
    """Lower triangle of ``P A P^T`` in CSC, where row i of it is row perm[i] of A."""
    coo = a.tocoo()
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm))
    rows, cols = inverse[coo.row], inverse[coo.col]
    keep = rows >= cols
    return sp.csc_matrix((coo.data[keep], (rows[keep], cols[keep])),
                         shape=a.shape)


def update_rows(lower: sp.csc_matrix, fronts: list[Front]) -> list[np.ndarray]:
    """The sorted rows past each front's range that its columns of L reach.

    They are the rows of ``lower``'s entries below the range in its columns,
    and the children's update rows past the range.
    """
    rows, ptr = [], lower.indptr
    for front in fronts:
        reach = np.unique(np.concatenate(
            [lower.indices[ptr[front.start]:ptr[front.stop]]]
            + [rows[c] for c in front.children]))
        rows.append(reach[reach >= front.stop])
    return rows


def _extend_add(blocks, update, rows, front, front_rows) -> None:
    """Add a child's update matrix into its parent's front, lower blocks only.

    ``blocks[p][q]`` is the parent block whose rows lie in part p and whose
    columns lie in part q (0: the parent's own range, 1: its update rows).
    The child's rows fall into runs that are contiguous in one part, and each
    pair of runs is one slice addition.
    """
    part = (rows >= front.stop).astype(np.intp)
    local = np.where(part == 0, rows - front.start,
                     np.searchsorted(front_rows, rows))
    cuts = np.flatnonzero((np.diff(local) != 1) | (np.diff(part) != 0)) + 1
    bounds = np.concatenate(([0], cuts, [len(rows)]))
    runs = list(zip(part[bounds[:-1]].tolist(), local[bounds[:-1]].tolist(),
                    bounds[:-1].tolist(), bounds[1:].tolist()))
    for j, (pc, at_c, lo_c, hi_c) in enumerate(runs):
        for pr, at_r, lo_r, hi_r in runs[j:]:
            blocks[pr][pc][at_r:at_r + hi_r - lo_r, at_c:at_c + hi_c - lo_c] += \
                update[lo_r:hi_r, lo_c:hi_c]


def _factor(lower, fronts, rows, perm) -> list[tuple[np.ndarray, np.ndarray]]:
    """Multifrontal Cholesky: ``(L11, L21)`` of each front, Fortran order.

    L11 is the lower triangle of the front's diagonal block (its upper
    triangle holds no data), and L21 the block of its update rows.  Each
    child's update matrix is freed once its parent has absorbed it.
    """
    factors, pending = [], {}
    ptr = lower.indptr
    for i, (front, upd) in enumerate(zip(fronts, rows)):
        k, m = front.stop - front.start, len(upd)
        f11 = np.zeros((k, k), order="F")
        f21 = np.zeros((m, k), order="F")
        f22 = np.zeros((m, m), order="F")
        lo, hi = ptr[front.start], ptr[front.stop]
        r, v = lower.indices[lo:hi], lower.data[lo:hi]
        c = np.repeat(np.arange(k), np.diff(ptr[front.start:front.stop + 1]))
        own = r < front.stop
        f11[r[own] - front.start, c[own]] = v[own]
        f21[np.searchsorted(upd, r[~own]), c[~own]] = v[~own]
        blocks = ((f11, None), (f21, f22))
        for child in front.children:
            _extend_add(blocks, pending.pop(child), rows[child], front, upd)
        if k:
            f11, info = lapack.dpotrf(f11, lower=1, clean=0, overwrite_a=1)
            if info > 0:
                pos = front.start + info - 1
                raise SolverError(
                    f"Cholesky pivot {pos} (free DoF {perm[pos]}) is not "
                    "positive; system not SPD")
            if m:
                f21 = blas.dtrsm(1.0, f11, f21, side=1, lower=1, trans_a=1,
                                 overwrite_b=1)
                f22 = blas.dsyrk(-1.0, f21, beta=1.0, c=f22, lower=1,
                                 overwrite_c=1)
        factors.append((f11, f21))
        pending[i] = f22
    return factors


def _substitute(factors, fronts, rows, b) -> np.ndarray:
    """Solve ``L L^T x = b`` front by front: forward in postorder, then back."""
    x = b.copy()
    for (l11, l21), front, upd in zip(factors, fronts, rows):
        if l11.size:
            y = blas.dtrsv(l11, x[front.start:front.stop], lower=1)
            x[front.start:front.stop] = y
            x[upd] -= l21 @ y
    for (l11, l21), front, upd in zip(factors[::-1], fronts[::-1], rows[::-1]):
        if l11.size:
            y = x[front.start:front.stop] - l21.T @ x[upd]
            x[front.start:front.stop] = blas.dtrsv(l11, y, lower=1, trans=1)
    return x


@dataclass
class Cholesky:
    """``P A P^T = L L^T``, with L kept front by front as ``(L11, L21)``."""

    perm: np.ndarray
    fronts: list[Front]
    rows: list[np.ndarray]
    factors: list[tuple[np.ndarray, np.ndarray]]
    ordering: str
    seconds: float          # spent in the factorization, after the ordering

    @property
    def fill(self) -> int:
        return sum(l11.shape[0] * (l11.shape[0] + 1) // 2 + l21.size
                   for l11, l21 in self.factors)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty(len(self.perm))
        x[self.perm] = _substitute(self.factors, self.fronts, self.rows,
                                   b[self.perm])
        return x


def cholesky(system: ReducedSystem) -> Cholesky:
    """Multifrontal Cholesky of the system's matrix in nested-dissection order.

    A non-positive pivot raises SolverError.  Systems built without DoF
    points are factored in natural order, as one dense front.
    """
    a = system.matrix
    n = a.shape[0]
    if system.dof_points is None or n == 0:
        ordering, perm, fronts = "natural", np.arange(n), [Front(0, n)]
    else:
        ordering = "nested-dissection"
        perm, fronts = nested_dissection(system.dof_points, system.axis_nodes)
    t0 = time.perf_counter()
    lower = permuted_lower(a, perm)
    rows = update_rows(lower, fronts)
    factors = _factor(lower, fronts, rows, perm)
    return Cholesky(perm, fronts, rows, factors, ordering,
                    time.perf_counter() - t0)


def solve_direct(system: ReducedSystem) -> tuple[np.ndarray, SolveReport]:
    """Multifrontal Cholesky in nested-dissection order, with a residual check.

    A non-positive pivot raises SolverError, and so does a relative
    residual above 1e-9.
    """
    t0 = time.perf_counter()
    factor = cholesky(system)
    x = factor.solve(system.rhs)
    res = _residual(system.matrix, x, system.rhs)
    report = SolveReport("direct", None, res, time.perf_counter() - t0,
                         ordering=factor.ordering, fill=factor.fill,
                         factor_seconds=factor.seconds)
    if not np.isfinite(res) or res > 1e-9:
        raise SolverError(
            f"direct solve residual {res:.3e} exceeds 1e-9; "
            "system may not be SPD (assembly or BC bug)"
        )
    return x, report


def solve_cg(system: ReducedSystem, tol: float = 1e-10,
             maxiter: int = 500) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradients preconditioned by a multigrid V-cycle.

    The V-cycle (``multigrid.VCycle``) is built from the system's space, and
    its coarsest level is factored by ``cholesky``.  Raises SolverError on a
    non-positive diagonal entry, a non-positive pivot of the coarsest
    factorization, or no convergence within ``maxiter`` iterations.  A
    tolerance that is not finite and positive raises ValueError.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"CG tolerance must be finite and > 0, got {tol}")
    a, b = system.matrix, system.rhs
    t0 = time.perf_counter()
    if a.shape[0] == 0:
        return np.zeros(0), SolveReport("cg", 0, 0.0, time.perf_counter() - t0)
    if np.any(a.diagonal() <= 0):
        raise SolverError("non-positive diagonal entry; system not SPD")
    vcycle = VCycle(system, cholesky)
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    m = spla.LinearOperator(a.shape, matvec=vcycle, dtype=float)
    x, info = spla.cg(a, b, rtol=tol, atol=0.0, maxiter=maxiter, M=m,
                      callback=count)
    res = _residual(a, x, b)
    report = SolveReport("cg", iters, res, time.perf_counter() - t0)
    if info != 0 or res > 10 * tol:
        raise SolverError(
            f"CG failed to converge (info={info}, residual={res:.3e}); "
            "use the direct solver"
        )
    return x, report
