"""Geometric multigrid V-cycle over the nested meshes of a structured mesh.

A mesh coarsens by halving every axis, taking every other vertex plane.
That is possible while every axis has an even cell count and each block of
2^n cells is all active or all inactive; each coarse cell is then the union
of its 2^n children.  The hierarchy coarsens the system's mesh until the
rule fails, and builds the same element family on every level.

The prolongation maps a coarse DoF vector to the fine space: each fine cell
reads its DoFs off its parent's polynomial, and a fine DoF shared by
several fine cells takes the average of their readings, the averaging of
``quasi_interpolate``.  A fine cell's map depends only on its offset and
ratio in its parent (2^n maps on a uniform mesh): each group's map is read
once, and ``assembly.RowBuilder`` sums the maps as it sums element matrices.
Restricted to the free DoFs of both levels, P gives the Galerkin coarse
operator P^T A P.

The cycle is a symmetric V(1,1)-cycle: a degree-3 Chebyshev smoother on
D^-1 A over [lmax / 30, 1.1 lmax], where lmax is estimated from a fixed
start vector, before and after the coarse correction, and an exact solve by
``solver.cholesky`` of the stiffness matrix of the coarsest space: a
Galerkin product couples DoFs across nested dissection's separators.  A
system whose mesh does not coarsen has one level, and the preconditioner is
then its exact solve.  For the smoother see Adams, Brezina, Hu and
Tuminaro, JCP 188 (2003); for nonconforming multigrid, Brenner, Math.
Comp. 68 (1999).

``solve_cg`` runs conjugate gradients preconditioned by the V-cycle.  The
tri-harmonic operator conditions like h^-6; the V-cycle keeps the iteration
count nearly flat under refinement (18 to 34 on the L-shape from N=4 to
N=32), where diagonal scaling alone needed thousands.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import ReducedSystem, RowBuilder, group_rows
from .mesh import StructuredMesh
from .solver import SolveReport, SolverError, cholesky, relative_residual
from .space import FeSpace, build_space

__all__ = ["coarsen", "prolongation", "VCycle", "solve_cg", "check_tolerance"]

CG_MAXITER = 500         # CG iterations before solve_cg gives up
CHEBYSHEV_DEGREE = 3
CHEBYSHEV_RATIO = 30.0   # smoothing interval [lmax / 30, 1.1 lmax]
LMAX_MARGIN = 1.1
DENSE_EIGEN = 100        # estimate lmax of smaller levels by a dense solve


def coarsen(mesh: StructuredMesh) -> StructuredMesh | None:
    """The mesh with every axis halved, or None if the rule above fails."""
    shape = mesh.active.shape
    if any(s % 2 for s in shape):
        return None
    blocks = mesh.active.reshape([v for s in shape for v in (s // 2, 2)])
    inner = tuple(range(1, 2 * mesh.dim, 2))
    active = blocks.any(axis=inner)
    if not np.array_equal(active, blocks.all(axis=inner)):
        return None
    return StructuredMesh([nodes[::2] for nodes in mesh.axis_nodes], active)


def prolongation(fine: FeSpace, coarse: FeSpace) -> sp.csr_matrix:
    """Coarse-to-fine map of DoF vectors, over all DoFs of both spaces.

    Entry (j, J) is the average, over the fine cells at fine DoF j, of the
    DoF j reading of coarse basis function J on the cell's parent: its
    d^alpha at the DoF's anchor, in physical coordinates.  Both spaces must
    hold the same element, on ``coarsen(fine.mesh)`` for the coarse one.
    Fine cells share one reference map per group of their offset and ratio
    in the parent (``group_rows``), read at its key; ``RowBuilder`` sums
    them.
    """
    elem = fine.element
    dim, nloc = elem.dim, elem.n_dofs
    fmesh, cmesh = fine.mesh, coarse.mesh
    parent = cmesh.cell_index[tuple((np.argwhere(fmesh.active) // 2).T)]
    half = cmesh.cell_half_lengths[parent]
    # fine reference point xi sits at offset + ratio * xi in its parent's
    offset = (fmesh.cell_centers - cmesh.cell_centers[parent]) / half
    keys, group = group_rows(np.hstack([offset, fmesh.cell_half_lengths / half]))
    anchors = np.array([d.anchor(dim) for d in elem.dofs], dtype=float)
    points = keys[:, None, :dim] + keys[:, None, dim:] * anchors   # [g, nloc, dim]
    # read[g, a, b]: d^alpha_a of parent basis function b at group g's anchor a
    read = np.empty((len(keys), nloc, nloc))
    for alpha in {d.alpha for d in elem.dofs}:
        local = [a for a, d in enumerate(elem.dofs) if d.alpha == alpha]
        values = elem.eval_shape(alpha, points[:, local].reshape(-1, dim))
        read[:, local] = values.reshape(len(keys), len(local), nloc)
    scal = coarse.cell_scalings[parent]
    rows = fine.cell_dof_indices
    incident = np.bincount(rows.ravel(), minlength=fine.n_dofs)[rows]

    def weigh(block, cell, a):
        # physical DoF values: the parent's reference coefficient of b is
        # s_b times the global one, and d^alpha_a in x is d^alpha_a in xi / s_a
        block *= scal[cell] / scal[cell, a][:, None]
        block /= incident[cell, a][:, None]

    p = RowBuilder(read, group, rows, coarse.cell_dof_indices[parent],
                   (fine.n_dofs, coarse.n_dofs), weigh).matrix()
    p.eliminate_zeros()
    return p


def _lmax(a: sp.csr_matrix, dinv: np.ndarray) -> float:
    """Largest eigenvalue of D^-1 A, from the symmetric D^-1/2 A D^-1/2."""
    root = np.sqrt(dinv)
    s = sp.diags(root) @ a @ sp.diags(root)
    if s.shape[0] <= DENSE_EIGEN:
        return float(np.linalg.eigvalsh(s.toarray())[-1])
    # a Ritz value is a lower bound; tol=1e-2 leaves it within ~0.5% of
    # lmax here (L-shape N=32, 3D Morley N=16), well inside LMAX_MARGIN
    start = np.random.default_rng(0).standard_normal(s.shape[0])
    return float(spla.eigsh(s, k=1, which="LA", v0=start, tol=1e-2,
                            return_eigenvectors=False)[0])


class VCycle:
    """Symmetric V(1,1)-cycle on the hierarchy of ``system``'s mesh, for
    the stiffness matrix ``matrix`` on all DoFs of the system's space.

    ``prolongations[i]`` maps the free DoFs of level i + 1 to those of
    level i; its transpose restricts.  ``matrices[i]`` is level i's matrix
    on its free DoFs for each smoothed level, the free block of ``matrix``
    and then Galerkin products; a one-level hierarchy keeps the first, the
    operator CG iterates on.  ``exact`` factors the coarsest level's
    stiffness matrix (``solver.cholesky`` of its space).
    """

    def __init__(self, system: ReducedSystem, matrix: sp.csr_matrix):
        space, self.prolongations = system.space, []
        while (mesh := coarsen(space.mesh)) is not None:
            coarse = build_space(mesh, space.element.family)
            p = prolongation(space, coarse)[space.free_dofs()][:, coarse.free_dofs()]
            self.prolongations.append(p)
            space = coarse
        free = system.free
        self.matrices = [matrix[free][:, free].tocsr()]
        for p in self.prolongations[:-1]:
            a = (p.T @ self.matrices[-1] @ p).tocsr()
            a.eliminate_zeros()
            self.matrices.append(a)
        self.exact = cholesky(space)
        smoothed = self.matrices[:len(self.prolongations)]
        self.dinv = [1.0 / a.diagonal() for a in smoothed]
        self.lmax = [_lmax(a, d) for a, d in zip(smoothed, self.dinv)]

    def __call__(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.prolongations):
            return self.exact.solve(b)
        a = self.matrices[level]
        x = self._smooth(level, b)
        coarse = self(self.prolongations[level].T @ (b - a @ x), level + 1)
        x += self.prolongations[level] @ coarse
        return self._smooth(level, b, x)

    def _smooth(self, level: int, b: np.ndarray,
                x: np.ndarray | None = None) -> np.ndarray:
        """Chebyshev iteration on D^-1 A x = D^-1 b from x (zero if None).

        Saad, Iterative Methods for Sparse Linear Systems, Algorithm 12.1.
        """
        a, dinv = self.matrices[level], self.dinv[level]
        hi = LMAX_MARGIN * self.lmax[level]
        lo = self.lmax[level] / CHEBYSHEV_RATIO
        theta, delta = (hi + lo) / 2, (hi - lo) / 2
        sigma = theta / delta
        rho = 1 / sigma
        r = b.copy() if x is None else b - a @ x
        d = dinv * r / theta
        for _ in range(CHEBYSHEV_DEGREE - 1):
            x = d if x is None else x + d
            r -= a @ d
            rho, last = 1 / (2 * sigma - rho), rho
            d = rho * last * d + (2 * rho / delta) * (dinv * r)
        return x + d


def check_tolerance(tol: float) -> None:
    """Raise ValueError unless the CG tolerance is finite and positive."""
    if not 0 < tol < np.inf:
        raise ValueError(f"CG tolerance must be finite and > 0, got {tol}")


def solve_cg(system: ReducedSystem, matrix: sp.csr_matrix,
             tol: float = 1e-10) -> tuple[np.ndarray, SolveReport]:
    """Conjugate gradients preconditioned by a multigrid V-cycle.

    ``matrix`` is the stiffness matrix on all DoFs of the system's space,
    as ``assemble`` builds it.  The right-hand side is the load minus the
    free rows of ``matrix`` times the boundary values (``ReducedSystem``).
    The V-cycle is built from the system's space, and its coarsest level is
    factored by ``solver.cholesky``; CG iterates on the free block of
    ``matrix``, the V-cycle's finest matrix.
    Raises SolverError on a non-positive diagonal entry, a non-positive
    pivot of the coarsest factorization, or no convergence within
    ``CG_MAXITER`` iterations.  A tolerance that is not finite and
    positive raises ValueError (``check_tolerance``).
    """
    check_tolerance(tol)
    t0 = time.perf_counter()
    b = system.load - (matrix @ system.lifted())[system.free]
    if len(b) == 0:
        return np.zeros(0), SolveReport("cg", 0, 0.0, time.perf_counter() - t0)
    if np.any(matrix.diagonal()[system.free] <= 0):
        raise SolverError("non-positive diagonal entry; system not SPD")
    vcycle = VCycle(system, matrix)
    a = vcycle.matrices[0]
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    m = spla.LinearOperator(a.shape, matvec=vcycle, dtype=float)
    x, info = spla.cg(a, b, rtol=tol, atol=0.0, maxiter=CG_MAXITER, M=m,
                      callback=count)
    res = relative_residual(a @ x, b)
    report = SolveReport("cg", iters, res, time.perf_counter() - t0)
    if info != 0 or res > 10 * tol:
        raise SolverError(
            f"CG failed to converge (info={info}, residual={res:.3e}); "
            "use the direct solver"
        )
    return x, report
