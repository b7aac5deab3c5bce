"""Tensor-product Gauss quadrature and sparse assembly of the broken
tri-harmonic bilinear form.

The form sums the squared third gradient over all ordered index triples;
assembly loops over distinct third-order multi-indices alpha weighted by the
multinomial multiplicity 3!/alpha! instead, which is the identical sum.

``cell_blocks`` gives the cells' Gauss points as open grids, the cell axis
last, in blocks of about ``BLOCK_POINTS`` points.  The load and the
quasi-interpolant integrate their data on them through ``cell_moments``,
the error norms theirs, so a separable function costs q evaluations per
axis and cell rather than q^dim, and no array of point data grows with
the mesh beyond one block.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .reference import ReferenceElement
from .space import FeSpace

__all__ = [
    "GaussRule", "gauss_rule", "DATA_Q", "BLOCK_POINTS", "cell_blocks",
    "cell_moments", "derivative_multiindices",
    "element_stiffness", "group_rows", "scatter", "assemble",
    "apply_stiffness", "SparseSymSystem", "ReducedSystem", "apply_dirichlet",
    "reconstruct",
]


@dataclass(frozen=True)
class GaussRule:
    dim: int
    q: int
    points: np.ndarray   # [m, dim], tensor product of nodes, last axis fastest
    weights: np.ndarray  # [m]
    nodes: np.ndarray    # [q] 1D Gauss-Legendre nodes on [-1, 1]


# Gauss points per axis for integrals of smooth, non-polynomial data: the
# load, the quasi-interpolant's projections and the error norms
DATA_Q = 8

# quadrature points per block of cells in cell_blocks: 1 MB per float64 array
BLOCK_POINTS = 1 << 17


@functools.cache
def gauss_rule(q: int, n: int) -> GaussRule:
    """Tensor product of the q-point 1D Gauss-Legendre rule on [-1,1]^n,
    one cached object per (q, n)."""
    if q < 1:
        raise ValueError("need at least one point per axis")
    x, w = np.polynomial.legendre.leggauss(q)
    pts = np.array(list(itertools.product(x, repeat=n)))
    wts = np.prod(np.array(list(itertools.product(w, repeat=n))), axis=1)
    for arr in (pts, wts, x):
        arr.setflags(write=False)
    return GaussRule(n, q, pts, wts, x)


def cell_blocks(mesh, rule: GaussRule):
    """Yield ``(cells, grid)``: consecutive slices of the cells, of about
    ``BLOCK_POINTS`` Gauss points each, and their open grid.  Axis i is
    ``center_i + h_i * nodes`` of each cell's own centre and half-lengths,
    of shape ``[1, ..., q, ..., 1, nc]``: q on array axis i, the cells
    last, so the full grid flattens to ``[q^dim, nc]`` in rule order.
    """
    step = max(1, BLOCK_POINTS // len(rule.weights))
    for lo in range(0, mesh.n_cells, step):
        cells = slice(lo, lo + step)
        centers, half = mesh.cell_centers[cells], mesh.cell_half_lengths[cells]
        yield cells, tuple(
            (centers[:, i] + half[:, i] * rule.nodes[:, None]).reshape(
                (1,) * i + (rule.q,) + (1,) * (mesh.dim - i - 1) + (-1,))
            for i in range(mesh.dim))


def cell_moments(space: FeSpace, f) -> np.ndarray:
    """``[n_cells, n_local]`` integrals of f(x(xi)) phi_a(xi) over [-1,1]^n
    by ``DATA_Q`` points per axis.  ``f`` gets the grids of ``cell_blocks``
    and may return anything that broadcasts to them (a constant, say)."""
    mesh, elem = space.mesh, space.element
    rule = gauss_rule(DATA_Q, mesh.dim)
    phi = np.matmul(*elem.monomial_table((0,) * mesh.dim, rule))
    wphi = rule.weights[:, None] * phi
    out = np.empty((mesh.n_cells, elem.n_dofs))
    for cells, grid in cell_blocks(mesh, rule):
        fv = np.broadcast_to(f(grid), (rule.q,) * mesh.dim + grid[0].shape[-1:])
        # the points-by-cells operand fixes the last bits of the load
        out[cells] = fv.reshape(len(rule.weights), -1).T @ wphi
    return out


def derivative_multiindices(n: int, order: int) -> list[tuple[tuple[int, ...], int]]:
    """Distinct multi-indices of the given total order with multiplicities
    order!/alpha! (the number of ordered derivative tuples they stand for)."""
    out = []
    for alpha in itertools.product(range(order + 1), repeat=n):
        if sum(alpha) != order:
            continue
        mult = math.factorial(order)
        for a in alpha:
            mult //= math.factorial(a)
        out.append((alpha, mult))
    return out


def element_stiffness(cell_half_lengths, elem: ReferenceElement) -> np.ndarray:
    """Element matrix of the tri-harmonic form in physical coordinates:
    ``[nloc, nloc]`` for half-lengths ``[dim]``, ``[g, nloc, nloc]`` for
    ``[g, dim]``, each matrix with the bits of its own single call.

    Entries are taken against the reference nodal basis; the h^order DoF
    scalings are applied on both sides during global assembly.  The
    (p+1)-point rule integrates the Grammians, of degree 2p per axis, exactly.
    """
    rule = gauss_rule(elem.max_degree_per_axis() + 1, elem.dim)
    h = np.asarray(cell_half_lengths, dtype=float)
    jac = np.prod(h, axis=-1)
    k = np.zeros(h.shape[:-1] + (elem.n_dofs, elem.n_dofs))
    for alpha, mult in derivative_multiindices(elem.dim, 3):
        chain = np.prod(h ** (-2 * np.array(alpha)), axis=-1)
        k += (mult * jac * chain)[..., None, None] * elem.grammian(alpha, rule)
    return k


@dataclass
class SparseSymSystem:
    """Assembled global system prior to boundary elimination."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    space: FeSpace


def group_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of ``values`` that agree when rounded to 14 digits
    of s = 2^floor(log2 max |values|), one grid for all columns, so keys
    scale with the values and are exact on dyadic ones.  Returns ``(keys,
    group)``: the distinct keys, sorted by their first column, then the
    next, and each row's index into them.
    """
    s = np.ldexp(1.0, np.frexp(np.abs(values).max())[1] - 1)
    rounded = np.round(values / s, 14) * s
    order = np.lexsort(rounded.T[::-1])     # the last key sorts first
    rounded = rounded[order]
    new = np.ones(len(rounded), dtype=bool)
    new[1:] = (rounded[1:] != rounded[:-1]).any(axis=1)
    group = np.empty(len(rounded), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return rounded[new], group


def scatter(local: np.ndarray, group: np.ndarray, rows: np.ndarray,
            cols: np.ndarray, shape: tuple[int, int], weigh) -> sp.csr_matrix:
    """Sum the cells' local matrices into a CSR matrix of ``shape``: row a
    of ``local[group[c]]``, scaled in place by ``weigh(block, cells, a)``,
    goes to global row ``rows[c, a]`` and columns ``cols[c]``.

    Row r is filled, in blocks of about ``BLOCK_POINTS`` entries, with the
    row a of each cell that has r as its local row a, in mesh order: the
    order ``coo_tocsr`` gives COO triples listed by cell, then row-major.
    SciPy's ``sum_duplicates`` sorts each row by column with an unstable
    sort (``csr_sort_indices``) and sums in the sorted order, so the last
    bits of A and P follow from the fill order without being it.  The
    sums' explicit zeros are kept, the indices are int32 while the entries
    fit, as ``tocsr`` picks them, and ``indices`` and ``data`` are arrays
    of their own of exactly nnz entries.
    """
    nloc = rows.shape[1]
    entries = rows.size * nloc
    itype = (np.int32 if max(entries, *shape) <= np.iinfo(np.int32).max
             else np.int64)
    # a stable sort of the (cell, local row) pairs by global row lists each
    # row's pairs in mesh order, so pair p fills slots p * nloc onwards
    order = np.argsort(rows, axis=None, kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=itype)
    indptr[1:] = np.cumsum(np.bincount(rows.ravel(), minlength=shape[0]) * nloc)
    data = np.empty((len(order), nloc))
    indices = np.empty((len(order), nloc), dtype=itype)
    step = max(1, BLOCK_POINTS // nloc)
    for lo in range(0, len(order), step):
        cell, a = np.divmod(order[lo:lo + step], nloc)
        data[lo:lo + step] = local[group[cell], a]
        weigh(data[lo:lo + step], cell, a)
        indices[lo:lo + step] = cols[cell]
    mat = sp.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=shape)
    del data, indices, order
    mat.sum_duplicates()
    # SciPy keeps the pre-sum arrays under its results when the sums leave
    # more than half of the entries; copying the indices before the data
    # frees the first pre-sum array before the larger copy is made
    mat.indices = mat.indices.copy()
    mat.data = mat.data.copy()
    return mat


def assemble(space: FeSpace, f) -> SparseSymSystem:
    """Assemble the global stiffness matrix and load vector.

    The load is ``cell_moments(space, f)`` times each cell's Jacobian and
    DoF scalings, summed over the cells in mesh order by ``np.bincount``.
    Pass None for ``f`` for a zero right-hand side.

    Cells share one element matrix per group of their half-lengths
    (``group_rows``), scaled as ``(k_ab s_a) s_b``; ``scatter`` sums them.
    """
    mesh = space.mesh
    idx, scale, n = space.cell_dof_indices, space.cell_scalings, space.n_dofs

    rhs = np.zeros(n)
    if f is not None:
        jac = np.prod(mesh.cell_half_lengths, axis=1)[:, None]
        fe = scale * (jac * cell_moments(space, f))   # [nc, nloc]
        rhs = np.bincount(idx.ravel(), fe.ravel(), n)

    def weigh(block, cell, a):
        block *= scale[cell, a][:, None]
        block *= scale[cell]

    k, group = _grouped_stiffness(space)
    return SparseSymSystem(scatter(k, group, idx, idx, (n, n), weigh), rhs, space)


def _grouped_stiffness(space: FeSpace) -> tuple[np.ndarray, np.ndarray]:
    """``(k, group)``: one element matrix per group of the cells' half-lengths
    (``group_rows``), and each cell's group."""
    keys, group = group_rows(space.mesh.cell_half_lengths)
    return element_stiffness(keys, space.element), group


def apply_stiffness(space: FeSpace, x: np.ndarray) -> np.ndarray:
    """``A x`` for the matrix A that ``assemble`` builds on ``space``, applied
    cell by cell without A.

    Each cell's ``x_b s_b`` is multiplied by its group's element matrix and
    scaled by ``s_a``, in blocks of about ``BLOCK_POINTS`` element-matrix
    entries, so only one block of cells' matrices is gathered at a time,
    whatever the number of groups; ``np.bincount`` sums the products over
    the cells.  It agrees with A up to rounding, not bit for bit.
    """
    idx, scale = space.cell_dof_indices, space.cell_scalings
    k, group = _grouped_stiffness(space)
    local = x[idx] * scale
    step = max(1, BLOCK_POINTS // idx.shape[1] ** 2)
    for lo in range(0, len(idx), step):
        cells = slice(lo, lo + step)
        local[cells] = np.matmul(k[group[cells]], local[cells, :, None])[..., 0]
    local *= scale
    return np.bincount(idx.ravel(), local.ravel(), space.n_dofs)


@dataclass
class ReducedSystem:
    """The system on the free DoFs of ``space`` after symmetric boundary
    elimination.

    ``matrix`` is the stiffness matrix A that ``assemble`` built, on all
    DoFs of ``space``, neither sliced nor copied: the system's matrix is
    its principal submatrix on the free DoFs, which the direct solver
    reads from A row by row and ``free_block`` copies out for CG.
    ``space`` is the space the system was assembled on.  Its DoF anchors
    and vertex planes let the direct solver order the unknowns by nested
    dissection, and its mesh lets CG build a multigrid hierarchy.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    boundary_values: np.ndarray
    space: FeSpace

    @property
    def free(self) -> np.ndarray:
        return self.space.free_dofs()

    def free_block(self) -> sp.csr_matrix:
        """A CSR copy of the system's matrix, A on the free DoFs, built anew
        on every call."""
        free = self.free
        return self.matrix[free][:, free].tocsr()


def apply_dirichlet(system: SparseSymSystem,
                    boundary_values: np.ndarray) -> ReducedSystem:
    """Eliminate boundary DoFs symmetrically.

    ``boundary_values`` holds one value per boundary DoF, in the order of
    ``space.boundary_dofs()``.  The reduced system holds ``system.matrix``
    itself.  Its right-hand side is ``rhs - A g`` on the free DoFs, with g
    extended by zero: the zeros add only +-0.0 to each row's sum, which
    therefore has the bits of the sum over A's boundary columns alone.
    """
    space = system.space
    bd = space.boundary_dofs()
    g = np.asarray(boundary_values, dtype=float)
    if g.shape != bd.shape:
        raise ValueError("boundary value vector has wrong length")
    g_full = np.zeros(space.n_dofs)
    g_full[bd] = g
    free = space.free_dofs()
    rhs = system.rhs[free] - (system.matrix @ g_full)[free]
    return ReducedSystem(system.matrix, rhs, g, space)


def reconstruct(space: FeSpace, x_free: np.ndarray,
                boundary_values: np.ndarray) -> np.ndarray:
    """The coefficient vector of all DoFs of ``space``: ``x_free`` on the
    free DoFs and ``boundary_values`` on the boundary DoFs, each in the
    order of ``space.free_dofs()`` and ``space.boundary_dofs()``."""
    full = np.empty(space.n_dofs)
    full[space.free_dofs()] = x_free
    full[space.boundary_dofs()] = boundary_values
    return full
