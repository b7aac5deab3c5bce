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

The stiffness matrix A's entries are formed in one place, the row builder
of ``stiffness_rows``: any set of A's rows, built from the element
matrices with the bits of the same rows of A built at once.  ``assemble``
builds all of them for CG; the direct solver builds only the rows it
reads, a block at a time.  ``apply_dirichlet`` builds none: each solver
eliminates the boundary data in the pass that already reads A's free rows.
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
    "element_stiffness", "group_rows", "block_bounds", "RowBuilder",
    "stiffness_rows", "load_vector", "assemble", "apply_stiffness",
    "SparseSymSystem", "ReducedSystem", "apply_dirichlet", "check_length",
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
    """The stiffness matrix A on all DoFs of ``space``, and the load."""

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


def block_bounds(before: np.ndarray) -> list[tuple[int, int]]:
    """``(lo, hi)`` ranges of consecutive items, one for every
    ``BLOCK_POINTS`` entries: the items whose first entry falls in the same
    block form one range, where ``before[i]`` counts the entries before
    item i."""
    cuts = (np.flatnonzero(np.diff(before // BLOCK_POINTS)) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(before)]))


class RowBuilder:
    """Rows of the CSR matrix of ``shape`` that sums the cells' local
    matrices: row a of ``local[group[c]]``, scaled in place by
    ``weigh(block, cells, a)``, goes to global row ``rows[c, a]`` and
    columns ``cols[c]``.

    Row r is SciPy's sort-and-sum of its (cell, local row) contributions,
    filled in mesh order: ``builder(r)`` fills row r[i] with the row a of
    each cell that has r[i] as its local row a, cell after cell, and
    ``sum_duplicates`` sorts each row by column (``csr_sort_indices``) and
    sums it in the sorted order.  A row's bits thus follow from its own
    fill alone, whichever rows are built with it.  The sums' explicit
    zeros are kept.  ``entries[r]`` counts row r's entries before the sum.

    The row index that rule needs is built on first use, and ``release``
    drops it until a call needs it again: a builder kept for its local
    matrices then holds no array of its own besides them.
    """

    def __init__(self, local: np.ndarray, group: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray, shape: tuple[int, int], weigh):
        self.local, self.group, self.shape, self.weigh = local, group, shape, weigh
        self.rows, self.cols, self.nloc = rows, cols, rows.shape[1]

    @functools.cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, start, entries)``: a stable sort of the (cell, local
        row) pairs by global row, which lists each row's pairs in mesh
        order (row r's are ``order[start[r]:start[r + 1]]``), and the
        entries per row."""
        order = np.argsort(self.rows, axis=None, kind="stable")
        count = np.bincount(self.rows.ravel(), minlength=self.shape[0])
        return order, np.concatenate(([0], np.cumsum(count))), count * self.nloc

    @property
    def entries(self) -> np.ndarray:
        return self._index[2]

    def release(self) -> None:
        """Drop the row index; the next call builds it again."""
        self.__dict__.pop("_index", None)

    def __call__(self, r: np.ndarray) -> sp.csr_matrix:
        """Rows ``r`` as a CSR matrix of ``(len(r), shape[1])``, summed."""
        order, start, _ = self._index
        first, count = start[r], start[r + 1] - start[r]
        ends = np.cumsum(count)
        at = (np.arange(ends[-1] if len(ends) else 0)
              + np.repeat(first - ends + count, count))
        cell, a = np.divmod(order[at], self.nloc)
        data = self.local[self.group[cell], a]
        self.weigh(data, cell, a)
        mat = sp.csr_matrix((data.ravel(), self.cols[cell].ravel(),
                             np.concatenate(([0], ends * self.nloc))),
                            shape=(len(r), self.shape[1]))
        mat.has_sorted_indices = False
        mat.sum_duplicates()
        return mat

    def matrix(self) -> sp.csr_matrix:
        """All rows, built a block of about ``BLOCK_POINTS`` entries before
        the sum at a time (``block_bounds``); ``indices`` and ``data`` are
        arrays of their own of exactly nnz entries."""
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        indices, data = [], []
        for lo, hi in block_bounds(np.concatenate(([0], np.cumsum(self.entries)))[:-1]):
            b = self(np.arange(lo, hi))
            indptr[lo + 1:hi + 1] = indptr[lo] + b.indptr[1:]
            # copies of the sums alone, so that no block's pre-sum arrays
            # outlive it
            indices.append(b.indices.copy())
            data.append(b.data.copy())
        indices = np.concatenate(indices)
        data = np.concatenate(data)
        mat = sp.csr_matrix((data, indices, indptr), shape=self.shape)
        # SciPy's constructor keeps views of the arrays it is given, and
        # may pick a wider index dtype for all rows than for a block's
        mat.indices, mat.data = indices.astype(mat.indptr.dtype, copy=False), data
        mat.has_canonical_format = True
        return mat


def stiffness_rows(space: FeSpace) -> RowBuilder:
    """The row builder of the stiffness matrix A on ``space``, the one
    place A's entries are formed.

    Cells share one element matrix per group of their half-lengths
    (``group_rows``), scaled as ``(k_ab s_a) s_b``.
    """
    idx, scale = space.cell_dof_indices, space.cell_scalings

    def weigh(block, cell, a):
        block *= scale[cell, a][:, None]
        block *= scale[cell]

    keys, group = group_rows(space.mesh.cell_half_lengths)
    k = element_stiffness(keys, space.element)
    return RowBuilder(k, group, idx, idx, (space.n_dofs,) * 2, weigh)


def load_vector(space: FeSpace, f) -> np.ndarray:
    """The load: ``cell_moments(space, f)`` times each cell's Jacobian and
    DoF scalings, summed over the cells in mesh order by ``np.bincount``;
    zero for ``f`` None."""
    if f is None:
        return np.zeros(space.n_dofs)
    jac = np.prod(space.mesh.cell_half_lengths, axis=1)[:, None]
    fe = space.cell_scalings * (jac * cell_moments(space, f))   # [nc, nloc]
    return np.bincount(space.cell_dof_indices.ravel(), fe.ravel(), space.n_dofs)


def assemble(space: FeSpace, f) -> SparseSymSystem:
    """The stiffness matrix A on all DoFs, every row of ``stiffness_rows``
    built a block at a time, and the load (``load_vector``).  Only CG
    iterates on A; the direct solver builds its rows where it reads them.
    """
    rhs = load_vector(space, f)
    return SparseSymSystem(stiffness_rows(space).matrix(), rhs, space)


def apply_stiffness(space: FeSpace, x: np.ndarray, a: RowBuilder) -> np.ndarray:
    """``A x`` for the matrix A that ``assemble`` builds on ``space``, applied
    cell by cell without A.

    Each cell's ``x_b s_b`` is multiplied by its group's element matrix and
    scaled by ``s_a``, in blocks of about ``BLOCK_POINTS`` element-matrix
    entries, so only one block of cells' matrices is gathered at a time,
    whatever the number of groups; ``np.bincount`` sums the products over
    the cells.  It agrees with A up to rounding, not bit for bit.  The
    grouped element matrices are those of ``a``, the space's
    ``stiffness_rows``.
    """
    idx, scale = space.cell_dof_indices, space.cell_scalings
    k, group = a.local, a.group
    local = x[idx] * scale
    step = max(1, BLOCK_POINTS // idx.shape[1] ** 2)
    for lo in range(0, len(idx), step):
        cells = slice(lo, lo + step)
        local[cells] = np.matmul(k[group[cells]], local[cells, :, None])[..., 0]
    local *= scale
    return np.bincount(idx.ravel(), local.ravel(), space.n_dofs)


@dataclass
class ReducedSystem:
    """The problem on the free DoFs of ``space``: the load on them and the
    boundary values g, in the order of ``space.boundary_dofs()``.

    Its right-hand side, ``load - A_FB g``, is formed by each solver in the
    pass that already reads A's free rows, as their product with g
    extended by zero (``lifted``).  SciPy sums each row of it from +0.0:
    the zeros add only +-0.0, so a row has the bits of its sum over A's
    boundary columns alone, and a row with none is +0.0 and leaves the
    load's bits.  The direct solver orders the unknowns by the space's DoF
    anchors, and CG builds a multigrid hierarchy on its mesh.
    """

    load: np.ndarray
    boundary_values: np.ndarray
    space: FeSpace

    @property
    def free(self) -> np.ndarray:
        return self.space.free_dofs()

    def lifted(self) -> np.ndarray:
        """g on all DoFs of ``space``, zero on the free ones."""
        return reconstruct(self.space, np.zeros(len(self.free)), self.boundary_values)


def apply_dirichlet(space: FeSpace, rhs: np.ndarray,
                    boundary_values: np.ndarray) -> ReducedSystem:
    """The problem on the free DoFs of ``space`` for the load ``rhs`` on
    all DoFs and the boundary DoFs held at ``boundary_values``, with no row
    of A built: the solver eliminates them (``ReducedSystem``)."""
    check_length("load vector", rhs, space.n_dofs)
    g = np.asarray(boundary_values, dtype=float)
    check_length("boundary value vector", g, len(space.boundary_dofs()))
    return ReducedSystem(rhs[space.free_dofs()], g, space)


def check_length(name: str, vector, n: int) -> None:
    """Raise ``ValueError`` unless ``vector`` is one-dimensional of length
    ``n``, naming both shapes."""
    if np.shape(vector) != (n,):
        raise ValueError(f"{name} has shape {np.shape(vector)}, expected ({n},)")


def reconstruct(space: FeSpace, x_free: np.ndarray,
                boundary_values: np.ndarray) -> np.ndarray:
    """The coefficient vector of all DoFs of ``space``: ``x_free`` on the
    free DoFs and ``boundary_values`` on the boundary DoFs, each in the
    order of ``space.free_dofs()`` and ``space.boundary_dofs()``."""
    free, boundary = space.free_dofs(), space.boundary_dofs()
    check_length("free DoF vector", x_free, len(free))
    check_length("boundary value vector", boundary_values, len(boundary))
    full = np.empty(space.n_dofs)
    full[free] = x_free
    full[boundary] = boundary_values
    return full
