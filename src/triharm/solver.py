"""Direct solver for the symmetric positive definite system on the free DoFs.

It is a multifrontal Cholesky factorization (Duff & Reid 1983; Liu 1992)
on the fronts of a geometric nested-dissection tree
(``ordering.nested_dissection``): ranges of the permuted numbering whose
columns of L are computed together in dense blocks.  ``symbolic`` works
out, once, each front's update rows, where its matrix entries go, and how
each child's update matrix maps into its parent, reading the permuted
rows a chunk of fronts at a time.  It puts each front it builds in the
class of the first front it repeats, bit for bit, and keeps no entries
for a repeat; the numeric loop factors one front per class: it only
allocates, adds slices and calls LAPACK and BLAS.  Only L is stored, its
diagonal blocks packed, and the fronts of a class share theirs.  A
non-positive pivot raises SolverError, and a relative residual check of
1e-9 guards every direct solve.

The numeric factor and the substitution take a dtype, and pick their
routines by its prefix: ``spotrf``, ``strsm``, ``ssyrk`` and ``stpsv`` in
float32, ``dpotrf``, ``dtrsm``, ``dsyrk`` and ``dtpsv`` in float64.
``symbolic`` reads and compares A's float64 entries either way.
``solve_direct`` factors a system on a mesh of ``FLOAT32_DIM`` (3) or
more dimensions in float32 and refines its solution with float64
residuals, mixed-precision iterative refinement (Carson & Higham, SIAM J.
Sci. Comput. 40, 2018); a failed float32 pivot or a refinement that
stalls above ``REFINE_BOUND`` falls back to a float64 factor.  A 2D system, whose condition number reaches ~1e10 at h = 1/64,
is factored in float64 and solved once, as is every other caller's
(``multigrid``'s coarsest level, ``verify_patch_test``).

No global matrix is formed: ``symbolic`` builds the rows of A that a
chunk of fronts reads from the element matrices
(``assembly.stiffness_rows``), with the bits of the same rows of the
assembled A, and the residuals apply the element matrices cell by cell
(``assembly.apply_stiffness``).  A solve's factor and residuals share
one row builder and its element matrices, and ``symbolic`` builds each
free row once, multiplying it by the boundary values before it drops the
boundary columns; ``cholesky`` releases the row index before the numeric
factor.  The peak of a solve sits in the numeric factor, L and the
update matrices: at its end for the L-shape, during it for 3D, where
float32 halves that phase.

The iterative alternative, CG preconditioned by a multigrid V-cycle, lives
in ``multigrid``, which factors its coarsest level with ``cholesky`` on
the coarsest space: only an assembled matrix is decoupled by the
separators, and ``symbolic`` rejects a pattern that crosses one, as P^T A
P does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .assembly import (
    ReducedSystem, RowBuilder, apply_stiffness, block_bounds, check_length,
    stiffness_rows,
)
from .ordering import Front, nested_dissection
from .space import FeSpace

__all__ = ["SolveReport", "solve_direct", "SolverError", "Cholesky", "cholesky",
           "symbolic", "relative_residual"]

# a system on a mesh of this dimension or higher is factored in float32 first
FLOAT32_DIM = 3
# a refinement step stops the loop when its correction |dx| / |x| is more than
# this share of the last one (Demmel et al., ACM TOMS 32, 2006)
REFINE_SHRINK = 0.5
# a refinement that stops with a larger last correction falls back to a
# float64 factor; the last corrections at 3D N <= 16 are at most 1.2e-13
# (Adini N=16), and that floor grows like the condition number, h^-6, so
# N=32's ~8e-12 stays an order of magnitude below the bound
REFINE_BOUND = 1e-10
REFINE_STEPS = 20   # refinement steps at most


class SolverError(RuntimeError):
    pass


@dataclass
class SolveReport:
    method: str
    iterations: int | None
    relative_residual: float
    seconds: float
    ordering: str | None = None      # direct: "nested-dissection"
    fill: int | None = None          # direct: entries of L, counted per front
    factor_seconds: float | None = None  # direct: time spent in the factorization
    fronts: int | None = None        # direct: fronts of the elimination tree
    factored: int | None = None      # direct: fronts factored, the others repeat one
    precision: str | None = None     # direct: dtype of the factor, "float32" or "float64"
    corrections: list[float] | None = None  # direct: |dx| / |x| of each refinement step


def relative_residual(ax, b) -> float:
    """``|A x - b| / |b|`` from the product ``ax``, or ``|A x|`` when b is zero."""
    nb = np.linalg.norm(b)
    if nb == 0:
        return float(np.linalg.norm(ax))
    return float(np.linalg.norm(ax - b) / nb)


def symbolic(a: RowBuilder, perm: np.ndarray, fronts: list[Front],
             x: np.ndarray | None = None):
    """The pattern of ``P A P^T = L L^T`` on the fronts, computed once.

    Row and column i of ``P A P^T`` are row and column perm[i] of the
    symmetric matrix A whose rows ``a`` builds: ``perm`` selects a
    principal submatrix of A, whose other columns are dropped as its rows
    are read.  Front f holds k columns of L on its own range and its m
    update rows: the sorted rows past its range that its entries or its
    children's update rows reach.  Returns ``(rows, runs, entries, classes,
    ax)``:

    - ``rows[f]``: front f's update rows;
    - ``runs[c]``: child c's update rows as runs ``(at, lo, hi)``: rows
      ``lo:hi`` of its update matrix are rows ``at:at + hi - lo`` of its
      parent (own range first), never crossing into its update rows;
    - ``entries[f]``: ``(positions, values)`` of front f's entries on and
      below the diagonal in its flat C-ordered ``(k + m, k)`` block, the
      positions int32 while ``(k + m) k`` fits; None for a repeat;
    - ``classes[f]``: the first front that front f repeats, or f;
    - ``ax``: ``(A x)[perm]`` for ``x``, a vector or columns on all of A's
      columns, each row multiplied as it is built, before the columns off
      perm are dropped; None without ``x``.
    A child's update row before its parent's range crosses the parent's
    separator: ValueError.

    Two fronts repeat each other when they have equal ``k`` and ``m``, the
    same entries at the same positions, bit for bit, and children of equal
    classes with equal runs, in order: equal inputs to the same operations,
    so their factors and update matrices are equal bit for bit.  Each front
    is bucketed as it is built by shape, its children's classes and parent
    rows (which fix their runs, given k) and a hash of about eight evenly
    strided entries (hashing all costs as much as the comparisons it
    saves), then matched against each class of its bucket by its arrays,
    never by a hash alone.

    A's rows are built in chunks of consecutive fronts, a chunk for every
    ``assembly.BLOCK_POINTS`` entries before the sum (``a.entries``), so
    no part of A beyond one chunk is held.
    """
    n, nf, size = len(perm), len(fronts), a.shape[1]
    # -1 off perm, so that keep = i >= j drops the columns perm leaves out
    inverse = np.full(size, -1, dtype=np.int32 if size < 2**31 else np.intp)
    inverse[perm] = np.arange(n)
    starts = np.array([f.start for f in fronts], dtype=inverse.dtype)
    # fronts whose first entry falls in the same BLOCK_POINTS entries form
    # one chunk
    before = np.concatenate(([0], np.cumsum(a.entries[perm])))[starts]
    slot, count = np.empty(n, dtype=np.intp), np.arange(n + 1)  # row in front
    rows, entries, parent, ax, classes, buckets = [], [], np.full(nf, -1), [], [], {}
    at = [np.zeros(0, dtype=np.intp)] * nf      # parent's rows of a child's
    for first, stop in block_bounds(before):
        lo, hi = fronts[first].start, fronts[stop - 1].stop
        b = a(perm[lo:hi])      # row j of it is column lo + j of P A P^T
        if x is not None:
            ax.append(b @ x)
        # one filtered array at a time, each input freed once it is read
        i, values, counts = inverse[b.indices], b.data, np.diff(b.indptr)
        del b
        j = np.repeat(np.arange(lo, hi, dtype=inverse.dtype), counts)
        keep = i >= j
        values = values[keep]
        i = i[keep]
        j = j[keep]
        del keep
        bounds = np.searchsorted(j, starts[first:stop]).tolist() + [len(j)]
        for f in range(first, stop):
            front, own = fronts[f], i[bounds[f - first]:bounds[f - first + 1]]
            for c in front.children:
                if len(rows[c]) and rows[c][0] < front.start:
                    raise ValueError(f"front {f} (rows {front.start}:{front.stop})"
                                     f" gets row {rows[c][0]} from child {c}: the"
                                     " pattern crosses a separator")
            k = front.stop - front.start
            u = np.concatenate([own[own >= front.stop]] + [
                rows[c][rows[c].searchsorted(front.stop):] for c in front.children])
            u.sort()
            rows.append(u[np.concatenate(([True], u[1:] != u[:-1]))] if len(u) else u)
            slot[front.start:front.stop] = count[:k]
            slot[rows[f]] = count[k:k + len(rows[f])]
            itype = np.int32 if (k + len(rows[f])) * k < 2**31 else np.intp
            part = slice(bounds[f - first], bounds[f - first + 1])
            pos, val = (slot[own] * k + j[part] - front.start).astype(itype), values[part]
            for c in front.children:
                at[c], parent[c] = slot[rows[c]], f
            step = max(1, len(pos) // 8)
            key = (k, len(rows[f]), len(pos),
                   tuple((classes[c], at[c].tobytes()) for c in front.children),
                   hash(pos[::step].tobytes()), hash(val[::step].tobytes()))
            bucket = buckets.setdefault(key, [])
            for r in bucket:
                # compared as bits, so that 0.0 and -0.0 differ
                if (np.array_equal(entries[r][0], pos)
                        and np.array_equal(entries[r][1].view(np.int64),
                                           val.view(np.int64))):
                    classes.append(r)
                    entries.append(None)
                    break
            else:
                bucket.append(f)
                classes.append(f)
                # its own copy of the values, so that a factored front frees them
                entries.append((pos, val.copy()))
    # a run ends where the child, the contiguity or the parent's part changes
    m = np.array([len(r) for r in rows])
    k = np.array([f.stop - f.start for f in fronts])
    child, at = np.repeat(np.arange(nf), m), np.concatenate(at)
    new = np.ones(len(at), dtype=bool)
    new[1:] = ((child[1:] != child[:-1]) | (at[1:] != at[:-1] + 1)
               | (at[1:] == k[parent[child[1:]]]))
    cuts = np.flatnonzero(new)
    lo = cuts - np.concatenate(([0], np.cumsum(m)))[child[cuts]]
    hi = lo + np.diff(cuts, append=len(at))
    runs = [[] for _ in fronts]
    for c, *run in zip(child[cuts].tolist(), at[cuts].tolist(), lo.tolist(),
                       hi.tolist()):
        runs[c].append(tuple(run))
    return rows, runs, entries, classes, None if x is None else np.concatenate(ax)


def _extend_add(l11, l21, f22, update, runs, own: bool) -> None:
    """Add a child's update matrix into its parent's blocks, lower parts only.

    With ``own``, the columns in the parent's own range, into its L11 and
    L21; otherwise the others, into its update matrix ``f22``.  Each pair of
    runs is one slice addition.
    """
    k = len(l11)
    for t, (col, lo_c, hi_c) in enumerate(runs):
        if (col < k) != own:
            continue
        for row, lo_r, hi_r in runs[t:]:
            dst, r, c = ((f22, row - k, col - k) if col >= k else
                         (l11, row, col) if row < k else (l21, row - k, col))
            dst[r:r + hi_r - lo_r, c:c + hi_c - lo_c] += \
                update[lo_r:hi_r, lo_c:hi_c]


def _factor(fronts, perm, rows, runs, entries, classes, dtype):
    """Multifrontal Cholesky in ``dtype``: ``(L11, L21)`` of each front, L11
    packed.

    Only the first front of each class is factored; a repeat shares its
    ``(L11, L21)``, and its parent reads the class's update matrix.  A
    factored front gathers its entries (dropping them from ``entries``) and
    its children's updates in its own columns, factors them, forms its
    update matrix with ``?syrk``, then adds its children's updates past its
    range.  A class's update matrix lives until the last factored front
    that reads it.  Blocks are C-ordered lower triangles, which LAPACK and
    BLAS see as Fortran-ordered upper ones; L11 is kept in ``?tpsv``'s
    packed form.  The float64 entries are rounded to ``dtype`` as they are
    gathered, and ``?potrf``, ``?trsm`` and ``?syrk`` of that precision do
    the rest.
    """
    [potrf] = lapack.get_lapack_funcs(["potrf"], dtype=dtype)
    trsm, syrk = blas.get_blas_funcs(["trsm", "syrk"], dtype=dtype)
    last = {}       # class -> the last factored front that reads its update
    for f, front in enumerate(fronts):
        if classes[f] == f:
            for c in front.children:
                last[classes[c]] = f
    factors, updates, tri = [], {}, {}
    for i, (front, upd) in enumerate(zip(fronts, rows)):
        if classes[i] != i:
            factors.append(factors[classes[i]])
            continue
        k, m = front.stop - front.start, len(upd)
        l11, l21, f22 = (np.zeros(shape, dtype) for shape in ((k, k), (m, k), (m, m)))
        (pos, val), entries[i] = entries[i], None
        low = pos < k * k
        l11.reshape(-1)[pos[low]] = val[low]
        l21.reshape(-1)[pos[~low] - k * k] = val[~low]
        for c in front.children:
            _extend_add(l11, l21, f22, updates[classes[c]], runs[c], True)
        if k:
            _, info = potrf(l11.T, lower=0, clean=0, overwrite_a=1)
            if info > 0:
                pos = front.start + info - 1
                raise SolverError(
                    f"Cholesky pivot {pos} (free DoF {perm[pos]}) is not "
                    "positive; system not SPD")
            if m:
                trsm(1.0, l11.T, l21.T, trans_a=1, overwrite_b=1)
                syrk(-1.0, l21.T, c=f22.T, trans=1, overwrite_c=1)
        for c in front.children:
            _extend_add(l11, l21, f22, updates[classes[c]], runs[c], False)
        for c in front.children:
            if last[classes[c]] == i:
                updates.pop(classes[c], None)
        if k not in tri:
            tri[k] = np.tri(k, dtype=bool)
        factors.append((l11[tri[k]], l21))
        if i in last:
            updates[i] = f22
    return factors


def _substitute(factors, fronts, rows, b) -> np.ndarray:
    """Solve ``L L^T x = b`` front by front: forward in postorder, then back,
    with ``?tpsv`` in the precision of ``b``."""
    x = b.copy()
    tpsv = blas.get_blas_funcs("tpsv", dtype=b.dtype)
    for (l11, l21), front, upd in zip(factors, fronts, rows):
        k = front.stop - front.start
        if k:
            y = tpsv(k, l11, x[front.start:front.stop], trans=1)
            x[front.start:front.stop] = y
            x[upd] -= l21 @ y
    for (l11, l21), front, upd in zip(factors[::-1], fronts[::-1], rows[::-1]):
        k = front.stop - front.start
        if k:
            y = x[front.start:front.stop] - l21.T @ x[upd]
            x[front.start:front.stop] = tpsv(k, l11, y)
    return x


@dataclass
class Cholesky:
    """``P A P^T = L L^T``, with L kept front by front as ``(L11, L21)``.

    The fronts of one class share one ``(L11, L21)``, of type ``dtype``.
    """

    perm: np.ndarray
    fronts: list[Front]
    rows: list[np.ndarray]
    factors: list[tuple[np.ndarray, np.ndarray]]
    classes: list[int]      # each front's class: the first front it repeats
    seconds: float          # spent in the factorization, after the ordering
    dtype: np.dtype
    ax: np.ndarray | None   # A x on the free DoFs for cholesky's x, or None

    @property
    def fill(self) -> int:
        """Entries of L, a repeated front's counted with each repeat."""
        return sum(l11.size + l21.size for l11, l21 in self.factors)

    @property
    def factored(self) -> int:
        """Fronts factored: one per class."""
        return len(set(self.classes))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``A^-1 b`` in float64.  ``b`` is first divided by the power of two
        s at or above its largest entry and x multiplied by s after, which
        changes no bit unless it spares the operands of ``dtype`` an
        overflow or underflow."""
        check_length("right-hand side", b, len(self.perm))
        x = np.empty(len(self.perm))
        b = b[self.perm]
        s = np.ldexp(1.0, np.frexp(np.abs(b).max(initial=0.0))[1])
        x[self.perm] = _substitute(self.factors, self.fronts, self.rows,
                                   (b / s).astype(self.dtype, copy=False))
        x *= s
        return x


def cholesky(space: FeSpace, a: RowBuilder | None = None,
             dtype=np.float64, x: np.ndarray | None = None) -> Cholesky:
    """Multifrontal Cholesky of the stiffness matrix A on the free DoFs of
    ``space``, in ``dtype`` (float64 or float32).

    The rows of A are built where ``symbolic`` reads them, by ``a``, the
    space's row builder (``assembly.stiffness_rows`` when it is not
    given), from the element matrices; its row index is released before
    the numeric factor.  With ``x``, a vector or columns on all DoFs, the
    factor's ``ax`` is ``symbolic``'s product.  The free DoFs are
    ordered by nested dissection of their anchor points on the mesh's
    vertex planes; a system with no free DoFs is one empty front.  A
    pattern that crosses a separator raises ValueError, a non-positive
    pivot SolverError.  ``solve`` takes and returns vectors on the free
    DoFs, in the order of ``space.free_dofs()``.
    """
    free = space.free_dofs()
    perm, fronts = nested_dissection(space.dof_points[free], space.mesh.axis_nodes)
    t0 = time.perf_counter()
    a = stiffness_rows(space) if a is None else a
    rows, runs, entries, classes, ax = symbolic(a, free[perm], fronts, x)
    a.release()     # its row index would add to the numeric factor's peak
    del x           # and so would x, when the caller holds no other reference
    if ax is not None:
        ax[perm] = ax.copy()        # into the order of free
    factors = _factor(fronts, perm, rows, runs, entries, classes, dtype)
    return Cholesky(perm, fronts, rows, factors, classes, time.perf_counter() - t0,
                    np.dtype(dtype), ax)


def _refine(factor: Cholesky, x: np.ndarray, residual) -> list[float]:
    """Refine x in place by ``x += factor.solve(residual(x))``, where
    ``residual(x)`` is ``b - A x`` in float64, and return each step's
    ``|dx| / |x|``.  Stops when a correction stops shrinking: when it is
    zero, or more than ``REFINE_SHRINK`` times the one before (a NaN stops
    it too), or after ``REFINE_STEPS`` steps."""
    corrections = [np.inf]
    while len(corrections) <= REFINE_STEPS:
        dx = factor.solve(residual(x))
        x += dx
        corrections.append(float(np.linalg.norm(dx) / (np.linalg.norm(x) or 1.0)))
        if not 0 < corrections[-1] <= REFINE_SHRINK * corrections[-2]:
            break
    return corrections[1:]


def solve_direct(system: ReducedSystem) -> tuple[np.ndarray, SolveReport]:
    """Multifrontal Cholesky in nested-dissection order, refined in float64
    where it is factored in float32, with a residual check.

    A system on a mesh of ``FLOAT32_DIM`` or more dimensions is factored in
    float32 first, and its solution refined (``_refine``) with residuals
    ``b - A x`` taken in float64 from the element matrices
    (``apply_stiffness``).  A non-positive float32 pivot, or a last
    correction above ``REFINE_BOUND``, discards that factor for a float64
    one, whose solve is returned unrefined, as in fewer dimensions; the
    report records the precision of the factor that made the answer and
    its corrections.  The right-hand side is the load minus the factor's
    ``ax`` of the boundary values (``ReducedSystem``).  A non-positive
    float64 pivot raises SolverError, and so does a relative residual of
    the answer above 1e-9.
    """
    t0 = time.perf_counter()
    space, free, a = system.space, system.free, stiffness_rows(system.space)

    def product(x):
        full = np.zeros(space.n_dofs)
        full[free] = x
        return apply_stiffness(space, full, a)[free]

    precisions = [np.float32] if space.dim >= FLOAT32_DIM else []
    for dtype in precisions + [np.float64]:
        try:
            factor = cholesky(space, a, dtype, system.lifted())
        except SolverError:
            if dtype == np.float64:
                raise
            continue
        rhs = system.load - factor.ax
        x = factor.solve(rhs)
        corrections = [] if dtype == np.float64 else _refine(
            factor, x, lambda x: rhs - product(x))
        if not corrections or corrections[-1] <= REFINE_BOUND:
            break
        factor = x = None       # freed before the float64 factor is formed
    res = relative_residual(product(x), rhs)
    report = SolveReport("direct", None, res, time.perf_counter() - t0,
                         ordering="nested-dissection", fill=factor.fill,
                         factor_seconds=factor.seconds,
                         fronts=len(factor.fronts), factored=factor.factored,
                         precision=str(factor.dtype), corrections=corrections)
    if not np.isfinite(res) or res > 1e-9:
        raise SolverError(
            f"direct solve residual {res:.3e} exceeds 1e-9; "
            "system may not be SPD (assembly or BC bug)"
        )
    return x, report
