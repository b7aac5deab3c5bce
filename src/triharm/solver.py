"""Direct solver for the symmetric positive definite system on the free DoFs.

It is a multifrontal Cholesky factorization (Duff & Reid 1983; Liu 1992)
on a geometric nested-dissection tree (George 1973).  Each block
of free DoFs is cut once, at the mesh vertex plane nearest the median of its
longest extent, and the DoFs on that plane are numbered after the two halves
they separate.  A block of fewer than ``LEAF_DOFS`` DoFs is not cut, which
merges the smallest fronts into one leaf.  Each separator, and each block
left whole, is a front: a range of the permuted numbering whose columns of L
are computed together in dense blocks.  ``symbolic`` works out, once, each
front's update rows, where its matrix entries go, and how each child's
update matrix maps into its parent, reading the permuted rows a chunk of
fronts at a time.  Fronts that repeat one another, bit for bit, fall into
one class (``_classify``), and the numeric loop factors one front per
class: it only allocates, adds slices and calls LAPACK and BLAS
(``dpotrf``, ``dtrsm``, ``dsyrk``).  Only L is stored, its diagonal blocks
packed, and the fronts of a class share theirs.  A non-positive pivot
raises SolverError, and a relative residual check of 1e-9 guards every
direct solve.

No global matrix is formed: ``symbolic`` builds the rows of A that a
chunk of fronts reads from the element matrices
(``assembly.stiffness_rows``), with the bits of the same rows of the
assembled A, and the residual check applies the element matrices cell by
cell (``assembly.apply_stiffness``).  The peak of a solve sits in the
numeric factor, L and the update matrices: at its end for the L-shape,
during it for 3D.

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
    ReducedSystem, RowBuilder, apply_stiffness, block_bounds, stiffness_rows,
)
from .space import FeSpace

__all__ = ["SolveReport", "solve_direct", "SolverError", "Front", "Cholesky",
           "cholesky", "nested_dissection", "symbolic", "relative_residual",
           "LEAF_DOFS"]

LEAF_DOFS = 64   # a block of fewer free DoFs is not cut: it is one front


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


@dataclass(frozen=True)
class Front:
    """Columns ``start:stop`` of the permuted matrix, eliminated together.

    ``children`` index the fronts whose update matrices this one absorbs;
    they come before it in postorder.
    """

    start: int
    stop: int
    children: tuple[int, ...] = ()


def relative_residual(ax, b) -> float:
    """``|A x - b| / |b|`` from the product ``ax``, or ``|A x|`` when b is zero."""
    nb = np.linalg.norm(b)
    if nb == 0:
        return float(np.linalg.norm(ax))
    return float(np.linalg.norm(ax - b) / nb)


def _cut(coords, axis_nodes: list[np.ndarray]):
    """``(axis, plane)``: the vertex plane nearest the median of the longest
    axis of the points with coordinates ``coords`` (one array per axis), or
    None when no vertex plane lies strictly inside their extent."""
    lo, hi = [c.min() for c in coords], [c.max() for c in coords]
    for axis in sorted(range(len(coords)), key=lambda ax: lo[ax] - hi[ax]):
        nodes = axis_nodes[axis]
        inside = nodes[np.searchsorted(nodes, lo[axis], "right"):
                       np.searchsorted(nodes, hi[axis])]
        if inside.size:
            coord = coords[axis]
            # np.median without its overhead: the mean of the middle pair
            mid = [(len(coord) - 1) // 2, len(coord) // 2]
            median = np.partition(coord, mid)[mid].sum() / 2
            return axis, inside[np.abs(inside - median).argmin()]
    return None


def nested_dissection(points: np.ndarray, axis_nodes: list[np.ndarray]
                      ) -> tuple[np.ndarray, list[Front]]:
    """Nested-dissection order of the DoFs anchored at ``points``, and its fronts.

    Each block is cut once, at the vertex plane nearest the median of its
    longest axis; both halves are ordered recursively, then the DoFs on the
    plane follow them as their parent front.  Every cell lies on one side of
    a vertex plane, so no cell holds a DoF of each half.  A block of fewer
    than ``LEAF_DOFS`` DoFs, one that no vertex plane cuts, or one whose
    separator has at least as many DoFs as its smaller half is not split: it
    keeps its natural order and becomes one leaf front.  The fronts are
    listed in postorder.

    A separator's DoFs are then numbered by the cuts its first half made:
    below, on and above each cut plane in turn, recursively.  The part of
    it next to a descendant block is then a few contiguous runs.
    """
    coords = [np.ascontiguousarray(c) for c in points.T]
    pieces, fronts, cuts = [], [], []

    def visit(idx) -> int:
        sub = [c[idx] for c in coords]
        cut = _cut(sub, axis_nodes) if len(idx) >= LEAF_DOFS else None
        children = ()
        if cut is not None:
            coord = sub[cut[0]]
            left, right = idx[coord < cut[1]], idx[coord > cut[1]]
            if len(idx) - len(left) - len(right) < min(len(left), len(right)):
                children, idx = (visit(left), visit(right)), idx[coord == cut[1]]
        start = fronts[-1].stop if fronts else 0
        pieces.append(idx)
        fronts.append(Front(start, start + len(idx), children))
        cuts.append(cut if children else (-1, 0.0))
        return len(fronts) - 1

    visit(np.arange(len(points)))
    # walk all separator DoFs down their first halves' cuts at once, adding
    # a digit 0, 1 or 2 for below, on or above each cut, and 0 at a leaf
    axis, plane = (np.array(v) for v in zip(*cuts))
    below = np.array([f.children[0] if f.children else -1 for f in fronts])
    above = np.array([f.children[-1] if f.children else -1 for f in fronts])
    seps = np.flatnonzero(below >= 0)
    if len(seps):
        sizes = [len(pieces[f]) for f in seps]
        owner, dofs = np.repeat(seps, sizes), np.concatenate([pieces[f] for f in seps])
        node, key = below[owner], np.zeros(len(dofs), dtype=np.int64)
        while (live := axis[node] >= 0).any():
            x, at = points[dofs, axis[node]], plane[node]
            digit = np.where(live, np.sign(x - at) + 1, 0).astype(np.int64)
            key = 3 * key + digit
            node = np.where(~live, node, np.where(digit == 2, above[node], below[node]))
        dofs = dofs[np.lexsort((key, owner))]
        for f, d in zip(seps, np.split(dofs, np.cumsum(sizes)[:-1])):
            pieces[f] = d
    return np.concatenate(pieces), fronts


def symbolic(a: RowBuilder, perm: np.ndarray, fronts: list[Front]):
    """The pattern of ``P A P^T = L L^T`` on the fronts, computed once.

    Row and column i of ``P A P^T`` are row and column perm[i] of the
    symmetric matrix A whose rows ``a`` builds: ``perm`` selects a
    principal submatrix of A, whose other columns are dropped as its rows
    are read.  Front f holds k columns of L on its own range and its m
    update rows: the sorted rows past its range that its entries or its
    children's update rows reach.  Returns ``(rows, runs, entries)``:

    - ``rows[f]``: front f's update rows;
    - ``runs[c]``: child c's update rows as runs ``(at, lo, hi)``: rows
      ``lo:hi`` of its update matrix are rows ``at:at + hi - lo`` of its
      parent (own range first), never crossing into its update rows;
    - ``entries[f]``: ``(positions, values)`` of front f's entries on and
      below the diagonal in its flat C-ordered ``(k + m, k)`` block, the
      positions int32 while ``(k + m) k`` fits.
    A child's update row before its parent's range crosses the parent's
    separator: ValueError.

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
    rows, entries, parent = [], [], np.full(nf, -1)
    at = [np.zeros(0, dtype=np.intp)] * nf      # parent's rows of a child's
    for first, stop in block_bounds(before):
        lo, hi = fronts[first].start, fronts[stop - 1].stop
        b = a(perm[lo:hi])      # row j of it is column lo + j of P A P^T
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
            x = np.concatenate([own[own >= front.stop]] + [
                rows[c][rows[c].searchsorted(front.stop):] for c in front.children])
            x.sort()
            rows.append(x[np.concatenate(([True], x[1:] != x[:-1]))] if len(x) else x)
            slot[front.start:front.stop] = count[:k]
            slot[rows[f]] = count[k:k + len(rows[f])]
            itype = np.int32 if (k + len(rows[f])) * k < 2**31 else np.intp
            part = slice(bounds[f - first], bounds[f - first + 1])
            # its own copy of the values, so that a factored front frees them
            entries.append(((slot[own] * k + j[part] - front.start).astype(itype),
                            values[part].copy()))
            for c in front.children:
                at[c], parent[c] = slot[rows[c]], f
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
    return rows, runs, entries


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


def _classify(fronts, rows, runs, entries) -> list[int]:
    """Each front's class: the first front in postorder that it repeats.

    Two fronts repeat each other when they have equal ``k`` and ``m``, the
    same entries at the same positions, bit for bit, and children of equal
    classes with equal runs, in order: equal inputs to the same operations,
    so their factors and update matrices are equal bit for bit.  Fronts are
    bucketed by shape, children and a hash of the bytes of about eight of
    their entries, evenly strided (hashing all of them costs as much as the
    comparisons it saves), then matched against each class of the bucket
    by their arrays, never by a hash alone.  A repeat's entries are
    dropped from ``entries``.
    """
    classes, buckets = [], {}
    for f, front in enumerate(fronts):
        pos, val = entries[f]
        step = max(1, len(pos) // 8)
        key = (front.stop - front.start, len(rows[f]), len(pos),
               tuple((classes[c], tuple(runs[c])) for c in front.children),
               hash(pos[::step].tobytes()), hash(val[::step].tobytes()))
        bucket = buckets.setdefault(key, [])
        for r in bucket:
            # compared as bits, so that 0.0 and -0.0 differ
            if (np.array_equal(entries[r][0], pos)
                    and np.array_equal(entries[r][1].view(np.int64),
                                       val.view(np.int64))):
                classes.append(r)
                entries[f] = None
                break
        else:
            bucket.append(f)
            classes.append(f)
    return classes


def _factor(fronts, perm, rows, runs, entries, classes):
    """Multifrontal Cholesky: ``(L11, L21)`` of each front, L11 packed.

    Only the first front of each class is factored; a repeat shares its
    ``(L11, L21)``, and its parent reads the class's update matrix.  A
    factored front gathers its entries (dropping them from ``entries``) and
    its children's updates in its own columns, factors them, forms its
    update matrix with ``dsyrk``, then adds its children's updates past its
    range.  A class's update matrix lives until the last factored front
    that reads it.  Blocks are C-ordered lower triangles, which LAPACK and
    BLAS see as Fortran-ordered upper ones; L11 is kept in ``dtpsv``'s
    packed form.
    """
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
        l11, l21, f22 = np.zeros((k, k)), np.zeros((m, k)), np.zeros((m, m))
        (pos, val), entries[i] = entries[i], None
        low = pos < k * k
        l11.reshape(-1)[pos[low]] = val[low]
        l21.reshape(-1)[pos[~low] - k * k] = val[~low]
        for c in front.children:
            _extend_add(l11, l21, f22, updates[classes[c]], runs[c], True)
        if k:
            _, info = lapack.dpotrf(l11.T, lower=0, clean=0, overwrite_a=1)
            if info > 0:
                pos = front.start + info - 1
                raise SolverError(
                    f"Cholesky pivot {pos} (free DoF {perm[pos]}) is not "
                    "positive; system not SPD")
            if m:
                blas.dtrsm(1.0, l11.T, l21.T, trans_a=1, overwrite_b=1)
                blas.dsyrk(-1.0, l21.T, c=f22.T, trans=1, overwrite_c=1)
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
    """Solve ``L L^T x = b`` front by front: forward in postorder, then back."""
    x = b.copy()
    for (l11, l21), front, upd in zip(factors, fronts, rows):
        k = front.stop - front.start
        if k:
            y = blas.dtpsv(k, l11, x[front.start:front.stop], trans=1)
            x[front.start:front.stop] = y
            x[upd] -= l21 @ y
    for (l11, l21), front, upd in zip(factors[::-1], fronts[::-1], rows[::-1]):
        k = front.stop - front.start
        if k:
            y = x[front.start:front.stop] - l21.T @ x[upd]
            x[front.start:front.stop] = blas.dtpsv(k, l11, y)
    return x


@dataclass
class Cholesky:
    """``P A P^T = L L^T``, with L kept front by front as ``(L11, L21)``.

    The fronts of one class share one ``(L11, L21)``.
    """

    perm: np.ndarray
    fronts: list[Front]
    rows: list[np.ndarray]
    factors: list[tuple[np.ndarray, np.ndarray]]
    classes: list[int]      # each front's class: the first front it repeats
    seconds: float          # spent in the factorization, after the ordering

    @property
    def fill(self) -> int:
        """Entries of L, a repeated front's counted with each repeat."""
        return sum(l11.size + l21.size for l11, l21 in self.factors)

    @property
    def factored(self) -> int:
        """Fronts factored: one per class."""
        return len(set(self.classes))

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty(len(self.perm))
        x[self.perm] = _substitute(self.factors, self.fronts, self.rows,
                                   b[self.perm])
        return x


def cholesky(space: FeSpace) -> Cholesky:
    """Multifrontal Cholesky of the stiffness matrix A on the free DoFs of
    ``space``.

    The rows of A are built where ``symbolic`` reads them, from the
    element matrices (``assembly.stiffness_rows``).  The free DoFs are
    ordered by nested dissection of their anchor points on the mesh's
    vertex planes; a system with no free DoFs is one empty front.  A
    pattern that crosses a separator raises ValueError, a non-positive
    pivot SolverError.  ``solve`` takes and returns vectors on the free
    DoFs, in the order of ``space.free_dofs()``.
    """
    free = space.free_dofs()
    perm, fronts = nested_dissection(space.dof_points[free], space.mesh.axis_nodes)
    t0 = time.perf_counter()
    rows, runs, entries = symbolic(stiffness_rows(space), free[perm], fronts)
    classes = _classify(fronts, rows, runs, entries)
    factors = _factor(fronts, perm, rows, runs, entries, classes)
    return Cholesky(perm, fronts, rows, factors, classes, time.perf_counter() - t0)


def solve_direct(system: ReducedSystem) -> tuple[np.ndarray, SolveReport]:
    """Multifrontal Cholesky in nested-dissection order, with a residual check.

    The residual is taken with ``apply_stiffness`` on the system's space.
    A non-positive pivot raises SolverError, and so does a relative
    residual above 1e-9.
    """
    t0 = time.perf_counter()
    space, rhs = system.space, system.rhs
    factor = cholesky(space)
    x = factor.solve(rhs)
    free = space.free_dofs()
    full = np.zeros(space.n_dofs)
    full[free] = x
    res = relative_residual(apply_stiffness(space, full)[free], rhs)
    report = SolveReport("direct", None, res, time.perf_counter() - t0,
                         ordering="nested-dissection", fill=factor.fill,
                         factor_seconds=factor.seconds,
                         fronts=len(factor.fronts), factored=factor.factored)
    if not np.isfinite(res) or res > 1e-9:
        raise SolverError(
            f"direct solve residual {res:.3e} exceeds 1e-9; "
            "system may not be SPD (assembly or BC bug)"
        )
    return x, report
