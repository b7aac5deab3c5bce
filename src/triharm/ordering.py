"""Geometric nested-dissection order of the free DoFs, and its fronts.

Each block of free DoFs is cut once, at the mesh vertex plane nearest the
median of its longest extent, and the DoFs on that plane are numbered
after the two halves they separate (George 1973).  A block of fewer than
``LEAF_DOFS`` DoFs is not cut, which merges the smallest fronts into one
leaf.  Each separator, and each block left whole, is a front: a range of
the permuted numbering whose columns of L ``solver.cholesky`` computes
together in dense blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LEAF_DOFS", "Front", "nested_dissection"]

LEAF_DOFS = 64   # a block of fewer free DoFs is not cut: it is one front


@dataclass(frozen=True)
class Front:
    """Columns ``start:stop`` of the permuted matrix, eliminated together.

    ``children`` index the fronts whose update matrices this one absorbs;
    they come before it in postorder.
    """

    start: int
    stop: int
    children: tuple[int, ...] = ()


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
