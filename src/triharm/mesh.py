"""Structured axis-aligned n-rectangle meshes.

A mesh is a tensor grid of cells with an active mask (the mask carves the
2D L-shape out of a square).  Cells carry a center and per-axis half-lengths;
vertices and faces get deterministic lexicographic global ids.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["BoxDomain", "StructuredMesh", "uniform_mesh", "lshape_mesh"]


@dataclass(frozen=True)
class BoxDomain:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi length mismatch")
        if not all(math.isfinite(a) and math.isfinite(b) and a < b
                   for a, b in zip(self.lo, self.hi)):
            raise ValueError("domain bounds must be finite with lo < hi, got"
                             f" lo={self.lo}, hi={self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)


class StructuredMesh:
    """Tensor-product mesh with an active-cell mask.

    Entities, each numbered in lexicographic grid order:
      - cells: active grid cells; ``cell_index`` maps the cell grid to ids
        (-1 where inactive)
      - vertices: grid nodes touched by at least one active cell;
        ``vertex_index`` maps the node grid to ids (-1 where untouched)
      - faces: ordered by axis, then by face grid position, each with one
        or two incident cells

    Per-cell connectivity: ``cell_vertices[c, v]`` for the corners in
    lexicographic sign order and ``cell_faces[c, axis, side]`` with side 0
    at the low end of the axis; ``face_cells[f]`` holds the cell below and
    the cell above the face along its axis, -1 where the side is outside.
    """

    def __init__(self, axis_nodes: list[np.ndarray], active: np.ndarray):
        self.dim = len(axis_nodes)
        self.axis_nodes = [np.asarray(a, dtype=float) for a in axis_nodes]
        for k, a in enumerate(self.axis_nodes):
            # a repeated node would give a zero half-length, a decreasing
            # one a negative half-length
            if not (a.ndim == 1 and len(a) > 1 and np.isfinite(a).all()
                    and (np.diff(a) > 0).all()):
                raise ValueError(f"axis {k} needs at least two finite, strictly"
                                 f" increasing nodes, got {a}")
        shape = tuple(len(a) - 1 for a in self.axis_nodes)
        self.active = np.asarray(active, dtype=bool)
        if self.active.shape != shape:
            raise ValueError(f"active mask has shape {self.active.shape},"
                             f" the cell grid {shape}")
        if not self.active.any():
            raise ValueError("mesh has no active cells")
        self._build()

    def _build(self):
        n = self.dim
        shape = self.active.shape
        nodes = self.axis_nodes

        self.cell_index = np.full(shape, -1, dtype=np.int64)
        self.n_cells = int(self.active.sum())
        self.cell_index[self.active] = np.arange(self.n_cells)
        cell_grid = np.argwhere(self.active)
        lo = np.stack([nodes[k][cell_grid[:, k]] for k in range(n)], axis=1)
        hi = np.stack([nodes[k][cell_grid[:, k] + 1] for k in range(n)], axis=1)
        self.cell_centers = 0.5 * (lo + hi)
        self.cell_half_lengths = 0.5 * (hi - lo)

        # padded[g + 1] is cell g's id; the pad marks cells outside the grid
        padded = np.pad(self.cell_index, 1, constant_values=-1)

        def window(offset, extent):
            """View of ``padded`` starting at ``offset`` with shape ``extent``."""
            return padded[tuple(slice(o, o + e) for o, e in zip(offset, extent))]

        # node g touches the cells g - 1 + c for the corner offsets c
        corners = list(np.ndindex(*([2] * n)))
        node_shape = tuple(s + 1 for s in shape)
        touching = [window(c, node_shape) >= 0 for c in corners]
        used = np.logical_or.reduce(touching)
        self.boundary_vertex_mask = ~np.logical_and.reduce(touching)[used]
        self.n_vertices = int(used.sum())
        self.vertex_index = np.full(node_shape, -1, dtype=np.int64)
        self.vertex_index[used] = np.arange(self.n_vertices)
        vertex_grid = np.argwhere(used)
        self.vertex_coords = np.stack(
            [nodes[k][vertex_grid[:, k]] for k in range(n)], axis=1)
        self.cell_vertices = np.stack(
            [self.vertex_index[tuple((cell_grid + c).T)] for c in corners], axis=1)

        # faces on axis k sit on a grid with one more slot along k; face g
        # lies between the cells g - e_k (below) and g (above)
        self.cell_faces = np.empty((self.n_cells, n, 2), dtype=np.int64)
        face_cells, axis, bary = [], [], []
        offset = 0
        for k in range(n):
            unit = np.eye(n, dtype=np.int64)[k]
            face_shape = tuple(s + u for s, u in zip(shape, unit))
            below = window(1 - unit, face_shape)
            above = window((1,) * n, face_shape)
            present = (below >= 0) | (above >= 0)
            count = int(present.sum())
            face_index = np.full(face_shape, -1, dtype=np.int64)
            face_index[present] = offset + np.arange(count)
            self.cell_faces[:, k, 0] = face_index[tuple(cell_grid.T)]
            self.cell_faces[:, k, 1] = face_index[tuple((cell_grid + unit).T)]
            face_cells.append(np.stack([below[present], above[present]], axis=1))
            axis.append(np.full(count, k))
            face_grid = np.argwhere(present)
            bary.append(np.stack(
                [nodes[j][face_grid[:, j]] if j == k
                 else 0.5 * (nodes[j][face_grid[:, j]] + nodes[j][face_grid[:, j] + 1])
                 for j in range(n)], axis=1))
            offset += count
        self.n_faces = offset
        self.face_cells = np.concatenate(face_cells)
        self.face_axis = np.concatenate(axis)
        self.face_barycenters = np.concatenate(bary)
        self.boundary_face_mask = (self.face_cells < 0).any(axis=1)


def _count(value) -> int:
    """A cell count as an int; a count that is not an integer (2.5, or the
    float 2.0) raises ValueError where ``int`` would round it down."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"cell counts must be integers, got {value!r}") from None


def uniform_mesh(domain: BoxDomain, subdivisions) -> StructuredMesh:
    """Uniform tensor grid with N_i cells along axis i."""
    subs = [_count(s) for s in np.atleast_1d(subdivisions)]
    if len(subs) == 1:
        subs = subs * domain.dim
    if len(subs) != domain.dim:
        raise ValueError("subdivision count does not match dimension")
    if any(s < 1 for s in subs):
        raise ValueError("subdivisions must be >= 1")
    axis_nodes = [
        np.linspace(lo, hi, s + 1)
        for lo, hi, s in zip(domain.lo, domain.hi, subs)
    ]
    return StructuredMesh(axis_nodes, np.ones(subs, dtype=bool))


def lshape_mesh(n_per_unit: int) -> StructuredMesh:
    """L-shape (-1,1)^2 minus the closed quadrant x >= 0, y <= 0.

    ``n_per_unit`` cells per unit length, so 3 N^2 active cells.
    """
    n = _count(n_per_unit)
    if n < 1:
        raise ValueError("need at least one cell per unit length")
    nodes = np.linspace(-1.0, 1.0, 2 * n + 1)
    active = np.ones((2 * n, 2 * n), dtype=bool)
    centers = 0.5 * (nodes[:-1] + nodes[1:])
    cx, cy = np.meshgrid(centers, centers, indexing="ij")
    active[(cx > 0) & (cy < 0)] = False
    return StructuredMesh([nodes, nodes], active)
