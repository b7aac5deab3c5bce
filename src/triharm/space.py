"""Global finite element spaces: DoF enumeration and cell-to-global maps.

Global coefficients store *physical* DoF values (point values, first /
pure-second derivatives in x, second normal derivatives at face centers).
The reference nodal basis carries xi-derivatives, so the cell map stores a
scaling h_axis^order per local DoF: the reference coefficient of basis
function a on a cell is  scaling_a * (physical DoF value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import StructuredMesh
from .reference import Family, ReferenceElement, build_dual_basis

__all__ = ["FeSpace", "build_space"]

@dataclass
class FeSpace:
    mesh: StructuredMesh
    family: Family
    element: ReferenceElement
    n_dofs: int
    cell_dof_indices: np.ndarray   # [n_cells, n_local]
    cell_scalings: np.ndarray      # [n_cells, n_local]
    boundary_mask: np.ndarray      # [n_dofs]
    dof_kind: list[tuple[str, int | None]]  # per global dof: (kind, axis)
    dof_points: np.ndarray         # [n_dofs, dim] anchor point of each dof

    @property
    def dim(self) -> int:
        return self.mesh.dim

    def boundary_dofs(self) -> np.ndarray:
        return np.nonzero(self.boundary_mask)[0]

    def free_dofs(self) -> np.ndarray:
        return np.nonzero(~self.boundary_mask)[0]


def build_space(mesh: StructuredMesh, family: Family) -> FeSpace:
    """Enumerate global DoFs for (mesh, family) and build the cell maps.

    Global numbering: each vertex's DoFs in the order of the reference
    element's first vertex, vertex by vertex, then one DoF per face when
    the element has face DoFs.
    """
    elem = build_dual_basis(family, mesh.dim)
    vkinds = [(d.kind, d.axis) for d in elem.dofs if d.vertex == 0]
    nvk = len(vkinds)
    n_vdofs = mesh.n_vertices * nvk

    dof_kind = vkinds * mesh.n_vertices
    dof_points = [np.repeat(mesh.vertex_coords, nvk, axis=0)]
    bmask = [np.repeat(mesh.boundary_vertex_mask, nvk)]
    if any(d.kind == "face_nn" for d in elem.dofs):
        # faces are numbered axis by axis
        for k, count in enumerate(np.bincount(mesh.face_axis)):
            dof_kind += [("face_nn", k)] * int(count)
        dof_points.append(mesh.face_barycenters)
        bmask.append(mesh.boundary_face_mask)

    # local->global map; local ordering matches the reference DoF ordering
    half = mesh.cell_half_lengths
    idx = np.empty((mesh.n_cells, elem.n_dofs), dtype=np.int64)
    scal = np.ones((mesh.n_cells, elem.n_dofs))
    for li, dof in enumerate(elem.dofs):
        if dof.kind == "face_nn":
            idx[:, li] = n_vdofs + mesh.cell_faces[:, dof.axis, (dof.side + 1) // 2]
        else:
            offset = vkinds.index((dof.kind, dof.axis))
            idx[:, li] = mesh.cell_vertices[:, dof.vertex] * nvk + offset
        if dof.axis is not None:
            scal[:, li] = half[:, dof.axis] ** dof.order

    return FeSpace(
        mesh=mesh,
        family=family,
        element=elem,
        n_dofs=len(dof_kind),
        cell_dof_indices=idx,
        cell_scalings=scal,
        boundary_mask=np.concatenate(bmask),
        dof_kind=dof_kind,
        dof_points=np.concatenate(dof_points),
    )
