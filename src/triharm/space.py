"""Global finite element spaces: DoF enumeration and cell-to-global maps.

Global coefficients store *physical* DoF values: each is a derivative
d^alpha in x at a vertex or at a face center.  The reference nodal basis
carries xi-derivatives, so the cell map stores a scaling h^alpha (the
product of h_i^alpha_i over the axes) per local DoF: the reference
coefficient of basis function a on a cell is  scaling_a * (physical DoF
value).
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
    element: ReferenceElement
    n_dofs: int
    cell_dof_indices: np.ndarray   # [n_cells, n_local] int32
    cell_scalings: np.ndarray      # [n_cells, n_local]
    boundary_mask: np.ndarray      # [n_dofs]
    dof_alpha: list[tuple[int, ...]]  # per global dof: derivative multi-index
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
    the family has face DoFs.
    """
    elem = build_dual_basis(family, mesh.dim)
    valphas = [d.alpha for d in elem.dofs if d.vertex == 0]
    nvk = len(valphas)
    n_vdofs = mesh.n_vertices * nvk

    dof_alpha = valphas * mesh.n_vertices
    dof_points = [np.repeat(mesh.vertex_coords, nvk, axis=0)]
    bmask = [np.repeat(mesh.boundary_vertex_mask, nvk)]
    if family.faces:
        # faces are numbered axis by axis
        face_alpha = {d.face[0]: d.alpha for d in elem.dofs if d.face}
        for k, count in enumerate(np.bincount(mesh.face_axis)):
            dof_alpha += [face_alpha[k]] * int(count)
        dof_points.append(mesh.face_barycenters)
        bmask.append(mesh.boundary_face_mask)

    # local->global map; local ordering matches the reference DoF ordering
    idx = np.empty((mesh.n_cells, elem.n_dofs), dtype=np.int32)
    for li, dof in enumerate(elem.dofs):
        if dof.face:
            axis, side = dof.face
            idx[:, li] = n_vdofs + mesh.cell_faces[:, axis, (side + 1) // 2]
        else:
            offset = valphas.index(dof.alpha)
            idx[:, li] = mesh.cell_vertices[:, dof.vertex] * nvk + offset
    # h^alpha = prod_i h_i^alpha_i; a scalar integer power squares exactly,
    # where an array of exponents would round through pow
    half = mesh.cell_half_lengths
    scal = np.column_stack([np.prod([half[:, i] ** a for i, a in enumerate(d.alpha)],
                                    axis=0) for d in elem.dofs])

    return FeSpace(
        mesh=mesh,
        element=elem,
        n_dofs=len(dof_alpha),
        cell_dof_indices=idx,
        cell_scalings=scal,
        boundary_mask=np.concatenate(bmask),
        dof_alpha=dof_alpha,
        dof_points=np.concatenate(dof_points),
    )
