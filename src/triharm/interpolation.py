"""Interpolation operators onto the global finite element spaces.

``canonical_interpolate`` matches every DoF of a smooth function (needs its
derivatives).  ``quasi_interpolate`` needs point values only, taken through
``assembly.cell_moments`` on the open grids of ``assembly.cell_blocks``,
as the load is: cell-wise L2 projection onto the shape space followed by
averaging of shared DoFs over the incident cells, with an optional
homogeneous-boundary variant.  The mass matrix is the element's
``grammian`` of the values on the ``DATA_Q`` rule.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .assembly import DATA_Q, cell_moments, gauss_rule
from .cases import ManufacturedCase
from .space import FeSpace

__all__ = ["canonical_interpolate", "quasi_interpolate", "boundary_values_from_case"]


def canonical_interpolate(space: FeSpace, case: ManufacturedCase) -> np.ndarray:
    """Coefficient vector whose global DoFs equal the physical functionals
    of the exact solution: d^alpha at each DoF's anchor point.  Trailing
    axes of the case's values are kept: a case with one column per
    function (``cases.monomials_case``) gives one coefficient column each.
    """
    # group dofs by alpha so each derivative is evaluated in one call;
    # groups in order of first appearance, each group's dofs ascending
    alphas = {alpha: code for code, alpha in enumerate(dict.fromkeys(space.dof_alpha))}
    codes = np.fromiter(map(alphas.__getitem__, space.dof_alpha), dtype=np.int64,
                        count=space.n_dofs)
    groups = np.split(np.argsort(codes, kind="stable"),
                      np.cumsum(np.bincount(codes))[:-1])
    values = [case.derivative(alpha, space.dof_points[idx])
              for alpha, idx in zip(alphas, groups)]
    coeffs = np.empty((space.n_dofs,) + np.shape(values[0])[1:])
    for idx, v in zip(groups, values):
        coeffs[idx] = v
    return coeffs


def boundary_values_from_case(space: FeSpace, case: ManufacturedCase) -> np.ndarray:
    """Essential boundary data: canonical DoF values of the exact solution."""
    return canonical_interpolate(space, case)[space.boundary_dofs()]


def quasi_interpolate(space: FeSpace, u, zero_boundary: bool = False) -> np.ndarray:
    """Projection-averaging interpolant from point values of ``u``.

    ``u`` is called on the open grids of ``assembly.cell_blocks`` by
    ``assembly.cell_moments``, and may return anything that broadcasts to
    the full grid; a ``ManufacturedCase``'s ``u`` accepts it.  Per cell,
    solve the local mass system for the L2 projection onto the shape space;
    every shared DoF is then the plain average of the incident cells' DoF
    readings of their projections.  With ``zero_boundary`` the boundary
    DoFs are set to zero (the V_h0 variant).  The mass matrix is condition
    ~1e4-1e6, so the moments go through its Cholesky factor, never through
    an explicit inverse.
    """
    dim = space.mesh.dim
    # on the reference cell, the Jacobian cancels
    mass = space.element.grammian((0,) * dim, gauss_rule(DATA_Q, dim))
    try:
        factor = scipy.linalg.cho_factor(mass)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular local mass matrix") from exc

    # reference DoFs of the projections, one right-hand side per cell
    ref_coeffs = scipy.linalg.cho_solve(factor, cell_moments(space, u).T).T

    # physical DoF reading of the projection = ref coefficient / scaling
    readings = ref_coeffs / space.cell_scalings
    dofs = space.cell_dof_indices.ravel()
    coeffs = (np.bincount(dofs, readings.ravel(), space.n_dofs)
              / np.bincount(dofs, minlength=space.n_dofs))
    if zero_boundary:
        coeffs[space.boundary_mask] = 0.0
    return coeffs
