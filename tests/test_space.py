"""Global DoF numbering, sharing, scalings, and boundary classification."""

import numpy as np

from triharm.mesh import BoxDomain, lshape_mesh, uniform_mesh
from triharm.reference import ADINI_TYPE, MORLEY, dof_set, shape_space
from triharm.space import build_space

UNIT_SQUARE = BoxDomain((0.0, 0.0), (1.0, 1.0))


def test_morley_single_cell_dof_count():
    space = build_space(uniform_mesh(UNIT_SQUARE, (1, 1)), MORLEY)
    assert space.n_dofs == 16  # 4 vertices x 3 + 4 faces


def test_adini_2x2_counts():
    space = build_space(uniform_mesh(UNIT_SQUARE, (2, 2)), ADINI_TYPE)
    assert space.n_dofs == 45            # 9 vertices x 5
    assert len(space.free_dofs()) == 5   # one interior vertex


def test_adini_4x4_free_count():
    space = build_space(uniform_mesh(UNIT_SQUARE, (4, 4)), ADINI_TYPE)
    assert len(space.free_dofs()) == 45  # 9 interior vertices x 5


def test_morley_2x2_free_count():
    space = build_space(uniform_mesh(UNIT_SQUARE, (2, 2)), MORLEY)
    # interior vertex (3 DoFs) + 4 interior faces
    assert len(space.free_dofs()) == 7


def test_shared_dofs_are_shared():
    space = build_space(uniform_mesh(UNIT_SQUARE, (2, 1)), MORLEY)
    d0, d1 = (set(row.tolist()) for row in space.cell_dof_indices)
    # two shared vertices x 3 DoFs + 1 shared face
    assert len(d0 & d1) == 7


def test_gradient_dof_scaling():
    # half-length 1/4 per axis: gradient DoFs scale by h = 1/4
    space = build_space(uniform_mesh(UNIT_SQUARE, (2, 2)), ADINI_TYPE)
    for ci in range(space.mesh.n_cells):
        for li, dof in enumerate(space.element.dofs):
            s = space.cell_scalings[ci, li]
            if sum(dof.alpha) == 0:
                assert s == 1.0
            elif sum(dof.alpha) == 1:
                assert s == 0.25
            else:  # pure second derivative
                assert s == 0.25 ** 2


def test_face_dof_scaling():
    # half-length 1/8: face normal-second DoFs scale by h^2 = 1/64
    space = build_space(uniform_mesh(UNIT_SQUARE, (4, 4)), MORLEY)
    for ci in range(space.mesh.n_cells):
        for li, dof in enumerate(space.element.dofs):
            if dof.face:
                assert space.cell_scalings[ci, li] == 1.0 / 64.0


def test_dof_points_match_entities():
    space = build_space(uniform_mesh(UNIT_SQUARE, (2, 2)), MORLEY)
    mesh = space.mesh
    for gi, alpha in enumerate(space.dof_alpha):
        pt = space.dof_points[gi]
        if sum(alpha) == 2:
            # Morley's second normal derivatives sit at face barycenters,
            # which lie on grid planes
            assert np.any(np.all(np.isclose(mesh.face_barycenters, pt), axis=1))
        else:
            assert np.any(np.all(np.isclose(mesh.vertex_coords, pt), axis=1))


def test_boundary_dofs_cover_face_and_vertex_dofs():
    space = build_space(uniform_mesh(UNIT_SQUARE, (2, 2)), MORLEY)
    boundary = set(space.boundary_dofs())
    free = set(space.free_dofs())
    assert boundary.isdisjoint(free)
    assert boundary | free == set(range(space.n_dofs))


def test_numbering_is_pinned():
    # literals recorded from the per-family implementation; the monomial
    # order fixes the basis coefficients, the DoF order the global numbering
    assert shape_space(ADINI_TYPE, 2) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1),
        (4, 0), (4, 1), (5, 0), (5, 1), (0, 2), (0, 3), (1, 2), (1, 3),
        (0, 4), (0, 5), (1, 4), (1, 5)]
    vertex = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)]
    assert [(d.alpha, d.vertex, d.face) for d in dof_set(ADINI_TYPE, 2)] == [
        (alpha, v, None) for v in range(4) for alpha in vertex]
    assert [(d.alpha, d.face) for d in dof_set(MORLEY, 2)[12:]] == [
        ((2, 0), (0, -1)), ((2, 0), (0, 1)), ((0, 2), (1, -1)), ((0, 2), (1, 1))]

    space = build_space(lshape_mesh(1), MORLEY)
    assert space.cell_dof_indices.tolist() == [
        [0, 1, 2, 3, 4, 5, 9, 10, 11, 12, 13, 14, 24, 26, 29, 30],
        [3, 4, 5, 6, 7, 8, 12, 13, 14, 15, 16, 17, 25, 27, 30, 31],
        [12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 27, 28, 32, 33]]
    assert space.boundary_dofs().tolist() == list(range(27)) + [28, 29, 31, 32, 33]
    assert space.dof_alpha == (
        [(0, 0), (1, 0), (0, 1)] * 8 + [(2, 0)] * 5 + [(0, 2)] * 5)
