"""Structured meshes: entity counts, boundary detection, L-shape carving."""

import numpy as np
import pytest

from triharm.mesh import BoxDomain, StructuredMesh, lshape_mesh, uniform_mesh
from triharm.reference import ADINI_TYPE, MORLEY
from triharm.space import build_space


def test_unit_square_2x2_counts():
    mesh = uniform_mesh(BoxDomain((0.0, 0.0), (1.0, 1.0)), (2, 2))
    assert mesh.n_cells == 4
    assert mesh.n_vertices == 9
    assert mesh.n_faces == 12
    assert int(mesh.boundary_face_mask.sum()) == 8
    assert int((~mesh.boundary_face_mask).sum()) == 4
    # one interior vertex (the center)
    assert int((~mesh.boundary_vertex_mask).sum()) == 1


def test_unit_square_4x4_face_counts():
    mesh = uniform_mesh(BoxDomain((0.0, 0.0), (1.0, 1.0)), (4, 4))
    assert mesh.n_cells == 16
    assert int((~mesh.boundary_face_mask).sum()) == 24   # 2 N (N-1)
    assert int(mesh.boundary_face_mask.sum()) == 16      # 4 N


def test_unit_cube_2x2x2_vertices():
    mesh = uniform_mesh(BoxDomain((0.0,) * 3, (1.0,) * 3), (2, 2, 2))
    assert mesh.n_vertices == 27
    assert int(mesh.boundary_vertex_mask.sum()) == 26
    assert int((~mesh.boundary_vertex_mask).sum()) == 1


def test_lshape_smallest():
    mesh = lshape_mesh(1)
    assert mesh.n_cells == 3
    assert mesh.n_vertices == 8
    assert int(mesh.boundary_face_mask.sum()) == 8
    # every vertex is on the boundary, including the re-entrant corner
    assert mesh.boundary_vertex_mask.all()
    corner = np.where((np.abs(mesh.vertex_coords) < 1e-14).all(axis=1))[0]
    assert corner.size == 1


def test_lshape_counts_and_volume():
    for n in (1, 2, 4):
        mesh = lshape_mesh(n)
        assert mesh.n_cells == 3 * n * n
        volume = np.prod(2.0 * mesh.cell_half_lengths, axis=1).sum()
        assert volume == pytest.approx(3.0)


def test_lshape_reentrant_corner_is_boundary():
    mesh = lshape_mesh(2)
    vid = mesh.vertex_index[2, 2]  # grid node at the origin
    assert np.allclose(mesh.vertex_coords[vid], 0.0)
    assert mesh.boundary_vertex_mask[vid]
    # a neighbor inside the retained region is interior
    inner = mesh.vertex_index[1, 2]
    assert not mesh.boundary_vertex_mask[inner]


def test_cell_geometry_and_face_lookup():
    mesh = uniform_mesh(BoxDomain((0.0, 0.0), (2.0, 1.0)), (4, 2))
    assert np.allclose(mesh.cell_half_lengths, [0.25, 0.25])
    ci = mesh.cell_index[0, 0]
    assert np.allclose(mesh.cell_centers[ci], [0.25, 0.25])
    f_lo, f_hi = mesh.cell_faces[ci, 0]
    assert mesh.boundary_face_mask[f_lo]
    assert not mesh.boundary_face_mask[f_hi]
    assert ci in mesh.face_cells[f_hi]


def test_cell_vertex_ids_lexicographic_order():
    mesh = uniform_mesh(BoxDomain((0.0, 0.0), (1.0, 1.0)), (1, 1))
    coords = mesh.vertex_coords[mesh.cell_vertices[0]]
    assert np.allclose(coords, [[0, 0], [0, 1], [1, 0], [1, 1]])


def test_validation_errors():
    with pytest.raises(ValueError):
        BoxDomain((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        uniform_mesh(BoxDomain((0.0,), (1.0,)), (0,))
    with pytest.raises(ValueError):
        lshape_mesh(0)


@pytest.mark.parametrize("lo, hi", [
    ((0.0, np.nan), (1.0, 1.0)),
    ((0.0, 0.0), (np.inf, 1.0)),
    ((-np.inf, 0.0), (1.0, 1.0)),
    ((0.0, 0.0), (1.0, np.nan)),
])
def test_domain_bounds_must_be_finite(lo, hi):
    # NaN compares False with everything, so lo >= hi alone let it through
    with pytest.raises(ValueError, match="finite"):
        BoxDomain(lo, hi)


@pytest.mark.parametrize("make", [
    lambda n: uniform_mesh(BoxDomain((0.0, 0.0), (1.0, 1.0)), n),
    lambda n: uniform_mesh(BoxDomain((0.0, 0.0), (1.0, 1.0)), (2, n)),
    lshape_mesh,
])
def test_cell_counts_must_be_integers(make):
    # int() would build 2 cells for 2.5 and 2.7; a float 2.0 is no count either
    for n in (2.5, 2.7, 2.0):
        with pytest.raises(ValueError, match="integers"):
            make(n)
    assert make(np.int64(2)).n_cells == make(2).n_cells


@pytest.mark.parametrize("nodes", [
    [0.0, 0.5, 0.5, 1.0], [0.0, 0.75, 0.5, 1.0], [1.0, 0.5, 0.0],
    [0.0, np.nan, 1.0], [0.0, np.inf], [0.0],
], ids=["repeated", "decreasing", "reversed", "nan", "inf", "one-node"])
def test_malformed_axis_nodes_are_rejected(nodes):
    # they would give zero, negative or NaN half-lengths, and the solve
    # would fail late with a misleading SolverError
    good = np.linspace(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="axis 1 needs"):
        StructuredMesh([good, np.array(nodes)], np.ones((3, len(nodes) - 1), dtype=bool))


def test_active_mask_must_have_the_grid_shape():
    # a mask of the grid's size but another shape was reshaped silently
    nodes = np.linspace(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="active mask has shape"):
        StructuredMesh([nodes, nodes[:3]], np.ones((2, 3), dtype=bool))
    with pytest.raises(ValueError, match="active mask has shape"):
        StructuredMesh([nodes, nodes[:3]], np.ones(6, dtype=bool))



def test_masked_cube_with_one_cell_removed():
    # [0,1]^3 split 2x2x2 without the cell at grid position (1,1,1): the
    # centre node then touches the hole, so no vertex is interior
    nodes = np.linspace(0.0, 1.0, 3)
    active = np.ones((2, 2, 2), dtype=bool)
    active[1, 1, 1] = False
    mesh = StructuredMesh([nodes] * 3, active)
    assert (mesh.n_cells, mesh.n_vertices, mesh.n_faces) == (7, 26, 33)
    assert int(mesh.boundary_face_mask.sum()) == 24
    assert mesh.boundary_vertex_mask.all()
    assert mesh.cell_index[1, 1, 1] == -1
    signs = np.array([[-1, -1, -1], [-1, -1, 1], [-1, 1, -1], [-1, 1, 1],
                      [1, -1, -1], [1, -1, 1], [1, 1, -1], [1, 1, 1]])
    for ci in range(mesh.n_cells):
        expected = mesh.cell_centers[ci] + signs * mesh.cell_half_lengths[ci]
        assert np.array_equal(mesh.vertex_coords[mesh.cell_vertices[ci]], expected)
    morley = build_space(mesh, MORLEY)
    assert (morley.n_dofs, len(morley.free_dofs())) == (137, 9)
    adini = build_space(mesh, ADINI_TYPE)
    assert (adini.n_dofs, len(adini.free_dofs())) == (182, 0)
