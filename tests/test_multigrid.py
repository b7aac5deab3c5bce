"""Mesh coarsening, prolongation and the V-cycle that preconditions CG."""

import numpy as np
import pytest
import scipy.sparse as sp

from test_solver import CUBICS, assert_factors_equal, reference_factors
from triharm.analysis import broken_norms, solve_case
from triharm.assembly import (
    BLOCK_POINTS, DATA_Q, apply_dirichlet, assemble, derivative_multiindices,
)
from triharm.cases import case_lshape2d, case_smooth2d, case_smooth3d, polynomial_case
from triharm.interpolation import boundary_values_from_case, canonical_interpolate
from triharm.mesh import BoxDomain, StructuredMesh, lshape_mesh, uniform_mesh
from triharm.multigrid import VCycle, coarsen, prolongation, solve_cg
from triharm.ordering import nested_dissection
from triharm.reference import ADINI_TYPE, MORLEY
from triharm.solver import solve_direct
from triharm.space import build_space

UNIT_SQUARE = BoxDomain((0.0, 0.0), (1.0, 1.0))
UNIT_CUBE = BoxDomain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
GRADED = np.array([0.0, 0.1, 0.3, 0.6, 1.0])


def masked_cube():
    # the 2x2x2 cube of test_mesh without the cell at grid position (1,1,1)
    active = np.ones((2, 2, 2), dtype=bool)
    active[1, 1, 1] = False
    return StructuredMesh([np.linspace(0.0, 1.0, 3)] * 3, active)


def cubic_case(dim):
    return polynomial_case(CUBICS[dim], UNIT_SQUARE if dim == 2 else UNIT_CUBE)


FINE_MESHES = {
    "square-4": lambda: uniform_mesh(UNIT_SQUARE, 4),
    "graded-square": lambda: StructuredMesh([GRADED, 1 - GRADED[::-1]],
                                            np.ones((4, 4), dtype=bool)),
    "lshape-2": lambda: lshape_mesh(2),
    "cube-4x2x2": lambda: uniform_mesh(UNIT_CUBE, (4, 2, 2)),
    "graded-cube": lambda: StructuredMesh([GRADED, np.linspace(0, 1, 3), GRADED],
                                          np.ones((4, 2, 4), dtype=bool)),
}


def test_coarsen_halves_every_axis():
    coarse, expected = coarsen(lshape_mesh(4)), lshape_mesh(2)
    np.testing.assert_array_equal(coarse.active, expected.active)
    for got, want in zip(coarse.axis_nodes, expected.axis_nodes):
        np.testing.assert_array_equal(got, want)
    assert coarsen(uniform_mesh(UNIT_CUBE, (4, 2, 2))).active.shape == (2, 1, 1)


@pytest.mark.parametrize("mesh", [
    lambda: uniform_mesh(UNIT_SQUARE, (3, 5)),
    masked_cube,
    lambda: lshape_mesh(1),
    lambda: uniform_mesh(UNIT_SQUARE, 1),
], ids=["square-3x5", "masked-cube", "lshape-1", "one-cell"])
def test_meshes_that_do_not_coarsen(mesh):
    assert coarsen(mesh()) is None


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE], ids=str)
@pytest.mark.parametrize("name", FINE_MESHES)
def test_prolongation_maps_the_coarse_interpolant_of_a_cubic_to_the_fine_one(name, family):
    # cubics lie in both shape spaces, so every fine cell reads its DoFs off
    # the same polynomial and the averages are exact
    mesh = FINE_MESHES[name]()
    case = cubic_case(mesh.dim)
    fine, coarse = build_space(mesh, family), build_space(coarsen(mesh), family)
    p = prolongation(fine, coarse)
    assert p.shape == (fine.n_dofs, coarse.n_dofs)
    np.testing.assert_allclose(p @ canonical_interpolate(coarse, case),
                               canonical_interpolate(fine, case), rtol=0, atol=1e-12)


def coo_prolongation(fine, coarse):
    """A plain build: each fine cell's DoF anchors from its own offset and
    ratio in the parent, one ``eval_shape`` per DoF multi-index over all
    cells, and the nonzero readings as COO triples summed by ``tocsr``."""
    elem = fine.element
    dim, nloc = elem.dim, elem.n_dofs
    fmesh, cmesh = fine.mesh, coarse.mesh
    parent = cmesh.cell_index[tuple((np.argwhere(fmesh.active) // 2).T)]
    half = cmesh.cell_half_lengths[parent]
    offset = (fmesh.cell_centers - cmesh.cell_centers[parent]) / half
    ratio = fmesh.cell_half_lengths / half
    anchors = np.array([d.anchor(dim) for d in elem.dofs], dtype=float)
    points = offset[:, None] + ratio[:, None] * anchors
    read = np.empty((fmesh.n_cells, nloc, nloc))
    for alpha in {d.alpha for d in elem.dofs}:
        local = [a for a, d in enumerate(elem.dofs) if d.alpha == alpha]
        values = elem.eval_shape(alpha, points[:, local].reshape(-1, dim))
        read[:, local] = values.reshape(fmesh.n_cells, len(local), nloc)
    scal = coarse.cell_scalings[parent]
    rows, cols = fine.cell_dof_indices, coarse.cell_dof_indices[parent]
    read *= scal[:, None, :] / scal[:, :, None]
    read /= np.bincount(rows.ravel(), minlength=fine.n_dofs)[rows][:, :, None]
    c, a, b = np.nonzero(read)
    p = sp.coo_matrix((read[c, a, b], (rows[c, a], cols[c, b])),
                      shape=(fine.n_dofs, coarse.n_dofs)).tocsr()
    p.eliminate_zeros()
    return p


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE], ids=str)
@pytest.mark.parametrize("mesh", [
    FINE_MESHES["square-4"], FINE_MESHES["lshape-2"], lambda: lshape_mesh(4),
    FINE_MESHES["cube-4x2x2"],
], ids=["square-4", "lshape-2", "lshape-4", "cube-4x2x2"])
def test_prolongation_matches_the_per_cell_build_bit_for_bit(mesh, family):
    # on dyadic meshes the group keys are every cell's exact offset and
    # ratio, and scatter lists each row's readings in the triples' order
    mesh = mesh()
    fine, coarse = build_space(mesh, family), build_space(coarsen(mesh), family)
    got, want = prolongation(fine, coarse), coo_prolongation(fine, coarse)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE], ids=str)
def test_prolongation_stores_no_readings_of_inexact_offsets(family):
    # at h = 1/28 a fine cell's own offset in its parent reads
    # 0.49999999999999994 for 0.5, and its anchors then read ~1e-16 where
    # the exact value is zero; at h = 1 the offsets are exact.  Per-cell
    # offsets stored 1.65x (Morley) and 2.93x (Adini) the entries there
    def nnz(domain):
        mesh = uniform_mesh(domain, 28)
        return prolongation(build_space(mesh, family),
                            build_space(coarsen(mesh), family)).nnz

    assert nnz(UNIT_SQUARE) <= 1.05 * nnz(BoxDomain((0.0, 0.0), (28.0, 28.0)))


def test_prolongation_peak_memory_per_fine_cell_map_entry(traced_peak):
    # 12 bytes per map entry for the CSR arrays with duplicates (an int32
    # index and a value), summed in place, plus one block and the copies
    # of the summed arrays: ~16; the per-cell readings and the int64 COO
    # triples of their nonzeros took ~24
    mesh = uniform_mesh(UNIT_CUBE, 8)
    fine, coarse = build_space(mesh, MORLEY), build_space(coarsen(mesh), MORLEY)
    peak = traced_peak(lambda: prolongation(fine, coarse))
    entries = mesh.n_cells * fine.element.n_dofs ** 2
    assert entries > 4 * BLOCK_POINTS    # filled in several blocks
    assert peak <= 18 * entries


def reduced_system(case, mesh, family):
    """(A on all DoFs, the reduced system) of the case on the mesh."""
    space = build_space(mesh, family)
    system = assemble(space, case.source)
    return system.matrix, apply_dirichlet(space, system.rhs,
                                          boundary_values_from_case(space, case))


def test_vcycle_is_symmetric_positive_definite():
    a, reduced = reduced_system(case_lshape2d(), lshape_mesh(4), ADINI_TYPE)
    vcycle = VCycle(reduced, a)
    assert [a.shape[0] for a in vcycle.matrices] == [165, 25]
    assert len(vcycle.exact.perm) == 0
    m = np.column_stack([vcycle(e) for e in np.eye(len(reduced.free))])
    np.testing.assert_allclose(m, m.T, rtol=0, atol=1e-12 * np.abs(m).max())
    assert np.linalg.eigvalsh((m + m.T) / 2)[0] > 0


@pytest.mark.parametrize("build", [
    lambda: reduced_system(case_smooth2d(), uniform_mesh(UNIT_SQUARE, (3, 5)), ADINI_TYPE),
    lambda: reduced_system(case_smooth3d(), masked_cube(), MORLEY),
    lambda: reduced_system(case_lshape2d(), lshape_mesh(1), MORLEY),
], ids=["square-3x5", "masked-cube", "lshape-1"])
def test_one_level_hierarchy_solves_exactly(build):
    a, reduced = build()
    assert len(reduced.free) > 0
    vcycle = VCycle(reduced, a)
    assert vcycle.prolongations == [] and len(vcycle.matrices) == 1
    xd, _ = solve_direct(reduced)
    xc, report = solve_cg(reduced, a, tol=1e-12)
    assert report.iterations == 1
    assert np.abs(xc - xd).max() <= 1e-7 * np.abs(xd).max()


@pytest.mark.parametrize("build, sizes", [
    (lambda: reduced_system(case_lshape2d(), lshape_mesh(4), MORLEY), [179, 31, 2]),
    (lambda: reduced_system(case_smooth2d(), uniform_mesh(UNIT_SQUARE, (3, 5)),
                            ADINI_TYPE), [40]),
    (lambda: reduced_system(case_lshape2d(), lshape_mesh(8), ADINI_TYPE),
     [805, 165, 25, 0]),
], ids=["lshape2d-morley-4", "square-3x5", "lshape2d-adini-8"])
def test_coarsest_level_is_ordered_by_its_own_space(build, sizes):
    # the levels between are Galerkin products; the coarsest is the matrix
    # assembled on the coarsest space, in nested-dissection order of its DoFs
    a, reduced = build()
    vcycle = VCycle(reduced, a)
    levels = len(vcycle.prolongations)
    free_dofs = [p.shape[0] for p in vcycle.prolongations] + [len(vcycle.exact.perm)]
    assert free_dofs == sizes
    # the smoothed levels; a one-level hierarchy keeps the operator of CG
    assert [a.shape[0] for a in vcycle.matrices] == sizes[:max(levels, 1)]
    free = reduced.free
    assert (vcycle.matrices[0] != a[free][:, free]).nnz == 0
    for p, fine, coarse in zip(vcycle.prolongations[:-1], vcycle.matrices,
                               vcycle.matrices[1:]):
        assert (coarse != p.T @ fine @ p).nnz == 0
    mesh = reduced.space.mesh
    while (coarser := coarsen(mesh)) is not None:
        mesh = coarser
    space = build_space(mesh, reduced.space.element.family)
    free = space.free_dofs()
    # each front factored on its own, from the rows of the assembled matrix
    assert_factors_equal(vcycle.exact, reference_factors(assemble(space, None).matrix,
                                                         space))
    perm, _ = nested_dissection(space.dof_points[free], mesh.axis_nodes)
    np.testing.assert_array_equal(vcycle.exact.perm, perm)


@pytest.mark.parametrize("case, family, levels", [
    (case_lshape2d(), ADINI_TYPE, (4, 8, 16, 32)),
    (case_smooth2d(), MORLEY, (8, 16, 32)),
    (case_smooth2d(), ADINI_TYPE, (8, 16, 32)),
    (case_smooth3d(), MORLEY, (4, 8)),
    (case_smooth3d(), ADINI_TYPE, (4, 8)),
], ids=["lshape2d-adini", "smooth2d-morley", "smooth2d-adini",
        "smooth3d-morley", "smooth3d-adini"])
def test_cg_iterations_barely_grow_under_refinement(case, family, levels):
    counts = []
    for n in levels:
        _, direct, _ = solve_case(case, family, n)
        _, viacg, report = solve_case(case, family, n, solver="cg", cg_tol=1e-12)
        assert np.abs(viacg - direct).max() <= 1e-7 * np.abs(direct).max()
        counts.append(report.iterations)
    assert max(counts) <= 50, counts
    # an h-dependent preconditioner multiplies the count at each refinement
    # (diagonal scaling: ~7.5x); the V-cycle adds a few iterations
    assert all(b - a <= 12 for a, b in zip(counts, counts[1:])), counts


@pytest.mark.parametrize("case, family, n", [
    (case_smooth2d(), MORLEY, 10),
    (case_smooth2d(), ADINI_TYPE, 14),
    (case_smooth2d(), ADINI_TYPE, 28),
    (case_lshape2d(), ADINI_TYPE, 14),
    (case_lshape2d(), MORLEY, 12),
], ids=["smooth2d-morley-10", "smooth2d-adini-14", "smooth2d-adini-28",
        "lshape2d-adini-14", "lshape2d-morley-12"])
def test_cg_solves_meshes_whose_coarsest_level_has_free_dofs(case, family, n):
    # 2^k m cells, m odd: the hierarchy stops at a level with free DoFs,
    # which only the assembled coarsest matrix lets nested dissection factor
    _, direct, _ = solve_case(case, family, n)
    _, viacg, report = solve_case(case, family, n, solver="cg", cg_tol=1e-12)
    assert report.iterations <= 50
    assert np.abs(viacg - direct).max() <= 1e-7 * np.abs(direct).max()


def test_cg_is_deterministic():
    case = case_lshape2d()
    (_, x1, r1), (_, x2, r2) = (solve_case(case, ADINI_TYPE, 16, solver="cg")
                                for _ in range(2))
    np.testing.assert_array_equal(x1, x2)
    assert r1.iterations == r2.iterations


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_graded_meshes_leave_the_table_cache_bounded(family, monkeypatch):
    # every cell of a graded mesh has its own size and offset in its
    # parent; the element still caches at most one table pair per
    # multi-index and Gauss rule, and a second mesh adds none
    case = case_smooth2d()
    elem = build_space(uniform_mesh(UNIT_SQUARE, 2), family).element
    monkeypatch.setattr(elem, "_table_cache", {})
    monkeypatch.setattr(elem, "_grammian_cache", {})   # which reads the tables
    keys = []
    for mesh in (FINE_MESHES["graded-square"](),
                 StructuredMesh([np.linspace(0.0, 1.0, 9) ** 3] * 2,
                                np.ones((8, 8), dtype=bool))):
        space = build_space(mesh, family)
        prolongation(space, build_space(coarsen(mesh), family))
        assemble(space, case.source)
        broken_norms(space, np.zeros(space.n_dofs), case)
        keys.append(list(elem._table_cache))
    n_alpha = sum(len(derivative_multiindices(2, m)) for m in range(4))
    rules = {elem.max_degree_per_axis() + 1, DATA_Q}
    assert keys[1] == keys[0]
    assert len(keys[0]) <= n_alpha * len(rules)
    assert {q for _, q, _ in keys[0]} == rules
