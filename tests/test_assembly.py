"""Quadrature, element matrices, and global assembly of the sixth-order form."""

import collections
import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from oracle import Polynomial, apply_dof, basis
from triharm import assembly, multigrid, solver
from triharm.assembly import (
    BLOCK_POINTS, RowBuilder, apply_dirichlet, apply_stiffness, assemble,
    derivative_multiindices, element_stiffness, gauss_rule, group_rows, reconstruct,
    stiffness_rows,
)
from triharm.cases import case_lshape2d, case_smooth2d, case_smooth3d, polynomial_case
from triharm.interpolation import (
    boundary_values_from_case, canonical_interpolate, quasi_interpolate,
)
from triharm.mesh import BoxDomain, StructuredMesh, lshape_mesh, uniform_mesh
from triharm.ordering import nested_dissection
from triharm.reference import ADINI_TYPE, MORLEY, Q1, build_dual_basis
from triharm.space import build_space

UNIT_SQUARE = BoxDomain((0.0, 0.0), (1.0, 1.0))
UNIT_CUBE = BoxDomain((0.0,) * 3, (1.0,) * 3)


def test_gauss_rule_polynomial_exactness():
    rule = gauss_rule(6, 1)
    x = rule.points[:, 0]
    for k in (0, 2, 5, 10, 11):
        exact = float(Polynomial.monomial(1, (k,)).integrate_box([-1], [1]))
        assert abs(rule.weights @ x ** k - exact) < 1e-14


def test_gauss_rule_tensor_weights():
    rule = gauss_rule(4, 3)
    assert rule.points.shape == (64, 3)
    assert rule.weights.sum() == pytest.approx(8.0)  # volume of [-1,1]^3
    # points are the tensor product of the nodes, last axis fastest
    grid = np.stack(np.meshgrid(*[rule.nodes] * 3, indexing="ij"), axis=-1)
    np.testing.assert_array_equal(rule.points, grid.reshape(-1, 3))


def test_gauss_rule_is_one_object_per_rule_and_caches_no_failure():
    rule = gauss_rule(5, 2)
    assert gauss_rule(5, 2) is rule
    assert gauss_rule(5, 3) is not rule and gauss_rule(4, 2) is not rule
    size = gauss_rule.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="at least one point"):
            gauss_rule(0, 2)
    assert gauss_rule.cache_info().currsize == size


def test_derivative_multiindices_order3():
    pairs = dict(derivative_multiindices(2, 3))
    assert pairs == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    assert sum(dict(derivative_multiindices(3, 3)).values()) == 27  # 3^3 tuples


def test_reference_stiffness_rank_and_quadratic_kernel():
    elem = build_dual_basis(MORLEY, 2)
    k = element_stiffness(np.ones(2), elem)
    assert k.shape == (16, 16)
    assert np.allclose(k, k.T, atol=1e-12)
    eig = np.linalg.eigvalsh(k)
    assert np.sum(np.abs(eig) < 1e-9 * np.abs(eig).max()) == 6  # dim P2
    # quadratics lie exactly in the kernel
    for exps in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        mono = Polynomial.monomial(2, exps)
        vec = np.array([float(apply_dof(d, mono, 2)) for d in elem.dofs])
        assert np.linalg.norm(k @ vec) < 1e-10 * np.abs(eig).max()


def exact_stiffness(h, elem):
    """The element matrix in rationals: sum over |alpha| = 3 of (3!/alpha!)
    times the chain-rule and Jacobian factors of h, times the moments
    int x^(m + m' - 2 alpha) over [-1, 1]^n with their derivative factors,
    between the integer numerators N on both sides, over d^2."""
    def moment(k):
        return Fraction(2, k + 1) if k % 2 == 0 else 0

    h = [Fraction(x) for x in h]
    mono = elem.monomials
    gram = np.zeros((len(mono), len(mono)), dtype=object)
    for alpha, mult in derivative_multiindices(elem.dim, 3):
        weight = mult * math.prod(hi ** (1 - 2 * ai) for hi, ai in zip(h, alpha))
        factors = [math.prod(map(math.perm, m, alpha)) for m in mono]
        for s, t in zip(*np.nonzero(np.outer(factors, factors))):
            gram[s, t] += weight * factors[s] * factors[t] * math.prod(
                moment(a + b - 2 * c) for a, b, c in zip(mono[s], mono[t], alpha))
    # over one common denominator the products stay in Python ints, and
    # int / int rounds once
    common = math.lcm(*(Fraction(g).denominator for g in gram.flat))
    numer = np.array(elem.coeffs, dtype=object)
    k = numer.T @ np.vectorize(lambda g: int(g * common), otypes=[object])(gram) @ numer
    return (k / (common * elem.denominator ** 2)).astype(float)


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
@pytest.mark.parametrize("n", [2, 3])
def test_element_stiffness_matches_the_exact_rational_matrix(family, n):
    elem = build_dual_basis(family, n)
    h = (0.5, 0.125, 0.25)[:n]
    got = element_stiffness(h, elem)
    want = exact_stiffness(h, elem)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_stiffness_scaling_law():
    # uniform scaling h -> s h multiplies the reference-DoF matrix by s^(n-6)
    elem = build_dual_basis(ADINI_TYPE, 2)
    k1 = element_stiffness(np.array([0.5, 0.5]), elem)
    k2 = element_stiffness(np.array([0.25, 0.25]), elem)
    s = 0.5
    np.testing.assert_allclose(k2, s ** (2 - 6) * k1, rtol=1e-12, atol=1e-10)


def test_unit_load_against_exact_integrals():
    # one Q1 cell on [-1,1]^2: the physical cell is the reference cell
    mesh = uniform_mesh(BoxDomain((-1.0, -1.0), (1.0, 1.0)), (1, 1))
    space = build_space(mesh, Q1)
    elem = space.element
    f = lambda pts: 1.0    # broadcast over the open grid of Gauss points
    system = assemble(space, f)
    load = system.rhs[space.cell_dof_indices[0]]
    # each Q1 basis function integrates to 1 over the reference cell
    np.testing.assert_allclose(load, np.ones(4), rtol=1e-13)
    exact = [float(phi.integrate_box([-1, -1], [1, 1])) for phi in basis(elem)]
    np.testing.assert_allclose(load, exact, rtol=1e-13)


def test_two_cell_global_assembly_structure():
    mesh = uniform_mesh(BoxDomain((0.0, 0.0), (2.0, 1.0)), (2, 1))
    space = build_space(mesh, MORLEY)
    assert space.n_dofs == 25  # 6 vertices x 3 + 7 faces
    system = assemble(space, None)
    a = system.matrix.toarray()
    assert a.shape == (25, 25)
    assert np.allclose(a, a.T, atol=1e-10 * np.abs(a).max())
    assert np.allclose(system.rhs, 0.0)


def test_global_quadratic_in_kernel():
    case = polynomial_case({(1, 0): 2, (0, 0): 1, (0, 1): -1, (2, 0): 1, (1, 1): 3,
                            (0, 2): -2}, UNIT_SQUARE)
    for family in (MORLEY, ADINI_TYPE):
        space = build_space(uniform_mesh(UNIT_SQUARE, (2, 2)), family)
        system = assemble(space, None)
        coeffs = canonical_interpolate(space, case)
        resid = system.matrix @ coeffs
        scale = abs(system.matrix).max() * np.abs(coeffs).max()
        assert np.abs(resid[space.free_dofs()]).max() < 1e-10 * scale


def test_dirichlet_elimination_readback():
    case = polynomial_case({(3, 0): 1}, UNIT_SQUARE)
    space = build_space(uniform_mesh(UNIT_SQUARE, (2, 2)), ADINI_TYPE)
    system = assemble(space, case.source)
    bvals = canonical_interpolate(space, case)[space.boundary_dofs()]
    reduced = apply_dirichlet(space, system.rhs, bvals)
    assert reduced.load.shape == (len(space.free_dofs()),)
    full = reconstruct(space, np.zeros(len(reduced.free)), reduced.boundary_values)
    np.testing.assert_array_equal(full[space.boundary_dofs()], bvals)


def test_apply_dirichlet_rejects_a_load_of_another_space():
    # the N=8 load on the N=4 space would solve another problem in silence
    case = case_smooth2d()
    space = build_space(case.mesh(4), ADINI_TYPE)
    g = boundary_values_from_case(space, case)
    for n in (8, 2):
        rhs = assembly.load_vector(build_space(case.mesh(n), ADINI_TYPE), case.source)
        with pytest.raises(ValueError, match=rf"load vector has shape \({len(rhs)},\), "
                                             rf"expected \({space.n_dofs},\)"):
            apply_dirichlet(space, rhs, g)
    with pytest.raises(ValueError, match=rf"boundary value vector .*\({len(g)},\)"):
        apply_dirichlet(space, np.zeros(space.n_dofs), g[1:])


def test_cell_groups_match_a_per_cell_loop():
    # three distinct half-lengths, one differing only below the rounding
    rng = np.random.default_rng(3)
    sizes = np.array([[0.25, 0.5], [0.125, 0.5], [0.25, 0.5 + 1e-15]])
    half = sizes[rng.integers(0, 3, size=40)]
    keys, group = group_rows(half)
    assert sorted({tuple(np.round(h, 14)) for h in half}) == list(map(tuple, keys))
    for h, g in zip(half, group):
        assert np.array_equal(keys[g], np.round(h, 14))


@pytest.mark.parametrize("power", [-30, -1, 30])
def test_cell_groups_scale_by_powers_of_two(power):
    # 14 digits of the largest value, not 14 decimals: a box scaled by
    # 2^power groups its cells alike, on keys scaled exactly
    half = np.random.default_rng(5).uniform(0.01, 1.0, size=(40, 3))
    half[::3] = 0.5 / 7   # non-dyadic, several rows agreeing exactly
    keys, group = group_rows(half)
    scaled_keys, scaled_group = group_rows(np.ldexp(half, power))
    assert np.array_equal(scaled_group, group)
    assert np.array_equal(scaled_keys, np.ldexp(keys, power))


def unique_groups(values):
    """``group_rows`` by ``np.unique(axis=0)``, as it was first written."""
    s = np.ldexp(1.0, np.frexp(np.abs(values).max())[1] - 1)
    keys, group = np.unique(np.round(values / s, 14) * s, axis=0, return_inverse=True)
    return keys, group.ravel()


def graded_square():
    """[0,1]^2 with x nodes t^1.5 and uniform y, 6 x 4 cells: 6 groups of 4
    equal rows, all tied on y."""
    return StructuredMesh([np.linspace(0.0, 1.0, 7) ** 1.5, np.linspace(0.0, 1.0, 5)],
                          np.ones((6, 4), dtype=bool))


@pytest.mark.parametrize("half", [
    lambda: uniform_mesh(UNIT_SQUARE, 6).cell_half_lengths,
    lambda: lshape_mesh(8).cell_half_lengths,
    lambda: graded_box().cell_half_lengths,
    lambda: graded_square().cell_half_lengths,
    lambda: np.ldexp(graded_square().cell_half_lengths, -30),
    lambda: np.ldexp(graded_square().cell_half_lengths, 30),
    # equal up to the rounding, in random order
    lambda: np.array([[0.25, 0.5], [0.125, 0.5], [0.25, 0.5 + 1e-15]])[
        np.random.default_rng(3).integers(0, 3, size=40)],
], ids=["square", "lshape", "graded-box", "graded-square", "graded-square-2^-30",
        "graded-square-2^30", "rounded"])
def test_cell_groups_match_np_unique(half):
    keys, group = group_rows(half())
    want_keys, want_group = unique_groups(half())
    assert keys.shape == want_keys.shape and keys.tobytes() == want_keys.tobytes()
    assert group.shape == want_group.shape and np.array_equal(group, want_group)


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
@pytest.mark.parametrize("n", [2, 3])
def test_batched_element_stiffness_matches_single_calls_bit_for_bit(family, n):
    elem = build_dual_basis(family, n)
    keys = np.random.default_rng(n).uniform(0.01, 1.0, size=(5, n))
    batch = element_stiffness(keys, elem)
    assert batch.shape == (5, elem.n_dofs, elem.n_dofs)
    for h, k in zip(keys, batch):
        assert np.array_equal(k, element_stiffness(h, elem))


def grammian_stiffness(h, elem, rule):
    """The element matrix as a sum of Grammians of eval_shape on ``rule``."""
    jac = float(np.prod(h))
    k = np.zeros((elem.n_dofs, elem.n_dofs))
    for alpha, mult in derivative_multiindices(elem.dim, 3):
        chain = float(np.prod(np.asarray(h) ** (-2 * np.array(alpha))))
        d = elem.eval_shape(alpha, rule.points)
        k += (mult * jac * chain) * (d.T @ (rule.weights[:, None] * d))
    return k


def coo_reference(space, f):
    """A plain build: int64 COO lists, one cell at a time in mesh order,
    concatenated once, each element matrix from the 6-point rule on the
    cell's half-lengths rounded to 14 digits of s = 2^floor(log2 max h);
    the load from the 8-point rule on each cell's own half-lengths, as one
    points-by-cells product summed by ``np.bincount``."""
    mesh, elem = space.mesh, space.element
    stiffness_rule, load_rule = gauss_rule(6, mesh.dim), gauss_rule(8, mesh.dim)
    nloc = elem.n_dofs
    rows, cols, vals = [], [], []
    wphi = load_rule.weights[:, None] * elem.eval_shape((0,) * elem.dim,
                                                        load_rule.points)
    s = 2.0 ** np.floor(np.log2(mesh.cell_half_lengths.max()))
    for h, gidx, scale in zip(np.round(mesh.cell_half_lengths / s, 14) * s,
                              space.cell_dof_indices, space.cell_scalings):
        k_ref = grammian_stiffness(h, elem, stiffness_rule)
        rows.append(np.repeat(gidx, nloc))
        cols.append(np.tile(gidx, nloc))
        vals.append((scale[:, None] * k_ref * scale[None, :]).ravel())
    half = mesh.cell_half_lengths
    pts = mesh.cell_centers + half * load_rule.points[:, None, :]   # [npts, nc, dim]
    fv = f(pts.reshape(-1, mesh.dim)).reshape(len(load_rule.weights), -1)
    fe = space.cell_scalings * (np.prod(half, axis=1)[:, None] * (fv.T @ wphi))
    rhs = np.bincount(space.cell_dof_indices.ravel(), fe.ravel(), space.n_dofs)
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.n_dofs, space.n_dofs)).tocsr()
    return mat, rhs


def masked_cube():
    """[0,1]^3 split 2x2x2 without its cell at grid position (1,1,1)."""
    active = np.ones((2, 2, 2), dtype=bool)
    active[1, 1, 1] = False
    return StructuredMesh([np.linspace(0.0, 1.0, 3)] * 3, active)


def graded_box():
    """[0,1]^3 with axis nodes t^1.5, 4 cells per axis: 64 distinct cells."""
    return StructuredMesh([np.linspace(0.0, 1.0, 5) ** 1.5] * 3,
                          np.ones((4, 4, 4), dtype=bool))


@pytest.mark.parametrize("mesh, family, f", [
    (lambda: lshape_mesh(8), ADINI_TYPE, case_smooth2d().source),
    (lambda: uniform_mesh(BoxDomain((0.0,) * 3, (1.0,) * 3), (4, 4, 4)), MORLEY,
     case_smooth3d().source),
    (masked_cube, ADINI_TYPE, case_smooth3d().source),
    (graded_box, MORLEY, case_smooth3d().source),
    (lambda: uniform_mesh(BoxDomain((0.0,) * 3, (1.0,) * 3), (8, 8, 8)), MORLEY,
     case_smooth3d().source),
    (lambda: lshape_mesh(16), ADINI_TYPE, case_smooth2d().source),
], ids=["lshape8-adini", "smooth3d4-morley", "masked-cube-adini", "graded-box-morley",
        "smooth3d8-morley", "lshape16-adini"])
def test_assembly_matches_the_list_build_bit_for_bit(mesh, family, f):
    # the streamed build gives each row the entries of the list build in
    # the same order, block after block, and keeps the explicit zeros the
    # sums produce
    m = mesh()
    space = build_space(m, family)
    system = assemble(space, f)
    want, rhs = coo_reference(space, f)
    got = system.matrix
    assert got.indices.dtype == np.int32
    assert got.nnz == want.nnz
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(system.rhs, rhs)


@pytest.mark.parametrize("mesh, family", [
    (lambda: uniform_mesh(UNIT_SQUARE, 8), MORLEY),
    (lambda: uniform_mesh(UNIT_CUBE, 4), ADINI_TYPE),
    (lambda: lshape_mesh(8), ADINI_TYPE),
    (graded_box, ADINI_TYPE),
], ids=["smooth2d8-morley", "smooth3d4-adini", "lshape8-adini", "graded-box-adini"])
def test_stiffness_rows_have_the_bits_of_the_assembled_rows(mesh, family, monkeypatch):
    # any rows, in any order, built alone or among others, are A's rows;
    # A itself is built in blocks of one row and in one block
    space = build_space(mesh(), family)
    want = assemble(space, None).matrix
    rows = stiffness_rows(space)
    rng = np.random.default_rng(11)
    for size in (1, 17, space.n_dofs // 3, space.n_dofs):
        r = rng.choice(space.n_dofs, size, replace=False)
        rows.release()      # a released builder builds its index again
        got, ref = rows(r), want[r]
        assert got.shape == ref.shape and got.indices.dtype == np.int32
        for name in ("indptr", "indices"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert np.array_equal(got.data.view(np.int64), ref.data.view(np.int64))
    for block_points in (1, want.nnz * 4):
        monkeypatch.setattr(assembly, "BLOCK_POINTS", block_points)
        again = assemble(space, None).matrix
        for name in ("indptr", "indices", "data"):
            got, ref = getattr(again, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name


def test_row_builder_leaves_a_matrix_of_sorted_rows_unsorted():
    # row r is SciPy's sort-and-sum of its own fill in mesh order, whatever
    # the other rows: rows 0-2 fill columns that never fall, with
    # duplicates that SciPy's unstable sort reorders, so a builder that
    # lets SciPy skip the sort of sorted rows sums them in another order;
    # the second matrix adds a row 3 whose columns fall
    rng = np.random.default_rng(5)
    ncell, nloc, extra = 40, 6, 4
    local = rng.standard_normal((3, nloc, nloc))
    group = rng.integers(0, 3, ncell + extra)
    sorted_rows = np.tile(np.arange(nloc) % 3, (ncell, 1))
    sorted_cols = np.repeat(np.arange(ncell)[:, None] // 4, nloc, axis=1)
    for k in (0, extra):
        rows = np.vstack([sorted_rows, np.full((k, nloc), 3)])
        cols = np.vstack([sorted_cols, np.tile(np.arange(nloc)[::-1], (k, 1))])
        g = group[:len(rows)]
        shape = (rows.max() + 1, ncell // 4)
        builder = RowBuilder(local, g, rows, cols, shape, lambda *_: None)
        order = np.argsort(rows, axis=None, kind="stable")
        fill = (local[g].reshape(-1, nloc)[order].ravel(),
                np.repeat(cols, nloc, axis=0)[order].ravel(),
                np.concatenate(([0], np.cumsum(np.bincount(rows.ravel()) * nloc))))
        want, unsorted = (sp.csr_matrix(fill, shape=shape) for _ in range(2))
        want.has_sorted_indices = False
        want.sum_duplicates()
        unsorted.has_sorted_indices = True
        unsorted.sum_duplicates()
        assert want[:3].data.tobytes() != unsorted[:3].data.tobytes()
        for r in ([0, 1, 2], [2], [2, 0], [3], [1, 3], [3, 0, 1, 2]):
            if max(r) < shape[0]:
                got, ref = builder(np.array(r)), want[r]
                assert np.array_equal(got.indptr, ref.indptr)
                assert np.array_equal(got.indices, ref.indices)
                assert got.data.tobytes() == ref.data.tobytes()
        got = builder.matrix()
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("mesh, family", [
    (lambda: lshape_mesh(8), ADINI_TYPE),
    (lambda: uniform_mesh(BoxDomain((0.0,) * 3, (1.0,) * 3), (4, 4, 4)), MORLEY),
], ids=["lshape8-adini", "smooth3d4-morley"])
def test_assembled_arrays_own_exactly_nnz_entries(mesh, family):
    # SciPy's sum_duplicates leaves views of the pre-sum arrays when more
    # than half of the entries remain, as they do on both meshes
    space = build_space(mesh(), family)
    matrix = assemble(space, None).matrix
    assert 2 * matrix.nnz > len(space.cell_dof_indices.ravel()) * space.element.n_dofs
    for name in ("data", "indices"):
        array = getattr(matrix, name)
        assert array.base is None and array.size == matrix.nnz, name


def test_assembly_peak_memory_per_element_entry(traced_peak):
    # one block of rows with duplicates, the summed blocks' copies (12
    # bytes per stored entry, 0.57 stored entries per element-matrix entry
    # here) and their concatenation: 13.3 bytes per element-matrix entry;
    # the CSR arrays of all entries with duplicates took ~15, COO triples
    # and the CSR that tocsr built from them ~29, the load of whole groups
    # of cells ~32, on dense [m, dim] points ~40, and the int64 list build ~68
    mesh = uniform_mesh(BoxDomain((0.0,) * 3, (1.0,) * 3), (8, 8, 8))
    space = build_space(mesh, MORLEY)
    f = case_smooth3d().source
    assemble(space, f)       # warm the element's monomial tables
    peak = traced_peak(lambda: assemble(space, f))
    entries = mesh.n_cells * space.element.n_dofs ** 2
    assert entries > 4 * BLOCK_POINTS    # streamed in several blocks
    assert peak <= 20 * entries


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_a_second_assembly_computes_no_grammian(family, monkeypatch):
    # the Grammians are cached on the element per multi-index; a copy of
    # the element starts with none, and computes each one once
    space = build_space(uniform_mesh(UNIT_SQUARE, (3, 2)), family)
    elem = dataclasses.replace(space.element)
    space = dataclasses.replace(space, element=elem)
    first = assemble(space, None).matrix
    assert len(elem._grammian_cache) == len(derivative_multiindices(2, 3))

    def refuse(*args):
        raise AssertionError("computed a Grammian")

    monkeypatch.setattr(elem, "monomial_table", refuse)
    second = assemble(space, None).matrix
    for a, b in ((first.indptr, second.indptr), (first.indices, second.indices),
                 (first.data.view(np.int64), second.data.view(np.int64))):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_assembly_and_quasi_interpolation_read_the_elements_grammians(family,
                                                                     monkeypatch):
    # the stiffness and the L2 mass are Grammians of the element, which a
    # copy computes once per (alpha, rule), each with one monomial_table
    # call; cell_moments reads the values' table once per quasi-interpolant
    space = build_space(uniform_mesh(UNIT_SQUARE, (3, 2)), family)
    elem = dataclasses.replace(space.element)
    space = dataclasses.replace(space, element=elem)
    calls = collections.Counter()
    table = elem.monomial_table

    def counted(deriv, rule):
        calls[tuple(deriv), rule.q] += 1
        return table(deriv, rule)

    monkeypatch.setattr(elem, "monomial_table", counted)
    u = case_smooth2d().u
    first = (assemble(space, None).matrix.data, quasi_interpolate(space, u))
    for _ in range(2):
        again = (assemble(space, None).matrix.data, quasi_interpolate(space, u))
        assert all(np.array_equal(a.view(np.int64), b.view(np.int64))
                   for a, b in zip(first, again))
    stiffness_q = elem.max_degree_per_axis() + 1
    want = {(alpha, stiffness_q): 1 for alpha, _ in derivative_multiindices(2, 3)}
    want[(0, 0), assembly.DATA_Q] = 1 + 3
    assert calls == want
    assert {(a, q) for a, q, _ in elem._grammian_cache} == set(want)


DIRICHLET_CASES = [
    (polynomial_case({(4, 0): 1}, UNIT_SQUARE), lambda: uniform_mesh(UNIT_SQUARE, (4, 4)),
     MORLEY),
    (case_lshape2d(), lambda: lshape_mesh(8), ADINI_TYPE),
    (case_lshape2d(), lambda: lshape_mesh(8), MORLEY),
    (case_smooth3d(), lambda: uniform_mesh(UNIT_CUBE, 4), ADINI_TYPE),
    (case_smooth3d(), graded_box, MORLEY),
    (case_smooth2d(), lambda: uniform_mesh(UNIT_SQUARE, 1), ADINI_TYPE),   # no free DoF
]


def test_dirichlet_reduction_matches_two_row_slices(monkeypatch):
    # each solver eliminates g where it reads A's free rows: the direct
    # solver as symbolic builds them, with a chunk per front and with the
    # default chunks, and CG from the assembled A.  The rows with no
    # boundary column give +0.0, so every row of the right-hand side keeps
    # the bits of the full product
    seen, solve, cg = [], solver.Cholesky.solve, multigrid.spla.cg
    monkeypatch.setattr(solver.Cholesky, "solve",
                        lambda self, b: seen.append(b.copy()) or solve(self, b))
    monkeypatch.setattr(multigrid.spla, "cg",
                        lambda a, b, **kw: seen.append(b.copy()) or cg(a, b, **kw))
    for case, mesh, family in DIRICHLET_CASES:
        space = build_space(mesh(), family)
        system = assemble(space, case.source)
        g = canonical_interpolate(space, case)[space.boundary_dofs()]
        a, free, bd = system.matrix, space.free_dofs(), space.boundary_dofs()
        g_full = np.zeros(space.n_dofs)
        g_full[bd] = g
        want = system.rhs[free] - (a @ g_full)[free]
        assert np.array_equal(want, system.rhs[free] - a[free][:, bd] @ g)
        reduced = apply_dirichlet(space, system.rhs, g)
        for block_points in (1, BLOCK_POINTS):
            monkeypatch.setattr(assembly, "BLOCK_POINTS", block_points)
            seen.clear()
            solver.solve_direct(reduced)    # its first solve is of the rhs
            assert seen[0].shape == want.shape
            assert np.array_equal(seen[0].view(np.int64), want.view(np.int64))
        if len(free):
            seen.clear()
            multigrid.solve_cg(reduced, a)
            assert np.array_equal(seen[0].view(np.int64), want.view(np.int64))


def test_dirichlet_elimination_allocates_no_matrix(traced_peak):
    # apply_dirichlet builds no row of A, and symbolic's products with g
    # add vectors, not rows, to its pass: measured 7.6 and 11.4 bytes per
    # DoF, where the free rows that share a cell with a boundary DoF hold
    # 5.2 blocks' entries
    case = case_smooth3d()
    space = build_space(case.mesh(8), ADINI_TYPE)
    rhs = assembly.load_vector(space, case.source)
    g = boundary_values_from_case(space, case)
    reduced = apply_dirichlet(space, rhs, g)
    peak = traced_peak(lambda: apply_dirichlet(space, rhs, g))
    free, a = space.free_dofs(), stiffness_rows(space)
    perm, fronts = nested_dissection(space.dof_points[free], space.mesh.axis_nodes)
    a.entries       # the row index, kept by the builder between the two passes
    alone = traced_peak(lambda: solver.symbolic(a, free[perm], fronts))
    with_g = traced_peak(lambda: solver.symbolic(a, free[perm], fronts, reduced.lifted()))
    idx = space.cell_dof_indices
    coupled = np.unique(idx[space.boundary_mask[idx].any(axis=1)])
    entries = np.bincount(idx.ravel())[coupled[~space.boundary_mask[coupled]]]
    assert entries.sum() * space.element.n_dofs > 4 * BLOCK_POINTS
    assert peak <= 2 * 8 * space.n_dofs
    assert with_g - alone <= 2 * 8 * space.n_dofs


@pytest.mark.parametrize("mesh, family", [
    (lambda: uniform_mesh(UNIT_SQUARE, 6), MORLEY),
    (lambda: uniform_mesh(UNIT_SQUARE, 6), ADINI_TYPE),
    (lambda: uniform_mesh(UNIT_CUBE, 4), MORLEY),
    (lambda: uniform_mesh(UNIT_CUBE, 4), ADINI_TYPE),
    (lambda: lshape_mesh(8), ADINI_TYPE),
    (graded_box, MORLEY),
    (graded_box, ADINI_TYPE),
    (lambda: uniform_mesh(UNIT_SQUARE, 1), ADINI_TYPE),
], ids=["square6-morley", "square6-adini", "cube4-morley", "cube4-adini",
        "lshape8-adini", "graded-box-morley", "graded-box-adini", "no-free-dof-adini"])
def test_apply_stiffness_matches_the_reduced_matrix(mesh, family, monkeypatch):
    space = build_space(mesh(), family)
    free = space.free_dofs()
    x = np.zeros(space.n_dofs)
    x[free] = np.random.default_rng(7).standard_normal(len(free))
    want = assemble(space, None).matrix[free][:, free] @ x[free]
    # one block, then blocks of 5 cells, the last one short
    assert space.mesh.n_cells % 5 != 0
    a = stiffness_rows(space)
    for block_points in (BLOCK_POINTS, 5 * space.element.n_dofs ** 2):
        monkeypatch.setattr(assembly, "BLOCK_POINTS", block_points)
        got = apply_stiffness(space, x, a)
        assert got.shape == (space.n_dofs,)
        assert np.linalg.norm(got[free] - want) <= 1e-13 * np.linalg.norm(want)


def test_apply_stiffness_gathers_one_block_of_element_matrices(traced_peak):
    # cube Adini N=8: the 512 cells' 56 x 56 element matrices are 12 MB as
    # one stack, a block's 1 MB; measured 1.22 MB in all
    space = build_space(uniform_mesh(UNIT_CUBE, 8), ADINI_TYPE)
    x, a = np.ones(space.n_dofs), stiffness_rows(space)
    assert space.mesh.n_cells * space.element.n_dofs ** 2 > 8 * BLOCK_POINTS
    assert traced_peak(lambda: apply_stiffness(space, x, a)) <= 2 * 8 * BLOCK_POINTS


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_apply_stiffness_runs_the_same_bytecode_for_any_number_of_groups(
        family, monkeypatch):
    # 64 cells in one group and in 64: a loop over the groups would run
    # more of its own bytecode on the graded box
    def opcodes(mesh):
        space = build_space(mesh, family)
        x, a = np.ones(space.n_dofs), stiffness_rows(space)
        count = [0]

        def local(frame, event, arg):
            count[0] += event == "opcode"
            return local

        def trace(frame, event, arg):
            frame.f_trace_opcodes = True
            return local
        sys.settrace(trace)
        try:
            apply_stiffness(space, x, a)
        finally:
            sys.settrace(None)
        return count[0]

    monkeypatch.setattr(assembly, "BLOCK_POINTS", 5 * 56 ** 2)
    uniform, graded = uniform_mesh(UNIT_CUBE, 4), graded_box()
    assert len(group_rows(graded.cell_half_lengths)[0]) == graded.n_cells == 64
    assert opcodes(graded) == opcodes(uniform)
