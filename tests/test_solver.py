"""Direct and iterative solvers on assembled systems."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from triharm import assembly, multigrid, solver
from triharm.analysis import broken_norms, solve_case
from triharm.assembly import (
    ReducedSystem, apply_dirichlet, assemble, load_vector, reconstruct, stiffness_rows,
)
from triharm.cases import (
    ManufacturedCase, case_lshape2d, case_smooth2d, case_smooth3d, polynomial_case,
)
from triharm.interpolation import boundary_values_from_case
from triharm.mesh import BoxDomain, StructuredMesh
from triharm.multigrid import solve_cg
from triharm.reference import ADINI_TYPE, MORLEY
from triharm.ordering import LEAF_DOFS, Front, nested_dissection
from triharm.solver import (
    Cholesky, SolverError, _extend_add, cholesky, solve_direct, symbolic,
)
from triharm.space import build_space
from triharm.verify import verify_patch_test


def small_system() -> ReducedSystem:
    """smooth2d Adini on 3 x 5 cells: 40 free DoFs, a mesh that does not coarsen."""
    return assembled(case_smooth2d(), ADINI_TYPE, (3, 5))[1]


def stiffness(system: ReducedSystem):
    """The stiffness matrix A on all DoFs of the system's space."""
    return assemble(system.space, None).matrix


def free_block(system: ReducedSystem):
    """A CSR copy of A on the system's free DoFs."""
    free = system.free
    return stiffness(system)[free][:, free].tocsr()


def reduced_rhs(system: ReducedSystem):
    """The system's right-hand side ``load - A_FB g``, from the assembled A."""
    return system.load - (stiffness(system) @ system.lifted())[system.free]


class MatrixRows:
    """The rows of a CSR matrix, handed out as a row builder hands out A's."""

    def __init__(self, a):
        self.a, self.shape, self.entries = a, a.shape, np.diff(a.indptr)

    def __call__(self, r):
        return self.a[r]

    def release(self):
        pass


def with_matrix(system: ReducedSystem, edit, monkeypatch):
    """A, on all DoFs of the system's space, with ``edit(a, free)`` applied to
    a LIL copy and the system's free DoFs; the direct solver reads its rows
    through the row builder it makes."""
    a = stiffness(system).tolil()
    edit(a, system.free)
    a = a.tocsr()
    monkeypatch.setattr(solver, "stiffness_rows", lambda space: MatrixRows(a))
    return a


def test_direct_residual_on_a_small_assembled_system():
    system = small_system()
    x, report = solve_direct(system)
    assert report.method == "direct"
    assert report.relative_residual <= 1e-10
    b = reduced_rhs(system)
    resid = np.linalg.norm(free_block(system) @ x - b)
    assert resid <= 1e-10 * np.linalg.norm(b)


def test_cg_agrees_with_direct():
    system = small_system()
    xd, _ = solve_direct(system)
    xc, report = solve_cg(system, stiffness(system), tol=1e-12)
    assert report.method == "cg"
    assert report.iterations > 0
    np.testing.assert_allclose(xc, xd, rtol=1e-7, atol=1e-10)


def test_cg_rejects_indefinite_diagonal(monkeypatch):
    def negate(a, free):
        a[free[5], free[5]] = -a[free[5], free[5]]
    system = small_system()
    with pytest.raises(SolverError, match="diagonal"):
        solve_cg(system, with_matrix(system, negate, monkeypatch))


def test_cg_nonconvergence_raises(monkeypatch):
    # an assembled system: on a one-level hierarchy the V-cycle is an exact solve
    full, system = assembled(case_lshape2d(), ADINI_TYPE, 8)
    monkeypatch.setattr(multigrid, "CG_MAXITER", 2)
    with pytest.raises(SolverError, match="failed to converge"):
        solve_cg(system, full.matrix, tol=1e-14)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_cg_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    system = small_system()
    with pytest.raises(ValueError, match="tolerance"):
        solve_cg(system, stiffness(system), tol=tol)


def test_empty_system():
    # one cell: every DoF lies on the boundary
    full, empty = assembled(case_smooth2d(), ADINI_TYPE, 1)
    assert free_block(empty).shape == (0, 0) and len(empty.free) == 0
    assert empty.load.shape == (0,)
    for solve in (solve_direct, lambda system: solve_cg(system, full.matrix)):
        x, report = solve(empty)
        assert x.size == 0 and report.relative_residual == 0.0
    np.testing.assert_array_equal(reconstruct(empty.space, x, empty.boundary_values),
                                  empty.boundary_values)


@pytest.mark.parametrize("block", ["free", "boundary"])
def test_reconstruct_rejects_a_vector_of_another_length(block):
    # a length-1 vector would broadcast over the whole block
    system = small_system()
    x, g = np.ones(len(system.free)), system.boundary_values
    with pytest.raises(ValueError, match=r"shape \(1,\), expected"):
        reconstruct(system.space, *((x[:1], g) if block == "free" else (x, g[:1])))


def test_reconstruct_scatters_both_blocks():
    system = small_system()
    space = system.space
    x = np.arange(1.0, len(system.free) + 1)
    full = reconstruct(space, x, system.boundary_values)
    assert len(full) == space.n_dofs
    np.testing.assert_array_equal(full[space.free_dofs()], x)
    np.testing.assert_array_equal(full[space.boundary_dofs()], system.boundary_values)


def assembled(case, family, n):
    """(full system, reduced system) of one refinement of a manufactured case."""
    space = build_space(case.mesh(n), family)
    system = assemble(space, case.source)
    return system, apply_dirichlet(space, system.rhs, boundary_values_from_case(space, case))


class AlternatingCells(ManufacturedCase):
    """The case on ``n[i]`` cells along axis i whose widths alternate 1:2,
    starting with the short one on even axes and the long one on odd axes."""

    def mesh(self, n):
        nodes = []
        for i, cells in enumerate(n):
            widths = 1.0 + (np.arange(cells) + i) % 2
            t = np.concatenate(([0.0], np.cumsum(widths))) / widths.sum()
            nodes.append(self.domain.lo[i] + (self.domain.hi[i] - self.domain.lo[i]) * t)
        return StructuredMesh(nodes, np.ones(tuple(n), dtype=bool))


# x^3 - 2 x^2 y + x y + y^3 - 1 and x^3 - 2 x y z + y^2 z + z^3 - x + 1
CUBICS = {2: {(3, 0): 1, (2, 1): -2, (1, 1): 1, (0, 3): 1, (0, 0): -1},
          3: {(3, 0, 0): 1, (1, 1, 1): -2, (0, 2, 1): 1, (0, 0, 3): 1, (1, 0, 0): -1,
              (0, 0, 0): 1}}


def alternating_cubic(dim):
    """A cubic on a box with a different length per axis, on AlternatingCells."""
    box = ((0.0, 0.0), (1.0, 0.7)) if dim == 2 else ((0.0, 0.0, 0.0), (1.0, 0.8, 1.3))
    case = polynomial_case(CUBICS[dim], BoxDomain(*box))
    return AlternatingCells(**{f.name: getattr(case, f.name)
                               for f in dataclasses.fields(case)})


def masked_cube_system():
    # the 2x2x2 cube of test_mesh without the cell at grid position (1,1,1)
    nodes = np.linspace(0.0, 1.0, 3)
    active = np.ones((2, 2, 2), dtype=bool)
    active[1, 1, 1] = False
    space = build_space(StructuredMesh([nodes] * 3, active), MORLEY)
    system = assemble(space, None)
    return system, apply_dirichlet(space, system.rhs, np.zeros(len(space.boundary_dofs())))


def free_dissection(reduced):
    """``nested_dissection`` of the free DoFs, as ``solve_direct`` orders them."""
    space = reduced.space
    return nested_dissection(space.dof_points[reduced.free], space.mesh.axis_nodes)


def assert_separators_decouple(matrix, points, axis_nodes):
    """No entry of ``matrix`` couples the two subtrees under any separator."""
    perm, fronts = nested_dissection(points, axis_nodes)
    matrix, first, separators = matrix.tocsr(), [], 0
    for f in fronts:
        # a subtree's DoFs run from its first leaf's start to its root's stop
        first.append(first[f.children[0]] if f.children else f.start)
        if f.children:
            left, right = (perm[first[c]:fronts[c].stop] for c in f.children)
            assert matrix[left][:, right].nnz == 0
            separators += 1
    assert separators or len(points) < LEAF_DOFS


@pytest.mark.parametrize("build", [
    lambda: assembled(case_lshape2d(), ADINI_TYPE, 8),
    lambda: assembled(case_smooth3d(), MORLEY, 4),
    masked_cube_system,
], ids=["lshape2d-adini-8", "smooth3d-morley-4", "masked-cube-morley"])
def test_separators_decouple_their_subtrees(build):
    system, reduced = build()
    space = system.space
    # the dissection of the free DoFs that solve_direct orders, and of all DoFs
    assert_separators_decouple(free_block(reduced), space.dof_points[reduced.free],
                               space.mesh.axis_nodes)
    assert_separators_decouple(system.matrix, space.dof_points,
                               space.mesh.axis_nodes)


@pytest.mark.parametrize("build", [
    lambda: assembled(case_lshape2d(), ADINI_TYPE, 8),
    lambda: assembled(case_smooth3d(), MORLEY, 4),
    lambda: assembled(alternating_cubic(2), ADINI_TYPE, (8, 6)),
    lambda: assembled(alternating_cubic(3), MORLEY, (4, 6, 4)),
], ids=["lshape2d-adini-8", "smooth3d-morley-4", "alternating2d-adini-8x6",
        "alternating3d-morley-4x6x4"])
def test_assembled_matrix_is_symmetric_to_rounding(build):
    # the reference Grammians are symmetric only up to rounding (measured:
    # 2.9e-18 to 1.3e-16 relative); symbolic reads each column of L off a row
    a = build()[0].matrix
    assert abs(a - a.T).max() <= 1e-14 * abs(a).max()


@pytest.mark.parametrize("case, family, n", [
    (case_lshape2d(), ADINI_TYPE, 8),
    (case_smooth3d(), MORLEY, 4),
])
def test_nested_dissection_is_a_permutation_of_the_free_dofs(case, family, n):
    _, reduced = assembled(case, family, n)
    perm, _ = free_dissection(reduced)
    np.testing.assert_array_equal(np.sort(perm), np.arange(len(reduced.free)))


@pytest.mark.parametrize("build", [
    lambda: assembled(case_lshape2d(), ADINI_TYPE, 8),
    lambda: assembled(case_smooth3d(), MORLEY, 4),
    masked_cube_system,
    lambda: assembled(alternating_cubic(2), ADINI_TYPE, (8, 6)),
    lambda: assembled(alternating_cubic(3), MORLEY, (4, 6, 4)),
], ids=["lshape2d-adini-8", "smooth3d-morley-4", "masked-cube-morley",
        "alternating2d-adini-8x6", "alternating3d-morley-4x6x4"])
def test_fronts_form_an_elimination_tree(build):
    system, reduced = build()
    n = len(reduced.free)
    perm, fronts = free_dissection(reduced)
    # the fronts' ranges cover 0..n-1 once, in list order
    assert [f.start for f in fronts] == [0] + [f.stop for f in fronts[:-1]]
    assert fronts[-1].stop == n
    # postorder: every front but the last has one parent, and each front's
    # subtree is the run of fronts that ends with it
    size = []
    for i, f in enumerate(fronts):
        end = i
        for c in reversed(f.children):
            assert c == end - 1
            end -= size[c]
        size.append(i - end + 1)
    assert size[-1] == len(fronts)

    dofs = reduced.free[perm]
    rows, runs, entries, classes, _ = symbolic(stiffness_rows(reduced.space), dofs,
                                               fronts)
    assert len(rows[-1]) == 0
    dense = system.matrix.toarray()[dofs][:, dofs]
    lower = np.zeros_like(dense)

    def front_rows(i):
        return np.concatenate([np.arange(fronts[i].start, fronts[i].stop), rows[i]])

    for i, f in enumerate(fronts):
        # the entries of the front's columns lie in its rows, and are A's; a
        # repeat's are its class's
        k, (pos, val) = f.stop - f.start, entries[classes[i]]
        r, c = np.divmod(pos, k) if k else (pos, pos)
        lower[front_rows(i)[r], f.start + c] = val
        for c in f.children:
            # every child's update rows lie in the front, and its runs map
            # them onto the front's numbering
            assert np.all(rows[c] >= f.start)
            assert np.isin(rows[c], front_rows(i)).all()
            mapped = np.concatenate([np.arange(at, at + hi - lo)
                                     for at, lo, hi in runs[c]])
            np.testing.assert_array_equal(front_rows(i)[mapped], rows[c])
            assert all(hi0 == lo1 for (_, _, hi0), (_, lo1, _)
                       in zip(runs[c], runs[c][1:]))
    # column j of L is read off row perm[j] of A (A is symmetric up to rounding)
    np.testing.assert_array_equal(lower, np.tril(dense.T))


@pytest.mark.parametrize("case, family, n", [
    (case_lshape2d(), ADINI_TYPE, 8),
    (case_smooth3d(), MORLEY, 4),
    (case_smooth3d(), ADINI_TYPE, 4),
    (alternating_cubic(2), MORLEY, (8, 6)),
    (alternating_cubic(3), ADINI_TYPE, (4, 4, 4)),
])
def test_direct_agrees_with_colamd_lu(case, family, n):
    _, reduced = assembled(case, family, n)
    x, report = solve_direct(reduced)
    assert report.ordering == "nested-dissection"
    assert 0 < report.factor_seconds <= report.seconds
    lu = spla.splu(free_block(reduced).tocsc(), permc_spec="COLAMD")
    reference = lu.solve(reduced_rhs(reduced))
    err = np.abs(x - reference).max() / np.abs(reference).max()
    assert err <= 1e-10


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_direct_solve_reproduces_a_cubic_on_unequal_cells(family):
    # cubics lie in both spaces, so the discrete solution is the cubic itself
    case = alternating_cubic(2)
    space = build_space(case.mesh((8, 6)), family)
    assert len(np.unique(np.round(space.mesh.cell_half_lengths, 12), axis=0)) == 4
    system = apply_dirichlet(space, load_vector(space, case.source),
                             boundary_values_from_case(space, case))
    x, _ = solve_direct(system)
    assert max(broken_norms(space, reconstruct(space, x, system.boundary_values),
                            case)) <= 1e-10


def test_solve_report_counts_the_fronts():
    _, reduced = assembled(case_lshape2d(), ADINI_TYPE, 8)
    _, report = solve_direct(reduced)
    _, fronts = free_dissection(reduced)
    factor = cholesky(reduced.space)
    assert report.fronts == len(fronts) == len(factor.fronts) > 1
    _, report = solve_direct(small_system())
    assert report.fronts == 1


SHARING = [
    (case_smooth2d(), ADINI_TYPE, 32, 127, 71),
    (case_lshape2d(), ADINI_TYPE, 16, 89, 62),
    (case_smooth3d(), MORLEY, 8, 63, 63),
]
SHARING_IDS = ["smooth2d-adini-32", "lshape2d-adini-16", "smooth3d-morley-8"]


def reference_classes(fronts, rows, runs, entries):
    """Each front's class, by the rule ``symbolic`` applies as it builds
    the fronts, from every front's rows, runs and entries: the first
    earlier class with equal ``k`` and ``m``, children of equal classes
    with equal runs, in order, and the same entries at the same positions,
    bit for bit (so that 0.0 and -0.0 differ)."""
    def repeats(f, r):
        (pos, val), (ref_pos, ref_val) = entries[f], entries[r]
        return ((fronts[f].stop - fronts[f].start, len(rows[f]))
                == (fronts[r].stop - fronts[r].start, len(rows[r]))
                and [(classes[c], runs[c]) for c in fronts[f].children]
                == [(classes[c], runs[c]) for c in fronts[r].children]
                and np.array_equal(pos, ref_pos)
                and np.array_equal(val.view(np.int64), ref_val.view(np.int64)))

    classes = []
    for f in range(len(fronts)):
        classes.append(next((r for r in sorted(set(classes)) if repeats(f, r)), f))
    return classes


def reference_factors(matrix, space):
    """``(factors, classes)`` of the matrix A on all DoFs of ``space``:
    ``(L11, L21)`` of every front, each factored on its own (the numeric
    loop of ``cholesky`` without classes, the update matrices kept), and
    ``reference_classes``, both from ``one_pass_symbolic`` of A's free
    block."""
    free = space.free_dofs()
    perm, fronts = nested_dissection(space.dof_points[free], space.mesh.axis_nodes)
    rows, runs, entries = one_pass_symbolic(matrix[free][:, free], perm, fronts)
    factors, updates = [], []
    for front, upd, (pos, val) in zip(fronts, rows, entries):
        k, m = front.stop - front.start, len(upd)
        l11, l21, f22 = np.zeros((k, k)), np.zeros((m, k)), np.zeros((m, m))
        low = pos < k * k
        l11.reshape(-1)[pos[low]] = val[low]
        l21.reshape(-1)[pos[~low] - k * k] = val[~low]
        for c in front.children:
            _extend_add(l11, l21, f22, updates[c], runs[c], True)
        if k:
            assert lapack.dpotrf(l11.T, lower=0, clean=0, overwrite_a=1)[1] == 0
            if m:
                blas.dtrsm(1.0, l11.T, l21.T, trans_a=1, overwrite_b=1)
                blas.dsyrk(-1.0, l21.T, c=f22.T, trans=1, overwrite_c=1)
        for c in front.children:
            _extend_add(l11, l21, f22, updates[c], runs[c], False)
        factors.append((l11[np.tri(k, dtype=bool)], l21))
        updates.append(f22)
    return factors, reference_classes(fronts, rows, runs, entries)


def assert_factors_equal(factor, want):
    """``factor`` has the blocks and classes of ``reference_factors``."""
    factors, classes = want
    assert factor.classes == classes
    assert len(factor.factors) == len(factors)
    for got, ref in zip(factor.factors, factors):
        for a, b in zip(got, ref):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case, family, n, fronts, factored", SHARING, ids=SHARING_IDS)
def test_solve_report_counts_the_factored_fronts(case, family, n, fronts, factored):
    _, reduced = assembled(case, family, n)
    _, report = solve_direct(reduced)
    assert (report.fronts, report.factored) == (fronts, factored)


@pytest.mark.parametrize("case, family, n, fronts, factored", SHARING, ids=SHARING_IDS)
def test_shared_fronts_equal_a_per_front_factorization_bit_for_bit(
        case, family, n, fronts, factored):
    _, reduced = assembled(case, family, n)
    factor = cholesky(reduced.space)
    assert_factors_equal(factor, reference_factors(stiffness(reduced), reduced.space))
    # a repeat shares its class's blocks, and fill still counts them per front
    for f, c in enumerate(factor.classes):
        assert c <= f and factor.classes[c] == c
        assert factor.factors[f] is factor.factors[c]
    assert (len(factor.fronts), len(set(factor.classes))) == (fronts, factored)
    assert factor.factored == factored
    assert factor.fill == sum(a.size for pair in factor.factors for a in pair)


def test_a_nudged_value_splits_its_front_and_the_ancestors_off(monkeypatch):
    system, reduced = assembled(case_smooth2d(), ADINI_TYPE, 32)
    factor = cholesky(reduced.space)
    fronts, classes = factor.fronts, factor.classes
    parent = {c: f for f, front in enumerate(fronts) for c in front.children}
    # a repeated front with columns, and the fronts on its path to the root
    front = next(f for f, c in enumerate(classes)
                 if c != f and fronts[f].stop > fronts[f].start)
    path = [front]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    dof = reduced.free[factor.perm[fronts[front].start]]
    matrix = system.matrix.copy()
    matrix[dof, dof] = np.nextafter(matrix[dof, dof], np.inf)
    monkeypatch.setattr(solver, "stiffness_rows", lambda space: MatrixRows(matrix))
    nudged = cholesky(reduced.space)
    for f in path:
        assert nudged.classes.count(f) == 1 and nudged.classes[f] == f
    assert nudged.factored > factor.factored
    assert_factors_equal(nudged, reference_factors(matrix, reduced.space))


def test_distinct_blocks_of_l_are_smaller_than_the_fill():
    # repeats hold 39% of L at smooth2d Adini N=32; only one copy is stored
    _, reduced = assembled(case_smooth2d(), ADINI_TYPE, 32)
    factor = cholesky(reduced.space)
    stored = {id(a): a.nbytes for pair in factor.factors for a in pair}
    assert sum(stored.values()) < 0.7 * factor.fill * 8


def test_nested_dissection_fills_less_than_colamd():
    _, reduced = assembled(case_smooth3d(), MORLEY, 8)
    _, report = solve_direct(reduced)
    lu = spla.splu(free_block(reduced).tocsc(), permc_spec="COLAMD")
    # the Cholesky factor L alone against the L half of COLAMD's LU
    assert 0 < report.fill < lu.L.nnz


def test_cg_report_has_no_factorization():
    system = small_system()
    _, report = solve_cg(system, stiffness(system))
    assert (report.ordering, report.fill, report.factor_seconds, report.fronts,
            report.factored, report.precision, report.corrections) == (None,) * 7


def test_singular_matrix_raises(monkeypatch):
    def drop(a, free):
        a[free[7], :] = 0.0
        a[:, free[7]] = 0.0
    system = small_system()
    with_matrix(system, drop, monkeypatch)
    with pytest.raises(SolverError):
        solve_direct(system)


@pytest.mark.parametrize("extra", [1, -1], ids=["longer", "shorter"])
def test_cholesky_solve_rejects_a_right_hand_side_of_another_length(extra):
    system = small_system()
    n = len(system.free)
    with pytest.raises(ValueError, match=rf"shape \({n + extra},\), expected \({n},\)"):
        cholesky(system.space).solve(np.ones(n + extra))


def test_residual_above_the_bound_raises(monkeypatch):
    # a factor whose solutions are off by 1e-6 relative leaves a residual
    # of about 1e-6: far above 1e-9, far below anything a pivot would show
    exact = Cholesky.solve
    monkeypatch.setattr(Cholesky, "solve",
                        lambda self, b: exact(self, b) * (1 + 1e-6))
    system = small_system()
    b = reduced_rhs(system)
    x = cholesky(system.space).solve(b)
    res = np.linalg.norm(free_block(system) @ x - b) / np.linalg.norm(b)
    assert 1e-9 < res < 1e-3
    with pytest.raises(SolverError, match="residual"):
        solve_direct(system)


def test_indefinite_matrix_fails_in_the_cholesky(monkeypatch):
    # the earlier pivots are those of the SPD matrix; the pivot of the
    # negated diagonal entry is at most that entry
    system = small_system()
    perm, _ = free_dissection(system)
    dof = 11
    pivot = int(np.flatnonzero(perm == dof)[0])

    def negate(a, free):
        a[free[dof], free[dof]] = -a[free[dof], free[dof]]
    with_matrix(system, negate, monkeypatch)
    with pytest.raises(SolverError, match=rf"pivot {pivot} \(free DoF {dof}\) is not "
                       "positive") as err:
        solve_direct(system)
    assert "residual" not in str(err.value)


def test_symbolic_rejects_a_pattern_that_crosses_a_separator():
    # the root separator S declared a leaf beside the first half L, and
    # numbered between L and the second half: L's update rows then lie in S,
    # before the range of the front that takes L as a child
    _, reduced = assembled(case_smooth2d(), ADINI_TYPE, 8)
    perm, fronts = free_dissection(reduced)
    root = fronts[-1]
    first = []
    for f in fronts:
        first.append(first[f.children[0]] if f.children else f.start)
    left, right = (perm[first[c]:fronts[c].stop] for c in root.children)
    sep = perm[root.start:root.stop]
    order = np.concatenate([left, sep, right])
    crossing = [Front(0, len(left)), Front(len(left), len(left) + len(sep)),
                Front(len(left) + len(sep), len(order), (0, 1))]
    rows = stiffness_rows(reduced.space)
    symbolic(rows, reduced.free[perm], fronts)      # the true tree passes
    with pytest.raises(ValueError, match=r"front 2 .* row \d+ from child 0.*crosses a separator"):
        symbolic(rows, reduced.free[order], crossing)


def one_pass_symbolic(a, perm, fronts):
    """``symbolic``'s rows, runs and entries from one permuted copy of all of A."""
    n, nf = len(perm), len(fronts)
    inverse = np.empty(n, dtype=np.int32)
    inverse[perm] = np.arange(n)
    b = a.tocsr()[perm]
    b.sum_duplicates()
    i = inverse[b.indices]
    j = np.repeat(np.arange(n, dtype=np.int32), np.diff(b.indptr))
    keep = i >= j
    i, j, values = i[keep], j[keep], b.data[keep]
    bounds = np.searchsorted(j, [f.start for f in fronts]).tolist() + [len(j)]
    slot, rows, entries, parent = np.empty(n, dtype=np.intp), [], [], np.full(nf, -1)
    at = [np.zeros(0, dtype=np.intp)] * nf
    for f, front in enumerate(fronts):
        k, own = front.stop - front.start, i[bounds[f]:bounds[f + 1]]
        x = np.unique(np.concatenate([own[own >= front.stop]] + [
            rows[c][rows[c] >= front.stop] for c in front.children]))
        rows.append(x)
        slot[front.start:front.stop] = np.arange(k)
        slot[x] = np.arange(k, k + len(x))
        entries.append((slot[own] * k + j[bounds[f]:bounds[f + 1]] - front.start,
                        values[bounds[f]:bounds[f + 1]]))
        for c in front.children:
            at[c], parent[c] = slot[rows[c]], f
    runs = [[] for _ in fronts]
    for c, f in enumerate(parent.tolist()):
        for t, row in enumerate(at[c].tolist()):
            k = fronts[f].stop - fronts[f].start
            if t and row == at[c][t - 1] + 1 and row != k:
                at_, lo, _ = runs[c][-1]
                runs[c][-1] = (at_, lo, t + 1)
            else:
                runs[c].append((row, t, t + 1))
    return rows, runs, entries


@pytest.mark.parametrize("build", [
    lambda: assembled(case_lshape2d(), ADINI_TYPE, 16),
    lambda: assembled(case_smooth3d(), MORLEY, 4),
], ids=["lshape2d-adini-16", "smooth3d-morley-4"])
def test_symbolic_in_chunks_matches_one_pass(build, monkeypatch):
    # the reference reads a copy of the free block; symbolic builds A's rows
    _, reduced = build()
    perm, fronts = free_dissection(reduced)
    want = one_pass_symbolic(free_block(reduced), perm, fronts)
    classes = reference_classes(fronts, *want)
    # a chunk per front, chunks of a few fronts, one chunk of all of them
    a = stiffness_rows(reduced.space)
    total = int(a.entries.sum())
    for block_points in (1, total // 5, total + 1):
        monkeypatch.setattr(assembly, "BLOCK_POINTS", block_points)
        rows, runs, entries, got_classes, _ = symbolic(a, reduced.free[perm], fronts)
        assert len(rows) == len(want[0]) and runs == want[1]
        assert got_classes == classes
        for got, ref in zip(rows, want[0]):
            np.testing.assert_array_equal(got, ref)
        # a repeat holds no entries: its class's are its own
        for f, c in enumerate(classes):
            assert (entries[f] is None) == (c != f)
            if c == f:
                (pos, val), (ref_pos, ref_val) = entries[f], want[2][f]
                assert pos.dtype == np.int32
                np.testing.assert_array_equal(pos, ref_pos)
                assert val.tobytes() == ref_val.tobytes()


def test_symbolic_peak_memory_per_stored_lower_entry(traced_peak):
    # 12 bytes per lower entry kept (an int32 position and a value) plus one
    # chunk of rows and the row builder: 40 at smooth3d Morley N=8 (20 at
    # N=16), where reading the chunks off an assembled A took 39 (18) and a
    # permuted copy of the whole matrix and int64 positions 58
    _, reduced = assembled(case_smooth3d(), MORLEY, 8)
    perm, fronts = free_dissection(reduced)
    dofs, out, space = reduced.free[perm], [], reduced.space
    peak = traced_peak(lambda: out.append(symbolic(stiffness_rows(space), dofs, fronts)))
    _, _, entries, classes, _ = out[0]
    lower = sum(len(entries[c][0]) for c in classes)
    assert stiffness_rows(space).entries.sum() > 4 * assembly.BLOCK_POINTS  # chunks
    assert peak <= 45 * lower


def test_symbolic_holds_no_entries_for_a_repeated_front(traced_peak):
    # 245 of the 399 fronts of lshape2d Adini N=32 repeat an earlier one; a
    # copy of every front's entries, kept until a second pass found the
    # repeats, took the peak to 78 bytes per lower entry of the 154 factored
    # fronts, and finding each repeat as it is built to 57
    _, reduced = assembled(case_lshape2d(), ADINI_TYPE, 32)
    perm, fronts = free_dissection(reduced)
    dofs, out, space = reduced.free[perm], [], reduced.space
    peak = traced_peak(lambda: out.append(symbolic(stiffness_rows(space), dofs, fronts)))
    _, _, entries, classes, _ = out[0]
    assert (len(fronts), len(set(classes))) == (399, 154)
    assert [e is None for e in entries] == [c != f for f, c in enumerate(classes)]
    lower = sum(len(entries[c][0]) for c in set(classes))
    assert peak <= 65 * lower


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
@pytest.mark.parametrize("case, n", [
    (case_smooth2d(), 8), (case_smooth3d(), 4), (case_lshape2d(), 8),
], ids=["square-8", "cube-4", "lshape-8"])
def test_symbolic_reads_the_free_block_of_a_as_its_copy(case, n, family, monkeypatch):
    # rows, runs, positions and values, bit for bit, from the rows that the
    # row builder builds and from a copy of A's free block, with a chunk per
    # front and one chunk in all
    system, reduced = assembled(case, family, n)
    perm, fronts = free_dissection(reduced)
    block = MatrixRows(free_block(reduced))
    a = stiffness_rows(reduced.space)
    for block_points in (1, int(a.entries.sum()) + 1):
        monkeypatch.setattr(assembly, "BLOCK_POINTS", block_points)
        rows, runs, entries, classes, _ = symbolic(a, reduced.free[perm], fronts)
        want_rows, want_runs, want_entries, want_classes, _ = symbolic(block, perm, fronts)
        assert runs == want_runs and len(rows) == len(want_rows) == len(fronts)
        assert classes == want_classes
        for got, ref in zip(rows, want_rows):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        for (pos, val), (ref_pos, ref_val) in zip(
                (e for e in entries if e), (e for e in want_entries if e)):
            assert pos.dtype == ref_pos.dtype and np.array_equal(pos, ref_pos)
            assert np.array_equal(val.view(np.int64), ref_val.view(np.int64))


def spy_cholesky(monkeypatch):
    """The dtypes ``solve_direct`` factors in, in order, each with whether
    its factor failed with a SolverError."""
    calls, real = [], solver.cholesky

    def spy(space, a=None, dtype=np.float64, x=None):
        try:
            factor = real(space, a, dtype, x)
        except SolverError:
            calls.append((np.dtype(dtype).name, "failed"))
            raise
        calls.append((np.dtype(dtype).name, "factored"))
        return factor
    monkeypatch.setattr(solver, "cholesky", spy)
    return calls


def test_a_float32_pivot_failure_falls_back_to_the_float64_bits(monkeypatch):
    # at h = 1/64 the L-shape's condition number (~1e10) breaks a float32 factor
    system = assembled(case_lshape2d(), ADINI_TYPE, 64)[1]
    want, _ = solve_direct(system)
    monkeypatch.setattr(solver, "FLOAT32_DIM", 2)
    calls = spy_cholesky(monkeypatch)
    x, report = solve_direct(system)
    assert calls == [("float32", "failed"), ("float64", "factored")]
    assert (report.precision, report.corrections) == ("float64", [])
    assert x.tobytes() == want.tobytes()


def double_the_float32_solves(monkeypatch):
    # x += 2 A^-1 (b - A x) flips the error's sign at the same size
    exact = Cholesky.solve
    monkeypatch.setattr(Cholesky, "solve", lambda self, b: exact(self, b) * (
        2.0 if self.dtype == np.float32 else 1.0))


@pytest.mark.parametrize("stall", [
    lambda monkeypatch: monkeypatch.setattr(solver, "REFINE_BOUND", 0.0),
    double_the_float32_solves,
], ids=["bound-zero", "doubled-corrections"])
def test_a_refinement_that_does_not_contract_falls_back_to_float64(stall, monkeypatch):
    system = assembled(case_smooth3d(), MORLEY, 4)[1]
    want = cholesky(system.space).solve(reduced_rhs(system))
    calls = spy_cholesky(monkeypatch)
    stall(monkeypatch)
    x, report = solve_direct(system)
    assert calls == [("float32", "factored"), ("float64", "factored")]
    assert (report.precision, report.corrections) == ("float64", [])
    assert x.tobytes() == want.tobytes()


def test_a_2d_solve_is_one_unrefined_float64_solve(monkeypatch):
    system = assembled(case_lshape2d(), ADINI_TYPE, 16)[1]
    want = cholesky(system.space).solve(reduced_rhs(system))
    calls = spy_cholesky(monkeypatch)
    x, report = solve_direct(system)
    assert calls == [("float64", "factored")]
    assert (report.precision, report.corrections) == ("float64", [])
    assert x.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_a_3d_solve_is_refined_to_the_float64_errors(family, monkeypatch):
    case = case_smooth3d()
    system = assembled(case, family, 8)[1]
    space, g = system.space, system.boundary_values
    calls = spy_cholesky(monkeypatch)
    x, report = solve_direct(system)
    assert calls == [("float32", "factored")]
    assert report.precision == "float32"
    # each correction shrinks by REFINE_SHRINK at least, but the last
    c = report.corrections
    assert 2 <= len(c) <= solver.REFINE_STEPS and c[-1] <= solver.REFINE_BOUND
    assert all(b <= solver.REFINE_SHRINK * a for a, b in zip(c[:-2], c[1:-1]))
    assert report.relative_residual <= 1e-9
    b = reduced_rhs(system)
    res = np.linalg.norm(free_block(system) @ x - b) / np.linalg.norm(b)
    assert res <= 1e-9
    want = cholesky(space).solve(b)
    got = broken_norms(space, reconstruct(space, x, g), case)
    ref = broken_norms(space, reconstruct(space, want, g), case)
    np.testing.assert_allclose(got, ref, rtol=1e-8, atol=0)


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_a_float32_factor_takes_at_most_six_tenths_of_the_float64_memory(
        family, traced_peak):
    # L and the update matrices in float32: 0.50 of float64's at N=8
    space = assembled(case_smooth3d(), family, 8)[1].space
    free = space.free_dofs()
    perm, fronts = nested_dissection(space.dof_points[free], space.mesh.axis_nodes)
    peaks = {}
    for dtype in (np.float64, np.float32):
        rows, runs, entries, classes, _ = symbolic(stiffness_rows(space), free[perm],
                                                   fronts)
        out = []
        peaks[dtype] = traced_peak(lambda: out.append(
            solver._factor(fronts, perm, rows, runs, entries, classes, dtype)))
        assert all(a.dtype == dtype for pair in out[0] for a in pair)
    assert peaks[np.float32] <= 0.6 * peaks[np.float64]


def test_a_direct_solve_builds_its_element_matrices_once(monkeypatch):
    # the factor, which eliminates the boundary values, and every
    # refinement residual share one row builder and its element matrices
    calls, real = [], assembly.element_stiffness
    monkeypatch.setattr(assembly, "element_stiffness",
                        lambda *args: calls.append(1) or real(*args))
    case = case_smooth3d()
    space = build_space(case.mesh(4), ADINI_TYPE)
    system = apply_dirichlet(space, load_vector(space, case.source),
                             boundary_values_from_case(space, case))
    _, report = solve_direct(system)
    assert len(report.corrections) >= 2 and len(calls) == 1


def test_cholesky_releases_the_row_index_of_the_builder_it_reads():
    # only the local matrices stay for the residuals; the index would add
    # to the numeric factor's peak
    space = assembled(case_lshape2d(), ADINI_TYPE, 8)[1].space
    a = stiffness_rows(space)
    a(space.free_dofs()[:1])
    assert "_index" in vars(a)          # built by the first call
    cholesky(space, a)
    assert "_index" not in vars(a)


def spy_builds(monkeypatch):
    """``(rows, stiffness)``: the rows each call of a row builder builds,
    listed per builder, and one entry per build of grouped element
    matrices."""
    rows, stiffness = {}, []
    call, element = assembly.RowBuilder.__call__, assembly.element_stiffness

    def spy(self, r):
        rows.setdefault(self, []).append(np.array(r))
        return call(self, r)
    monkeypatch.setattr(assembly.RowBuilder, "__call__", spy)
    monkeypatch.setattr(assembly, "element_stiffness",
                        lambda *args: stiffness.append(1) or element(*args))
    return rows, stiffness


@pytest.mark.parametrize("case, family, n", [
    (case_lshape2d(), ADINI_TYPE, 8), (case_smooth3d(), MORLEY, 4),
], ids=["lshape2d-adini-8", "smooth3d-morley-4"])
def test_a_direct_solve_builds_each_free_row_of_a_once(case, family, n, monkeypatch):
    # apply_dirichlet builds no row; the factor's symbolic pass builds every
    # free row, in chunks, and eliminates the boundary values there
    monkeypatch.setattr(assembly, "BLOCK_POINTS", 4096)
    rows, stiffness = spy_builds(monkeypatch)
    space = build_space(case.mesh(n), family)
    system = apply_dirichlet(space, load_vector(space, case.source),
                             boundary_values_from_case(space, case))
    assert rows == {} and stiffness == []
    solve_direct(system)
    [built] = rows.values()
    assert len(built) > 1 and len(stiffness) == 1
    assert np.array_equal(np.sort(np.concatenate(built)), space.free_dofs())


def test_the_patch_test_and_a_cg_solve_build_each_element_matrix_and_row_once(
        monkeypatch):
    # the patch test factors two meshes, each with one build of its element
    # matrices; CG builds the finest level's, for assemble, and the
    # coarsest's, for its factor: the levels between are Galerkin products
    for run in (lambda: verify_patch_test(MORLEY, 2),
                lambda: solve_case(case_lshape2d(), ADINI_TYPE, 8, solver="cg")):
        rows, stiffness = spy_builds(monkeypatch)
        run()
        assert len(stiffness) == 2 and rows
        for built in rows.values():
            built = np.concatenate(built)
            assert len(np.unique(built)) == len(built)
