"""Acceptance gate: eight criteria, one pass/fail line each.

Every criterion prints ``[PASS]``/``[FAIL] acceptance N: ...`` before its
assertion so the outcome is visible in captured output either way.
"""

import math

import numpy as np

from triharm.analysis import broken_norms, convergence_study, solve_case
from triharm.assembly import derivative_multiindices, element_stiffness, gauss_rule
from triharm.cases import case_lshape2d, case_smooth2d, case_smooth3d
from triharm.interpolation import canonical_interpolate, quasi_interpolate
from triharm.reference import ADINI_TYPE, MORLEY, build_dual_basis
from triharm.space import build_space
from triharm.verify import (
    verify_duality, verify_local_interpolation, verify_patch_test,
    verify_unisolvence, verify_weak_continuity,
)

# published reference tables: level -> (L2, H1, H2, H3)
TABLE_2D_ADINI = {
    4: (1.142e-01, 7.092e-01, 8.272e+00, 1.436e+02),
    8: (3.140e-02, 1.822e-01, 2.115e+00, 6.971e+01),
    16: (7.997e-03, 4.566e-02, 5.320e-01, 3.455e+01),
    32: (2.008e-03, 1.142e-02, 1.332e-01, 1.723e+01),
    64: (5.027e-04, 2.855e-03, 3.331e-02, 8.612e+00),
}
TABLE_LSHAPE_H3 = {2: 2.353e+00, 4: 1.630e+00, 8: 1.140e+00,
                   16: 8.030e-01, 32: 5.670e-01, 64: 4.007e-01}
TABLE_3D_H3 = {
    "adini": {2: 9.809e+01, 4: 3.741e+01, 8: 1.781e+01, 16: 8.785e+00},
    "morley": {2: 1.153e+02, 4: 4.254e+01, 8: 1.888e+01, 16: 8.949e+00},
}


def _report(num, name, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"[{status}] acceptance {num}: {name}")
    for p in problems:
        print(f"    {p}")
    assert not problems, f"acceptance {num} failed: {problems}"


def _rel(got, want):
    return abs(got - want) / abs(want)


def test_acceptance_1_smooth2d_table():
    """2D smooth solution: full error table and finest-pair orders."""
    levels = sorted(TABLE_2D_ADINI)
    study = convergence_study(case_smooth2d(), ADINI_TYPE, levels)
    problems = []
    for n, errs in zip(study.levels, study.errors):
        for label, got, want in zip("L2 H1 H2 H3".split(), errs,
                                    TABLE_2D_ADINI[n]):
            if _rel(got, want) > 0.10:
                problems.append(f"N={n} {label}: {got:.3e} vs {want:.3e} "
                                f"({100 * _rel(got, want):.1f}%)")
    finest = study.orders()[-1]
    for label, got, want in zip("L2 H1 H2 H3".split(), finest,
                                (2.0, 2.0, 2.0, 1.0)):
        if abs(got - want) > 0.1:
            problems.append(f"finest order {label}: {got:.2f} vs {want:.2f}")
    _report(1, "2D smooth convergence table (16+ values, 10%)", problems)


def test_acceptance_2_lshape_table():
    """L-shape singular solution: H3 errors and half-order rate."""
    levels = sorted(TABLE_LSHAPE_H3)
    study = convergence_study(case_lshape2d(), ADINI_TYPE, levels)
    problems = []
    for n, errs in zip(study.levels, study.errors):
        want = TABLE_LSHAPE_H3[n]
        if _rel(errs[3], want) > 0.10:
            problems.append(f"N={n} H3: {errs[3]:.3e} vs {want:.3e} "
                            f"({100 * _rel(errs[3], want):.1f}%)")
    finest = study.orders()[-1][3]
    if abs(finest - 0.50) > 0.05:
        problems.append(f"finest H3 order {finest:.3f} not 0.50 +- 0.05")
    _report(2, "L-shape H3 errors (10%) and order 0.50 +- 0.05", problems)


def test_acceptance_3_smooth3d_both_families():
    """3D smooth solution, both families: H3 errors and first-order rate."""
    problems = []
    for family in (ADINI_TYPE, MORLEY):
        table = TABLE_3D_H3[family.name]
        levels = sorted(table)
        study = convergence_study(case_smooth3d(), family, levels)
        for n, errs in zip(study.levels, study.errors):
            want = table[n]
            if _rel(errs[3], want) > 0.10:
                problems.append(
                    f"{family.name} N={n} H3: {errs[3]:.3e} vs {want:.3e} "
                    f"({100 * _rel(errs[3], want):.1f}%)")
        finest = study.orders()[-1][3]
        if abs(finest - 1.0) > 0.15:
            problems.append(f"{family.name} finest H3 order {finest:.3f} "
                            "not 1.0 +- 0.15")
    _report(3, "3D H3 errors (10%) and finest order 1.0 +- 0.15", problems)


def test_acceptance_4_exact_element_construction():
    """Unisolvence at n=1..4 and exact duality with closed forms."""
    problems = []
    rep = verify_unisolvence((1, 2, 3, 4))
    problems += [f"unisolvence: {label}" for label, _ in rep.failures()]
    rep = verify_duality((1, 2, 3, 4))
    problems += [f"duality: {label}" for label, _ in rep.failures()]
    _report(4, "exact unisolvence, duality, and closed forms", problems)


def test_acceptance_5_continuity_lemmas():
    """Weak/pointwise continuity, proved over the local basis for every
    coefficient vector, and the exact face-integral identities of the local
    interpolation operators, at n = 2, 3, 4."""
    problems = []
    for n in (2, 3, 4):
        for family in (MORLEY, ADINI_TYPE):
            reps = [verify_weak_continuity(family, n),
                    verify_local_interpolation(family, n)]
            problems += [f"{rep.suite}: {label} {det}"
                         for rep in reps for label, det in rep.failures()]
    _report(5, "continuity lemmas and face-integral identities", problems)


def test_acceptance_6_patch_test():
    """Cubic solutions reproduced through the full solve pipeline."""
    problems = []
    for n in (2, 3):
        for family in (MORLEY, ADINI_TYPE):
            rep = verify_patch_test(family, n)
            problems += [f"{rep.suite}: {label} {det}"
                         for label, det in rep.failures()]
    _report(6, "cubic patch test, both families, 2D and 3D", problems)


def test_acceptance_7_interpolation_rates():
    """Canonical and projection-averaging interpolants converge at
    order 4-m in the broken H^m semi-norm, m = 1, 2, 3."""
    case = case_smooth2d()
    levels = [8, 16, 32]
    problems = []
    for family in (ADINI_TYPE, MORLEY):
        for variant in ("canonical", "projection-averaging"):
            errs = []
            for n in levels:
                space = build_space(case.mesh(n), family)
                if variant == "canonical":
                    coeffs = canonical_interpolate(space, case)
                else:
                    coeffs = quasi_interpolate(space, case.u)
                errs.append(broken_norms(space, coeffs, case))
            for m in (1, 2, 3):
                ys = [math.log2(e[m]) for e in errs]
                xs = [-math.log2(n) for n in levels]
                slope = np.polyfit(xs, ys, 1)[0]
                if abs(slope - (4 - m)) > 0.2:
                    problems.append(
                        f"{family.name} {variant} H{m}: slope {slope:.2f} "
                        f"vs {4 - m}")
    _report(7, "interpolation rates 4-m +- 0.2 over N=8,16,32", problems)


def _grammian_stiffness(h, elem, rule):
    """Element matrix sum_alpha (3!/alpha!) int d^alpha phi_a d^alpha phi_b
    on the cell of half-lengths h, from eval_shape on ``rule``."""
    k = np.zeros((elem.n_dofs, elem.n_dofs))
    for alpha, mult in derivative_multiindices(elem.dim, 3):
        d = elem.eval_shape(alpha, rule.points)
        scale = mult * np.prod(h) * np.prod(h ** (-2.0 * np.array(alpha)))
        k += scale * (d.T @ (rule.weights[:, None] * d))
    return k


def test_acceptance_8_quadrature_and_solver_crosschecks():
    """The stiffness rule derived from the element degree is exact (a rule
    two points finer gives the same element matrix); CG agrees with the
    direct factorization on coarse meshes."""
    problems = []
    for family in (ADINI_TYPE, MORLEY):
        for n in (2, 3):
            elem = build_dual_basis(family, n)
            h = np.array([0.5, 0.125, 0.25][:n])
            got = element_stiffness(h, elem)
            q = elem.max_degree_per_axis() + 1
            want = _grammian_stiffness(h, elem, gauss_rule(q + 2, n))
            rel = np.abs(got - want).max() / np.abs(want).max()
            if rel > 1e-12:
                problems.append(f"{family.name} n={n} stiffness vs "
                                f"q={q + 2}: {rel:.2e}")
    case2d = case_smooth2d()
    for family, n, dim_case in ((ADINI_TYPE, 8, case2d), (MORLEY, 8, case2d),
                                (ADINI_TYPE, 4, case_smooth3d())):
        _, direct, _ = solve_case(dim_case, family, n)
        _, viacg, _ = solve_case(dim_case, family, n, solver="cg",
                                 cg_tol=1e-12)
        rel = np.abs(direct - viacg).max() / np.abs(direct).max()
        if rel > 1e-7:
            problems.append(f"{family.name} {dim_case.name} N={n} "
                            f"direct-vs-cg: {rel:.2e}")
    _report(8, "quadrature exactness and solver agreement", problems)
