"""Verification suite drivers (small, fast configurations)."""

import dataclasses
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracle import Polynomial, basis
from triharm import verify
from triharm.reference import (
    ADINI_CLASSIC, ADINI_TYPE, MORLEY, Q1, build_dual_basis, morley_closed_form,
    partial_adini,
)
from triharm.verify import (
    SUITES, run_suite, verify_duality, verify_local_interpolation, verify_patch_test,
    verify_unisolvence, verify_weak_continuity,
)


def _assert_passed(report):
    assert report.passed, report.failures()


def test_unisolvence_small_dims():
    _assert_passed(verify_unisolvence((1, 2, 3)))


def test_unisolvence_fails_only_on_a_certificate(monkeypatch):
    # a dimension below 1 is an error, not a failed item; a matrix that is
    # not certified is a failed item
    for check in (verify_unisolvence, verify_duality):
        with pytest.raises(ValueError, match="^dimensions must be >= 1, got 0$"):
            check((0,))

    def uncertified(family, n):
        raise ValueError(f"DoF matrix for {family} at n={n} is not certified")

    monkeypatch.setattr(verify, "build_dual_basis", uncertified)
    report = verify_unisolvence((2,))
    assert report.items and not any(ok for _, ok, _ in report.items)
    assert {detail for _, detail in report.failures()} == {"not certified"}


def test_duality_small_dims():
    _assert_passed(verify_duality((1, 2)))


def test_unisolvence_and_duality_at_n5():
    # 9 families; duality adds the Morley closed form and P3 reproduction
    # of Morley and Adini to their 9 deltas
    (uni,) = run_suite("unisolvence", dims=(5,))
    (dual,) = run_suite("duality", dims=(5,))
    assert (len(uni.items), len(dual.items)) == (9, 12)
    _assert_passed(uni)
    _assert_passed(dual)
    assert ("morley n=5", True, "d=2^8") in uni.items


def test_duality_builds_only_the_requested_dimensions(monkeypatch):
    calls = []
    real = verify.build_dual_basis

    def recording(family, n):
        calls.append((family, n))
        return real(family, n)

    monkeypatch.setattr(verify, "build_dual_basis", recording)
    report = verify_duality((2,))
    _assert_passed(report)
    assert calls and {n for _, n in calls} == {2}
    assert "P3 reproduction adini n=2" in [label for label, _, _ in report.items]


def _closed_form_item(dims, change):
    """Verdicts of duality's closed-form items with the closed form
    routed through ``change``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "morley_closed_form", lambda n: change(morley_closed_form(n)))
        report = verify_duality(dims)
    return [ok for label, ok, _ in report.items if "closed form" in label]


def test_closed_form_fails_on_a_numerator_off_by_one():
    assert _closed_form_item((2, 3), lambda f: f) == [True, True]
    for a, t, k, e in ((0, 0, 0, 0), (1, 1, 0, 5), (-1, 0, -1, 5)):
        def nudge(functions):
            functions[a][t][k][e] += 1
            return functions

        assert _closed_form_item((2, 3), nudge) == [False, False], (a, t, k, e)


def test_closed_form_fails_on_a_monomial_outside_the_shape_space():
    # x0^2 x1^2 is not a Morley shape monomial, nor is x0^6.  Each extra
    # term comes with one that takes its value back on the shape monomial
    # an unchecked key would alias it to (the last one, x_{n-1}^5, for a
    # missing key; x1 for the exponent 6 of base-6 keys), so the shape
    # monomials read right and only the check of the terms' reach fails it
    def extra(functions):
        n = len(functions[0][0])
        ones = (np.array([1]),) * n
        last, x1 = np.zeros(6, np.int64), np.array([0, -1])
        last[5] = -1
        return [((np.array([0, 0, 1]), np.array([0, 0, 1])) + ones[2:],
                 ones[:n - 1] + (last,)),
                ((np.array([0, 0, 0, 0, 0, 0, 1]),) + ones[1:],
                 ones[:1] + (x1,) + ones[2:])]

    for case in (0, 1):
        def add(functions, case=case):
            functions[1] += extra(functions)[case]
            return functions

        assert _closed_form_item((2, 3), add) == [False, False]


SUITE_REPORTS = Path(__file__).resolve().parent / "suite_reports.txt"


def test_every_suite_report_keeps_its_items():
    # every item of every suite at n = 2..5 as recorded while the closed
    # form was compared as Fraction polynomials and the patch test built a
    # case per monomial: suite, label, verdict and detail.  A patch detail
    # is a rounding error of the solve, which depends on the BLAS build:
    # it is left out here, and the interpolants under it are checked bit
    # for bit in test_interpolation.
    lines = []
    for n in (2, 3, 4, 5):
        for name in SUITES:
            for rep in run_suite(name, (n,)):
                for label, ok, detail in rep.items:
                    if name == "patch":
                        detail = ""
                    lines.append(f"{rep.suite} | {label} | {'pass' if ok else 'FAIL'}"
                                 + (f" | {detail}" if detail else ""))
    assert lines == SUITE_REPORTS.read_text().splitlines()


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_continuity_2d_short(family):
    report = verify_weak_continuity(family, 2)
    _assert_passed(report)
    assert [label for label, _, _ in report.items] == [
        "mesh 2x1: interior jumps", "mesh 2x1: boundary traces",
        "mesh 2x2: interior jumps", "mesh 2x2: boundary traces"]


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_local_interpolation_2d(family):
    _assert_passed(verify_local_interpolation(family, 2))


def test_continuity_and_local_interpolation_at_n5():
    for name, labels in (("continuity", [
            "mesh 2x1x1x1x1: interior jumps", "mesh 2x1x1x1x1: boundary traces",
            "mesh 2x2x2x2x2: interior jumps", "mesh 2x2x2x2x2: boundary traces"]),
            ("local-interp", ["all shape-space basis functions"])):
        reports = run_suite(name, dims=(5,))
        assert [rep.suite for rep in reports] == [f"{name} morley n=5",
                                                  f"{name} adini n=5"]
        for rep in reports:
            _assert_passed(rep)
            assert [label for label, _, _ in rep.items] == labels


# free DoFs of the patch meshes (2,)*n and (4,)+(2,)*(n-1)
PATCH_FREE_DOFS = {
    (MORLEY, 2): [7, 19], (MORLEY, 3): [16, 40], (MORLEY, 4): [37, 87],
    (ADINI_TYPE, 2): [5, 15], (ADINI_TYPE, 3): [7, 21], (ADINI_TYPE, 4): [9, 27],
}


def _check_patch_proof(family, n, monkeypatch):
    """Run the patch test, recording per mesh the free DoFs its factor
    sees and the monomials its one interpolation gives columns for."""
    meshes = []
    real_cholesky, real_case = verify.cholesky, verify.monomials_case
    real_interpolate = verify.canonical_interpolate

    def cholesky(space, **kwargs):
        meshes[-1][0].append(len(space.free_dofs()))
        return real_cholesky(space, **kwargs)

    def case(exponents, domain):
        meshes.append(([], list(exponents), []))
        return real_case(exponents, domain)

    def interpolate(space, case):
        table = real_interpolate(space, case)
        meshes[-1][2].append(table.shape)
        return table

    with monkeypatch.context() as m:
        m.setattr(verify, "cholesky", cholesky)
        m.setattr(verify, "monomials_case", case)
        m.setattr(verify, "canonical_interpolate", interpolate)
        report = verify_patch_test(family, n)
    _assert_passed(report)
    # one item, one factor and one interpolation per mesh, shared by all
    # C(n+3, 3) cubic monomials
    assert len(report.items) == len(meshes) == 2
    assert [free for free, _, _ in meshes] == [[f] for f in PATCH_FREE_DOFS[family, n]]
    cubics = {e for e in itertools.product(range(4), repeat=n) if sum(e) <= 3}
    assert len(cubics) == math.comb(n + 3, 3)
    for _, checked, shapes in meshes:
        assert len(checked) == len(cubics) and set(map(tuple, checked)) == cubics
        assert len(shapes) == 1 and shapes[0][1:] == (len(cubics),)


def test_patch_2d_both_families(monkeypatch):
    for family in (MORLEY, ADINI_TYPE):
        _check_patch_proof(family, 2, monkeypatch)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_patch_proof_in_3d_and_4d(family, n, monkeypatch):
    _check_patch_proof(family, n, monkeypatch)


def test_suite_rejects_wrong_family():
    # neither face DoFs nor vertex second derivatives
    for family in (Q1, ADINI_CLASSIC, partial_adini(0)):
        with pytest.raises(ValueError, match="neither face nor second"):
            verify_weak_continuity(family, 2)
        with pytest.raises(ValueError, match="neither face nor second"):
            verify_local_interpolation(family, 2)


def test_run_suite_dispatch():
    reports = run_suite("unisolvence", dims=(1, 2))
    assert len(reports) == 1 and reports[0].passed
    reports = run_suite("continuity", dims=(2,))
    assert len(reports) == 2
    with pytest.raises(ValueError):
        run_suite("spectral", dims=(2,))


def test_run_suite_runs_a_repeated_dimension_once():
    reports = run_suite("unisolvence", dims=(2, 2))
    assert len(reports) == 1
    assert len(reports[0].items) == 6
    assert reports[0].items == run_suite("unisolvence", dims=(2,))[0].items


@pytest.mark.parametrize("name", ["continuity", "local-interp", "patch"])
def test_run_suite_that_checks_nothing_is_an_error(name):
    with pytest.raises(ValueError, match="n >= 2"):
        run_suite(name, dims=(1,))
    with pytest.raises(ValueError, match="no dimensions given"):
        run_suite(name, dims=())


@pytest.mark.parametrize("name", ["duality", "all"])
def test_run_suite_without_dimensions_says_so(name):
    with pytest.raises(ValueError, match="^no dimensions given$"):
        run_suite(name, dims=())


@pytest.mark.parametrize("name", SUITES + ("all",))
def test_run_suite_rejects_dimensions_below_one(name, monkeypatch):
    def never(*args):
        raise AssertionError("built something")

    monkeypatch.setattr(verify, "build_dual_basis", never)
    monkeypatch.setattr(verify, "build_space", never)
    with pytest.raises(ValueError, match="^dimensions must be >= 1, got 0$"):
        run_suite(name, dims=(0,))
    with pytest.raises(ValueError, match="^dimensions must be >= 1, got 0, -1$"):
        run_suite(name, dims=(2, 0, -1, 0))


def test_run_suite_all_skips_low_dimensions():
    reports = run_suite("all", dims=(1,))
    assert [rep.suite for rep in reports] == ["unisolvence", "duality"]


# -- the continuity proof must fail on broken elements ----------------------

def _break_setup(monkeypatch, change):
    """Route every exact set-up of the continuity suite through ``change``."""
    exact_setup = verify._exact_setup

    def broken(family, n, subs):
        return change(*exact_setup(family, n, subs))

    monkeypatch.setattr(verify, "_exact_setup", broken)


# local DoFs of cell 0 whose scaling, once multiplied by 3, breaks a
# jump or a trace; the others enter no checked quantity of a shared face
BREAKING_SCALINGS = {MORLEY: {4, 8, 10, 11, 13, 15}, ADINI_TYPE: {9, 13, 18, 19}}


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_continuity_fails_on_a_wrong_scaling(family, monkeypatch):
    failing = set()
    for li in range(build_dual_basis(family, 2).n_dofs):
        def scale(space, scalings, halves, li=li):
            scalings[0][li] *= 3     # integers over a power of two stay exact
            return space, scalings, halves

        with monkeypatch.context() as m:
            _break_setup(m, scale)
            if not verify_weak_continuity(family, 2).passed:
                failing.add(li)
    assert failing == BREAKING_SCALINGS[family]


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_continuity_stays_exact_past_int64(family, monkeypatch):
    # scalings of 2^61 and half-lengths of 2^40 overflow int64 in the
    # products: they run in Python ints, so the proof neither wraps nor
    # loses the broken scaling
    def huge(space, scalings, halves):
        return space, scalings * 2 ** 61, halves * 2 ** 40

    _break_setup(monkeypatch, huge)
    _assert_passed(verify_weak_continuity(family, 2))
    li = min(BREAKING_SCALINGS[family])

    def broken(space, scalings, halves):
        space, scalings, halves = huge(space, scalings, halves)
        scalings[0][li] *= 3
        return space, scalings, halves

    monkeypatch.undo()
    _break_setup(monkeypatch, broken)
    assert not verify_weak_continuity(family, 2).passed


def _perturbed(elem, a, exps, delta: Fraction):
    """A copy of ``elem`` whose basis function a has delta * x^exps added,
    made on the integer coefficients and their denominator."""
    m = elem.monomials.index(exps)
    coeffs = [[c * delta.denominator for c in row] for row in elem.coeffs]
    coeffs[m][a] += delta.numerator * elem.denominator
    out = dataclasses.replace(elem, coeffs=coeffs,
                              denominator=elem.denominator * delta.denominator)
    old, new = basis(elem), basis(out)
    assert new[a] == old[a] + Polynomial.monomial(elem.dim, exps, delta)
    assert new[:a] + new[a + 1:] == old[:a] + old[a + 1:]
    return out


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_continuity_fails_on_a_perturbed_basis_coefficient(family, monkeypatch):
    def perturb(space, scalings, halves):
        elem = _perturbed(space.element, 0, (2, 0), Fraction(1, 10))
        return dataclasses.replace(space, element=elem), scalings, halves

    _assert_passed(verify_weak_continuity(family, 2))
    _break_setup(monkeypatch, perturb)
    assert not verify_weak_continuity(family, 2).passed


@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_continuity_fails_on_a_wrong_half_length(family, monkeypatch):
    def stretch(space, scalings, halves):
        halves[0][0] *= 3
        return space, scalings, halves

    _break_setup(monkeypatch, stretch)
    assert not verify_weak_continuity(family, 2).passed


def test_duality_fails_on_a_perturbed_basis_function():
    elem = build_dual_basis(MORLEY, 2)
    assert verify._is_dual(elem)
    for a, exps, delta in ((0, (1, 1), Fraction(1, 7)), (5, (0, 4), Fraction(1, 3))):
        assert not verify._is_dual(_perturbed(elem, a, exps, delta))


# -- and so must the face-integral identities -------------------------------

@pytest.mark.parametrize("family, target",
                         [(MORLEY, Q1), (ADINI_TYPE, partial_adini(0))])
def test_local_interpolation_fails_on_a_perturbed_interpolant(family, target,
                                                              monkeypatch):
    # perturb the interpolant whose residual the identity checks; the
    # Adini-classic one that the Morley-type check starts from only gives
    # the w, and the identity holds for every w of its space
    real = verify.build_dual_basis

    def routed(fam, n):
        elem = real(fam, n)
        return _perturbed(elem, 0, (1, 1), Fraction(1, 10)) if fam == target else elem

    _assert_passed(verify_local_interpolation(family, 2))
    monkeypatch.setattr(verify, "build_dual_basis", routed)
    report = verify_local_interpolation(family, 2)
    assert not report.passed
    assert "nonzero; first: v=" in report.failures()[0][1]


# -- and so must the patch test ---------------------------------------------

@pytest.mark.parametrize("delta", [Fraction(1, 10), Fraction(1, 10**7)])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE])
def test_patch_fails_on_a_perturbed_basis(family, n, delta, monkeypatch):
    # the element's last shape monomial has a nonzero third derivative; a
    # quadratic, as in the continuity test, leaves every element stiffness
    # matrix unchanged, and no energy-based patch test can see it.  The
    # small delta moves u_h by 1e-7 to 5e-6, which only a tight tolerance
    # catches.
    real = verify.build_space

    def routed(mesh, fam):
        space = real(mesh, fam)
        elem = space.element
        return dataclasses.replace(
            space, element=_perturbed(elem, 0, elem.monomials[-1], delta))

    monkeypatch.setattr(verify, "build_space", routed)
    report = verify_patch_test(family, n)
    assert len(report.items) == 2
    assert not any(ok for _, ok, _ in report.items), report.items
    for _, detail in report.failures():
        assert detail.startswith("worst x^(")
