"""Metamorphic tests: a moved problem has the same errors.

Permuting the axes, reflecting or translating the box moves the solution
with it and leaves every broken-norm error unchanged.  Scaling the box by
s scales the order-m error by s^(3/2 - m) in 3D; s = 2^-30 and 2^30 show
any rounding or tolerance that depends on the box's size.  Each moved
problem is a separate solve on a separate mesh, so an orientation, sign or
scaling slip anywhere in the pipeline shows up as an error that does not
match.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from triharm.analysis import broken_norms, solve_case
from triharm.cases import _cosine_product
from triharm.mesh import BoxDomain
from triharm.reference import ADINI_TYPE, MORLEY

# an anisotropic box and solution, so that no move maps them to themselves;
# 4 x 2 x 6 cells are cubes, 4 x 4 x 3 cells have three different sides
LO, HI = (0.0, 0.25, -0.5), (1.0, 0.75, 1.0)
FREQS = (2 * math.pi, math.pi, 1.5 * math.pi)
PHASES = (-math.pi / 2, 0.3, 0.1)


def errors(family, lo, hi, cells, freqs, phases):
    """L2, H1, H2 and H3 errors of u = prod cos(k_i x_i + phi_i) on a box."""
    case = _cosine_product("moved", BoxDomain(lo, hi), freqs, phases)
    space, coeffs, _ = solve_case(case, family, list(cells))
    return np.array(broken_norms(space, coeffs, case))


@functools.cache
def base_errors(family, cells):
    return errors(family, LO, HI, cells, FREQS, PHASES)


def permuted(cells, perm):
    pick = lambda v: tuple(v[i] for i in perm)
    return (pick(LO), pick(HI), pick(cells), pick(FREQS), pick(PHASES)), 1.0


def reflected(cells):
    # x0 -> -x0: cos(k0 x0 + phi0) becomes cos(k0 x0 - phi0)
    lo, hi = (-HI[0],) + LO[1:], (-LO[0],) + HI[1:]
    return (lo, hi, cells, FREQS, (-PHASES[0],) + PHASES[1:]), 1.0


def translated(cells, shift=(1.0, -2.0, 0.5)):
    lo = tuple(a + s for a, s in zip(LO, shift))
    hi = tuple(b + s for b, s in zip(HI, shift))
    phases = tuple(p - k * s for p, k, s in zip(PHASES, FREQS, shift))
    return (lo, hi, cells, FREQS, phases), 1.0


def scaled(cells, s):
    # x -> s x divides k by s; the order-m error gains s^(3/2) from the
    # volume and s^-m from the derivatives
    moved = (tuple(s * a for a in LO), tuple(s * b for b in HI), cells,
             tuple(k / s for k in FREQS), PHASES)
    return moved, s ** (1.5 - np.arange(4))


MOVES = {f"permute{''.join(map(str, p))}": functools.partial(permuted, perm=p)
         for p in itertools.permutations(range(3)) if p != (0, 1, 2)}
MOVES.update(reflect0=reflected, translate=translated,
             scale2=functools.partial(scaled, s=2.0))
MOVES.update({f"scale2^{e}": functools.partial(scaled, s=2.0 ** e) for e in (-30, 30)})


@pytest.mark.parametrize("move", list(MOVES))
@pytest.mark.parametrize("cells", [(4, 2, 6), (4, 4, 3)], ids=lambda c: "x".join(map(str, c)))
@pytest.mark.parametrize("family", [MORLEY, ADINI_TYPE], ids=str)
def test_moved_problem_has_the_same_errors(family, cells, move):
    args, factor = MOVES[move](cells)
    want = factor * base_errors(family, cells)
    got = errors(family, *args)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
