"""Conjugacy oracles per factor kind, and character vectors for products.

The per-factor invariants are complete for elements of finite order, by
classical facts this module relies on without re-proving them in code:

- U(n): two finite-order (hence diagonalizable) unitary matrices are conjugate
  iff their characteristic polynomials agree, and U(n)-conjugate elements of
  SU(n) are SU(n)-conjugate (divide the conjugator by an n-th root of its
  determinant).
- Sp(1): unit quaternions are conjugate iff their real parts agree.
- SO(3) is ``GroupSpec((sp1_factor(),), center_gens=((-Quat.one(),),))``: the
  Z-translates compare real parts up to sign, as rotation traces 4a^2 - 1 do.

Everything is computed exactly; no numerics, no tolerance.
"""

from __future__ import annotations

from .exactalg import cyc_rational
from .fingrp import CosetElement
from .grpcore import AmbientElement, Factor, GroupSpec, GroupError

_TWO = cyc_rational(2)


def invariant(factor: Factor, part) -> tuple:
    """Complete conjugacy invariant of one factor element, as a CycNum tuple."""
    if factor.kind == "SU":
        return part.char_poly()
    return (part.real_part(),)


def invariant_vector(factors, x: AmbientElement) -> tuple:
    return tuple(invariant(f, p) for f, p in zip(factors, x.parts))


def elements_conjugate(g: GroupSpec, x, y) -> bool:
    """Whether x and y are conjugate in g (searching over central lifts).

    For a quotient Ghat/Z two cosets are conjugate iff some Z-translate of one
    representative is conjugate to the other representative in Ghat, and
    Ghat-conjugacy is the per-factor invariant equality.
    """
    for v in (x, y):
        if isinstance(v, CosetElement) and v.ctx is not g.cosets:
            raise GroupError("element belongs to a different group")
    xa = g.ambient_of(x)
    ya = g.ambient_of(y)
    target = invariant_vector(g.factors, xa)
    for z in g.z_subgroup:
        if invariant_vector(g.factors, z * ya) == target:
            return True
    return False


def character_vector(factors, x: AmbientElement) -> tuple:
    """Per-factor trace of the defining representation (2 * real part for Sp(1))."""
    out = []
    for f, p in zip(factors, x.parts):
        if f.kind == "Sp1":
            out.append(_TWO * p.real_part())
        else:
            out.append(p.trace())
    return tuple(out)
