"""Double-coset membership checks for odd orthogonal subgroups of SO(2n+2).

Two families are covered, both inside the ambient group SO(2n+2): the full
odd orthogonal group embedded as the matrices fixed by conjugation with
diag(1, ..., 1, -1), and its identity component embedded as the stabilizer of
the last basis vector.  For a rotation g by an exact rational angle in the
last two coordinates, the question is whether g lies in Z(K) H, where H is
the subgroup, K = H intersect gHg^-1, and Z(K) is the centralizer of K in
the ambient group.

Everything is exact: angles are cyclotomic cosine/sine pairs, intersections
are nullspace computations over the flattened matrix space, and the finite
component scan enumerates diagonal sign matrices.  The decision cascade
tries the two trivial routes first (g centralizes K, or g already lies in
H); only then does it enumerate centralizer translates, which requires the
centralizer to be a finite sign-pattern group.  Every answer is one
Eq2Verdict whose outcome is "holds", "fails" or "undecided"; the last, when
the commutant is not of sign-pattern type, is an honest answer that the
acceptance checks assert never occurs for these families.

``scan_angles`` refuses a scan over the closure cap, and ``scan_grid`` a
denominator over the conductor cap, before any angle is built;
``certsuite.scan`` adds the checks on n and the denominators that both
``verify`` and ``scan-scf`` go through.
"""

from __future__ import annotations

import itertools
from math import lcm

from .exactalg import (
    ExactMatrix,
    ONE,
    Subspace,
    ZERO,
    check_conductor,
    commutant,
    cyc_half,
    cyc_i,
    cyc_rational,
    cyc_zeta,
    subspace_intersect,
    unflatten_matrix,
)
from .fingrp import ClosureCapError, default_closure_cap
from .grpcore import GroupError

MINUS_ONE = cyc_rational(-1)

KIND_O_ODD = "O_odd_in_SO_even"
KIND_SO_ODD = "SO_odd_in_SO_even"
FAMILY_KINDS = (KIND_O_ODD, KIND_SO_ODD)


class NotSignPattern:
    """Typed fallback: the centralizer is not a finite group of sign matrices."""

    __slots__ = ("reason", "commutant_dim")

    def __init__(self, reason: str, commutant_dim: int):
        self.reason = reason
        self.commutant_dim = commutant_dim

    def __repr__(self):
        return "NotSignPattern(%r, dim=%d)" % (self.reason, self.commutant_dim)


class SymPairFamily:
    """One subgroup family: which odd orthogonal group sits inside SO(2n+2)."""

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int):
        if kind not in FAMILY_KINDS:
            raise GroupError("unknown family kind %r" % (kind,))
        if n < 1:
            raise GroupError("family needs n >= 1, got %d" % n)
        self.kind = kind
        self.n = n

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n + 2

    @property
    def condition_label(self) -> str:
        """Which membership condition this family's verdicts are about."""
        if self.kind == KIND_O_ODD:
            return "reflection-fixed odd orthogonal subgroup"
        return "last-vector stabilizer (identity component)"

    def reflection(self) -> ExactMatrix:
        return ExactMatrix.diagonal([ONE] * (self.ambient_dim - 1) + [MINUS_ONE])

    def contains(self, m: ExactMatrix) -> bool:
        """Exact membership in the subgroup H of this family."""
        nn = self.ambient_dim
        if m.rows != nn or m.cols != nn:
            return False
        if not (m.is_real() and m.is_orthogonal() and m.det() == ONE):
            return False
        if self.kind == KIND_O_ODD:
            j = self.reflection()
            return (j * m) * j == m
        want = tuple(ONE if i == nn - 1 else ZERO for i in range(nn))
        return m.column(nn - 1) == want

    def __repr__(self):
        return "SymPairFamily(%s, n=%d)" % (self.kind, self.n)


class Angle:
    """The angle 2*pi*k/m with exact cyclotomic cosine and sine."""

    __slots__ = ("k", "m", "cos", "sin")

    def __init__(self, k: int, m: int, cos, sin):
        self.k = k
        self.m = m
        self.cos = cos
        self.sin = sin

    @classmethod
    def make(cls, k: int, m: int) -> "Angle":
        if m < 1:
            raise GroupError("angle denominator must be positive")
        k = k % m
        level = lcm(m, 4)
        z = cyc_zeta(level) ** ((k * (level // m)) % level)
        zc = z.conj()
        half = cyc_half()
        cos = (z + zc) * half
        sin = (zc - z) * half * cyc_i()
        if not (cos.is_real() and sin.is_real()):
            raise GroupError("angle produced non-real cosine or sine")
        if cos * cos + sin * sin != ONE:
            raise GroupError("cos^2 + sin^2 != 1; angle construction is broken")
        return cls(k, m, cos, sin)

    def __repr__(self):
        return "Angle(2*pi*%d/%d)" % (self.k, self.m)


def build_g_theta(fam: SymPairFamily, ang: Angle) -> ExactMatrix:
    """Rotation by the angle in the last two coordinates, identity elsewhere."""
    nn = fam.ambient_dim
    rows = [[ONE if i == j else ZERO for j in range(nn)] for i in range(nn)]
    rows[nn - 2][nn - 2] = ang.cos
    rows[nn - 2][nn - 1] = ang.sin
    rows[nn - 1][nn - 2] = -ang.sin
    rows[nn - 1][nn - 1] = ang.cos
    g = ExactMatrix.make(rows)
    if not g.is_orthogonal() or g.det() != ONE:
        raise GroupError("rotation block failed orthogonality")
    return g


def _lie_h_basis(nn: int) -> list:
    """Antisymmetric matrices with last row and column zero: the Lie algebra
    of both subgroup families."""
    out = []
    for a in range(nn - 1):
        for b in range(a + 1, nn - 1):
            entries = [ZERO] * (nn * nn)
            entries[a * nn + b] = ONE
            entries[b * nn + a] = MINUS_ONE
            out.append(ExactMatrix(nn, nn, tuple(entries)))
    return out


class SubgroupDescriptor:
    """A closed subgroup as exact data: Lie algebra plus sign components.

    The Lie part is a Subspace of flattened matrices; the component list is a
    finite set of exact orthogonal matrices meeting every connected component
    the scan can see.  Construction verifies that the Lie part is closed
    under brackets and that every component representative normalizes it.
    """

    __slots__ = ("ambient_dim", "lie", "components")

    def __init__(self, ambient_dim: int, lie: Subspace, components: tuple):
        self.ambient_dim = ambient_dim
        self.lie = lie
        self.components = components
        mats = self.lie_matrices()
        for i, x in enumerate(mats):
            for y in mats[i:]:
                bracket = x * y - y * x
                if not lie.contains(bracket.entries):
                    raise GroupError("Lie part is not closed under brackets")
        for r in components:
            rt = r.transpose()
            for x in mats:
                if not lie.contains(((r * x) * rt).entries):
                    raise GroupError("component rep does not normalize the Lie part")

    def lie_matrices(self) -> list:
        return [unflatten_matrix(v, self.ambient_dim) for v in self.lie.basis]

    def generators(self) -> list:
        return self.lie_matrices() + list(self.components)

    def __repr__(self):
        return "SubgroupDescriptor(lie dim %d, %d components)" % (
            self.lie.dim, len(self.components))


def intersection_descriptor(fam: SymPairFamily, ang: Angle) -> SubgroupDescriptor:
    """Descriptor of H intersect gHg^-1 for this family's H and g = g_theta.

    The identity component is the exact intersection of the Lie algebra with
    its Ad(g) image; the components are the diagonal sign matrices lying in
    both subgroups (membership tested exactly on both sides).
    """
    nn = fam.ambient_dim
    g = build_g_theta(fam, ang)
    gt = g.transpose()
    basis = _lie_h_basis(nn)
    h_flat = Subspace.from_vectors([m.entries for m in basis], nn * nn)
    adg_flat = Subspace.from_vectors([((g * m) * gt).entries for m in basis], nn * nn)
    lie = subspace_intersect(h_flat, adg_flat)

    comps = []
    for signs in itertools.product((ONE, MINUS_ONE), repeat=nn):
        d = ExactMatrix.diagonal(signs)
        if not fam.contains(d):
            continue
        if not fam.contains((gt * d) * g):
            continue
        comps.append(d)
    return SubgroupDescriptor(nn, lie, tuple(comps))


def centralizer_of_descriptor(d: SubgroupDescriptor):
    """All ambient elements commuting with the descriptor, if finitely many.

    The commutant of the generators is computed exactly.  When its canonical
    basis consists of disjoint 0/1 diagonal block indicators covering every
    coordinate, the centralizer inside the ambient rotation group is the
    finite set of determinant-one sign matrices constant on those blocks, and
    that list is returned after an exact commutation recheck.  Any other
    commutant shape (a rotation block, a non-unit entry) means the
    centralizer has positive dimension: NotSignPattern.
    """
    nn = d.ambient_dim
    comm = commutant(d.generators())
    blocks = []
    for vec in comm.basis:
        mat = unflatten_matrix(vec, nn)
        support = []
        for i in range(nn):
            for j in range(nn):
                e = mat[i, j]
                if i == j:
                    if e == ONE:
                        support.append(i)
                    elif not e.is_zero():
                        return NotSignPattern("diagonal entry is not 0 or 1", comm.dim)
                elif not e.is_zero():
                    return NotSignPattern("commutant has an off-diagonal block", comm.dim)
        blocks.append(tuple(support))

    flat = [i for b in blocks for i in b]
    if len(set(flat)) != len(flat) or set(flat) != set(range(nn)):
        return NotSignPattern("indicator blocks overlap or miss coordinates", comm.dim)

    out = []
    for signs in itertools.product((ONE, MINUS_ONE), repeat=len(blocks)):
        diag = [None] * nn
        det_neg = False
        for s, block in zip(signs, blocks):
            for i in block:
                diag[i] = s
            if s == MINUS_ONE and len(block) % 2 == 1:
                det_neg = not det_neg
        if det_neg:
            continue
        out.append(ExactMatrix.diagonal(diag))

    gens = d.generators()
    for z in out:
        for m in gens:
            if not z.commutes_with(m):
                raise GroupError("sign pattern fails exact commutation recheck")
    return out


# --- the decision cascade ---------------------------------------------------------


class Eq2Verdict:
    """One angle's answer, with the inputs for reporting.

    ``outcome`` is "holds", "fails" or "undecided".  A holding angle names
    its ``route``; a failing one took the route "translate-scan"; both carry
    ``translates_checked`` when translates were enumerated.  An undecided
    angle carries the ``reason`` its centralizer is not of sign-pattern type.
    """

    __slots__ = ("family", "angle", "outcome", "route", "translates_checked", "reason")

    def __init__(self, family: SymPairFamily, angle: Angle, outcome: str,
                 route: str | None = None, translates_checked: int | None = None,
                 reason: str | None = None):
        self.family = family
        self.angle = angle
        self.outcome = outcome
        self.route = route
        self.translates_checked = translates_checked
        self.reason = reason

    def to_json(self) -> dict:
        out = {
            "family": self.family.kind,
            "n": self.family.n,
            "condition": self.family.condition_label,
            "k": self.angle.k,
            "m": self.angle.m,
            "outcome": self.outcome,
        }
        for key in ("route", "translates_checked", "reason"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def __repr__(self):
        return "Eq2Verdict(%s, route=%r, translates_checked=%r, reason=%r)" % (
            self.outcome, self.route, self.translates_checked, self.reason)


def decide_eq2(fam: SymPairFamily, ang: Angle) -> Eq2Verdict:
    """Does the rotation lie in Z(K) H?  Decided by a three-step cascade.

    (a) If g commutes with every descriptor generator it sits in Z(K).
    (b) If g lies in H the product membership is trivial.
    (c) Otherwise enumerate the centralizer (finite sign patterns only) and
        test each translate z^-1 g for membership in H; exhaustion is a
        definite failure because the enumeration is the whole centralizer.
    A non-sign-pattern centralizer yields Undecided.
    """
    desc = intersection_descriptor(fam, ang)
    g = build_g_theta(fam, ang)

    if all(g.commutes_with(x) for x in desc.generators()):
        return Eq2Verdict(fam, ang, "holds", route="g centralizes the intersection")
    if fam.contains(g):
        return Eq2Verdict(fam, ang, "holds", route="g lies in the subgroup")

    cz = centralizer_of_descriptor(desc)
    if isinstance(cz, NotSignPattern):
        return Eq2Verdict(fam, ang, "undecided", reason=cz.reason)
    for count, z in enumerate(cz, start=1):
        if fam.contains(z.transpose() * g):
            return Eq2Verdict(fam, ang, "holds",
                              route="a centralizer translate lies in the subgroup",
                              translates_checked=count)
    return Eq2Verdict(fam, ang, "fails", route="translate-scan",
                      translates_checked=len(cz))


def scan_grid(denominators) -> list:
    """The angles 2*pi*k/m a scan visits, as (k, m) pairs ordered by (m, k).

    Angle.make(k, m) needs the conductor lcm(m, 4), so a denominator whose
    conductor exceeds ``CONDUCTOR_CAP`` is refused before any pair is built.
    """
    ms = sorted(set(int(m) for m in denominators))
    for m in ms:
        check_conductor(lcm(m, 4))
    return [(k, m) for m in ms for k in range(m)]


def closed_form_outcome(kind: str, k: int, m: int) -> str:
    """The classification's outcome at angle 2*pi*k/m: "fails" or "holds".

    The reflection-fixed family fails exactly at the quarter and
    three-quarter turns (k/m = 1/4 or 3/4); the last-vector stabilizer
    never fails.
    """
    if kind == KIND_O_ODD and 4 * k in (m, 3 * m):
        return "fails"
    return "holds"


def scan_angles(kind: str, n: int, denominators, cap: int | None = None) -> list:
    """decide_eq2 over every angle of scan_grid(denominators), in its order.

    Each angle enumerates the 2^(2n+2) diagonal sign matrices of SO(2n+2),
    and at most that many centralizer translates.  When that count exceeds
    ``cap`` (default: ``default_closure_cap()``), ClosureCapError is raised
    before any angle is scanned.  The count is compared by bit length, as
    2^d > cap iff d >= cap.bit_length() for cap >= 1, so a huge n is refused
    without forming 2^(2n+2).
    """
    fam = SymPairFamily(kind, n)
    if cap is None:
        cap = default_closure_cap()
    dim = fam.ambient_dim
    if cap < 1 or dim >= cap.bit_length():
        signs = "%d" % (2 ** dim,) if dim <= 64 else "2^(2n+2)"
        raise ClosureCapError("the scan enumerates %s sign matrices, over the cap of %d"
                              % (signs, cap))
    return [decide_eq2(fam, Angle.make(k, m)) for k, m in scan_grid(denominators)]
