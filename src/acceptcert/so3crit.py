"""Character-count criterion on the quotient of three Sp(1) factors.

The target group is Sp(1)^3 modulo the central pairs (1,-1,-1) and (-1,1,-1).
The input is a finite rotation group in SO(3)^3, which is the central
quotient Sp(1)^3 / {+-1}^3 (see _rotation_space): each rotation triple is a
fingrp.CosetElement held by its least quaternion lift.  Two counts are
compared: the central characters admitted by the rotation group
(homomorphisms from its mod-squares quotient into the center of the target),
and the characters that conjugation by a lifted centralizer element can
actually realise.  Every realised character comes from a distinct
centralizer class; when some character is missed, an explicit homomorphism
pair into the target is built that is element-conjugate but not globally
conjugate, and the pair is re-verified from scratch by the generic decision
procedures.

Every rotation is read from a quaternion lift q = a + v, never from a 3x3
matrix: it is the identity iff v = 0, a half-turn iff a = 0, and otherwise
turns about the axis v; the half-turn about a pure unit u commutes with it
iff u x v = 0, or a = 0 and u.v = 0 (proof in so3_centralizer).
Centralizers of rotation families are finite only when the family pins down
every axis.  The degenerate cases return a typed InfiniteCentralizer value
instead of raising: "the test does not apply here" is an answer, not a
failure of the machinery.  A generator of infinite order, or a slot whose
rotations generate an infinite group, is refused before the closure in
SO(3)^3 (rotation_group_from_quats).
"""

from __future__ import annotations

import itertools
import math

from .exactalg import CONDUCTOR_CAP, ZERO, sqrt_rational
from .fingrp import (
    ClosureCapError,
    CosetElement,
    FinGroup,
    GroupStructureError,
    Hom,
    closure,
    default_closure_cap,
    hom_set_to_elem_abelian_2,
    identity_hom,
    quotient_by_central,
)
from .grpcore import (
    AmbientElement,
    GroupError,
    GroupSpec,
    Quat,
    sp1_factor,
)
from .homcheck import HomPair


class InjectivityViolation(GroupStructureError):
    """Two distinct centralizer classes produced the same character.

    This cannot happen when the inputs satisfy the documented preconditions;
    seeing it means the computation would be unsound, so it is raised rather
    than reported.
    """


class InfiniteCentralizer:
    """Typed non-failure result: the relevant centralizer is not finite."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return "InfiniteCentralizer(%r)" % (self.reason,)


# --- rotation geometry from quaternion lifts -------------------------------------


def _canonical_direction(vec):
    vec = tuple(vec)
    for v in vec:
        if not v.is_zero():
            inv = v.inverse()
            return tuple(inv * w for w in vec)
    raise GroupError("the zero vector has no direction")


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _half_turn_lift(axis) -> Quat:
    """Unit quaternion along ``axis`` (pure imaginary, so a half-turn lift).

    Only axes whose squared length is rational are supported; that covers
    every axis a finite rotation family can produce here.
    """
    s = _dot(axis, axis)
    if not s.is_rational():
        raise GroupError("axis length squared is not rational; no exact lift")
    scale = sqrt_rational(s.rational()).inverse()
    return Quat.make(ZERO, axis[0] * scale, axis[1] * scale, axis[2] * scale)


# --- centralizers of finite rotation families -----------------------------------


def so3_centralizer(quats):
    """Half-turn lifts spanning the centralizer in SO(3) of a rotation family.

    ``quats`` are unit quaternions; each q = a + v stands for its rotation
    x -> q x q^-1, which is the identity iff v = 0, a half-turn iff a = 0,
    and otherwise turns about the axis v.  The half-turn about a pure unit u
    commutes with that rotation iff uq = +-qu (the adjoint map has kernel
    +-1).  Since uq - qu = 2 u x v and uq + qu = 2(a u - u.v), that is iff
    u x v = 0, or a = 0 and u.v = 0: the screen below, on canonical axes.

    A rotation c != 1 with axis p commuting with a rotation r != 1 about w
    maps w to c(w) = +-w.  If c(w) = w then p is parallel to w; if
    c(w) = -w then c is a half-turn about p perpendicular to w, and
    c r c^-1 = r^-1 forces r to be a half-turn.  So with at least two
    non-parallel axes in the family every c != 1 in the centralizer is a
    half-turn whose axis is an element axis or, being perpendicular to two
    non-parallel axes, parallel to their cross product.  Those candidates
    are screened exactly, so the returned lifts are the half-turns of the
    centralizer: with the identity they make the whole (finite) centralizer.
    Families with no rotation at all, or with a single shared axis, have a
    one-parameter centralizer and yield InfiniteCentralizer.
    """
    turns = list(dict.fromkeys(
        (_canonical_direction((q.b, q.c, q.d)), q.a.is_zero())
        for q in dict.fromkeys(quats)
        if not (q.b.is_zero() and q.c.is_zero() and q.d.is_zero())))
    if not turns:
        return InfiniteCentralizer("every rotation in the family is the identity")
    axes = list(dict.fromkeys(axis for axis, _ in turns))
    if len(axes) == 1:
        return InfiniteCentralizer("all rotation axes are parallel")

    candidates = dict.fromkeys(axes)
    for i, a in enumerate(axes):
        for b in axes[i + 1 :]:
            candidates.setdefault(_canonical_direction(_cross(a, b)))
    return [
        _half_turn_lift(u) for u in candidates
        if all(axis == u or (half and _dot(axis, u).is_zero()) for axis, half in turns)
    ]


# --- rotation triples as cosets of quaternion triples ----------------------------


_ROTATION_SPACE = None


def _rotation_space() -> GroupSpec:
    """SO(3)^3 as Sp(1)^3 modulo all eight sign triples, built on first use.

    The adjoint map q -> (x -> q x q^-1) is onto SO(3) with kernel {+-1},
    so Sp(1)^3 / {+-1}^3 is SO(3)^3.  Its elements are fingrp.CosetElements
    held by their least quaternion lift: two are equal iff their rotation
    triples are, and they commute iff their rotations commute.  Cosets
    multiply only within one context, so every rotation triple shares this
    one; it is built when first needed, since building it closes Z.
    """
    global _ROTATION_SPACE
    if _ROTATION_SPACE is None:
        one = Quat.one()
        m = -one
        _ROTATION_SPACE = GroupSpec(
            (sp1_factor(),) * 3,
            center_gens=((m, one, one), (one, m, one), (one, one, m)))
    return _ROTATION_SPACE


def rotation_triple(quats) -> CosetElement:
    """The element of SO(3)^3 with these three unit-quaternion lifts.

    GroupSpec.element refuses a count other than three, and Factor.validate
    anything that is not a unit quaternion.  Any lift of a coset serves
    wherever one is needed: ``x.rep`` is the least one, ``x.rep.parts`` its
    quaternions, and the adjoint action of a part is the slot's rotation.
    """
    return _rotation_space().wrap_parts(quats)


def _has_finite_order(q: Quat) -> bool:
    """Whether the unit quaternion q has finite order, by q^L == 1.

    L = lcm(2 n, 12) with n = q.a.n, the least conductor of the real part.
    If q has order M it is conjugate in Sp(1) to a primitive M-th root of
    unity z, so a = (z + 1/z)/2 and Q(a) is the real subfield of Q(zeta_M).
    Its conductor n is M, or M/2 when M = 2 mod 4, unless the subfield is Q,
    which happens for M in {1, 2, 3, 4, 6} (Washington, Introduction to
    Cyclotomic Fields, ch. 3).  So M divides 2n or 12, hence L, and q^L = 1;
    a q of infinite order fails the test.  Repeated squaring makes about
    2 log2(L) quaternion products.
    """
    exp = math.lcm(2 * q.a.n, 12)
    power, base = Quat.one(), q
    while exp:
        if exp & 1:
            power = power * base
        base = base * base
        exp >>= 1
    return power.is_identity()


# A finite rotation group here has at most 960 elements; the proof is in
# rotation_group_from_quats.
_SLOT_ORDER_BOUND = max(4 * CONDUCTOR_CAP, 60)


def rotation_group_from_quats(triples, cap: int | None = None) -> FinGroup:
    """Closure in SO(3)^3 of the rotations of the given quaternion triples.

    An infinite group would make the closure run until its cap, so two
    checks come first, each refusing with GroupError.  Every unit
    quaternion must have finite order (_has_finite_order).  Then each slot's
    rotations are closed alone in SO(3) = Sp(1)/{+-1}, with cap
    min(cap, _SLOT_ORDER_BOUND), and a slot group past the bound is infinite:

    Every element of a slot group is a product of the slot's generators, so
    its lift q has a real part of conductor n <= CONDUCTOR_CAP (exact
    arithmetic refuses larger ones).  If the group is finite, q has finite
    order M, and n is M or M/2 unless M <= 6 (_has_finite_order), so the
    rotation's order, M or M/2, is at most 2 CONDUCTOR_CAP.  A finite
    subgroup of SO(3) is cyclic (of order at most 2 CONDUCTOR_CAP here),
    dihedral (at most 4 CONDUCTOR_CAP) or of order 12, 24 or 60, so it has
    at most _SLOT_ORDER_BOUND elements.  A slot group is a projection of the
    group in SO(3)^3, so when the cap is the smaller bound, the slot
    closure's ClosureCapError is the one the full closure would raise.
    """
    gens = [rotation_triple(t) for t in triples]
    for pos, t in enumerate(gens):
        for slot, q in enumerate(t.rep.parts):
            if not _has_finite_order(q):
                raise GroupError("generators[%d], slot %d of 1-3, has infinite order"
                                 % (pos, slot + 1))
    limit = default_closure_cap() if cap is None else cap
    so3 = GroupSpec((sp1_factor(),), center_gens=((-Quat.one(),),))
    for slot in range(3):
        try:
            closure([so3.wrap_parts((t.rep.parts[slot],), validate=False) for t in gens],
                    cap=min(limit, _SLOT_ORDER_BOUND))
        except ClosureCapError:
            if limit <= _SLOT_ORDER_BOUND:
                raise
            raise GroupError("the rotations in slot %d of 1-3 generate an infinite "
                             "group (over %d elements)" % (slot + 1, _SLOT_ORDER_BOUND))
    return closure(gens, cap=cap)


def standard_criterion_group() -> GroupSpec:
    """Sp(1)^3 modulo the central subgroup generated by (1,-1,-1) and (-1,1,-1)."""
    one = Quat.one()
    m = -one
    return GroupSpec(
        (sp1_factor(), sp1_factor(), sp1_factor()),
        center_gens=((one, m, m), (m, one, m)),
    )


def _require_criterion_group(g: GroupSpec) -> None:
    if len(g.factors) != 3 or any(f.kind != "Sp1" for f in g.factors):
        raise GroupError("the criterion lives on a product of three Sp(1) factors")
    if g.z_subgroup != standard_criterion_group().z_subgroup:
        raise GroupError(
            "central subgroup must be generated by (1,-1,-1) and (-1,1,-1)")


# --- the two counts -------------------------------------------------------------


def gamma_bar_prime(gbar: FinGroup, cap: int | None = None) -> FinGroup:
    """Subgroup generated by all squares plus the elements with no half-turn slot.

    The quotient by this subgroup is where characters live.  The returned
    subgroup is verified normal and verified to contain every square, which
    forces the quotient to be an elementary abelian 2-group.  A slot is a
    half-turn iff its trace is -1; the adjoint trace of a unit quaternion
    a + bi + cj + dk is 3a^2 - b^2 - c^2 - d^2 = 4a^2 - 1, so that happens iff
    a = 0, for either lift +-q.
    """
    gens = [x for x in gbar if not any(q.a.is_zero() for q in x.rep.parts)]
    gens.extend(x * x for x in gbar)
    sub = closure(list(dict.fromkeys(gens)), cap=cap if cap is not None else gbar.order)
    for x in sub:
        gbar.idx(x)
    if not gbar.is_normal_subset(sub.elements):
        raise GroupStructureError("square-and-no-half-turn subgroup is not normal")
    for x in gbar:
        if x * x not in sub:
            raise GroupStructureError("a square escaped the subgroup")
    return sub


class CentralizerSplit:
    """Rotation centralizer, its liftable part, and the quotient between them.

    ``z_centralizer`` is the centralizer of the input group in SO(3)^3;
    ``liftable`` is the subgroup of elements with some quaternion lift that
    centralizes the full preimage of the input inside the target group;
    ``classes`` is z_centralizer modulo liftable with ``projection`` the
    quotient map.  Characters are computed per class.
    """

    __slots__ = ("z_centralizer", "liftable", "classes", "projection")

    def __init__(self, z_centralizer, liftable, classes, projection):
        self.z_centralizer = z_centralizer
        self.liftable = liftable
        self.classes = classes
        self.projection = projection


def _has_centralizing_lift(trip, gen_lifts, central_set) -> bool:
    for signs in itertools.product((1, -1), repeat=3):
        parts = tuple(q if s == 1 else -q for q, s in zip(trip.rep.parts, signs))
        cand = AmbientElement.make(parts)
        inv = cand.inverse()
        if all((cand * x) * (inv * x.inverse()) in central_set for x in gen_lifts):
            return True
    return False


def compute_X(g: GroupSpec, gbar: FinGroup):
    """Split the centralizer of ``gbar`` by which elements lift to the target.

    The centralizer in SO(3)^3 is the product of the per-slot centralizers of
    the slot projections; when any slot centralizer is infinite the whole
    computation is off and an InfiniteCentralizer is returned.  Otherwise
    each slot's half-turn lifts (so3_centralizer) are put in their slot, with
    1 in the other two, and closed once in SO(3)^3: that closure is the
    product of the slot centralizers.  An element is liftable when one of
    its eight quaternion lifts commutes with every lifted generator up to
    the quotiented central subgroup, and the result is the quotient of the
    centralizer by the liftable part.  The exact recheck that each
    centralizer element commutes with ``gbar`` compares cosets over the
    generators only: cosets commute iff their rotations do, and an element
    commutes with a group iff it commutes with a generating set.
    """
    _require_criterion_group(g)
    space = _rotation_space()
    one = Quat.one()
    slot_gens = []
    for pos in range(3):
        lifts = so3_centralizer(x.rep.parts[pos] for x in gbar)
        if isinstance(lifts, InfiniteCentralizer):
            return InfiniteCentralizer("slot %d: %s" % (pos + 1, lifts.reason))
        for u in lifts:
            parts = [one, one, one]
            parts[pos] = u
            slot_gens.append(space.wrap_parts(parts, validate=False))
    z_group = closure(slot_gens or [space.identity()])

    gens = gbar.generators() or gbar.elements
    for trip in z_group:
        for x in gens:
            if trip * x != x * trip:
                raise GroupStructureError("centralizer recheck failed")

    central_set = set(g.z_subgroup)
    gen_lifts = [x.rep for x in gens]
    liftable = [t for t in z_group if _has_centralizing_lift(t, gen_lifts, central_set)]
    lift_group = FinGroup(liftable)
    lift_group.gen_indices = tuple(range(lift_group.order))
    if closure(list(lift_group), cap=z_group.order).order != lift_group.order:
        raise GroupStructureError("liftable part is not closed under products")

    classes, projection = quotient_by_central(z_group, lift_group)
    return CentralizerSplit(z_group, lift_group, classes, projection)


# --- the criterion --------------------------------------------------------------


# The seven counts and verdicts of a criterion run, in report order; the
# ``crit_3a1`` certificate pins each of them.
CRITERION_FIELDS = (
    "z_centralizer_order",
    "liftable_order",
    "x_order",
    "quotient_order",
    "y_order",
    "phi_injective",
    "phi_surjective",
)


class CriterionReport:
    """Counts and verdicts from one run of the criterion.

    ``witness_chi`` is None when every character is realised; otherwise it is
    the first missed character in the deterministic enumeration order, as a
    verified homomorphism from the mod-squares quotient to the target center.
    """

    __slots__ = CRITERION_FIELDS + (
        "witness_chi",
        "split",
        "quotient_group",
        "quotient_projection",
        "character_images",
    )

    def __init__(self, split, quotient_group, quotient_projection, y_order,
                 phi_surjective, witness_chi, character_images):
        self.z_centralizer_order = split.z_centralizer.order
        self.liftable_order = split.liftable.order
        self.x_order = split.classes.order
        self.quotient_order = quotient_group.order
        self.y_order = y_order
        self.phi_injective = True
        self.phi_surjective = phi_surjective
        self.witness_chi = witness_chi
        self.split = split
        self.quotient_group = quotient_group
        self.quotient_projection = quotient_projection
        self.character_images = character_images

    def _chi_bits(self, hom: Hom):
        return [0 if v.is_identity() else 1 for v in hom.images]

    def to_json(self) -> dict:
        out = {name: getattr(self, name) for name in CRITERION_FIELDS}
        out["realised_characters"] = [self._chi_bits(h) for h in self.character_images]
        out["witness"] = None if self.witness_chi is None else self._chi_bits(self.witness_chi)
        return out


def _conjugation_character(g, gbar, quot, proj, zg_fin, trip) -> Hom:
    """Character x -> lift(c) x lift(c)^-1 x^-1 for one centralizer element c.

    The commutator lands in the center of the target because c centralizes
    the rotations; it is constant on cosets of the mod-squares quotient, and
    both facts are checked on every element rather than assumed.
    """
    lift = trip.rep
    inv = lift.inverse()
    per_coset = [None] * quot.order
    for i, x in enumerate(gbar.elements):
        xl = x.rep
        comm = (lift * xl) * (inv * xl.inverse())
        w = g.wrap(comm)
        if w not in zg_fin:
            raise GroupStructureError("conjugation character escaped the center")
        j = quot.idx(proj.apply_idx(i))
        if per_coset[j] is None:
            per_coset[j] = w
        elif per_coset[j] != w:
            raise GroupStructureError("conjugation character is not constant on cosets")
    if any(v is None for v in per_coset):
        raise GroupStructureError("projection missed a coset")
    return Hom(quot, zg_fin, tuple(per_coset))


def decide_criterion(g: GroupSpec, gbar: FinGroup, cap: int | None = None):
    """Compare realised characters against all characters; report the counts.

    Returns an InfiniteCentralizer when the rotation centralizer is not
    finite.  Raises InjectivityViolation if two centralizer classes realise
    the same character, which would make the class count meaningless.
    """
    split = compute_X(g, gbar)
    if isinstance(split, InfiniteCentralizer):
        return split
    prime = gamma_bar_prime(gbar, cap=cap)
    quot, proj = quotient_by_central(gbar, prime)
    zg_fin = FinGroup(g.center_elements())
    zg_fin.gen_indices = tuple(range(zg_fin.order))
    y_homs = hom_set_to_elem_abelian_2(quot, zg_fin)

    chis = [
        _conjugation_character(g, gbar, quot, proj, zg_fin, cls.rep)
        for cls in split.classes
    ]
    keys = [tuple(zg_fin.idx(v) for v in chi.images) for chi in chis]
    if len(set(keys)) != len(keys):
        raise InjectivityViolation("two centralizer classes realise one character")

    realised = set(keys)
    witness = None
    for h in y_homs:
        if tuple(zg_fin.idx(v) for v in h.images) not in realised:
            witness = h
            break
    return CriterionReport(
        split=split,
        quotient_group=quot,
        quotient_projection=proj,
        y_order=len(y_homs),
        phi_surjective=witness is None,
        witness_chi=witness,
        character_images=chis,
    )


def build_witness_pair(report: CriterionReport, g: GroupSpec, gbar: FinGroup,
                       cap: int | None = None) -> HomPair:
    """Homomorphism pair separating element conjugacy from global conjugacy.

    The source is the full preimage of the rotation group in the target; the
    first map is the inclusion and the second multiplies each element by the
    missed character of its image coset.  Each element's rotation triple is
    the coset of its ambient lift in SO(3)^3, and the generators of the
    preimage are the lifts of the rotation generators, plus (-1,-1,-1) when
    they alone miss it.  The second map is verified as a homomorphism
    (fingrp.Hom.verify).  Downstream the pair must test element-conjugate and
    not globally conjugate; that cross-check lives with the callers.
    """
    if report.witness_chi is None:
        raise GroupStructureError("every character is realised; no witness exists")
    chi = report.witness_chi
    proj = report.quotient_projection

    gens = list(gbar.generators() or gbar.elements)
    lifted = [g.wrap(t.rep) for t in gens]
    gamma = closure(lifted, cap=cap)
    if gamma.order != 2 * gbar.order:
        m = -Quat.one()
        lifted.append(g.wrap_parts((m, m, m)))
        gamma = closure(lifted, cap=cap)
    if gamma.order != 2 * gbar.order:
        raise GroupStructureError(
            "preimage closure has order %d, expected %d" % (gamma.order, 2 * gbar.order))

    space = _rotation_space()
    images = [chi.apply(proj.apply(space.wrap(x.rep))) * x for x in gamma]
    f = identity_hom(gamma, target=g)
    fprime = Hom(gamma, g, tuple(images))
    return HomPair(f, fprime)
