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

Centralizers of rotation families are finite only when the family pins down
every axis.  The degenerate cases return a typed InfiniteCentralizer value
instead of raising: "the test does not apply here" is an answer, not a
failure of the machinery.
"""

from __future__ import annotations

import itertools

from .exactalg import (
    ExactMatrix,
    ONE,
    ZERO,
    cyc_rational,
    nullspace,
    sqrt_rational,
)
from .fingrp import (
    CosetElement,
    FinGroup,
    GroupStructureError,
    Hom,
    closure,
    hom_set_to_elem_abelian_2,
    identity_hom,
    quotient_by_central,
)
from .grpcore import (
    AmbientElement,
    GroupError,
    GroupSpec,
    Quat,
    adjoint_to_so3,
    sp1_factor,
)
from .homcheck import HomPair

MINUS_ONE = cyc_rational(-1)
TWO = cyc_rational(2)


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


# --- rotation geometry ----------------------------------------------------------


class RotationInfo:
    """Axis data of a single exact rotation.

    ``axis`` is the fixed direction scaled so its first nonzero coordinate is
    one, or None for the identity; parallel axes compare equal after that
    normalisation.  A rotation is a half-turn exactly when its trace is -1.
    """

    __slots__ = ("axis", "trace", "is_identity", "is_half_turn")

    def __init__(self, axis, trace, is_identity, is_half_turn):
        self.axis = axis
        self.trace = trace
        self.is_identity = is_identity
        self.is_half_turn = is_half_turn

    def __repr__(self):
        if self.is_identity:
            return "RotationInfo(identity)"
        return "RotationInfo(axis=%r, half_turn=%r)" % (self.axis, self.is_half_turn)


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


def rotation_info(m: ExactMatrix) -> RotationInfo:
    if m.rows != 3 or m.cols != 3:
        raise GroupError("rotation data must be 3x3")
    if not (m.is_real() and m.is_orthogonal() and m.det() == ONE):
        raise GroupError("matrix is not a rotation")
    tr = m.trace()
    fixed = nullspace(m - ExactMatrix.identity(3))
    if fixed.dim == 3:
        return RotationInfo(None, tr, True, False)
    if fixed.dim != 1:
        raise GroupError("rotation fixes a space of impossible dimension %d" % fixed.dim)
    axis = _canonical_direction(fixed.basis[0])
    return RotationInfo(axis, tr, False, tr == MINUS_ONE)


def half_turn_about(axis) -> ExactMatrix:
    """The rotation by a half turn about ``axis``: 2 vv^T / (v^T v) - I."""
    axis = tuple(axis)
    inv = _dot(axis, axis).inverse()
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            val = TWO * axis[i] * axis[j] * inv
            row.append(val - ONE if i == j else val)
        rows.append(row)
    return ExactMatrix.make(rows)


def _half_turn_lift(axis) -> Quat:
    """Unit quaternion along ``axis`` (pure imaginary, so a half-turn lift).

    Only axes whose squared length is rational are supported; that covers
    every axis a finite rotation family can produce here, and the result is
    checked against the rotation it came from at the call site.
    """
    s = _dot(axis, axis)
    if not s.is_rational():
        raise GroupError("axis length squared is not rational; no exact lift")
    scale = sqrt_rational(s.rational()).inverse()
    return Quat.make(ZERO, axis[0] * scale, axis[1] * scale, axis[2] * scale)


# --- centralizers of finite rotation and quaternion families --------------------


def so3_centralizer(delta: FinGroup, cap: int | None = None):
    """Centralizer in SO(3) of a finite rotation group, when it is finite.

    With at least two distinct rotation axes present the centralizer consists
    of the identity and of half-turns; candidate half-turn axes can only be
    element axes or cross products of two non-parallel element axes.  Each
    candidate is screened geometrically, then verified by exact matrix
    commutation, and the collection is closed.  Families with no rotation at
    all, or with a single shared axis, have a one-parameter centralizer and
    yield InfiniteCentralizer.
    """
    infos = [rotation_info(m) for m in delta]
    infos = [info for info in infos if not info.is_identity]
    if not infos:
        return InfiniteCentralizer("every rotation in the family is the identity")
    first = infos[0].axis
    if all(info.axis == first for info in infos):
        return InfiniteCentralizer("all rotation axes are parallel")

    candidates = dict.fromkeys(info.axis for info in infos)
    for i, a in enumerate(infos):
        for b in infos[i + 1 :]:
            if a.axis != b.axis:
                candidates.setdefault(_canonical_direction(_cross(a.axis, b.axis)))

    members = [ExactMatrix.identity(3)]
    for axis in candidates:
        ok = True
        for info in infos:
            if info.axis == axis:
                continue
            if info.is_half_turn and _dot(info.axis, axis).is_zero():
                continue
            ok = False
            break
        if not ok:
            continue
        turn = half_turn_about(axis)
        for m in delta:
            if not turn.commutes_with(m):
                raise GroupStructureError(
                    "half-turn passed the axis screen but fails to commute")
        members.append(turn)

    group = closure(members, cap=cap)
    for c in group:
        for m in delta:
            if not c.commutes_with(m):
                raise GroupStructureError("centralizer closure broke commutation")
    return group


# --- rotation triples as cosets of quaternion triples ----------------------------


_ROTATION_SPACE = None


def _rotation_space() -> GroupSpec:
    """SO(3)^3 as Sp(1)^3 modulo all eight sign triples, built on first use.

    The adjoint map q -> adjoint_to_so3(q) is onto SO(3) with kernel {+-1},
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
    quaternions, and ``adjoint_to_so3`` of a part is the slot's rotation.
    """
    return _rotation_space().wrap_parts(quats)


def rotation_group_from_quats(triples, cap: int | None = None) -> FinGroup:
    """Closure in SO(3)^3 of the rotations of the given quaternion triples."""
    return closure([rotation_triple(t) for t in triples], cap=cap)


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
    computation is off and an InfiniteCentralizer is returned.  Otherwise an
    element is liftable when one of its eight quaternion lifts commutes with
    every lifted generator up to the quotiented central subgroup, and the
    result is the quotient of the centralizer by the liftable part.  The
    recheck that each product element centralizes ``gbar`` compares cosets
    over the generators only: cosets commute iff their rotations do, and an
    element commutes with a group iff it commutes with a generating set.
    """
    _require_criterion_group(g)
    space = _rotation_space()
    per_slot = []
    for pos in range(3):
        slot = FinGroup([adjoint_to_so3(x.rep.parts[pos]) for x in gbar])
        cz = so3_centralizer(slot)
        if isinstance(cz, InfiniteCentralizer):
            return InfiniteCentralizer("slot %d: %s" % (pos + 1, cz.reason))
        lifts = []
        for m in cz:
            if m.is_identity():
                lifts.append(Quat.one())
                continue
            info = rotation_info(m)
            if not info.is_half_turn:
                raise GroupStructureError("finite centralizer holds a non-half-turn")
            q = _half_turn_lift(info.axis)
            if adjoint_to_so3(q) != m:
                raise GroupStructureError("lift does not project back to its rotation")
            lifts.append(q)
        per_slot.append(lifts)

    gens = gbar.generators() or gbar.elements
    triples = [space.wrap_parts(combo, validate=False)
               for combo in itertools.product(*per_slot)]
    for trip in triples:
        for x in gens:
            if trip * x != x * trip:
                raise GroupStructureError("centralizer recheck failed")
    z_group = FinGroup(triples)
    z_group.gen_indices = tuple(range(z_group.order))

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
