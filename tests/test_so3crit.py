"""Rotation centralizers and the character-count criterion.

Pinned counts for the four-generator family come from the independent
closure computation in tests/oracles/quat_triple_counts.py: rotation group
of order 64, commuting-triple group of order 8 splitting into 8 classes
with exactly one liftable, mod-squares quotient of order 16 against a
character group of order 16.

so3crit reads rotations from their quaternion lifts; the matrix path it
replaced (the 3x3 rotation matrix rot of a lift, axes by nullspace,
half-turn matrices closed in SO(3)) stays here as the reference that
so3_centralizer and elements_conjugate are checked against.
"""

import itertools
import math

import pytest

from acceptcert.exactalg import (
    ExactMatrix,
    ONE,
    ZERO,
    cyc_half,
    cyc_i,
    cyc_rational,
    cyc_zeta,
    nullspace,
    sqrt_rational,
)
from acceptcert.conjtest import elements_conjugate
from acceptcert.grpcore import (
    AmbientElement,
    GroupError,
    GroupSpec,
    QUAT_I,
    QUAT_J,
    QUAT_K,
    Quat,
    sp1_factor,
)
from acceptcert.homcheck import (
    GloballyConjugate,
    NotGloballyConjugate,
    decide_global,
    is_element_conjugate,
)
from acceptcert.fingrp import ClosureCapError, GroupStructureError, closure
from acceptcert.certsuite import criterion_generator_quats, eta_quat
from acceptcert.so3crit import (
    InfiniteCentralizer,
    build_witness_pair,
    compute_X,
    decide_criterion,
    gamma_bar_prime,
    rotation_group_from_quats,
    rotation_triple,
    so3_centralizer,
    standard_criterion_group,
)


def rot(q):
    """Rotation matrix of v -> q v q^-1 on the span of i, j, k (unit q)."""
    a, b, c, d = q.a, q.b, q.c, q.d
    two = cyc_rational(2)
    aa, bb, cc, dd = a * a, b * b, c * c, d * d
    return ExactMatrix.make([
        [aa + bb - cc - dd, two * (b * c - a * d), two * (b * d + a * c)],
        [two * (b * c + a * d), aa - bb + cc - dd, two * (c * d - a * b)],
        [two * (b * d - a * c), two * (c * d + a * b), aa - bb - cc + dd],
    ])


# --- reference: rotation data from 3x3 matrices -----------------------------------


def _canonical_direction(vec):
    lead = next(v for v in vec if not v.is_zero()).inverse()
    return tuple(lead * v for v in vec)


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), ZERO)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def reference_rotation_info(m):
    """(axis, is_half_turn) of a rotation matrix, axis None for the identity.

    The axis spans the fixed space (nullspace of m - I), scaled so its first
    nonzero coordinate is one; a rotation is a half-turn iff its trace is -1.
    """
    fixed = nullspace(m - ExactMatrix.identity(3))
    if fixed.dim == 3:
        return None, False
    assert fixed.dim == 1
    axis = _canonical_direction(fixed.basis[0])
    return axis, m.trace() == -ONE


def reference_half_turn(axis):
    """The rotation by a half turn about ``axis``: 2 vv^T / (v^T v) - I."""
    inv = _dot(axis, axis).inverse()
    return ExactMatrix.make(
        [[cyc_rational(2) * axis[i] * axis[j] * inv - (ONE if i == j else ZERO)
          for j in range(3)] for i in range(3)])


def reference_so3_centralizer(mats):
    """The matrix path: axes by nullspace, screened half-turn matrices, closure."""
    infos = [reference_rotation_info(m) for m in mats]
    infos = [info for info in infos if info[0] is not None]
    if not infos:
        return InfiniteCentralizer("every rotation in the family is the identity")
    if all(axis == infos[0][0] for axis, _ in infos):
        return InfiniteCentralizer("all rotation axes are parallel")
    candidates = dict.fromkeys(axis for axis, _ in infos)
    for i, (a, _) in enumerate(infos):
        for b, _ in infos[i + 1 :]:
            if a != b:
                candidates.setdefault(_canonical_direction(_cross(a, b)))
    members = [ExactMatrix.identity(3)]
    for axis in candidates:
        if all(other == axis or (half and _dot(other, axis).is_zero())
               for other, half in infos):
            turn = reference_half_turn(axis)
            assert all(turn.commutes_with(m) for m in mats)
            members.append(turn)
    return closure(members)


def octahedral_generators():
    """(1 + i)/sqrt(2) and (1 + j)/sqrt(2): quarter turns about two axes."""
    h = sqrt_rational(2) * cyc_half()
    return Quat.make(h, h, ZERO, ZERO), Quat.make(h, ZERO, h, ZERO)


def octahedral_lifts():
    """One unit-quaternion lift of each of the 24 octahedral rotations."""
    gens = octahedral_generators()
    lifts = {}
    for q in closure(gens):
        lifts.setdefault(rot(q), q)
    assert set(lifts) == set(closure([rot(q) for q in gens]).elements)
    return list(lifts.values())


def slot_families():
    quats = octahedral_lifts()
    assert len(quats) == 24
    families = [[q] for q in quats] + [list(f) for f in itertools.combinations(quats, 2)]
    for name in sorted(ROTATION_FAMILIES):
        gbar = rotation_group_from_quats(ROTATION_FAMILIES[name]())
        families.extend([x.rep.parts[pos] for x in gbar] for pos in range(3))
    return families


def test_quaternion_centralizer_matches_the_matrix_path():
    families = slot_families()
    assert len(families) == 300 + 3 * len(ROTATION_FAMILIES)
    for quats in families:
        lifts = so3_centralizer(quats)
        reference = reference_so3_centralizer(list(dict.fromkeys(rot(q) for q in quats)))
        if isinstance(reference, InfiniteCentralizer):
            assert isinstance(lifts, InfiniteCentralizer)
            assert lifts.reason == reference.reason
            continue
        assert not isinstance(lifts, InfiniteCentralizer), lifts
        assert all(q.a.is_zero() and q.is_unit() for q in lifts)
        rotations = [ExactMatrix.identity(3)] + [rot(q) for q in lifts]
        assert len(set(rotations)) == len(rotations)
        assert set(rotations) == set(reference.elements)


def test_rotation_conjugacy_matches_equal_traces():
    # SO(3) is Sp(1) with its -1 in Z; rotations are conjugate iff traces agree
    so3 = GroupSpec((sp1_factor(),), center_gens=((-Quat.one(),),))
    quats = octahedral_lifts()
    elems = [so3.wrap_parts((q,)) for q in quats]
    traces = [rot(q).trace() for q in quats]
    assert len(set(elems)) == 24
    assert len(set(traces)) == 4  # turns by 0, 1/4, 1/3 and 1/2
    for x, tx in zip(elems, traces):
        for y, ty in zip(elems, traces):
            assert elements_conjugate(so3, x, y) == (tx == ty)


def test_so3_centralizer_of_a_klein_four():
    assert set(so3_centralizer([QUAT_I, QUAT_J])) == {QUAT_I, QUAT_J, QUAT_K}


def test_so3_centralizer_degenerate_cases():
    identity = so3_centralizer([Quat.one(), -Quat.one()])
    assert isinstance(identity, InfiniteCentralizer)
    assert "identity" in identity.reason
    parallel = so3_centralizer([QUAT_I, eta_quat()])
    assert isinstance(parallel, InfiniteCentralizer)
    assert "parallel" in parallel.reason


def turn_quat(m):
    """cos(2 pi/m) + sin(2 pi/m) i: a unit quaternion of order m."""
    z = cyc_zeta(m)
    return Quat.make((z + z.inverse()) * cyc_half(),
                     (z - z.inverse()) * cyc_half() * cyc_i().inverse(), ZERO, ZERO)


def test_rotation_group_refuses_a_generator_of_infinite_order():
    # order m quaternions pass for every m, 2 mod 4 and real-part-rational ones
    # included; the rotation of such a q has order m / gcd(m, 2)
    for m in range(1, 17):
        q = turn_quat(m)
        gbar = rotation_group_from_quats([(q, Quat.one(), q)])
        assert gbar.order == m // math.gcd(m, 2)
    endless = Quat.make(cyc_rational(3) / 5, cyc_rational(4) / 5, ZERO, ZERO)
    with pytest.raises(GroupError, match=r"generators\[1\], slot 2 of 1-3, has infinite order"):
        rotation_group_from_quats([(QUAT_I, QUAT_J, QUAT_K), (QUAT_I, endless, QUAT_K)])
    # two half-turns whose product has infinite order: the slot group is refused
    tilted = Quat.make(ZERO, cyc_rational(3) / 5, cyc_rational(4) / 5, ZERO)
    slot_one = [(QUAT_I, QUAT_I, QUAT_I), (tilted, QUAT_I, QUAT_I)]
    with pytest.raises(GroupError, match="slot 1 of 1-3 generate an infinite group"):
        rotation_group_from_quats(slot_one)
    with pytest.raises(ClosureCapError):  # a cap under the bound reports itself
        rotation_group_from_quats(slot_one, cap=500)


def test_standard_group_shape():
    g = standard_criterion_group()
    assert len(g.z_subgroup) == 4
    assert len(g.center_elements()) == 2


def pinned_rotation_group():
    return rotation_group_from_quats(criterion_generator_quats())


def test_pinned_family_counts():
    g = standard_criterion_group()
    gbar = pinned_rotation_group()
    assert gbar.order == 64

    split = compute_X(g, gbar)
    assert not isinstance(split, InfiniteCentralizer)
    assert split.z_centralizer.order == 8
    assert split.liftable.order == 1
    assert split.classes.order == 8

    prime = gamma_bar_prime(gbar)
    assert prime.order == 4
    assert gbar.is_normal_subset(prime.elements)

    report = decide_criterion(g, gbar)
    assert not isinstance(report, InfiniteCentralizer)
    assert report.quotient_order == 16
    assert report.y_order == 16
    assert report.phi_injective
    assert not report.phi_surjective
    assert report.witness_chi is not None
    assert len(report.character_images) == 8


def test_pinned_family_witness_pair():
    g = standard_criterion_group()
    gbar = pinned_rotation_group()
    report = decide_criterion(g, gbar)
    pair = build_witness_pair(report, g, gbar)
    assert pair.src.order == 128
    ok, first_fail = is_element_conjugate(pair)
    assert ok and first_fail is None
    verdict = decide_global(pair)
    assert isinstance(verdict, NotGloballyConjugate)


def test_klein_family_is_surjective():
    g = standard_criterion_group()
    gbar = rotation_group_from_quats(((QUAT_I,) * 3, (QUAT_J,) * 3))
    assert gbar.order == 4
    report = decide_criterion(g, gbar)
    assert not isinstance(report, InfiniteCentralizer)
    assert report.x_order == 4
    assert report.quotient_order == 4
    assert report.y_order == 4
    assert report.phi_surjective
    assert report.witness_chi is None
    with pytest.raises(GroupStructureError):
        build_witness_pair(report, g, gbar)


ROTATION_FAMILIES = {
    "pinned": criterion_generator_quats,
    "klein": lambda: ((QUAT_I,) * 3, (QUAT_J,) * 3),
    "octahedral": lambda: tuple((q,) * 3 for q in octahedral_generators()),
}


def test_octahedral_family_has_a_trivial_centralizer():
    g = standard_criterion_group()
    gbar = rotation_group_from_quats(ROTATION_FAMILIES["octahedral"]())
    assert gbar.order == 24
    report = decide_criterion(g, gbar)
    assert report.z_centralizer_order == report.x_order == report.y_order == 1
    assert report.phi_surjective


@pytest.mark.parametrize("name", sorted(ROTATION_FAMILIES))
def test_rotation_triples_are_identified_by_their_rotations(name):
    gens = ROTATION_FAMILIES[name]()
    gbar = rotation_group_from_quats(gens)
    rots = [tuple(rot(q) for q in x.rep.parts) for x in gbar]
    for x, rx in zip(gbar, rots):
        for y, ry in zip(gbar, rots):
            assert (x == y) == (rx == ry)
        # every other lift of the same rotations is the same element
        first, second, third = x.rep.parts
        assert rotation_triple((-first, second, -third)) == x
    # independent path: close the triples of rotation matrices themselves
    reference = closure([AmbientElement(tuple(rot(q) for q in t)) for t in gens])
    assert len(set(rots)) == gbar.order == reference.order
    assert set(rots) == {x.parts for x in reference}


def test_rotation_triple_requires_units():
    with pytest.raises(GroupError):
        rotation_triple((QUAT_I, QUAT_J, Quat.make(ONE, ONE, ZERO, ZERO)))
