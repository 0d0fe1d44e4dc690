"""Rotation centralizers and the character-count criterion.

Pinned counts for the four-generator family come from the independent
closure computation in tests/oracles/quat_triple_counts.py: rotation group
of order 64, commuting-triple group of order 8 splitting into 8 classes
with exactly one liftable, mod-squares quotient of order 16 against a
character group of order 16.
"""

import pytest

from acceptcert.exactalg import ExactMatrix, ONE, ZERO, cyc_rational
from acceptcert.grpcore import GroupError, QUAT_I, QUAT_J, QUAT_K, Quat, adjoint_to_so3
from acceptcert.homcheck import (
    GloballyConjugate,
    NotGloballyConjugate,
    decide_global,
    is_element_conjugate,
)
from acceptcert.fingrp import GroupStructureError, closure
from acceptcert.certsuite import criterion_generator_quats, eta_quat
from acceptcert.so3crit import (
    InfiniteCentralizer,
    build_witness_pair,
    compute_X,
    decide_criterion,
    gamma_bar_prime,
    half_turn_about,
    rotation_group_from_quats,
    rotation_info,
    rotation_triple,
    so3_centralizer,
    standard_criterion_group,
)


def rot(q):
    return adjoint_to_so3(q)


def test_rotation_info_basic():
    ident = rotation_info(ExactMatrix.identity(3))
    assert ident.is_identity

    quarter = rotation_info(rot(eta_quat()))
    assert not quarter.is_identity
    assert not quarter.is_half_turn
    assert quarter.trace == ONE
    assert quarter.axis == (ONE, ZERO, ZERO)

    half = rotation_info(rot(QUAT_J))
    assert half.is_half_turn
    assert half.trace == -ONE
    assert half.axis == (ZERO, ONE, ZERO)


def test_rotation_info_rejects_non_rotations():
    with pytest.raises(GroupError):
        rotation_info(ExactMatrix.diagonal([ONE, ONE, -ONE]))
    with pytest.raises(GroupError):
        rotation_info(ExactMatrix.identity(2))


def test_half_turn_about_is_a_half_turn():
    two = cyc_rational(2)
    axis = (ONE, two, two)
    m = half_turn_about(axis)
    info = rotation_info(m)
    assert info.is_half_turn
    assert m.is_orthogonal() and m.det() == ONE
    x, y, z = axis
    image = tuple(m.row(i)[0] * x + m.row(i)[1] * y + m.row(i)[2] * z
                  for i in range(3))
    assert image == axis


def test_so3_centralizer_of_a_klein_four():
    group = closure([rot(QUAT_I), rot(QUAT_J)])
    cz = so3_centralizer(group.elements)
    assert not isinstance(cz, InfiniteCentralizer)
    assert cz.order == 4


def test_so3_centralizer_degenerate_cases():
    assert isinstance(so3_centralizer([ExactMatrix.identity(3)]),
                      InfiniteCentralizer)
    parallel = so3_centralizer([rot(QUAT_I), rot(eta_quat())])
    assert isinstance(parallel, InfiniteCentralizer)
    assert "parallel" in parallel.reason


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


def test_rotation_triple_requires_units():
    with pytest.raises(GroupError):
        rotation_triple((QUAT_I, QUAT_J, Quat.make(ONE, ONE, ZERO, ZERO)))
