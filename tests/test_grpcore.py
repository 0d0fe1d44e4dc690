"""Quaternions, ambient factors, and central-quotient group specs."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from acceptcert import certsuite, grpcore, so3crit
from acceptcert.certsuite import run
from acceptcert.exactalg import ExactMatrix, ONE, ZERO, cyc_half, cyc_i, cyc_rational
from acceptcert.fingrp import GroupStructureError
from acceptcert.grpcore import (
    AmbientElement,
    GroupError,
    GroupSpec,
    QUAT_I,
    QUAT_J,
    QUAT_K,
    Quat,
    sp1_factor,
    su_factor,
)

MINUS_I4 = ExactMatrix.identity(4).scaled(cyc_rational(-1))


def adjoint_to_so3(q):
    """Rotation matrix of v -> q v q^-1 on the span of i, j, k (unit q).

    The 3x3 reference for SO(3) = Sp(1)/{+-1}; the package reads rotations
    from quaternion lifts only.  Columns are the images of i, j, k.
    """
    a, b, c, d = q.a, q.b, q.c, q.d
    two = cyc_rational(2)
    aa, bb, cc, dd = a * a, b * b, c * c, d * d
    return ExactMatrix.make([
        [aa + bb - cc - dd, two * (b * c - a * d), two * (b * d + a * c)],
        [two * (b * c + a * d), aa - bb + cc - dd, two * (c * d - a * b)],
        [two * (b * d - a * c), two * (c * d + a * b), aa - bb - cc + dd],
    ])


def unit_quat_pool():
    half = cyc_half()
    out = []
    for base in (Quat.one(), QUAT_I, QUAT_J, QUAT_K):
        out.append(base)
        out.append(-base)
    for sa in (half, -half):
        for sb in (half, -half):
            for sc in (half, -half):
                for sd in (half, -half):
                    out.append(Quat.make(sa, sb, sc, sd))
    return out


quats = st.sampled_from(unit_quat_pool())


def test_quaternion_multiplication_table():
    one = Quat.one()
    assert QUAT_I * QUAT_I == -one
    assert QUAT_J * QUAT_J == -one
    assert QUAT_K * QUAT_K == -one
    assert QUAT_I * QUAT_J == QUAT_K
    assert QUAT_J * QUAT_K == QUAT_I
    assert QUAT_K * QUAT_I == QUAT_J
    assert QUAT_J * QUAT_I == -QUAT_K


@settings(max_examples=80)
@given(quats, quats)
def test_conjugation_reverses_products(p, q):
    assert (p * q).conj() == q.conj() * p.conj()
    assert p * p.conj() == Quat.one() or not p.is_unit()


@settings(max_examples=80)
@given(quats, quats)
def test_adjoint_is_a_homomorphism_into_rotations(p, q):
    mp = adjoint_to_so3(p)
    assert mp.is_orthogonal()
    assert mp.det() == ONE
    assert adjoint_to_so3(p * q) == mp * adjoint_to_so3(q)


@settings(max_examples=80)
@given(quats)
def test_adjoint_kernel_is_the_sign(q):
    trivial = adjoint_to_so3(q).is_identity()
    assert trivial == (q == Quat.one() or q == -Quat.one())


def test_factor_validation():
    with pytest.raises(GroupError):
        su_factor(1)
    su = su_factor(4)
    su.validate(ExactMatrix.identity(4))
    su.validate(ExactMatrix.identity(4).scaled(cyc_i()))
    with pytest.raises(GroupError):
        su.validate(ExactMatrix.diagonal([cyc_i(), ONE, ONE, ONE]))
    with pytest.raises(GroupError):
        su.validate(ExactMatrix.identity(4).scaled(cyc_rational(2)))
    sp1_factor().validate(QUAT_I)
    with pytest.raises(GroupError):
        sp1_factor().validate(Quat.make(ONE, ONE, ZERO, ZERO))


def test_central_generators_must_be_central():
    with pytest.raises(GroupError):
        GroupSpec((su_factor(4),),
                  center_gens=((ExactMatrix.diagonal(
                      [ONE, ONE, -ONE, -ONE]),),))


def test_quotient_wrapping_identifies_cosets():
    g = GroupSpec((su_factor(4),), center_gens=((MINUS_I4,),))
    assert len(g.z_subgroup) == 2
    m = ExactMatrix.diagonal([ONE, cyc_i(), ONE, -cyc_i()])
    assert g.wrap_parts((m,)) == g.wrap_parts((m.scaled(cyc_rational(-1)),))
    assert g.wrap_parts((m,)) != g.wrap_parts((m.conj(),))
    assert g.identity().is_identity()


def test_quotient_elements_of_different_groups_do_not_multiply():
    g = GroupSpec((su_factor(4),), center_gens=((MINUS_I4,),))
    h = GroupSpec((su_factor(4),), center_gens=((MINUS_I4,),))
    m = ExactMatrix.diagonal([ONE, cyc_i(), ONE, -cyc_i()])
    with pytest.raises(GroupStructureError, match="different quotients"):
        g.wrap_parts((m,)) * h.wrap_parts((m,))


def reference_coset_rep(g, x):
    """The least z x over z in Z: the loop GroupSpec.coset_rep had of its own."""
    best = None
    for z in g.z_subgroup:
        cand = z * x
        if best is None or cand.sort_key() < best.sort_key():
            best = cand
    return best


def registry_pairs():
    """(name, pair) for every hom-pair certificate's grid and the crit_3a1 witness."""
    out = []
    for cert in certsuite.registry():
        if cert.kind == "hompair":
            for params in cert.param_grid:
                out.append(("%s %r" % (cert.id, params),
                            cert.build(params)[1]))
    g = so3crit.standard_criterion_group()
    gbar = so3crit.rotation_group_from_quats(certsuite.criterion_generator_quats())
    report = so3crit.decide_criterion(g, gbar)
    out.append(("crit_3a1 witness", so3crit.build_witness_pair(report, g, gbar)))
    return out


def test_coset_rep_is_the_least_central_translate_on_registry_images():
    pairs = registry_pairs()
    assert all(pair.target.is_quotient for _, pair in pairs)
    for name, pair in pairs:
        g = pair.target
        gens = pair.src.gen_indices
        for f in (pair.f, pair.fprime):
            for x in f.images:
                rep = g.ambient_of(x)
                assert rep == reference_coset_rep(g, rep), name
                for z in g.z_subgroup:
                    assert g.coset_rep(z * rep) == rep, name
                # coset products and inverses keep the least translate
                for k in gens:
                    prod = x * f.images[k]
                    assert prod.rep == reference_coset_rep(
                        g, rep * g.ambient_of(f.images[k])), name
                assert x.inverse().rep == reference_coset_rep(g, rep.inverse()), name


def test_coset_identity_test_is_membership_in_the_subgroup_on_registry_quotients():
    cosets = []
    for _, pair in registry_pairs():
        g = pair.target
        for f in (pair.f, pair.fprime):
            cosets.extend(f.images)
        cosets.extend(g.wrap(z) for z in g.z_subgroup)
    g = so3crit.standard_criterion_group()
    gbar = so3crit.rotation_group_from_quats(certsuite.criterion_generator_quats())
    report = so3crit.decide_criterion(g, gbar)
    cosets.extend(report.quotient_group.elements)
    cosets.extend(report.split.classes.elements)
    answers = set()
    for x in cosets:
        assert x.is_identity() == (x.rep in x.ctx.normal), x
        assert x.ctx.identity_rep in x.ctx.normal
        answers.add(x.is_identity())
    assert answers == {True, False}


def test_shape_and_group_checks_survive_optimized_mode():
    # none of these checks may be an assert, which python -O strips
    code = (
        "from acceptcert.exactalg import ExactAlgError, ExactMatrix, ONE, cyc_rational\n"
        "from acceptcert.exactalg import unflatten_matrix\n"
        "from acceptcert.fingrp import GroupStructureError, closure, quotient_by_central\n"
        "from acceptcert.grpcore import GroupSpec, QUAT_I, QUAT_J, Quat, su_factor\n"
        "def refused(call, exc):\n"
        "    try:\n"
        "        call()\n"
        "    except exc:\n"
        "        return\n"
        "    raise SystemExit('accepted: %r' % (call,))\n"
        "refused(lambda: ExactMatrix(2, 2, (ONE,)), ExactAlgError)\n"
        "refused(lambda: unflatten_matrix([ONE] * 3, 2), ExactAlgError)\n"
        "minus = ExactMatrix.identity(4).scaled(cyc_rational(-1))\n"
        "g, h = (GroupSpec((su_factor(4),), center_gens=((minus,),)) for _ in range(2))\n"
        "one = ExactMatrix.identity(4)\n"
        "refused(lambda: g.wrap_parts((one,)) * h.wrap_parts((one,)), GroupStructureError)\n"
        "q8 = closure([QUAT_I, QUAT_J])\n"
        "signs = closure([-Quat.one()])\n"
        "q1, _ = quotient_by_central(q8, signs)\n"
        "q2, _ = quotient_by_central(q8, signs)\n"
        "refused(lambda: q1.elements[1] * q2.elements[1], GroupStructureError)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_quotient_center():
    g = GroupSpec((su_factor(4),), center_gens=((MINUS_I4,),))
    # center of the quotient: fourth-root scalars mod the sign, order 2
    assert len(g.center_elements()) == 2
    trivial = GroupSpec((sp1_factor(), sp1_factor()))
    assert len(trivial.center_elements()) == 4


def test_ambient_element_algebra():
    x = AmbientElement((QUAT_I, QUAT_J))
    y = AmbientElement((QUAT_J, QUAT_K))
    prod = x * y
    assert prod.parts == (QUAT_K, QUAT_I)
    assert (x * x.inverse()).is_identity()


def test_mixed_factor_group():
    # SU(2) x Sp(1) x SO(3), the SO(3) slot an Sp(1) factor with its -1 in Z
    one = Quat.one()
    g = GroupSpec((su_factor(2), sp1_factor(), sp1_factor()),
                  center_gens=((ExactMatrix.identity(2), one, -one),))
    assert len(g.z_subgroup) == 2
    m = ExactMatrix.diagonal([cyc_i(), -cyc_i()])
    el = g.wrap_parts((m, QUAT_J, QUAT_I))
    assert el == g.wrap_parts((m, QUAT_J, -QUAT_I))
    assert el != g.wrap_parts((m, -QUAT_J, QUAT_I))
    sq = el * el
    assert not el.is_identity() and not sq.is_identity()
    assert (sq * sq).is_identity()
    assert g.describe() == "(SU(2) x Sp(1) x Sp(1)) / Z with |Z| = 2"


# --- hash-consed parts -------------------------------------------------------------


def test_equal_parts_share_one_object():
    g = GroupSpec((sp1_factor(), su_factor(2)))
    m = ExactMatrix.diagonal([cyc_i(), -cyc_i()])
    x = g.element((QUAT_I, m))
    y = g.element((Quat.make(ZERO, ONE, ZERO, ZERO), ExactMatrix.diagonal([cyc_i(), -cyc_i()])))
    assert all(a is b for a, b in zip(x.parts, y.parts))
    # repeated products, and distinct pairs with one product, give one object
    assert all(a is b for a, b in zip((x * y).parts, (x * y).parts))
    w = g.element((-QUAT_I, m.scaled(cyc_rational(-1))))
    assert all(a is b for a, b in zip((x * x).parts, (w * w).parts))
    # inverses are memoized and canonical: x has order 4, so x^-1 = x^3
    assert all(a is b for a, b in zip(x.inverse().parts, y.inverse().parts))
    assert all(a is b for a, b in zip(x.inverse().parts, ((x * x) * x).parts))
    assert all(a is b for a, b in zip(g.identity_ambient().parts,
                                      (x * x.inverse()).parts))


def test_uninterned_parts_still_compare_equal():
    g = GroupSpec((sp1_factor(),))
    fresh = AmbientElement((Quat.make(ZERO, ONE, ZERO, ZERO),))
    canonical = g.element((QUAT_I,))
    assert fresh.parts[0] is not canonical.parts[0]
    assert fresh == canonical and hash(fresh) == hash(canonical)
    assert (fresh * fresh).parts[0] is (canonical * canonical).parts[0]


def test_interning_is_transparent_when_tables_clear_on_every_miss(monkeypatch):
    cases = (("crit_3a1", None), ("psu_odd_prime", {"p": 3}))
    default = [run(cid, params) for cid, params in cases]
    monkeypatch.setattr(grpcore, "_MUL_CACHE_LIMIT", 1)
    grpcore._clear_tables()
    for want, (cid, params) in zip(default, cases):
        got = run(cid, params)
        assert len(grpcore._PARTS) <= 1 and len(grpcore._MUL_CACHE) <= 1
        assert got.passed and want.passed
        assert (got.verdicts, got.counts) == (want.verdicts, want.counts)
