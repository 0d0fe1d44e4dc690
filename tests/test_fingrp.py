"""Finite group closures, multiplication tables, homomorphisms, quotients."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from acceptcert import fingrp
from acceptcert.exactalg import ExactMatrix, ONE, cyc_i, cyc_rational
from acceptcert.fingrp import (
    ClosureCapError,
    FinGroup,
    FormalGroupSpec,
    GroupStructureError,
    Hom,
    NotAHomomorphismError,
    closure,
    first_failing_pair,
    formal_group,
    hom_from_gens,
    hom_set_to_elem_abelian_2,
    identity_hom,
    quotient_by_central,
)
from acceptcert.grpcore import GroupSpec, QUAT_I, QUAT_J, Quat, sp1_factor


def quaternion_group():
    return closure([QUAT_I, QUAT_J])


def test_closure_basics():
    c4 = closure([QUAT_I])
    assert c4.order == 4
    assert c4.gen_indices == (c4.idx(QUAT_I),)
    q8 = quaternion_group()
    assert q8.order == 8
    assert not q8.is_abelian()


def test_closure_rejects_empty_and_caps():
    with pytest.raises(GroupStructureError):
        closure([])
    with pytest.raises(ClosureCapError):
        closure([QUAT_I, QUAT_J], cap=5)


def test_group_membership_errors():
    c4 = closure([QUAT_I])
    with pytest.raises(GroupStructureError):
        c4.idx(QUAT_J)


def test_formal_cyclic_product():
    src = formal_group(FormalGroupSpec.cyclic_product(4, 4))
    assert src.order == 16
    assert src.is_abelian()
    assert len(src.gen_indices) == 2
    for g in src.gen_indices:
        assert closure([src.elements[g]]).order == 4


def test_formal_central_ext2():
    src = formal_group(FormalGroupSpec.central_ext2(4, 4))
    assert src.order == 32
    assert not src.is_abelian()
    # every commutator is the identity or the central g0 = (1, 0, 0)
    comms = {src.elements[src.mul_idx(src.mul_idx(i, j),
                                      src.mul_idx(src.inv_idx(i), src.inv_idx(j)))].coords
             for i in range(src.order) for j in range(src.order)}
    assert comms == {(0, 0, 0), (1, 0, 0)}
    g1, g2 = src.gen_indices
    comm = src.mul_idx(src.mul_idx(g1, g2),
                       src.mul_idx(src.inv_idx(g1), src.inv_idx(g2)))
    assert src.elements[comm].coords == (1, 0, 0)


def test_hom_verification_rejects_non_homs():
    c4 = closure([QUAT_I])
    g = GroupSpec((sp1_factor(),))
    bad = tuple(g.wrap_parts((QUAT_J,)) if not q.is_identity()
                else g.identity() for q in c4.elements)
    with pytest.raises(NotAHomomorphismError) as info:
        Hom(c4, g, bad)
    assert info.value.pair is not None


def test_hom_from_generators():
    src = formal_group(FormalGroupSpec.cyclic_product(4,))
    g = GroupSpec((sp1_factor(),))
    f = hom_from_gens(src, src.gen_indices, (g.wrap_parts((QUAT_J,)),), target=g)
    assert f.image_order() == 4
    assert len(f.kernel_indices()) == 1
    squash = hom_from_gens(src, src.gen_indices,
                           (g.wrap_parts((-Quat.one(),)),), target=g)
    assert squash.image_order() == 2
    assert len(squash.kernel_indices()) == 2


def test_identity_hom():
    q8 = quaternion_group()
    f = identity_hom(q8)
    assert f.image_order() == 8
    assert f.apply(QUAT_I) == QUAT_I


def test_quotient_by_central():
    q8 = quaternion_group()
    signs = FinGroup([Quat.one(), -Quat.one()])
    quot, proj = quotient_by_central(q8, signs)
    assert quot.order == 4
    assert quot.is_abelian()
    assert proj.src is q8
    assert proj.image_order() == 4
    # the two lifts of each coset project together
    assert proj.apply(QUAT_I) == proj.apply(-QUAT_I)


def test_quotient_rejects_non_normal():
    q8 = quaternion_group()
    with pytest.raises(GroupStructureError):
        quotient_by_central(q8, FinGroup([Quat.one(), QUAT_I]))
    axis = FinGroup([Quat.one(), QUAT_I, -Quat.one(), -QUAT_I])
    quot, _ = quotient_by_central(q8, axis)
    assert quot.order == 2


def test_cosets_of_different_quotients_do_not_multiply():
    q8 = quaternion_group()
    signs = FinGroup([Quat.one(), -Quat.one()])
    quot, _ = quotient_by_central(q8, signs)
    other, _ = quotient_by_central(q8, signs)
    with pytest.raises(GroupStructureError, match="different quotients"):
        quot.elements[1] * other.elements[1]


def test_hom_set_to_elem_abelian_2():
    q8 = quaternion_group()
    klein = closure([-Quat.one()])
    signs = FinGroup([Quat.one(), -Quat.one()])
    quot, _ = quotient_by_central(q8, signs)
    homs = hom_set_to_elem_abelian_2(quot, klein)
    assert len(homs) == 4
    assert all(v.is_identity() for v in homs[0].images)
    keys = {tuple(0 if v.is_identity() else 1 for v in h.images) for h in homs}
    assert len(keys) == 4
    with pytest.raises(GroupStructureError):
        hom_set_to_elem_abelian_2(closure([QUAT_I]), klein)


def test_hom_set_to_elem_abelian_2_verifies_every_hom(monkeypatch):
    klein = formal_group(FormalGroupSpec.cyclic_product(2, 2))
    calls = []
    reference = fingrp.Hom.verify

    def spy(hom):
        calls.append(hom)
        return reference(hom)

    monkeypatch.setattr(fingrp.Hom, "verify", spy)
    homs = hom_set_to_elem_abelian_2(klein, klein)
    assert len(homs) == 16
    assert [id(h) for h in calls] == [id(h) for h in homs]


def test_subgroup_and_normality():
    q8 = quaternion_group()
    assert q8.is_normal_subset([Quat.one(), -Quat.one()])
    assert not q8.is_normal_subset([Quat.one(), QUAT_I])


group_pool = st.sampled_from(["c4", "q8", "c4xc4"])


def build_group(name):
    if name == "c4":
        return closure([QUAT_I])
    if name == "q8":
        return quaternion_group()
    return formal_group(FormalGroupSpec.cyclic_product(4, 4))


@settings(max_examples=60, deadline=None)
@given(group_pool, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6))
def test_table_laws(name, a, b, c):
    g = build_group(name)
    i, j, k = a % g.order, b % g.order, c % g.order
    assert g.mul_idx(g.mul_idx(i, j), k) == g.mul_idx(i, g.mul_idx(j, k))
    assert g.mul_idx(i, g.inv_idx(i)) == g.identity_index
    assert g.mul_idx(g.identity_index, i) == i


# --- generator-only verification against the full pairs check -----------------


def _extend_along_generators(src, gen_images, ident_image):
    """Images of a map defined on the generators, spread along right multiplication.

    The result agrees with a homomorphism exactly when the generator images
    satisfy the relations of the source; otherwise it is some total map.
    """
    images = [None] * src.order
    images[src.identity_index] = ident_image
    frontier = [src.identity_index]
    while frontier:
        nxt = []
        for i in frontier:
            for g in src.gen_indices:
                j = src.mul_idx(i, g)
                if images[j] is None:
                    images[j] = images[i] * gen_images[g]
                    nxt.append(j)
        frontier = nxt
    return images


def _verdict(src, images):
    """(verdict of Hom.verify, whether its reported pair really fails)."""
    try:
        Hom(src, None, tuple(images))
    except NotAHomomorphismError as exc:
        i, j = exc.pair
        return False, images[i] * images[j] != images[src.mul_idx(i, j)]
    return True, True


VERIFY_SOURCES = {
    "c2xc4": lambda: formal_group(FormalGroupSpec.cyclic_product(2, 4)),
    "c3xc3": lambda: formal_group(FormalGroupSpec.cyclic_product(3, 3)),
    "ext2(2,4)": lambda: formal_group(FormalGroupSpec.central_ext2(2, 4)),
    "ext2(4,2)": lambda: formal_group(FormalGroupSpec.central_ext2(4, 2)),
    "q8": quaternion_group,
}


@pytest.mark.parametrize("name", sorted(VERIFY_SOURCES))
def test_generator_check_agrees_with_full_check(name):
    src = VERIFY_SOURCES[name]()
    targets = [quaternion_group(), formal_group(FormalGroupSpec.central_ext2(2, 2))]
    rng = random.Random(name)
    seen = set()
    for trial in range(60):
        target = targets[trial % 2]
        gen_images = {g: rng.choice(target.elements) for g in src.gen_indices}
        images = _extend_along_generators(src, gen_images,
                                          target.elements[target.identity_index])
        if trial % 3 == 0:
            # break the map at one element that is not the identity
            k = rng.choice([i for i in range(src.order) if i != src.identity_index])
            images[k] = rng.choice(target.elements)
        is_hom, pair_fails = _verdict(src, images)
        assert is_hom == (first_failing_pair(src, images) is None)
        assert pair_fails
        seen.add(is_hom)
    assert seen == {True, False}


def test_verify_falls_back_when_generators_do_not_generate(monkeypatch):
    full = formal_group(FormalGroupSpec.cyclic_product(4, 4))
    g1, g2 = full.gen_indices
    calls = []
    reference = fingrp.first_failing_pair

    def spy(src, images):
        calls.append(src.order)
        return reference(src, images)

    monkeypatch.setattr(fingrp, "first_failing_pair", spy)

    def good_images(src):
        # (a, b) -> i^a j^(2b): a homomorphism of C4 x C4 onto <i> x <-1> in Sp(1)
        out = []
        for x in src.elements:
            a, b = x.coords
            q = Quat.one()
            for _ in range(a):
                q = q * QUAT_I
            if b % 2:
                q = -q
            out.append(q)
        return out

    Hom(full, None, tuple(good_images(full)))
    assert calls == []

    # only the first generator recorded: it reaches the coords (a, 0) and no more
    partial = FinGroup(full.elements, gen_indices=(g1,))
    images = good_images(partial)
    Hom(partial, None, tuple(images))
    assert calls == [16]
    bad = list(images)
    bad[partial.idx(full.elements[g2])] = QUAT_J
    with pytest.raises(NotAHomomorphismError) as info:
        Hom(partial, None, tuple(bad))
    assert calls == [16, 16]
    i, j = info.value.pair
    assert bad[i] * bad[j] != bad[partial.mul_idx(i, j)]

    # no generators recorded at all
    bare = FinGroup(full.elements)
    with pytest.raises(NotAHomomorphismError):
        Hom(bare, None, tuple(bad))
    assert calls == [16, 16, 16]
