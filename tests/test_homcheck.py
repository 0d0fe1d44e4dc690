"""Element conjugacy and global conjugacy decisions for homomorphism pairs."""

import itertools
import random

import pytest

from acceptcert import certsuite
from acceptcert.exactalg import ExactMatrix, ONE, ZERO, commutant, cyc_i, cyc_rational
from acceptcert.fingrp import (
    FinGroup,
    FormalGroupSpec,
    GroupStructureError,
    Hom,
    closure,
    formal_group,
    hom_from_gens,
    quotient_by_central,
)
from acceptcert.grpcore import GroupError, GroupSpec, QUAT_I, QUAT_J, Quat, sp1_factor, su_factor
from acceptcert.homcheck import (
    GloballyConjugate,
    HomPair,
    LiftConsistencyError,
    NotGloballyConjugate,
    OracleDomainError,
    _edge_discrepancy,
    abelian_weight_oracle,
    decide_global,
    is_element_conjugate,
)
from acceptcert.so3crit import (
    build_witness_pair,
    decide_criterion,
    rotation_group_from_quats,
    standard_criterion_group,
)

MINUS_I4 = ExactMatrix.identity(4).scaled(cyc_rational(-1))


def su4_quotient():
    return GroupSpec((su_factor(4),), center_gens=((MINUS_I4,),))


def c4xc4():
    return formal_group(FormalGroupSpec.cyclic_product(4, 4))


def diag_pair_hom(g, src, m1, m2):
    return hom_from_gens(src, src.gen_indices,
                         (g.wrap_parts((m1,)), g.wrap_parts((m2,))), target=g)


def witness_pair():
    g = su4_quotient()
    src = c4xc4()
    ii = cyc_i()
    a = ExactMatrix.diagonal([ONE, ONE, ii, -ii])
    b = ExactMatrix.diagonal([ONE, ii, ONE, -ii])
    f = diag_pair_hom(g, src, a, b)
    fp = diag_pair_hom(g, src, a.conj(), b.conj())
    return HomPair(f, fp)


def test_witness_pair_is_split():
    pair = witness_pair()
    ok, first_fail = is_element_conjugate(pair)
    assert ok and first_fail is None
    assert pair.kernels_equal
    verdict = decide_global(pair)
    assert isinstance(verdict, NotGloballyConjugate)
    assert verdict.seeds_examined == 4
    assert verdict.reason
    assert verdict.p_order == 32


def test_equal_homs_are_globally_conjugate():
    pair = witness_pair()
    same = HomPair(pair.f, pair.f)
    ok, _ = is_element_conjugate(same)
    assert ok
    verdict = decide_global(same)
    assert isinstance(verdict, GloballyConjugate)
    assert verdict.seeds_examined >= 1


def test_different_kernels_fail_fast():
    g = su4_quotient()
    src = c4xc4()
    ii = cyc_i()
    a = ExactMatrix.diagonal([ONE, ONE, ii, -ii])
    f = diag_pair_hom(g, src, a, a)
    collapsed = diag_pair_hom(g, src, a, ExactMatrix.identity(4))
    pair = HomPair(f, collapsed)
    assert not pair.kernels_equal
    ok, first_fail = is_element_conjugate(pair)
    assert not ok
    assert first_fail is not None


def test_pair_requires_shared_source():
    g = su4_quotient()
    ii = cyc_i()
    a = ExactMatrix.diagonal([ONE, ONE, ii, -ii])
    f = diag_pair_hom(g, c4xc4(), a, a)
    other = diag_pair_hom(g, c4xc4(), a, a)
    with pytest.raises(GroupError):
        HomPair(f, other)


def test_oracle_domain_errors():
    g = GroupSpec((sp1_factor(),))
    src = formal_group(FormalGroupSpec.cyclic_product(4,))
    f = hom_from_gens(src, src.gen_indices, (g.wrap_parts((QUAT_J,)),), target=g)
    with pytest.raises(OracleDomainError):
        abelian_weight_oracle(HomPair(f, f))


def random_diag_su4(rng):
    ii = cyc_i()
    exps = [rng.randrange(4) for _ in range(3)]
    exps.append((-sum(exps)) % 4)
    return ExactMatrix.diagonal([ii ** e for e in exps])


def test_oracle_agrees_with_decision_on_random_diagonal_pairs():
    g = su4_quotient()
    rng = random.Random(987123)
    for _ in range(40):
        src = c4xc4()
        f = diag_pair_hom(g, src, random_diag_su4(rng), random_diag_su4(rng))
        fp = diag_pair_hom(g, src, random_diag_su4(rng), random_diag_su4(rng))
        pair = HomPair(f, fp)
        got = isinstance(decide_global(pair), GloballyConjugate)
        assert abelian_weight_oracle(pair) == got


def test_conjugated_pair_comes_back_conjugate():
    g = GroupSpec((sp1_factor(), sp1_factor()))
    src = formal_group(FormalGroupSpec.cyclic_product(4, 4))
    f = hom_from_gens(src, src.gen_indices,
                      (g.wrap_parts((QUAT_I, Quat.one())),
                       g.wrap_parts((Quat.one(), QUAT_I))), target=g)
    w = g.wrap_parts((QUAT_J, QUAT_J))
    winv = w.inverse()
    fp = hom_from_gens(src, src.gen_indices,
                       tuple((w * f.images[i]) * winv for i in src.gen_indices),
                       target=g)
    verdict = decide_global(HomPair(f, fp))
    assert isinstance(verdict, GloballyConjugate)


# --- the Cayley table from the generator walk --------------------------------------


def full_mul_table(src):
    """Reference: every product of two source elements, by src.mul_idx."""
    table = []
    for i in range(src.order):
        table.append([src.mul_idx(i, j) for j in range(src.order)])
    return table


def seed_generators(src):
    return [gi for gi in dict.fromkeys(src.gen_indices or range(src.order))
            if gi != src.identity_index]


def generalized_quaternion_16():
    return closure([certsuite.eta_quat(), QUAT_J])


def cayley_sources():
    q16 = generalized_quaternion_16()
    center = closure([-Quat.one()])
    dihedral_8, _ = quotient_by_central(q16, center)
    q8 = closure([QUAT_I, QUAT_J])
    return {
        "closure Q8": q8,
        "closure Q16": q16,
        "CyclicProduct(4, 4)": formal_group(FormalGroupSpec.cyclic_product(4, 4)),
        "CyclicProduct(3, 5, 2)": formal_group(FormalGroupSpec.cyclic_product(3, 5, 2)),
        "CentralExt2(4, 4)": formal_group(FormalGroupSpec.central_ext2(4, 4)),
        "CentralExt2(2, 6)": formal_group(FormalGroupSpec.central_ext2(2, 6)),
        "Q16 / {+-1}": dihedral_8,
        "Q8, no recorded generators": FinGroup(q8.elements),
    }


def table_from_edges(src, edges, tree):
    """Reference: the full table from the generator edges by associativity.

    Row i starts with i e = i and with i g on the edge columns; for (j, p, g)
    in tree order i j = i (p g) = (i p) g, where i p is already in row i
    because p comes before j in the walk.
    """
    table = []
    for i in range(src.order):
        row = [None] * src.order
        row[src.identity_index] = i
        for gi, j in edges[i].items():
            row[gi] = j
        table.append(row)
    for row in table:
        for j, p, gi in tree:
            row[j] = table[row[p]][gi]
    return table


@pytest.mark.parametrize("name", sorted(cayley_sources()))
def test_cayley_table_matches_the_full_product_table(name):
    src = cayley_sources()[name]
    gens = seed_generators(src)
    # repeated generators and the identity are dropped
    edges, tree = src.walk(list(src.gen_indices or range(src.order)) * 2)
    # only the generator edges were multiplied
    assert len(src._mul) == src.order * len(gens)
    assert all(list(row) == gens for row in edges)
    assert table_from_edges(src, edges, tree) == full_mul_table(src)
    # the walk reaches every other element once, from an earlier one
    reached = {src.identity_index}
    for j, p, gi in tree:
        assert p in reached and j not in reached
        assert edges[p][gi] == j
        reached.add(j)
    assert reached == set(range(src.order))


def test_cayley_table_refuses_non_generating_generators():
    q8 = closure([QUAT_I, QUAT_J])
    i_only = q8.idx(QUAT_I)
    _, tree = q8.walk([i_only])
    assert len(tree) == 3
    with pytest.raises(GroupStructureError, match="do not generate"):
        hom_from_gens(q8, [i_only], [QUAT_I])
    g = GroupSpec((sp1_factor(),))
    src = FinGroup(q8.elements, gen_indices=(i_only,))
    # the walk misses half the source, so the full check verifies this
    f = Hom(src, g, tuple(g.element((x,)) for x in src.elements))
    with pytest.raises(GroupError, match="do not generate"):
        decide_global(HomPair(f, f))


# --- the verdict does not depend on the ambient lifts --------------------------------


def sign_quotient_sanity_pair(rng, group_name):
    """A conjugated pair drawn as in the sanity certificate, into a quotient by -1."""
    src = formal_group(FormalGroupSpec.cyclic_product(4, 4))
    if group_name == "su4":
        g = su4_quotient()
        ims = tuple(g.wrap_parts((certsuite._random_su4_diag(rng),)) for _ in range(2))
        conj = g.wrap_parts((certsuite._random_su4_monomial(rng),))
    else:
        g = GroupSpec((sp1_factor(),) * 3, center_gens=((-Quat.one(),) * 3,))
        units = [rng.choice(certsuite._SLOT_UNITS) for _ in range(3)]
        ims = tuple(
            g.wrap_parts(tuple(certsuite._quat_power(u, rng.randrange(4)) for u in units))
            for _ in range(2))
        conj = g.wrap_parts(tuple(rng.choice(certsuite._unit_quat_pool()) for _ in range(3)))
    inv = conj.inverse()
    f = hom_from_gens(src, src.gen_indices, ims, target=g)
    fp = hom_from_gens(src, src.gen_indices,
                       tuple((conj * im) * inv for im in ims), target=g)
    return HomPair(f, fp)


LIFT_CASES = ([("sp1_diag", {"m": m, "eps": eps}) for m in (3, 4, 5) for eps in (1, -1)]
              + [("su4_mod_center", {}), ("psu_odd_prime", {"p": 3})]
              + [("sanity", {"group": name, "seed": seed})
                 for name in ("su4", "sp1_cubed") for seed in (1, 2)])


def lift_case_pair(cert_id, params):
    if cert_id == "sanity":
        return sign_quotient_sanity_pair(random.Random(params["seed"]), params["group"])
    return certsuite.certificate(cert_id).build(params)[1]


def canonical_lifts(pair):
    g = pair.target
    return ([g.ambient_of(x) for x in pair.f.images],
            [g.ambient_of(x) for x in pair.fprime.images])


def non_central_element(g):
    """det-one, non-scalar in every SU factor and a pure quaternion in every Sp(1)."""
    parts = []
    for factor in g.factors:
        if factor.kind == "SU":
            ii = cyc_i()
            parts.append(ExactMatrix.diagonal([ii, -ii] + [ONE] * (factor.n - 2)))
        else:
            parts.append(QUAT_J)
    return g.element(parts)


@pytest.mark.parametrize("cert_id, params", LIFT_CASES)
def test_verdict_does_not_depend_on_the_lifts(cert_id, params):
    pair = lift_case_pair(cert_id, params)
    zs = pair.target.z_subgroup
    assert len(zs) > 1
    want = decide_global(pair)
    rng = random.Random("%s %r" % (cert_id, sorted(params.items())))
    a_list, b_list = canonical_lifts(pair)
    for _ in range(3):
        a_moved = [rng.choice(zs) * x for x in a_list]
        b_moved = [rng.choice(zs) * x for x in b_list]
        assert (a_moved, b_moved) != (a_list, b_list)
        got = decide_global(pair, lifts_override=(a_moved, b_moved))
        assert got.conjugate == want.conjugate
        assert got.p_order == want.p_order
        if not want.conjugate:
            assert got.seeds_examined == want.seeds_examined


@pytest.mark.parametrize("cert_id, params", LIFT_CASES)
def test_a_lift_moved_off_its_coset_is_refused(cert_id, params):
    pair = lift_case_pair(cert_id, params)
    rng = random.Random("%s %r" % (cert_id, sorted(params.items())))
    a_list, b_list = canonical_lifts(pair)
    k = rng.randrange(pair.src.order)
    a_list[k] = a_list[k] * non_central_element(pair.target)
    with pytest.raises(LiftConsistencyError):
        decide_global(pair, lifts_override=(a_list, b_list))


def test_every_returned_twist_holds_on_all_pairs():
    # Every non-identity image has trace 0 and Z = <i I> scales traces, so
    # the character comparison passes every seed: only the twist check on
    # the generator edges decides.  Over all Z-shifts of the second map's
    # lifts the returned twist must satisfy z(x) z(y) c'(x,y) = z(xy) c(x,y)
    # on every pair, computed here from the lifts directly.
    g = GroupSpec((su_factor(4),), center_gens=((ExactMatrix.identity(4).scaled(cyc_i()),),))
    src = formal_group(FormalGroupSpec.cyclic_product(2, 2))
    a = ExactMatrix.diagonal([ONE, -ONE, ONE, -ONE])
    b = ExactMatrix.diagonal([ONE, ONE, -ONE, -ONE])
    f = hom_from_gens(src, src.gen_indices, (g.wrap_parts((a,)), g.wrap_parts((b,))), target=g)
    zs = g.z_subgroup
    a_list = canonical_lifts(HomPair(f, f))[0]
    n = src.order
    for shift in itertools.product(range(len(zs)), repeat=n):
        b_list = [zs[k] * x for k, x in zip(shift, a_list)]
        verdict = decide_global(HomPair(f, f), lifts_override=(a_list, b_list))
        assert isinstance(verdict, GloballyConjugate)
        z = [verdict.twist_value(i) for i in range(n)]
        for x in range(n):
            for y in range(n):
                xy = src.mul_idx(x, y)
                c = (a_list[x] * a_list[y]) * a_list[xy].inverse()
                cp = (b_list[x] * b_list[y]) * b_list[xy].inverse()
                assert (z[x] * z[y]) * cp == z[xy] * c, (shift, x, y)


# --- the edge check refuses exactly what the full cocycle tables refuse --------------


def full_cocycle_table(src, lifts):
    """Reference: c(x, y) = a(x) a(y) a(xy)^(-1) on every pair of source elements."""
    table = []
    for x in range(src.order):
        row = []
        for y in range(src.order):
            row.append((lifts[x] * lifts[y]) * lifts[src.mul_idx(x, y)].inverse())
        table.append(row)
    return table


def small_source_pair(order):
    """f = f' from the trivial group or from C2 = <s> into SU(4)/{+-1}, s -> diag(1, 1, -1, -1)."""
    g = su4_quotient()
    src = closure([Quat.one() if order == 1 else -Quat.one()])
    image = g.wrap_parts((ExactMatrix.diagonal([ONE, ONE, -ONE, -ONE]),))
    f = hom_from_gens(src, src.gen_indices, (image if order == 2 else g.identity(),), target=g)
    return HomPair(f, f)


# On the trivial group and on C2 some override has its only non-central
# value on the identity edge, on the one generator's column or in the last
# row, so every part of the edge check has a case that needs it.
EDGE_CASES = LIFT_CASES + [("small", {"order": 1}), ("small", {"order": 2})]


def lift_overrides(pair, rng):
    """(name, a lifts, b lifts, whether the full tables accept them)."""
    src = pair.src
    zs = pair.target.z_subgroup
    u = non_central_element(pair.target)
    u_inv = u.inverse()
    a_list, b_list = canonical_lifts(pair)
    gens = seed_generators(src)
    others = [i for i in range(src.order) if i != src.identity_index and i not in gens]
    out = [("Z-shifted", [rng.choice(zs) * x for x in a_list],
            [rng.choice(zs) * x for x in b_list], True),
           ("conjugated", [(u * x) * u_inv for x in a_list],
            [(u * x) * u_inv for x in b_list], True)]
    moves = [("moved at the identity", src.identity_index)]
    if gens:
        moves.append(("moved at a generator", rng.choice(gens)))
    if others:
        moves.append(("moved at a non-generator", rng.choice(others)))
    for name, k in moves:
        moved = list(a_list)
        moved[k] = moved[k] * u
        out.append((name, moved, b_list, False))
    return out


@pytest.mark.parametrize("cert_id, params", EDGE_CASES)
def test_edge_check_refuses_exactly_what_the_full_tables_refuse(cert_id, params):
    if cert_id == "small":
        pair = small_source_pair(params["order"])
    else:
        pair = lift_case_pair(cert_id, params)
    src = pair.src
    zs = pair.target.z_subgroup
    z_index = {z: k for k, z in enumerate(zs)}
    z_mul = [[z_index[x * y] for y in zs] for x in zs]
    walk_edges, _ = src.walk(seed_generators(src))
    edges = [{src.identity_index: i, **row} for i, row in enumerate(walk_edges)]
    rng = random.Random("%s %r" % (cert_id, sorted(params.items())))
    for name, a_list, b_list, accepted in lift_overrides(pair, rng):
        c_ref = full_cocycle_table(src, a_list)
        cp_ref = full_cocycle_table(src, b_list)
        central = all(v in z_index for tab in (c_ref, cp_ref) for row in tab for v in row)
        assert central == accepted, name
        if not central:
            with pytest.raises(LiftConsistencyError, match="not central"):
                _edge_discrepancy(a_list, b_list, edges, z_index, z_mul)
            with pytest.raises(LiftConsistencyError, match="not central"):
                decide_global(pair, lifts_override=(a_list, b_list))
            continue
        d_tab = _edge_discrepancy(a_list, b_list, edges, z_index, z_mul)
        for x, row in enumerate(edges):
            for gi in row:
                assert zs[d_tab[x][gi]] == cp_ref[x][gi] * c_ref[x][gi].inverse(), (name, x, gi)
        decide_global(pair, lifts_override=(a_list, b_list))


# --- a linear-algebra reference for global conjugacy ---------------------------------


def quat_matrix(q):
    """The unit quaternion a + b i + c j + d k as its matrix in SU(2)."""
    ii = cyc_i()
    return ExactMatrix.make([[q.a + q.b * ii, q.c + q.d * ii],
                             [-q.c + q.d * ii, q.a - q.b * ii]])


def block_sum(x, y):
    n = x.rows
    return ExactMatrix.make([list(x.row(i)) + [ZERO] * n for i in range(n)]
                            + [[ZERO] * n + list(y.row(i)) for i in range(n)])


def tuples_equivalent(xs, ys):
    """dim Hom(A, B) = dim End A = dim End B, each from one commutant."""
    end_a = commutant(xs).dim
    end_b = commutant(ys).dim
    both = commutant([block_sum(x, y) for x, y in zip(xs, ys)]).dim
    return end_a == end_b == (both - end_a - end_b) // 2


def conjugate_by_linear_algebra(pair):
    """Global conjugacy from commutant dimensions alone.

    Let G = Gh/Z with Gh the product of the factors Gh_k (SU(n) or Sp(1)),
    S the source's generators and a(s), b(s) in Gh lifts of f(s), f'(s).

    1. f' = g f g^-1 for some g in G iff it holds on S, since both sides
       are homomorphisms; for a lift gh of g that reads
       gh a(s) gh^-1 = z_s b(s) with z in Z^S, factor by factor.
    2. For fixed z, the k-th parts are conjugate in Gh_k iff the tuples
       A = (a_k(s)) and B = (z_s,k b_k(s)) are equivalent as representations
       of the free group on S.  Sp(1) is SU(2) through ``quat_matrix``, an
       isomorphism.  An invertible T with T A = B T gives a unitary one: T*T
       commutes with the unitary tuple A, so does its positive root P, and
       T P^-1 is unitary and intertwines; a scalar then puts it in SU(n).
    3. Unitary tuples are completely reducible: A = sum m_i V_i and
       B = sum n_i V_i.  By Schur, dim Hom(A, B) = sum m_i n_i,
       dim End A = sum m_i^2 and dim End B = sum n_i^2, so
       sum (m_i - n_i)^2 = dim End A + dim End B - 2 dim Hom(A, B), and A, B
       are equivalent iff the three dimensions are equal.
    4. The commutant of the block sums diag(a, b) is
       End A + Hom(B, A) + Hom(A, B) + End B, and dim Hom(B, A) =
       dim Hom(A, B), so dim Hom(A, B) is half of dim C(A + B) - dim End A
       - dim End B.  A kernel of a system over a cyclotomic field has the
       same dimension over C.

    No cocycle, character, kernel of f or closure is used.  A factor's
    answer depends only on its parts of z b, so it is memoized on them.
    """
    g = pair.target
    gens = list(dict.fromkeys(pair.src.gen_indices or range(pair.src.order)))
    a = [g.ambient_of(pair.f.images[i]) for i in gens]
    b = [g.ambient_of(pair.fprime.images[i]) for i in gens]

    def as_matrix(part):
        return quat_matrix(part) if isinstance(part, Quat) else part

    memo = {}

    def factor_conjugate(k, zb):
        parts = tuple(y.parts[k] for y in zb)
        if (k, parts) not in memo:
            memo[k, parts] = tuples_equivalent([as_matrix(x.parts[k]) for x in a],
                                               [as_matrix(p) for p in parts])
        return memo[k, parts]

    for zs in itertools.product(g.z_subgroup, repeat=len(gens)):
        zb = [z * y for z, y in zip(zs, b)]
        if all(factor_conjugate(k, zb) for k in range(len(g.factors))):
            return True
    return False


def crit_3a1_witness_pair():
    g = standard_criterion_group()
    gbar = rotation_group_from_quats(certsuite.criterion_generator_quats())
    return build_witness_pair(decide_criterion(g, gbar), g, gbar)


REGISTRY_PAIRS = [(cert.id, params) for cert in certsuite.registry() if cert.build
                  for params in cert.param_grid]
SANITY_BATCHES = [("sanity_acceptable", params)
                  for params in certsuite.certificate("sanity_acceptable").param_grid]


def reference_pairs(cert_id, params):
    if cert_id == "crit_3a1":
        return [crit_3a1_witness_pair()]
    if cert_id == "sanity_acceptable":
        return list(certsuite._sanity_pairs(params["group"], params["count"], params["seed"]))
    return [lift_case_pair(cert_id, params)]


# All inputs named for this reference: every registry hom pair on its
# default grid, the crit_3a1 witness, the two default sanity batches (50
# pairs, conjugate like all four below) and the LIFT_CASES the registry
# grids do not already hold (the four sanity pairs into quotients by -1).
# About 2 s in all on a 2-vCPU host, 0.7 s of it psu_odd_prime at p = 5.
@pytest.mark.parametrize("cert_id, params", REGISTRY_PAIRS + [("crit_3a1", {})]
                         + SANITY_BATCHES
                         + [case for case in LIFT_CASES if case not in REGISTRY_PAIRS])
def test_linear_algebra_reference_agrees_with_decide_global(cert_id, params):
    for pair in reference_pairs(cert_id, params):
        assert conjugate_by_linear_algebra(pair) == decide_global(pair).conjugate
