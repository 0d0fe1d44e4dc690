"""Decide element-conjugacy and global conjugacy for pairs of homomorphisms.

Setting: two homomorphisms f, f' from a finite group into G = Ghat/Z, where
Ghat is a product of SU(n) and Sp(1) factors and Z is a finite central
subgroup; SO(3) is ``GroupSpec((sp1_factor(),), center_gens=((-Quat.one(),),))``.
Element-conjugacy is a per-element check against the conjtest oracles.
Global conjugacy is decided by the central-twist procedure:

1. Fix ambient lifts a(x), b(x) of f(x), f'(x) (canonical coset reps unless
   overridden).  Their discrepancies a(x)a(y) = c(x,y) a(xy) and
   b(x)b(y) = c'(x,y) b(xy) are 2-cocycles with values in Z.  They are
   formed, and checked to lie in Z, only on the generator edges (x, g) with
   g = e or a generator; that implies the same on all source pairs (see
   decide_global).
2. A conjugator downstairs corresponds to a map z: source -> Z making
   F(w a(x)) = w z(x) b(x) a homomorphism on the preimage group P that fixes
   Z pointwise and preserves every factorwise character.  The functional
   equation is z(xy) = z(x) z(y) c'(x,y) c(x,y)^(-1); its solutions are
   determined by values on a generating set, so all |Z|^(#gens) seeds are
   propagated over a fixed breadth-first order, pruned by the kernel
   condition, validated on the generator edges x -> x g (which implies the
   equation on all source pairs; see decide_global), and finally checked by
   exact character comparison over all of P.
3. Any surviving twist certifies global conjugacy (characters determine
   conjugacy factorwise for these factor kinds, and intertwiners can be
   adjusted into SU(n) / Sp(1)); exhausting all seeds certifies
   non-conjugacy, because an actual conjugator would induce a valid twist.

Everything below runs on small integer tables once the edge discrepancies
are computed, so exhaustion over a few hundred seeds is fast.  Of the
source's multiplication only the generator edges are needed, and
FinGroup.walk provides them with the breadth-first order.
"""

from __future__ import annotations

import itertools

from .conjtest import character_vector, elements_conjugate
from .exactalg import cyc_i
from .fingrp import (
    Hom,
    NotAHomomorphismError,
    closure,
    hom_from_gens,
)
from .grpcore import GroupError, GroupSpec


class LiftConsistencyError(Exception):
    """Internal invariant violation: a lift discrepancy landed outside Z."""


class OracleDomainError(Exception):
    """Input is outside the abelian diagonal-image oracle's domain."""


class HomPair:
    """Two homomorphisms with the same source and the same target group."""

    def __init__(self, f: Hom, fprime: Hom):
        if f.src is not fprime.src:
            raise GroupError("homomorphism pair must share one source group")
        if f.target is not fprime.target:
            raise GroupError("homomorphism pair must share one target group")
        if not isinstance(f.target, GroupSpec):
            raise GroupError("pair decisions need a GroupSpec target")
        self.src = f.src
        self.target = f.target
        self.f = f
        self.fprime = fprime
        self.kernel = frozenset(f.kernel_indices())
        self.kernel_prime = frozenset(fprime.kernel_indices())
        self.kernels_equal = self.kernel == self.kernel_prime


class GloballyConjugate:
    conjugate = True

    def __init__(self, twist_indices, z_elements, seeds_examined, p_order):
        self.twist_indices = tuple(twist_indices)
        self.z_elements = tuple(z_elements)
        self.seeds_examined = seeds_examined
        self.p_order = p_order

    def twist_value(self, i: int):
        return self.z_elements[self.twist_indices[i]]

    def is_identity_twist(self) -> bool:
        return all(k == 0 for k in self.twist_indices)

    def __repr__(self):
        return ("GloballyConjugate(seeds_examined=%d, identity_twist=%s)"
                % (self.seeds_examined, self.is_identity_twist()))


class NotGloballyConjugate:
    conjugate = False

    def __init__(self, seeds_examined, reason="twist exhaustion", p_order=None):
        self.seeds_examined = seeds_examined
        self.reason = reason
        self.p_order = p_order

    def __repr__(self):
        return ("NotGloballyConjugate(seeds_examined=%d, reason=%r)"
                % (self.seeds_examined, self.reason))


def is_element_conjugate(pair: HomPair):
    """(all-element conjugacy flag, first failing source index or None)."""
    g = pair.target
    for i in range(pair.src.order):
        if not elements_conjugate(g, pair.f.images[i], pair.fprime.images[i]):
            return False, i
    return True, None


def _edge_discrepancy(a_list, b_list, edges, z_index, z_mul) -> list:
    """d = c' c^(-1) on the generator edges, as indices into Z.

    For every edge x -> x g of ``edges`` the lift discrepancies
    c(x, g) = a(x) a(g) a(xg)^(-1) and c'(x, g) = b(x) b(g) b(xg)^(-1) are
    formed, two ambient products each, and d_tab[x][g] is the index of
    c'(x, g) c(x, g)^(-1).  LiftConsistencyError unless every c and c' value
    lies in Z; by the induction in decide_global that holds exactly when c
    and c' lie in Z on every pair of source elements.
    """
    z_inv = [row.index(0) for row in z_mul]
    a_inv = [x.inverse() for x in a_list]
    b_inv = [x.inverse() for x in b_list]
    d_tab = []
    for i, row in enumerate(edges):
        ai = a_list[i]
        bi = b_list[i]
        d_row = {}
        for gi, j in row.items():
            c = z_index.get((ai * a_list[gi]) * a_inv[j])
            cp = z_index.get((bi * b_list[gi]) * b_inv[j])
            if c is None or cp is None:
                raise LiftConsistencyError("lift discrepancy is not central")
            d_row[gi] = z_mul[cp][z_inv[c]]
        d_tab.append(d_row)
    return d_tab


def decide_global(pair: HomPair, lifts_override=None, cap=None):
    """Global-conjugacy verdict via central twist exhaustion (see module doc).

    The lift discrepancies are formed on the generator edges x -> x g only,
    for every x and every g in {e} and the seed generators: the edges of
    ``src.walk`` plus the identity edge (_edge_discrepancy).  The walk's
    tree writes every element as a word in the seed generators; GroupError
    is raised unless it reaches every element.  The edge check is exactly
    the all-pairs one: if a(x) a(g) lies in Z a(xg) on every edge, then
    a(x) a(y) lies in Z a(xy) for every pair, by induction on the length of
    a word y in the generators.  For y = e it is the identity edge (x, e);
    for y = y' g, since Z is central,
    a(x) a(y' g) in Z a(x) a(y') a(g)      (edge (y', g))
                 in Z a(x y') a(g)         (induction hypothesis)
                 in Z a(x y' g)            (edge (x y', g)).
    The same holds for b, so c and c' take values in Z on every pair, and the
    lift overrides refused are exactly those with a discrepancy outside Z.

    Each seed's twist z is propagated along the tree of ``src.walk`` and
    then checked only on the same edges:
    z(x g) = z(x) z(g) d(x, g) with d = c' c^(-1).  This implies the
    equation for every pair.  c and c' lie in the central (so abelian) Z,
    and by associativity each satisfies the 2-cocycle identity
    c(x,y) c(xy,g) = a(x) a(y) a(g) a(xyg)^(-1) = c(y,g) c(x,yg); so does
    their quotient d.  Induct on the length of a word y in the generators:
    for y = e the identity edge (x, e) is the claim itself, checked rather
    than assumed; for y = y' g,
    z(x y' g) = z(x y') z(g) d(x y', g)
             = z(x) z(y') z(g) d(x, y') d(x y', g)
             = z(x) z(y') z(g) d(y', g) d(x, y' g)
             = z(x) z(y' g) d(x, y' g),
    using the edge (x y', g), the induction hypothesis, the cocycle
    identity and the edge (y', g).  This is the argument of Hom.verify
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005).
    """
    src = pair.src
    g = pair.target
    n = src.order
    if not pair.kernels_equal:
        return NotGloballyConjugate(0, reason="kernel mismatch")

    if lifts_override is not None:
        a_list, b_list = (list(lifts_override[0]), list(lifts_override[1]))
        if len(a_list) != n or len(b_list) != n:
            raise GroupError("lift override must align with the source elements")
    else:
        a_list = [g.ambient_of(pair.f.images[i]) for i in range(n)]
        b_list = [g.ambient_of(pair.fprime.images[i]) for i in range(n)]

    zs = g.z_subgroup
    nz = len(zs)
    if not zs[0].is_identity():
        raise LiftConsistencyError("central subgroup enumeration lost the identity slot")
    z_index = {z: k for k, z in enumerate(zs)}
    z_mul = [[z_index[zs[i] * zs[j]] for j in range(nz)] for i in range(nz)]

    ident = src.identity_index
    # fixed propagation order over the source group: generator values are
    # preset per seed, everything else extends along the rest of the tree,
    # whose first len(seed_gens) triples are the edges e -> g
    walk_edges, tree = src.walk(src.gen_indices or range(n))
    if len(tree) != n - 1:
        raise GroupError("recorded generators do not generate the source group")
    seed_gens = list(walk_edges[ident])
    edges = [{ident: i, **row} for i, row in enumerate(walk_edges)]
    visit = tree[len(seed_gens):]
    d_tab = _edge_discrepancy(a_list, b_list, edges, z_index, z_mul)

    # preimage groups Z . lifts.  The edge discrepancies put a(p g) in
    # Z a(p) a(g) for each visit edge (j, p, g), so along the search every
    # lift lies in Z times a product of seed generator lifts: those lifts
    # and Z generate the whole preimage
    p_group = closure([a_list[gi] for gi in seed_gens] + list(zs), cap=cap)
    if p_group.order != pair.f.image_order() * nz:
        raise LiftConsistencyError("preimage closure has unexpected order")
    p_prime = closure([b_list[gi] for gi in seed_gens] + list(zs), cap=cap)
    if p_prime.order != pair.fprime.image_order() * nz:
        raise LiftConsistencyError("second preimage closure has unexpected order")

    # z is pinned on the identity and on the kernel by well-definedness of F
    z_at_ident = z_index.get(a_list[ident] * b_list[ident].inverse())
    if z_at_ident is None:
        raise LiftConsistencyError("identity lifts do not differ by a central element")
    kernel_req = {}
    for i in pair.kernel:
        req = z_index.get(a_list[i] * b_list[i].inverse())
        if req is None:
            raise LiftConsistencyError("kernel lifts do not differ by a central element")
        kernel_req[i] = req

    # exact character tables over P, interned to integers
    char_ids: dict = {}

    def char_id(elem):
        vec = character_vector(g.factors, elem)
        got = char_ids.get(vec)
        if got is None:
            got = len(char_ids)
            char_ids[vec] = got
        return got

    cv_a = [[char_id(zs[w] * a_list[i]) for i in range(n)] for w in range(nz)]
    cv_b = [[char_id(zs[w] * b_list[i]) for i in range(n)] for w in range(nz)]

    examined = 0
    for seed in itertools.product(range(nz), repeat=len(seed_gens)):
        examined += 1
        z_arr = [0] * n
        z_arr[ident] = z_at_ident
        for gp, gi in enumerate(seed_gens):
            z_arr[gi] = seed[gp]
        for (j, i, gi) in visit:
            z_arr[j] = z_mul[z_mul[z_arr[i]][z_arr[gi]]][d_tab[i][gi]]
        ok = True
        for i, req in kernel_req.items():
            if z_arr[i] != req:
                ok = False
                break
        if ok:
            for i in range(n):
                zi_row = z_mul[z_arr[i]]
                d_row = d_tab[i]
                for gi, j in edges[i].items():
                    if z_arr[j] != z_mul[zi_row[z_arr[gi]]][d_row[gi]]:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            for w in range(nz):
                cva = cv_a[w]
                for i in range(n):
                    if cva[i] != cv_b[z_mul[w][z_arr[i]]][i]:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            return GloballyConjugate(z_arr, zs, examined, p_group.order)
    return NotGloballyConjugate(nz ** len(seed_gens), p_order=p_group.order)


# --- independent oracle for abelian diagonal-image pairs -----------------------


def _ambient_lift_hom(h: Hom, g: GroupSpec) -> Hom:
    """A multiplicative ambient lift of h, found by adjusting generator lifts."""
    src = h.src
    gens = tuple(src.gen_indices)
    if not gens:
        raise OracleDomainError("source group records no generators")
    zs = g.z_subgroup
    base = [g.ambient_of(h.apply_idx(i)) for i in gens]
    for combo in itertools.product(range(len(zs)), repeat=len(gens)):
        images = [zs[k] * x for k, x in zip(combo, base)]
        try:
            lifted = hom_from_gens(src, gens, images)
        except NotAHomomorphismError:
            continue
        for i in range(src.order):
            if g.wrap(lifted.images[i]) != g.wrap(g.ambient_of(h.images[i])):
                raise LiftConsistencyError("lift projects to the wrong homomorphism")
        return lifted
    raise OracleDomainError("no generator lift choice is multiplicative")


def _check_diagonal_domain(g: GroupSpec, images) -> None:
    for pos, f in enumerate(g.factors):
        for x in images:
            part = x.parts[pos]
            if f.kind == "SU":
                for r in range(part.rows):
                    for c in range(part.cols):
                        if r != c and not part[r, c].is_zero():
                            raise OracleDomainError("an SU image is not diagonal")
            else:
                if not (part.c.is_zero() and part.d.is_zero()):
                    raise OracleDomainError("an Sp(1) image is off the i-circle")


def _central_twist_homs(src: FinGroup, g: GroupSpec) -> list:
    """All homomorphisms from the source into Z, as ambient image lists."""
    zs = g.z_subgroup
    gens = tuple(gi for gi in src.gen_indices if gi != src.identity_index)
    out = []
    for combo in itertools.product(range(len(zs)), repeat=len(gens)):
        images = [zs[k] for k in combo]
        try:
            t = hom_from_gens(src, gens, images, target=None) if gens else None
        except NotAHomomorphismError:
            continue
        if t is None:
            ident = zs[0]
            out.append(tuple(ident for _ in range(src.order)))
        else:
            out.append(tuple(t.images))
    return out


def abelian_weight_oracle(pair: HomPair) -> bool:
    """Independent global-conjugacy decision for abelian diagonal-image pairs.

    Requires: abelian source; SU factors with diagonal ambient lifts and Sp(1)
    factors with lifts on the circle through i.  Decides by direct weight
    bookkeeping: some central twist must match each SU factor's multiset of
    diagonal weight characters (columns can be permuted by a conjugator) and
    each Sp(1) factor's circle character up to inversion.
    """
    src = pair.src
    g = pair.target
    if not src.is_abelian():
        raise OracleDomainError("source group is not abelian")
    lift_f = _ambient_lift_hom(pair.f, g)
    lift_fp = _ambient_lift_hom(pair.fprime, g)
    _check_diagonal_domain(g, lift_f.images)
    _check_diagonal_domain(g, lift_fp.images)

    n = src.order
    i_unit = cyc_i()
    for t_images in _central_twist_homs(src, g):
        all_match = True
        for pos, factor in enumerate(g.factors):
            if factor.kind == "SU":
                m = factor.n
                cols_t = []
                cols_p = []
                for c in range(m):
                    col_t = tuple(t_images[i].parts[pos][0, 0] * lift_f.images[i].parts[pos][c, c]
                                  for i in range(n))
                    col_p = tuple(lift_fp.images[i].parts[pos][c, c] for i in range(n))
                    cols_t.append(col_t)
                    cols_p.append(col_p)
                if sorted(cols_t, key=_column_key) != sorted(cols_p, key=_column_key):
                    all_match = False
                    break
            else:
                seq_t = tuple(t_images[i].parts[pos].a
                              * (lift_f.images[i].parts[pos].a
                                 + i_unit * lift_f.images[i].parts[pos].b)
                              for i in range(n))
                seq_p = tuple(lift_fp.images[i].parts[pos].a
                              + i_unit * lift_fp.images[i].parts[pos].b
                              for i in range(n))
                seq_p_conj = tuple(v.conj() for v in seq_p)
                if seq_t != seq_p and seq_t != seq_p_conj:
                    all_match = False
                    break
        if all_match:
            return True
    return False


def _column_key(col):
    return tuple(v.sort_key() for v in col)
