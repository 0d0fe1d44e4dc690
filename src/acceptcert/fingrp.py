"""Finite group engine: closures, formal presented groups, verified homomorphisms.

Elements are anything with __mul__, inverse(), is_identity(), sort_key(),
__eq__ and __hash__: ambient elements from grpcore, formal normal-form
tuples from this module, or CosetElements.  A CosetElement is a coset x N of
a normal subgroup N, held by its least translate s x (s in N) under the
sort key; the finite quotients of quotient_by_central and the central
quotients of grpcore.GroupSpec both use it.

A FinGroup stores a sorted, deduplicated element tuple and answers
multiplication by index.  FinGroup.walk is the one search over generators:
the edges x -> x g for every element x and generator g, and a breadth-first
tree over them.  Homomorphisms are stored total (one image per source
element) and are verified at construction: on the walk's edges when the
generators generate the source (O(n |gens|) products, proved sufficient in
Hom.verify), and on every pair of source elements otherwise.  A failed
relation raises NotAHomomorphismError, which callers treat as a meaningful
verdict rather than a crash.
"""

from __future__ import annotations

import itertools
import os


class ClosureCapError(Exception):
    """Closure exceeded the configured element cap (group too large or infinite)."""


class NotAHomomorphismError(Exception):
    """Generator images do not extend to a homomorphism; carries a failing pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class GroupStructureError(Exception):
    """Input violates a structural precondition (not a subgroup, not normal, ...)."""


def default_closure_cap() -> int:
    return int(os.environ.get("ACCEPTCERT_MAX_CLOSURE", "100000"))


class FinGroup:
    """Immutable finite group over exact element payloads."""

    def __init__(self, elements, gen_indices=()):
        elems = []
        seen = set()
        for x in elements:
            if x not in seen:
                seen.add(x)
                elems.append(x)
        elems.sort(key=lambda x: x.sort_key())
        self.elements = tuple(elems)
        self.index = {x: i for i, x in enumerate(self.elements)}
        ident = None
        for i, x in enumerate(self.elements):
            if x.is_identity():
                ident = i
                break
        if ident is None:
            raise GroupStructureError("element list has no identity")
        self.identity_index = ident
        self.gen_indices = tuple(gen_indices)
        self._mul = {}
        self._inv = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def element(self, i: int):
        return self.elements[i]

    def idx(self, x) -> int:
        try:
            return self.index[x]
        except KeyError:
            raise GroupStructureError("element is not in the group") from None

    def __contains__(self, x) -> bool:
        return x in self.index

    def __iter__(self):
        return iter(self.elements)

    def mul_idx(self, i: int, j: int) -> int:
        key = (i, j)
        k = self._mul.get(key)
        if k is None:
            prod = self.elements[i] * self.elements[j]
            k = self.idx(prod)
            self._mul[key] = k
        return k

    def inv_idx(self, i: int) -> int:
        k = self._inv.get(i)
        if k is None:
            k = self.idx(self.elements[i].inverse())
            self._inv[i] = k
        return k

    def walk(self, gens) -> tuple:
        """(edges, tree): the generator edges and a breadth-first tree over them.

        ``edges[i]`` maps each generator index g to i g (``mul_idx``, so the
        n |gens| products are memoized); repeated generators and the
        identity are dropped.  ``tree`` lists, in breadth-first order from
        the identity, one triple (j, i, g) per other element reached, with
        j = i g = edges[i][g]; it has ``order - 1`` entries exactly when the
        generators generate the group.  Every reached element is thus a word
        in the generators, which is what the word-length inductions of
        Hom.verify and homcheck.decide_global rest on.
        """
        ident = self.identity_index
        gens = [g for g in dict.fromkeys(gens) if g != ident]
        edges = [{g: self.mul_idx(i, g) for g in gens} for i in range(self.order)]
        tree = []
        reached = [False] * self.order
        reached[ident] = True
        frontier = [ident]
        while frontier:
            nxt = []
            for i in frontier:
                for g, j in edges[i].items():
                    if not reached[j]:
                        reached[j] = True
                        tree.append((j, i, g))
                        nxt.append(j)
            frontier = nxt
        return edges, tree

    def generators(self) -> tuple:
        return tuple(self.elements[i] for i in self.gen_indices)

    def is_abelian(self) -> bool:
        n = self.order
        gens = self.gen_indices or range(n)
        for i in gens:
            for j in gens:
                if self.mul_idx(i, j) != self.mul_idx(j, i):
                    return False
        return True

    def is_normal_subset(self, sub_elements) -> bool:
        sub = set(sub_elements)
        for x in self.elements:
            xi = x.inverse()
            for s in sub:
                if (x * s) * xi not in sub:
                    return False
        return True

    def __repr__(self):
        return "FinGroup(order=%d)" % self.order


def closure(generators, cap: int | None = None) -> FinGroup:
    """Breadth-first closure of generators under multiplication.

    Every generator has finite order in our element domains, so the closed set
    is the generated subgroup (it picks up the identity and inverses on its
    own).  Raises ClosureCapError past the cap.
    """
    if cap is None:
        cap = default_closure_cap()
    gens = list(generators)
    if not gens:
        raise GroupStructureError("closure needs at least one generator")
    seen = dict.fromkeys(gens)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen[y] = None
                    nxt.append(y)
                    if len(seen) > cap:
                        raise ClosureCapError(
                            "closure exceeded cap of %d elements" % cap)
        frontier = nxt
    group = FinGroup(list(seen))
    group.gen_indices = tuple(group.idx(g) for g in gens)
    return group


# --- formal groups ------------------------------------------------------------


class FormalGroupSpec:
    """Either CyclicProduct(n1, ..., nk) or CentralExt2(n1, n2).

    CentralExt2 normal forms are triples (a, b, c) standing for
    g0^a g1^b g2^c with a mod 2, b mod n1, c mod n2, multiplied by
    (a,b,c)(a',b',c') = (a+a'+c*b' mod 2, b+b' mod n1, c+c' mod n2),
    so g2 g1 = g0 g1 g2 and g0 is central of order 2.
    """

    def __init__(self, kind: str, orders: tuple):
        if kind not in ("CyclicProduct", "CentralExt2"):
            raise GroupStructureError("unknown formal group kind %r" % (kind,))
        orders = tuple(int(n) for n in orders)
        if any(n < 1 for n in orders):
            raise GroupStructureError("cycle orders must be positive")
        if kind == "CentralExt2" and len(orders) != 2:
            raise GroupStructureError("CentralExt2 takes exactly two orders")
        self.kind = kind
        self.orders = orders

    @staticmethod
    def cyclic_product(*orders) -> "FormalGroupSpec":
        return FormalGroupSpec("CyclicProduct", orders)

    @staticmethod
    def central_ext2(n1: int, n2: int) -> "FormalGroupSpec":
        return FormalGroupSpec("CentralExt2", (n1, n2))


class FormalElement:
    """Normal-form tuple element of a formal group."""

    __slots__ = ("spec", "coords", "_hash")

    def __init__(self, spec: FormalGroupSpec, coords: tuple):
        self.spec = spec
        self.coords = coords
        self._hash = None

    def __mul__(self, other: "FormalElement") -> "FormalElement":
        spec = self.spec
        a, b = self.coords, other.coords
        if spec.kind == "CyclicProduct":
            coords = tuple((x + y) % n for x, y, n in zip(a, b, spec.orders))
        else:
            n1, n2 = spec.orders
            coords = ((a[0] + b[0] + a[2] * b[1]) % 2,
                      (a[1] + b[1]) % n1,
                      (a[2] + b[2]) % n2)
        return FormalElement(spec, coords)

    def inverse(self) -> "FormalElement":
        spec = self.spec
        if spec.kind == "CyclicProduct":
            coords = tuple((-x) % n for x, n in zip(self.coords, spec.orders))
        else:
            n1, n2 = spec.orders
            a, b, c = self.coords
            coords = ((a + b * c) % 2, (-b) % n1, (-c) % n2)
        return FormalElement(spec, coords)

    def is_identity(self) -> bool:
        return not any(self.coords)

    def sort_key(self):
        return self.coords

    def __eq__(self, other):
        if not isinstance(other, FormalElement):
            return NotImplemented
        return self.spec is other.spec and self.coords == other.coords

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.coords)
            self._hash = h
        return h

    def __repr__(self):
        return "FormalElement%r" % (self.coords,)


def formal_group(spec: FormalGroupSpec) -> FinGroup:
    if spec.kind == "CyclicProduct":
        coords_iter = itertools.product(*(range(n) for n in spec.orders))
        elements = [FormalElement(spec, c) for c in coords_iter]
        group = FinGroup(elements)
        gens = []
        for i, n in enumerate(spec.orders):
            unit = tuple(int(j == i) for j in range(len(spec.orders)))
            gens.append(group.idx(FormalElement(spec, unit)))
        group.gen_indices = tuple(gens)
        return group
    n1, n2 = spec.orders
    elements = [FormalElement(spec, (a, b, c))
                for a in range(2) for b in range(n1) for c in range(n2)]
    group = FinGroup(elements)
    g0 = FormalElement(spec, (1, 0, 0))
    g1 = FormalElement(spec, (0, 1, 0))
    g2 = FormalElement(spec, (0, 0, 1))
    # construction-time relation audit straight from the multiplication rule
    _power_check(g1, n1)
    _power_check(g2, n2)
    _power_check(g0, 2)
    for x in elements:
        if not (g0 * x == x * g0):
            raise GroupStructureError("central element fails centrality")
    comm = (g2 * g1) * (g1 * g2).inverse()
    if comm != g0:
        raise GroupStructureError("commutator of the two generators is not g0")
    group.gen_indices = (group.idx(g1), group.idx(g2))
    return group


def _power_check(x: FormalElement, n: int) -> None:
    acc = x
    for _ in range(n - 1):
        acc = acc * x
    if not acc.is_identity():
        raise GroupStructureError("generator order relation fails")


# --- homomorphisms ------------------------------------------------------------


class Hom:
    """Total homomorphism from a FinGroup, verified at construction."""

    def __init__(self, src: FinGroup, target, images: tuple, verified: bool = False):
        self.src = src
        self.target = target
        self.images = tuple(images)
        if len(self.images) != src.order:
            raise GroupStructureError("need one image per source element")
        if not verified:
            self.verify()

    def verify(self) -> None:
        """Raise NotAHomomorphismError unless f(x)f(y) = f(xy) for all x, y.

        After checking f(e) = e, it checks f(x)f(g) = f(xg) on every edge
        x -> x g of ``src.walk`` over the recorded generators, element by
        element in the walk's breadth-first order.  When the walk reaches
        every element, this proves f a homomorphism.  The edges out of every
        element are checked, so f(x g) = f(x) f(g) holds for all x and every
        generator g; and the walk's tree writes every y as a word g1 ... gk
        in the generators.  Induct on k to show f(x y) = f(x) f(y) for all
        x: for k = 0, y = e and f(x e) = f(x) = f(x) f(e) since f(e) = e;
        for y = y' g, f(x y' g) = f(x y') f(g) = f(x) f(y') f(g) =
        f(x) f(y' g), the last step being the edge (y', g).  This costs
        O(n |gens|) products instead of O(n^2).  When the generators do not
        reach every element (or none are recorded), every pair is checked
        instead.
        """
        src = self.src
        images = self.images
        ident = src.identity_index
        if not images[ident].is_identity():
            raise NotAHomomorphismError("identity does not map to identity",
                                        pair=(ident, ident))
        edges, tree = src.walk(src.gen_indices)
        for i in [ident] + [j for j, _, _ in tree]:
            fi = images[i]
            for gi, j in edges[i].items():
                if fi * images[gi] != images[j]:
                    raise _relation_failure(i, gi)
        if len(tree) == src.order - 1:
            return
        pair = first_failing_pair(src, images)
        if pair is not None:
            raise _relation_failure(*pair)

    def apply(self, x):
        return self.images[self.src.idx(x)]

    def apply_idx(self, i: int):
        return self.images[i]

    def image_order(self) -> int:
        return len(set(self.images))

    def kernel_indices(self) -> tuple:
        return tuple(i for i, y in enumerate(self.images) if y.is_identity())

    def __repr__(self):
        return "Hom(src order %d, image order %d)" % (self.src.order, self.image_order())


def _relation_failure(i: int, j: int) -> NotAHomomorphismError:
    return NotAHomomorphismError(
        "f(x)f(y) != f(xy) at source pair (%d, %d)" % (i, j), pair=(i, j))


def first_failing_pair(src: FinGroup, images):
    """First source pair (i, j) with f(i)f(j) != f(ij), or None: the full check."""
    for i in range(src.order):
        fi = images[i]
        for j in range(src.order):
            if fi * images[j] != images[src.mul_idx(i, j)]:
                return (i, j)
    return None


def hom_from_gens(src: FinGroup, gen_indices, images, target=None) -> Hom:
    """Extend generator images multiplicatively and verify the extension.

    The image of j = i g on the tree of ``src.walk(gen_indices)`` is
    f(i) f(g); a repeated generator keeps its first image.  Raises
    GroupStructureError unless the walk reaches every element, and
    NotAHomomorphismError when the images satisfy no consistent
    extension: that exception is a verdict (the assignment is not a
    homomorphism), not a failure of the machinery.
    """
    gen_indices = tuple(gen_indices)
    images = tuple(images)
    if len(gen_indices) != len(images):
        raise GroupStructureError("generator/image count mismatch")
    if gen_indices:
        some = images[0]
        ident_img = some * some.inverse()
    else:
        if target is None:
            raise GroupStructureError("trivial generating set needs a target")
        ident_img = target.identity()
    image_of = {}
    for g, img in zip(gen_indices, images):
        image_of.setdefault(g, img)
    _, tree = src.walk(gen_indices)
    if len(tree) != src.order - 1:
        raise GroupStructureError("given indices do not generate the group")
    total = [None] * src.order
    total[src.identity_index] = ident_img
    for j, i, g in tree:
        total[j] = total[i] * image_of[g]
    return Hom(src, target, tuple(total))


def identity_hom(src: FinGroup, target=None) -> Hom:
    return Hom(src, target, src.elements, verified=True)


# --- quotients and Hom-sets ---------------------------------------------------


class CosetContext:
    """Shared data for one quotient: the normal subgroup's elements.

    ``canonical(x)`` is the least translate s x over s in the subgroup N
    under the sort key, the representative every CosetElement of the
    quotient holds, so two cosets are equal iff their representatives are.
    N is normal, so N x = x N and this is the least element of x N too.

    ``identity_rep`` is the representative of the identity coset N, its
    least element.  A representative r lies in N iff r == identity_rep: if
    r is in N then N r = N and its least element is identity_rep; if
    r = identity_rep it is in N.
    """

    __slots__ = ("normal", "identity_rep")

    def __init__(self, normal: tuple):
        self.normal = normal
        self.identity_rep = min(normal, key=lambda s: s.sort_key())

    def canonical(self, x):
        best = None
        best_key = None
        for s in self.normal:
            cand = s * x
            key = cand.sort_key()
            if best is None or key < best_key:
                best = cand
                best_key = key
        return best


class CosetElement:
    """Coset of a normal subgroup in a finite group, held by canonical rep."""

    __slots__ = ("ctx", "rep", "_hash")

    def __init__(self, ctx: CosetContext, rep):
        self.ctx = ctx
        self.rep = rep
        self._hash = None

    def __mul__(self, other: "CosetElement") -> "CosetElement":
        if self.ctx is not other.ctx:
            raise GroupStructureError("cannot multiply cosets of different quotients")
        return CosetElement(self.ctx, self.ctx.canonical(self.rep * other.rep))

    def inverse(self) -> "CosetElement":
        return CosetElement(self.ctx, self.ctx.canonical(self.rep.inverse()))

    def is_identity(self) -> bool:
        return self.rep == self.ctx.identity_rep

    def sort_key(self):
        return self.rep.sort_key()

    def __eq__(self, other):
        if not isinstance(other, CosetElement):
            return NotImplemented
        return self.ctx is other.ctx and self.rep == other.rep

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.rep)
            self._hash = h
        return h

    def __repr__(self):
        return "CosetElement(%r)" % (self.rep,)


def quotient_by_central(group: FinGroup, normal: FinGroup):
    """Quotient of a finite group by a verified-normal subgroup, plus projection.

    The name reflects the main use (central subgroups); normality is what is
    actually required and checked.
    """
    for s in normal.elements:
        group.idx(s)
    if not group.is_normal_subset(normal.elements):
        raise GroupStructureError("subgroup is not normal")
    ctx = CosetContext(tuple(normal.elements))
    cosets = {}
    images = []
    for x in group.elements:
        c = CosetElement(ctx, ctx.canonical(x))
        cosets[c] = None
        images.append(c)
    quot = FinGroup(list(cosets))
    quot.gen_indices = tuple(sorted({quot.idx(images[i])
                                     for i in (group.gen_indices or range(group.order))}))
    projection = Hom(group, quot, tuple(images))
    return quot, projection


def _is_elem_abelian_2(group: FinGroup) -> bool:
    if not group.is_abelian():
        return False
    e = group.identity_index
    return all(group.mul_idx(i, i) == e for i in range(group.order))


def _f2_basis(group: FinGroup):
    """Greedy F2 basis with a subset decomposition for every element."""
    e = group.identity_index
    decomp = {e: frozenset()}
    basis = []
    for i in range(group.order):
        if i in decomp:
            continue
        basis.append(i)
        b = len(basis) - 1
        additions = {}
        for j, ds in decomp.items():
            k = group.mul_idx(j, i)
            additions[k] = ds | {b}
        decomp.update(additions)
    return basis, decomp


def hom_set_to_elem_abelian_2(src: FinGroup, target: FinGroup) -> list:
    """All homomorphisms between elementary abelian 2-groups, as verified Homs."""
    if not _is_elem_abelian_2(src):
        raise GroupStructureError("source is not an elementary abelian 2-group")
    if not _is_elem_abelian_2(target):
        raise GroupStructureError("target is not an elementary abelian 2-group")
    basis, decomp = _f2_basis(src)
    homs = []
    for assignment in itertools.product(range(target.order), repeat=len(basis)):
        images = []
        for i in range(src.order):
            acc = target.identity_index
            for b in decomp[i]:
                acc = target.mul_idx(acc, assignment[b])
            images.append(target.elements[acc])
        homs.append(Hom(src, target, tuple(images)))
    return homs
