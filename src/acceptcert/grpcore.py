"""Ambient compact groups: products of SU(n), Sp(1), SO(3), and central quotients.

Group elements are exact objects: an SU(n) or SO(3) component is an
ExactMatrix, an Sp(1) component is a unit quaternion with real cyclotomic
components.  An element of a product is an AmbientElement (tuple of
components); an element of a central quotient is a fingrp.CosetElement over
the GroupSpec's coset context, storing the canonical coset representative
(the least translate z x, z in Z, under the deterministic sort key), so
equality and hashing are plain structural comparisons.  Z is enumerated by
fingrp.closure.

Component parts are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006).  A module table maps each part value to one canonical
object, and every place that creates a part for an AmbientElement (products,
inverses, GroupSpec.element, the identity and the central elements) hands
out that object.  Products and inverses of parts are memoized on top:
group-theoretic phases (closures, homomorphism verification, cocycle tables)
repeat the same factor pairs constantly, and each distinct pair is only ever
computed once.

Why this is sound.  Equality of parts stays structural (Quat.__eq__ and
ExactMatrix.__eq__ compare components), and hashing stays a function of the
value, so interning changes no answer: a dict or tuple lookup is decided by
hash and ``==`` exactly as before.  What changes is the cost.  CPython
compares container items with PyObject_RichCompareBool, which returns True
for two references to the same object before it calls ``__eq__``.  When both
sides of a comparison are canonical, equal values are the same object, so
the lookups in the product memo, in fingrp.closure, in FinGroup.index and in
the central-subgroup index of homcheck end at that identity check; unequal
canonical values still reach ``__eq__``, which tells them apart at their
first differing component.  A part that was never interned, or that was
interned before the tables were last cleared, is still equal to its
canonical twin under ``__eq__``, so it only takes the slower path.

The canonical table and the memos share one bound, ``_MUL_CACHE_LIMIT``
(400000) entries per table, and are cleared together when a table reaches
it.
"""

from __future__ import annotations

import itertools

from .exactalg import (
    CycNum,
    ExactAlgError,
    ExactMatrix,
    ONE,
    ZERO,
    cyc_rational,
    cyc_zeta,
)
from .exactalg.cyclotomic import _coerce
from .fingrp import CosetContext, CosetElement, closure


class GroupError(ExactAlgError):
    """An element failed membership validation for its declared group."""


# --- quaternions --------------------------------------------------------------


class Quat:
    """Quaternion a + b i + c j + d k with real cyclotomic components."""

    __slots__ = ("a", "b", "c", "d", "_key", "_hash")

    def __init__(self, a: CycNum, b: CycNum, c: CycNum, d: CycNum):
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self._key = None
        self._hash = None

    @classmethod
    def make(cls, a, b, c, d) -> "Quat":
        comps = []
        for v in (a, b, c, d):
            cv = _coerce(v)
            if cv is NotImplemented:
                raise GroupError("quaternion component %r is not an exact scalar" % (v,))
            comps.append(cv)
        for cv in comps:
            if not cv.is_real():
                raise GroupError("quaternion components must be real cyclotomic values")
        return cls(*comps)

    @classmethod
    def one(cls) -> "Quat":
        return _QUAT_ONE

    def __mul__(self, other: "Quat") -> "Quat":
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return Quat(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def conj(self) -> "Quat":
        return Quat(self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "Quat":
        n = self.norm_sq()
        if n == ONE:
            return self.conj()
        if n.is_zero():
            raise GroupError("the zero quaternion has no inverse")
        scale = n.inverse()
        flip = self.conj()
        return Quat(flip.a * scale, flip.b * scale, flip.c * scale, flip.d * scale)

    def __neg__(self) -> "Quat":
        return Quat(-self.a, -self.b, -self.c, -self.d)

    def norm_sq(self) -> CycNum:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def is_unit(self) -> bool:
        return self.norm_sq() == ONE

    def real_part(self) -> CycNum:
        return self.a

    def is_identity(self) -> bool:
        return self.a == ONE and self.b.is_zero() and self.c.is_zero() and self.d.is_zero()

    def sort_key(self):
        key = self._key
        if key is None:
            key = (self.a.sort_key(), self.b.sort_key(), self.c.sort_key(), self.d.sort_key())
            self._key = key
        return key

    def __eq__(self, other):
        if not isinstance(other, Quat):
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.a, self.b, self.c, self.d))
            self._hash = h
        return h

    def __repr__(self):
        return "Quat(%r, %r, %r, %r)" % (self.a, self.b, self.c, self.d)


_QUAT_ONE = Quat(ONE, ZERO, ZERO, ZERO)
QUAT_I = Quat(ZERO, ONE, ZERO, ZERO)
QUAT_J = Quat(ZERO, ZERO, ONE, ZERO)
QUAT_K = Quat(ZERO, ZERO, ZERO, ONE)


def adjoint_to_so3(q: Quat) -> ExactMatrix:
    """Rotation matrix of v -> q v q^-1 on the span of i, j, k (unit q).

    Columns are the images of i, j, k, so for example (1+i)/sqrt(2) maps to the
    quarter turn [[1,0,0],[0,0,-1],[0,1,0]].
    """
    a, b, c, d = q.a, q.b, q.c, q.d
    two = cyc_rational(2)
    aa, bb, cc, dd = a * a, b * b, c * c, d * d
    return ExactMatrix.make([
        [aa + bb - cc - dd, two * (b * c - a * d), two * (b * d + a * c)],
        [two * (b * c + a * d), aa - bb + cc - dd, two * (c * d - a * b)],
        [two * (b * d - a * c), two * (c * d + a * b), aa - bb - cc + dd],
    ])


# --- factors ------------------------------------------------------------------


class Factor:
    """One ambient factor: kind is "SU" (with size n >= 2), "Sp1" or "SO3"."""

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int = 0):
        if kind == "SU":
            if n < 2:
                raise GroupError("SU factor needs n >= 2")
        elif kind in ("Sp1", "SO3"):
            n = 0
        else:
            raise GroupError("unknown factor kind %r" % (kind,))
        self.kind = kind
        self.n = n

    def identity(self):
        if self.kind == "SU":
            return ExactMatrix.identity(self.n)
        if self.kind == "Sp1":
            return Quat.one()
        return ExactMatrix.identity(3)

    def validate(self, part) -> None:
        if self.kind == "Sp1":
            if not isinstance(part, Quat):
                raise GroupError("Sp(1) component must be a quaternion")
            if not part.is_unit():
                raise GroupError("Sp(1) component is not a unit quaternion")
            return
        if not isinstance(part, ExactMatrix):
            raise GroupError("%s component must be a matrix" % self.describe())
        if self.kind == "SU":
            if part.rows != self.n or part.cols != self.n:
                raise GroupError("SU(%d) component has wrong shape" % self.n)
            if not part.is_unitary():
                raise GroupError("SU(%d) component is not unitary" % self.n)
            if part.det() != ONE:
                raise GroupError("SU(%d) component has determinant != 1" % self.n)
            return
        if part.rows != 3 or part.cols != 3:
            raise GroupError("SO(3) component has wrong shape")
        if not part.is_real():
            raise GroupError("SO(3) component has non-real entries")
        if not part.is_orthogonal():
            raise GroupError("SO(3) component is not orthogonal")
        if part.det() != ONE:
            raise GroupError("SO(3) component has determinant != 1")

    def center_parts(self) -> tuple:
        """All central elements of this factor (they are finitely many)."""
        if self.kind == "SU":
            z = cyc_zeta(self.n)
            return tuple(ExactMatrix.identity(self.n).scaled(z ** k) for k in range(self.n))
        if self.kind == "Sp1":
            return (Quat.one(), -Quat.one())
        return (ExactMatrix.identity(3),)

    def describe(self) -> str:
        if self.kind == "SU":
            return "SU(%d)" % self.n
        return "Sp(1)" if self.kind == "Sp1" else "SO(3)"

    def __repr__(self):
        return "Factor(%s)" % self.describe()


def su_factor(n: int) -> Factor:
    return Factor("SU", n)


def sp1_factor() -> Factor:
    return Factor("Sp1")


def so3_factor() -> Factor:
    return Factor("SO3")


# --- ambient elements ---------------------------------------------------------


_PARTS: dict = {}       # part value -> its canonical object
_MUL_CACHE: dict = {}   # (part, part) -> canonical product
_INV_CACHE: dict = {}   # part -> canonical inverse
_MUL_CACHE_LIMIT = 400000


def _clear_tables() -> None:
    _PARTS.clear()
    _MUL_CACHE.clear()
    _INV_CACHE.clear()


def _intern(part):
    """The canonical object equal to ``part`` (``part`` itself when new)."""
    got = _PARTS.get(part)
    if got is None:
        if len(_PARTS) >= _MUL_CACHE_LIMIT:
            _clear_tables()
        _PARTS[part] = got = part
    return got


def _memo_mul(a, b):
    key = (a, b)
    got = _MUL_CACHE.get(key)
    if got is None:
        if len(_MUL_CACHE) >= _MUL_CACHE_LIMIT:
            _clear_tables()
        got = _intern(a * b)
        _MUL_CACHE[key] = got
    return got


def _memo_inv(part):
    """Canonical inverse of a unit quaternion, unitary or rotation matrix."""
    got = _INV_CACHE.get(part)
    if got is None:
        if len(_INV_CACHE) >= _MUL_CACHE_LIMIT:
            _clear_tables()
        inv = part.conj() if isinstance(part, Quat) else part.conj_transpose()
        got = _intern(inv)
        _INV_CACHE[part] = got
    return got


class AmbientElement:
    """Element of a product of factors; components multiply independently."""

    __slots__ = ("parts", "_key", "_hash")

    def __init__(self, parts: tuple):
        self.parts = parts
        self._key = None
        self._hash = None

    @classmethod
    def make(cls, parts) -> "AmbientElement":
        """The element with these parts, each replaced by its canonical object."""
        return cls(tuple(_intern(p) for p in parts))

    def __mul__(self, other: "AmbientElement") -> "AmbientElement":
        return AmbientElement(tuple(
            _memo_mul(x, y) for x, y in zip(self.parts, other.parts)
        ))

    def inverse(self) -> "AmbientElement":
        return AmbientElement(tuple(_memo_inv(p) for p in self.parts))

    def is_identity(self) -> bool:
        for part in self.parts:
            if not part.is_identity():
                return False
        return True

    def sort_key(self):
        key = self._key
        if key is None:
            key = tuple(p.sort_key() for p in self.parts)
            self._key = key
        return key

    def __eq__(self, other):
        if not isinstance(other, AmbientElement):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.parts)
            self._hash = h
        return h

    def __repr__(self):
        return "AmbientElement(%d parts)" % len(self.parts)


# --- target group layout ------------------------------------------------------


class GroupSpec:
    """A product of classical factors, optionally modulo a central subgroup.

    ``center_gens`` is a list of part tuples generating the subgroup Z to
    quotient by; each generator must be central in the ambient product (scalar
    in SU factors, +-1 in Sp(1) factors, identity in SO(3) factors).  The full
    subgroup is enumerated at construction.
    """

    def __init__(self, factors, center_gens=()):
        self.factors = tuple(factors)
        if not self.factors:
            raise GroupError("a group needs at least one factor")
        gens = []
        for parts in center_gens:
            elem = self.element(parts, validate=False)
            self._validate_central(elem)
            gens.append(elem)
        self.z_subgroup = (closure(gens).elements if gens
                           else (self.identity_ambient(),))
        self.is_quotient = len(self.z_subgroup) > 1
        self.cosets = CosetContext(self.z_subgroup)

    # construction helpers

    def element(self, parts, validate: bool = True) -> AmbientElement:
        parts = tuple(parts)
        if len(parts) != len(self.factors):
            raise GroupError("expected %d components, got %d"
                             % (len(self.factors), len(parts)))
        if validate:
            for factor, part in zip(self.factors, parts):
                factor.validate(part)
        return AmbientElement.make(parts)

    def identity_ambient(self) -> AmbientElement:
        return AmbientElement.make(f.identity() for f in self.factors)

    def _validate_central(self, elem: AmbientElement) -> None:
        for factor, part in zip(self.factors, elem.parts):
            centrals = factor.center_parts()
            if part not in centrals:
                raise GroupError(
                    "component is not central in %s" % factor.describe()
                )
            factor.validate(part)

    # quotient structure

    def coset_rep(self, x: AmbientElement) -> AmbientElement:
        """The least translate z x, z in Z: the representative of the coset Z x."""
        if not self.is_quotient:
            return x
        return self.cosets.canonical(x)

    def wrap(self, x: AmbientElement):
        """Group element for the ambient x (a CosetElement when Z is nontrivial)."""
        if not self.is_quotient:
            return x
        return CosetElement(self.cosets, self.coset_rep(x))

    def wrap_parts(self, parts, validate: bool = True):
        return self.wrap(self.element(parts, validate=validate))

    def identity(self):
        return self.wrap(self.identity_ambient())

    @staticmethod
    def ambient_of(x) -> AmbientElement:
        """The ambient representative of x (for a coset, its canonical one)."""
        return x.rep if isinstance(x, CosetElement) else x

    # centers

    def ambient_center_elements(self) -> tuple:
        """All central elements of the ambient product (a finite set)."""
        per_factor = [f.center_parts() for f in self.factors]
        return tuple(AmbientElement.make(combo) for combo in itertools.product(*per_factor))

    def center_elements(self) -> tuple:
        """Center of the group itself: ambient center modulo Z, deduplicated.

        The ambient product is connected, so the center of the quotient is the
        image of the ambient center.
        """
        seen = []
        out = []
        for amb in self.ambient_center_elements():
            w = self.wrap(amb)
            if w not in seen:
                seen.append(w)
                out.append(w)
        return tuple(sorted(out, key=lambda e: e.sort_key()))

    def describe(self) -> str:
        base = " x ".join(f.describe() for f in self.factors)
        if self.is_quotient:
            return "(%s) / Z with |Z| = %d" % (base, len(self.z_subgroup))
        return base

    def __repr__(self):
        return "GroupSpec(%s)" % self.describe()
