"""Exact scalars: elements of cyclotomic fields Q(zeta_n) with rational coefficients.

Representation
--------------
A value is a coefficient vector over the power basis 1, zeta, ..., zeta^(phi(n)-1)
of Q(zeta_n), reduced modulo the n-th cyclotomic polynomial, together with a
single positive denominator (coefficients stay integer tuples internally).
The stored conductor is always minimal for the value and never 2 mod 4, so the
reduced form is unique and equality is plain component equality.  There is no
floating point anywhere in this module.

Mixed-conductor arithmetic embeds both operands into Q(zeta_lcm) first; the
lcm is capped (``CONDUCTOR_CAP``, default 240) so degrees stay bounded.

The integer kernels on coefficient vectors (``_add``, ``_mul_mod``,
``_apply_rows`` and the rest) are private functions of this module, written
in plain Python.  ``KERNEL_NAME`` names that kernel and is always ``"pure"``.

Ordering
--------
``sort_key`` gives a total order: lexicographic on (conductor, coefficient
keys), where a coefficient key orders zero first, then positives, then
negatives, each class lexicographically by reduced numerator and denominator.
This is NOT a numeric order; it exists so coset representatives and report
output can be chosen canonically.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd

KERNEL_NAME = "pure"

CONDUCTOR_CAP = 240


class ExactAlgError(Exception):
    """Base error for the exact-arithmetic layer."""


class ConductorCapError(ExactAlgError):
    """A computation would need a conductor above the configured cap."""


class NotRationalError(ExactAlgError):
    """A rational value was required but the element is irrational."""


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def prime_factors(n: int) -> tuple[int, ...]:
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return tuple(out)


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _poly_divexact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials (den monic, ascending coeffs)."""
    num = list(num)
    dq = len(num) - len(den)
    quot = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = num[k + len(den) - 1]
        quot[k] = c
        if c:
            for i, b in enumerate(den):
                num[k + i] -= c * b
    if any(num):
        raise ExactAlgError("polynomial division was not exact")
    return quot


_CYCLO_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    cached = _CYCLO_CACHE.get(n)
    if cached is not None:
        return cached
    if n == 1:
        poly = (-1, 1)
    else:
        work = [-1] + [0] * (n - 1) + [1]
        for d in _divisors(n):
            if d < n:
                work = _poly_divexact(work, cyclotomic_poly(d))
        poly = tuple(work)
    _CYCLO_CACHE[n] = poly
    return poly


def _canon_conductor(n: int) -> int:
    return n // 2 if n % 4 == 2 else n


class _Conductor:
    """Per-conductor tables: reduction rows, monomials, Galois and embedding maps."""

    __slots__ = ("n", "deg", "phi", "red", "mono", "_galois", "_embed", "_solvers", "_fixers")

    def __init__(self, n: int):
        phi = cyclotomic_poly(n)
        deg = len(phi) - 1
        if deg != euler_phi(n):
            raise ExactAlgError("cyclotomic degree mismatch at conductor %d" % n)
        self.n = n
        self.deg = deg
        self.phi = phi
        mono = []
        row = [0] * deg
        row[0] = 1
        mono.append(tuple(row))
        top_row = tuple(-c for c in phi[:deg])
        for _ in range(1, n):
            prev = mono[-1]
            top = prev[deg - 1]
            nxt = [0] + list(prev[: deg - 1])
            if top:
                for i in range(deg):
                    nxt[i] += top * top_row[i]
            mono.append(tuple(nxt))
        self.mono = tuple(mono)
        self.red = tuple(mono[(deg + j) % n] for j in range(max(deg - 1, 1)))
        self._galois: dict[int, tuple] = {}
        self._embed: dict[int, tuple] = {}
        self._solvers: dict[int, tuple] = {}
        self._fixers: dict[int, tuple] = {}

    def galois_rows(self, a: int) -> tuple:
        rows = self._galois.get(a)
        if rows is None:
            rows = tuple(self.mono[(a * k) % self.n] for k in range(self.deg))
            self._galois[a] = rows
        return rows

    def embed_rows(self, d: int) -> tuple:
        rows = self._embed.get(d)
        if rows is None:
            if self.n % d:
                raise ExactAlgError("conductor %d does not divide %d" % (d, self.n))
            step = self.n // d
            rows = tuple(self.mono[(k * step) % self.n] for k in range(euler_phi(d)))
            self._embed[d] = rows
        return rows

    def fixer(self, d: int) -> tuple:
        """Units a != 1 of Z/n with a = 1 mod d (they fix Q(zeta_d) pointwise)."""
        fix = self._fixers.get(d)
        if fix is None:
            fix = tuple(
                a for a in range(2, self.n) if gcd(a, self.n) == 1 and a % d == 1
            )
            self._fixers[d] = fix
        return fix

    def subfield_solver(self, d: int):
        """Row selection plus inverse matrix expressing a vector over Q(zeta_d)."""
        solver = self._solvers.get(d)
        if solver is None:
            cols = self.embed_rows(d)
            dd = len(cols)
            picked: list[int] = []
            basis: list[list[Fraction]] = []
            for r in range(self.deg):
                cand = [Fraction(cols[c][r]) for c in range(dd)]
                work = cand[:]
                for prow in basis:
                    lead = next((j for j, v in enumerate(prow) if v), None)
                    if lead is not None and work[lead]:
                        f = work[lead] / prow[lead]
                        for j in range(dd):
                            work[j] -= f * prow[j]
                if any(work):
                    basis.append(work)
                    picked.append(r)
                    if len(picked) == dd:
                        break
            if len(picked) != dd:
                raise ExactAlgError("embedding matrix is rank-deficient")
            square = [[Fraction(cols[c][r]) for c in range(dd)] for r in picked]
            inv = _invert_fraction_matrix(square)
            solver = (tuple(picked), inv)
            self._solvers[d] = solver
        return solver


def _invert_fraction_matrix(square: list[list[Fraction]]) -> tuple:
    k = len(square)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(square)]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[k:]) for row in aug)


_COND_CACHE: dict[int, _Conductor] = {}
_COND_LOCK = threading.Lock()


def _conductor(n: int) -> _Conductor:
    cond = _COND_CACHE.get(n)
    if cond is None:
        with _COND_LOCK:
            cond = _COND_CACHE.get(n)
            if cond is None:
                cond = _Conductor(n)
                _COND_CACHE[n] = cond
    return cond


def check_conductor(n: int) -> None:
    """Raise ConductorCapError when conductor ``n`` exceeds ``CONDUCTOR_CAP``."""
    if n > CONDUCTOR_CAP:
        raise ConductorCapError(
            "conductor %d exceeds the cap %d" % (n, CONDUCTOR_CAP)
        )


# --- coefficient-vector kernels -----------------------------------------------
#
# The inner loops of the arithmetic, on raw ``(nums, den)`` pairs: ``nums`` is
# a tuple of integers over the power basis, ``den`` a positive integer with
# ``gcd(*nums, den) == 1``.  ``red`` is the tuple of reduction rows of a
# conductor: ``red[j]`` is the basis expansion of ``x**(deg+j)``.


def _normalize(nums, den):
    """Reduce nums/den to lowest terms with a positive denominator."""
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    g = den
    for v in nums:
        if v:
            g = gcd(g, v)
            if g == 1:
                break
    if g > 1:
        den //= g
        nums = [v // g for v in nums]
    return tuple(nums), den


def _add(anums, aden, bnums, bden):
    if aden == bden:
        return _normalize([x + y for x, y in zip(anums, bnums)], aden)
    return _normalize([x * bden + y * aden for x, y in zip(anums, bnums)], aden * bden)


def _sub(anums, aden, bnums, bden):
    if aden == bden:
        return _normalize([x - y for x, y in zip(anums, bnums)], aden)
    return _normalize([x * bden - y * aden for x, y in zip(anums, bnums)], aden * bden)


def _scale(anums, aden, snum, sden):
    if snum == 0:
        return (0,) * len(anums), 1
    return _normalize([snum * v for v in anums], aden * sden)


def _mul_mod(anums, aden, bnums, bden, red):
    """Product of two elements of the same conductor, reduced and normalized."""
    deg = len(anums)
    conv = [0] * (2 * deg - 1)
    for i, a in enumerate(anums):
        if a == 0:
            continue
        for j, b in enumerate(bnums):
            if b:
                conv[i + j] += a * b
    out = conv[:deg]
    for k in range(2 * deg - 2, deg - 1, -1):
        c = conv[k]
        if c:
            row = red[k - deg]
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
    return _normalize(out, aden * bden)


def _apply_rows(nums, rows, deg):
    """Integer basis substitution: sum of nums[k] * rows[k] over k."""
    out = [0] * deg
    for k, c in enumerate(nums):
        if c == 0:
            continue
        row = rows[k]
        for i, r in enumerate(row):
            if r:
                out[i] += c * r
    return tuple(out)


class CycNum:
    """One element of a cyclotomic field, always in reduced canonical form.

    Instances are immutable; all operators return new values.  Do not call the
    constructor directly, go through :func:`cyc_make`, :func:`cyc_rational` or
    :func:`cyc_zeta` (internal code uses the normalizing classmethods).
    """

    __slots__ = ("n", "nums", "den", "_key", "_hash")

    def __init__(self, n: int, nums: tuple, den: int):
        self.n = n
        self.nums = nums
        self.den = den
        self._key = None
        self._hash = None

    # --- construction -----------------------------------------------------

    @classmethod
    def _raw(cls, n: int, nums: tuple, den: int) -> "CycNum":
        return cls(n, nums, den)

    @classmethod
    def _normalized(cls, n: int, nums, den: int) -> "CycNum":
        """Reduce the conductor to its minimum and return the canonical value."""
        while True:
            if n == 1:
                return cls._raw(1, tuple(nums), den)
            if not any(nums[1:]):
                g = gcd(abs(nums[0]), den)
                return cls._raw(1, (nums[0] // g,), den // g) if g > 1 else cls._raw(1, (nums[0],), den)
            cond = _conductor(n)
            descended = False
            for p in prime_factors(n):
                d = n // p
                if d == 1:
                    continue  # rational case was handled above
                fixed = True
                for a in cond.fixer(d):
                    if _apply_rows(nums, cond.galois_rows(a), cond.deg) != tuple(nums):
                        fixed = False
                        break
                if not fixed:
                    continue
                target = _canon_conductor(d)
                picked, inv = cond.subfield_solver(target)
                coeffs = [
                    sum(inv[i][j] * Fraction(nums[picked[j]], den) for j in range(len(picked)))
                    for i in range(len(picked))
                ]
                common = 1
                for c in coeffs:
                    common = common * c.denominator // gcd(common, c.denominator)
                nums = [int(c * common) for c in coeffs]
                den = common
                n = target
                descended = True
                break
            if not descended:
                return cls._raw(n, tuple(nums), den)

    # --- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return self.den == 1 and not any(self.nums)

    def is_rational(self) -> bool:
        return self.n == 1

    def rational(self) -> Fraction:
        if self.n != 1:
            raise NotRationalError("value has conductor %d" % self.n)
        return Fraction(self.nums[0], self.den)

    def is_real(self) -> bool:
        return self.conj() == self

    # --- arithmetic -------------------------------------------------------

    def _lift(self, n: int) -> tuple:
        """Raw coefficient vector of this value inside Q(zeta_n)."""
        if self.n == n:
            return self.nums
        cond = _conductor(n)
        return _apply_rows(self.nums, cond.embed_rows(self.n), cond.deg)

    @staticmethod
    def _common(a: "CycNum", b: "CycNum") -> int:
        if a.n == b.n:
            return a.n
        n = a.n * b.n // gcd(a.n, b.n)
        n = _canon_conductor(n)
        check_conductor(n)
        return n

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self._common(self, other)
        nums, den = _add(self._lift(n), self.den, other._lift(n), other.den)
        return CycNum._normalized(n, nums, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self._common(self, other)
        nums, den = _sub(self._lift(n), self.den, other._lift(n), other.den)
        return CycNum._normalized(n, nums, den)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return CycNum._raw(self.n, tuple(-v for v in self.nums), self.den)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ZERO
        if other.n == 1:
            nums, den = _scale(self.nums, self.den, other.nums[0], other.den)
            return CycNum._raw(self.n, nums, den)
        if self.n == 1:
            nums, den = _scale(other.nums, other.den, self.nums[0], self.den)
            return CycNum._raw(other.n, nums, den)
        n = self._common(self, other)
        cond = _conductor(n)
        nums, den = _mul_mod(self._lift(n), self.den, other._lift(n), other.den, cond.red)
        return CycNum._normalized(n, nums, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.n == 1:
            return cyc_rational(Fraction(self.den, self.nums[0]))
        cond = _conductor(self.n)
        r0 = [Fraction(c) for c in cond.phi]
        s0 = [Fraction(0)]
        r1 = [Fraction(v, self.den) for v in self.nums]
        s1 = [Fraction(1)]
        while _poly_deg(r1) > 0:
            quot, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul_frac(quot, s1))
        lead = r1[0]
        inv_coeffs = [c / lead for c in s1]
        inv_coeffs += [Fraction(0)] * (cond.deg - len(inv_coeffs))
        common = 1
        for c in inv_coeffs:
            common = common * c.denominator // gcd(common, c.denominator)
        nums = tuple(int(c * common) for c in inv_coeffs[: cond.deg])
        return CycNum._normalized(self.n, nums, common)

    def conj(self) -> "CycNum":
        """Complex conjugate (the Galois map zeta -> zeta inverse)."""
        if self.n == 1:
            return self
        cond = _conductor(self.n)
        nums = _apply_rows(self.nums, cond.galois_rows(self.n - 1), cond.deg)
        nums, den = _normalize(list(nums), self.den)
        return CycNum._raw(self.n, nums, den)

    # --- canonical order and equality -------------------------------------

    def sort_key(self):
        key = self._key
        if key is None:
            coeff_keys = []
            for v in self.nums:
                if v == 0:
                    coeff_keys.append((0, 0, 1))
                else:
                    p = abs(v)
                    g = gcd(p, self.den)
                    coeff_keys.append((1 if v > 0 else 2, p // g, self.den // g))
            key = (self.n, tuple(coeff_keys))
            self._key = key
        return key

    def __lt__(self, other):
        """Canonical (non-numeric) order; used only to pick representatives."""
        return self.sort_key() < other.sort_key()

    def __eq__(self, other):
        if isinstance(other, CycNum):
            return self.n == other.n and self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return self.n == 1 and self.rational() == other
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, self.nums, self.den))
            self._hash = h
        return h

    def __repr__(self):
        if self.n == 1:
            return "CycNum(%s)" % _frac_str(self.rational())
        coeffs = ", ".join(_frac_str(Fraction(v, self.den)) for v in self.nums)
        return "CycNum(n=%d, [%s])" % (self.n, coeffs)


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _poly_deg(p: list) -> int:
    d = len(p) - 1
    while d > 0 and not p[d]:
        d -= 1
    return d


def _poly_divmod(num: list, den: list):
    dn = _poly_deg(num)
    dd = _poly_deg(den)
    num = list(num[: dn + 1])
    if dn < dd:
        return [Fraction(0)], num
    quot = [Fraction(0)] * (dn - dd + 1)
    lead = den[dd]
    for k in range(dn - dd, -1, -1):
        c = num[k + dd] / lead
        quot[k] = c
        if c:
            for i in range(dd + 1):
                num[k + i] -= c * den[i]
    rem = num[:dd]
    if not rem:
        rem = [Fraction(0)]
    return quot, rem


def _poly_mul_frac(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a: list, b: list) -> list:
    size = max(len(a), len(b))
    out = [Fraction(0)] * size
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] -= v
    return out


def _coerce(value):
    if isinstance(value, CycNum):
        return value
    if isinstance(value, int):
        return cyc_rational(Fraction(value))
    if isinstance(value, Fraction):
        return cyc_rational(value)
    return NotImplemented


# --- public constructors ----------------------------------------------------


def cyc_rational(q) -> CycNum:
    q = Fraction(q)
    return CycNum._raw(1, (q.numerator,), q.denominator)


ZERO = cyc_rational(0)
ONE = cyc_rational(1)


def cyc_make(n: int, coeffs) -> CycNum:
    """Element of Q(zeta_n) from a rational coefficient vector of length phi(n)."""
    if n < 1:
        raise ExactAlgError("conductor must be positive")
    check_conductor(n)
    coeffs = [Fraction(c) for c in coeffs]
    if len(coeffs) != euler_phi(n):
        raise ExactAlgError(
            "expected %d coefficients for conductor %d, got %d"
            % (euler_phi(n), n, len(coeffs))
        )
    if n % 4 == 2:
        # Q(zeta_n) equals Q(zeta_(n/2)); rewrite zeta_n as -zeta_(n/2)^((n/2+1)/2)
        m = n // 2
        shift = (m + 1) // 2
        value = cyc_rational(0)
        for k, c in enumerate(coeffs):
            if c:
                term = cyc_zeta(m) ** ((shift * k) % m)
                sign = -1 if k % 2 else 1
                value = value + term * (c * sign)
        return value
    common = 1
    for c in coeffs:
        common = common * c.denominator // gcd(common, c.denominator)
    nums = [int(c * common) for c in coeffs]
    nums, den = _normalize(nums, common)
    return CycNum._normalized(n, nums, den)


_ZETA_CACHE: dict[int, CycNum] = {}


def cyc_zeta(n: int) -> CycNum:
    """The primitive root of unity zeta_n = exp(2 pi i / n) as an exact value."""
    z = _ZETA_CACHE.get(n)
    if z is None:
        if n == 1:
            z = ONE
        else:
            check_conductor(n)
            deg = euler_phi(n)
            coeffs = [0] * deg
            if deg == 1:
                cond = _conductor(n)
                z = CycNum._normalized(n, cond.mono[1 % n], 1)
            else:
                coeffs[1] = 1
                z = cyc_make(n, coeffs)
        _ZETA_CACHE[n] = z
    return z


def cyc_i() -> CycNum:
    return cyc_zeta(4)


def cyc_sqrt2() -> CycNum:
    z = cyc_zeta(8)
    return z + z.conj()


def cyc_half() -> CycNum:
    return cyc_rational(Fraction(1, 2))


def sqrt_rational(q) -> CycNum:
    """Exact square root of a nonnegative rational as a cyclotomic value.

    Uses quadratic Gauss sums: sqrt(p) lies in Q(zeta_p) for p = 1 mod 4 and in
    Q(zeta_4p) for p = 3 mod 4; sqrt(2) lies in Q(zeta_8).  Raises
    ConductorCapError if the needed conductor is out of range.
    """
    q = Fraction(q)
    if q < 0:
        raise ExactAlgError("sqrt of a negative rational is not real")
    if q == 0:
        return ZERO
    num, den = q.numerator, q.denominator
    # sqrt(a/b) = sqrt(a*b) / b
    radicand = num * den
    root = 1
    rest = 1
    p = 2
    m = radicand
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            root *= p ** (e // 2)
            if e % 2:
                rest *= p
        p += 1
    if m > 1:
        rest *= m
    value = cyc_rational(Fraction(root, den))
    for p in prime_factors(rest):
        value = value * _sqrt_prime(p)
    return value


def _sqrt_prime(p: int) -> CycNum:
    if p == 2:
        return cyc_sqrt2()
    z = cyc_zeta(p)
    gauss = ZERO
    for k in range(1, p):
        legendre = pow(k, (p - 1) // 2, p)
        term = z ** k
        gauss = gauss + term if legendre == 1 else gauss - term
    if p % 4 == 1:
        return gauss
    # gauss^2 = -p here, divide by i
    return gauss * cyc_zeta(4).inverse()
