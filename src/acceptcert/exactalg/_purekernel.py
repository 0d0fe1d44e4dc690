"""Pure-Python arithmetic kernel.

A field element is carried as ``(nums, den)`` where ``nums`` is a tuple of
integers (coefficients over the power basis of the cyclotomic field, reduced
modulo the conductor's cyclotomic polynomial) and ``den`` is a positive
integer with ``gcd(*nums, den) == 1``.  ``red`` is the tuple of reduction
rows: ``red[j]`` gives the basis expansion of ``x**(deg+j)``.

``KERNEL_NAME`` is kept as public API (``acceptcert.KERNEL_NAME``) and is
always ``"pure"``.
"""

from math import gcd

KERNEL_NAME = "pure"


def normalize(nums, den):
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


def add(anums, aden, bnums, bden):
    if aden == bden:
        return normalize([x + y for x, y in zip(anums, bnums)], aden)
    return normalize([x * bden + y * aden for x, y in zip(anums, bnums)], aden * bden)


def sub(anums, aden, bnums, bden):
    if aden == bden:
        return normalize([x - y for x, y in zip(anums, bnums)], aden)
    return normalize([x * bden - y * aden for x, y in zip(anums, bnums)], aden * bden)


def scale(anums, aden, snum, sden):
    if snum == 0:
        return (0,) * len(anums), 1
    return normalize([snum * v for v in anums], aden * sden)


def mul_mod(anums, aden, bnums, bden, red):
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
    return normalize(out, aden * bden)


def apply_rows(nums, rows, deg):
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
