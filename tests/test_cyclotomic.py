"""Exact cyclotomic scalars: pinned identities and algebraic properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import acceptcert
from acceptcert.exactalg import (
    CONDUCTOR_CAP,
    ConductorCapError,
    ExactAlgError,
    NotRationalError,
    ONE,
    ZERO,
    cyc_half,
    cyc_i,
    cyc_rational,
    cyc_sqrt2,
    cyc_zeta,
    sqrt_rational,
)

CONDUCTORS = (1, 3, 4, 5, 8, 12, 20)


def test_kernel_name_is_the_pure_kernel():
    # public API: there is one scalar kernel, written in Python
    assert acceptcert.KERNEL_NAME == "pure"

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def cyc_numbers(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    terms = draw(st.lists(st.tuples(st.integers(0, n - 1), rationals),
                          min_size=0, max_size=3))
    total = ZERO
    for k, q in terms:
        total = total + cyc_zeta(n) ** k * cyc_rational(q)
    return total


def test_root_of_unity_relations():
    assert cyc_i() ** 2 == -ONE
    assert cyc_sqrt2() ** 2 == cyc_rational(2)
    assert cyc_half() + cyc_half() == ONE
    for n in (3, 4, 5, 8, 12):
        z = cyc_zeta(n)
        assert z ** n == ONE
        assert z ** (n - 1) == z.inverse()
    for p in (3, 5):
        total = ZERO
        for k in range(p):
            total = total + cyc_zeta(p) ** k
        assert total.is_zero()


def test_rationality_detection():
    assert ONE.is_rational() and ONE.rational() == Fraction(1)
    assert cyc_half().rational() == Fraction(1, 2)
    assert (cyc_zeta(3) + cyc_zeta(3) ** 2).rational() == Fraction(-1)
    assert not cyc_i().is_rational()
    with pytest.raises(NotRationalError):
        cyc_i().rational()


def test_reality_detection():
    assert cyc_sqrt2().is_real()
    assert not cyc_i().is_real()
    z = cyc_zeta(5)
    assert (z + z.conj()).is_real()
    assert not (z - z.conj()).is_real()


def test_sqrt_rational_values():
    assert sqrt_rational(0) == ZERO
    assert sqrt_rational(4) == cyc_rational(2)
    assert sqrt_rational(Fraction(9, 4)) == cyc_rational(Fraction(3, 2))
    for q in (2, 3, 5, Fraction(1, 2), Fraction(5, 3)):
        root = sqrt_rational(q)
        assert root ** 2 == cyc_rational(q)
        assert root.is_real()
    with pytest.raises(ExactAlgError):
        sqrt_rational(-2)


def test_sqrt_five_is_the_positive_root():
    # the quadratic-residue combination of fifth roots, a positive number
    z = cyc_zeta(5)
    assert sqrt_rational(5) == z + z ** 4 - z ** 2 - z ** 3


def test_conductor_cap():
    assert CONDUCTOR_CAP == 240
    with pytest.raises(ConductorCapError):
        cyc_zeta(CONDUCTOR_CAP + 1)


def test_mixed_conductor_arithmetic():
    # i lives at conductor 4, zeta_3 at 3; products land at 12
    w = cyc_zeta(3)
    z12 = cyc_zeta(12)
    assert cyc_i() * w == z12 ** 7
    assert (cyc_i() * w) ** 12 == ONE


@settings(max_examples=150)
@given(cyc_numbers(), cyc_numbers())
def test_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=100)
@given(cyc_numbers(), cyc_numbers(), cyc_numbers())
def test_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=150)
@given(cyc_numbers())
def test_conjugation_is_an_involution(a):
    assert a.conj().conj() == a


@settings(max_examples=100)
@given(cyc_numbers(), cyc_numbers())
def test_conjugation_is_a_ring_map(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


@settings(max_examples=150)
@given(cyc_numbers())
def test_norm_is_rational_and_nonnegative(a):
    norm = a * a.conj()
    assert norm.is_real()
    if norm.is_rational():
        assert norm.rational() >= 0
    assert norm.is_zero() == a.is_zero()


@settings(max_examples=100)
@given(cyc_numbers())
def test_inverse(a):
    if a.is_zero():
        return
    assert a * a.inverse() == ONE


@settings(max_examples=100)
@given(cyc_numbers(), st.integers(0, 5))
def test_power_matches_repeated_product(a, e):
    expect = ONE
    for _ in range(e):
        expect = expect * a
    assert a ** e == expect


@settings(max_examples=150)
@given(cyc_numbers(), cyc_numbers())
def test_sort_key_separates_values(a, b):
    if a == b:
        assert a.sort_key() == b.sort_key()
        assert hash(a) == hash(b)
    else:
        assert a.sort_key() != b.sort_key()


@settings(max_examples=100)
@given(cyc_numbers())
def test_json_form_is_stable(a):
    # the reduced form is canonical: adding zero gives back the same triple
    b = a + ZERO
    assert (b.n, b.nums, b.den) == (a.n, a.nums, a.den)


@settings(max_examples=100)
@given(st.sampled_from([(1, 4), (3, 12), (4, 12), (4, 20), (5, 20), (8, 8)]),
       st.integers(0, 7), st.integers(0, 7))
def test_conductor_embedding_is_a_ring_map(pair, j, k):
    # arithmetic done at a small conductor must agree with the same
    # arithmetic done after embedding into a larger one
    m, n = pair
    small_a, small_b = cyc_zeta(m) ** j, cyc_zeta(m) ** k
    big_a, big_b = cyc_zeta(n) ** (j * (n // m)), cyc_zeta(n) ** (k * (n // m))
    assert small_a == big_a
    assert small_a + small_b == big_a + big_b
    assert small_a * small_b == big_a * big_b
