import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtorb.cli import _fraction_text
from qtorb.exact import Poly

polys = st.lists(st.integers(-30, 30), max_size=6).map(Poly)


def test_mul_binomial_square():
    assert Poly([1, 1]) * Poly([1, 1]) == Poly([1, 2, 1])


def test_pow_zero_is_one():
    assert Poly([-1, 1]) ** 0 == Poly([1])


def test_add_cancels_to_empty():
    result = Poly([1, 1]) + Poly([-1, -1])
    assert result == Poly([])
    assert result.coeffs == ()


def test_trailing_zeros_stripped():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()


def test_degree():
    assert Poly([]).degree == -1
    assert Poly([0, 0, 5]).degree == 2


def test_int_mixing():
    assert Poly([1, 1]) + 2 == Poly([3, 1])
    assert 3 * Poly([0, 1]) == Poly([0, 3])
    assert sum([Poly([1]), Poly([0, 1])]) == Poly([1, 1])


def test_shifted():
    assert Poly([1, 1]).shifted(2) == Poly([0, 0, 1, 1])
    assert Poly([]).shifted(3) == Poly([])


def test_even_expansion():
    assert Poly([1, 2, 1]).even_expansion() == [1, 0, 2, 0, 1]
    assert Poly([]).even_expansion() == []


def test_rejects_fractional_coefficients():
    with pytest.raises(TypeError):
        Poly([Fraction(1, 2)])
    assert Poly([Fraction(4, 2)]).coeffs == (2,)


def test_str_rendering():
    assert str(Poly([1, 2, 1])) == "1 + 2*s + s^2"
    assert str(Poly([])) == "0"


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys, st.integers(-3, 3), st.integers(0, 3))
def test_arithmetic_results_are_trimmed(p, q, c, k):
    # Equality is tuple comparison, so an untrimmed result would compare
    # unequal to the same polynomial built by the public constructor.
    for result in (p + q, p - q, -p, p * q, p * c, c * p, p.shifted(k), p + (-p)):
        assert not result.coeffs or result.coeffs[-1] != 0


@given(polys, st.integers(0, 4))
def test_pow_matches_repeated_mul(p, k):
    expected = Poly([1])
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


@given(st.integers(1, 20), st.integers(1, 23))
def test_binom_pascal(n, k):
    # Pascal's rule pins the whole table to the boundary cases, among them
    # C(n, k) = 0 for k > n, which the dilate counts from ages rely on.
    assert math.comb(n, k) == math.comb(n - 1, k - 1) + math.comb(n - 1, k)


def rat_to_str(p: int, q: int) -> str:
    """Serialize the rational p/q, q nonzero, in lowest terms with a
    positive denominator: ``"p/q"``, or just ``"p"`` when that is 1."""
    g = math.gcd(p, q)
    if q < 0:
        g = -g
    p //= g
    q //= g
    return str(p) if q == 1 else f"{p}/{q}"


def test_rat_serialization():
    assert rat_to_str(1, 2) == "1/2"
    assert rat_to_str(-3, 4) == "-3/4"
    assert rat_to_str(3, 1) == "3"
    assert rat_to_str(6, 4) == "3/2"
    assert rat_to_str(3, -6) == "-1/2"
    assert rat_to_str(0, 7) == "0"
    assert rat_to_str(10, 5) == "2"
    # The listings' JSON text of x/e, e > 0: an integer, or the reduced
    # fraction in quotes.
    assert _fraction_text(1, 2) == '"1/2"'
    assert _fraction_text(-3, 4) == '"-3/4"'
    assert _fraction_text(3, 1) == "3"
    assert _fraction_text(6, 4) == '"3/2"'
    assert _fraction_text(0, 7) == "0"
    assert _fraction_text(10, 5) == "2"


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool))
def test_rat_serialization_round_trips(p, q):
    text = rat_to_str(p, q)
    assert Fraction(text) == Fraction(p, q)
    # Lowest terms, positive denominator: the text Fraction itself writes.
    assert text == str(Fraction(p, q))
    if q > 0:
        # The listings' text of the same rational is its JSON: the
        # integer, or the same text in quotes.
        value = Fraction(p, q)
        assert json.loads(_fraction_text(p, q)) == (value.numerator if value.denominator == 1 else text)


@given(st.fractions(), st.fractions())
def test_fraction_invariants_closed(a, b):
    for value in (a + b, a - b, a * b) + ((a / b,) if b else ()):
        assert value.denominator >= 1
        from math import gcd

        assert gcd(abs(value.numerator), value.denominator) == 1
