"""Differential test of the Q[l] kernel against sympy's Poly over QQ.

Every PolyLambda result is compared with sympy's, and its stored form is
checked to be canonical: a positive denominator coprime to the content of
the integer numerators, and no trailing zero.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbern.exactcore import PolyLambda, poly_divmod, poly_gcd

sympy = pytest.importorskip("sympy")

L = sympy.Symbol("l")

# wide numerators and many denominators, so sums need lcm scaling and
# products and quotients need their gcd
coefficients = st.one_of(
    st.integers(-(10**12), 10**12),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=360),
)
polys = st.lists(coefficients, max_size=7).map(PolyLambda)
scalars = st.one_of(st.integers(-(10**6), 10**6), st.fractions(max_denominator=10**4))


def rational(q):
    return sympy.Rational(q.numerator, q.denominator)


def to_fraction(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


def to_sympy(p: PolyLambda):
    return sympy.Poly([rational(c) for c in reversed(p.coeffs)] or [0], L, domain=sympy.QQ)


def canonical(p: PolyLambda) -> PolyLambda:
    """p, after checking that its stored numerators and denominator are canonical."""
    terms, den = p._terms, p._den
    assert type(den) is int and den > 0
    assert all(type(t) is int for t in terms)
    assert not terms or terms[-1]
    assert gcd(den, *terms) == 1
    # the public view: an integer coefficient is an int, any other a Fraction
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in p.coeffs)
    return p


def agree(p: PolyLambda, q) -> None:
    """p is canonical and equals the sympy polynomial q."""
    canonical(p)
    want = [to_fraction(c) for c in reversed(q.all_coeffs())]
    while want and not want[-1]:
        want.pop()
    assert [Fraction(c) for c in p.coeffs] == want


@given(polys, polys, scalars, st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_ring_operations_agree_with_sympy(a, b, s, k):
    sa, sb = to_sympy(a), to_sympy(b)
    canonical(a)
    agree(a + b, sa + sb)
    agree(a - b, sa - sb)
    agree(a * b, sa * sb)
    agree(-a, -sa)
    agree(a * s, sa * rational(s))
    agree(s * a, sa * rational(s))
    agree(a * s.numerator, sa * s.numerator)
    agree(a**k, sa**k)


@given(polys, coefficients)
@settings(max_examples=200, deadline=None)
def test_evaluate_and_monic_agree_with_sympy(a, at):
    sa = to_sympy(a)
    value = a.evaluate(at)
    assert type(value) is Fraction
    assert value == to_fraction(sa.eval(rational(at)))
    if a:
        agree(a.monic(), sa.monic())


@given(polys, polys)
@settings(max_examples=200, deadline=None)
def test_division_and_gcd_agree_with_sympy(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    if b:
        q, r = poly_divmod(a, b)
        sq, sr = sa.div(sb)
        agree(q, sq)
        agree(r, sr)
    agree(poly_gcd(a, b), sa.gcd(sb))
