"""Differential test of the Q[l] kernel against sympy's Poly over QQ.

Every PolyLambda result is compared with sympy's, and its stored form is
checked to be canonical: a positive denominator coprime to the content of
the integer numerators, and no trailing zero.  The same holds for the fused
kernel lincomb over Q[l] and Q[l][x], for the Horner sum falling_sum over
Q[l] and Q[l][x] against the chains of a x + c0 + c1 l with a step s0 + s1 l,
and for the monomial paths of poly_gcd and poly_divmod, which the Q(l) values
of the rstirling route take.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbern.exactcore import (
    PolyLambda,
    PolyXOverLambda,
    RationalFunctionLambda,
    falling_sum,
    lincomb,
    poly_divmod,
    poly_gcd,
)

sympy = pytest.importorskip("sympy")

L = sympy.Symbol("l")
X = sympy.Symbol("x")

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


# c l^k with a nonzero c: the denominators of the rstirling route
monomials = st.tuples(coefficients.filter(bool), st.integers(0, 6)).map(lambda t: PolyLambda([0] * t[1] + [t[0]]))
# a monomial times a general polynomial, so that a power of l divides it
shifted = st.tuples(polys, st.integers(0, 4)).map(lambda t: PolyLambda([0] * t[1] + list(t[0].coeffs)))
gcd_operands = st.one_of(monomials, shifted, polys)


@given(gcd_operands, gcd_operands)
@settings(max_examples=150, deadline=None)
def test_monomial_gcd_division_and_cancel_agree_with_sympy(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    agree(poly_gcd(a, b), sa.gcd(sb))
    agree(poly_gcd(b, a), sb.gcd(sa))
    if not b:
        return
    q, r = poly_divmod(a, b)
    sq, sr = sa.div(sb)
    agree(q, sq)
    agree(r, sr)
    # the constructor's normal form: coprime, with a monic denominator
    num, den = sympy.fraction(sympy.cancel(sa.as_expr() / sb.as_expr()))
    num, den = sympy.Poly(num, L, domain=sympy.QQ), sympy.Poly(den, L, domain=sympy.QQ)
    lead = den.LC()
    got = RationalFunctionLambda(a, b)
    agree(got.num, num * (1 / lead))
    agree(got.den, den.monic())


def to_sympy_xl(v):
    """A value of Q, Q[l] or Q[l][x] as a sympy Poly in x and l."""
    if isinstance(v, PolyXOverLambda):
        terms = {(j, i): rational(Fraction(c)) for j, p in enumerate(v.coeffs) for i, c in enumerate(p.coeffs)}
    elif isinstance(v, PolyLambda):
        terms = {(0, i): rational(Fraction(c)) for i, c in enumerate(v.coeffs)}
    else:
        terms = {(0, 0): rational(Fraction(v))}
    return sympy.Poly.from_dict(terms or {(0, 0): 0}, X, L, domain=sympy.QQ)


scalars_or_zero = st.one_of(st.sampled_from([0, 1, -1]), coefficients)
kernel_pl = st.one_of(st.sampled_from([PolyLambda.zero(), PolyLambda.one()]), polys)
kernel_px = st.lists(kernel_pl, max_size=4).map(PolyXOverLambda)
kernel_terms = st.lists(
    st.tuples(
        st.one_of(scalars_or_zero, kernel_pl, kernel_px),
        st.one_of(scalars_or_zero, kernel_pl, kernel_px),
        st.one_of(st.sampled_from([0, 1, -1]), scalars),
    ),
    max_size=5,
)


@given(kernel_terms)
@settings(max_examples=150, deadline=None)
def test_lincomb_agrees_with_sympy(terms):
    got = lincomb(terms)
    want = sum(
        (to_sympy_xl(a) * to_sympy_xl(b) * rational(Fraction(w)) for a, b, w in terms),
        sympy.Poly(0, X, L, domain=sympy.QQ),
    )
    assert to_sympy_xl(got) == want
    if isinstance(got, PolyXOverLambda):
        assert not got.coeffs or got.coeffs[-1]
        for c in got.coeffs:
            canonical(c)
    elif isinstance(got, PolyLambda):
        canonical(got)
    else:
        # rationals in, a Fraction out
        assert type(got) is Fraction


falling_terms = st.lists(
    st.tuples(st.one_of(scalars_or_zero, kernel_pl, kernel_px), st.one_of(st.sampled_from([0, 1, -1]), scalars)),
    max_size=8,
)
small = st.integers(-4, 4)


@given(falling_terms, small, small, small, small, small)
@settings(max_examples=150, deadline=None)
def test_falling_sum_agrees_with_sympy(terms, a, c0, c1, s0, s1):
    got = falling_sum(terms, (a, c0, c1), (s0, s1))
    want = sympy.Integer(0)
    for k, (b, w) in enumerate(terms):
        # the chain (base)_{k,step}, built by sympy
        chain = sympy.prod([a * X + c0 + c1 * L - i * (s0 + s1 * L) for i in range(k)])
        want += to_sympy_xl(b).as_expr() * chain * rational(Fraction(w))
    assert to_sympy_xl(got) == sympy.Poly(want, X, L, domain=sympy.QQ)
    if a or any(isinstance(b, PolyXOverLambda) for b, _ in terms):
        assert type(got) is PolyXOverLambda
        assert not got.coeffs or got.coeffs[-1]
        for c in got.coeffs:
            canonical(c)
    else:
        assert type(got) is PolyLambda
        canonical(got)
