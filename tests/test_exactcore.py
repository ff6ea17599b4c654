"""Exact arithmetic foundations: Q[l], Q(l), Q[l][x]."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from degenbern import exactcore
from degenbern.exactcore import (
    PolyLambda,
    PolyXOverLambda,
    RationalFunctionLambda,
    falling_sum,
    lincomb,
    poly_divmod,
    poly_gcd,
)
from degenbern.triangles import _chain

LAM = PolyLambda.lam()
ONE = PolyLambda.one()
X = PolyXOverLambda.x()

rationals = st.fractions(min_value=-60, max_value=60, max_denominator=12)
polys = st.lists(rationals, max_size=6).map(PolyLambda)
nonzero_polys = polys.filter(bool)


def pl(*coeffs):
    return PolyLambda([Fraction(c) for c in coeffs])


class TestPolyLambda:
    def test_zero_is_empty(self):
        assert PolyLambda.zero().coeffs == ()
        assert pl(0, 0, 0) == PolyLambda.zero()
        assert not PolyLambda.zero()

    def test_no_trailing_zeros(self):
        assert pl(1, 2, 0, 0).coeffs == (1, 2)

    def test_product_expansion(self):
        assert (LAM - 1) * (LAM - 2) == pl(2, -3, 1)

    def test_scalar_mixing(self):
        assert 1 - LAM == pl(1, -1)
        assert LAM + Fraction(1, 2) == pl(Fraction(1, 2), 1)
        assert 3 * LAM == pl(0, 3)

    def test_power(self):
        assert LAM**0 == ONE
        assert (LAM - 1) ** 2 == pl(1, -2, 1)

    def test_evaluate(self):
        p = pl(2, -3, 1)
        assert p.evaluate(Fraction(0)) == 2
        assert p.evaluate(Fraction(1)) == 0
        assert p.evaluate(Fraction(1, 2)) == Fraction(3, 4)

    def test_boolean_coefficient_rejected(self):
        for coeffs in ((True,), (1, False)):
            with pytest.raises(TypeError, match="coefficient must be int or Fraction, got bool"):
                PolyLambda(coeffs)

    def test_serialize_dense_ascending(self):
        assert pl(Fraction(1, 6), 0, Fraction(-1, 6)).serialize() == "1/6 + 0/1*l + -1/6*l^2"
        assert PolyLambda.zero().serialize() == "0/1"

    @given(polys, polys, polys)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == PolyLambda.zero()
        assert a * ONE == a

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=60)
    def test_degree_of_product_adds(self, a, b):
        assert (a * b).degree == a.degree + b.degree

    @given(polys, nonzero_polys)
    @settings(max_examples=60)
    def test_divmod_reconstructs(self, a, b):
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert not r or r.degree < b.degree

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=40)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        assert not poly_divmod(a, g)[1]
        assert not poly_divmod(b, g)[1]
        assert g.lead == 1


class TestRationalFunction:
    def test_cancellation(self):
        assert RationalFunctionLambda(LAM * LAM - 1, LAM - 1) == LAM + 1
        assert RationalFunctionLambda((LAM + 1) * (LAM + 2), LAM + 1) == LAM + 2

    def test_zero_canonical(self):
        rf = RationalFunctionLambda(PolyLambda.zero(), LAM + 3)
        assert rf.num == PolyLambda.zero()
        assert rf.den == ONE

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError, match="division by zero polynomial"):
            RationalFunctionLambda(ONE, PolyLambda.zero())

    def test_monic_denominator(self):
        rf = RationalFunctionLambda(ONE, 2 * LAM)
        assert rf.den == LAM
        assert rf.num == PolyLambda.constant(Fraction(1, 2))

    def test_polynomial_quotient_has_unit_denominator(self):
        rf = RationalFunctionLambda(LAM * LAM, LAM)
        assert (rf.num, rf.den) == (LAM, ONE)
        assert RationalFunctionLambda(ONE, LAM + 1).den == LAM + 1

    def test_field_inverse(self):
        rf = RationalFunctionLambda(LAM + 1, LAM**3)
        assert rf * (1 / rf) == RationalFunctionLambda.one()

    def test_serialize(self):
        rf = RationalFunctionLambda(LAM + 1, LAM)
        assert rf.serialize() == "(1/1 + 1/1*l) / (0/1 + 1/1*l)"

    @given(polys, nonzero_polys, polys, nonzero_polys)
    @settings(max_examples=50)
    def test_cross_multiplication_equality(self, a, b, c, d):
        lhs = RationalFunctionLambda(a, b)
        rhs = RationalFunctionLambda(c, d)
        assert (lhs == rhs) == (a * d == b * c)

    @given(polys, nonzero_polys)
    @settings(max_examples=50)
    def test_normalization_idempotent(self, a, b):
        once = RationalFunctionLambda(a, b)
        again = RationalFunctionLambda(once.num, once.den)
        assert once.num == again.num and once.den == again.den

    @given(polys, nonzero_polys, polys, nonzero_polys)
    @settings(max_examples=40)
    def test_field_arithmetic_matches_cross_forms(self, a, b, c, d):
        lhs = RationalFunctionLambda(a, b) + RationalFunctionLambda(c, d)
        assert lhs == RationalFunctionLambda(a * d + c * b, b * d)


def typed(p):
    """A PolyLambda's coefficients with their types: 1 and Fraction(1) differ."""
    return tuple((type(c), c) for c in p.coeffs)


def same_reduction(got, num, den):
    """got carries exactly the coefficients the full-normalizing constructor gives num/den."""
    want = RationalFunctionLambda(num, den)
    assert (typed(got.num), typed(got.den)) == (typed(want.num), typed(want.den))


constants = st.lists(rationals, max_size=1).map(PolyLambda)
# (num, den) pairs: a general one, one over 1, and a constant over 1
fractions_of_polys = st.one_of(
    st.tuples(polys, nonzero_polys),
    st.tuples(polys, st.just(ONE)),
    st.tuples(constants, st.just(ONE)),
)


class TestHenriciArithmetic:
    """Each operation reduces by Henrici's smaller gcds; the reference is the
    full-normalizing constructor applied to the unreduced cross form."""

    @given(fractions_of_polys, fractions_of_polys)
    @settings(max_examples=80)
    def test_ring_operations_match_the_cross_form(self, x, y):
        (a, b), (c, d) = x, y
        u, v = RationalFunctionLambda(a, b), RationalFunctionLambda(c, d)
        same_reduction(u + v, a * d + c * b, b * d)
        same_reduction(u - v, a * d - c * b, b * d)
        same_reduction(u * v, a * c, b * d)
        same_reduction(-u, -a, b)
        if c:
            same_reduction(u / v, a * d, b * c)

    @given(polys, polys, nonzero_polys, nonzero_polys)
    @settings(max_examples=60)
    def test_equal_denominators(self, a, c, b, common):
        # both operands share the denominator b * common before and after reduction
        den = b * common
        u, v = RationalFunctionLambda(a, den), RationalFunctionLambda(c, den)
        same_reduction(u + v, a + c, den)
        same_reduction(u - v, a - c, den)
        same_reduction(u + u, a * 2, den)

    @given(polys, nonzero_polys, polys, rationals)
    @settings(max_examples=60)
    def test_mixed_operands(self, a, b, c, q):
        u = RationalFunctionLambda(a, b)
        same_reduction(u + c, a + c * b, b)
        same_reduction(c - u, c * b - a, b)
        same_reduction(c * u, c * a, b)
        same_reduction(u * q, a * q, b)
        if a:
            same_reduction(q / u, b * q, a)

    def test_coercion_runs_no_gcd(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("poly_gcd called")

        monkeypatch.setattr(exactcore, "poly_gcd", refuse)
        u = RationalFunctionLambda.one() * (LAM + 1) + Fraction(1, 3)
        assert (u.num, u.den) == (LAM + Fraction(4, 3), ONE)
        assert (u * 3).num == 3 * LAM + 4
        assert (-u + u) == RationalFunctionLambda.zero()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError, match="division by zero polynomial"):
            RationalFunctionLambda(ONE, LAM) / RationalFunctionLambda.zero()


class TestBooleanEquality:
    """A bool is never a coefficient: comparing with one is plain False,
    while construction stays strict."""

    @pytest.mark.parametrize(
        "value",
        [PolyLambda.one(), PolyXOverLambda.one(), RationalFunctionLambda.one(), PolyLambda.zero()],
        ids=["pl", "px", "ratfun", "pl-zero"],
    )
    def test_comparison_with_bool_is_false(self, value):
        for flag in (True, False):
            assert (value == flag) is False
            assert (flag == value) is False
            assert value != flag
        assert len({True, value}) == 2

    @pytest.mark.parametrize(
        "value", [LAM, X, RationalFunctionLambda(LAM, LAM + 1)], ids=["pl", "px", "ratfun"]
    )
    def test_eq_answers_not_implemented_to_a_bool_and_a_foreign_type(self, value):
        for other in (True, False, "a", 1.5, None):
            assert value.__eq__(other) is NotImplemented

    @pytest.mark.parametrize(
        "a, b, lifted",
        [(LAM, LAM + 0, 3), (X, X + 0, ONE), (RationalFunctionLambda(LAM, LAM + 1), RationalFunctionLambda(LAM, LAM + 1), LAM)],
        ids=["pl", "px", "ratfun"],
    )
    def test_same_type_equality_takes_no_lift(self, monkeypatch, a, b, lifted):
        def refuse(v):
            raise AssertionError("lifted")

        monkeypatch.setattr(type(a), "_lift", staticmethod(refuse))
        assert a == b and not (a != b) and a != -a
        with pytest.raises(AssertionError, match="lifted"):
            a == lifted

    def test_construction_with_bool_still_refused(self):
        for build in (
            lambda: RationalFunctionLambda(True),
            lambda: RationalFunctionLambda(ONE, False),
            lambda: PolyXOverLambda((ONE, False)),
            lambda: PolyXOverLambda((True,)),
        ):
            with pytest.raises(TypeError, match="got bool"):
                build()

    @pytest.mark.parametrize(
        "product",
        [lambda: ONE * True, lambda: True * LAM, lambda: ONE * False, lambda: X * False, lambda: True * X],
        ids=["pl-true", "true-pl", "pl-false", "px-false", "true-px"],
    )
    def test_scalar_multiplication_by_bool_refused(self, product):
        with pytest.raises(TypeError, match="coefficient must be int or Fraction, got bool"):
            product()


PX_POLYS = st.lists(polys, max_size=4).map(PolyXOverLambda)


def at(p, r, q):
    """p at l = r and x = q, summed out in Fractions without evaluate."""
    if isinstance(p, PolyXOverLambda):
        return sum((at(c, r, q) * q**j for j, c in enumerate(p.coeffs)), Fraction(0))
    return sum((Fraction(c) * r**i for i, c in enumerate(p.coeffs)), Fraction(0))


RFL = RationalFunctionLambda(LAM, LAM + 1)


class TestForeignOperands:
    """An operand that lifts into neither ring meets Python's own TypeError
    (a str times a value is Python's refused sequence repetition); a
    rational on the left takes the reflected operator."""

    @pytest.mark.parametrize("value", [LAM, X, RFL], ids=["pl", "px", "ratfun"])
    @pytest.mark.parametrize("other", [1.5, "a"], ids=["float", "str"])
    def test_float_and_str_operands_refused(self, value, other):
        ops = [operator.add, operator.sub, operator.mul]
        if isinstance(value, RationalFunctionLambda):
            ops.append(operator.truediv)
        for op in ops:
            repeat = other == "a" and op is operator.mul
            message = "can't multiply sequence" if repeat else "unsupported operand type"
            with pytest.raises(TypeError, match=message):
                op(value, other)
            if other == 1.5:
                with pytest.raises(TypeError, match="unsupported operand type"):
                    op(other, value)
        assert (value == other) is False
        assert value != other

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_x_polynomials_and_rational_functions_do_not_mix(self, op):
        for a, b in ((X, RFL), (RFL, X)):
            with pytest.raises(TypeError, match="unsupported operand type"):
                op(a, b)

    def test_reflected_rationals_give_the_ring_result(self):
        assert type(1 - LAM) is PolyLambda
        assert 1 - LAM == PolyLambda((1, -1))
        assert 2 / RFL == RationalFunctionLambda(2 * LAM + 2, LAM)
        assert type(Fraction(1, 2) + X) is PolyXOverLambda
        assert Fraction(1, 2) + X == PolyXOverLambda((Fraction(1, 2), 1))


class TestDenseRings:
    """PolyLambda and PolyXOverLambda share one dense-polynomial definition."""

    # the methods perfbench's tracer finds by name in each class's own namespace
    TRACED = ("__mul__", "__add__", "__sub__", "__rsub__", "__neg__", "serialize", "pretty")

    def test_each_class_holds_its_own_traced_methods(self):
        for cls in (PolyLambda, PolyXOverLambda):
            own = vars(cls)
            assert all(name in own for name in self.TRACED)
            assert own["__radd__"] is own["__add__"]
            assert own["__rmul__"] is own["__mul__"]
        pl_fns = {id(vars(PolyLambda)[name]) for name in self.TRACED}
        px_fns = {id(vars(PolyXOverLambda)[name]) for name in self.TRACED}
        assert not pl_fns & px_fns

    @pytest.mark.parametrize(
        "v",
        [0, -7, 10**40 + 3, Fraction(-3, 6), Fraction(7, 1)],
        ids=["zero", "negative", "large", "half", "seven"],
    )
    @pytest.mark.parametrize("cls", [PolyLambda, PolyXOverLambda], ids=["pl", "px"])
    def test_constant_is_the_canonical_element(self, cls, v):
        def stored(p):
            terms = [stored(t) for t in p._terms] if isinstance(p, PolyXOverLambda) else list(p._terms)
            return terms, p._den

        c = canonical_form(cls.constant(v))
        assert type(c) is cls
        assert stored(c) == stored(cls((v,)))
        assert hash(c) == hash(v)

    @pytest.mark.parametrize("ring,cls", [(polys, PolyLambda), (PX_POLYS, PolyXOverLambda)], ids=["pl", "px"])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_ring_operations_match_fraction_arithmetic(self, ring, cls, data):
        # the ring's one is drawn on its own too: a product by it is short-circuited
        a, b = (data.draw(ring | st.just(cls.one())) for _ in range(2))
        q, r, k = data.draw(rationals), data.draw(rationals), data.draw(st.integers(0, 3))
        va, vb = at(a, r, q), at(b, r, q)
        assert at(a + b, r, q) == va + vb
        assert at(a - b, r, q) == va - vb
        assert at(a * b, r, q) == va * vb
        assert at(b * a, r, q) == va * vb
        assert at(-a, r, q) == -va
        assert at(a**k, r, q) == va**k
        assert at(a * q, r, q) == va * q


# lincomb operands: rationals, PolyLambda and PolyXOverLambda, each with its
# zero and its one drawn on their own, and wide numerators over many
# denominators, so that the common denominator of a sum has to grow
KERNEL_SCALARS = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(1)]),
    st.integers(-(10**9), 10**9),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=360),
)
KERNEL_PL = st.one_of(
    st.sampled_from([PolyLambda.zero(), PolyLambda.one()]),
    st.lists(KERNEL_SCALARS, max_size=5).map(PolyLambda),
)
KERNEL_PX = st.one_of(
    st.sampled_from([PolyXOverLambda.zero(), PolyXOverLambda.one()]),
    st.lists(KERNEL_PL, max_size=4).map(PolyXOverLambda),
)
KERNEL_TERMS = st.lists(
    st.tuples(
        st.one_of(KERNEL_SCALARS, KERNEL_PL, KERNEL_PX),
        st.one_of(KERNEL_SCALARS, KERNEL_PL, KERNEL_PX),
        st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(10**6), 10**6), st.fractions(max_denominator=10**4)),
    ),
    max_size=6,
)
RINGS = (Fraction, PolyLambda, PolyXOverLambda)


def widest(*values):
    """The widest of the rings of values: a rational is in Fraction's."""
    return max((type(v) if type(v) in RINGS else Fraction for v in values), key=RINGS.index, default=Fraction)


def naive_sum(terms, ring=Fraction):
    """The add-multiply loop lincomb replaces, started from the zero of ring."""
    acc = ring(0) if ring is Fraction else ring.zero()
    for a, b, w in terms:
        acc = acc + a * b * w
    return acc


def canonical_form(v):
    """v, after checking its stored form: a positive denominator coprime to the
    numerators and no trailing zero, in every PolyLambda it holds."""
    if isinstance(v, PolyXOverLambda):
        assert not v._terms or v._terms[-1]
        for c in v._terms:
            canonical_form(c)
    elif isinstance(v, PolyLambda):
        assert v._den > 0 and gcd(v._den, *v._terms) == 1
        assert not v._terms or v._terms[-1]
    return v


class TestLincomb:
    """exactcore.lincomb against the add-multiply loop it replaces."""

    @given(KERNEL_TERMS)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_add_multiply_loop_in_the_widest_ring(self, terms):
        got = lincomb(t for t in terms)
        want = naive_sum(terms, widest(*[v for a, b, _ in terms for v in (a, b)]))
        assert got == want
        assert type(got) is type(want)
        canonical_form(got)

    def test_rationals_give_a_fraction(self):
        got = lincomb([(1, 2, 3), (Fraction(1, 2), 4, -1)])
        assert type(got) is Fraction and got == 4
        assert type(lincomb([(1, 1, 0)])) is Fraction
        assert type(lincomb([])) is Fraction
        assert type(lincomb([(X, 1, 0)])) is PolyXOverLambda

    @pytest.mark.parametrize("bad", [(1.5, LAM, 1), (LAM, True, 1), (LAM, LAM, 0.5), (LAM, LAM, True), ("1", LAM, 1)])
    def test_float_bool_and_foreign_operands_refused(self, bad):
        with pytest.raises(TypeError, match="coefficient must be int or Fraction"):
            lincomb([bad])


# falling_sum pairs: an operand of each ring, zeros and denominators other
# than 1 included, and an int or Fraction weight, zero included
FALLING_TERMS = st.lists(
    st.tuples(
        st.one_of(KERNEL_SCALARS, KERNEL_PL, KERNEL_PX),
        st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(10**6), 10**6), st.fractions(max_denominator=10**4)),
    ),
    max_size=9,
)


def linear(a, c0, c1):
    """a x + c0 + c1 l in the narrowest ring that holds it."""
    v = c0 + c1 * LAM if c1 else c0
    return v + a * X if a else v


# a chain's base (a, c0, c1) and step (s0, s1): the ints of a x + c0 + c1 l and s0 + s1 l
BASES = st.tuples(*[st.integers(-3, 3)] * 3)
STEPS = st.tuples(*[st.integers(-3, 3)] * 2)
L_MINUS_1 = (0, -1, 1), (1, 0)  # the chain (l - 1)_{k,1} of the Q[l] sums
X_BY_L = (1, 0, 0), (0, 1)  # the chain (x)_{k,l} of the polynomials


def value_at(v, q, r):
    """A falling_sum operand at x = q, l = r."""
    if isinstance(v, PolyXOverLambda):
        return v.evaluate(q).evaluate(r)
    return v.evaluate(r) if isinstance(v, PolyLambda) else Fraction(v)


class TestFallingSum:
    """exactcore.falling_sum, sum_k w_k b_k (base)_{k,step}, against a
    Fraction sum at rational points, which shares none of its code, and
    against lincomb over the expanded chain."""

    @given(FALLING_TERMS, BASES, STEPS, rationals, rationals)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_fraction_sum_at_rational_points(self, terms, base, step, q, r):
        got = falling_sum(terms, base, step)
        in_x = base[0] or any(isinstance(b, PolyXOverLambda) for b, _ in terms)
        assert type(got) is (PolyXOverLambda if in_x else PolyLambda)
        canonical_form(got)
        (a, c0, c1), (s0, s1) = base, step
        want, chain = Fraction(0), Fraction(1)
        for k, (b, w) in enumerate(terms):
            want += w * value_at(b, q, r) * chain
            chain *= a * q + c0 + c1 * r - k * (s0 + s1 * r)
        assert value_at(got, q, r) == want

    @given(FALLING_TERMS, BASES, STEPS)
    @settings(max_examples=100, deadline=None)
    def test_matches_lincomb_against_the_expanded_chain(self, terms, base, step):
        chain = _chain(linear(*base), len(terms), linear(0, *step))
        assert falling_sum(terms, base, step) == lincomb((chain[k], b, w) for k, (b, w) in enumerate(terms))

    def test_empty_sum_and_shared_one(self):
        assert falling_sum([], *L_MINUS_1) == PolyLambda.zero() and type(falling_sum([], *L_MINUS_1)) is PolyLambda
        assert falling_sum([(LAM, 0), (0, 5)], *L_MINUS_1) == PolyLambda.zero()
        assert falling_sum([(1, 1)], *L_MINUS_1) is ONE and falling_sum([(ONE, 1), (0, 3)], *L_MINUS_1) is ONE
        assert falling_sum([(Fraction(1, 2), 2)], *L_MINUS_1) == ONE
        # 1 - 1 (l - 1) + 1/2 (l - 1)(l - 2) = (l^2 - 5 l + 6) / 2
        got = falling_sum([(1, 1), (-1, 1), (ONE, Fraction(1, 2))], *L_MINUS_1)
        assert got == pl(3, Fraction(-5, 2), Fraction(1, 2))
        # rationals against an int chain give a constant PolyLambda: 1 + 2 * 3 + 1/2 * 3 * 1
        got = falling_sum([(1, 1), (2, 1), (1, Fraction(1, 2))], (0, 3, 0), (2, 0))
        assert type(got) is PolyLambda and got == Fraction(17, 2)

    def test_empty_and_zero_sums_in_x_are_the_zero_polynomial(self):
        for terms in ([], [(LAM, 0), (1, 0)], [(0, 5), (PolyLambda.zero(), 1)], [(X, 0), (PolyXOverLambda.zero(), 2)]):
            got = falling_sum(terms, *X_BY_L)
            assert type(got) is PolyXOverLambda and got._terms == ()

    def test_a_coefficient_equal_to_one_is_the_shared_one(self):
        assert falling_sum([(1, 1)], *X_BY_L)._terms[0] is ONE
        # the columns share the denominator 6, and the monic x^2 column is the shared one
        got = falling_sum([(Fraction(1, 2), 1), (ONE, Fraction(1, 3)), (1, 1)], *X_BY_L)
        assert got == PolyXOverLambda((Fraction(1, 2), Fraction(1, 3) - LAM, 1))
        assert got._terms[2] is ONE

    def test_no_trailing_zero_x_column(self):
        # zero top terms leave x-degree 0
        assert falling_sum([(LAM, 1), (LAM, 0), (0, 5)], *X_BY_L)._terms == (LAM,)
        assert falling_sum([(1, 1), (LAM, 1), (PolyLambda.zero(), 4), (2, 0)], *X_BY_L).degree == 1
        # l x + x (x - l) = x^2: zero columns below the top stay, as zero
        zero = PolyLambda.zero()
        assert falling_sum([(0, 1), (LAM, 1), (1, 1), (-1, 0)], *X_BY_L)._terms == (zero, zero, ONE)
        # an x operand that cancels the chain's top: x^2 - x (x - l) = l x
        assert falling_sum([(X * X, 1), (0, 1), (-1, 1)], *X_BY_L)._terms == (zero, LAM)

    def test_small_sums_by_hand(self):
        # 1 + 2 x + 3 x (x - l) = 1 + (2 - 3 l) x + 3 x^2
        assert falling_sum([(1, 1), (2, 1), (3, 1)], *X_BY_L) == PolyXOverLambda((1, PolyLambda((2, -3)), 3))
        # x + x (2 x + 1) = x + 2 x^2 + x, x operands against the chain of 2 x + 1 with step l - 1
        assert falling_sum([(X, 1), (X, 1)], (2, 1, 0), (-1, 1)) == PolyXOverLambda((0, 2, 2))

    @pytest.mark.parametrize("bad", [(1.5, 1), (True, 1), (LAM, 0.5), (LAM, True)])
    def test_float_and_bool_operands_refused(self, bad):
        with pytest.raises(TypeError, match="coefficient must be int or Fraction"):
            falling_sum([bad], *L_MINUS_1)

    @pytest.mark.parametrize(
        "base,step,message",
        [
            ((0, 1.0, 1), (1, 0), "c0 must be int, got float"),
            ((True, 0, 0), (0, 1), "a must be int, got bool"),
            ((1, 0, 0), (0, Fraction(1)), "s1 must be int, got Fraction"),
            ((0, -1, 1), (False, 0), "s0 must be int, got bool"),
        ],
        ids=["float", "bool", "fraction-step", "bool-step"],
    )
    def test_float_bool_and_fraction_entries_refused(self, base, step, message):
        # a chain entry is named as itself, not as an index
        with pytest.raises(TypeError, match=f"^{message}$"):
            falling_sum([(1, 1)], base, step)

    @pytest.mark.parametrize(
        "base,step", [((0, -1), (1, 0)), ((1, 0, 0, 0), (0, 1)), ((0, -1, 1), (1,)), ((1, 0, 0), (0, 1, 0))]
    )
    def test_a_tuple_of_the_wrong_length_refused(self, base, step):
        with pytest.raises(ValueError, match="values to unpack"):
            falling_sum([(1, 1)], base, step)

    @pytest.mark.parametrize("base,step", [(LAM - 1, 1), (X, LAM), ((1, 0, 0), LAM), (3, 2)], ids=["l", "x", "step-l", "int"])
    def test_a_ring_value_refused(self, base, step):
        with pytest.raises(TypeError, match="cannot unpack"):
            falling_sum([(1, 1)], base, step)


class TestCoefficientReads:
    @given(coeffs=st.lists(rationals, max_size=6), i=st.integers(-2, 8))
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_single_reads_are_the_view_without_building_it(self, coeffs, i, monkeypatch):
        p = PolyLambda(coeffs)
        view = p.coeffs
        want = view[i] if 0 <= i < len(view) else 0
        with monkeypatch.context() as m:
            m.setattr(PolyLambda, "coeffs", property(lambda self: pytest.fail("read the whole view")))
            got, lead = p.coefficient(i), (p.lead if view else None)
        assert got == want and type(got) is type(want)
        if view:
            assert lead == view[-1] and type(lead) is type(view[-1])

    def test_x_coefficients_are_polylambda(self):
        p = PolyXOverLambda([1, LAM])
        assert p.coefficient(0) == PolyLambda.one() and type(p.coefficient(0)) is PolyLambda
        assert p.lead is p.coeffs[-1]
        with pytest.raises(ValueError, match="no leading coefficient"):
            PolyLambda.zero().lead


class TestPolyXOverLambda:
    def test_mixed_subtraction(self):
        lhs = X * X - X * LAM
        rhs = X * X - X
        assert lhs - rhs == X * (1 - LAM)

    def test_coefficients_are_lambda_polys(self):
        p = X * X * (LAM - 1) + X * 2 + 5
        assert p.degree == 2
        assert p.coefficient(2) == LAM - 1
        assert p.coefficient(1) == pl(2)
        assert p.coefficient(0) == pl(5)
        assert p.coefficient(7) == PolyLambda.zero()

    def test_evaluate_at_rational(self):
        p = X * X - X * LAM
        assert p.evaluate(Fraction(1)) == 1 - LAM

    def test_evaluate_at_poly_substitutes(self):
        p = X * X
        assert p.evaluate(X + 1) == X * X + X * 2 + 1

    @given(
        PX_POLYS,
        st.one_of(st.just(PolyLambda.zero()), polys),
        st.one_of(st.just(ONE), polys),
        rationals,
        rationals,
    )
    @settings(max_examples=80)
    def test_substitution_matches_fraction_arithmetic(self, p, a, b, r, q):
        # a + b x goes by a Taylor shift
        sub = X * b + a
        point = at(a, r, q) + at(b, r, q) * q
        assert at(p.evaluate(sub), r, q) == at(p, r, point)

    def test_substitution_of_degree_two_or_more_refused(self):
        p = X * X - X * LAM
        with pytest.raises(ValueError, match="x-degree 2"):
            p.evaluate(X * X + 1)
        with pytest.raises(ValueError, match="x-degree 3"):
            p.evaluate(X * X * X * LAM)

    def test_x_is_one_shared_constant(self):
        assert PolyXOverLambda.x() is PolyXOverLambda.x() and PolyLambda.lam() is PolyLambda.lam()

    def test_derivative(self):
        p = X * X * X - X * LAM
        assert p.derivative() == X * X * 3 - LAM

    def test_subs_lambda(self):
        p = X * X * (LAM - 1) + X
        assert p.subs_lambda(Fraction(1)) == X
        assert p.subs_lambda(Fraction(0)) == X - X * X

    @given(st.lists(polys, max_size=4).map(PolyXOverLambda), st.lists(polys, max_size=4).map(PolyXOverLambda))
    @settings(max_examples=40)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a


def px(*coeffs):
    return PolyXOverLambda([c if isinstance(c, PolyLambda) else Fraction(c) for c in coeffs])


class TestPretty:
    """Both rings print through one pretty: signs between the terms, zero terms,
    unit coefficients and /1 left out."""

    @pytest.mark.parametrize(
        "value,text",
        [
            (PolyLambda.zero(), "0"),
            (pl(1), "1"),
            (pl(-1), "-1"),
            (pl(0, -1), "-l"),
            (pl(Fraction(-1, 2), 3, -1), "-1/2 + 3*l - l^2"),
            (pl(Fraction(1, 2), Fraction(6, 3)), "1/2 + 2*l"),
            (pl(0, 0, 1), "l^2"),
            (pl(Fraction(1, 6), 0, Fraction(-1, 6)), "1/6 - 1/6*l^2"),
            (PolyXOverLambda.zero(), "0"),
            (px(1), "1"),
            (px(-1), "-1"),
            (px(0, -1), "-x"),
            (px(-1, 0, 1), "-1 + x^2"),
            (px(Fraction(1, 24), Fraction(-5, 6), 1), "1/24 - 5/6*x + x^2"),
            (px(Fraction(1, 2), Fraction(6, 3)), "1/2 + 2*x"),
            (px(0, 0, 1), "x^2"),
            (px(LAM - 1, 1), "-1 + l + x"),
            (px(1, 0, 1 - LAM), "1 + (1 - l)*x^2"),
            (px(0, -LAM, -1), "(-l)*x - x^2"),
        ],
        ids=[
            "pl-zero", "pl-one", "pl-minus-one", "pl-minus-l", "pl-leading-negative", "pl-over-one",
            "pl-unit", "pl-carlitz-2", "px-zero", "px-one", "px-minus-one", "px-minus-x",
            "px-leading-negative", "px-negative-constant-at-x", "px-over-one", "px-unit",
            "px-polynomial-at-x0", "px-polynomial-at-x2", "px-negative-polynomial-at-x",
        ],
    )
    def test_table(self, value, text):
        assert value.pretty() == text

    @given(st.lists(rationals, max_size=6))
    @settings(max_examples=60)
    def test_constant_coefficients_print_as_in_q_l(self, cs):
        assert px(*cs).pretty() == PolyLambda(cs).pretty().replace("l", "x")


class TestHashMatchesEquality:
    """A value equal to a simpler one hashes like it, so either finds it in a dict."""

    @pytest.mark.parametrize(
        "value,simpler",
        [
            (PolyLambda.constant(1), 1),
            (PolyLambda.constant(Fraction(-2, 3)), Fraction(-2, 3)),
            (PolyLambda(), 0),
            (PolyXOverLambda.constant(1), PolyLambda.constant(1)),
            (PolyXOverLambda.constant(LAM), LAM),
            (PolyXOverLambda(), 0),
            (RationalFunctionLambda(LAM), LAM),
            (RationalFunctionLambda(Fraction(1, 2)), Fraction(1, 2)),
            (RationalFunctionLambda(PolyLambda()), 0),
        ],
        ids=[
            "pl-int", "pl-fraction", "pl-zero", "px-pl-constant", "px-pl", "px-zero",
            "ratfun-pl", "ratfun-fraction", "ratfun-zero",
        ],
    )
    def test_equal_values_share_a_hash(self, value, simpler):
        assert value == simpler
        assert hash(value) == hash(simpler)
        assert {value: "v"}.get(simpler) == "v"
        assert len({value, simpler}) == 1

    def test_unequal_values_stay_apart(self):
        assert len({LAM, X, RationalFunctionLambda(ONE, LAM), PolyLambda.constant(1)}) == 4


class TestEvaluation:
    def test_lambda_constant_term(self):
        assert pl(2, -3, 1).evaluate(Fraction(0)) == 2

    def test_beta_style_value(self):
        assert pl(Fraction(1, 6), 0, Fraction(-1, 6)).evaluate(Fraction(0)) == Fraction(1, 6)

    def test_x_substitution(self):
        assert (X * X - X * LAM).evaluate(Fraction(1)) == 1 - LAM

    def test_boolean_evaluation_point_rejected(self):
        for route in (
            lambda: LAM.evaluate(True),
            lambda: LAM.evaluate(False),
            lambda: (X * LAM).evaluate(True),
            lambda: (X * LAM).subs_lambda(True),
            lambda: PolyXOverLambda.zero().subs_lambda(True),
            lambda: PolyXOverLambda.zero().subs_lambda(False),
        ):
            with pytest.raises(TypeError, match="evaluation point must be int or Fraction, got bool"):
                route()

    def test_float_evaluation_point_rejected(self):
        for route in (
            lambda: LAM.evaluate(0.1),
            lambda: (X * LAM).subs_lambda(0.1),
            lambda: (X * LAM).evaluate(0.5),
            lambda: PolyXOverLambda.zero().evaluate(0.5),
            lambda: PolyXOverLambda.zero().subs_lambda(1.5),
            lambda: PolyXOverLambda.zero().subs_lambda(0.1),
        ):
            with pytest.raises(TypeError, match="evaluation point must be int or Fraction, got float"):
                route()

    @pytest.mark.parametrize("value", [LAM, X * LAM], ids=["pl", "px"])
    @pytest.mark.parametrize("point", [1.5, True], ids=["float", "bool"])
    def test_evaluate_refuses_a_bad_rational_point(self, value, point):
        with pytest.raises(TypeError, match=f"evaluation point must be int or Fraction, got {type(point).__name__}"):
            value.evaluate(point)

    @given(polys, polys, rationals)
    @settings(max_examples=60)
    def test_homomorphism_in_lambda(self, a, b, v):
        assert (a * b).evaluate(v) == a.evaluate(v) * b.evaluate(v)
        assert (a + b).evaluate(v) == a.evaluate(v) + b.evaluate(v)

    @given(st.lists(polys, max_size=4).map(PolyXOverLambda), st.lists(polys, max_size=4).map(PolyXOverLambda), rationals)
    @settings(max_examples=40)
    def test_homomorphism_in_x(self, a, b, v):
        assert (a * b).evaluate(v) == a.evaluate(v) * b.evaluate(v)
