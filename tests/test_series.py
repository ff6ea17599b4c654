"""Truncated EGF series: arithmetic, composition, the named generating functions."""

from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbern.exactcore import PolyLambda, PolyXOverLambda, RationalFunctionLambda
from degenbern.series import (
    TruncatedSeries,
    degenerate_exp,
    degenerate_log,
    gauss_2f1_formal,
)
from degenbern.triangles import falling_lambda

LAM = PolyLambda.lam()


def series(*coeffs):
    return TruncatedSeries(coeffs)


def ordinary(f):
    """Ordinary coefficients [t^n] = c_n / n! of f, the reference for ordinary convolution."""
    return tuple(c * Fraction(1, factorial(n)) for n, c in enumerate(f.coeffs))


def from_ordinary(coeffs):
    """The PolyLambda series whose ordinary coefficients are coeffs."""
    return TruncatedSeries((c * factorial(n) for n, c in enumerate(coeffs)))


small_series = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=6), min_size=1, max_size=6
).map(lambda cs: TruncatedSeries(cs))


class TestArithmetic:
    def test_one_plus_t_squared(self):
        assert series(1, 1, 0).mul(series(1, 1, 0)) == series(1, 2, 2)

    def test_mul_by_zero_absorbs(self):
        f = degenerate_exp(1, 5)
        zero = series(0, 0, 0, 0, 0, 0)
        assert f.mul(zero) == zero

    def test_exp_times_reciprocal_exp(self):
        n = 8
        prod = degenerate_exp(1, n).mul(degenerate_exp(-1, n))
        assert prod == TruncatedSeries.one(n)

    def test_mul_truncates_to_smaller_order(self):
        assert series(1, 1).mul(series(1, 0, 0, 0)).order == 1

    def test_mul_requires_series(self):
        with pytest.raises(ValueError, match="use scale for ring elements"):
            series(1, 1).mul(2)

    def test_foreign_coefficient_is_a_type_error(self):
        with pytest.raises(TypeError, match="cannot lift float into PolyLambda"):
            TruncatedSeries([1.5])
        with pytest.raises(TypeError, match="cannot lift float into PolyLambda"):
            series(1, 1).scale(1.5)

    def test_geometric_series_by_division(self):
        n = 6
        one = TruncatedSeries.one(n)
        denom = from_ordinary([1, -1] + [0] * (n - 1))
        geo = one.div(denom)
        assert geo.coeffs == tuple(PolyLambda.constant(factorial(k)) for k in range(n + 1))

    def test_division_round_trip(self):
        f = degenerate_log(7)
        g = degenerate_exp(1, 7) - TruncatedSeries.one(7) + series(1, 0, 0, 0, 0, 0, 0, 0)
        assert f.mul(g).div(g) == f

    def test_f_over_f_is_one(self):
        f = degenerate_exp(1, 6)
        assert f.div(f) == TruncatedSeries.one(6)

    def test_non_unit_division_rejected(self):
        with pytest.raises(ValueError, match="series not invertible"):
            series(1, 1).div(series(0, 1))
        with pytest.raises(ValueError, match="series not invertible"):
            series(1, 1).div(TruncatedSeries([LAM, LAM]))

    def test_divide_by_t_shifts(self):
        em1 = degenerate_exp(1, 5) - TruncatedSeries.one(5)
        g = em1.divide_by_t()
        assert g.order == 4
        assert g.coefficient(0) == PolyLambda.one()
        # (e_l(t)-1)/t multiplied back by t recovers the original
        assert g.coefficient(1) == em1.coefficient(2) * Fraction(1, 2)

    @given(small_series, small_series)
    @settings(max_examples=40)
    def test_egf_ogf_consistency(self, f, g):
        """Binomial convolution in EGF form equals plain convolution in OGF form."""
        n = min(f.order, g.order)
        h = f.mul(g)
        fo, go = ordinary(f), ordinary(g)
        for j in range(n + 1):
            direct = sum((fo[i] * go[j - i] for i in range(j + 1)), PolyLambda.zero())
            assert ordinary(h)[j] == direct

    @given(small_series)
    @settings(max_examples=40)
    def test_ordinary_round_trip(self, f):
        assert from_ordinary(ordinary(f)) == f


def lifted(f):
    """f with every coefficient lifted into PolyXOverLambda by hand."""
    return TruncatedSeries([PolyXOverLambda.constant(c) for c in f.coeffs])


X = PolyXOverLambda.x()


class TestRingFromCoefficients:
    """A series' ring is the widest among its coefficients."""

    ORDER = 5
    F = degenerate_exp(LAM - 2, ORDER)  # Q[l], unit constant term
    G = degenerate_exp(X, ORDER)  # Q[l][x], unit constant term
    F0 = degenerate_exp(1, ORDER) - TruncatedSeries.one(ORDER)  # Q[l], zero constant term
    G0 = G - TruncatedSeries.one(ORDER)  # Q[l][x], zero constant term

    @pytest.mark.parametrize(
        "op",
        [
            lambda f, g: f + g,
            lambda f, g: g + f,
            lambda f, g: f - g,
            lambda f, g: f.mul(g),
            lambda f, g: g.mul(f),
            lambda f, g: f.div(g),
            lambda f, g: g.div(f),
        ],
        ids=["add", "radd", "sub", "mul", "rmul", "div", "rdiv"],
    )
    def test_mixed_operation_widens_to_x(self, op):
        got = op(self.F, self.G)
        assert got == op(lifted(self.F), self.G)
        assert got.ring is PolyXOverLambda
        assert all(type(c) is PolyXOverLambda for c in got.coeffs)

    @pytest.mark.parametrize("outer,inner", [("F", "G0"), ("G", "F0")], ids=["x-inner", "x-outer"])
    def test_mixed_composition_widens_to_x(self, outer, inner):
        f, g = getattr(self, outer), getattr(self, inner)
        got = f.compose(g)
        want = lifted(f).compose(g) if f.ring is PolyLambda else f.compose(lifted(g))
        assert got == want
        assert got.ring is PolyXOverLambda
        assert all(type(c) is PolyXOverLambda for c in got.coeffs)

    def test_mixed_coefficients_give_a_homogeneous_series(self):
        f = TruncatedSeries([1, LAM, X, Fraction(1, 2)])
        assert f.ring is PolyXOverLambda
        assert f.coeffs == tuple(PolyXOverLambda.constant(c) for c in (1, LAM, X, Fraction(1, 2)))
        assert all(type(c) is PolyXOverLambda for c in f.coeffs)

    def test_rational_and_lambda_coefficients_give_a_lambda_series(self):
        f = TruncatedSeries([1, Fraction(1, 2), LAM])
        assert f.ring is PolyLambda
        assert all(type(c) is PolyLambda for c in f.coeffs)
        assert TruncatedSeries.one(3).ring is PolyLambda

    def test_scale_by_x_widens(self):
        got = self.F.scale(X)
        assert got == lifted(self.F).scale(X)
        assert got.ring is PolyXOverLambda

    @pytest.mark.parametrize(
        "coeffs",
        [[1, 0.5], [1, True], [X, 0.5], [X, False], [1, RationalFunctionLambda.one()], [X, RationalFunctionLambda.one()]],
        ids=["float", "bool", "float-beside-x", "bool-beside-x", "q-l", "q-l-beside-x"],
    )
    def test_float_bool_or_q_l_coefficient_refused(self, coeffs):
        with pytest.raises(TypeError):
            TruncatedSeries(coeffs)

    @pytest.mark.parametrize("c", [0.5, True, RationalFunctionLambda.one()], ids=["float", "bool", "q-l"])
    def test_float_bool_or_q_l_scale_factor_refused(self, c):
        for f in (self.F, self.G):
            with pytest.raises(TypeError):
                f.scale(c)


class TestCompose:
    def test_identity_outer(self):
        g = degenerate_log(6)
        t = series(0, 1, 0, 0, 0, 0, 0)
        assert t.compose(g) == g

    def test_exp_log_inverse(self):
        n = 12
        h = degenerate_exp(1, n).compose(degenerate_log(n))
        expected = TruncatedSeries([1, 1] + [0] * (n - 1))
        assert h == expected

    def test_log_exp_inverse(self):
        n = 10
        em1 = degenerate_exp(1, n) - TruncatedSeries.one(n)
        assert degenerate_log(n).compose(em1) == TruncatedSeries([0, 1] + [0] * (n - 1))

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError, match="composition requires zero constant term"):
            degenerate_log(4).compose(degenerate_exp(1, 4))

    def test_repeated_and_lower_order_calls_match_the_power_sum(self):
        """The powers of an inner series are kept per (inner, order); the
        reference is sum_k f_k g^k in ordinary coefficients, multiplied out
        by plain truncated convolution."""
        inner = series(0, LAM + Fraction(5, 7), 3, -LAM, Fraction(1, 11), 2 * LAM, 1)
        outers = [degenerate_exp(LAM - 3, 6), series(2, -1, LAM, 0, Fraction(3, 2), 1, LAM * LAM)]

        def power_sum(f, g, order):
            f, g = ordinary(f)[: order + 1], ordinary(g)[: order + 1]
            total = [PolyLambda.zero()] * (order + 1)
            power = [PolyLambda.one()] + [PolyLambda.zero()] * order
            for fk in f:
                total = [t + fk * c for t, c in zip(total, power)]
                power = [sum((power[i] * g[m - i] for i in range(m + 1)), PolyLambda.zero()) for m in range(order + 1)]
            return from_ordinary(total)

        for outer in outers + outers:
            assert outer.compose(inner) == power_sum(outer, inner, 6)
        low = outers[1].truncate(4)
        assert low.compose(inner) == power_sum(low, inner, 4)


class TestBinomialPow:
    def test_zeroth_power(self):
        u = series(0, 1, 0, 0, 0, 0)
        assert u.binomial_pow(Fraction(0)) == TruncatedSeries.one(5)

    def test_integer_power_matches_mul(self):
        u = series(0, 1, 0, 0, 0, 0)
        one_plus = TruncatedSeries.one(5) + u
        assert u.binomial_pow(Fraction(2)) == one_plus.mul(one_plus)

    def test_lambda_exponent_gives_shifted_exp(self):
        """(1 + (e_l - 1))^(l-1) has coefficients (l-1)_{n,l}."""
        n = 8
        em1 = degenerate_exp(1, n) - TruncatedSeries.one(n)
        f = em1.binomial_pow(LAM - 1)
        for k in range(n + 1):
            assert f.coefficient(k) == falling_lambda(LAM - 1, k)

    def test_requires_zero_constant_term(self):
        with pytest.raises(ValueError):
            series(1, 1).binomial_pow(Fraction(2))


def binomial_pow_by_terms(u, alpha):
    """sum_k binom(alpha, k) u^k by the running term t_k = t_{k-1} u (alpha - k + 1) / k."""
    acc = term = TruncatedSeries.one(u.order)
    for k in range(1, u.order + 1):
        term = term.mul(u).scale(alpha - (k - 1)).scale(Fraction(1, k))
        acc = acc + term
    return acc


def gauss_2f1_by_terms(a, b, c, u):
    """sum_k <a>_k <b>_k / <c>_k u^k / k! by the running term, ratio (a+k-1)(b+k-1)/(k(c+k-1))."""
    acc = term = TruncatedSeries.one(u.order)
    for k in range(1, u.order + 1):
        term = term.mul(u).scale(a + (k - 1)).scale(b + (k - 1))
        term = term.scale(Fraction(1, k) / (c + k - 1))
        acc = acc + term
    return acc


class TestWeightedPowerSums:
    """binomial_pow and gauss_2f1_formal against the direct term recurrence."""

    @staticmethod
    def arguments(order):
        u = degenerate_exp(1, order) - TruncatedSeries.one(order)
        ux = degenerate_exp(PolyXOverLambda.x(), order) - TruncatedSeries.one(order)
        return [u, -u, u.div(u - TruncatedSeries.one(order)), ux]

    @pytest.mark.parametrize("alpha", [Fraction(-3, 2), Fraction(4), LAM - 1, -LAM - 2])
    def test_binomial_pow(self, alpha):
        for u in self.arguments(6):
            assert u.binomial_pow(alpha) == binomial_pow_by_terms(u, alpha)

    @pytest.mark.parametrize(
        "a,b,c",
        [(1 - LAM, 1, 3), (LAM + 2, 2, 3), (Fraction(1, 2), LAM, Fraction(5, 2)), (1, 1, 2)],
    )
    def test_gauss_2f1(self, a, b, c):
        for u in self.arguments(6):
            assert gauss_2f1_formal(a, b, c, u) == gauss_2f1_by_terms(a, b, c, u)


class TestNamedSeries:
    def test_degenerate_exp_symbolic(self):
        x = PolyXOverLambda.x()
        f = degenerate_exp(x, 3)
        assert f.coefficient(2) == x * (x - LAM)
        assert f.coefficient(3) == falling_lambda(x, 3)

    def test_degenerate_exp_at_one(self):
        f = degenerate_exp(1, 3)
        assert f.coefficient(3) == (1 - LAM) * (1 - 2 * LAM)

    def test_degenerate_exp_classical_limit(self):
        x = Fraction(3)
        f = degenerate_exp(x, 5)
        for n, c in enumerate(f.coeffs):
            assert c.evaluate(Fraction(0)) == x**n

    def test_degenerate_log_coefficients(self):
        # c_n = (l-1)(l-2)...(l-n+1) expanded by hand, ascending in l
        pinned = [(), (1,), (-1, 1), (2, -3, 1), (-6, 11, -6, 1), (24, -50, 35, -10, 1)]
        f = degenerate_log(5)
        got = [f.coefficient(n).coeffs for n in range(6)]
        assert got == pinned
        assert all(type(c) is int for cs in got for c in cs)

    @pytest.mark.parametrize(
        "x",
        [3, Fraction(-5, 2), 2 * LAM - 1, PolyXOverLambda.x()],
        ids=["int", "Fraction", "PolyLambda", "symbol"],
    )
    def test_degenerate_exp_coefficients_are_the_written_out_products(self, x):
        f = degenerate_exp(x, 7)
        one = PolyXOverLambda.one() if isinstance(x, PolyXOverLambda) else PolyLambda.one()
        for n in range(8):
            assert f.coefficient(n) == prod((x - j * LAM for j in range(n)), start=one)

    def test_degenerate_log_coefficients_are_the_written_out_products(self):
        f = degenerate_log(9)
        assert f.coefficient(0) == PolyLambda.zero()
        for n in range(1, 10):
            assert f.coefficient(n) == prod((LAM - j for j in range(1, n)), start=PolyLambda.one())

    def test_degenerate_log_classical_limit(self):
        f = degenerate_log(6)
        for n in range(1, 7):
            expected = Fraction((-1) ** (n - 1) * factorial(n - 1))
            assert f.coefficient(n).evaluate(Fraction(0)) == expected

    def test_2f1_zero_argument(self):
        u = series(0, 0, 0, 0, 0, 0, 0)
        assert gauss_2f1_formal(LAM, 1, 3, u) == TruncatedSeries.one(6)

    def test_2f1_geometric_case(self):
        """2F1(1,1;1;t) would need c=1; 2F1(1,b;b;t) = 1/(1-t) for any b."""
        u = series(0, 1, 0, 0, 0, 0, 0)
        f = gauss_2f1_formal(1, 5, 5, u)
        assert ordinary(f) == tuple(PolyLambda.one() for _ in range(7))

    def test_2f1_nonzero_constant_rejected(self):
        with pytest.raises(ValueError, match="composition requires zero constant term"):
            gauss_2f1_formal(1, 1, 2, TruncatedSeries.one(4))

    @pytest.mark.parametrize("u", [-1, 0, PolyLambda.lam(), None], ids=["int", "zero", "poly", "none"])
    def test_2f1_refuses_a_non_series_argument(self, u):
        with pytest.raises(TypeError, match=f"argument u must be a TruncatedSeries, got {type(u).__name__}"):
            gauss_2f1_formal(1, 1, 2, u)

    def test_2f1_vanishing_lower_parameter(self):
        u = series(0, 1, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="invalid lower parameter"):
            gauss_2f1_formal(1, 1, -2, u)

    @pytest.mark.parametrize(
        "call",
        [
            lambda u: gauss_2f1_formal(1, 1, 0.1, u),
            lambda u: gauss_2f1_formal(1, 1, 2.5, u),
            lambda u: gauss_2f1_formal(True, 1, 2, u),
            lambda u: gauss_2f1_formal(1, 1, True, u),
            lambda u: gauss_2f1_formal(0.5, 1, 2, u),
            lambda u: u.binomial_pow(True),
            lambda u: u.binomial_pow(0.5),
        ],
        ids=["c-float", "c-half-float", "a-bool", "c-bool", "a-float", "alpha-bool", "alpha-float"],
    )
    def test_float_or_bool_parameter_refused(self, call):
        u = degenerate_exp(1, 4) - TruncatedSeries.one(4)
        with pytest.raises(TypeError):
            call(u)

    def test_coefficient_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            series(1, 1).coefficient(2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: TruncatedSeries.one(-1),
            lambda: series(1, 1).truncate(-1),
            lambda: degenerate_exp(1, -1),
        ],
        ids=["one", "truncate", "degenerate_exp"],
    )
    def test_negative_order_refused(self, call):
        with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
            call()

    def test_truncate_cannot_extend(self):
        with pytest.raises(ValueError, match="cannot extend"):
            series(1, 1).truncate(5)
