"""Degenerate Bernoulli numbers and polynomials: all routes against each other
and against frozen exact values."""

import contextvars
from fractions import Fraction
from math import comb

import pytest

from degenbern.bernoulli import (
    carlitz_beta,
    carlitz_beta_gf,
    classical_bernoulli,
    gen_beta,
    gen_beta_classical_limit,
    gen_beta_eulerian,
    gen_beta_gf,
    gen_beta_integral,
    gen_beta_poly,
    gen_beta_poly_derivative,
    gen_beta_poly_gf,
    gen_beta_poly_stirling,
    gen_beta_rstirling,
    gen_beta_rstirling_simplified,
    gen_beta_stirling_sum,
    remark_sides,
)
from degenbern.exactcore import PolyLambda, PolyXOverLambda, falling_sum, lincomb
from degenbern import bernoulli, triangles
from degenbern.triangles import (
    eulerian_degenerate,
    falling_lambda,
    log_weight,
    stirling2_deg,
    stirling2_deg_poly,
    substituted,
)
from degenbern.verify import run_suite

LAM = PolyLambda.lam()
X = PolyXOverLambda.x()


def pl(*coeffs):
    return PolyLambda([Fraction(c) for c in coeffs])


class TestCarlitzNumbers:
    def test_frozen_values(self):
        assert carlitz_beta(0) == PolyLambda.one()
        assert carlitz_beta(1) == pl(Fraction(-1, 2), Fraction(1, 2))
        assert carlitz_beta(2) == pl(Fraction(1, 6), 0, Fraction(-1, 6))

    def test_generating_function_route(self):
        for n in range(13):
            assert carlitz_beta_gf(n) == carlitz_beta(n)

    def test_gf_order_must_cover_n(self):
        assert carlitz_beta_gf(3, order=3) == carlitz_beta(3)
        with pytest.raises(ValueError, match="insufficient series order"):
            carlitz_beta_gf(5, order=4)

    def test_lambda_degree_bound(self):
        for n in range(15):
            assert carlitz_beta(n).degree <= n

    def test_classical_limit_matches_recurrence(self):
        for n in range(21):
            assert carlitz_beta(n).evaluate(Fraction(0)) == classical_bernoulli(n)

    def test_classical_bernoulli_values(self):
        assert classical_bernoulli(0) == 1
        assert classical_bernoulli(1) == Fraction(-1, 2)
        assert classical_bernoulli(2) == Fraction(1, 6)
        assert classical_bernoulli(12) == Fraction(-691, 2730)
        assert all(classical_bernoulli(n) == 0 for n in range(3, 20, 2))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="parameter out of range"):
            carlitz_beta(-1)


class TestGeneralizedNumbers:
    def test_frozen_values(self):
        assert gen_beta(1, 1) == pl(Fraction(-1, 3), Fraction(1, 3))
        assert gen_beta(2, 1) == pl(0, Fraction(1, 6), Fraction(-1, 6))
        assert gen_beta(2, 2) == pl(Fraction(-1, 20), Fraction(1, 5), Fraction(-3, 20))
        assert gen_beta(3, 1) == pl(
            Fraction(1, 15), Fraction(-1, 15), Fraction(-4, 15), Fraction(4, 15)
        )
        assert gen_beta(3, 2) == pl(
            Fraction(1, 20), Fraction(1, 20), Fraction(-7, 20), Fraction(1, 4)
        )

    def test_p_zero_is_carlitz(self):
        for n in range(13):
            assert gen_beta(n, 0) == carlitz_beta(n)

    def test_p_minus_one_closed_form(self):
        for n in range(13):
            assert gen_beta(n, -1) == falling_lambda(LAM - 1, n)

    def test_n_zero_is_one(self):
        for p in range(-1, 6):
            assert gen_beta(0, p) == PolyLambda.one()

    def test_sum_gf_and_eulerian_routes_agree(self):
        for n in range(11):
            for p in range(4):
                reference = gen_beta(n, p)
                assert gen_beta_stirling_sum(n, p) == reference
                assert gen_beta_gf(n, p) == reference
                assert gen_beta_eulerian(n, p) == reference

    def test_integral_route_agrees(self):
        for n in range(9):
            for p in range(4):
                assert gen_beta_integral(n, p) == gen_beta(n, p)

    def test_rstirling_route_is_polynomial_and_agrees(self):
        # n <= 12 and p <= 4: the Q(l) values reduced by monomial gcds
        for n in range(1, 13):
            for p in range(5):
                raw = gen_beta_rstirling(n, p)
                assert raw.den == PolyLambda.one()
                assert raw.num == gen_beta(n, p)
                assert gen_beta_rstirling_simplified(n, p) == gen_beta(n, p)

    def test_rstirling_route_holds_at_p_zero(self):
        """The two-term form stays valid down to p = 0, where it reproduces
        the unrestricted numbers."""
        for n in range(1, 11):
            assert gen_beta_rstirling_simplified(n, 0) == carlitz_beta(n)

    def test_classical_limit_formula(self):
        assert gen_beta_classical_limit(1, 1) == Fraction(-1, 3)
        for n in range(1, 11):
            for p in range(5):
                expected = gen_beta(n, p).evaluate(Fraction(0))
                assert gen_beta_classical_limit(n, p) == expected

    def test_lambda_degree_bound(self):
        for n in range(11):
            for p in range(4):
                assert gen_beta(n, p).degree <= n

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="parameter out of range"):
            gen_beta(-1, 0)
        with pytest.raises(ValueError, match="parameter out of range"):
            gen_beta(2, -2)
        with pytest.raises(ValueError, match="parameter out of range"):
            gen_beta_rstirling(0, 1)
        with pytest.raises(ValueError, match="parameter out of range"):
            gen_beta_rstirling(2, -1)
        with pytest.raises(ValueError, match="insufficient series order"):
            gen_beta_gf(6, 1, order=5)


class TestPolynomials:
    def test_frozen_values(self):
        got = gen_beta_poly(1, 1)
        assert got == X + PolyXOverLambda.constant(pl(Fraction(-1, 3), Fraction(1, 3)))
        got = gen_beta_poly(2, 1)
        x_coeff = pl(Fraction(-2, 3), Fraction(-1, 3))
        assert got.coefficient(2) == PolyLambda.one()
        assert got.coefficient(1) == x_coeff
        assert got.coefficient(0) == gen_beta(2, 1)

    def test_monic_of_degree_n(self):
        for n in range(9):
            for p in range(3):
                poly = gen_beta_poly(n, p)
                assert poly.degree == n
                assert poly.coefficient(n) == PolyLambda.one()

    def test_value_at_zero_is_number(self):
        for n in range(9):
            for p in range(3):
                assert gen_beta_poly(n, p).evaluate(Fraction(0)) == gen_beta(n, p)

    def test_stirling_and_gf_routes_agree(self):
        for n in range(9):
            for p in range(3):
                reference = gen_beta_poly(n, p)
                assert gen_beta_poly_stirling(n, p) == reference
                assert gen_beta_poly_gf(n, p) == reference

    def test_derivative_route(self):
        for n in range(1, 9):
            for p in range(3):
                assert gen_beta_poly(n, p).derivative() == gen_beta_poly_derivative(n, p)

    def test_derivative_route_needs_positive_degree(self):
        with pytest.raises(ValueError, match="parameter out of range"):
            gen_beta_poly_derivative(0, 0)

    def test_binomial_expansion_definition(self):
        """The polynomial is the binomial convolution of numbers with the
        degenerate falling-factorial basis."""
        for n in range(7):
            for p in range(3):
                acc = PolyXOverLambda.zero()
                for l in range(n + 1):
                    term = falling_lambda(X, n - l) * gen_beta(l, p)
                    acc = acc + term * comb(n, l)
                assert acc == gen_beta_poly(n, p)

    def test_horner_matches_the_chain_and_lincomb_form(self):
        """The Horner sum in the factors x - j l stores the same numerators
        and denominator in every x-coefficient as one lincomb against the
        expanded chain (x)_{j,l}, and its monic top is the shared one."""
        for n in range(31):
            chain = triangles._chain(X, n, LAM)
            for p in range(-1, 5):
                got = gen_beta_poly(n, p)
                want = lincomb((chain[j], gen_beta(n - j, p), comb(n, j)) for j in range(n + 1))
                assert [(c._terms, c._den) for c in got.coeffs] == [(c._terms, c._den) for c in want.coeffs]
                assert got.coeffs[-1] is PolyLambda.one()


def stored(v):
    """The numerators and denominator of each x-coefficient of v."""
    return [(c._terms, c._den) for c in PolyXOverLambda.constant(v).coeffs]


def remark_chain_form(rule, n, p, y=0, m=2):
    """remark_sides' right side as one lincomb against the expanded chain w_j."""
    polys = [gen_beta_poly(k, p) for k in range(n + 1)]
    if rule in ("ratio", "shift"):
        step = LAM * Fraction(1, m - 1) if rule == "ratio" else LAM * Fraction(1, m) - 1
        base, ratio = X, m - 1
    else:
        base, ratio, step = Fraction(1 if rule == "difference" else y), 1, LAM
    w = triangles._chain(base, n, step)
    ks = range(n if rule == "difference" else n + 1)
    return lincomb((polys[k], w[n - k], ratio ** (n - k) * comb(n, k)) for k in ks)


class TestChainSums:
    """Every chain sum the package runs by Horner (exactcore.falling_sum)
    stores the same numerators and denominators as one lincomb against the
    expanded chain."""

    REMARK_CASES = (
        [("addition", {"y": y}) for y in range(-2, 4)]
        + [("difference", {})]
        + [(rule, {"m": m}) for rule in ("ratio", "shift") for m in (2, 3, 4)]
    )

    @pytest.mark.parametrize(
        "rule,index", REMARK_CASES, ids=[rule + "".join(f"-{k}={v}" for k, v in i.items()) for rule, i in REMARK_CASES]
    )
    def test_remark_rules(self, rule, index):
        for n in range(21):
            for p in range(3):
                _, rhs = remark_sides(rule, n, p, **index)
                assert stored(rhs) == stored(remark_chain_form(rule, n, p, **index))

    def test_triangle_sums_against_the_expanded_weights(self):
        for n in range(21):
            for p in range(-1, 3):
                weights = (Fraction(1, comb(p + k + 1, p + 1)) for k in range(n + 1))
                want = lincomb((log_weight(k), stirling2_deg(n, k), w) for k, w in enumerate(weights))
                assert stored(gen_beta_stirling_sum(n, p)) == stored(want)
            for m in range(n + 1):
                sign = (-1) ** (n - m)
                want = lincomb((log_weight(k), stirling2_deg(n, k), sign * comb(n - k, m)) for k in range(n - m + 1))
                assert stored(eulerian_degenerate(n, m)) == stored(want)


def _step_off_by_l(terms, base, step):
    s0, s1 = step
    return falling_sum(terms, base, (s0, s1 + 1))


def _carry_dropped(terms, base, step):
    """The sum with the a x of its base dropped where a is neither 0 nor 1."""
    a, c0, c1 = base
    return falling_sum(terms, base if a in (0, 1) else (0, c0, c1), step)


class TestArbiterCatchesAWrongKernel:
    """A wrong Horner kernel in bernoulli fails the suite at run_suite's small
    size (max_n 6, p 2, order 8): the routes that expand their chains catch
    the ones that sum them by Horner.  A wrong step leaves Remark-mult-A
    passing, since the argument-scaling rule holds for every step of the
    chains (x)_{j,h} its polynomials and its weights share; a dropped carry
    of (m-1) x is caught by it alone."""

    @pytest.mark.parametrize(
        "kernel,caught",
        [
            (_step_off_by_l, {"Eq23", "Prop8", "Remark-add", "Thm1", "Thm2", "Thm3-vs-GF", "Thm7-vs-Thm9"}),
            (_carry_dropped, {"Remark-mult-A"}),
        ],
        ids=["step-off-by-l", "carry-dropped"],
    )
    def test_wrong_kernel_fails_the_suite(self, monkeypatch, kernel, caught):
        small = dict(max_n=6, max_p=2, truncation=8)
        clean = {str(r.identity_id): r.passed for r in run_suite(**small)}
        monkeypatch.setattr(bernoulli, "falling_sum", kernel)
        # away from the pristine memos, which hold the right kernel's sums
        reports = _rebuilt(lambda: run_suite(**small))
        assert {str(r.identity_id) for r in reports if r.passed != clean[str(r.identity_id)]} == caught


def remark_holds(rule, n, p, **m):
    """Both sides of one remark rule agree; the addition rule at every y = 0..n."""
    for y in range(n + 1) if rule == "addition" else (None,):
        lhs, rhs = remark_sides(rule, n, p, y=y, **m)
        if lhs != rhs:
            return False
    return True


class TestRemarkIdentities:
    def test_all_hold_for_first_order(self):
        for rule in ("addition", "difference", "ratio", "shift", "step"):
            assert remark_holds(rule, 1, 0)

    def test_shift_reading_fails_from_second_order(self):
        for n in (2, 3, 4):
            assert remark_holds("addition", n, 0)
            assert remark_holds("difference", n, 0)
            assert remark_holds("ratio", n, 0)
            assert not remark_holds("shift", n, 0)

    def test_other_parameters(self):
        for m in (2, 3):
            for p in (0, 1):
                assert remark_holds("ratio", 3, p, m=m)
                assert not remark_holds("shift", 3, p, m=m)

    def test_multiplier_must_be_at_least_two(self):
        for rule in ("ratio", "shift"):
            with pytest.raises(ValueError, match="parameter out of range"):
                remark_sides(rule, 2, 0, m=1)

    @pytest.mark.parametrize(
        "rule,extra",
        [
            ("difference", {"y": 5}),
            ("step", {"y": 7}),
            ("step", {"m": 9}),
            ("ratio", {"y": 4}),
            ("shift", {"y": 1}),
            ("addition", {"m": 1}),
            ("difference", {"m": 2}),
        ],
        ids=["difference-y", "step-y", "step-m", "ratio-y", "shift-y", "addition-m", "difference-m"],
    )
    def test_an_argument_the_rule_does_not_read_is_refused(self, rule, extra):
        (name,) = extra
        with pytest.raises(TypeError, match=rf"remark rule '{rule}' takes no {name}$"):
            remark_sides(rule, 3, 1, **extra)


class TestMemoIsolation:
    """Results under a substituted triangle entry live on the substitution's
    memo, never in the pristine memo, and the pristine memo never answers
    inside a substitution."""

    @pytest.fixture(autouse=True)
    def cold_pristine_memo(self):
        # each order below must start from an empty pristine memo; carlitz_beta
        # is gen_beta at p = 0 and shares its memo, and stirling2_deg_poly's
        # memo is the one of triangles._poly_entry
        for memo in (gen_beta, gen_beta_poly, eulerian_degenerate, triangles._poly_entry):
            memo.pristine.clear()

    @pytest.mark.parametrize("pristine_first", [True, False], ids=["pristine-first", "table-first"])
    @pytest.mark.parametrize(
        "route,args,first,fed",
        [
            (carlitz_beta, (), 0, lambda n: n == 4),
            (gen_beta, (2,), 0, lambda n: n == 4),
            (gen_beta, (-1,), 0, lambda n: n == 4),
            (gen_beta_poly, (1,), 0, lambda n: n >= 4),
            (stirling2_deg_poly, (2,), 2, lambda n: n >= 4),
            (eulerian_degenerate, (0,), 0, lambda n: n == 4),
        ],
        ids=[
            "carlitz_beta",
            "gen_beta",
            "gen_beta-p-minus-one",
            "gen_beta_poly",
            "stirling2_deg_poly",
            "eulerian_degenerate",
        ],
    )
    def test_interleaved_pristine_and_corrupted_calls(self, route, args, first, fed, pristine_first):
        # a call run in an empty context sees no substitution
        pristine = contextvars.Context().run
        with _corrupted_s2():
            for n in range(first, 6):
                if pristine_first:
                    clean = pristine(route, n, *args)
                    dirty = route(n, *args)
                else:
                    dirty = route(n, *args)
                    clean = pristine(route, n, *args)
                assert clean == pristine(_rebuilt, route, n, *args)
                assert (dirty != clean) == fed(n)
                assert route(n, *args) is dirty
            dirty = route(4, *args)
        with _corrupted_s2():
            again = route(4, *args)
        assert again == dirty
        assert again is not dirty


_ROW4 = (4, 0, False, LAM)


def _corrupted_s2():
    """The mutation check's substitution: stirling2_deg(4, 2) reads 0."""
    row = triangles._row(*_ROW4)
    return substituted(triangles._row, _ROW4, row[:2] + (PolyLambda.zero(),) + row[3:])


def _rebuilt(route, *args):
    """route(*args) computed afresh, away from every pristine memo."""
    with substituted(triangles._row, _ROW4, triangles._row(*_ROW4)):
        return route(*args)
