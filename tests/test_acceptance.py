"""Acceptance gate: one test per shipping criterion, every check exact.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Timing bounds are asserted where the criterion carries one.
"""

import time
from fractions import Fraction
from math import comb, factorial

from degenbern.bernoulli import (
    carlitz_beta,
    gen_beta,
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
from degenbern.exactcore import PolyLambda, PolyXOverLambda
from degenbern.series import TruncatedSeries, degenerate_exp, degenerate_log
from degenbern.triangles import (
    _row,
    eulerian_classical,
    eulerian_degenerate,
    falling_lambda,
    forward_difference,
    log_weight,
    stirling1_deg,
    stirling2_deg,
    stirling2_deg_poly,
    substituted,
)
from degenbern.verify import IdentityId, run_suite

LAM = PolyLambda.lam()
X = PolyXOverLambda.x()
ZERO = Fraction(0)


def test_criterion_01_exp_log_compositional_inverse_order_32_under_1s():
    started = time.perf_counter()
    composed = degenerate_exp(1, 32).compose(degenerate_log(32))
    elapsed = time.perf_counter() - started
    expected = TruncatedSeries([1, 1] + [0] * 31)
    assert composed == expected
    assert elapsed < 1.0


def test_criterion_02_carlitz_numbers_match_generating_function_to_24():
    order = 24
    em1 = degenerate_exp(1, order + 1) - TruncatedSeries.one(order + 1)
    gf = TruncatedSeries.one(order).div(em1.divide_by_t())
    for n in range(order + 1):
        assert gf.coefficient(n) == carlitz_beta(n)


def test_criterion_03_classical_limit_matches_bernoulli_recurrence_to_20():
    numbers = [Fraction(1)]
    for n in range(1, 21):
        acc = sum(comb(n + 1, k) * numbers[k] for k in range(n))
        numbers.append(Fraction(-acc, n + 1))
    assert numbers[2] == Fraction(1, 6)
    assert numbers[12] == Fraction(-691, 2730)
    for n in range(21):
        assert carlitz_beta(n).evaluate(ZERO) == numbers[n]


def test_criterion_04_stirling1_weighted_sum_collapses_to_log_weight():
    for n in range(25):
        acc = sum(
            (stirling1_deg(n, k) * carlitz_beta(k) for k in range(n + 1)),
            PolyLambda.zero(),
        )
        assert acc == log_weight(n) * Fraction(1, n + 1)


def test_criterion_05_four_number_routes_agree_under_60s():
    started = time.perf_counter()
    for p in range(6):
        for n in range(17):
            reference = gen_beta_stirling_sum(n, p)
            assert gen_beta_gf(n, p) == reference
            assert gen_beta_eulerian(n, p) == reference
            assert gen_beta_integral(n, p) == reference
    for p in range(1, 5):
        for n in range(1, 13):
            raw = gen_beta_rstirling(n, p)
            assert raw.den == PolyLambda.one()
            assert raw.num == gen_beta(n, p)
            assert gen_beta_rstirling_simplified(n, p) == gen_beta(n, p)
    assert time.perf_counter() - started < 60.0


def test_criterion_06_boundary_orders_p0_and_p_minus_1():
    for n in range(21):
        assert gen_beta(n, 0) == carlitz_beta(n)
        assert gen_beta(n, -1) == falling_lambda(LAM - 1, n)


def test_criterion_07_stirling_duality_and_finite_differences():
    for n in range(13):
        for m in range(n + 1):
            delta = PolyLambda.one() if n == m else PolyLambda.zero()
            forward = sum(
                (stirling1_deg(n, k) * stirling2_deg(k, m) for k in range(m, n + 1)),
                PolyLambda.zero(),
            )
            backward = sum(
                (stirling2_deg(n, k) * stirling1_deg(k, m) for k in range(m, n + 1)),
                PolyLambda.zero(),
            )
            assert forward == delta
            assert backward == delta
    for n in range(13):
        samples = [falling_lambda(X + j, n) for j in range(n + 1)]
        for k in range(n + 1):
            diff = forward_difference(samples, k) * Fraction(1, factorial(k))
            assert diff == stirling2_deg_poly(n, k)


def test_criterion_08_eulerian_identity_suite():
    rows = run_suite(["Eq11", "Eq12", "Eq13"], max_n=10, max_p=2, truncation=12)
    assert all(report.passed for report in rows)
    (gf_row,) = run_suite(["Eq30"], max_n=12, max_p=2, truncation=16)
    assert gf_row.passed
    for n in range(13):
        for m in range(n + 1):
            classical = eulerian_degenerate(n, m).evaluate(ZERO)
            assert classical == eulerian_classical(n, m)


def test_criterion_09_polynomial_routes_and_remark_identities():
    for p in range(5):
        for n in range(13):
            reference = gen_beta_poly(n, p)
            assert gen_beta_poly_stirling(n, p) == reference
            assert gen_beta_poly_gf(n, p) == reference
            if n:
                assert gen_beta_poly_derivative(n, p) == reference.derivative()
    for n in range(11):
        for p in range(3):
            for y in range(n + 1):
                lhs, rhs = remark_sides("addition", n, p, y=y)
                assert lhs == rhs
            lhs, rhs = remark_sides("difference", n, p)
            assert lhs == rhs
    for n in range(13):
        for p in range(5):
            lhs, rhs = remark_sides("step", n, p)
            assert lhs == rhs
    for n in range(5):
        for p in range(3):
            for m in (2, 3):
                lhs, rhs = remark_sides("ratio", n, p, m=m)
                assert lhs == rhs
                lhs, rhs = remark_sides("shift", n, p, m=m)
                assert (lhs == rhs) == (n <= 1)


def test_criterion_10_pfaff_and_euler_transformations_order_16():
    reports = run_suite(["Eq8-Pfaff", "Eq9-Euler"], max_n=15, max_p=4, truncation=16)
    assert len(reports) == 2
    for report in reports:
        assert report.cases_run == 16
        assert report.passed


def test_criterion_11_mutation_detection_and_suite_runtime():
    started = time.perf_counter()
    clean = run_suite()
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    not_passing = [report.identity_id for report in clean if not report.passed]
    # the one recorded counterexample is informational by design
    assert not_passing == [IdentityId.REMARK_MULT_B]
    # stirling2_deg(4, 2), entry 2 of row 4 of the degenerate second-kind triangle, reads 0
    row = _row(4, 0, False, LAM)
    with substituted(_row, (4, 0, False, LAM), row[:2] + (PolyLambda.zero(),) + row[3:]):
        corrupted = run_suite()
    hard_failures = {
        report.identity_id
        for report in corrupted
        if not report.passed and report.identity_id is not IdentityId.REMARK_MULT_B
    }
    assert hard_failures
