"""Stirling and Eulerian triangles against brute-force and generating-function oracles."""

import random
import sys
import threading
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, prod

import pytest

from degenbern import triangles
from degenbern.bernoulli import gen_beta
from degenbern.exactcore import PolyLambda, PolyXOverLambda
from degenbern.series import TruncatedSeries, degenerate_exp, degenerate_log
from degenbern.triangles import (
    _row,
    eulerian_classical,
    eulerian_degenerate,
    falling_factorial,
    falling_lambda,
    forward_difference,
    log_weight,
    memoized,
    r_stirling2_classical,
    r_stirling2_deg,
    stirling1_classical,
    stirling1_deg,
    stirling2_classical,
    stirling2_deg,
    stirling2_deg_poly,
    substituted,
)

LAM = PolyLambda.lam()
X = PolyXOverLambda.x()


def partitions_into_blocks(n, k):
    """Count set partitions of {0..n-1} into exactly k nonempty blocks."""
    if n == 0:
        return 1 if k == 0 else 0
    count = 0

    def place(i, blocks):
        nonlocal count
        if i == n:
            count += len(blocks) == k
            return
        for b in blocks:
            b.append(i)
            place(i + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([i])
            place(i + 1, blocks)
            blocks.pop()

    place(0, [])
    return count


def cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def descent_count(perm):
    return sum(perm[i] > perm[i + 1] for i in range(len(perm) - 1))


class TestFactorialProducts:
    def test_falling_lambda_symbolic(self):
        assert falling_lambda(X, 2) == X * (X - LAM)
        assert falling_lambda(X, 0) == PolyXOverLambda.one()

    def test_falling_lambda_at_lambda_minus_one(self):
        assert falling_lambda(LAM - 1, 2) == 1 - LAM

    def test_rising_lambda(self):
        one = PolyLambda.one()
        assert falling_factorial(1, 3, step=-LAM) == (one + LAM) * (one + 2 * LAM)

    def test_rising_factorial_integer_step(self):
        a = Fraction(3, 2)
        assert falling_factorial(a, 3, step=-1) == a * (a + 1) * (a + 2)

    def test_falling_factorial_custom_step(self):
        assert falling_factorial(Fraction(10), 3, step=Fraction(2)) == 10 * 8 * 6

    def test_log_weight_values(self):
        assert log_weight(0) == PolyLambda.one()
        assert log_weight(1) == LAM - 1
        assert log_weight(2) == (LAM - 1) * (LAM - 2)

    def test_log_weight_is_the_written_out_product(self):
        for k in range(10):
            assert log_weight(k) == prod((LAM - j for j in range(1, k + 1)), start=PolyLambda.one())

    def test_negative_log_weight_index_refused_by_name(self):
        with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
            log_weight(-1)

    def test_float_operand_rejected(self):
        with pytest.raises(TypeError, match="must be int or Fraction, got float and int"):
            falling_factorial(0.5, 3)
        with pytest.raises(TypeError, match="must be int or Fraction, got int and float"):
            falling_factorial(1, 3, step=0.5)
        # a polynomial step does not let a float x through, not even for the empty product
        for n in (0, 2):
            with pytest.raises(TypeError, match="must be int or Fraction, got float and PolyLambda"):
                falling_factorial(0.5, n, step=LAM)

    def test_boolean_operand_rejected(self):
        with pytest.raises(TypeError, match="must be int or Fraction, got bool and int"):
            falling_factorial(True, 1)
        with pytest.raises(TypeError, match="must be int or Fraction, got int and bool"):
            falling_factorial(2, 2, step=True)
        with pytest.raises(TypeError, match="must be int or Fraction, got PolyXOverLambda and bool"):
            falling_factorial(X, 2, step=True)

    def test_equal_operands_of_different_types_keep_their_ring(self):
        # 2, Fraction(2) and the constant polynomials 2 are equal and hash
        # alike, yet each call answers in its own ring
        cases = [
            (2, 1, Fraction),
            (PolyLambda.constant(2), 1, PolyLambda),
            (Fraction(2), 1, Fraction),
            (PolyXOverLambda.constant(2), 1, PolyXOverLambda),
            (2, PolyLambda.constant(1), PolyLambda),
            (2, Fraction(1), Fraction),
        ]
        for x, step, ring in cases:
            value = falling_factorial(x, 2, step=step)
            assert type(value) is ring
            assert value == 2

    def test_longer_and_shorter_calls_on_one_chain(self):
        x, step = PolyLambda((Fraction(7, 3), 2)), Fraction(1, 2)
        for n in (8, 3, 12, 8):
            expected = PolyLambda.one()
            for i in range(n):
                expected = expected * PolyLambda((Fraction(7, 3) - Fraction(i, 2), 2))
            assert falling_factorial(x, n, step=step) == expected
        assert falling_factorial(x, 12, step=step) is falling_factorial(x, 12, step=step)

    def test_concurrent_calls_only_see_whole_chains(self):
        x, step = PolyLambda((Fraction(5, 9), 3)), Fraction(-2, 7)
        expected = [PolyLambda.one()]
        for i in range(24):
            expected.append(expected[-1] * PolyLambda((Fraction(5, 9) + Fraction(2 * i, 7), 3)))
        results = []

        def work(seed):
            lengths = list(range(25)) * 2
            random.Random(seed).shuffle(lengths)
            found = [(n, falling_factorial(x, n, step=step)) for n in lengths]
            results.extend(found)

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 6 * 50
        assert all(value == expected[n] for n, value in results)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="length must be nonnegative"):
            falling_factorial(X, -1)
        with pytest.raises(ValueError, match="length must be nonnegative"):
            falling_factorial(Fraction(1), -2, step=-1)


class TestClassicalTriangles:
    def test_closed_forms_at_n_1000_without_recursion(self):
        assert stirling2_classical(1000, 2) == 2**999 - 1
        assert stirling1_classical(1000, 1) == -factorial(999)
        assert r_stirling2_classical(1000, 0, 2) == 2**1000

    def test_stirling2_against_partition_counter(self):
        for n in range(7):
            for k in range(n + 1):
                assert stirling2_classical(n, k) == partitions_into_blocks(n, k)

    def test_stirling1_against_cycle_counter(self):
        for n in range(7):
            for k in range(n + 1):
                signed = sum(
                    (-1) ** (n - cycle_count(p))
                    for p in permutations(range(n))
                    if cycle_count(p) == k
                )
                assert stirling1_classical(n, k) == signed

    def test_eulerian_against_descent_counter(self):
        for n in range(7):
            for m in range(n + 1):
                direct = sum(descent_count(p) == m for p in permutations(range(1, n + 1)))
                assert eulerian_classical(n, m) == direct

    def test_eulerian_frozen_values(self):
        assert eulerian_classical(3, 1) == 4
        assert eulerian_classical(4, 2) == 11
        assert all(eulerian_classical(n, 0) == 1 for n in range(9))

    def test_eulerian_row_sums(self):
        for n in range(9):
            assert sum(eulerian_classical(n, m) for m in range(n + 1)) == factorial(n)

    def test_worpitzky_expansion_at_integers(self):
        for n in range(9):
            for x in range(6):
                total = sum(
                    eulerian_classical(n, m) * comb(x + m, n) for m in range(n + 1)
                )
                assert total == x**n

    def test_r_stirling_reduces_to_plain_at_r_zero(self):
        for n in range(8):
            for k in range(n + 1):
                assert r_stirling2_classical(n, k, 0) == stirling2_classical(n, k)

    def test_r_stirling_parameter_must_be_int(self):
        with pytest.raises(TypeError, match="r must be int, got float"):
            r_stirling2_classical(3, 1, 1.5)
        with pytest.raises(TypeError, match="r must be int, got bool"):
            r_stirling2_classical(3, 1, True)
        with pytest.raises(ValueError, match="nonnegative integer"):
            r_stirling2_classical(3, 1, -1)

    def test_r_stirling_brute_force(self):
        """r distinguished elements in distinct blocks: place each of the n free
        elements into one of the k+r blocks or open a new one."""
        for n in range(6):
            for r in range(1, 4):
                for k in range(n + 1):
                    total = sum(
                        comb(n, j) * stirling2_classical(j, k) * (r ** (n - j))
                        for j in range(n + 1)
                    )
                    assert r_stirling2_classical(n, k, r) == total


class TestDegenerateStirling:
    def test_frozen_entries(self):
        assert stirling2_deg(2, 1) == 1 - LAM
        assert stirling2_deg(3, 2) == 3 - 3 * LAM
        assert stirling1_deg(2, 1) == LAM - 1
        assert stirling2_deg(0, 0) == PolyLambda.one()
        for n in range(1, 6):
            assert stirling2_deg(n, n) == PolyLambda.one()
            assert stirling1_deg(n, n) == PolyLambda.one()
            assert stirling2_deg(n, 0) == PolyLambda.zero()

    def test_stirling2_generating_function(self):
        n_max = 16
        em1 = degenerate_exp(1, n_max) - TruncatedSeries.one(n_max)
        power = TruncatedSeries.one(n_max)
        for k in range(n_max + 1):
            if k:
                power = power.mul(em1).scale(Fraction(1, k))
            for n in range(k):
                assert power.coefficient(n) == PolyLambda.zero()
            for n in range(k, n_max + 1):
                assert power.coefficient(n) == stirling2_deg(n, k)

    def test_stirling1_generating_function(self):
        n_max = 16
        lg = degenerate_log(n_max)
        power = TruncatedSeries.one(n_max)
        for k in range(n_max + 1):
            if k:
                power = power.mul(lg).scale(Fraction(1, k))
            for n in range(k, n_max + 1):
                assert power.coefficient(n) == stirling1_deg(n, k)

    def test_duality_both_orders(self):
        n_max = 14
        for n in range(n_max + 1):
            for m in range(n + 1):
                delta = PolyLambda.one() if n == m else PolyLambda.zero()
                s = sum(
                    (stirling1_deg(n, k) * stirling2_deg(k, m) for k in range(m, n + 1)),
                    PolyLambda.zero(),
                )
                assert s == delta
                s = sum(
                    (stirling2_deg(n, k) * stirling1_deg(k, m) for k in range(m, n + 1)),
                    PolyLambda.zero(),
                )
                assert s == delta

    def test_change_of_basis_symbolically_in_x(self):
        """The defining relations (x)_{n,l} = sum_k stirling2_deg(n,k) (x)_k and
        (x)_n = sum_k stirling1_deg(n,k) (x)_{k,l}, independent of the row
        recurrence that builds both triangles."""
        for n in range(13):
            second = sum(
                (falling_factorial(X, k) * stirling2_deg(n, k) for k in range(n + 1)),
                PolyXOverLambda.zero(),
            )
            assert second == falling_lambda(X, n)
            first = sum(
                (falling_lambda(X, k) * stirling1_deg(n, k) for k in range(n + 1)),
                PolyXOverLambda.zero(),
            )
            assert first == falling_factorial(X, n)

    def test_stirling2_recurrence(self):
        for n in range(12):
            for k in range(1, n + 2):
                lhs = stirling2_deg(n + 1, k)
                rhs = stirling2_deg(n, k - 1)
                if k <= n:
                    rhs = rhs + (PolyLambda.constant(k) - n * LAM) * stirling2_deg(n, k)
                assert lhs == rhs

    def test_stirling1_recurrence(self):
        for n in range(12):
            for k in range(1, n + 2):
                lhs = stirling1_deg(n + 1, k)
                rhs = stirling1_deg(n, k - 1)
                if k <= n:
                    rhs = rhs + (LAM * k - n) * stirling1_deg(n, k)
                assert lhs == rhs

    @pytest.mark.parametrize("lam", [0, LAM], ids=["classical", "degenerate"])
    @pytest.mark.parametrize("r", [0, 1, 2])
    @pytest.mark.parametrize("first", [True, False], ids=["first-kind", "second-kind"])
    def test_row_kernel_matches_the_ring_operation_recurrence(self, first, r, lam):
        """_row's int-numerator kernel against T(m,k) = w T(m-1,k) + T(m-1,k-1)
        written out in ring operations, for rows built upward from a cold
        memo and for rows extended from a kept one."""
        want, row = [], (lam**0,)
        for m in range(31):
            if m:
                pairs = enumerate(zip(row + (0,), (0,) + row))
                row = tuple((k * lam - (m - 1) if first else k + r - (m - 1) * lam) * a + b for k, (a, b) in pairs)
            want.append(row)
        kept = dict(_row.pristine)
        try:
            _row.pristine.clear()
            cold = _row(30, r, first, lam)
            _row.pristine.clear()
            warm = [_row(n, r, first, lam) for n in range(31)]
        finally:
            _row.pristine.clear()
            _row.pristine.update(kept)
        for got, expected in zip([*warm, cold], [*want, want[30]]):
            assert got == expected
            for entry in got:
                if lam:
                    assert type(entry) is PolyLambda and entry._den == 1
                    assert not entry._terms or entry._terms[-1]
                else:
                    assert type(entry) is int

    def test_classical_limits(self):
        for n in range(15):
            for k in range(n + 1):
                assert stirling2_deg(n, k).evaluate(Fraction(0)) == stirling2_classical(n, k)
                assert stirling1_deg(n, k).evaluate(Fraction(0)) == stirling1_classical(n, k)

    def test_index_errors(self):
        with pytest.raises(ValueError, match=r"need 0 <= k <= n, got n=2, k=3"):
            stirling2_deg(2, 3)
        with pytest.raises(ValueError, match="out of range"):
            stirling1_deg(-1, 0)
        with pytest.raises(ValueError, match="out of range"):
            eulerian_classical(3, 4)


class TestPolynomialAndRestricted:
    def test_symbolic_frozen_values(self):
        assert stirling2_deg_poly(2, 1) == 2 * X + PolyXOverLambda.constant(1 - LAM)
        assert stirling2_deg_poly(1, 1) == PolyXOverLambda.one()

    def test_x_zero_matches_plain(self):
        for n in range(8):
            for k in range(n + 1):
                assert stirling2_deg_poly(n, k, x=Fraction(0)) == stirling2_deg(n, k)

    def test_generating_function_with_x_weight(self):
        n_max = 10
        r = 2
        em1 = degenerate_exp(1, n_max) - TruncatedSeries.one(n_max)
        shift = degenerate_exp(Fraction(r), n_max)
        power = TruncatedSeries.one(n_max)
        for k in range(n_max + 1):
            if k:
                power = power.mul(em1).scale(Fraction(1, k))
            weighted = power.mul(shift)
            for n in range(k, n_max + 1):
                assert weighted.coefficient(n) == stirling2_deg_poly(n, k, x=Fraction(r))

    def test_warm_memo_never_answers_for_an_equal_point_of_another_type(self):
        # 2, 2.0, True (against 1) and a constant PolyXOverLambda hash alike
        warm = [stirling2_deg_poly(4, 2, x=x) for x in (1, 2, Fraction(2), LAM + 1)]
        assert all(type(v) is PolyLambda for v in warm)
        for bad in (2.0, True):
            with pytest.raises(TypeError, match=f"got {type(bad).__name__}"):
                stirling2_deg_poly(4, 2, x=bad)
        lifted = stirling2_deg_poly(4, 2, x=PolyXOverLambda.constant(2))
        assert type(lifted) is PolyXOverLambda
        assert lifted == PolyXOverLambda.constant(warm[1])
        assert stirling2_deg_poly(4, 2, x=2) is warm[1]

    @pytest.mark.parametrize("bad", [[1], {2: 1}, "2", 2.0, True], ids=["list", "dict", "str", "float", "bool"])
    def test_bad_point_refused_by_name_before_the_memo(self, bad):
        # a list or a dict is unhashable: the memo lookup must not be the one to refuse it
        named = f"x must be int, Fraction, PolyLambda or PolyXOverLambda, got {type(bad).__name__}"
        with pytest.raises(TypeError, match=named):
            stirling2_deg_poly(3, 1, x=bad)

    def test_restricted_frozen_values(self):
        assert r_stirling2_deg(2, 1, 1) == 3 - LAM
        for n in range(7):
            for r in range(1, 4):
                assert r_stirling2_deg(n, 0, r) == falling_lambda(Fraction(r), n)

    def test_restricted_classical_limit(self):
        for n in range(9):
            for r in range(1, 4):
                for k in range(n + 1):
                    got = r_stirling2_deg(n, k, r).evaluate(Fraction(0))
                    assert got == r_stirling2_classical(n, k, r)

    def test_restriction_parameter_validated(self):
        with pytest.raises(ValueError, match="must be a positive integer"):
            r_stirling2_deg(3, 1, 0)
        with pytest.raises(ValueError, match="must be a positive integer"):
            r_stirling2_deg(3, 1, -2)

    def test_boolean_restriction_parameter_rejected(self):
        with pytest.raises(TypeError, match="r must be int, got bool"):
            r_stirling2_deg(3, 1, r=True)


class TestDegenerateEulerian:
    def test_frozen_values(self):
        assert eulerian_degenerate(1, 0) == 1 - LAM
        assert eulerian_degenerate(2, 1) == (1 - LAM) * (1 - LAM)

    def test_classical_limit(self):
        for n in range(11):
            for m in range(n + 1):
                got = eulerian_degenerate(n, m).evaluate(Fraction(0))
                assert got == eulerian_classical(n, m)

    def test_stirling_expansion_inverts(self):
        """Binomial inversion recovers log_weight(k) stirling2_deg(n,k) from the row."""
        for n in range(9):
            for k in range(n + 1):
                s = sum(
                    (
                        eulerian_degenerate(n, m) * comb(m, n - k)
                        for m in range(n - k, n + 1)
                    ),
                    PolyLambda.zero(),
                )
                if k % 2:
                    s = -s
                assert s == log_weight(k) * stirling2_deg(n, k)


class TestForwardDifference:
    def test_falling_lambda_samples(self):
        values = [falling_lambda(PolyLambda.constant(j), 2) for j in range(4)]
        assert forward_difference(values, 1) == 1 - LAM
        assert forward_difference(values, 2) == PolyLambda.constant(2)
        assert forward_difference(values, 0) == values[0]

    def test_symbolic_base_point(self):
        values = [falling_lambda(X + j, 2) for j in range(3)]
        got = forward_difference(values, 2)
        assert got == PolyXOverLambda.constant(Fraction(2))

    def test_extra_values_ignored(self):
        assert forward_difference([Fraction(1), Fraction(3), Fraction(9)], 1) == 2

    def test_insufficient_values(self):
        with pytest.raises(ValueError, match="insufficient values"):
            forward_difference([Fraction(1)], 1)

    def test_negative_order(self):
        with pytest.raises(ValueError, match="nonnegative"):
            forward_difference([Fraction(1)], -1)


ROW4 = (4, 0, False, LAM)


def _row_with(key, k, value):
    row = _row(*key)
    return row[:k] + (value,) + row[k + 1 :]


class TestMemoizedBinding:
    """memoized binds a keyword to the position of its name in the builder's code."""

    def test_keyword_call_shares_the_positional_entry(self):
        value = gen_beta(3, 1)
        size = len(gen_beta.pristine)
        assert gen_beta(n=3, p=1) is value
        assert gen_beta(p=1, n=3) is value
        assert gen_beta(3, p=1) is value
        assert len(gen_beta.pristine) == size

    @pytest.mark.parametrize(
        "args,kwargs",
        [((7,), {"q": 2}), ((7, 2), {"n": 7}), ((7,), {"n": 7, "p": 2}), ((), {"p": 2})],
        ids=["unknown", "twice-all-positional", "twice", "missing"],
    )
    def test_unbindable_call_is_refused_before_the_memo(self, args, kwargs):
        gen_beta.pristine.pop((7, 2), None)
        before = dict(gen_beta.pristine)
        with pytest.raises(TypeError, match=r"gen_beta\(n, p\): an argument is missing, unknown or repeated"):
            gen_beta(*args, **kwargs)
        assert gen_beta.pristine == before

    def test_keyword_index_is_checked(self):
        with pytest.raises(TypeError, match="n must be int, got float"):
            gen_beta(n=3.0, p=1)

    def test_keyword_call_reads_the_substitution(self):
        value = gen_beta(3, 1) + 1
        with substituted(gen_beta, (3, 1), value):
            assert gen_beta(n=3, p=1) is value
        assert gen_beta(n=3, p=1) == value - 1

    @pytest.mark.parametrize(
        "builder",
        [lambda *args: 0, lambda n, *, p: 0, lambda n, **kwargs: 0, lambda n, p=0: 0, lambda n, /: 0],
        ids=["varargs", "keyword-only", "varkeywords", "default", "positional-only"],
    )
    def test_builder_without_plain_parameters_is_refused(self, builder):
        with pytest.raises(TypeError, match="memoized needs plain positional parameters without defaults"):
            memoized(builder)


class TestSubstitution:
    def test_override_feeds_dependent_functions(self):
        with substituted(_row, (2, 0, False, LAM), _row_with((2, 0, False, LAM), 1, PolyLambda.zero())):
            dirty = eulerian_degenerate(2, 1)
            assert stirling2_deg(2, 1) == 0
        assert dirty != eulerian_degenerate(2, 1)
        assert stirling2_deg(2, 1) == 1 - LAM

    def test_pristine_call_in_another_thread_sees_no_substitution(self):
        clean_entry, clean = stirling2_deg(4, 2), eulerian_degenerate(4, 1)
        del eulerian_degenerate.pristine[(4, 1)]  # the thread builds it again
        seen = {}

        def work():
            seen["entry"], seen["eulerian"] = stirling2_deg(4, 2), eulerian_degenerate(4, 1)

        with substituted(_row, ROW4, _row_with(ROW4, 2, PolyLambda.zero())) as memo:
            dirty = eulerian_degenerate(4, 1)
            before = dict(memo)
            thread = threading.Thread(target=work)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert stirling2_deg(4, 2) == 0
            assert memo == before and all(memo[key] is value for key, value in before.items())
        assert seen == {"entry": clean_entry, "eulerian": clean} and dirty != clean
        assert eulerian_degenerate.pristine[(4, 1)] is seen["eulerian"]

    def test_nested_substitution_refused_and_scope_closed_on_error(self):
        with pytest.raises(ZeroDivisionError):
            with substituted(log_weight, (3,), LAM) as memo:
                assert list(memo) == [(log_weight, (3,))]  # the one entry, none of what built it
                with pytest.raises(RuntimeError, match="substitutions do not nest"):
                    with substituted(log_weight, (2,), LAM):
                        pass
                assert log_weight(3) == LAM and triangles._substitution.get() is memo
                1 / 0
        assert triangles._substitution.get() is None
        assert log_weight(3) != LAM

    @pytest.mark.parametrize(
        "builder,args,value,error,message",
        [
            (stirling2_deg, (4, 2), LAM, TypeError, "substituted needs a memoized builder, got stirling2_deg"),
            (log_weight, (True,), LAM, TypeError, "k must be int, got bool"),
            (eulerian_degenerate, (4.0, 1), LAM, TypeError, "n must be int, got float"),
            (eulerian_degenerate, (2, 3), LAM, ValueError, "triangle indices out of range"),
            (log_weight, (-1,), LAM, ValueError, "k must be nonnegative"),
            (log_weight, (3,), 0.5, TypeError, r"type and shape of log_weight\(3,\), a PolyLambda, got float"),
            (_row, ROW4, _row(*ROW4)[:4], TypeError, "type and shape of _row"),
            (_row, ROW4, _row_with(ROW4, 2, 2.0), TypeError, "type and shape of _row"),
            (_row, (-1, 0, False, LAM), (PolyLambda.one(),), ValueError, "row index n must be nonnegative, got -1"),
        ],
        ids=["not-memoized", "bool-index", "float-index", "k-past-n", "negative", "float-value", "short-row", "float-entry", "negative-row"],
    )
    def test_refused_by_name_before_any_memo_is_touched(self, builder, args, value, error, message):
        memo = getattr(builder, "pristine", {})
        memo.pop(args, None)
        before = dict(memo)
        with pytest.raises(error, match=message):
            with substituted(builder, args, value):
                pytest.fail("a refused substitution ran its block")
        assert memo == before and triangles._substitution.get() is None
