"""Exhaustive exact verification of the identity catalogue.

Every identity the package implements has at least two genuinely independent
computation routes; this module enumerates each identity over configurable
index ranges, evaluates both sides exactly (in Q[l], Q(l), or Q[l][x], fixed
per identity), and reports pass counts plus the first counterexample found.

Identities carry short stable string tokens (IdentityId values) that are part
of the command-line interface; DESCRIPTIONS maps each token to a one-line
statement of what is compared.  A "case" is one value of the outer index n;
inner indices (p, k, m, r, y) are swept inside the case, so a single failing
inner assignment fails the whole case but is pinpointed in first_failure.

Reports are deterministic for identical inputs, except the elapsed timing
field.  The corrupt_s2 hook substitutes one entry of the second-kind triangle
before the run, for mutation testing: a corrupted table must make at least
one identity fail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, factorial

from .bernoulli import (
    carlitz_beta,
    carlitz_beta_gf,
    classical_bernoulli,
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
from .exactcore import PolyLambda, PolyXOverLambda, RationalFunctionLambda
from .series import TruncatedSeries, degenerate_exp, gauss_2f1_formal
from .triangles import (
    eulerian_classical,
    eulerian_degenerate,
    falling_factorial,
    falling_lambda,
    forward_difference,
    log_weight,
    r_stirling2_deg,
    stirling1_classical,
    stirling1_deg,
    stirling2_classical,
    stirling2_deg,
    stirling2_deg_poly,
    stirling2_deg_table,
)

__all__ = [
    "IdentityId",
    "IdentityCase",
    "IdentityReport",
    "FirstFailure",
    "DESCRIPTIONS",
    "run_suite",
    "suite_plan",
    "explain_failure",
]


class IdentityId(str, Enum):
    """Stable tokens naming the verifiable identities."""

    THM1 = "Thm1"
    THM2 = "Thm2"
    THM3_VS_GF = "Thm3-vs-GF"
    THM4 = "Thm4"
    THM5 = "Thm5"
    THM6 = "Thm6"
    THM7_VS_THM9 = "Thm7-vs-Thm9"
    PROP8 = "Prop8"
    LEMMA38 = "Lemma38"
    EQ8_PFAFF = "Eq8-Pfaff"
    EQ9_EULER = "Eq9-Euler"
    EQ11 = "Eq11"
    EQ12 = "Eq12"
    EQ13 = "Eq13"
    EQ23 = "Eq23"
    EQ26_27 = "Eq26-27"
    EQ30 = "Eq30"
    EQ32_33 = "Eq32-33"
    REMARK_ADD = "Remark-add"
    REMARK_DIFF = "Remark-diff"
    REMARK_MULT_A = "Remark-mult-A"
    REMARK_MULT_B = "Remark-mult-B"
    STIRLING_DUALITY = "StirlingDuality"
    CLASSICAL_LIMITS = "ClassicalLimits"

    def __str__(self) -> str:  # so f-strings show the token, not the member name
        return self.value


DESCRIPTIONS: dict[IdentityId, str] = {
    IdentityId.THM1: "weighted second-kind row sum vs reciprocal-series coefficient",
    IdentityId.THM2: "first-kind inversion of the degenerate Bernoulli sequence",
    IdentityId.THM3_VS_GF: "generalized-number triangle sum vs hypergeometric coefficient",
    IdentityId.THM4: "Eulerian route vs hypergeometric coefficient",
    IdentityId.THM5: "restricted-triangle field route (raw and simplified) vs hypergeometric coefficient",
    IdentityId.THM6: "termwise-integrated route vs hypergeometric coefficient",
    IdentityId.THM7_VS_THM9: "both polynomial routes vs polynomial series coefficient",
    IdentityId.PROP8: "closed-form x-derivative vs coefficientwise derivative",
    IdentityId.LEMMA38: "x-shifted second-kind entries vs symbolic forward differences",
    IdentityId.EQ8_PFAFF: "hypergeometric series vs its argument-flip (b) transform",
    IdentityId.EQ9_EULER: "hypergeometric series vs its argument-flip (a and b) transform",
    IdentityId.EQ11: "classical Eulerian row sums vs factorial",
    IdentityId.EQ12: "classical Eulerian numbers vs signed second-kind sums",
    IdentityId.EQ13: "power basis expanded in Eulerian-weighted binomials",
    IdentityId.EQ23: "closed falling-factorial form of the p = -1 numbers vs triangle sum",
    IdentityId.EQ26_27: "second-kind entries vs forward differences at zero, with vanishing tail",
    IdentityId.EQ30: "binomial-shift identity tying second-kind and degenerate Eulerian rows",
    IdentityId.EQ32_33: "restricted second-kind entries vs basis expansion and series oracle",
    IdentityId.REMARK_ADD: "argument-addition rule for the polynomials",
    IdentityId.REMARK_DIFF: "unit-shift difference rule for the polynomials",
    IdentityId.REMARK_MULT_A: "argument-scaling rule, step read as l/(m-1)",
    IdentityId.REMARK_MULT_B: "argument-scaling rule, step read as l/m - 1",
    IdentityId.STIRLING_DUALITY: "the two degenerate triangles invert each other",
    IdentityId.CLASSICAL_LIMITS: "l = 0 specializations match classical recurrences",
}


@dataclass(frozen=True)
class FirstFailure:
    """Earliest failing comparison: index assignment plus both canonical forms.

    mismatch_index is set only for polynomial-identity failures where a
    single coefficient position pinpoints the disagreement.
    """

    parameters: tuple[tuple[str, int], ...]
    lhs: str
    rhs: str
    mismatch_index: int | None = None


@dataclass(frozen=True)
class IdentityCase:
    """One identity together with the index ranges a run sweeps for it."""

    identity_id: IdentityId
    parameters: dict[str, range]


@dataclass(frozen=True)
class IdentityReport:
    identity_id: IdentityId
    cases_run: int
    cases_passed: int
    first_failure: FirstFailure | None
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.cases_passed == self.cases_run


def _canon(v) -> str:
    if isinstance(v, (PolyLambda, PolyXOverLambda, RationalFunctionLambda)):
        return v.serialize()
    return str(v)


def _fail(params: dict[str, int], lhs, rhs, index: int | None = None) -> FirstFailure:
    return FirstFailure(tuple(params.items()), _canon(lhs), _canon(rhs), index)


def _px_mismatch_index(lhs: PolyXOverLambda, rhs: PolyXOverLambda) -> int:
    top = max(lhs.degree, rhs.degree)
    for j in range(top + 1):
        if lhs.coefficient(j) != rhs.coefficient(j):
            return j
    raise AssertionError("polynomials compared unequal but all coefficients match")


class _SuiteContext:
    """Per-run state: the suite's bounds, its triangle and its own series.

    table is None for the pristine second-kind triangle or a TriangleTable
    with substituted entries; every triangle access inside the suite passes
    it as s2, so mutations are visible everywhere at once.  The routes' own
    series oracles are memoized in bernoulli; only the transformation sides
    and the restricted-Stirling oracle, which nothing else uses, live here.
    """

    def __init__(self, max_n: int, max_p: int, truncation: int, table):
        self.max_n = max_n
        self.max_p = max_p
        self.truncation = truncation
        self.table = table
        self._u = None
        self._transform: dict[tuple[str, int], TruncatedSeries] = {}
        self._rs_fact: list[TruncatedSeries] | None = None
        self._rs_exp: dict[int, TruncatedSeries] = {}
        self._rs_prod: dict[tuple[int, int], TruncatedSeries] = {}

    def u_series(self) -> TruncatedSeries:
        if self._u is None:
            one = TruncatedSeries.one(PolyLambda, self.truncation)
            self._u = one - degenerate_exp(1, self.truncation)
        return self._u

    def transform_side(self, which: str, p: int) -> TruncatedSeries:
        key = (which, p)
        if key not in self._transform:
            lam = PolyLambda.lam()
            u = self.u_series()
            if which == "pfaff":
                w = u.div(u - TruncatedSeries.one(PolyLambda, self.truncation))
                inner = gauss_2f1_formal(PolyLambda.one() - lam, p + 1, p + 2, w)
                self._transform[key] = (-u).binomial_pow(lam - 1).mul(inner)
            else:
                inner = gauss_2f1_formal(lam + (p + 1), p + 1, p + 2, u)
                self._transform[key] = (-u).binomial_pow(lam + p).mul(inner)
        return self._transform[key]

    def rs_oracle(self, n: int, k: int, r: int) -> PolyLambda:
        """n-th coefficient of (e_l(t) - 1)^k e_l(t)^r / k!."""
        if (k, r) not in self._rs_prod:
            if self._rs_fact is None:
                one = TruncatedSeries.one(PolyLambda, self.truncation)
                em1 = degenerate_exp(1, self.truncation) - one
                self._rs_fact = [one]
                for j in range(1, self.max_n + 1):
                    nxt = self._rs_fact[-1].mul(em1).scale(Fraction(1, j))
                    self._rs_fact.append(nxt)
            if r not in self._rs_exp:
                self._rs_exp[r] = degenerate_exp(Fraction(r), self.truncation)
            self._rs_prod[(k, r)] = self._rs_fact[k].mul(self._rs_exp[r])
        return self._rs_prod[(k, r)].coefficient(n)

    def remark_p_range(self) -> range:
        return range(0, min(self.max_p, 2) + 1)


# one function per identity; each returns None or the first in-case failure


def _ck_thm1(ctx: _SuiteContext, n: int):
    lhs = carlitz_beta(n, s2=ctx.table)
    rhs = carlitz_beta_gf(n, order=ctx.truncation)
    if lhs != rhs:
        return _fail({"n": n}, lhs, rhs)
    return None


def _ck_thm2(ctx: _SuiteContext, n: int):
    acc = PolyLambda.zero()
    for k in range(n + 1):
        s = stirling1_deg(n, k)
        if s:
            acc = acc + s * carlitz_beta(k, s2=ctx.table)
    rhs = log_weight(n) * Fraction(1, n + 1)
    if acc != rhs:
        return _fail({"n": n}, acc, rhs)
    return None


def _ck_thm3(ctx: _SuiteContext, n: int):
    for p in range(-1, ctx.max_p + 1):
        lhs = gen_beta_stirling_sum(n, p, s2=ctx.table)
        rhs = gen_beta_gf(n, p, order=ctx.truncation)
        if lhs != rhs:
            return _fail({"n": n, "p": p}, lhs, rhs)
    return None


def _ck_thm4(ctx: _SuiteContext, n: int):
    for p in range(ctx.max_p + 1):
        lhs = gen_beta_eulerian(n, p, s2=ctx.table)
        rhs = gen_beta_gf(n, p, order=ctx.truncation)
        if lhs != rhs:
            return _fail({"n": n, "p": p}, lhs, rhs)
    return None


def _ck_thm5(ctx: _SuiteContext, n: int):
    for p in range(1, ctx.max_p + 1):
        target = RationalFunctionLambda(gen_beta_gf(n, p, order=ctx.truncation))
        raw = gen_beta_rstirling(n, p, s2=ctx.table)
        if raw != target:
            return _fail({"n": n, "p": p}, raw, target)
        simp = gen_beta_rstirling_simplified(n, p, s2=ctx.table)
        if RationalFunctionLambda(simp) != target:
            return _fail({"n": n, "p": p}, simp, target)
    return None


def _ck_thm6(ctx: _SuiteContext, n: int):
    for p in range(ctx.max_p + 1):
        lhs = gen_beta_integral(n, p)
        rhs = gen_beta_gf(n, p, order=ctx.truncation)
        if lhs != rhs:
            return _fail({"n": n, "p": p}, lhs, rhs)
    return None


def _ck_thm7_vs_thm9(ctx: _SuiteContext, n: int):
    for p in range(ctx.max_p + 1):
        oracle = gen_beta_poly_gf(n, p, order=ctx.truncation)
        direct = gen_beta_poly(n, p, s2=ctx.table)
        if direct != oracle:
            return _fail({"n": n, "p": p}, direct, oracle, _px_mismatch_index(direct, oracle))
        triangle = gen_beta_poly_stirling(n, p, s2=ctx.table)
        if triangle != oracle:
            return _fail({"n": n, "p": p}, triangle, oracle, _px_mismatch_index(triangle, oracle))
    return None


def _ck_prop8(ctx: _SuiteContext, n: int):
    for p in range(ctx.max_p + 1):
        lhs = gen_beta_poly_derivative(n, p, s2=ctx.table)
        rhs = gen_beta_poly(n, p, s2=ctx.table).derivative()
        if lhs != rhs:
            return _fail({"n": n, "p": p}, lhs, rhs, _px_mismatch_index(lhs, rhs))
    return None


def _ck_lemma38(ctx: _SuiteContext, n: int):
    x = PolyXOverLambda.x()
    shifted = [falling_lambda(x + j, n) for j in range(n + 1)]
    for k in range(n + 1):
        lhs = stirling2_deg_poly(n, k, s2=ctx.table)
        rhs = forward_difference(shifted[: k + 1], k) * Fraction(1, factorial(k))
        if lhs != rhs:
            return _fail({"n": n, "k": k}, lhs, rhs, _px_mismatch_index(lhs, rhs))
    return None


def _ck_eq8(ctx: _SuiteContext, n: int):
    for p in range(ctx.max_p + 1):
        lhs = gen_beta_gf(n, p, order=ctx.truncation)
        rhs = ctx.transform_side("pfaff", p).coefficient(n)
        if lhs != rhs:
            return _fail({"n": n, "p": p}, lhs, rhs)
    return None


def _ck_eq9(ctx: _SuiteContext, n: int):
    for p in range(ctx.max_p + 1):
        lhs = gen_beta_gf(n, p, order=ctx.truncation)
        rhs = ctx.transform_side("euler", p).coefficient(n)
        if lhs != rhs:
            return _fail({"n": n, "p": p}, lhs, rhs)
    return None


def _ck_eq11(ctx: _SuiteContext, n: int):
    lhs = sum(eulerian_classical(n, k) for k in range(n + 1))
    rhs = factorial(n)
    if lhs != rhs:
        return _fail({"n": n}, lhs, rhs)
    return None


def _ck_eq12(ctx: _SuiteContext, n: int):
    zero = Fraction(0)
    for m in range(n + 1):
        lhs = Fraction(eulerian_classical(n, m))
        rhs = Fraction(0)
        for k in range(n - m + 1):
            term = stirling2_deg(n, k, s2=ctx.table).evaluate(zero) * comb(n - k, m) * factorial(k)
            rhs += -term if (n - k - m) % 2 else term
        if lhs != rhs:
            return _fail({"n": n, "m": m}, lhs, rhs)
    return None


def _ck_eq13(ctx: _SuiteContext, n: int):
    x = PolyXOverLambda.x()
    lhs = x**n
    rhs = PolyXOverLambda.zero()
    for k in range(n + 1):
        e = eulerian_classical(n, k)
        if e:
            rhs = rhs + falling_factorial(x + k, n) * Fraction(e, factorial(n))
    if lhs != rhs:
        return _fail({"n": n}, lhs, rhs, _px_mismatch_index(lhs, rhs))
    return None


def _ck_eq23(ctx: _SuiteContext, n: int):
    lhs = falling_lambda(PolyLambda.lam() - 1, n)
    rhs = gen_beta_stirling_sum(n, -1, s2=ctx.table)
    if lhs != rhs:
        return _fail({"n": n}, lhs, rhs)
    return None


def _ck_eq26_27(ctx: _SuiteContext, n: int):
    values = [falling_lambda(Fraction(j), n) for j in range(n + 3)]
    for k in range(n + 1):
        lhs = stirling2_deg(n, k, s2=ctx.table) * factorial(k)
        rhs = forward_difference(values[: k + 1], k)
        if lhs != rhs:
            return _fail({"n": n, "k": k}, lhs, rhs)
    for k in (n + 1, n + 2):
        rhs = forward_difference(values[: k + 1], k)
        if rhs != PolyLambda.zero():
            return _fail({"n": n, "k": k}, PolyLambda.zero(), rhs)
    return None


def _ck_eq30(ctx: _SuiteContext, n: int):
    t = PolyXOverLambda.x()
    one = PolyXOverLambda.one()
    lhs = PolyXOverLambda.zero()
    for k in range(n + 1):
        s = stirling2_deg(n, k, s2=ctx.table)
        if s:
            lhs = lhs + (t + 1) ** (n - k) * (log_weight(k) * s)
    rhs = PolyXOverLambda.zero()
    power = one
    for m in range(n + 1):
        e = eulerian_degenerate(n, m, s2=ctx.table)
        if e:
            term = power * e
            rhs = rhs + (-term if (n - m) % 2 else term)
        power = power * t
    if lhs != rhs:
        return _fail({"n": n}, lhs, rhs, _px_mismatch_index(lhs, rhs))
    return None


def _ck_eq32_33(ctx: _SuiteContext, n: int):
    x = PolyXOverLambda.x()
    for r in range(1, max(1, ctx.max_p) + 1):
        lhs = falling_lambda(x + r, n)
        rhs = PolyXOverLambda.zero()
        for k in range(n + 1):
            entry = r_stirling2_deg(n, k, r, s2=ctx.table)
            if entry:
                rhs = rhs + falling_factorial(x, k) * entry
        if lhs != rhs:
            return _fail({"n": n, "r": r}, lhs, rhs, _px_mismatch_index(lhs, rhs))
        for k in range(n + 1):
            entry = r_stirling2_deg(n, k, r, s2=ctx.table)
            oracle = ctx.rs_oracle(n, k, r)
            if entry != oracle:
                return _fail({"n": n, "k": k, "r": r}, entry, oracle)
    return None


def _remark_check(rule: str, inner):
    """Case check comparing remark_sides for every p and each inner assignment."""

    def check(ctx: _SuiteContext, n: int):
        for p in ctx.remark_p_range():
            for extra in inner(n):
                lhs, rhs = remark_sides(rule, n, p, s2=ctx.table, **extra)
                if lhs != rhs:
                    index = _px_mismatch_index(lhs, rhs)
                    return _fail({"n": n, "p": p, **extra}, lhs, rhs, index)
        return None

    return check


_ck_remark_add = _remark_check("addition", lambda n: ({"y": y} for y in range(n + 1)))
_ck_remark_diff = _remark_check("difference", lambda n: ({},))
_ck_remark_mult_a = _remark_check("ratio", lambda n: ({"m": m} for m in (2, 3)))
_ck_remark_mult_b = _remark_check("shift", lambda n: ({"m": m} for m in (2, 3)))


def _ck_duality(ctx: _SuiteContext, n: int):
    for k in range(n + 1):
        delta = PolyLambda.one() if n == k else PolyLambda.zero()
        down = PolyLambda.zero()
        up = PolyLambda.zero()
        for l in range(k, n + 1):
            down = down + stirling2_deg(n, l, s2=ctx.table) * stirling1_deg(l, k)
            up = up + stirling1_deg(n, l) * stirling2_deg(l, k, s2=ctx.table)
        if down != delta:
            return _fail({"n": n, "k": k}, down, delta)
        if up != delta:
            return _fail({"n": n, "k": k}, up, delta)
    return None


def _ck_classical_limits(ctx: _SuiteContext, n: int):
    zero = Fraction(0)
    for k in range(n + 1):
        got = stirling2_deg(n, k, s2=ctx.table).evaluate(zero)
        want = Fraction(stirling2_classical(n, k))
        if got != want:
            return _fail({"n": n, "k": k}, got, want)
        got = stirling1_deg(n, k).evaluate(zero)
        want = Fraction(stirling1_classical(n, k))
        if got != want:
            return _fail({"n": n, "k": k}, got, want)
        got = eulerian_degenerate(n, k, s2=ctx.table).evaluate(zero)
        want = Fraction(eulerian_classical(n, k))
        if got != want:
            return _fail({"n": n, "k": k}, got, want)
    got = carlitz_beta(n, s2=ctx.table).evaluate(zero)
    want = classical_bernoulli(n)
    if got != want:
        return _fail({"n": n}, got, want)
    return None


def _full_n(ctx: _SuiteContext) -> range:
    return range(0, ctx.max_n + 1)


def _pos_n(ctx: _SuiteContext) -> range:
    return range(1, ctx.max_n + 1)


def _p_range(ctx: _SuiteContext) -> range:
    return range(0, ctx.max_p + 1)


# token -> (case check, n range, documented inner ranges)
_CHECKS = {
    IdentityId.THM1: (_ck_thm1, _full_n, lambda ctx: {}),
    IdentityId.THM2: (_ck_thm2, _pos_n, lambda ctx: {}),
    IdentityId.THM3_VS_GF: (_ck_thm3, _full_n, lambda ctx: {"p": range(-1, ctx.max_p + 1)}),
    IdentityId.THM4: (_ck_thm4, _full_n, lambda ctx: {"p": _p_range(ctx)}),
    IdentityId.THM5: (_ck_thm5, _pos_n, lambda ctx: {"p": range(1, ctx.max_p + 1)}),
    IdentityId.THM6: (_ck_thm6, _full_n, lambda ctx: {"p": _p_range(ctx)}),
    IdentityId.THM7_VS_THM9: (_ck_thm7_vs_thm9, _full_n, lambda ctx: {"p": _p_range(ctx)}),
    IdentityId.PROP8: (_ck_prop8, _pos_n, lambda ctx: {"p": _p_range(ctx)}),
    IdentityId.LEMMA38: (_ck_lemma38, _full_n, lambda ctx: {"k": range(0, ctx.max_n + 1)}),
    IdentityId.EQ8_PFAFF: (_ck_eq8, _full_n, lambda ctx: {"p": _p_range(ctx)}),
    IdentityId.EQ9_EULER: (_ck_eq9, _full_n, lambda ctx: {"p": _p_range(ctx)}),
    IdentityId.EQ11: (_ck_eq11, _pos_n, lambda ctx: {}),
    IdentityId.EQ12: (_ck_eq12, _full_n, lambda ctx: {"m": range(0, ctx.max_n + 1)}),
    IdentityId.EQ13: (_ck_eq13, _full_n, lambda ctx: {}),
    IdentityId.EQ23: (_ck_eq23, _full_n, lambda ctx: {}),
    IdentityId.EQ26_27: (_ck_eq26_27, _full_n, lambda ctx: {"k": range(0, ctx.max_n + 3)}),
    IdentityId.EQ30: (_ck_eq30, _full_n, lambda ctx: {}),
    IdentityId.EQ32_33: (
        _ck_eq32_33,
        _full_n,
        lambda ctx: {"k": range(0, ctx.max_n + 1), "r": range(1, max(1, ctx.max_p) + 1)},
    ),
    IdentityId.REMARK_ADD: (
        _ck_remark_add,
        _full_n,
        lambda ctx: {"p": ctx.remark_p_range(), "y": range(0, ctx.max_n + 1)},
    ),
    IdentityId.REMARK_DIFF: (_ck_remark_diff, _full_n, lambda ctx: {"p": ctx.remark_p_range()}),
    IdentityId.REMARK_MULT_A: (
        _ck_remark_mult_a,
        _full_n,
        lambda ctx: {"p": ctx.remark_p_range(), "m": range(2, 4)},
    ),
    IdentityId.REMARK_MULT_B: (
        _ck_remark_mult_b,
        _full_n,
        lambda ctx: {"p": ctx.remark_p_range(), "m": range(2, 4)},
    ),
    IdentityId.STIRLING_DUALITY: (
        _ck_duality,
        _full_n,
        lambda ctx: {"k": range(0, ctx.max_n + 1)},
    ),
    IdentityId.CLASSICAL_LIMITS: (
        _ck_classical_limits,
        _full_n,
        lambda ctx: {"k": range(0, ctx.max_n + 1)},
    ),
}


def _resolve_selection(selection):
    if selection is None:
        return sorted(IdentityId, key=lambda i: i.value)
    resolved = []
    for item in selection:
        if isinstance(item, IdentityId):
            resolved.append(item)
            continue
        try:
            resolved.append(IdentityId(item))
        except ValueError:
            raise ValueError(f"unknown identity: {item}") from None
    return sorted(set(resolved), key=lambda i: i.value)


def suite_plan(selection=None, max_n: int = 12, max_p: int = 4, truncation: int = 16):
    """The cases a run_suite call with these arguments would sweep."""
    ctx = _SuiteContext(max_n, max_p, truncation, None)
    plan = []
    for ident in _resolve_selection(selection):
        _, n_range, inner = _CHECKS[ident]
        params = {"n": n_range(ctx)}
        params.update(inner(ctx))
        plan.append(IdentityCase(ident, params))
    return plan


def run_suite(
    selection=None,
    max_n: int = 12,
    max_p: int = 4,
    truncation: int = 16,
    corrupt_s2: tuple[int, int, object] | None = None,
) -> list[IdentityReport]:
    """Run the selected identities (all 24 when selection is None).

    One case per outer index n.  Reports are returned sorted by identity
    token and are deterministic apart from the elapsed field.  corrupt_s2 =
    (n, k, value) substitutes one second-kind triangle entry for the whole
    run; the suite is expected to catch any such corruption.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if max_p < 0:
        raise ValueError("max_p must be nonnegative")
    if truncation < max_n + 1:
        raise ValueError("insufficient series order")
    idents = _resolve_selection(selection)
    table = None
    if corrupt_s2 is not None:
        cn, ck, cv = corrupt_s2
        table = stirling2_deg_table().with_entry(cn, ck, cv)
    ctx = _SuiteContext(max_n, max_p, truncation, table)
    reports = []
    for ident in idents:
        check, n_range, _ = _CHECKS[ident]
        start = time.perf_counter()
        cases_run = 0
        cases_passed = 0
        first_failure = None
        for n in n_range(ctx):
            cases_run += 1
            failure = check(ctx, n)
            if failure is None:
                cases_passed += 1
            elif first_failure is None:
                first_failure = failure
        elapsed = time.perf_counter() - start
        reports.append(IdentityReport(ident, cases_run, cases_passed, first_failure, elapsed))
    return reports


def explain_failure(report: IdentityReport) -> str:
    """Render a failing report's counterexample; errors if there is none."""
    if report.first_failure is None:
        raise ValueError("no failure to explain")
    f = report.first_failure
    where = ", ".join(f"{name}={value}" for name, value in f.parameters)
    lines = [
        f"{report.identity_id.value} failed at {where}",
        f"  lhs: {f.lhs}",
        f"  rhs: {f.rhs}",
    ]
    if f.mismatch_index is not None:
        lines.append(f"  first differing coefficient index: {f.mismatch_index}")
    return "\n".join(lines)
