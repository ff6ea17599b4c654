"""Exhaustive exact verification of the identity catalogue.

Every identity the package implements has at least two genuinely independent
computation routes; this module enumerates each identity over configurable
index ranges, evaluates both sides exactly (in Q[l], Q(l), or Q[l][x], fixed
per identity), and reports pass counts plus the first counterexample found.

Identities carry short stable string tokens (IdentityId values) that are part
of the command-line interface.  Each IdentityId member is the one declaration
of its identity: token, one-line description of what is compared, check,
first n and inner ranges.  A "case" is one value of the
outer index n; inner indices (p, k, m, r, y) are swept inside the case, over
the member's ranges, which suite_plan reports.  Each identity's check is a
generator that yields its comparisons (parameters, lhs, rhs) in order;
run_suite stops the case at the first unequal pair, so a single failing inner
assignment fails the whole case and is pinpointed in first_failure.

Reports are deterministic for identical inputs, except the elapsed timing
field.  For mutation testing, run the suite inside triangles.substituted with
one entry of any memoized builder the checks reach replaced (a triangle row,
a number, the suite's own series): a corrupted entry must make at least one
identity fail.
"""

from __future__ import annotations

import time
from enum import Enum
from fractions import Fraction
from itertools import count, product
from math import comb, factorial
from typing import NamedTuple

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
from .exactcore import PolyLambda, PolyXOverLambda, RationalFunctionLambda, _index, lincomb
from .series import TruncatedSeries, _scaled_powers, degenerate_exp, gauss_2f1_formal
from .triangles import (
    _chain,
    eulerian_classical,
    eulerian_degenerate,
    falling_factorial,
    falling_lambda,
    forward_difference,
    log_weight,
    memoized,
    r_stirling2_deg,
    stirling1_classical,
    stirling1_deg,
    stirling2_classical,
    stirling2_deg,
    stirling2_deg_poly,
)

__all__ = [
    "IdentityId",
    "IdentityCase",
    "IdentityReport",
    "FirstFailure",
    "run_suite",
    "suite_plan",
    "explain_failure",
]


class FirstFailure(NamedTuple):
    """Earliest failing comparison: index assignment plus both canonical forms.

    mismatch_index is set whenever both sides are polynomials in x
    (PolyXOverLambda): the first coefficient position where they disagree.
    """

    parameters: tuple[tuple[str, int], ...]
    lhs: str
    rhs: str
    mismatch_index: int | None = None


class IdentityCase(NamedTuple):
    """One identity together with the index ranges a run sweeps for it."""

    identity_id: IdentityId
    parameters: dict[str, range]


class IdentityReport(NamedTuple):
    identity_id: IdentityId
    cases_run: int
    cases_passed: int
    first_failure: FirstFailure | None
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.cases_passed == self.cases_run


def _canon(v) -> str:
    return v.serialize() if isinstance(v, (PolyLambda, PolyXOverLambda, RationalFunctionLambda)) else str(v)


class _Bounds(NamedTuple):
    max_n: int
    max_p: int
    truncation: int


@memoized
def _transform_side(which: str, p: int, order: int) -> TruncatedSeries:
    """gen_beta's 2F1 series after the Pfaff (Eq8) or Euler (Eq9) transformation."""
    lam = PolyLambda.lam()
    one = TruncatedSeries.one(order)
    u = one - degenerate_exp(1, order)
    if which == "pfaff":
        inner = gauss_2f1_formal(PolyLambda.one() - lam, p + 1, p + 2, u.div(u - one))
        return (-u).binomial_pow(lam - 1).mul(inner)
    inner = gauss_2f1_formal(lam + (p + 1), p + 1, p + 2, u)
    return (-u).binomial_pow(lam + p).mul(inner)


@memoized
def _restricted_column(k: int, r: int, order: int) -> TruncatedSeries:
    """(e_l(t) - 1)^k e_l(t)^r / k!, whose coefficients are r_stirling2_deg(n, k, r).

    The powers of e_l(t) - 1 come from the memo that compose shares with Eq8/Eq9.
    """
    em1 = degenerate_exp(1, order) - TruncatedSeries.one(order)
    return _scaled_powers(em1, order)[k].mul(degenerate_exp(r, order))


# One generator per identity.  check(bounds, n, sweep) yields (parameters,
# lhs, rhs) for each comparison of case n, in order; sweep maps each inner
# index to the range the identity's IdentityId member declares for it at row n.


def _ck_thm1(b: _Bounds, n: int, sweep):
    yield {"n": n}, carlitz_beta(n), carlitz_beta_gf(n, order=b.truncation)


def _ck_thm2(b: _Bounds, n: int, sweep):
    lhs = lincomb((stirling1_deg(n, k), carlitz_beta(k), 1) for k in range(n + 1))
    yield {"n": n}, lhs, log_weight(n) * Fraction(1, n + 1)


def _ck_thm3(b: _Bounds, n: int, sweep):
    for p in sweep["p"]:
        yield {"n": n, "p": p}, gen_beta_stirling_sum(n, p), gen_beta_gf(n, p, order=b.truncation)


def _ck_thm4(b: _Bounds, n: int, sweep):
    for p in sweep["p"]:
        yield {"n": n, "p": p}, gen_beta_eulerian(n, p), gen_beta_gf(n, p, order=b.truncation)


def _ck_thm5(b: _Bounds, n: int, sweep):
    for p in sweep["p"]:
        target = RationalFunctionLambda(gen_beta_gf(n, p, order=b.truncation))
        yield {"n": n, "p": p}, gen_beta_rstirling(n, p), target
        yield {"n": n, "p": p}, gen_beta_rstirling_simplified(n, p), target


def _ck_thm6(b: _Bounds, n: int, sweep):
    for p in sweep["p"]:
        yield {"n": n, "p": p}, gen_beta_integral(n, p), gen_beta_gf(n, p, order=b.truncation)


def _ck_thm7_vs_thm9(b: _Bounds, n: int, sweep):
    for p in sweep["p"]:
        oracle = gen_beta_poly_gf(n, p, order=b.truncation)
        yield {"n": n, "p": p}, gen_beta_poly(n, p), oracle
        yield {"n": n, "p": p}, gen_beta_poly_stirling(n, p), oracle


def _ck_prop8(b: _Bounds, n: int, sweep):
    for p in sweep["p"]:
        yield {"n": n, "p": p}, gen_beta_poly_derivative(n, p), gen_beta_poly(n, p).derivative()


def _ck_lemma38(b: _Bounds, n: int, sweep):
    x = PolyXOverLambda.x()
    shifted = [falling_lambda(x + j, n) for j in sweep["k"]]
    for k in sweep["k"]:
        rhs = forward_difference(shifted, k) * Fraction(1, factorial(k))
        yield {"n": n, "k": k}, stirling2_deg_poly(n, k), rhs


def _transform_check(which: str):
    """Check comparing gen_beta's series with its transformed form, for every p."""

    def check(b: _Bounds, n: int, sweep):
        for p in sweep["p"]:
            rhs = _transform_side(which, p, b.truncation).coefficient(n)
            yield {"n": n, "p": p}, gen_beta_gf(n, p, order=b.truncation), rhs

    return check


def _ck_eq11(b: _Bounds, n: int, sweep):
    yield {"n": n}, sum(eulerian_classical(n, k) for k in range(n + 1)), factorial(n)


def _ck_eq12(b: _Bounds, n: int, sweep):
    at_zero = [stirling2_deg(n, k).evaluate(0) for k in range(n + 1)]
    for m in sweep["m"]:
        rhs = lincomb(
            (at_zero[k], 1, (-1) ** (n - k - m) * comb(n - k, m) * factorial(k))
            for k in range(n - m + 1)
        )
        yield {"n": n, "m": m}, eulerian_classical(n, m), rhs


def _ck_eq13(b: _Bounds, n: int, sweep):
    x = PolyXOverLambda.x()
    weights = [Fraction(eulerian_classical(n, k), factorial(n)) for k in range(n + 1)]
    rhs = lincomb((falling_factorial(x + k, n), 1, w) for k, w in enumerate(weights))
    yield {"n": n}, x**n, rhs


def _ck_eq23(b: _Bounds, n: int, sweep):
    lhs = falling_lambda(PolyLambda.lam() - 1, n)
    yield {"n": n}, lhs, gen_beta_stirling_sum(n, -1)


def _ck_eq26_27(b: _Bounds, n: int, sweep):
    # k runs two past the row, where the differences must vanish
    values = [falling_lambda(Fraction(j), n) for j in sweep["k"]]
    for k in sweep["k"]:
        lhs = stirling2_deg(n, k) * factorial(k) if k <= n else PolyLambda.zero()
        yield {"n": n, "k": k}, lhs, forward_difference(values, k)


def _ck_eq30(b: _Bounds, n: int, sweep):
    t = PolyXOverLambda.x()
    lhs = lincomb(((t + 1) ** (n - k), log_weight(k) * stirling2_deg(n, k), 1) for k in range(n + 1))
    rhs = lincomb((t**m, eulerian_degenerate(n, m), (-1) ** (n - m)) for m in range(n + 1))
    yield {"n": n}, lhs, rhs


def _ck_eq32_33(b: _Bounds, n: int, sweep):
    x = PolyXOverLambda.x()
    for r in sweep["r"]:
        entries = [r_stirling2_deg(n, k, r) for k in sweep["k"]]
        basis = _chain(x, n)
        rhs = lincomb((basis[k], entry, 1) for k, entry in zip(sweep["k"], entries))
        yield {"n": n, "r": r}, falling_lambda(x + r, n), rhs
        for k, entry in zip(sweep["k"], entries):
            oracle = _restricted_column(k, r, b.truncation).coefficient(n)
            yield {"n": n, "k": k, "r": r}, entry, oracle


def _remark_check(rule: str):
    """Check comparing remark_sides for every p and each value of the rule's own index."""

    def check(b: _Bounds, n: int, sweep):
        names = [name for name in sweep if name != "p"]
        for p in sweep["p"]:
            for values in product(*(sweep[name] for name in names)):
                extra = dict(zip(names, values))
                lhs, rhs = remark_sides(rule, n, p, **extra)
                yield {"n": n, "p": p, **extra}, lhs, rhs

    return check


def _ck_duality(b: _Bounds, n: int, sweep):
    for k in sweep["k"]:
        delta = PolyLambda.one() if n == k else PolyLambda.zero()
        down = lincomb((stirling2_deg(n, l), stirling1_deg(l, k), 1) for l in range(k, n + 1))
        up = lincomb((stirling1_deg(n, l), stirling2_deg(l, k), 1) for l in range(k, n + 1))
        yield {"n": n, "k": k}, down, delta
        yield {"n": n, "k": k}, up, delta


def _ck_classical_limits(b: _Bounds, n: int, sweep):
    for k in sweep["k"]:
        at = {"n": n, "k": k}
        yield at, stirling2_deg(n, k).evaluate(0), stirling2_classical(n, k)
        yield at, stirling1_deg(n, k).evaluate(0), stirling1_classical(n, k)
        yield at, eulerian_degenerate(n, k).evaluate(0), eulerian_classical(n, k)
    yield {"n": n}, carlitz_beta(n).evaluate(0), classical_bernoulli(n)


def _no_inner(b: _Bounds, n: int) -> dict:
    return {}


def _every_p(b: _Bounds, n: int) -> dict:
    return {"p": range(b.max_p + 1)}


def _every_k(b: _Bounds, n: int) -> dict:
    return {"k": range(n + 1)}


def _remark_p(b: _Bounds) -> range:
    return range(min(b.max_p, 2) + 1)


def _remark_m(b: _Bounds, n: int) -> dict:
    return {"p": _remark_p(b), "m": range(2, 4)}


class IdentityId(str, Enum):
    """Stable tokens naming the verifiable identities.

    Each member is the one declaration of its identity: the token (its
    value), a one-line description, the run fields that run_suite and
    suite_plan read (the case check, the first n, and the inner ranges swept
    at row n), and whether a failure is informational, which the command
    line counts toward its exit code only with --strict.
    """

    def __new__(cls, token: str, description: str, check, first_n: int, sweep, informational=False):
        member = str.__new__(cls, token)
        member._value_ = token
        member.description, member.informational = description, informational
        member._check, member._first_n, member._sweep = check, first_n, sweep
        return member

    def __str__(self) -> str:  # so f-strings show the token, not the member name
        return self.value

    THM1 = ("Thm1", "weighted second-kind row sum vs reciprocal-series coefficient",
            _ck_thm1, 0, _no_inner)
    THM2 = ("Thm2", "first-kind inversion of the degenerate Bernoulli sequence",
            _ck_thm2, 1, _no_inner)
    THM3_VS_GF = ("Thm3-vs-GF", "generalized-number triangle sum vs hypergeometric coefficient",
                  _ck_thm3, 0, lambda b, n: {"p": range(-1, b.max_p + 1)})
    THM4 = ("Thm4", "Eulerian route vs hypergeometric coefficient",
            _ck_thm4, 0, _every_p)
    THM5 = ("Thm5", "restricted-triangle field route (raw and simplified) vs hypergeometric coefficient",
            _ck_thm5, 1, lambda b, n: {"p": range(1, b.max_p + 1)})
    THM6 = ("Thm6", "termwise-integrated route vs hypergeometric coefficient",
            _ck_thm6, 0, _every_p)
    THM7_VS_THM9 = ("Thm7-vs-Thm9", "both polynomial routes vs polynomial series coefficient",
                    _ck_thm7_vs_thm9, 0, _every_p)
    PROP8 = ("Prop8", "closed-form x-derivative vs coefficientwise derivative",
             _ck_prop8, 1, _every_p)
    LEMMA38 = ("Lemma38", "x-shifted second-kind entries vs symbolic forward differences",
               _ck_lemma38, 0, _every_k)
    EQ8_PFAFF = ("Eq8-Pfaff", "hypergeometric series vs its argument-flip (b) transform",
                 _transform_check("pfaff"), 0, _every_p)
    EQ9_EULER = ("Eq9-Euler", "hypergeometric series vs its argument-flip (a and b) transform",
                 _transform_check("euler"), 0, _every_p)
    EQ11 = ("Eq11", "classical Eulerian row sums vs factorial",
            _ck_eq11, 1, _no_inner)
    EQ12 = ("Eq12", "classical Eulerian numbers vs signed second-kind sums",
            _ck_eq12, 0, lambda b, n: {"m": range(n + 1)})
    EQ13 = ("Eq13", "power basis expanded in Eulerian-weighted binomials",
            _ck_eq13, 0, _no_inner)
    EQ23 = ("Eq23", "closed falling-factorial form of the p = -1 numbers vs triangle sum",
            _ck_eq23, 0, _no_inner)
    EQ26_27 = ("Eq26-27", "second-kind entries vs forward differences at zero, with vanishing tail",
               _ck_eq26_27, 0, lambda b, n: {"k": range(n + 3)})
    EQ30 = ("Eq30", "binomial-shift identity tying second-kind and degenerate Eulerian rows",
            _ck_eq30, 0, _no_inner)
    EQ32_33 = ("Eq32-33", "restricted second-kind entries vs basis expansion and series oracle",
               _ck_eq32_33, 0, lambda b, n: {"k": range(n + 1), "r": range(1, max(1, b.max_p) + 1)})
    # Newton: f(x+y) = sum_j D^j f(x) (y)_{j,l} / (j! l^j) with D f = f(x+l) - f(x). The step rule
    # iterated gives D^j B_n = j! C(n,j) l^j B_{n-j}, addition's (y)_{j,l} coefficient, and addition's
    # j = 1 coefficient is the step rule, so rows 1..n hold exactly when addition holds at n for all y
    REMARK_ADD = ("Remark-add", "argument-addition rule for the polynomials",
                  _remark_check("step"), 0, lambda b, n: {"p": _remark_p(b)})
    REMARK_DIFF = ("Remark-diff", "unit-shift difference rule for the polynomials",
                   _remark_check("difference"), 0, lambda b, n: {"p": _remark_p(b)})
    # the two readings are mutually exclusive by construction, so their failures are informational
    REMARK_MULT_A = ("Remark-mult-A", "argument-scaling rule, step read as l/(m-1)",
                     _remark_check("ratio"), 0, _remark_m, True)
    REMARK_MULT_B = ("Remark-mult-B", "argument-scaling rule, step read as l/m - 1",
                     _remark_check("shift"), 0, _remark_m, True)
    STIRLING_DUALITY = ("StirlingDuality", "the two degenerate triangles invert each other",
                        _ck_duality, 0, _every_k)
    CLASSICAL_LIMITS = ("ClassicalLimits", "l = 0 specializations match classical recurrences",
                        _ck_classical_limits, 0, _every_k)


def _resolve_selection(selection):
    resolved = set()
    for item in IdentityId if selection is None else selection:
        try:
            resolved.add(IdentityId(item))  # a member looks itself up
        except ValueError:
            raise ValueError(f"unknown identity: {item}") from None
    return sorted(resolved, key=lambda i: i.value)


def _check_bounds(max_n: int, max_p: int, truncation: int) -> _Bounds:
    """The run's bounds, refusing any no run can honour: run_suite and suite_plan both ask here."""
    _index(max_n=max_n, max_p=max_p, truncation=truncation)
    for name, bound in (("max_n", max_n), ("max_p", max_p)):
        if bound < 0:
            raise ValueError(f"{name} must be nonnegative")
    if truncation < max_n + 1:
        raise ValueError("insufficient series order")
    return _Bounds(max_n, max_p, truncation)


def suite_plan(selection=None, max_n: int = 12, max_p: int = 4, truncation: int = 16):
    """The cases a run_suite call with these arguments would sweep: the inner
    ranges are those of the last row, n = max_n."""
    bounds = _check_bounds(max_n, max_p, truncation)
    plan = []
    for ident in _resolve_selection(selection):
        params = {"n": range(ident._first_n, bounds.max_n + 1), **ident._sweep(bounds, bounds.max_n)}
        plan.append(IdentityCase(ident, params))
    return plan


def _first_unequal(comparisons) -> FirstFailure | None:
    """The first comparison of a case whose sides differ, or None."""
    for params, lhs, rhs in comparisons:
        if lhs != rhs:
            index = None
            if isinstance(lhs, PolyXOverLambda) and isinstance(rhs, PolyXOverLambda):
                index = next(j for j in count() if lhs.coefficient(j) != rhs.coefficient(j))
            return FirstFailure(tuple(params.items()), _canon(lhs), _canon(rhs), index)
    return None


def run_suite(
    selection=None,
    max_n: int = 12,
    max_p: int = 4,
    truncation: int = 16,
) -> list[IdentityReport]:
    """Run the selected identities (all 24 when selection is None).

    One case per outer index n.  Reports are returned sorted by identity
    token and are deterministic apart from the elapsed field.
    """
    bounds = _check_bounds(max_n, max_p, truncation)
    idents = _resolve_selection(selection)
    reports = []
    for ident in idents:
        start = time.perf_counter()
        cases = range(ident._first_n, bounds.max_n + 1)
        failures = [_first_unequal(ident._check(bounds, n, ident._sweep(bounds, n))) for n in cases]
        failed = [f for f in failures if f is not None]
        elapsed = time.perf_counter() - start
        first_failure = failed[0] if failed else None
        reports.append(IdentityReport(ident, len(cases), len(cases) - len(failed), first_failure, elapsed))
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
