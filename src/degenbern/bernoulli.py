"""Degenerate Bernoulli numbers and polynomials, generalized by an integer
parameter p >= -1 through a formal Gauss hypergeometric generating function.

Every quantity here is reachable by several genuinely independent routes:

  gen_beta                triangle-weighted sum, by Horner in the factors
                          l - k (normative, for every p >= -1)
  gen_beta_gf             coefficient of the 2F1 generating series
  gen_beta_eulerian       signed sum over the degenerate Eulerian row
  gen_beta_integral       termwise Beta-function integration of the integral
                          representation, using forward differences of
                          falling factorials instead of the Stirling triangle
  gen_beta_rstirling      double sum over the r-Stirling rows at r = p,
                          carried out in Q(l) and normalized afterwards

and likewise for the polynomials in x.  Every sum against a falling chain
is read two ways, so a corrupted chain or a wrong kernel is caught between
them.  The weights (l-1)...(l-k): gen_beta and eulerian_degenerate (so
gen_beta_eulerian) run Horner in the factors l - k (exactcore.falling_sum),
while gen_beta_integral, gen_beta_poly_stirling and the suite's Thm2 and
Eq30 multiply by the expanded log_weight(k).  The chains in x: gen_beta_poly
and the remark rules run the same Horner kernel, while gen_beta_poly_gf,
gen_beta_poly_stirling and stirling2_deg_poly expand theirs, and Thm7-vs-Thm9
compares the two.  Route agreement is exercised by the verification suite;
the functions themselves do not cross-check, and remark_sides only builds
both sides of the argument-shift rules, which the Remark-* identities compare.

The rstirling route deserves a note.  Its published double-sum form breaks
down for l != 0 because a step in its derivation silently rewrites the
exponent p + l-weight as p + summation index; the Euler transformation it
starts from forces the final factor to be (l)_{n-m,l}, which kills every term
except m = n and m = n-1.  That corrected form is implemented here, it agrees
with all other routes, and the associated l -> 0 limit becomes a single sum
over classical restricted Stirling numbers (gen_beta_classical_limit).

One memo policy, triangles.memoized, covers the module and the triangle
entries its routes share (stirling2_deg_poly, eulerian_degenerate,
log_weight): classical_bernoulli, gen_beta (and so carlitz_beta),
gen_beta_poly, the Pochhammer ratios of the rstirling route and the
generating series behind the three *_gf routes (keyed by parameter and
series order).  Inside triangles.substituted each of these memos is the
substitution's own, so one corrupted entry reaches every route built on it.
Every index is a plain int: a bool or a float is refused with TypeError
before any memo is read.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .exactcore import PolyLambda, PolyXOverLambda, RationalFunctionLambda, _index, falling_sum, lincomb
from .series import TruncatedSeries, degenerate_exp, gauss_2f1_formal
from .triangles import (
    _chain,
    eulerian_degenerate,
    falling_factorial,
    forward_difference,
    log_weight,
    memoized,
    r_stirling2_classical,
    r_stirling2_deg,
    stirling2_deg,
    stirling2_deg_poly,
)

__all__ = [
    "carlitz_beta",
    "carlitz_beta_gf",
    "classical_bernoulli",
    "gen_beta",
    "gen_beta_stirling_sum",
    "gen_beta_gf",
    "gen_beta_eulerian",
    "gen_beta_integral",
    "gen_beta_rstirling",
    "gen_beta_rstirling_simplified",
    "gen_beta_classical_limit",
    "gen_beta_poly",
    "gen_beta_poly_stirling",
    "gen_beta_poly_gf",
    "gen_beta_poly_derivative",
    "remark_sides",
]

_RANGE_ERROR = "parameter out of range"


def _check_range(n: int, p: int, n_min: int = 0, p_min: int = -1):
    """Refuse a non-int index, then an n below n_min or a p below p_min."""
    _index(n=n, p=p)
    if n < n_min or p < p_min:
        raise ValueError(_RANGE_ERROR)


def carlitz_beta(n: int) -> PolyLambda:
    """Degenerate Bernoulli number as the weighted second-kind row sum.

    sum_k log_weight(k)/(k+1) * stirling2_deg(n,k), which is gen_beta(n, 0)
    because binom(k+1, 1) = k+1; the constant term at l = 0 is the classical
    Bernoulli number B_n.
    """
    return gen_beta(n, 0)


def carlitz_beta_gf(n: int, order: int | None = None) -> PolyLambda:
    """Generating-function route: n-th coefficient of t/(e_l(t) - 1).

    The common factor t is cancelled first, so the division is by a unit
    series with constant term 1.
    """
    _check_range(n, 0)
    return _carlitz_series(_series_order(n, order)).coefficient(n)


def _series_order(n: int, order: int | None) -> int:
    order = n if order is None else order
    _index(order=order)
    if order < n:
        raise ValueError("insufficient series order")
    return order


@memoized
def _carlitz_series(order: int) -> TruncatedSeries:
    em1 = degenerate_exp(1, order + 1) - TruncatedSeries.one(order + 1)
    return TruncatedSeries.one(order).div(em1.divide_by_t())


@memoized
def classical_bernoulli(n: int) -> Fraction:
    """B_n from the recurrence sum_{k=0}^{n} binom(n+1,k) B_k = 0, B_0 = 1."""
    if n < 0:
        raise ValueError(_RANGE_ERROR)
    if n == 0:
        return Fraction(1)
    total = sum(comb(n + 1, k) * classical_bernoulli(k) for k in range(n))
    return Fraction(-total, n + 1)


def gen_beta_stirling_sum(n: int, p: int) -> PolyLambda:
    """The triangle-route sum, defined for every p >= -1.

    sum_k log_weight(k)/binom(p+k+1, p+1) * stirling2_deg(n,k), summed by
    Horner in the factors l - k (exactcore.falling_sum).  At p = -1 the
    binomial is 1 and the sum collapses to the closed falling-factorial
    form (l-1)_{n,l}, which the suite's Eq23 compares with this sum.
    """
    _check_range(n, p)
    terms = ((stirling2_deg(n, k), Fraction(1, comb(p + k + 1, p + 1))) for k in range(n + 1))
    return falling_sum(terms, (0, -1, 1), (1, 0))  # the chain of l - 1 with step 1


@memoized
def gen_beta(n: int, p: int) -> PolyLambda:
    """Generalized degenerate Bernoulli number: the memoized stirling-sum
    route, for every p >= -1.  p = 0 is carlitz_beta.
    """
    return gen_beta_stirling_sum(n, p)


def gen_beta_gf(n: int, p: int, order: int | None = None) -> PolyLambda:
    """Series-oracle route: n-th coefficient of the hypergeometric sum
    with parameters (1-l, 1; p+2) at argument 1 - e_l(t)."""
    _check_range(n, p)
    return _gen_beta_series(p, _series_order(n, order)).coefficient(n)


@memoized
def _gen_beta_series(p: int, order: int) -> TruncatedSeries:
    u = TruncatedSeries.one(order) - degenerate_exp(1, order)
    return gauss_2f1_formal(PolyLambda.one() - PolyLambda.lam(), 1, p + 2, u)


def gen_beta_eulerian(n: int, p: int) -> PolyLambda:
    """Eulerian route: (p+1)/(n+p+1) sum_k eulerian_degenerate(n,k) (-1)^(n-k) / binom(p+n, p+k)."""
    _check_range(n, p, 0, 0)
    return lincomb(
        (eulerian_degenerate(n, k), 1, Fraction((-1) ** (n - k) * (p + 1), (n + p + 1) * comb(p + n, p + k)))
        for k in range(n + 1)
    )


def gen_beta_integral(n: int, p: int) -> PolyLambda:
    """Integral-representation route, integrated termwise with exact Beta values.

    Expanding (1 - x(1 - e_l(t)))^(l-1) binomially and using
    int_0^1 (1-x)^p x^k dx = p! k! / (p+k+1)! gives

        (p+1) sum_k log_weight(k) p!/(p+k+1)! sum_j binom(k,j)(-1)^(k-j) (j)_{n,l}.

    The inner alternating sum is the k-th forward difference of (j)_{n,l} at
    j = 0; it replaces the Stirling triangle, and the weights are the
    expanded log_weight(k) where gen_beta nests them by Horner, so this
    route shares no code with gen_beta beyond the exactcore arithmetic and
    the factorial chains.
    """
    _check_range(n, p, 0, 0)
    lam = PolyLambda.lam()
    fall = [falling_factorial(j, n, step=lam) for j in range(n + 1)]
    return lincomb(
        (log_weight(k), forward_difference(fall, k), Fraction((p + 1) * factorial(p), factorial(p + k + 1)))
        for k in range(n + 1)
    )


@memoized
def _shifted_rising(q: int) -> RationalFunctionLambda:
    # <1>_{q,1/l} = (l+1)(l+2)...(l+q-1) / l^(q-1), kept unsimplified in Q(l)
    lam = PolyLambda.lam()
    return RationalFunctionLambda(falling_factorial(lam + 1, q - 1, step=-1), lam ** (q - 1))


def gen_beta_rstirling(n: int, p: int) -> RationalFunctionLambda:
    """Restricted-Stirling route, evaluated in Q(l) without pre-cancellation.

    (p+1)/<1>_{p+1,1/l} * sum_m sum_k binom(n,m) (-l)^k/(p+k+1)
    <1>_{p+k+1,1/l} S_(m,k|p) (l)_{n-m,l}, where S_(m,k|p) is the degenerate
    p-Stirling number r_stirling2_deg(m, k, p) (the plain second kind at
    p = 0).  The (l)_{n-m,l} factor vanishes for n-m >= 2, so only the
    top two m survive; the result always normalizes to the polynomial
    gen_beta(n,p).  Defined for n >= 1; p = 0 is an extension of the
    published p >= 1 domain that the test suite confirms.
    """
    _check_range(n, p, 1, 0)
    lam = PolyLambda.lam()
    pref = RationalFunctionLambda.one() * (p + 1) / _shifted_rising(p + 1)
    acc = RationalFunctionLambda.zero()
    for m in range(n + 1):
        w = falling_factorial(lam, n - m, step=lam)
        if not w:
            continue
        b = comb(n, m)
        for k in range(m + 1):
            table = r_stirling2_deg(m, k, p)
            term = _shifted_rising(p + k + 1) * ((-lam) ** k) * Fraction(b, p + k + 1)
            acc = acc + term * table * w
    return pref * acc


def gen_beta_rstirling_simplified(n: int, p: int) -> PolyLambda:
    """Same route with the l-power cancellations done by hand.

    The Pochhammer ratio against (-l)^k collapses to
    (-1)^k (l+p+1)...(l+p+k), leaving a polynomial-only sum over the two
    surviving m.
    """
    _check_range(n, p, 1, 0)
    lam = PolyLambda.lam()
    rising, terms = _chain(lam + p + 1, n, -1), []
    for m in (n - 1, n):
        w = falling_factorial(lam, n - m, step=lam)
        for k in range(m + 1):
            table = r_stirling2_deg(m, k, p) * w
            c = Fraction((-1) ** k * comb(n, m) * (p + 1), p + k + 1)
            terms.append((rising[k], table, c))
    return lincomb(terms)


def gen_beta_classical_limit(n: int, p: int) -> Fraction:
    """The l -> 0 value of gen_beta(n,p) by classical restricted Stirling numbers.

    (p+1)/p! sum_k (-1)^k (p+k)!/(p+k+1) * (restricted second-kind entry),
    the single sum the rstirling route degenerates to at l = 0.  Uses the
    independent integer recurrence, not the degenerate triangle.
    """
    _check_range(n, p, 1, 0)
    total = Fraction(0)
    for k in range(n + 1):
        s = r_stirling2_classical(n, k, p)
        if not s:
            continue
        c = Fraction((p + 1) * factorial(p + k), factorial(p) * (p + k + 1)) * s
        total += -c if k % 2 else c
    return total


@memoized
def gen_beta_poly(n: int, p: int) -> PolyXOverLambda:
    """Generalized degenerate Bernoulli polynomial, symbolic in x.

    sum_j binom(n,j) gen_beta(n-j,p) (x)_{j,l}, summed by Horner in the
    factors x - j l (exactcore.falling_sum); monic of x-degree n, value at
    x = 0 is gen_beta(n,p).
    """
    _check_range(n, p)
    return falling_sum(((gen_beta(n - j, p), comb(n, j)) for j in range(n + 1)), (1, 0, 0), (0, 1))


def gen_beta_poly_stirling(n: int, p: int) -> PolyXOverLambda:
    """Alternative polynomial route through the x-shifted second-kind entries.

    sum_k log_weight(k)/binom(p+k+1, p+1) * stirling2_deg_poly(n,k).
    """
    _check_range(n, p)
    return lincomb((stirling2_deg_poly(n, k), log_weight(k), Fraction(1, comb(p + k + 1, p + 1))) for k in range(n + 1))


def gen_beta_poly_gf(n: int, p: int, order: int | None = None) -> PolyXOverLambda:
    """Series-oracle route for the polynomials: coefficient of the 2F1 series
    times the symbolic degenerate exponential."""
    _check_range(n, p)
    return _gen_beta_poly_series(p, _series_order(n, order)).coefficient(n)


@memoized
def _gen_beta_poly_series(p: int, order: int) -> TruncatedSeries:
    ex = degenerate_exp(PolyXOverLambda.x(), order)
    return _gen_beta_series(p, order).mul(ex)


def gen_beta_poly_derivative(n: int, p: int) -> PolyXOverLambda:
    """Closed-form x-derivative:
    sum_{j=1..n} binom(n,j) (j-1)! (-l)^(j-1) gen_beta_poly(n-j,p).

    Must coincide with the coefficientwise derivative of gen_beta_poly(n,p);
    at l = 0 only the j = 1 term survives, the classical rule.
    """
    _check_range(n, p, 1)
    lam = PolyLambda.lam()
    return lincomb((gen_beta_poly(n - j, p), (-lam) ** (j - 1), factorial(j - 1) * comb(n, j)) for j in range(1, n + 1))


_REMARK_RULES = ("addition", "difference", "ratio", "shift", "step")


def remark_sides(rule: str, n: int, p: int, y: int | None = None, m: int | None = None):
    """Both sides of one argument-shift rule for B_k = gen_beta_poly(k, p).

    Each rule reads lhs = rhs, symbolic in x, with rhs = sum_k binom(n,k)
    B_k(x) w_{n-k} for all but step:

        addition     B_n(x + y)            w_j = (y)_{j,l}
        difference   B_n(x + 1) - B_n(x)   w_j = (1)_{j,l} for j >= 1, w_0 = 0
        ratio        B_n(m x)              w_j = (m-1)^j (x)_{j,l/(m-1)}
        shift        B_n(m x)              w_j = (m-1)^j (x)_{j,l/m-1}
        step         B_n(x + l) - B_n(x)   rhs = n l B_{n-1}(x), and 0 at n = 0

    ratio and shift are the two readings of the scaling rule's step; step is
    addition's l-step form, the one the Remark-add identity compares.  Only
    addition reads y (default 0) and only ratio and shift read m (default
    2, at least 2); any other rule given either raises TypeError.
    Returns (lhs, rhs) as PolyXOverLambda.
    """
    if rule not in _REMARK_RULES:
        raise ValueError(f"unknown remark rule: {rule!r}")
    for name, v, readers in (("y", y, ("addition",)), ("m", m, ("ratio", "shift"))):
        if v is not None and rule not in readers:
            raise TypeError(f"remark rule {rule!r} takes no {name}")
    y, m = 0 if y is None else y, 2 if m is None else m
    _index(y=y, m=m)
    _check_range(n, p, 0, 0)
    if m < 2:
        raise ValueError(_RANGE_ERROR)
    x = PolyXOverLambda.x()
    lam = PolyLambda.lam()
    if rule == "step":
        poly = gen_beta_poly(n, p)
        rhs = gen_beta_poly(n - 1, p) * (lam * n) if n else PolyXOverLambda.zero()
        return poly.evaluate(x + lam) - poly, rhs
    polys = [gen_beta_poly(k, p) for k in range(n + 1)]
    if rule in ("ratio", "shift"):
        # (m-1)^j (x)_{j,l/(m-1)} = ((m-1)x)_{j,l} and (m-1)^j (x)_{j,l/m-1} = (m(m-1)x)_{j,(m-1)(l-m)} / m^j
        base, step, scale = ((m - 1, 0, 0), (0, 1), 1) if rule == "ratio" else ((m * (m - 1), 0, 0), (-m * (m - 1), m - 1), m)
        lhs = polys[n].evaluate(x * m)
    else:
        y = 1 if rule == "difference" else y
        lhs, base, step, scale = polys[n].evaluate(x + y), (0, y, 0), (0, 1), 1
    terms = [(polys[n - j], comb(n, j) if scale == 1 else Fraction(comb(n, j), scale**j)) for j in range(n + 1)]
    if rule == "difference":
        lhs = lhs - polys[n]
        terms[0] = (0, 0)  # w_0 = 0: B_n(x) leaves both sides
    return lhs, falling_sum(terms, base, step)
