"""Truncated formal power series with exponential normalization.

A series of order N stores c_0..c_N where c_n = n! * [t^n] f(t), so that the
product is the binomial convolution c_n(fg) = sum_i binom(n,i) c_i(f) c_{n-i}(g)
and the coefficients of the degenerate exponential stay polynomial.
Coefficients live in one of the exact rings from exactcore, and a series' ring
is the widest among them: PolyXOverLambda, with every coefficient lifted into
it, if any coefficient is one, else PolyLambda; so mixing the two rings widens,
as lincomb does.  All operations truncate to the smaller order of their
operands, and mul, div and compose make one exactcore.lincomb call per
coefficient.  The named series and the binomial_pow and gauss_2f1_formal
weights are the memoized factorial chains of triangles.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .exactcore import PolyLambda, PolyXOverLambda, _index, lincomb
from .triangles import _chain, memoized

__all__ = [
    "TruncatedSeries",
    "degenerate_exp",
    "degenerate_log",
    "gauss_2f1_formal",
]


def _coefficient(v):
    """v itself if a PolyLambda or PolyXOverLambda, else the PolyLambda constant:
    TypeError for a float, a bool or a Q(l) value."""
    return v if type(v) in (PolyLambda, PolyXOverLambda) else PolyLambda.constant(v)


def _order(order) -> None:
    """Refuse an order that is not a nonnegative int."""
    _index(order=order)
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")


def _is_unit(c):
    """A nonzero rational constant; returns its value or None."""
    if type(c) is PolyXOverLambda and c.degree == 0:
        c = c.coeffs[0]
    if isinstance(c, PolyLambda) and c.degree == 0:
        return Fraction(c.coeffs[0])
    return None


class TruncatedSeries:
    """Immutable truncated series; coeffs[n] is n! times the t^n coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [_coefficient(c) for c in coeffs]
        if not coeffs:
            raise ValueError("a truncated series needs at least the order-0 coefficient")
        if len(set(map(type, coeffs))) > 1:  # both rings: lift every coefficient into Q[l][x]
            coeffs = map(PolyXOverLambda.constant, coeffs)
        self.coeffs = tuple(coeffs)

    ring = property(lambda self: type(self.coeffs[0]), doc="The coefficients' ring, PolyLambda or PolyXOverLambda.")

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        _order(order)
        return cls([1] + [0] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        """The EGF-normalized coefficient c_n = n! [t^n]."""
        _index(n=n)
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} out of range 0..{self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        _order(order)
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __neg__(self):
        return TruncatedSeries(-c for c in self.coeffs)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(self.coeffs[i] + other.coeffs[i] for i in range(n + 1))

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "TruncatedSeries":
        """Multiply every coefficient by a ring element or rational."""
        c = _coefficient(c)
        return TruncatedSeries(ci * c for ci in self.coeffs)

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Binomial-convolution product, truncated at the smaller order."""
        if not isinstance(other, TruncatedSeries):
            raise ValueError("series product needs two series; use scale for ring elements")
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries([
            lincomb((a[i], b[m - i], comb(m, i)) for i in range(m + 1))
            for m in range(min(self.order, other.order) + 1)
        ])

    __mul__ = mul

    def div(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Quotient series; the divisor needs an invertible (rational) constant term."""
        unit = _is_unit(other.coeffs[0])
        if unit is None:
            raise ValueError("series not invertible")
        inv = Fraction(1) / unit
        a, b = self.coeffs, other.coeffs
        out: list = []
        for m in range(min(self.order, other.order) + 1):
            # out_m = (a_m - sum_{i<m} binom(m, i) out_i b_{m-i}) / b_0
            terms = [(a[m], 1, inv)] + [(out[i], b[m - i], -comb(m, i) * inv) for i in range(m)]
            out.append(lincomb(terms))
        return TruncatedSeries(out)

    __truediv__ = div

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)), requiring inner(0) = 0.

        Evaluated as the weighted sum of the truncated powers inner^k/k! in
        the exponential normalization, which are memoized per (inner, order).
        """
        if inner.coeffs[0]:
            raise ValueError("composition requires zero constant term")
        n = min(self.order, inner.order)
        f = self.coeffs
        powers = _scaled_powers(inner, n)
        # inner^k/k! starts at t^k, so coefficient m sums over k <= m only
        return TruncatedSeries([
            lincomb((powers[k].coeffs[m], f[k], 1) for k in range(m + 1))
            for m in range(n + 1)
        ])

    def binomial_pow(self, alpha) -> "TruncatedSeries":
        """(1 + self)^alpha = sum_k binom(alpha, k) self^k, requiring self(0) = 0.

        alpha may be an int, a Fraction or a PolyLambda (e.g. l - 1 or -l - p).
        The weights binom(alpha, k) k! = alpha (alpha - 1) ... (alpha - k + 1)
        are the memoized falling chain of alpha, composed with self.
        """
        return TruncatedSeries(_chain(alpha, self.order)).compose(self)

    def divide_by_t(self) -> "TruncatedSeries":
        """f/t for a series with zero constant term; drops the order by one."""
        if self.coeffs[0]:
            raise ValueError("cannot divide by t: nonzero constant term")
        if self.order < 1:
            raise ValueError("cannot divide by t: order 0")
        return TruncatedSeries(self.coeffs[m + 1] * Fraction(1, m + 1) for m in range(self.order))

    def __repr__(self) -> str:
        name = self.ring.__name__
        return f"TruncatedSeries({name}, order={self.order})"


@memoized
def _scaled_powers(inner: TruncatedSeries, order: int) -> tuple:
    """inner^k/k! for k = 0..order, with inner truncated to order."""
    inner = inner.truncate(order)
    powers = [TruncatedSeries.one(order)]
    for k in range(1, order + 1):
        powers.append(powers[-1].mul(inner).scale(Fraction(1, k)))
    return tuple(powers)


def degenerate_exp(x, order: int) -> TruncatedSeries:
    """The degenerate exponential e_l^x(t) = (1 + l t)^(x/l): c_n = (x)_{n,l}.

    A rational or PolyLambda x gives a PolyLambda-coefficient series, the
    symbol PolyXOverLambda.x() the symbolic-in-x series.
    """
    _order(order)
    coeffs = _chain(x, order, PolyLambda.lam())
    return TruncatedSeries(coeffs)


def degenerate_log(order: int) -> TruncatedSeries:
    """The compositional inverse of e_l(t) - 1: c_n = (l-1)(l-2)...(l-n+1), c_0 = 0."""
    _index(order=order)
    if order < 1:
        raise ValueError("order must be at least 1 for the degenerate logarithm")
    return TruncatedSeries((0,) + _chain(PolyLambda.lam() - 1, order - 1))


def gauss_2f1_formal(a, b, c, u: TruncatedSeries) -> TruncatedSeries:
    """Formal Gauss hypergeometric sum_k <a>_k <b>_k / <c>_k * u^k / k!.

    a and b may be ints, Fractions or PolyLambda; c must be an int or a
    Fraction with no vanishing rising factorial (for positive integer c this
    always holds).  The argument u must have zero constant term so the sum
    truncates exactly.  The weights <a>_k <b>_k / <c>_k, rising factorials
    read as falling chains at step -1, form a series composed with u.
    """
    if not isinstance(u, TruncatedSeries):
        raise TypeError(f"argument u must be a TruncatedSeries, got {type(u).__name__}")
    if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
        raise TypeError(f"lower parameter must be int or Fraction, got {type(c).__name__}")
    ra, rb, rc = (_chain(v, u.order, -1) for v in (a, b, c))
    if not rc[-1]:
        raise ValueError("invalid lower parameter")
    return TruncatedSeries(ra[k] * rb[k] * (1 / rc[k]) for k in range(u.order + 1)).compose(u)
