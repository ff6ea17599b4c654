"""Exact coefficient arithmetic underneath the degenerate families.

Three value types are built on stdlib ints and rationals:

    PolyLambda              polynomial in the deformation parameter l over Q
    RationalFunctionLambda  reduced quotient of PolyLambda, monic denominator
    PolyXOverLambda         polynomial in x with PolyLambda coefficients

The two polynomial rings share one dense-polynomial definition (the
_dense_ring class decorator), printing included: one pretty joins the signed
terms of each ring's hook, _signed_rational or _signed_coefficients.  An
element stores a dense, ascending term tuple without trailing zeros over one
denominator.  A PolyLambda stores int numerators over one positive int
denominator, coprime to their content, so its arithmetic runs on plain ints
and pays one gcd per result, none when the denominator is 1; zero is
((), 1).  A PolyXOverLambda stores its PolyLambda coefficients over 1.  The
canonical form makes structural equality exact mathematical equality.  The
.coeffs view is built on each read: a PolyLambda coefficient that is an
integer is a plain int, any other a Fraction; `coefficient(i)` and `lead`
read one of them alone.  The value at a rational l, `PolyLambda.evaluate`,
is a Fraction even at an int point.
The RationalFunctionLambda constructor normalizes fully; its arithmetic
reduces by Henrici's smaller gcds, and a gcd with, or a division by, a
monomial c l^k is a shift of the numerators.

Each ring has one lift, _lift (_lifter): an element of the ring is itself;
an int or a Fraction, and into Q[l][x] and Q(l) a PolyLambda, becomes the
ring's trusted constant; a bool, never a coefficient, raises TypeError; any
other value lifts to NotImplemented.  Every binary operator lifts its other
operand so (_guarded), constant(c) is the lift or TypeError, and equality
lifts an operand of another type, a bool being plain False.  A value equal
to a simpler one (a constant PolyLambda and its rational, a constant
PolyXOverLambda and its PolyLambda, a polynomial RationalFunctionLambda and
its numerator) hashes like it.

lincomb(terms) is the one kernel for a sum of products, sum a_i b_i w_i with
a_i, b_i rational, PolyLambda or PolyXOverLambda and w_i an int or a
Fraction.  It multiplies schoolbook on the int numerators, accumulates each
x-coefficient over one common denominator and reduces it once, instead of
reducing every product and every partial sum.  Its result lives in the
widest ring among its operands: rationals alone give a Fraction.

falling_sum(terms, base, step) is the one kernel for a sum against a falling
chain, sum_k w_k b_k (base)_{k,step} with base (a, c0, c1) = a x + c0 + c1 l
and step (s0, s1) = s0 + s1 l in ints: the triangle sums, gen_beta_poly and
the remark rules.  Horner in the factors base - k step on one int numerator
column per power of x over one denominator takes O(n^2) coefficient products
per column, the expanded chain O(n^3).  Its one-pass step, a (c0 + c1 l) + s b
on int numerator lists (_step), builds every degenerate triangle row too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from itertools import zip_longest
from math import comb, gcd, lcm
from operator import attrgetter
from typing import Union

__all__ = [
    "PolyLambda",
    "PolyXOverLambda",
    "RationalFunctionLambda",
    "falling_sum",
    "lincomb",
    "poly_divmod",
    "poly_gcd",
]

Scalar = Union[int, Fraction]


def _norm_coeff(c):
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int) and not isinstance(c, bool):
        return int(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _check_rational(at):
    """at itself when it is an int or a Fraction: no float or bool evaluation point."""
    if not isinstance(at, (int, Fraction)) or isinstance(at, bool):
        raise TypeError(f"evaluation point must be int or Fraction, got {type(at).__name__}")
    return at


def _index(**named):
    """Refuse an index or a chain coefficient that is not a plain int: a bool, a float, a Fraction."""
    for name, v in named.items():
        if type(v) is not int:
            raise TypeError(f"{name} must be int, got {type(v).__name__}")


def _lifter(own, inner, embed):
    """The lift into ring own: v itself, else the constant embed(inner(v)), else NotImplemented."""

    def lift(v):
        if isinstance(v, own):
            return v
        c = inner(v)
        return c if c is NotImplemented else embed(c)

    return lift


def _guarded(op):
    """The method op(self, other) on other lifted by self's _lift; NotImplemented where it does not lift."""

    @wraps(op)
    def method(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else op(self, other)

    return method


def _equality(same):
    """__eq__ from same(self, other) in one ring; another type is lifted, and a bool, refused by every lift, is unequal."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            try:
                other = self._lift(other)
            except TypeError:
                return NotImplemented
        return NotImplemented if other is NotImplemented else same(self, other)

    return __eq__


def _dense_ring(inner, embed, var, render, signed, *, build, reduce):
    """Class decorator: the dense-polynomial methods of one coefficient ring.

    An instance stores _terms over _den, each term falsy exactly where its
    coefficient is zero.  The ring's lift is _lifter(cls, inner, embed):
    inner lifts into the coefficient ring, embed(c) is the constant c.  var
    names the variable and render(p) lists the rendered coefficients of p
    (one, for zero); signed(p) gives (power, negative, magnitude) for each
    nonzero term of p, which pretty joins.  build(p, coeffs) sets p from
    public coefficients and reduce(terms, den) is the canonical element of a
    computed term list.  As with functools.total_ordering, the methods are
    built anew for each decorated class, so each class holds its own function
    objects in its own namespace: rebinding PolyLambda.__mul__ (perfbench's
    tracer does) leaves PolyXOverLambda.__mul__ alone.
    """

    def decorate(cls):
        name = cls.__name__
        czero = inner(0)
        lift = _lifter(cls, inner, embed)

        def __init__(self, coeffs=()):
            build(self, coeffs)

        def zero(cls):
            return zero_poly

        def one(cls):
            return one_poly

        def constant(cls, c):
            p = lift(c)
            if p is NotImplemented:
                raise TypeError(f"cannot lift {type(c).__name__} into {name}")
            return p

        def degree(self) -> int:
            """Degree in the variable; -1 for the zero polynomial."""
            return len(self._terms) - 1

        def lead(self):
            if not self._terms:
                raise ValueError("zero polynomial has no leading coefficient")
            return coefficient(self, len(self._terms) - 1)

        def coefficient(self, i: int):
            """The i-th element of .coeffs, built alone; zero past the degree."""
            if type(i) is not int:
                _index(i=i)
            if not 0 <= i < len(self._terms):
                return czero
            t, d = self._terms[i], self._den
            return t if d == 1 else Fraction(t, d) if t % d else t // d

        def __bool__(self) -> bool:
            return bool(self._terms)

        @_equality
        def __eq__(self, other) -> bool:
            return self._terms == other._terms and self._den == other._den

        def __hash__(self):
            # a constant equals its coefficient, so it hashes like it
            if len(self._terms) <= 1:
                return hash(self.coefficient(0))
            return hash((name, self._terms, self._den))

        def __neg__(self):
            return reduce([-c for c in self._terms], self._den)

        @_guarded
        def __add__(self, other):
            x, dx, y, dy = self._terms, self._den, other._terms, other._den
            if not y:
                return self
            if not x:
                return other
            if dx != dy:
                m = lcm(dx, dy)
                x, y, dx = [c * (m // dx) for c in x], [c * (m // dy) for c in y], m
            if len(x) < len(y):
                x, y = y, x
            out = list(x)
            for i, c in enumerate(y):
                out[i] += c
            return reduce(out, dx)

        @_guarded
        def __sub__(self, other):
            return self + (-other)

        @_guarded
        def __rsub__(self, other):
            return other + (-self)

        @_guarded
        def __mul__(self, other):
            x, y = self._terms, other._terms
            if not x or not y:
                return zero_poly
            # a product by one is the other operand, e.g. the x coefficient of x - c l
            if y == unit and other._den == 1:
                return self
            if x == unit and self._den == 1:
                return other
            if len(x) < len(y):
                x, y = y, x
            out = [czero] * (len(x) + len(y) - 1)
            for i, c in enumerate(y):
                if c:
                    for j, d in enumerate(x, i):
                        if d:
                            out[j] += c * d
            return reduce(out, self._den * other._den)

        def __pow__(self, k):
            """self ** k by square-and-multiply."""
            if type(k) is not int:
                _index(k=k)
            if k < 0:
                raise ValueError("negative power of a polynomial")
            out, base = one_poly, self
            while k:
                if k & 1:
                    out = out * base
                k >>= 1
                if k:
                    base = base * base
            return out

        def serialize(self) -> str:
            """Canonical machine form: every coefficient rendered, ascending in var."""
            parts = render(self)
            for i in range(1, len(parts)):
                parts[i] += f"*{var}" if i == 1 else f"*{var}^{i}"
            return " + ".join(parts)

        def pretty(self) -> str:
            """Human form: signs between the terms; zero terms, unit coefficients and /1 left out."""
            parts = []
            for i, negative, mag in signed(self):
                if i:
                    v = var if i == 1 else f"{var}^{i}"
                    mag = v if mag == "1" else f"{mag}*{v}"
                parts.append(("- " if negative else "+ ") + mag if parts else "-" + mag if negative else mag)
            return " ".join(parts) or "0"

        def __repr__(self) -> str:
            return f"{name}({self.serialize()!r})"

        methods = (
            __init__, __bool__, __eq__, __hash__, __neg__, __add__, __sub__, __rsub__,
            __mul__, __pow__, coefficient, serialize, pretty, __repr__,
        )
        for fn in methods:
            fn.__qualname__ = f"{name}.{fn.__name__}"
            setattr(cls, fn.__name__, fn)
        cls.__radd__, cls.__rmul__ = __add__, __mul__
        cls._lift = staticmethod(lift)
        for fn in (zero, one, constant):
            setattr(cls, fn.__name__, classmethod(fn))
        cls.degree, cls.lead = property(degree), property(lead)
        zero_poly, one_poly = cls(), cls((1,))
        unit = one_poly._terms
        return cls

    return decorate


def _pl_reduce(terms: list, den: int) -> "PolyLambda":
    """Trusted constructor for int terms over den > 0: trailing zeros dropped, one gcd.

    Tuples are built from lists: tuple(generator) overallocates, and on the
    verify workload its leftovers in the tuple free lists raised peak RSS by
    0.5 MB."""
    while terms and not terms[-1]:
        terms.pop()
    if den != 1:
        g = gcd(den, *terms)  # den itself when terms is empty
        if g != 1:
            terms = [t // g for t in terms]
            den //= g
    p = object.__new__(PolyLambda)
    p._terms, p._den = tuple(terms), den
    return p


def _pl_build(p, coeffs):
    cs = [c if type(c) is int else _norm_coeff(c) for c in coeffs]
    # over the lcm of the reduced denominators the numerators stay coprime to it
    den = lcm(*[c.denominator for c in cs if type(c) is not int])
    if den != 1:
        cs = [c.numerator * (den // c.denominator) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    p._terms, p._den = tuple(cs), den


def _render_rational(p) -> list[str]:
    """'num/den' for each coefficient of p, from its numerators and denominator."""
    d = p._den
    if d == 1:
        return [f"{c}/1" for c in p._terms or (0,)]
    return [f"{c // g}/{d // g}" for c in p._terms or (0,) for g in (gcd(c, d),)]


def _signed_rational(p):
    """(power, negative, |num|/den reduced, without /1) for each nonzero coefficient of p."""
    d = p._den
    return [(i, c < 0, f"{abs(c) // g}" if g == d else f"{abs(c) // g}/{d // g}")
            for i, c in enumerate(p._terms) if c for g in (gcd(c, d),)]


@_dense_ring(
    lambda v: _norm_coeff(v) if isinstance(v, (int, Fraction)) else NotImplemented,
    lambda c: _pl_reduce([c.numerator], c.denominator), "l", _render_rational, _signed_rational,
    build=_pl_build, reduce=_pl_reduce,
)
class PolyLambda:
    """Dense polynomial in l with exact rational coefficients, ascending order."""

    __slots__ = ("_terms", "_den")

    @property
    def coeffs(self) -> tuple:
        """The coefficients, ascending: an int where one is an integer, else a
        Fraction.  Built from the numerators on each read, never stored."""
        d = self._den
        if d == 1:
            return self._terms
        return tuple([Fraction(c, d) if c % d else c // d for c in self._terms])

    @classmethod
    def lam(cls) -> "PolyLambda":
        """The variable l itself."""
        return _PL_LAM

    def monic(self) -> "PolyLambda":
        return self * Fraction(self._den, self._terms[-1]) if self._terms else self

    def evaluate(self, at: Scalar) -> Fraction:
        """The value at l = at, by Horner on the numerators; at must be an int or a Fraction."""
        _check_rational(at)
        acc = 0
        for c in reversed(self._terms):
            acc = acc * at + c
        return Fraction(acc, self._den)


_PL_ZERO, _PL_ONE = PolyLambda.zero(), PolyLambda.one()
_PL_LAM = PolyLambda((0, 1))


def poly_divmod(a: PolyLambda, b: PolyLambda) -> tuple[PolyLambda, PolyLambda]:
    """Quotient and remainder in Q[l]; deg(r) < deg(b)."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    n = b.degree
    if a.degree < n:
        return _PL_ZERO, a
    bs, lb = b._terms, b._terms[-1]
    if not any(bs[:-1]):
        # a monomial b = lb l^n / b._den divides by a shift of the numerators
        s = b._den if lb > 0 else -b._den
        q = _pl_reduce([v * s for v in a._terms[n:]], a._den * abs(lb))
        return q, _pl_reduce(list(a._terms[:n]), a._den)
    # divide the numerators A by B, keeping rem and quot over one denominator
    # d, a power of B's lead lb: each step scales both by lb
    rem, quot, d = list(a._terms), [0] * (a.degree - n + 1), 1
    for i in range(len(rem) - 1, n - 1, -1):
        c = rem[i]
        if not c:
            continue
        rem = [v * lb for v in rem[:i]]
        for j in range(n):
            rem[i - n + j] -= c * bs[j]
        quot = [v * lb for v in quot]
        quot[i - n] = c
        d *= lb
    # A = (quot / d) B + rem / d; with a = A / a._den and b = B / b._den
    # that makes q = quot b._den / (d a._den) and r = rem / (d a._den)
    d *= a._den
    if d < 0:
        d, rem, quot = -d, [-v for v in rem], [-v for v in quot]
    return _pl_reduce([v * b._den for v in quot], d), _pl_reduce(rem, d)


def _primitive(p: PolyLambda) -> PolyLambda:
    """Scale to coprime integer coefficients with positive leading coefficient."""
    t = p._terms
    if not t:
        return p
    g = gcd(*t)
    if t[-1] < 0:
        g = -g
    return _pl_reduce([v // g for v in t], 1)


def poly_gcd(a: PolyLambda, b: PolyLambda) -> PolyLambda:
    """Monic gcd in Q[l] via Euclid with content/primitive-part reduction; with
    a monomial c l^k it is l^min(k, v), v the number of leading zeros of the
    other operand (the rstirling route's denominators are powers of l)."""
    for f, g in ((a, b), (b, a)):
        t = g._terms
        if t and not any(t[:-1]):
            k = next((v for v, c in enumerate(f._terms[: len(t) - 1]) if c), len(t) - 1)
            return _pl_reduce([0] * k + [1], 1)
    a, b = _primitive(a), _primitive(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, _primitive(r)
    return a.monic()


class RationalFunctionLambda:
    """Element of Q(l): gcd-reduced num/den pair with monic denominator.

    The constructor normalizes fully.  The arithmetic starts from reduced
    operands, so it needs only Henrici's smaller gcds (Knuth, TAOCP Vol. 2,
    4.5.1), and none when a denominator is 1 or an operand is a constant.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_PL_ONE):
        num, den = PolyLambda.constant(num), PolyLambda.constant(den)
        if not den:
            raise ZeroDivisionError("division by zero polynomial")
        if not num:
            self.num, self.den = _PL_ZERO, _PL_ONE
            return
        g = poly_gcd(num, den)
        num, den = _exact_quo(num, g), _exact_quo(den, g)
        inv = 1 / Fraction(den.lead)
        self.num = num * inv
        self.den = den * inv

    @classmethod
    def _reduced(cls, num: PolyLambda, den: PolyLambda = _PL_ONE) -> "RationalFunctionLambda":
        """Trust num/den: coprime with monic den (den = 1 when num = 0)."""
        self = object.__new__(cls)
        self.num, self.den = num, den
        return self

    @classmethod
    def zero(cls) -> "RationalFunctionLambda":
        return _RF_ZERO

    @classmethod
    def one(cls) -> "RationalFunctionLambda":
        return _RF_ONE

    def __bool__(self) -> bool:
        return bool(self.num)

    @_equality
    def __eq__(self, other) -> bool:
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a polynomial equals its numerator, so it hashes like it
        if self.den == _PL_ONE:
            return hash(self.num)
        return hash(("RationalFunctionLambda", self.num, self.den))

    def __neg__(self):
        return RationalFunctionLambda._reduced(-self.num, self.den)

    @_guarded
    def __add__(self, other):
        # a/b + c/d: g = gcd(b, d), then only gcd(t, g) for t = a d/g + c b/g
        (a, b), (c, d) = (self.num, self.den), (other.num, other.den)
        if b == d:
            t = a + c  # t = 0 reduces to 0/1: gcd(0, b) = b
            g = poly_gcd(t, b) if b.degree > 0 else _PL_ONE
            return RationalFunctionLambda._reduced(_exact_quo(t, g), _exact_quo(b, g))
        g = poly_gcd(b, d) if b.degree > 0 and d.degree > 0 else _PL_ONE
        if g.degree == 0:
            # coprime denominators leave (ad + cb)/(bd) reduced
            return RationalFunctionLambda._reduced(a * d + c * b, b * d)
        b1 = _exact_quo(b, g)
        t = a * _exact_quo(d, g) + c * b1
        g2 = poly_gcd(t, g)
        return RationalFunctionLambda._reduced(_exact_quo(t, g2), b1 * _exact_quo(d, g2))

    __radd__ = __add__

    @_guarded
    def __sub__(self, other):
        return self + (-other)

    @_guarded
    def __rsub__(self, other):
        return other + (-self)

    @_guarded
    def __mul__(self, other):
        # (a/b)(c/d): gcd(a, d) and gcd(c, b)
        (a, b), (c, d) = (self.num, self.den), (other.num, other.den)
        if not a or not c:
            return _RF_ZERO
        if c.degree == 0 and d.degree == 0:
            return RationalFunctionLambda._reduced(a * c, b)
        if a.degree == 0 and b.degree == 0:
            return RationalFunctionLambda._reduced(c * a, d)
        g1 = poly_gcd(a, d) if d.degree > 0 else _PL_ONE
        g2 = poly_gcd(c, b) if b.degree > 0 else _PL_ONE
        return RationalFunctionLambda._reduced(
            _exact_quo(a, g1) * _exact_quo(c, g2), _exact_quo(b, g2) * _exact_quo(d, g1)
        )

    __rmul__ = __mul__

    @_guarded
    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by zero polynomial")
        inv = 1 / Fraction(other.num.lead)
        return self * RationalFunctionLambda._reduced(other.den * inv, other.num * inv)

    @_guarded
    def __rtruediv__(self, other):
        return other / self

    def serialize(self) -> str:
        return f"({self.num.serialize()}) / ({self.den.serialize()})"

    def __repr__(self) -> str:
        return f"RationalFunctionLambda({self.serialize()!r})"


def _exact_quo(a: PolyLambda, g: PolyLambda) -> PolyLambda:
    """a / g for a monic g known to divide a."""
    return poly_divmod(a, g)[0] if g.degree > 0 else a


_RF_ZERO = RationalFunctionLambda._reduced(_PL_ZERO)
_RF_ONE = RationalFunctionLambda._reduced(_PL_ONE)
# a polynomial over 1 is already reduced
RationalFunctionLambda._lift = staticmethod(
    _lifter(RationalFunctionLambda, PolyLambda._lift, RationalFunctionLambda._reduced)
)


def _px_build(p, coeffs):
    cs = [c if type(c) is PolyLambda else PolyLambda.constant(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    p._terms = tuple(cs)


def _render_parenthesized(p) -> list[str]:
    """Each PolyLambda coefficient's own serialization, in parentheses."""
    return [f"({c.serialize()})" for c in p._terms or (_PL_ZERO,)]


def _signed_coefficients(p):
    """Each constant coefficient signed as in Q[l], any other as its pretty form, parenthesized past x^0."""
    for j, c in enumerate(p._terms):
        if c.degree == 0:
            ((_, negative, mag),) = _signed_rational(c)
            yield j, negative, mag
        elif c:
            yield j, False, f"({c.pretty()})" if j else c.pretty()


@_dense_ring(
    PolyLambda._lift, lambda c: PolyXOverLambda((c,)), "x", _render_parenthesized, _signed_coefficients,
    build=_px_build, reduce=lambda terms, den: PolyXOverLambda(terms),
)
class PolyXOverLambda:
    """Dense polynomial in x whose coefficients are PolyLambda, ascending in x."""

    __slots__ = ("_terms",)
    _den = 1  # the coefficients carry their own denominators

    coeffs = property(attrgetter("_terms"), doc="The PolyLambda coefficients, ascending in x.")

    @classmethod
    def x(cls) -> "PolyXOverLambda":
        """The variable x itself."""
        return _PX_X

    def evaluate(self, at):
        """Substitute for x.

        A rational or PolyLambda substitution returns PolyLambda; substituting
        a linear PolyXOverLambda at = a + b x (e.g. x+1) returns PolyXOverLambda,
        by a Taylor shift, one lincomb per coefficient of the result:
        c'_j = b^j sum_i binom(i, j) a^(i-j) c_i.  A substitution of x-degree 2
        or more is refused.  A rational point must be an int or a Fraction.
        """
        if isinstance(at, PolyXOverLambda):
            if at.degree > 1:
                raise ValueError(f"cannot substitute a polynomial of x-degree {at.degree}; only a + b x")
            c, a, b = self._terms, [_PL_ONE], [_PL_ONE]  # a^i and b^j
            for _ in range(1, len(c)):
                a.append(a[-1] * at.coefficient(0))
                b.append(b[-1] * at.coefficient(1))
            return PolyXOverLambda(
                lincomb((c[i], a[i - j], comb(i, j)) for i in range(j, len(c))) * b[j]
                for j in range(len(c))
            )
        if not isinstance(at, PolyLambda):
            at = PolyLambda.constant(_check_rational(at))
        acc = _PL_ZERO
        for c in reversed(self.coeffs):
            acc = acc * at + c
        return acc

    def subs_lambda(self, q: Scalar) -> "PolyXOverLambda":
        """Specialize l = q, leaving a polynomial in x with constant coefficients."""
        _check_rational(q)  # the zero polynomial evaluates no coefficient
        return PolyXOverLambda([PolyLambda.constant(c.evaluate(q)) for c in self._terms])

    def derivative(self) -> "PolyXOverLambda":
        """Formal d/dx."""
        return PolyXOverLambda(c * j for j, c in enumerate(self.coeffs) if j > 0)


_PX_X = PolyXOverLambda((0, 1))


def _columns(v) -> tuple:
    """(rank, columns) of a kernel operand: rank 0, 1, 2 for a rational, a PolyLambda,
    a PolyXOverLambda; a column (j, numerators, denominator) per nonzero x^j coefficient."""
    t = type(v)
    if t is PolyLambda:
        return 1, ((0, v._terms, v._den),) if v._terms else ()
    if t is PolyXOverLambda:
        return 2, [(j, c._terms, c._den) for j, c in enumerate(v._terms) if c._terms]
    v = _norm_coeff(v)  # which refuses a float or a bool
    return 0, ((0, (v.numerator,), v.denominator),) if v else ()


def lincomb(terms):
    """sum a * b * w over the triples (a, b, w) of terms, each x-coefficient
    over the lcm of its terms' denominators and reduced once (see the module
    docstring); the sum lives in the widest of the operands' rings."""
    rank = 0
    acc = []  # acc[j]: [numerators, denominator] of the x^j coefficient
    for a, b, w in terms:
        ra, xs = _columns(a)
        rb, ys = _columns(b)
        rank = max(rank, ra, rb)
        if type(w) is not int:
            w = _norm_coeff(w)
        if not (w and xs and ys):
            continue
        wn, wd = w.numerator, w.denominator
        while len(acc) <= xs[-1][0] + ys[-1][0]:
            acc.append([[], 1])
        for i, x, dx in xs:
            dx *= wd
            for j, y, dy in ys:
                col = acc[i + j]
                out, den = col
                d = dx * dy
                if den % d:
                    m = den // gcd(den, d) * d
                    col[0] = out = [c * (m // den) for c in out]
                    col[1] = den = m
                s = wn * (den // d)
                u, v = (x, y) if len(x) >= len(y) else (y, x)
                if len(out) < len(u) + len(v) - 1:
                    out += [0] * (len(u) + len(v) - 1 - len(out))
                for k, c in enumerate(v):
                    if c:
                        c *= s
                        for h, e in enumerate(u, k):
                            out[h] += c * e
    # a coefficient equal to one is the shared one: the memos hold many monic sums
    coeffs = [_PL_ONE if out == [1] and den == 1 else _pl_reduce(out, den) for out, den in acc] or [_PL_ZERO]
    if rank == 2:
        return PolyXOverLambda(coeffs)
    return coeffs[0] if rank else Fraction(coeffs[0].coefficient(0))


def _step(a, c0: int, c1: int, s: int, b) -> list:
    """Numerators of a (c0 + c1 l) + s b, for int numerator sequences a and b, without
    trailing zeros: one step of a Horner sum and of a triangle row, with no product by
    s = 1 (rows, x-carries), c0 = 0 (x-columns of (x)_{j,l}) or c1 = 1 (Q[l] sums)."""
    terms = zip_longest(a, [0, *a], b, fillvalue=0)
    if s == 1:
        out = [c0 * u + c1 * v + w for u, v, w in terms] if c0 else [c1 * v + w for _, v, w in terms]
    elif c1 == 1:
        out = [c0 * u + v + s * w for u, v, w in terms]
    else:
        out = [c0 * u + c1 * v + s * w for u, v, w in terms]
    while out and not out[-1]:
        out.pop()
    return out


def falling_sum(terms, base, step):
    """sum_k w_k b_k (base)_{k,step} over the pairs (b_k, w_k) of terms, k = 0, 1, ..., with
    (base)_{k,step} = base (base - step) ... (base - (k-1) step), base = (a, c0, c1) the ints of
    a x + c0 + c1 l, step = (s0, s1) those of s0 + s1 l, b_k in Q, Q[l] or Q[l][x] and w_k an
    int or a Fraction.  A PolyXOverLambda if a != 0 or some b_k is one, else a PolyLambda."""
    (a, c0, c1), (s0, s1) = base, step
    _index(a=a, c0=c0, c1=c1, s0=s0, s1=s1)
    rank = 2 if a else 0
    cs = []
    for b, w in terms:
        r, cols = _columns(b)
        rank = r if r > rank else rank
        if type(w) is not int:
            w = _norm_coeff(w)
        cs.append((cols, w.numerator, w.denominator))
    den = lcm(*[d * wd for cols, _, wd in cs for _, _, d in cols])
    acc = [[]]  # acc[i]: numerators of the x^i coefficient
    for k, (cols, wn, wd) in reversed([*enumerate(cs)]):
        f0, f1 = c0 - k * s0, c1 - k * s1
        # column i of acc (a x + f0 + f1 l) is acc[i] (f0 + f1 l) + a acc[i-1]
        if a and acc[-1]:
            acc.append(())
        if len(acc) > 1:
            acc[1:] = [_step(u, f0, f1, a, v) for u, v in zip(acc[1:], acc if a else [()] * len(acc))]
        # w_k b_k: its x^0 column joins column 0's pass, the others are added after
        _, t, d = cols[0] if cols and not cols[0][0] else (0, (), 1)
        acc[0] = _step(acc[0], f0, f1, wn * (den // (d * wd)), t)
        for j, t, d in cols:
            if j:
                acc += [()] * (j + 1 - len(acc))
                acc[j] = _step(t, wn * (den // (d * wd)), 0, 1, acc[j])
    coeffs = [_PL_ONE if u == [den] else _pl_reduce(u, den) for u in acc]  # one is shared, as in lincomb
    return PolyXOverLambda(coeffs) if rank == 2 else coeffs[0]
