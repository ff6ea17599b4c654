"""Exact coefficient arithmetic underneath the degenerate families.

Three value types are built on stdlib rationals:

    PolyLambda              polynomial in the deformation parameter l over Q
    RationalFunctionLambda  reduced quotient of PolyLambda, monic denominator
    PolyXOverLambda         polynomial in x with PolyLambda coefficients

The two polynomial rings share one dense-polynomial definition (the
_dense_ring class decorator), which takes the coefficient coercer, the
scalar types, the variable name and the coefficient renderer of each.
Coefficient sequences are dense, ascending and never carry trailing zeros;
the empty sequence is the canonical zero, so structural equality is exact
mathematical equality.  A coefficient that happens to be an integer is kept
as a plain int (ints and Fractions mix transparently in arithmetic, equality
and hashing); everything visible through `evaluate`/`specialize` comes back
as Fraction.  A value equal to a simpler one (a constant PolyLambda and its
rational, a constant PolyXOverLambda and its PolyLambda, a polynomial
RationalFunctionLambda and its numerator) hashes like it.  Equality with a
bool is plain False: a bool is never a coefficient.  The RationalFunctionLambda
constructor normalizes fully; its arithmetic reduces by Henrici's smaller gcds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

__all__ = [
    "PolyLambda",
    "PolyXOverLambda",
    "RationalFunctionLambda",
    "poly_divmod",
    "poly_gcd",
    "specialize",
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
    """Refuse an index that is not a plain int: a bool, a float, a Fraction."""
    for name, v in named.items():
        if type(v) is not int:
            raise TypeError(f"index {name} must be int, got {type(v).__name__}")


def _dense_ring(coerce, scalars, var, render):
    """Class decorator: the dense-polynomial methods of one coefficient ring.

    coerce turns one coefficient into canonical form or raises TypeError,
    scalars are the types that scale a polynomial as a constant, var names
    the variable and render writes one coefficient for serialize.  As with
    functools.total_ordering, the methods are built anew for each decorated
    class, so each class holds its own function objects in its own namespace:
    rebinding PolyLambda.__mul__ (perfbench's tracer does) leaves
    PolyXOverLambda.__mul__ alone.
    """

    def decorate(cls):
        name = cls.__name__

        def __init__(self, coeffs=()):
            cs = []
            for c in coeffs:
                cs.append(c if type(c) is ctype else coerce(c))
            while cs and not cs[-1]:
                cs.pop()
            self.coeffs = tuple(cs)

        czero = coerce(0)
        ctype = type(czero)  # a coefficient of exactly this type is canonical

        def lift(v):
            """v as an element of the ring, or NotImplemented."""
            if isinstance(v, cls):
                return v
            if isinstance(v, scalars):
                return cls((v,))  # the coercer refuses a bool
            return NotImplemented

        def zero(cls):
            return zero_poly

        def one(cls):
            return one_poly

        def constant(cls, c):
            return cls((c,))

        def degree(self) -> int:
            """Degree in the variable; -1 for the zero polynomial."""
            return len(self.coeffs) - 1

        def lead(self):
            if not self.coeffs:
                raise ValueError("zero polynomial has no leading coefficient")
            return self.coeffs[-1]

        def coefficient(self, i: int):
            return self.coeffs[i] if 0 <= i < len(self.coeffs) else czero

        def __bool__(self) -> bool:
            return bool(self.coeffs)

        def __eq__(self, other) -> bool:
            if isinstance(other, cls):
                return self.coeffs == other.coeffs
            if isinstance(other, scalars) and not isinstance(other, bool):
                c = coerce(other)
                return self.coeffs == ((c,) if c else ())
            return NotImplemented

        def __hash__(self):
            # a constant equals its coefficient, so it hashes like it
            if len(self.coeffs) <= 1:
                return hash(self.coefficient(0))
            return hash((name, self.coeffs))

        def __neg__(self):
            return cls(-c for c in self.coeffs)

        def __add__(self, other):
            other = lift(other)
            if other is NotImplemented:
                return NotImplemented
            a, b = self.coeffs, other.coeffs
            if len(a) < len(b):
                a, b = b, a
            out = list(a)
            for i, c in enumerate(b):
                out[i] += c
            return cls(out)

        def __sub__(self, other):
            other = lift(other)
            if other is NotImplemented:
                return NotImplemented
            return self + (-other)

        def __rsub__(self, other):
            other = lift(other)
            if other is NotImplemented:
                return NotImplemented
            return other + (-self)

        def __mul__(self, other):
            if isinstance(other, scalars):
                s = other if type(other) is ctype else coerce(other)
                if not s:
                    return zero_poly
                return cls(c * s for c in self.coeffs)
            if not isinstance(other, cls):
                return NotImplemented
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return zero_poly
            out = [czero] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if not ca:
                    continue
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
            return cls(out)

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
            if not self.coeffs:
                return render(czero)
            parts = []
            for i, c in enumerate(self.coeffs):
                s = render(c)
                if i == 1:
                    s += f"*{var}"
                elif i > 1:
                    s += f"*{var}^{i}"
                parts.append(s)
            return " + ".join(parts)

        def __repr__(self) -> str:
            return f"{name}({self.serialize()!r})"

        methods = (
            __init__, __bool__, __eq__, __hash__, __neg__, __add__, __sub__, __rsub__,
            __mul__, __pow__, coefficient, serialize, __repr__,
        )
        for fn in methods:
            fn.__qualname__ = f"{name}.{fn.__name__}"
            setattr(cls, fn.__name__, fn)
        cls.__radd__, cls.__rmul__ = __add__, __mul__
        for fn in (zero, one, constant):
            setattr(cls, fn.__name__, classmethod(fn))
        cls.degree, cls.lead = property(degree), property(lead)
        zero_poly, one_poly = cls(), cls((1,))
        return cls

    return decorate


def _render_rational(c) -> str:
    """'num/den' for one coefficient; an int coefficient has denominator 1."""
    return f"{c.numerator}/{c.denominator}"


@_dense_ring(_norm_coeff, (int, Fraction), "l", _render_rational)
class PolyLambda:
    """Dense polynomial in l with exact rational coefficients, ascending order."""

    __slots__ = ("coeffs",)

    @classmethod
    def lam(cls) -> "PolyLambda":
        """The variable l itself."""
        return _PL_LAM

    def monic(self) -> "PolyLambda":
        if not self.coeffs:
            return self
        return self * (1 / Fraction(self.lead))

    def evaluate(self, at: Scalar) -> Fraction:
        """The value at l = at, by Horner; at must be an int or a Fraction."""
        _check_rational(at)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * at + c
        return Fraction(acc)

    def pretty(self, var: str = "l") -> str:
        """Human form: zero terms skipped, unit coefficients and /1 suppressed."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            # an int coefficient has numerator c and denominator 1, as in serialize
            num, den = c.numerator, c.denominator
            mag = -num if num < 0 else num
            coef = str(mag) if den == 1 else f"{mag}/{den}"
            if i == 0:
                term = coef
            else:
                v = var if i == 1 else f"{var}^{i}"
                term = v if mag == den == 1 else f"{coef}*{v}"
            if not parts:
                parts.append(f"-{term}" if num < 0 else term)
            else:
                parts.append(f"- {term}" if num < 0 else f"+ {term}")
        return " ".join(parts)


_PL_ZERO, _PL_ONE = PolyLambda.zero(), PolyLambda.one()
_PL_LAM = PolyLambda((0, 1))


def poly_divmod(a: PolyLambda, b: PolyLambda) -> tuple[PolyLambda, PolyLambda]:
    """Quotient and remainder in Q[l]; deg(r) < deg(b)."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if a.degree < b.degree:
        return _PL_ZERO, a
    rem = list(a.coeffs)
    db, lb = b.degree, b.lead
    quot = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        q = Fraction(c) / lb
        quot[i - db] = q
        rem[i] = 0
        for j in range(db):
            rem[i - db + j] -= q * b.coeffs[j]
    return PolyLambda(quot), PolyLambda(rem)


def _primitive(p: PolyLambda) -> PolyLambda:
    """Scale to coprime integer coefficients with positive leading coefficient."""
    if not p:
        return p
    nums = [Fraction(c) for c in p.coeffs]
    den_lcm = lcm(*(c.denominator for c in nums))
    ints = [int(c * den_lcm) for c in nums]
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return PolyLambda(v // g for v in ints)


def poly_gcd(a: PolyLambda, b: PolyLambda) -> PolyLambda:
    """Monic gcd in Q[l] via Euclid with content/primitive-part reduction."""
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
        num = _coerce_pl(num)
        den = _coerce_pl(den)
        if not den:
            raise ZeroDivisionError("division by zero polynomial")
        if not num:
            self.num, self.den = _PL_ZERO, _PL_ONE
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, _ = poly_divmod(num, g)
            den, _ = poly_divmod(den, g)
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

    def is_polynomial(self) -> bool:
        return self.den == _PL_ONE

    def to_poly(self) -> PolyLambda:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self.serialize()}")
        return self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        other = _as_ratfun(other) if not isinstance(other, bool) else NotImplemented
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a polynomial equals its numerator, so it hashes like it
        if self.den == _PL_ONE:
            return hash(self.num)
        return hash(("RationalFunctionLambda", self.num.coeffs, self.den.coeffs))

    def __neg__(self):
        return RationalFunctionLambda._reduced(-self.num, self.den)

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
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

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        # (a/b)(c/d): gcd(a, d) and gcd(c, b)
        (a, b), (c, d) = (self.num, self.den), (other.num, other.den)
        if not a or not c:
            return _RF_ZERO
        if c.degree == 0 and d.degree == 0:
            return RationalFunctionLambda._reduced(a * c.coeffs[0], b)
        if a.degree == 0 and b.degree == 0:
            return RationalFunctionLambda._reduced(c * a.coeffs[0], d)
        g1 = poly_gcd(a, d) if d.degree > 0 else _PL_ONE
        g2 = poly_gcd(c, b) if b.degree > 0 else _PL_ONE
        return RationalFunctionLambda._reduced(
            _exact_quo(a, g1) * _exact_quo(c, g2), _exact_quo(b, g2) * _exact_quo(d, g1)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero polynomial")
        inv = 1 / Fraction(other.num.lead)
        return self * RationalFunctionLambda._reduced(other.den * inv, other.num * inv)

    def __rtruediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def serialize(self) -> str:
        return f"({self.num.serialize()}) / ({self.den.serialize()})"

    def pretty(self) -> str:
        if self.is_polynomial():
            return self.num.pretty()
        return f"({self.num.pretty()}) / ({self.den.pretty()})"

    def __repr__(self) -> str:
        return f"RationalFunctionLambda({self.serialize()!r})"


def _exact_quo(a: PolyLambda, g: PolyLambda) -> PolyLambda:
    """a / g for a monic g known to divide a."""
    return poly_divmod(a, g)[0] if g.degree > 0 else a


_RF_ZERO = RationalFunctionLambda._reduced(_PL_ZERO)
_RF_ONE = RationalFunctionLambda._reduced(_PL_ONE)


def _coerce_pl(v) -> PolyLambda:
    if isinstance(v, PolyLambda):
        return v
    if isinstance(v, (int, Fraction)):
        return PolyLambda((v,))  # which refuses a bool
    raise TypeError(f"expected PolyLambda or rational, got {type(v).__name__}")


def _as_ratfun(v):
    if isinstance(v, RationalFunctionLambda):
        return v
    if isinstance(v, (PolyLambda, int, Fraction)):
        # a polynomial over 1 is already reduced
        return RationalFunctionLambda._reduced(_coerce_pl(v))
    return NotImplemented


def _render_parenthesized(c: PolyLambda) -> str:
    """A PolyLambda coefficient's own serialization, in parentheses."""
    return f"({c.serialize()})"


@_dense_ring(_coerce_pl, (PolyLambda, int, Fraction), "x", _render_parenthesized)
class PolyXOverLambda:
    """Dense polynomial in x whose coefficients are PolyLambda, ascending in x."""

    __slots__ = ("coeffs",)

    @classmethod
    def x(cls) -> "PolyXOverLambda":
        """The variable x itself."""
        return cls((0, 1))

    def evaluate(self, at):
        """Substitute for x.

        A rational or PolyLambda substitution returns PolyLambda; substituting
        another PolyXOverLambda (e.g. x+1) returns PolyXOverLambda.  A rational
        point must be an int or a Fraction.
        """
        if isinstance(at, PolyXOverLambda):
            acc = self.zero()
            for c in reversed(self.coeffs):
                acc = acc * at + PolyXOverLambda.constant(c)
            return acc
        if not isinstance(at, PolyLambda):
            at = PolyLambda.constant(_check_rational(at))
        acc = _PL_ZERO
        for c in reversed(self.coeffs):
            acc = acc * at + c
        return acc

    def subs_lambda(self, q: Scalar) -> "PolyXOverLambda":
        """Specialize l = q, leaving a polynomial in x with constant coefficients."""
        return PolyXOverLambda(PolyLambda((c.evaluate(q),)) for c in self.coeffs)

    def derivative(self) -> "PolyXOverLambda":
        """Formal d/dx."""
        return PolyXOverLambda(c * j for j, c in enumerate(self.coeffs) if j > 0)

    def pretty(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            inner = c.pretty()
            if j == 0:
                parts.append(inner)
                continue
            v = var if j == 1 else f"{var}^{j}"
            if c == _PL_ONE:
                parts.append(v)
            elif len(c.coeffs) == 1 and " " not in inner:
                parts.append(f"{inner}*{v}")
            else:
                parts.append(f"({inner})*{v}")
        return " + ".join(parts) if parts else "0"


def specialize(value, *, lam: Scalar | None = None, x: Scalar | None = None):
    """Exact substitution.

    specialize(PolyLambda, lam=q)      -> Fraction
    specialize(PolyXOverLambda, x=q)   -> PolyLambda
    specialize(PolyXOverLambda, lam=q) -> PolyXOverLambda with constant coefficients
    """
    if (lam is None) == (x is None):
        raise ValueError("specialize needs exactly one of lam= or x=")
    if isinstance(value, PolyLambda):
        if lam is None:
            raise ValueError("a PolyLambda can only be specialized at lam")
        return value.evaluate(lam)
    if isinstance(value, PolyXOverLambda):
        if x is not None:
            return value.evaluate(x)
        return value.subs_lambda(lam)
    raise TypeError(f"cannot specialize {type(value).__name__}")
