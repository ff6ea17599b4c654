"""Exact coefficient arithmetic underneath the degenerate families.

Three value types are built on stdlib rationals:

    PolyLambda              polynomial in the deformation parameter l over Q
    RationalFunctionLambda  reduced quotient of PolyLambda, monic denominator
    PolyXOverLambda         polynomial in x with PolyLambda coefficients

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


def _power(self, k: int):
    """self ** k by square-and-multiply, for either polynomial ring."""
    if k < 0:
        raise ValueError("negative power of a polynomial")
    out = type(self).one()
    base = self
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


class PolyLambda:
    """Dense polynomial in l with exact rational coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "PolyLambda":
        return _PL_ZERO

    @classmethod
    def one(cls) -> "PolyLambda":
        return _PL_ONE

    @classmethod
    def lam(cls) -> "PolyLambda":
        """The variable l itself."""
        return _PL_LAM

    @classmethod
    def constant(cls, q: Scalar) -> "PolyLambda":
        return cls((q,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int) -> Scalar:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, PolyLambda):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.coeffs == ((_norm_coeff(other),) if other else ())
        return NotImplemented

    def __hash__(self):
        # a constant equals its rational value, so it hashes like it
        if len(self.coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash(("PolyLambda", self.coeffs))

    def __neg__(self) -> "PolyLambda":
        return PolyLambda(-c for c in self.coeffs)

    def __add__(self, other) -> "PolyLambda":
        other = _as_poly_lambda(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyLambda(out)

    __radd__ = __add__

    def __sub__(self, other) -> "PolyLambda":
        other = _as_poly_lambda(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "PolyLambda":
        other = _as_poly_lambda(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "PolyLambda":
        if isinstance(other, (int, Fraction)):
            if not other:
                return _PL_ZERO
            return PolyLambda(c * other for c in self.coeffs)
        if not isinstance(other, PolyLambda):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _PL_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
        return PolyLambda(out)

    __rmul__ = __mul__

    __pow__ = _power

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

    def serialize(self) -> str:
        """Canonical machine form: 'c0 + c1*l + c2*l^2' with num/den coefficients."""
        if not self.coeffs:
            return "0/1"
        parts = []
        for i, c in enumerate(self.coeffs):
            f = Fraction(c)
            s = f"{f.numerator}/{f.denominator}"
            if i == 1:
                s += "*l"
            elif i > 1:
                s += f"*l^{i}"
            parts.append(s)
        return " + ".join(parts)

    def pretty(self, var: str = "l") -> str:
        """Human form: zero terms skipped, unit coefficients and /1 suppressed."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            f = Fraction(c)
            mag = abs(f)
            coef = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
            if i == 0:
                term = coef
            else:
                v = var if i == 1 else f"{var}^{i}"
                term = v if mag == 1 else f"{coef}*{v}"
            if not parts:
                parts.append(f"-{term}" if f < 0 else term)
            else:
                parts.append(f"- {term}" if f < 0 else f"+ {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"PolyLambda({self.serialize()!r})"


def _as_poly_lambda(v):
    if isinstance(v, PolyLambda):
        return v
    if isinstance(v, (int, Fraction)):
        # False goes to the constructor too, which refuses a bool
        return PolyLambda((v,)) if v or v is False else _PL_ZERO
    return NotImplemented


_PL_ZERO = PolyLambda()
_PL_ONE = PolyLambda((1,))
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
    p = _as_poly_lambda(v)
    if p is NotImplemented:
        raise TypeError(f"expected PolyLambda or rational, got {type(v).__name__}")
    return p


def _as_ratfun(v):
    if isinstance(v, RationalFunctionLambda):
        return v
    if isinstance(v, (PolyLambda, int, Fraction)):
        # a polynomial over 1 is already reduced
        return RationalFunctionLambda._reduced(_coerce_pl(v))
    return NotImplemented


class PolyXOverLambda:
    """Dense polynomial in x whose coefficients are PolyLambda, ascending in x."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = []
        for c in coeffs:
            if not isinstance(c, PolyLambda):
                c = _coerce_pl(c)
            cs.append(c)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "PolyXOverLambda":
        return _PX_ZERO

    @classmethod
    def one(cls) -> "PolyXOverLambda":
        return _PX_ONE

    @classmethod
    def x(cls) -> "PolyXOverLambda":
        """The variable x itself."""
        return _PX_X

    @classmethod
    def constant(cls, c) -> "PolyXOverLambda":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree in x; -1 for zero."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> PolyLambda:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, j: int) -> PolyLambda:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else _PL_ZERO

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, PolyXOverLambda):
            return self.coeffs == other.coeffs
        if isinstance(other, (PolyLambda, int, Fraction)) and not isinstance(other, bool):
            c = _coerce_pl(other)
            return self.coeffs == ((c,) if c else ())
        return NotImplemented

    def __hash__(self):
        # a constant in x equals its PolyLambda coefficient, so it hashes like it
        if len(self.coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash(("PolyXOverLambda", self.coeffs))

    def __neg__(self):
        return PolyXOverLambda(-c for c in self.coeffs)

    def __add__(self, other):
        other = _as_poly_x(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return PolyXOverLambda(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly_x(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly_x(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PolyLambda)):
            c = _coerce_pl(other)
            if not c:
                return _PX_ZERO
            return PolyXOverLambda(ci * c for ci in self.coeffs)
        if not isinstance(other, PolyXOverLambda):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _PX_ZERO
        out = [_PL_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
        return PolyXOverLambda(out)

    __rmul__ = __mul__

    __pow__ = _power

    def evaluate(self, at):
        """Substitute for x.

        A rational or PolyLambda substitution returns PolyLambda; substituting
        another PolyXOverLambda (e.g. x+1) returns PolyXOverLambda.
        """
        if isinstance(at, PolyXOverLambda):
            acc = _PX_ZERO
            for c in reversed(self.coeffs):
                acc = acc * at + PolyXOverLambda.constant(c)
            return acc
        at = _coerce_pl(at)
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

    def serialize(self) -> str:
        if not self.coeffs:
            return "(0/1)"
        parts = []
        for j, c in enumerate(self.coeffs):
            s = f"({c.serialize()})"
            if j == 1:
                s += "*x"
            elif j > 1:
                s += f"*x^{j}"
            parts.append(s)
        return " + ".join(parts)

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

    def __repr__(self) -> str:
        return f"PolyXOverLambda({self.serialize()!r})"


def _as_poly_x(v):
    if isinstance(v, PolyXOverLambda):
        return v
    if isinstance(v, (PolyLambda, int, Fraction)):
        c = _coerce_pl(v)
        return PolyXOverLambda((c,)) if c else _PX_ZERO
    return NotImplemented


_PX_ZERO = PolyXOverLambda()
_PX_ONE = PolyXOverLambda((_PL_ONE,))
_PX_X = PolyXOverLambda((_PL_ZERO, _PL_ONE))


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
            return value.evaluate(_check_rational(x))
        return value.subs_lambda(lam)
    raise TypeError(f"cannot specialize {type(value).__name__}")
