"""Exact Stirling and Eulerian triangles, classical and degenerate.

The degenerate triangles connect two monic factorial bases of Q[l][x]: the
ordinary falling factorials (x)_k = x(x-1)...(x-k+1) and the degenerate ones
(x)_{k,l} = x(x-l)...(x-(k-1)l),

    (x)_{n,l} = sum_k stirling2_deg(n, k) (x)_k
    (x)_n     = sum_k stirling1_deg(n, k) (x)_{k,l}

Since both bases are monic the change of basis is a divisionless
back-substitution, which is the normative computation here.  Generating
functions, recurrences and finite differences serve as independent routes in
the test and verification layers.  All degenerate entries are PolyLambda with
integer coefficients; classical entries are plain ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .exactcore import PolyLambda, PolyXOverLambda

__all__ = [
    "falling_factorial",
    "rising_factorial",
    "falling_lambda",
    "rising_lambda",
    "log_weight",
    "stirling1_deg",
    "stirling2_deg",
    "stirling1_classical",
    "stirling2_classical",
    "stirling2_deg_poly",
    "r_stirling2_deg",
    "r_stirling2_classical",
    "eulerian_classical",
    "eulerian_degenerate",
    "forward_difference",
    "TriangleTable",
    "stirling2_deg_table",
]


def falling_factorial(x, n: int, step=1):
    """Product x (x - step) (x - 2 step) ... (x - (n-1) step); 1 when n = 0.

    The result lives in the widest ring among x and step: Fraction for
    rational inputs, PolyLambda when either involves l, PolyXOverLambda for
    symbolic x.
    """
    if n < 0:
        raise ValueError("factorial product length must be nonnegative")
    if isinstance(x, PolyXOverLambda):
        acc = PolyXOverLambda.one()
    elif isinstance(x, PolyLambda) or isinstance(step, PolyLambda):
        acc = PolyLambda.one()
    else:
        acc = Fraction(1)
    for i in range(n):
        acc = acc * (x - step * i)
    return acc


def rising_factorial(x, n: int, step=1):
    """Product x (x + step) ... (x + (n-1) step); 1 when n = 0.

    The default step 1 gives the Pochhammer symbol; the same ring-widening
    rules as falling_factorial apply.
    """
    if n < 0:
        raise ValueError("factorial product length must be nonnegative")
    if isinstance(x, PolyXOverLambda):
        acc = PolyXOverLambda.one()
    elif isinstance(x, PolyLambda) or isinstance(step, PolyLambda):
        acc = PolyLambda.one()
    else:
        acc = Fraction(1)
    for i in range(n):
        acc = acc * (x + step * i)
    return acc


def falling_lambda(x, n: int):
    """The l-falling factorial (x)_{n,l} = x (x-l) ... (x-(n-1)l).

    Symbolic x gives a PolyXOverLambda; rational or PolyLambda x gives a
    PolyLambda (the step already involves l).
    """
    out = falling_factorial(x, n, step=PolyLambda.lam())
    if isinstance(out, (PolyXOverLambda, PolyLambda)):
        return out
    return PolyLambda.constant(out)


def rising_lambda(x, n: int):
    """The l-rising factorial <x>_{n,l} = x (x+l) ... (x+(n-1)l).

    The classical Pochhammer symbol is rising_factorial(x, n) with its
    default step of 1, not a special case of this function.
    """
    out = rising_factorial(x, n, step=PolyLambda.lam())
    if isinstance(out, (PolyXOverLambda, PolyLambda)):
        return out
    return PolyLambda.constant(out)


def log_weight(k: int) -> PolyLambda:
    """(l-1)(l-2)...(l-k) as a PolyLambda; 1 when k = 0.

    These weights are the higher coefficients of the degenerate logarithm:
    log_weight(k) equals (k+1)! times its t^{k+1} coefficient.
    """
    out = falling_factorial(PolyLambda.lam() - 1, k)
    return out if isinstance(out, PolyLambda) else PolyLambda.constant(out)


# Monic factorial bases, grown on demand.  Index j holds the degree-j element.
_ORD_BASIS: list[PolyXOverLambda] = [PolyXOverLambda.one()]
_DEG_BASIS: list[PolyXOverLambda] = [PolyXOverLambda.one()]


def _ordinary_basis(n: int) -> list[PolyXOverLambda]:
    while len(_ORD_BASIS) <= n:
        j = len(_ORD_BASIS)
        _ORD_BASIS.append(_ORD_BASIS[-1] * (PolyXOverLambda.x() - (j - 1)))
    return _ORD_BASIS


def _degenerate_basis(n: int) -> list[PolyXOverLambda]:
    lam = PolyLambda.lam()
    while len(_DEG_BASIS) <= n:
        j = len(_DEG_BASIS)
        _DEG_BASIS.append(_DEG_BASIS[-1] * (PolyXOverLambda.x() - lam * (j - 1)))
    return _DEG_BASIS


def _into_basis(p: PolyXOverLambda, basis: list[PolyXOverLambda]) -> tuple[PolyLambda, ...]:
    """Coordinates of p in a monic basis, by back-substitution from the top."""
    out = [PolyLambda.zero()] * (max(p.degree, 0) + 1)
    rem = p
    for j in range(len(out) - 1, -1, -1):
        c = rem.coefficient(j)
        if c:
            out[j] = c
            rem = rem - basis[j] * c
    if rem:
        raise ArithmeticError("change of basis left a remainder")
    return tuple(out)


_S1_ROWS: dict[int, tuple[PolyLambda, ...]] = {}
_S2_ROWS: dict[int, tuple[PolyLambda, ...]] = {}


def _check_triangle_indices(n: int, k: int):
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"triangle indices out of range: need 0 <= k <= n, got n={n}, k={k}")


def stirling2_deg(n: int, k: int) -> PolyLambda:
    """Degenerate Stirling number of the second kind.

    Coefficient of (x)_k when (x)_{n,l} is written in the ordinary falling
    factorial basis.  Reduces to the classical count of set partitions at
    l = 0.
    """
    _check_triangle_indices(n, k)
    row = _S2_ROWS.get(n)
    if row is None:
        p = falling_factorial(PolyXOverLambda.x(), n, step=PolyLambda.lam())
        row = _into_basis(p, _ordinary_basis(n))
        _S2_ROWS[n] = row
    return row[k]


def stirling1_deg(n: int, k: int) -> PolyLambda:
    """Degenerate Stirling number of the first kind.

    Coefficient of (x)_{k,l} when the ordinary (x)_n is written in the
    degenerate falling factorial basis; the inverse triangle of
    stirling2_deg.  Reduces to the signed classical first kind at l = 0.
    """
    _check_triangle_indices(n, k)
    row = _S1_ROWS.get(n)
    if row is None:
        p = falling_factorial(PolyXOverLambda.x(), n, step=1)
        row = _into_basis(p, _degenerate_basis(n))
        _S1_ROWS[n] = row
    return row[k]


@lru_cache(maxsize=None)
def stirling2_classical(n: int, k: int) -> int:
    """Set partition counts via the recurrence S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    if n < 0:
        raise ValueError("row index must be nonnegative")
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    return k * stirling2_classical(n - 1, k) + stirling2_classical(n - 1, k - 1)


@lru_cache(maxsize=None)
def stirling1_classical(n: int, k: int) -> int:
    """Signed first kind via s(n,k) = s(n-1,k-1) - (n-1) s(n-1,k)."""
    if n < 0:
        raise ValueError("row index must be nonnegative")
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    return stirling1_classical(n - 1, k - 1) - (n - 1) * stirling1_classical(n - 1, k)


def _s2_entry(s2):
    return stirling2_deg if s2 is None else s2.entry


def stirling2_deg_poly(n: int, k: int, x=None, s2=None):
    """Polynomial extension sum_l binom(n,l) stirling2_deg(l,k) (x)_{n-l,l}.

    With x omitted the result is symbolic in x (PolyXOverLambda); a rational
    or PolyLambda x gives a PolyLambda.  At x = 0 this collapses to
    stirling2_deg(n, k).  The optional s2 table substitutes for the
    second-kind entries, which lets a caller probe a deliberately corrupted
    triangle.
    """
    _check_triangle_indices(n, k)
    entry = _s2_entry(s2)
    symbolic = x is None
    xe = PolyXOverLambda.x() if symbolic else x
    lam = PolyLambda.lam()
    acc = PolyXOverLambda.zero() if symbolic else PolyLambda.zero()
    for l in range(k, n + 1):
        s = entry(l, k)
        if not s:
            continue
        acc = acc + falling_factorial(xe, n - l, step=lam) * s * comb(n, l)
    return acc


def r_stirling2_deg(n: int, k: int, r: int, s2=None) -> PolyLambda:
    """Degenerate r-Stirling number of the second kind.

    The polynomial extension evaluated at x = r for integer r >= 1; at l = 0
    it counts partitions in which r distinguished elements stay in distinct
    blocks.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError("restriction parameter r must be a positive integer")
    return stirling2_deg_poly(n, k, x=Fraction(r), s2=s2)


@lru_cache(maxsize=None)
def r_stirling2_classical(n: int, k: int, r: int) -> int:
    """Classical r-Stirling of the second kind by its additive recurrence."""
    if n < 0:
        raise ValueError("row index must be nonnegative")
    if r < 0:
        raise ValueError("restriction parameter r must be a nonnegative integer")
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return (k + r) * r_stirling2_classical(n - 1, k, r) + r_stirling2_classical(n - 1, k - 1, r)


def eulerian_classical(n: int, m: int) -> int:
    """Classical Eulerian number: permutations of {1..n} with m descents.

    Computed by the alternating sum sum_{j=0}^{m+1} (-1)^j binom(n+1,j)
    (m+1-j)^n; the last term has base zero and vanishes, and is read as
    zero here (so the n = 0 row is 1 rather than tripping over 0^0).
    """
    _check_triangle_indices(n, m)
    total = 0
    for j in range(m + 2):
        base = m + 1 - j
        if base == 0:
            continue
        total += (-1) ** j * comb(n + 1, j) * base**n
    return total


def eulerian_degenerate(n: int, m: int, s2=None) -> PolyLambda:
    """Degenerate Eulerian number as a PolyLambda.

    (-1)^{n-m} sum_k log_weight(k) binom(n-k,m) stirling2_deg(n,k); the l = 0
    specialization is the classical descent count.
    """
    _check_triangle_indices(n, m)
    entry = _s2_entry(s2)
    acc = PolyLambda.zero()
    for k in range(n - m + 1):
        b = comb(n - k, m)
        if not b:
            continue
        s = entry(n, k)
        if not s:
            continue
        acc = acc + log_weight(k) * s * b
    return acc if (n - m) % 2 == 0 else -acc


def forward_difference(values, k: int):
    """k-th forward difference at the base point from consecutive samples.

    values must supply f(x), f(x+1), ..., f(x+k) as elements of one ring
    (rationals, PolyLambda, or PolyXOverLambda for symbolic x); the result is
    sum_j (-1)^(k-j) binom(k,j) values[j].  Extra trailing values are ignored.
    """
    if k < 0:
        raise ValueError("difference order must be nonnegative")
    values = list(values)
    if len(values) < k + 1:
        raise ValueError("insufficient values")
    acc = None
    for j in range(k + 1):
        term = values[j] * comb(k, j)
        if (k - j) % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


class TriangleTable:
    """Read-only view of a triangle (n, k) -> PolyLambda with local overrides.

    with_entry returns a new table that reports the given value at one
    position and delegates everywhere else.  The override mechanism exists so
    the verification suite can prove it notices a corrupted entry.
    """

    __slots__ = ("_base", "_overrides")

    def __init__(self, base, overrides=None):
        self._base = base
        self._overrides = dict(overrides) if overrides else {}

    def entry(self, n: int, k: int) -> PolyLambda:
        v = self._overrides.get((n, k))
        if v is not None:
            return v
        return self._base(n, k)

    def with_entry(self, n: int, k: int, value) -> "TriangleTable":
        if not isinstance(value, PolyLambda):
            value = PolyLambda.constant(value)
        ov = dict(self._overrides)
        ov[(n, k)] = value
        return TriangleTable(self._base, ov)

    def __repr__(self) -> str:
        return f"TriangleTable(overrides={sorted(self._overrides)!r})"


def stirling2_deg_table() -> TriangleTable:
    """The uncorrupted degenerate second-kind triangle as a TriangleTable."""
    return TriangleTable(stirling2_deg)
