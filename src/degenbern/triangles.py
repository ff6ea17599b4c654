"""Exact Stirling and Eulerian triangles, classical and degenerate.

The degenerate triangles connect two monic factorial bases of Q[l][x]: the
ordinary falling factorials (x)_k = x(x-1)...(x-k+1) and the degenerate ones
(x)_{k,l} = x(x-l)...(x-(k-1)l),

    (x)_{n,l} = sum_k stirling2_deg(n, k) (x)_k
    (x)_n     = sum_k stirling1_deg(n, k) (x)_{k,l}

Multiplying (x)_{m-1,l} by x - (m-1)l, and (x)_{m-1} by x - (m-1), turns these
relations into the row recurrence T(m,k) = w T(m-1,k) + T(m-1,k-1), with
w = k - (m-1)l for the second kind and w = kl - (m-1) for the first; at l = 0
it is the classical recurrence.  Starting from (x+r)_{m-1,l} gives the weight
k + r - (m-1)l of the r-Stirling numbers.  That one recurrence builds all four Stirling
triangles and their r-Stirling rows here: the degenerate ones by one
exactcore._step per entry on int numerators, the classical ones by a loop of
their own on plain ints.  The basis relations themselves, the generating
functions and finite differences serve as independent routes in the test and
verification layers.  All degenerate entries are PolyLambda with integer
coefficients; classical entries are plain ints.  eulerian_degenerate sums its
row against the weights (l-1)...(l-k) by Horner (exactcore.falling_sum);
log_weight keeps the expanded weights for the routes that multiply by them.
memoized keeps the rows, the factorial chains, log_weight, eulerian_degenerate
and stirling2_deg_poly, each built once; the CLI's table sweeps drop the
pristine rows they have built on (_drop_rows_below).  Inside
substituted(builder, args, value) one entry of any memoized builder answers
value and every memo is the substitution's own, so a corrupted entry
never reaches a pristine memo.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import wraps
from math import comb

from .exactcore import PolyLambda, PolyXOverLambda, _index, _pl_reduce, _step, falling_sum, lincomb

__all__ = [
    "falling_factorial",
    "falling_lambda",
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
    "substituted",
]


_OPERANDS = (int, Fraction, PolyLambda, PolyXOverLambda)


def falling_factorial(x, n: int, step=1):
    """Product x (x - step) (x - 2 step) ... (x - (n-1) step); 1 when n = 0.

    The result lives in the widest ring among x and step: Fraction for
    rational inputs, PolyLambda when either involves l, PolyXOverLambda for
    symbolic x.  A negated step gives the rising product x (x + step) ...,
    e.g. the Pochhammer symbol at step=-1.  A float or bool x or step is refused.
    Each (x, step) keeps its chain of products, so a longer call costs one
    product per extra factor.
    """
    return _chain(x, n, step)[n]


def _chain(x, n: int, step=1) -> tuple:
    """The memoized products (x)_0 ... (x)_n: the one reader of the factorial chains."""
    _index(n=n)
    if n < 0:
        raise ValueError("factorial product length must be nonnegative")
    for v in (x, step):
        if isinstance(v, bool) or not isinstance(v, _OPERANDS):
            raise TypeError(f"factorial operands must be int or Fraction, got {type(x).__name__} and {type(step).__name__}")
    if isinstance(x, PolyXOverLambda) or isinstance(step, PolyXOverLambda):
        one = PolyXOverLambda.one()
    elif isinstance(x, PolyLambda) or isinstance(step, PolyLambda):
        one = PolyLambda.one()
    else:
        one = Fraction(1)
    # 2, Fraction(2) and PolyLambda 2 are equal keys: the types keep them apart
    return _falling_chain(type(x), x, type(step), step, one, n)


def falling_lambda(x, n: int):
    """The l-falling factorial (x)_{n,l} = x (x-l) ... (x-(n-1)l).

    Symbolic x gives a PolyXOverLambda; rational or PolyLambda x gives a
    PolyLambda (the step already involves l).
    """
    return falling_factorial(x, n, step=PolyLambda.lam())


def memoized(fn):
    """Memoize fn on its positional arguments.

    A call reads and writes the pristine memo of fn, or, inside substituted,
    the substitution's own memo only; the scope is a ContextVar, so it holds
    in the thread that opened it and nowhere else.  A keyword takes the
    position of its name in fn.__code__, so every call has one key; an
    unknown, repeated or missing argument, or an argument annotated int that
    _index refuses, is a TypeError before any memo is read.  fn must have
    plain parameters without defaults (else TypeError when it is decorated)
    and must not return None.  The wrapper's .pristine is the pristine memo.
    """
    code = fn.__code__  # flags 0x04 and 0x08: *args and **kwargs
    if fn.__defaults__ or code.co_flags & 0x0C or code.co_kwonlyargcount or code.co_posonlyargcount:
        raise TypeError(f"memoized needs plain positional parameters without defaults: {fn.__qualname__}")
    names = code.co_varnames[: code.co_argcount]
    indices = [(i, name) for i, name in enumerate(names) if fn.__annotations__.get(name) in ("int", int)]
    pristine: dict = {}

    @wraps(fn)
    def call(*args, **kwargs):
        if kwargs:
            args += tuple([kwargs.pop(name) for name in names[len(args):] if name in kwargs])
            if kwargs or len(args) < len(names):
                raise TypeError(f"{fn.__qualname__}({', '.join(names)}): an argument is missing, unknown or repeated")
        for i, name in indices:
            if i < len(args) and type(args[i]) is not int:
                _index(**{name: args[i]})
        scope = _substitution.get()
        memo, key = (pristine, args) if scope is None else (scope, (call, args))
        value = memo.get(key)
        if value is None:
            value = memo[key] = fn(*args)
        return value

    call.pristine = pristine
    return call


# the active substitution's memo, keyed by (builder, args); None outside one
_substitution: ContextVar = ContextVar("substitution", default=None)


@contextmanager
def substituted(builder, args: tuple, value):
    """Run the block with the memoized builder(*args) answering value.

    Inside the block every memoized call reads and writes a fresh memo that
    starts with this one entry, so the entry feeds everything built on it
    and no result reaches a pristine memo.  Only the named entry changes:
    _row and _falling_chain extend pristine rows and chains only.  The block
    receives the substitution's memo.  Refused before any kept memo is
    touched: a builder that is not memoized, a nested substitution (its
    fresh memo would drop the outer entry), an argument or position the
    builder itself refuses, and a value unlike the builder's own (_alike).
    """
    name = getattr(builder, "__name__", type(builder).__name__)
    if getattr(builder, "pristine", None) is None:
        raise TypeError(f"substituted needs a memoized builder, got {name}")
    if _substitution.get() is not None:
        raise RuntimeError("a substitution is already active: substitutions do not nest")
    args, memo = tuple(args), {}
    token = _substitution.set(memo)
    try:
        reference = builder(*args)  # built in the new memo, through the builder's own checks
        if not _alike(value, reference):
            shape = f"the type and shape of {name}{args}, a {type(reference).__name__}"
            raise TypeError(f"a substituted value must have {shape}, got {type(value).__name__}")
        memo.clear()
        memo[builder, args] = value
        yield memo
    finally:
        _substitution.reset(token)


def _alike(value, reference) -> bool:
    """Same type; for a tuple also the length and alike elements, for a
    series the ring and order."""
    if type(value) is not type(reference):
        return False
    if isinstance(reference, tuple):
        return len(value) == len(reference) and all(map(_alike, value, reference))
    if hasattr(reference, "ring"):
        return value.ring is reference.ring and value.order == reference.order
    return True


@memoized
def _falling_chain(x_type, x, step_type, step, one, n: int) -> tuple:
    """(x)_0 = one, (x)_1, ..., (x)_n for one (x, step), extended one product
    at a time from the longest shorter chain already in the memo."""
    chain = [one]
    for j in range(n - 1, 0, -1):
        known = _falling_chain.pristine.get((x_type, x, step_type, step, one, j))
        if known is not None:
            chain = list(known)
            break
    for i in range(len(chain) - 1, n):
        chain.append(chain[-1] * (x - step * i))
    return tuple(chain)


@memoized
def log_weight(k: int) -> PolyLambda:
    """(l-1)(l-2)...(l-k) as a PolyLambda; 1 when k = 0.

    These weights are the higher coefficients of the degenerate logarithm:
    log_weight(k) equals (k+1)! times its t^{k+1} coefficient.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return falling_factorial(PolyLambda.lam() - 1, k)


def _check_triangle_indices(n: int, k: int):
    _index(n=n, k=k)
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"triangle indices out of range: need 0 <= k <= n, got n={n}, k={k}")


@memoized
def _row(n: int, r: int, first: bool, lam) -> tuple:
    """Row n of T(m,k) = w T(m-1,k) + T(m-1,k-1), T(0,0) = 1.

    w = k lam - (m-1) gives the first kind, w = k + r - (m-1) lam the second
    (the r-Stirling one for r > 0).  lam = 0 gives the classical rows, run on
    plain ints; lam = l the degenerate rows as PolyLambda over 1, each entry
    one exactcore._step on int numerators with w = c0 + c1 l.  The row is
    built upward without recursion from the nearest lower row already in the
    memo (row 0 at worst), and only row n is kept.  _step returns int lists
    without trailing zeros, so the degenerate wrap is the trusted _pl_reduce.
    """
    if n < 0:
        raise ValueError(f"row index n must be nonnegative, got {n}")
    m, row = 0, (1,)
    for j in range(n - 1, 0, -1):
        known = _row.pristine.get((j, r, first, lam))
        if known is not None:
            m, row = j, known
            break
    if not lam:
        for m in range(m + 1, n + 1):
            w = [1 - m] * (m + 1) if first else range(r, r + m + 1)
            row = [c * a + b for c, a, b in zip(w, [*row, 0], [0, *row])]
        return tuple(row)
    row = [v.coeffs for v in row] if m else [row]
    for m in range(m + 1, n + 1):
        pairs = enumerate(zip([*row, ()], [(), *row]))
        if first:
            row = [_step(a, 1 - m, k, 1, b) for k, (a, b) in pairs]
        else:
            row = [_step(a, k + r, 1 - m, 1, b) for k, (a, b) in pairs]
    return tuple([_pl_reduce(list(t), 1) for t in row])


def _drop_rows_below(n: int):
    """Drop the pristine rows below row n of every triangle; a substituted row stays."""
    for key in [key for key in _row.pristine if key[0] < n]:
        del _row.pristine[key]


def stirling2_deg(n: int, k: int) -> PolyLambda:
    """Degenerate Stirling number of the second kind.

    Coefficient of (x)_k when (x)_{n,l} is written in the ordinary falling
    factorial basis.  Reduces to the classical count of set partitions at
    l = 0.  Every route reads its second-kind entries from the rows of _row,
    through here or r_stirling2_deg, so a substituted row reaches all of them.
    """
    _check_triangle_indices(n, k)
    return _row(n, 0, False, PolyLambda.lam())[k]


def stirling1_deg(n: int, k: int) -> PolyLambda:
    """Degenerate Stirling number of the first kind.

    Coefficient of (x)_{k,l} when the ordinary (x)_n is written in the
    degenerate falling factorial basis; the inverse triangle of
    stirling2_deg.  Reduces to the signed classical first kind at l = 0.
    """
    _check_triangle_indices(n, k)
    return _row(n, 0, True, PolyLambda.lam())[k]


def _classical_entry(n: int, k: int, r: int, first: bool) -> int:
    _index(n=n, k=k)
    row = _row(n, r, first, 0)  # refuses a negative n
    return row[k] if 0 <= k <= n else 0


def stirling2_classical(n: int, k: int) -> int:
    """Set partition counts by the recurrence S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    return _classical_entry(n, k, 0, False)


def stirling1_classical(n: int, k: int) -> int:
    """Signed first kind by the recurrence s(n,k) = s(n-1,k-1) - (n-1) s(n-1,k)."""
    return _classical_entry(n, k, 0, True)


@memoized
def stirling2_deg_poly(n: int, k: int) -> PolyXOverLambda:
    """Polynomial extension sum_l binom(n,l) stirling2_deg(l,k) (x)_{n-l,l}.

    Symbolic in x; .evaluate(r) at an int r >= 0 is r_stirling2_deg(n, k, r).
    """
    _check_triangle_indices(n, k)
    w = _chain(PolyXOverLambda.x(), n - k, PolyLambda.lam())
    return lincomb((w[n - l], stirling2_deg(l, k), comb(n, l)) for l in range(k, n + 1))


def r_stirling2_deg(n: int, k: int, r: int) -> PolyLambda:
    """Degenerate r-Stirling number of the second kind, for integer r >= 0.

    Row n of _row at r, with weight k + r - (m-1) l; r = 0 is stirling2_deg.
    At l = 0 it counts partitions keeping r distinguished elements apart.
    """
    _index(r=r)
    if r < 0:
        raise ValueError("restriction parameter r must be a nonnegative integer")
    _check_triangle_indices(n, k)
    return _row(n, r, False, PolyLambda.lam())[k]


def r_stirling2_classical(n: int, k: int, r: int) -> int:
    """Classical r-Stirling of the second kind by its additive recurrence."""
    _index(r=r)
    if r < 0:
        raise ValueError("restriction parameter r must be a nonnegative integer")
    return _classical_entry(n, k, r, False)


def eulerian_classical(n: int, m: int) -> int:
    """Classical Eulerian number: permutations of {1..n} with m descents.

    Computed by the alternating sum sum_{j=0}^{m} (-1)^j binom(n+1,j)
    (m+1-j)^n.  The usual sum runs to j = m+1, whose term has base zero and
    vanishes; stopping at j = m leaves it out, so no 0^0 arises (the n = 0
    row is 1).
    """
    _index(m=m)
    _check_triangle_indices(n, m)
    total = 0
    for j in range(m + 1):
        total += (-1) ** j * comb(n + 1, j) * (m + 1 - j) ** n
    return total


@memoized
def eulerian_degenerate(n: int, m: int) -> PolyLambda:
    """Degenerate Eulerian number as a PolyLambda.

    (-1)^{n-m} sum_k log_weight(k) binom(n-k,m) stirling2_deg(n,k), summed by
    Horner in the factors l - k (exactcore.falling_sum); the l = 0
    specialization is the classical descent count.
    """
    _check_triangle_indices(n, m)
    sign = -1 if (n - m) % 2 else 1
    return falling_sum(((stirling2_deg(n, k), sign * comb(n - k, m)) for k in range(n - m + 1)), (0, -1, 1), (1, 0))


def forward_difference(values, k: int):
    """k-th forward difference at the base point from consecutive samples.

    values must supply f(x), f(x+1), ..., f(x+k) as elements of one ring
    (rationals, PolyLambda, or PolyXOverLambda for symbolic x); the result is
    sum_j (-1)^(k-j) binom(k,j) values[j], in their ring (a Fraction for
    rationals).  Extra trailing values are ignored.
    """
    _index(k=k)
    if k < 0:
        raise ValueError("difference order must be nonnegative")
    values = list(values)
    if len(values) < k + 1:
        raise ValueError("insufficient values")
    return lincomb((values[j], 1, (-1) ** (k - j) * comb(k, j)) for j in range(k + 1))

