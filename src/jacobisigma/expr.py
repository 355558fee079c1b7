"""Small exact symbolic expression engine.

Expressions are immutable trees over rational constants, a distinguished
symbol pi, named variables, +, *, integer powers, quotients, and the four
analytic functions sin/cos/exp/log.  Rational arithmetic is exact
(fractions.Fraction); pi stays symbolic until evaluation.

Construction goes through the smart constructors (add, mul, pow_, div, ...)
which flatten associative nests, fold rational constants, and drop identity
elements.  The normal form is idempotent: rebuilding a normalized tree
changes nothing.  add, mul and is_exact_zero test and fold constants on the
integer numerator and denominator of their Fractions, not through Fraction
arithmetic, and build the trees a Fraction fold builds.  The node classes
check their invariants (a Num holds a Fraction, a sum or product has two
operands or more, a power an int exponent, a function a known name) by
raising TypeError or ValueError, so they hold under python -O too.

A node keeps two things in its instance __dict__, outside its fields, so
that ==, hash and repr do not see them; they live as long as the node, and
no table outside the nodes holds anything.  A Num keeps its float from its
first evaluation.  An inner node keeps its derivative per variable name,
made by differentiate: a repeated call returns the same object, and a
derivative that raises leaves nothing behind.  differentiate does not return
0 early for a variable the tree lacks, so d log(0) still raises.  Equal trees
that are distinct objects do not share a memo (there is no interning); the
repeats are mostly of one object, such as a pair bracket that a Jacobi
check differentiates for several triples, or a component of Lam that both
Schouten brackets of the check differentiate.

Numeric zero-testing (is_zero) samples a Halton sequence over a named box;
the sample points are a pure function of (seed, trial index), so every run
with the same arguments sees the same points.  Sampling is one array pass:
the points of a (box, trials, seed) are built once and kept in a bounded
cache as one column per coordinate, and an expression is evaluated on all
columns at once.  A column is lo + (hi - lo) * r, with r the radical
inverses in that coordinate's prime of all trial indices.  Those rows
depend only on (trials, seed), so they are kept in a second bounded cache,
shared by every box sampled under the same (trials, seed) and grown when a
wider box needs more primes; a box's columns are one array operation on
them.  Each element goes through the operations of the scalar halton_point
in the same order, so the columns hold its floats exactly.  is_zero and
max_abs read the values only; a point is built as a dict of Python floats
only where a caller needs one (the max_abs witness, each point
sample_values yields, halton_points, a guard that trips), from the columns,
in halton_point's sorted-name key order.  The values equal the per-point
scalar evaluation bit for bit.  Sums, products, quotients and
sin/cos/exp/log round the same way on arrays as on scalars; numpy's SIMD
power does not match libm pow in the last bit, so the sampling pass raises
each element with Python's ** (libm), the power a scalar evaluation uses.

Evaluation on large arrays (grids, whose arrays broadcast to _REUSE_MIN
elements or more) shares work within one call: a node object that a tree
references several times is evaluated once and its value held until its
last reference reads it, and an operation writes its result into an
operand this evaluation made and nothing else holds, instead of a fresh
array.  Values and guard trips are those of the plain recursion, bit for
bit; callers' arrays are only read.  sigma evaluates grids in blocks of
rows through _evaluate_blocks, so these temporaries stay cache-sized.
"""

from __future__ import annotations

import math
import operator
import re
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import groupby
from typing import Iterable, Mapping, Union

import numpy as np

DEFAULT_TOL = 1e-9
DEFAULT_TRIALS = 64
DEFAULT_SEED = 0x1AC0B1

_FN_NAMES = ("sin", "cos", "exp", "log")
_RESERVED = ("pi",) + _FN_NAMES


class ParseError(ValueError):
    """Malformed input text; .pos is the character offset."""

    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class UndeclaredVariableError(ParseError):
    """A name not in the caller's allowed set; .name holds it."""

    def __init__(self, name: str, pos: int):
        super().__init__(f"undeclared variable '{name}'", pos)
        self.name = name


class EvaluationError(ArithmeticError):
    """Numeric evaluation hit a guard (division, log, overflow)."""

    def __init__(self, msg: str, point=None):
        super().__init__(msg)
        self.point = point


class Expression:
    """Base node.  Subclasses are frozen dataclasses; trees hash and compare
    structurally."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, coerce(other))

    def __radd__(self, other):
        return add(coerce(other), self)

    def __sub__(self, other):
        return add(self, neg(coerce(other)))

    def __rsub__(self, other):
        return add(coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, coerce(other))

    def __rmul__(self, other):
        return mul(coerce(other), self)

    def __truediv__(self, other):
        return div(self, coerce(other))

    def __rtruediv__(self, other):
        return div(coerce(other), self)

    def __pow__(self, k):
        return pow_(self, k)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True)
class Num(Expression):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            raise TypeError(f"Num holds a Fraction, got "
                            f"{type(self.value).__name__}")


@dataclass(frozen=True)
class Pi(Expression):
    pass


@dataclass(frozen=True)
class Var(Expression):
    name: str


@dataclass(frozen=True)
class Add(Expression):
    terms: tuple

    def __post_init__(self):
        if len(self.terms) < 2:
            raise ValueError(f"Add needs at least two terms, got "
                             f"{len(self.terms)}")


@dataclass(frozen=True)
class Mul(Expression):
    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ValueError(f"Mul needs at least two factors, got "
                             f"{len(self.factors)}")


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int):
            raise TypeError(f"integer exponents only, got {self.exponent!r}")


@dataclass(frozen=True)
class Div(Expression):
    num: Expression
    den: Expression


@dataclass(frozen=True)
class Fn(Expression):
    fn: str
    arg: Expression

    def __post_init__(self):
        if self.fn not in _FN_NAMES:
            raise ValueError(f"unknown function {self.fn!r}")


ExprLike = Union[Expression, int, float, Fraction]


def coerce(x: ExprLike) -> Expression:
    if isinstance(x, Expression):
        return x
    if isinstance(x, (int, Fraction)):
        return Num(Fraction(x))
    if isinstance(x, float):
        # exact binary value; callers wanting decimals should parse strings
        return Num(Fraction(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Expression")


def num(x) -> Num:
    return Num(Fraction(x))


ZERO = num(0)
ONE = num(1)
MINUS_ONE = num(-1)
PI = Pi()


def var(name: str) -> Var:
    if name in _RESERVED:
        raise ValueError(f"'{name}' is a reserved name, not a variable")
    return Var(name)


def add(*terms: ExprLike) -> Expression:
    out, consts = [], []
    for t in terms:
        if not isinstance(t, Expression):
            t = coerce(t)
        for u in (t.terms if type(t) is Add else (t,)):
            if type(u) is not Num:
                out.append(u)
            elif u.value.numerator:
                consts.append(u)
    if len(consts) == 1:    # a lone constant is kept as it is
        out.append(consts[0])
    elif consts:
        n, d = 0, 1
        for k in consts:
            kn, kd = k.value.numerator, k.value.denominator
            if kd == d:
                n += kn
            else:
                n, d = n * kd + kn * d, d * kd
        if n:
            out.append(Num(Fraction(n, d)))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def mul(*factors: ExprLike) -> Expression:
    out, consts = [], []
    for f in factors:
        if not isinstance(f, Expression):
            f = coerce(f)
        for u in (f.factors if type(f) is Mul else (f,)):
            if type(u) is not Num:
                out.append(u)
                continue
            n = u.value.numerator
            if not n:
                return ZERO
            if n != 1 or u.value.denominator != 1:
                consts.append(u)
    if len(consts) == 1:    # a lone constant is kept as it is
        out.insert(0, consts[0])
    elif consts:
        n, d = 1, 1
        for k in consts:
            n *= k.value.numerator
            d *= k.value.denominator
        if n != d:
            out.insert(0, Num(Fraction(n, d)))
    if not out:
        return ONE
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


def neg(e: ExprLike) -> Expression:
    return mul(MINUS_ONE, e)


def sub(a: ExprLike, b: ExprLike) -> Expression:
    return add(coerce(a), neg(b))


def pow_(base: ExprLike, k: int) -> Expression:
    base = coerce(base)
    if not isinstance(k, int):
        raise TypeError(f"integer exponents only, got {k!r}")
    if k == 0:
        return ONE
    if k == 1:
        return base
    if isinstance(base, Num):
        if base.value == 0 and k < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return Num(base.value ** k)
    if isinstance(base, Pow):
        return pow_(base.base, base.exponent * k)
    return Pow(base, k)


def div(a: ExprLike, b: ExprLike) -> Expression:
    a, b = coerce(a), coerce(b)
    if isinstance(b, Num):
        if b.value == 0:
            raise ZeroDivisionError("division by constant zero")
        return mul(Num(1 / b.value), a)
    if is_exact_zero(a):
        return ZERO
    return Div(a, b)


def _fn(name: str, arg: ExprLike) -> Expression:
    arg = coerce(arg)
    if isinstance(arg, Num):
        # the handful of exact special values
        if arg.value == 0:
            return {"sin": ZERO, "cos": ONE, "exp": ONE}.get(name, Fn(name, arg))
        if name == "log" and arg.value == 1:
            return ZERO
    return Fn(name, arg)


def sin(e: ExprLike) -> Expression:
    return _fn("sin", e)


def cos(e: ExprLike) -> Expression:
    return _fn("cos", e)


def exp(e: ExprLike) -> Expression:
    return _fn("exp", e)


def log(e: ExprLike) -> Expression:
    return _fn("log", e)


def normalize(e: Expression) -> Expression:
    """Rebuild bottom-up through the smart constructors (idempotent)."""
    return substitute(e, {})


def is_exact_zero(e) -> bool:
    """True when e is the constant 0 itself (a structural test, no sampling)."""
    return type(e) is Num and not e.value.numerator


def _has_var(e: Expression) -> bool:
    """Does a Var occur in e?  Stops at the first one."""
    if isinstance(e, Var):
        return True
    if isinstance(e, (Num, Pi)):
        return False
    if isinstance(e, Add):
        return any(_has_var(t) for t in e.terms)
    if isinstance(e, Mul):
        return any(_has_var(f) for f in e.factors)
    if isinstance(e, Pow):
        return _has_var(e.base)
    if isinstance(e, Div):
        return _has_var(e.num) or _has_var(e.den)
    if isinstance(e, Fn):
        return _has_var(e.arg)
    raise TypeError(type(e))


def free_vars(e: Expression) -> frozenset:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, (Num, Pi)):
        return frozenset()
    if isinstance(e, Add):
        return frozenset().union(*[free_vars(t) for t in e.terms])
    if isinstance(e, Mul):
        return frozenset().union(*[free_vars(f) for f in e.factors])
    if isinstance(e, Pow):
        return free_vars(e.base)
    if isinstance(e, Div):
        return free_vars(e.num) | free_vars(e.den)
    if isinstance(e, Fn):
        return free_vars(e.arg)
    raise TypeError(type(e))


# ----- calculus -----

def differentiate(e: Expression, name: str) -> Expression:
    """d e / d name, memoised on an inner node per name (see the module
    docstring)."""
    cls = type(e)
    if cls is Var:
        return ONE if e.name == name else ZERO
    if cls is Num or cls is Pi:
        return ZERO
    memo = e.__dict__.get("_d")
    if memo is None:
        d = _derivative(e, name)
        e.__dict__["_d"] = {name: d}
        return d
    d = memo.get(name)
    if d is None:
        d = memo[name] = _derivative(e, name)
    return d


def _derivative(e: Expression, name: str) -> Expression:
    """The rule for d e / d name at an inner node; the children go through
    differentiate, and its memo."""
    if isinstance(e, Add):
        return add(*[differentiate(t, name) for t in e.terms])
    # an exact-zero derivative makes an exact-zero term, which add drops:
    # such terms are not built
    if isinstance(e, Mul):
        parts = []
        for i, f in enumerate(e.factors):
            df = differentiate(f, name)
            if not is_exact_zero(df):
                parts.append(mul(df, *e.factors[:i], *e.factors[i + 1:]))
        return add(*parts) if parts else ZERO
    if isinstance(e, Pow):
        db = differentiate(e.base, name)
        if is_exact_zero(db):
            return ZERO
        return mul(num(e.exponent), pow_(e.base, e.exponent - 1), db)
    if isinstance(e, Div):
        da, db = differentiate(e.num, name), differentiate(e.den, name)
        return div(sub(mul(da, e.den), mul(e.num, db)), pow_(e.den, 2))
    if isinstance(e, Fn):
        da = differentiate(e.arg, name)
        if e.fn == "sin":
            return mul(cos(e.arg), da)
        if e.fn == "cos":
            return mul(num(-1), sin(e.arg), da)
        if e.fn == "exp":
            return mul(exp(e.arg), da)
        if e.fn == "log":
            return div(da, e.arg)
    raise TypeError(type(e))


def substitute(e: Expression, repl: Mapping[str, ExprLike]) -> Expression:
    """Simultaneous substitution of variables by expressions."""
    repl = {k: coerce(v) for k, v in repl.items()}

    def go(t):
        if isinstance(t, Var):
            return repl.get(t.name, t)
        if isinstance(t, (Num, Pi)):
            return t
        if isinstance(t, Add):
            return add(*[go(u) for u in t.terms])
        if isinstance(t, Mul):
            return mul(*[go(u) for u in t.factors])
        if isinstance(t, Pow):
            return pow_(go(t.base), t.exponent)
        if isinstance(t, Div):
            return div(go(t.num), go(t.den))
        if isinstance(t, Fn):
            return _fn(t.fn, go(t.arg))
        raise TypeError(type(t))

    return go(e)


# ----- numeric evaluation -----

_DIV_EPS = 1e-12
_EXP_MAX = 700.0
_UFUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}
# sum, product, quotient: the operator, and the ufunc that can take out=
_BINARY = ((operator.add, np.add), (operator.mul, np.multiply),
           (operator.truediv, np.divide))

# A point whose arrays broadcast to at least this many elements is large:
# a tree with a shared subtree is evaluated on it with shared subtrees and
# in-place temporaries (see _evaluate); on smaller points that bookkeeping
# would cost more than it saves.
_REUSE_MIN = 4096
_F64 = np.dtype(float)


def evaluate(e: Expression, point: Mapping[str, object]):
    """Evaluate at a point mapping names to floats or numpy arrays.

    Scalar inputs give a float back; array inputs broadcast.  Raises
    EvaluationError on near-zero denominators, non-positive log arguments,
    exp overflow, or a missing variable.  The point's arrays are only read,
    so read-only arrays are accepted.
    """
    return _evaluate(e, point, operator.pow, _reuse_plan(e, point))


def _evaluate_blocks(e: Expression, points):
    """evaluate(e, p) for each of the points in turn, as a generator, for
    points that are blocks of one grid: whether to share and reuse, and
    which nodes are shared, is found once, on the first."""
    plan = None
    for i, p in enumerate(points):
        if i == 0:
            plan = _reuse_plan(e, p)
        yield _evaluate(e, p, operator.pow, plan)


def _libm_pow(b, k: int):
    """b ** k with Python floats, one element at a time: libm pow, the power
    a scalar evaluation uses.  numpy's SIMD power can differ in the last bit."""
    if isinstance(b, np.ndarray):
        return np.array([v ** k for v in b.tolist()], dtype=float)
    return b ** k


def _evaluate(e: Expression, point: Mapping[str, object], power,
              plan: dict):
    """The evaluation core; `power(base, k)` raises a value to an integer.

    One dispatch, go, gives a node its value from its children's values,
    which it asks of val, and holds every guard.  val is go itself, a plain
    recursion, unless plan (see _reuse_plan) names shared nodes.  Then
    _Temps serves val and the arithmetic:

    * a node object referenced k times (by identity, not by structure) is
      evaluated once, at its first reference; its value is held until the
      last one reads it and dropped then, so memory follows the values
      live at once, not the size of the tree;
    * a sum, product, quotient or sin/cos/exp/log writes its result into an
      operand (numpy's out=) when that operand is a float64 array this
      evaluation made, nothing else holds it, and it has the result's
      shape: never a caller's array, a held value or a numpy scalar.  A
      power is computed out of place.

    Each element goes through the same IEEE operation on the same
    operands, in the same order, as in the plain recursion, so every
    value, signed zeros included, and the first guard to trip are the
    plain recursion's.
    """
    plus, times, quot = operator.add, operator.mul, operator.truediv
    fns = _UFUNCS

    def go(t):
        cls = type(t)
        if cls is Var:
            try:
                return point[t.name]
            except KeyError:
                raise EvaluationError(f"no value for variable '{t.name}'", point)
        if cls is Num:
            f = t.__dict__.get("_f")
            if f is None:
                f = t.__dict__["_f"] = float(t.value)
            return f
        if cls is Mul:
            acc = val(t.factors[0])
            for u in t.factors[1:]:
                acc = times(acc, val(u))
            return acc
        if cls is Add:
            acc = val(t.terms[0])
            for u in t.terms[1:]:
                acc = plus(acc, val(u))
            return acc
        if cls is Pow:
            b = val(t.base)
            if t.exponent < 0 and np.any(np.abs(b) < _DIV_EPS):
                raise EvaluationError("negative power of a near-zero base", point)
            return power(b, t.exponent)
        if cls is Div:
            a, b = val(t.num), val(t.den)
            if np.any(np.abs(b) < _DIV_EPS):
                raise EvaluationError("near-zero denominator", point)
            return quot(a, b)
        if cls is Fn:
            a = val(t.arg)
            if t.fn == "exp" and np.any(np.asarray(a) > _EXP_MAX):
                raise EvaluationError("exp overflow", point)
            if t.fn == "log" and np.any(np.asarray(a) <= 0):
                raise EvaluationError("log of a non-positive value", point)
            return fns[t.fn](a)
        if cls is Pi:
            return math.pi
        raise TypeError(cls)

    val = go
    if plan:
        temps = _Temps(power, dict(plan))
        plus, times, quot = (partial(temps.binary, *ops) for ops in _BINARY)
        fns = {name: partial(temps.unary, uf) for name, uf in _UFUNCS.items()}
        power, val = temps.pow, temps.sharing(go)
        try:
            out = go(e)
        finally:
            temps.free.clear()      # nothing of it outlives the call
    else:
        out = go(e)
    if isinstance(out, np.ndarray):
        if not np.all(np.isfinite(out)):
            raise EvaluationError("non-finite result", point)
        return out
    out = float(out)
    if not math.isfinite(out):
        raise EvaluationError("non-finite result", point)
    return out


def _reuse_plan(e: Expression, point: Mapping[str, object]):
    """{id(node): references} over the inner nodes e references more than
    once, when the point's arrays broadcast to _REUSE_MIN elements or more;
    else None, and _evaluate runs a plain recursion.  On a tree without a
    shared node (a field component, a structure coefficient) the
    bookkeeping costs more than in-place reuse alone saves, so such a tree
    runs plainly too."""
    return _shared_nodes(e) if _broadcast_size(point) >= _REUSE_MIN else None


def _broadcast_size(point: Mapping[str, object]) -> int:
    """The number of elements the point's arrays broadcast to (1 without
    an array)."""
    shape = ()
    for v in point.values():
        if isinstance(v, np.ndarray) and v.shape != shape:
            shape = _broadcast_shape(shape, v.shape)
    return math.prod(shape)


def _broadcast_shape(a: tuple, b: tuple) -> tuple:
    """The shape numpy broadcasts shapes a and b to, assuming they do."""
    if len(a) < len(b):
        a, b = b, a
    k = len(a) - len(b)
    return a[:k] + tuple(map(max, a[k:], b))


def _holds(o: np.ndarray, other) -> bool:
    """Does o have the shape o and other broadcast to?"""
    s = getattr(other, "shape", ())
    return s == o.shape or not s or _broadcast_shape(o.shape, s) == o.shape


def _shared_nodes(e: Expression) -> dict:
    """{id(node): references} over the inner nodes that e references more
    than once."""
    refs = {}

    def visit(t):
        cls = type(t)
        if cls is Num or cls is Var or cls is Pi:
            return
        k = id(t)
        if k in refs:
            refs[k] += 1
            return
        refs[k] = 1
        if cls is Add:
            children = t.terms
        elif cls is Mul:
            children = t.factors
        elif cls is Div:
            children = t.num, t.den
        else:
            children = (t.base if cls is Pow else t.arg),
        for c in children:
            visit(c)

    visit(e)
    return {k: n for k, n in refs.items() if n > 1}


class _Temps:
    """The values of one evaluation with reuse (see _evaluate).

    uses maps the id of each node referenced more than once to its
    references not yet read, and held its value once evaluated.  free
    maps id(a) to a for each float64 array a this evaluation made that
    nothing else refers to: an operation's result on its way into the
    next operation, which takes its operands out (they are consumed) and
    puts its own result in.  A held value never enters free: an earlier
    reference to it may still wait in an enclosing node for its operation.
    The references in held and free keep each id unique while there.
    """
    __slots__ = ("power", "uses", "held", "free")

    def __init__(self, power, uses: dict):
        self.power, self.uses, self.held, self.free = power, uses, {}, {}

    def sharing(self, go):
        """val for go: a node referenced more than once is evaluated at
        its first reference and held until its last."""
        uses, held, free = self.uses, self.held, self.free

        def val(t):
            k = id(t)
            left = uses.get(k)
            if left is None:
                return go(t)
            v = held.get(k)
            if v is None:
                v = held[k] = go(t)
                free.pop(id(v), None)
            if left == 1:
                del uses[k], held[k]
            else:
                uses[k] = left - 1
            return v
        return val

    def _keep(self, r):
        if type(r) is np.ndarray and r.dtype is _F64:
            self.free[id(r)] = r
        return r

    def binary(self, op, ufunc, a, b):
        """op(a, b), into a or b where free holds it and it has the
        result's shape; a and b leave free."""
        o, ob = self.free.pop(id(a), None), self.free.pop(id(b), None)
        if o is None or not _holds(o, b):
            o = ob if ob is not None and _holds(ob, a) else None
        return self._keep(op(a, b) if o is None else ufunc(a, b, out=o))

    def unary(self, ufunc, a):
        o = self.free.pop(id(a), None)
        return self._keep(ufunc(a) if o is None else ufunc(a, out=o))

    def pow(self, b, k: int):
        self.free.pop(id(b), None)
        return self._keep(self.power(b, k))


# ----- quasi-random zero testing -----

_PRIMES = [2]


def _primes(k: int) -> list:
    """At least the first k primes; the cached list grows on demand."""
    while len(_PRIMES) < k:
        c = _PRIMES[-1] + 1
        while any(c % q == 0 for q in _PRIMES if q * q <= c):
            c += 1
        _PRIMES.append(c)
    return _PRIMES


def _radical_inverse(i: int, base: int) -> float:
    x, f = 0.0, 1.0 / base
    while i:
        x += f * (i % base)
        i //= base
        f /= base
    return x


# digits one radical-inverse pass holds at once (its arrays hold a few words
# per digit), so that a miss for many trials needs little more memory than
# its points
_DIGIT_BLOCK = 1 << 16


def _digit_count(n: int, base: int) -> int:
    """The number of base-`base` digits of n >= 0 (1 for n = 0)."""
    count = 1
    while n >= base:
        n //= base
        count += 1
    return count


def _radical_inverse_rows(idx: np.ndarray, bases) -> np.ndarray:
    """[[_radical_inverse(i, b) for i in idx] for b in bases], the same
    floats.  Each run of bases whose digit count c (that of the largest
    index) is the same is one array pass, and every element goes through
    the operations of the scalar loop in the same order: digit j is
    i // b**j - b * (i // b**(j+1)), its factor f_j = 1.0 / b / b ... / b is
    a sequential divide-accumulate, and the sum is a sequential
    add-accumulate over j < c of f_j * digit j.  That sum starts at
    f_0 * digit 0, where the scalar loop adds it to 0.0, and an element
    whose digits run out before c adds f_j * 0 = +0.0; neither changes a
    float, since x >= 0.  Many trials are split into passes of at most
    _DIGIT_BLOCK digits."""
    top = int(idx.max()) if len(idx) else 0
    out = [np.zeros((0, len(idx)))]
    for c, run in groupby(bases, key=lambda b: _digit_count(top, b)):
        b = np.array(list(run), dtype=np.int64)[:, None, None]
        powers = b ** np.arange(c + 1)[:, None]
        f = np.empty((len(b), c + 1))
        f[:, :1], f[:, 1:] = 1.0, b[:, 0]
        f = np.divide.accumulate(f, axis=1)[:, 1:, None]
        x = np.empty((len(b), len(idx)))
        step = max(1, _DIGIT_BLOCK // (len(b) * c))
        for s in range(0, len(idx), step):
            quot = idx[s:s + step] // powers
            digits = quot[:, :-1] - b * quot[:, 1:]
            x[:, s:s + step] = np.add.accumulate(f * digits, axis=1)[:, -1]
        out.append(x)
    return np.concatenate(out)


def _halton_start(seed: int) -> int:
    """The Halton index of trial 0."""
    return (seed % 100003) + 17


def halton_point(box: Mapping[str, tuple], trial: int, seed: int) -> dict:
    """Deterministic sample in the box: pure function of (seed, trial)."""
    names = sorted(box)
    primes = _primes(len(names))
    start = _halton_start(seed)
    pt = {}
    for d, n in enumerate(names):
        lo, hi = box[n]
        u = _radical_inverse(start + trial, primes[d])
        pt[n] = lo + (hi - lo) * u
    return pt


# Halton sample sets, kept per (box, trials, seed), and the radical inverses
# they are built from, kept per (trials, seed) as one row per prime: every
# box sampled under the same (trials, seed) shares the rows, and a wider box
# adds the rows it lacks.  Both are bounded LRUs, since every fresh seed
# makes new entries; an entry of more than _CACHE_COORDS coordinates is
# built for its call and not kept.
_CACHE_ENTRIES = 64
_CACHE_COORDS = 64 * 64
_HALTON_CACHE: OrderedDict = OrderedDict()
_HALTON_ROWS: OrderedDict = OrderedDict()


def _keep(cache: OrderedDict, key, value):
    cache[key] = value
    cache.move_to_end(key)
    if len(cache) > _CACHE_ENTRIES:
        cache.popitem(last=False)


def _halton_rows(trials: int, seed: int, k: int) -> np.ndarray:
    """At least k rows, row d the radical inverses in the d-th prime of the
    Halton indices of trials 0..trials-1.  Read-only, shared with the rows
    table."""
    key = (trials, seed)
    rows = _HALTON_ROWS.get(key)
    if rows is not None and len(rows) >= k:
        _HALTON_ROWS.move_to_end(key)
        return rows
    have = 0 if rows is None else len(rows)
    idx = np.arange(trials, dtype=np.int64) + _halton_start(seed)
    new = _radical_inverse_rows(idx, _primes(k)[have:k])
    rows = new if rows is None else np.concatenate((rows, new))
    rows.flags.writeable = False
    if rows.size <= _CACHE_COORDS:
        _keep(_HALTON_ROWS, key, rows)
    return rows


def _halton_set(box: Mapping[str, tuple], trials: int, seed: int) -> dict:
    """The sample set of trials 0..trials-1 as columns: one float array per
    coordinate, in sorted name order, element i the coordinate of
    halton_point(box, i, seed).  Shared with the cache; do not mutate."""
    key = (tuple(sorted((n, tuple(b)) for n, b in box.items())), trials, seed)
    cols = _HALTON_CACHE.get(key)
    if cols is not None:
        _HALTON_CACHE.move_to_end(key)
        return cols
    names = sorted(box)
    bounds = [box[n] for n in names]
    lo = np.array([float(a) for a, _ in bounds])[:, None]
    span = np.array([float(b - a) for a, b in bounds])[:, None]
    # lo + (hi - lo) * u, element by element as in halton_point
    block = lo + span * _halton_rows(trials, seed, len(names))[:len(names)]
    block.flags.writeable = False
    cols = dict(zip(names, block))
    if block.size <= _CACHE_COORDS:
        _keep(_HALTON_CACHE, key, cols)
    return cols


def _point_dicts(cols: Mapping[str, np.ndarray], n: int) -> list:
    """The n points of cols as fresh dicts of Python floats, each in the
    key order of cols."""
    names = list(cols)
    rows = [c.tolist() for c in cols.values()]
    return [dict(zip(names, p)) for p in (zip(*rows) if rows else [()] * n)]


def halton_points(box: Mapping[str, tuple], trials: int, seed: int) -> list:
    """[halton_point(box, i, seed) for i in range(trials)], as fresh dicts."""
    return _point_dicts(_halton_set(box, trials, seed), trials)


def _point_values(e: Expression, cols: Mapping[str, np.ndarray], n: int):
    """evaluate(e, point) at each of n points, in order, as a list or an
    iterator; cols holds the points' coordinates, one float array of
    length n per name.

    One array pass makes the list, and its values equal the scalar
    evaluation bit for bit.  If the pass trips a guard, the iterator walks
    the points one at a time instead, each a fresh dict of Python floats
    taken from cols in its key order: the values before the first bad
    point still come out, and that point raises the error a scalar
    evaluation there raises.
    """
    try:
        v = _evaluate(e, cols, _libm_pow,
                      _shared_nodes(e) if n >= _REUSE_MIN else None)
    except ArithmeticError:
        # a guard, a variable cols lacks, or OverflowError from a libm power
        return (evaluate(e, p) for p in _point_dicts(cols, n))
    # an array of length n, or a float when e has no variable
    return v.tolist() if isinstance(v, np.ndarray) else [v] * n


def _point_array(e: Expression, cols: Mapping[str, np.ndarray], n: int):
    """_point_values as a float array: if a guard trips, the error a scalar
    evaluation raises at the first bad point."""
    return np.array(list(_point_values(e, cols, n)), dtype=float)


def _sample(e: Expression, box: Mapping[str, tuple], trials: int, seed: int):
    """(columns, values): the box's sample set and e's value at each of its
    points (_point_values).  Raises ValueError when trials < 1, since a
    check over no points would pass vacuously, and when a guard trips
    because the box lacks a variable of e."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    cols = _halton_set(box, trials, seed)
    values = _point_values(e, cols, trials)
    if isinstance(values, list):
        return cols, values
    return cols, _named_missing(e, box, values)


def _named_missing(e: Expression, box: Mapping[str, tuple], values):
    """values, with a guard trip caused by a variable the box lacks raised
    as a ValueError that names the missing variables."""
    try:
        yield from values
    except ArithmeticError:
        missing = free_vars(e) - set(box)
        if missing:
            raise ValueError(f"box is missing variables: {sorted(missing)}") \
                from None
        raise


def sample_values(e: Expression, box: Mapping[str, tuple], *,
                  trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED):
    """Yield (point, value) at the Halton points of the box, in trial order.

    One array pass evaluates e on all points; its values equal evaluate(e,
    point) bit for bit.  If a guard trips anywhere, the points are walked
    one at a time instead, so the EvaluationError names the first bad point
    and the values before it are still yielded.  Raises ValueError when
    trials < 1: a check over no points would pass vacuously.
    """
    cols, values = _sample(e, box, trials, seed)
    yield from zip(_point_dicts(cols, trials), values)


def is_zero(e: Expression, box: Mapping[str, tuple], *, tol: float = DEFAULT_TOL,
            trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> bool:
    """|e| <= tol at every sample point.  Stops at the first point where it
    is not, so a guard that would trip at a later point does not raise."""
    if not _has_var(e):
        return abs(evaluate(e, {})) <= tol
    _, values = _sample(e, box, trials, seed)
    return all(abs(v) <= tol for v in values)


def max_abs(e: Expression, box: Mapping[str, tuple], *,
            trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED):
    """(max |e|, witness point) over the sample set; the witness is the
    first point where the maximum is reached."""
    if not _has_var(e):
        return abs(evaluate(e, {})), {}
    cols, values = _sample(e, box, trials, seed)
    mags = list(map(abs, values))
    best = max(mags)
    i = mags.index(best)
    return best, {n: c[i].item() for n, c in cols.items()}


# ----- parsing -----

_TOKEN_RE = re.compile(r"\s*(?:(\d+(?:\.\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


def _tokenize(text: str):
    toks, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        if m.group(1):
            toks.append(("num", m.group(1), m.start(1)))
        elif m.group(2):
            toks.append(("name", m.group(2), m.start(2)))
        else:
            toks.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, toks, allowed):
        self.toks = toks
        self.i = 0
        self.allowed = None if allowed is None else set(allowed)

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected '{op}'", pos)

    def parse_expr(self):
        e = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.parse_term()
                e = add(e, rhs) if val == "+" else sub(e, rhs)
            else:
                return e

    def parse_term(self):
        e = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.parse_factor()
                e = mul(e, rhs) if val == "*" else div(e, rhs)
            else:
                return e

    def parse_factor(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return neg(self.parse_factor())
        e = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            e = pow_(e, self.parse_int_exponent())
        return e

    def parse_int_exponent(self):
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            sign = -1
        kind, val, pos = self.take()
        if kind != "num" or "." in val:
            raise ParseError("expected integer exponent", pos)
        return sign * int(val)

    def parse_atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return Num(Fraction(val))  # exact decimal
        if kind == "name":
            if val == "pi":
                return PI
            if val in _FN_NAMES:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return _fn(val, arg)
            if self.allowed is not None and val not in self.allowed:
                raise UndeclaredVariableError(val, pos)
            return Var(val)
        if kind == "op" and val == "(":
            e = self.parse_expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def parse(text: str, allowed: Iterable[str] = None) -> Expression:
    """Parse text into a normalized Expression.

    If `allowed` is given, any variable outside it raises
    UndeclaredVariableError.  Decimal literals become exact fractions
    (0.1 -> 1/10).
    """
    p = _Parser(_tokenize(text), allowed)
    e = p.parse_expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return e


# ----- printing -----

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _prec(e: Expression) -> int:
    if isinstance(e, Num):
        if e.value < 0:
            return _PREC_ADD  # needs parens almost everywhere
        return _PREC_ATOM if e.value.denominator == 1 else _PREC_MUL
    if isinstance(e, Add):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _paren(e: Expression, minimum: int) -> str:
    s = to_text(e)
    return f"({s})" if _prec(e) < minimum else s


def _split_sign(t: Expression):
    """(sign, magnitude) so sums can print 'a - b'."""
    if isinstance(t, Num) and t.value < 0:
        return -1, Num(-t.value)
    if isinstance(t, Mul) and isinstance(t.factors[0], Num) and t.factors[0].value < 0:
        return -1, mul(Num(-t.factors[0].value), *t.factors[1:])
    return 1, t


def to_text(e: Expression) -> str:
    if isinstance(e, Num):
        v = e.value
        if v.denominator == 1:
            return str(v.numerator)
        if v < 0:
            return f"-{-v.numerator}/{v.denominator}"
        return f"{v.numerator}/{v.denominator}"
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        out = to_text(e.terms[0])
        for t in e.terms[1:]:
            sign, mag = _split_sign(t)
            out += (" - " if sign < 0 else " + ") + _paren(mag, _PREC_MUL)
        return out
    if isinstance(e, Mul):
        head = ""
        factors = list(e.factors)
        if isinstance(factors[0], Num) and factors[0].value < 0:
            head = "-"
            lead = Num(-factors[0].value)
            factors = ([lead] if lead.value != 1 else []) + factors[1:]
        if not factors:
            return head + "1"
        # a Div after the first slot must keep its parens: x*(a/b), not x*a/b
        parts = [_paren(factors[0], _PREC_MUL)]
        parts += [_paren(f, _PREC_MUL + 1) for f in factors[1:]]
        return head + "*".join(parts)
    if isinstance(e, Div):
        return f"{_paren(e.num, _PREC_MUL)}/{_paren(e.den, _PREC_MUL + 1)}"
    if isinstance(e, Pow):
        base = _paren(e.base, _PREC_ATOM)
        return f"{base}^{e.exponent}"
    if isinstance(e, Fn):
        return f"{e.fn}({to_text(e.arg)})"
    raise TypeError(type(e))
