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
with the same arguments sees the same points.  A sample set is kept as one
column per coordinate (_halton_set), each element made by the operations of
the scalar halton_point in the same order, and an expression is evaluated
on all columns in one pass (_point_values).  Only the column type varies:
float arrays, or _Floats (lists of Python floats) in a one-shot command
(_one_shot, which cli.main sets) that has not loaded numpy, for a tree
without exp or log.  Both give the scalar values bit for bit: sums,
products, quotients and numpy's exp/log round the same way on arrays as on
scalars, a float's sin and cos are libm's, equal to numpy's
(tests/test_expr.py checks it), and both raise each element with Python's
** (libm), since numpy's SIMD power differs from libm pow in the last bit.
A point is built as a dict of Python floats only where a caller needs one
(the max_abs witness, each point sample_values yields, halton_points, a
guard that trips), in halton_point's sorted-name key order.  Evaluation is
one recursion over the tree (_evaluate), on floats, numpy arrays or
_Floats; callers' arrays are only read.  The stand-in np, shared by expr
and sigma, imports numpy at its first use.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from collections import OrderedDict
from fractions import Fraction
from functools import partialmethod
from itertools import groupby, repeat
from typing import Iterable, Mapping, Union

from ._records import record


class _Numpy:
    """numpy at its first use; a read from a module's code puts numpy in
    that module's globals in place of this instance."""

    def __getattr__(self, name):
        caller = sys._getframe(1).f_globals
        if caller.get("np") is self:
            caller["np"] = __import__("numpy")
        return getattr(__import__("numpy"), name)


np = _Numpy()

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
    """Base node.  Subclasses are frozen records (see _records); trees
    hash and compare structurally."""

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


# The node classes with fields write __init__, __eq__ and __hash__ out:
# they are the hot path of symbolic construction.  Each does what the
# methods of @dataclass(frozen=True) do (fields stored through
# object.__setattr__, == on the tuple of the fields of two nodes of the
# same class, the hash of that tuple); @record adds the repr and refuses
# assignment.

@record(frozen=True)
class Num(Expression):
    value: Fraction

    def __init__(self, value):
        if not isinstance(value, Fraction):
            raise TypeError(f"Num holds a Fraction, got "
                            f"{type(value).__name__}")
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.value,) == (other.value,)
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))


@record(frozen=True)
class Pi(Expression):
    pass


@record(frozen=True)
class Var(Expression):
    name: str

    def __init__(self, name):
        object.__setattr__(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name,) == (other.name,)
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))


@record(frozen=True)
class Add(Expression):
    terms: tuple

    def __init__(self, terms):
        if len(terms) < 2:
            raise ValueError(f"Add needs at least two terms, got "
                             f"{len(terms)}")
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.terms,) == (other.terms,)
        return NotImplemented

    def __hash__(self):
        return hash((self.terms,))


@record(frozen=True)
class Mul(Expression):
    factors: tuple

    def __init__(self, factors):
        if len(factors) < 2:
            raise ValueError(f"Mul needs at least two factors, got "
                             f"{len(factors)}")
        object.__setattr__(self, "factors", factors)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.factors,) == (other.factors,)
        return NotImplemented

    def __hash__(self):
        return hash((self.factors,))


@record(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: int

    def __init__(self, base, exponent):
        if not isinstance(exponent, int):
            raise TypeError(f"integer exponents only, got {exponent!r}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.exponent) == (other.base, other.exponent)
        return NotImplemented

    def __hash__(self):
        return hash((self.base, self.exponent))


@record(frozen=True)
class Div(Expression):
    num: Expression
    den: Expression

    def __init__(self, num, den):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.num, self.den) == (other.num, other.den)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))


@record(frozen=True)
class Fn(Expression):
    fn: str
    arg: Expression

    def __init__(self, fn, arg):
        if fn not in _FN_NAMES:
            raise ValueError(f"unknown function {fn!r}")
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.fn, self.arg) == (other.fn, other.arg)
        return NotImplemented

    def __hash__(self):
        return hash((self.fn, self.arg))


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


def _has(e: Expression, cls, fns=_FN_NAMES) -> bool:
    """Does a node of class cls (a function node: one of fns) occur in e?
    Stops at the first one."""
    if isinstance(e, cls) and (cls is not Fn or e.fn in fns):
        return True
    if isinstance(e, (Num, Pi, Var)):
        return False
    if isinstance(e, Add):
        return any(_has(t, cls, fns) for t in e.terms)
    if isinstance(e, Mul):
        return any(_has(f, cls, fns) for f in e.factors)
    if isinstance(e, Pow):
        return _has(e.base, cls, fns)
    if isinstance(e, Div):
        return _has(e.num, cls, fns) or _has(e.den, cls, fns)
    if isinstance(e, Fn):
        return _has(e.arg, cls, fns)
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
_UFUNCS = {n: lambda a, n=n: getattr(np, n)(a) for n in _FN_NAMES}
_LIBM = {"sin": math.sin, "cos": math.cos}


class _Floats(list):
    """A column of Python floats, which _evaluate takes as it takes a float
    array: + * / ** and abs act element by element, ** by Python's (libm)
    pow, and `<` asks whether any element is below (a guard's question)."""

    def _map(self, op, other):
        return _Floats(map(op, self, other if type(other) is _Floats
                           else repeat(other)))

    # IEEE sums and products commute exactly
    __add__ = __radd__ = partialmethod(_map, operator.add)
    __mul__ = __rmul__ = partialmethod(_map, operator.mul)
    __truediv__ = partialmethod(_map, operator.truediv)
    __pow__ = partialmethod(_map, operator.pow)

    def __rtruediv__(self, other):
        return _Floats(map(operator.truediv, repeat(other), self))

    def __abs__(self):
        return _Floats(map(abs, self))

    def __lt__(self, bound):
        return any(v < bound for v in self)

    tolist = list.copy      # a plain list, as ndarray.tolist gives


def _any(mask) -> bool:
    """Whether a guard's mask holds anywhere: a bool (from Python floats or
    a _Floats), or a numpy bool or bool array."""
    return mask if mask.__class__ is bool else mask.any()


def evaluate(e: Expression, point: Mapping[str, object]):
    """Evaluate at a point mapping names to floats or numpy arrays.

    Scalar inputs give a float back; array inputs broadcast.  Raises
    EvaluationError on near-zero denominators, non-positive log arguments,
    exp overflow, a result that overflows, or a missing variable.  The
    point's arrays are only read, so read-only arrays are accepted.
    """
    return _evaluate(e, point, _np_pow)


def _np_pow(b: np.ndarray, k: int) -> np.ndarray:
    """b ** k by numpy's power: an overflow is inf, which the finiteness
    check of _evaluate raises, without numpy's warning."""
    with np.errstate(over="ignore"):
        return b ** k


def _libm_pow(b: np.ndarray, k: int) -> np.ndarray:
    """b ** k with Python floats, one element at a time: libm pow, the power
    a scalar evaluation uses.  numpy's SIMD power can differ in the last bit."""
    return np.array([v ** k for v in b.tolist()], dtype=float)


def _evaluate(e: Expression, point: Mapping[str, object], power,
              shared: dict = None):
    """The evaluation core; `power(base, k)` raises an array to an integer
    (_np_pow or _libm_pow), a scalar or a _Floats by Python's **.

    go gives a node its value from its children's values, which it asks
    of val, and holds every guard.  val is go itself, a plain recursion,
    unless shared (see _shared_nodes; sigma passes it on a grid's row
    blocks) maps node ids to their references: then a node referenced k
    times (by identity, not by structure) is evaluated at its first
    reference and its value held until the last one reads it, so memory
    follows the values live at once, not the size of the tree.  Every
    operation makes a fresh value, so a held value is never written; the
    values and the first guard to trip are those of the plain recursion.

    A scalar from sin/cos/exp/log is turned into a Python float, whose
    arithmetic overflows to inf without numpy's warning and whose power
    raises OverflowError; an overflow on a column is inf too.  Either way
    one EvaluationError is raised, by a guard or by the one finiteness
    check of the result.  sin and cos of a float are libm's, and nan at
    ±inf.  Only exp and log take a float through numpy, never a _Floats.
    """
    ndarray = getattr(sys.modules.get("numpy"), "ndarray", ())

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
                acc = acc * val(u)
            return acc
        if cls is Add:
            acc = val(t.terms[0])
            for u in t.terms[1:]:
                acc = acc + val(u)
            return acc
        if cls is Pow:
            b = val(t.base)
            if t.exponent < 0 and _any(abs(b) < _DIV_EPS):
                raise EvaluationError("negative power of a near-zero base", point)
            if type(b) is ndarray:
                return power(b, t.exponent)
            try:
                return (b if type(b) is _Floats else float(b)) ** t.exponent
            except OverflowError:
                raise EvaluationError("power overflow", point) from None
        if cls is Div:
            a, b = val(t.num), val(t.den)
            if _any(abs(b) < _DIV_EPS):
                raise EvaluationError("near-zero denominator", point)
            return a / b
        if cls is Fn:
            a = val(t.arg)
            if t.fn == "exp" and _any(a > _EXP_MAX):
                raise EvaluationError("exp overflow", point)
            if t.fn == "log" and _any(a <= 0):
                raise EvaluationError("log of a non-positive value", point)
            f = _LIBM.get(t.fn)
            if f is not None and type(a) is float:
                return math.nan if math.isinf(a) else f(a)
            if f is not None and type(a) is _Floats:
                return _Floats([math.nan if math.isinf(v) else f(v)
                                for v in a])
            r = _UFUNCS[t.fn](a)
            return r if type(r) is ndarray else float(r)
        if cls is Pi:
            return math.pi
        raise TypeError(cls)

    val = go
    if shared:
        left, held = dict(shared), {}

        def val(t):
            k = id(t)
            n = left.get(k)
            if n is None:
                return go(t)
            v = held.pop(k) if k in held else go(t)
            if n > 1:
                left[k], held[k] = n - 1, v
            return v
    out = go(e)
    if isinstance(out, ndarray):
        finite = np.all(np.isfinite(out))
    elif type(out) is _Floats:
        finite = all(map(math.isfinite, out))
    else:
        out = float(out)
        finite = math.isfinite(out)
    if not finite:
        raise EvaluationError("non-finite result", point)
    return out


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
# makes new entries; an entry of more than _CACHE_COORDS coordinates (a
# set of 4,096 points in 8 coordinates) is built for its call and not kept.
_CACHE_ENTRIES = 64
_CACHE_COORDS = 4096 * 8
_HALTON_CACHE: OrderedDict = OrderedDict()
_HALTON_ROWS: OrderedDict = OrderedDict()
_one_shot = False


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
    """The sample set of trials 0..trials-1 as columns, one per coordinate
    in sorted name order, element i the coordinate of halton_point(box, i,
    seed): float arrays, or _Floats if built without numpy.  Shared with
    the cache; do not mutate."""
    key = (tuple(sorted((n, tuple(b)) for n, b in box.items())), trials, seed)
    cols = _HALTON_CACHE.get(key)
    if cols is not None:
        _HALTON_CACHE.move_to_end(key)
        return cols
    names = sorted(box)
    lo = [float(box[n][0]) for n in names]
    span = [float(box[n][1] - box[n][0]) for n in names]
    # lo + (hi - lo) * u, element by element as in halton_point
    if not sys.modules.get("numpy"):
        start = _halton_start(seed)
        cols = {n: _Floats([a + s * _radical_inverse(start + i, p)
                            for i in range(trials)])
                for n, a, s, p in zip(names, lo, span, _primes(len(names)))}
    else:
        block = (np.array(lo)[:, None] + np.array(span)[:, None]
                 * _halton_rows(trials, seed, len(names))[:len(names)])
        block.flags.writeable = False
        cols = dict(zip(names, block))
    if trials * len(names) <= _CACHE_COORDS:
        _keep(_HALTON_CACHE, key, cols)
    return cols


def _point_dicts(cols: Mapping[str, np.ndarray], n: int) -> list:
    """The n points of cols (float arrays or lists of Python floats) as
    fresh dicts of Python floats, each in the key order of cols."""
    names = list(cols)
    rows = [c if type(c) is list else c.tolist() for c in cols.values()]
    return [dict(zip(names, p)) for p in (zip(*rows) if rows else [()] * n)]


def halton_points(box: Mapping[str, tuple], trials: int, seed: int) -> list:
    """[halton_point(box, i, seed) for i in range(trials)], as fresh dicts."""
    return _point_dicts(_halton_set(box, trials, seed), trials)


def _point_values(e: Expression, cols: Mapping[str, np.ndarray], n: int):
    """evaluate(e, point) at each of n points, in order, as a list or an
    iterator; cols holds one column of length n per name, all float arrays,
    _Floats or lists of Python floats (which become arrays if need be).

    One column pass makes the list: on _Floats in a one-shot command that
    has not loaded numpy, for e without exp or log, else on float arrays
    with numpy's warnings off.  If it trips a guard, the iterator walks the
    points one at a time (fresh dicts of Python floats in the key order of
    cols): the values before the first bad point, then the error a scalar
    evaluation raises there.
    """
    try:
        if (_one_shot and not sys.modules.get("numpy")
                and not _has(e, Fn, ("exp", "log"))):
            v = _evaluate(e, {k: _Floats(c) for k, c in cols.items()}, None)
        else:
            if isinstance(next(iter(cols.values()), None), list):
                cols = {k: np.array(c) for k, c in cols.items()}
            with np.errstate(all="ignore"):
                v = _evaluate(e, cols, _libm_pow)
    except ArithmeticError:
        # a guard, a variable cols lacks, or OverflowError from a libm power
        return (evaluate(e, p) for p in _point_dicts(cols, n))
    # a column of length n, or a float when e has no variable
    return [v] * n if type(v) is float else v.tolist()


def _sample(e: Expression, box: Mapping[str, tuple], trials: int, seed: int):
    """(columns, values): the box's sample set (_halton_set) and e's value
    at each of its points (_point_values).  Raises ValueError when trials <
    1, since a check over no points would pass vacuously, and when a guard
    trips because the box lacks a variable of e."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    cols = _halton_set(box, trials, seed)
    values = _point_values(e, cols, trials)
    return cols, (values if isinstance(values, list)
                  else _named_missing(e, box, values))


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

    The values equal evaluate(e, point) bit for bit.  If a guard trips, the
    values before the first bad point are yielded, and the EvaluationError
    names that point (_point_values).  Raises ValueError when trials < 1:
    a check over no points would pass vacuously.
    """
    cols, values = _sample(e, box, trials, seed)
    yield from zip(_point_dicts(cols, trials), values)


def is_zero(e: Expression, box: Mapping[str, tuple], *, tol: float = DEFAULT_TOL,
            trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> bool:
    """|e| <= tol at every sample point.  Stops at the first point where it
    is not, so a guard that would trip at a later point does not raise."""
    if not _has(e, Var):
        return abs(evaluate(e, {})) <= tol
    _, values = _sample(e, box, trials, seed)
    return all(abs(v) <= tol for v in values)


def max_abs(e: Expression, box: Mapping[str, tuple], *,
            trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED):
    """(max |e|, witness point) over the sample set; the witness is the
    first point where the maximum is reached."""
    if not _has(e, Var):
        return abs(evaluate(e, {})), {}
    cols, values = _sample(e, box, trials, seed)
    mags = list(map(abs, values))
    best = max(mags)
    i = mags.index(best)
    return best, {n: float(c[i]) for n, c in cols.items()}


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
