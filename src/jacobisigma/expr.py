"""Small exact symbolic expression engine.

Expressions are immutable trees over rational constants, a distinguished
symbol pi, named variables, +, *, integer powers, quotients, and the four
analytic functions sin/cos/exp/log.  Rational arithmetic is exact
(fractions.Fraction); pi stays symbolic until evaluation.

Construction goes through the smart constructors (add, mul, pow_, div, ...)
which flatten associative nests, fold rational constants, and drop identity
elements.  The normal form is idempotent: rebuilding a normalized tree
changes nothing.

Numeric zero-testing (is_zero) samples a Halton sequence over a named box;
the sample points are a pure function of (seed, trial index), so every run
with the same arguments sees the same points.  Sampling is one array pass:
the points of a (box, trials, seed) are built once and kept in a bounded
cache as one column per coordinate, and an expression is evaluated on all
columns at once.  A column is the radical inverse in that coordinate's
prime, taken over all trial indices at once with numpy; each element goes
through the operations of the scalar halton_point in the same order, so the
columns hold its floats exactly, and the point dicts built from them keep
its sorted-name key order.  The values equal the per-point scalar
evaluation bit for bit.  Sums, products, quotients and sin/cos/exp/log
round the same way on arrays as on scalars; numpy's SIMD power does not
match libm pow in the last bit, so the sampling pass raises each element
with Python's ** (libm), the power a scalar evaluation uses.
"""

from __future__ import annotations

import math
import operator
import re
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
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
        assert isinstance(self.value, Fraction)


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
        assert len(self.terms) >= 2


@dataclass(frozen=True)
class Mul(Expression):
    factors: tuple

    def __post_init__(self):
        assert len(self.factors) >= 2


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: int

    def __post_init__(self):
        assert isinstance(self.exponent, int)


@dataclass(frozen=True)
class Div(Expression):
    num: Expression
    den: Expression


@dataclass(frozen=True)
class Fn(Expression):
    fn: str
    arg: Expression

    def __post_init__(self):
        assert self.fn in _FN_NAMES


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
    assert name not in _RESERVED, name
    return Var(name)


def add(*terms: ExprLike) -> Expression:
    out, consts = [], []
    for t in terms:
        if not isinstance(t, Expression):
            t = coerce(t)
        for u in (t.terms if isinstance(t, Add) else (t,)):
            if not isinstance(u, Num):
                out.append(u)
            elif u.value != 0:
                consts.append(u)
    if consts:     # a lone constant is kept as it is
        c = (consts[0] if len(consts) == 1
             else Num(sum(k.value for k in consts)))
        if c.value != 0:
            out.append(c)
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
        for u in (f.factors if isinstance(f, Mul) else (f,)):
            if not isinstance(u, Num):
                out.append(u)
            elif u.value == 0:
                return ZERO
            elif u.value != 1:
                consts.append(u)
    if consts:     # a lone constant is kept as it is
        c = (consts[0] if len(consts) == 1
             else Num(math.prod(k.value for k in consts)))
        if c.value != 1:
            out.insert(0, c)
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
    assert isinstance(k, int), "integer exponents only"
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
    return isinstance(e, Num) and e.value == 0


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
    if isinstance(e, (Num, Pi)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        return add(*[differentiate(t, name) for t in e.terms])
    if isinstance(e, Mul):
        parts = []
        for i, f in enumerate(e.factors):
            rest = e.factors[:i] + e.factors[i + 1:]
            parts.append(mul(differentiate(f, name), *rest))
        return add(*parts)
    if isinstance(e, Pow):
        return mul(num(e.exponent), pow_(e.base, e.exponent - 1),
                   differentiate(e.base, name))
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


def evaluate(e: Expression, point: Mapping[str, object]):
    """Evaluate at a point mapping names to floats or numpy arrays.

    Scalar inputs give a float back; array inputs broadcast.  Raises
    EvaluationError on near-zero denominators, non-positive log arguments,
    exp overflow, or a missing variable.
    """
    return _evaluate(e, point, operator.pow)


def _libm_pow(b, k: int):
    """b ** k with Python floats, one element at a time: libm pow, the power
    a scalar evaluation uses.  numpy's SIMD power can differ in the last bit."""
    if isinstance(b, np.ndarray):
        return np.array([v ** k for v in b.tolist()], dtype=float)
    return b ** k


def _evaluate(e: Expression, point: Mapping[str, object], power):
    """The evaluation core; `power(base, k)` raises a value to an integer."""

    def go(t):
        if isinstance(t, Num):
            return float(t.value)
        if isinstance(t, Pi):
            return math.pi
        if isinstance(t, Var):
            try:
                return point[t.name]
            except KeyError:
                raise EvaluationError(f"no value for variable '{t.name}'", point)
        if isinstance(t, Add):
            acc = go(t.terms[0])
            for u in t.terms[1:]:
                acc = acc + go(u)
            return acc
        if isinstance(t, Mul):
            acc = go(t.factors[0])
            for u in t.factors[1:]:
                acc = acc * go(u)
            return acc
        if isinstance(t, Pow):
            b = go(t.base)
            if t.exponent < 0 and np.any(np.abs(b) < _DIV_EPS):
                raise EvaluationError("negative power of a near-zero base", point)
            return power(b, t.exponent)
        if isinstance(t, Div):
            a, b = go(t.num), go(t.den)
            if np.any(np.abs(b) < _DIV_EPS):
                raise EvaluationError("near-zero denominator", point)
            return a / b
        if isinstance(t, Fn):
            a = go(t.arg)
            if t.fn == "sin":
                return np.sin(a)
            if t.fn == "cos":
                return np.cos(a)
            if t.fn == "exp":
                if np.any(np.asarray(a) > _EXP_MAX):
                    raise EvaluationError("exp overflow", point)
                return np.exp(a)
            if t.fn == "log":
                if np.any(np.asarray(a) <= 0):
                    raise EvaluationError("log of a non-positive value", point)
                return np.log(a)
        raise TypeError(type(t))

    out = go(e)
    if isinstance(out, np.ndarray):
        if not np.all(np.isfinite(out)):
            raise EvaluationError("non-finite result", point)
        return out
    out = float(out)
    if not math.isfinite(out):
        raise EvaluationError("non-finite result", point)
    return out


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


def _radical_inverses(idx: np.ndarray, base: int) -> np.ndarray:
    """[_radical_inverse(i, base) for i in idx], the same floats: every
    element goes through the same operations in the same order, and one
    whose digits have run out adds f * 0 = +0.0, which changes nothing."""
    x, f = np.zeros(len(idx)), 1.0 / base
    i = idx.copy()
    while i.any():
        x += f * (i % base)
        i //= base
        f /= base
    return x


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


# Halton sample sets, kept per (box, trials, seed): a bounded LRU, since
# every fresh seed makes a new entry.  A set of more than _CACHE_COORDS
# coordinates is built for its call and not kept.
_CACHE_ENTRIES = 64
_CACHE_COORDS = 64 * 64
_HALTON_CACHE: OrderedDict = OrderedDict()


def _halton_set(box: Mapping[str, tuple], trials: int, seed: int):
    """(points, columns): the halton_point dicts for trials 0..trials-1 and
    one float array per coordinate.  Shared with the cache; do not mutate."""
    key = (tuple(sorted((n, tuple(b)) for n, b in box.items())), trials, seed)
    hit = _HALTON_CACHE.get(key)
    if hit is not None:
        _HALTON_CACHE.move_to_end(key)
        return hit
    names = sorted(box)
    primes = _primes(len(names))
    idx = np.arange(trials, dtype=np.int64) + _halton_start(seed)
    cols = {}
    for d, n in enumerate(names):
        lo, hi = box[n]
        cols[n] = float(lo) + float(hi - lo) * _radical_inverses(idx, primes[d])
        cols[n].flags.writeable = False
    rows = [cols[n].tolist() for n in names]
    points = [dict(zip(names, [r[t] for r in rows])) for t in range(trials)]
    hit = (points, cols)
    if len(points) * len(box) <= _CACHE_COORDS:
        _HALTON_CACHE[key] = hit
        if len(_HALTON_CACHE) > _CACHE_ENTRIES:
            _HALTON_CACHE.popitem(last=False)
    return hit


def halton_points(box: Mapping[str, tuple], trials: int, seed: int) -> list:
    """[halton_point(box, i, seed) for i in range(trials)], as fresh dicts."""
    return [dict(p) for p in _halton_set(box, trials, seed)[0]]


def sample_values(e: Expression, box: Mapping[str, tuple], *,
                  trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED):
    """Yield (point, value) at the Halton points of the box, in trial order.

    One array pass evaluates e on all points; its values equal evaluate(e,
    point) bit for bit.  If a guard trips anywhere, the points are walked
    one at a time instead, so the EvaluationError names the first bad point
    and the values before it are still yielded.  Raises ValueError when
    trials < 1: a check over no points would pass vacuously.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    points, cols = _halton_set(box, trials, seed)
    try:
        vals = np.broadcast_to(_evaluate(e, cols, _libm_pow),
                               (len(points),)).tolist()
    except ArithmeticError:
        # a guard, a variable the box lacks, or OverflowError from a libm power
        missing = free_vars(e) - set(box)
        if missing:
            raise ValueError(f"box is missing variables: {sorted(missing)}") \
                from None
        for p in points:
            pt = dict(p)
            yield pt, evaluate(e, pt)
        return
    for p, v in zip(points, vals):
        yield dict(p), v


def is_zero(e: Expression, box: Mapping[str, tuple], *, tol: float = DEFAULT_TOL,
            trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> bool:
    if not _has_var(e):
        return abs(evaluate(e, {})) <= tol
    return all(abs(v) <= tol for _, v in
               sample_values(e, box, trials=trials, seed=seed))


def max_abs(e: Expression, box: Mapping[str, tuple], *,
            trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED):
    """(max |e|, witness point) over the sample set."""
    if not _has_var(e):
        return abs(evaluate(e, {})), {}
    best, best_pt = -1.0, None
    for pt, v in sample_values(e, box, trials=trials, seed=seed):
        if abs(v) > best:
            best, best_pt = abs(v), pt
    return best, best_pt


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
