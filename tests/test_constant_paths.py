"""The constant paths of the smart constructors.  add, mul and is_exact_zero
test and fold rational constants on their integer numerator and denominator;
they must build the trees of the Fraction folds (sum, math.prod and
Fraction comparisons) they replace, which are kept below as reference
copies.  The node invariants the constant tests rely on (a Num holds a
Fraction) are checked by raising, so they hold under python -O too."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobisigma import expr as ex
from jacobisigma.expr import Add, Expression, Mul, Num, coerce


# ----- the reference copies: constants folded through Fraction -----

def ref_add(*terms):
    out, consts = [], []
    for t in terms:
        if not isinstance(t, Expression):
            t = coerce(t)
        for u in (t.terms if isinstance(t, Add) else (t,)):
            if not isinstance(u, Num):
                out.append(u)
            elif u.value != 0:
                consts.append(u)
    if consts:
        c = (consts[0] if len(consts) == 1
             else Num(sum(k.value for k in consts)))
        if c.value != 0:
            out.append(c)
    if not out:
        return ex.ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def ref_mul(*factors):
    out, consts = [], []
    for f in factors:
        if not isinstance(f, Expression):
            f = coerce(f)
        for u in (f.factors if isinstance(f, Mul) else (f,)):
            if not isinstance(u, Num):
                out.append(u)
            elif u.value == 0:
                return ex.ZERO
            elif u.value != 1:
                consts.append(u)
    if consts:
        c = (consts[0] if len(consts) == 1
             else Num(math.prod(k.value for k in consts)))
        if c.value != 1:
            out.insert(0, c)
    if not out:
        return ex.ONE
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


# ----- mixes of variables and constants -----

BIG = 10 ** 40
CONSTS = st.one_of(
    st.sampled_from((0, 1, -1)).map(ex.num),
    # a zero and a one built directly, not the shared ZERO and ONE
    st.sampled_from((0, 1)).map(lambda v: Num(Fraction(v))),
    st.fractions(max_denominator=7, min_value=-4, max_value=4).map(Num),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)).map(Num),
    # plain numbers, which the constructors coerce
    st.sampled_from((0, 1, -1, 3, Fraction(-3, 4), 0.5)))
ATOMS = st.one_of(CONSTS, st.sampled_from("xyz").map(ex.var), st.just(ex.PI))
NESTS = st.one_of(
    st.lists(ATOMS, min_size=2, max_size=5).map(lambda a: ex.add(*a)),
    st.lists(ATOMS, min_size=2, max_size=5).map(lambda a: ex.mul(*a)),
    # raw nests keep several constants, zeros and ones
    st.lists(ATOMS, min_size=2, max_size=5).map(
        lambda a: Add(tuple(map(coerce, a)))),
    st.lists(ATOMS, min_size=2, max_size=5).map(
        lambda a: Mul(tuple(map(coerce, a)))))
ARGS = st.lists(st.one_of(ATOMS, NESTS), max_size=7)

SETTINGS = settings(max_examples=400, deadline=None)


@SETTINGS
@given(ARGS)
def test_add_builds_the_fraction_fold_tree(args):
    got, want = ex.add(*args), ref_add(*args)
    assert repr(got) == repr(want)


@SETTINGS
@given(ARGS)
def test_mul_builds_the_fraction_fold_tree(args):
    got, want = ex.mul(*args), ref_mul(*args)
    assert repr(got) == repr(want)


@SETTINGS
@given(CONSTS, st.lists(ATOMS, min_size=1, max_size=4))
def test_neg_of_a_product_that_starts_with_a_constant(c, rest):
    e = Mul((coerce(c), *map(coerce, rest)))
    assert repr(ex.neg(e)) == repr(ref_mul(ex.MINUS_ONE, e))
    built = ex.mul(c, *rest)
    assert repr(ex.neg(built)) == repr(ref_mul(ex.MINUS_ONE, built))


def test_a_lone_constant_is_kept_as_it_is():
    c = Num(Fraction(BIG + 1, 3))
    assert ex.add(ex.var("x"), c).terms[1] is c
    assert ex.mul(ex.var("x"), c).factors[0] is c
    assert ex.add(c, 0) is c and ex.mul(1, c, ex.ONE) is c


@SETTINGS
@given(CONSTS)
def test_is_exact_zero_reads_the_value(c):
    n = coerce(c)
    assert ex.is_exact_zero(n) == (n.value == 0)


def test_is_exact_zero_of_a_zero_built_directly():
    z = Num(Fraction(0))
    assert z is not ex.ZERO and ex.is_exact_zero(z)
    assert ex.is_exact_zero(Num(Fraction(0, 5)))
    assert not ex.is_exact_zero(Num(Fraction(1, BIG)))
    assert not ex.is_exact_zero(ex.var("x")) and not ex.is_exact_zero(ex.PI)
    assert ex.mul(ex.var("x"), z) is ex.ZERO
    assert ex.add(ex.var("x"), z) == ex.var("x")


# ----- node invariants, also under python -O -----

BAD_NODES = (("Num(0.5)", TypeError), ("Num(1)", TypeError),
             ("Add((x,))", ValueError), ("Mul((x,))", ValueError),
             ("Add(())", ValueError), ("Pow(x, 1.5)", TypeError),
             ("Fn('tan', x)", ValueError))


@pytest.mark.parametrize("text, error", BAD_NODES)
def test_invalid_nodes_raise(text, error):
    with pytest.raises(error):
        eval(text, vars(ex), {"x": ex.var("x")})


def test_invalid_nodes_raise_under_python_O():
    # asserts are stripped under -O, so the script reports by exiting
    code = ("import sys\n"
            "from jacobisigma import expr as ex\n"
            "if __debug__:\n"
            "    sys.exit('not run under -O')\n"
            "x = ex.var('x')\n"
            f"for text, error in {[(t, e.__name__) for t, e in BAD_NODES]}:\n"
            "    try:\n"
            "        eval(text, vars(ex), {'x': x})\n"
            "    except (TypeError, ValueError) as exc:\n"
            "        if type(exc).__name__ != error:\n"
            "            sys.exit(f'{text} raised {exc!r}')\n"
            "        continue\n"
            "    sys.exit(f'{text} was built')\n")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stdout + out.stderr
