"""Symbolic construction leaves out terms that are exactly zero: a product
with an exact-zero factor is ZERO, which add drops, so leaving it out must
not change a tree, and a reserved slot keeps the component order.

The four construction sites that skip such terms are kept below as they
were before they skipped them.  Every public operation built on them must
give the same trees, with tensor components in the same order, whether it
runs on the sites of the package or on these reference copies."""

import contextlib
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jacobisigma import expr as ex
from jacobisigma import geometry as geo
from jacobisigma import jacobi as jac
from jacobisigma import sigma as sg
from jacobisigma.expr import (Add, Div, Fn, Mul, Num, Pi, Pow, Var, add, cos,
                              div, exp, mul, num, pow_, sin, sub)


# ----- the reference copies -----

def ref_differentiate(e, name):
    if isinstance(e, (Num, Pi)):
        return ex.ZERO
    if isinstance(e, Var):
        return ex.ONE if e.name == name else ex.ZERO
    if isinstance(e, Add):
        return add(*[ref_differentiate(t, name) for t in e.terms])
    if isinstance(e, Mul):
        parts = []
        for i, f in enumerate(e.factors):
            rest = e.factors[:i] + e.factors[i + 1:]
            parts.append(mul(ref_differentiate(f, name), *rest))
        return add(*parts)
    if isinstance(e, Pow):
        return mul(num(e.exponent), pow_(e.base, e.exponent - 1),
                   ref_differentiate(e.base, name))
    if isinstance(e, Div):
        da, db = ref_differentiate(e.num, name), ref_differentiate(e.den, name)
        return div(sub(mul(da, e.den), mul(e.num, db)), pow_(e.den, 2))
    if isinstance(e, Fn):
        da = ref_differentiate(e.arg, name)
        if e.fn == "sin":
            return mul(cos(e.arg), da)
        if e.fn == "cos":
            return mul(num(-1), sin(e.arg), da)
        if e.fn == "exp":
            return mul(exp(e.arg), da)
        if e.fn == "log":
            return div(da, e.arg)
    raise TypeError(type(e))


def ref_apply_partials(X, df):
    parts = [mul(val, df(X.chart.names[key[0]]))
             for key, val in X.comps.items()]
    return add(*parts) if parts else ex.ZERO


def ref_table_product(t1, t2):
    out = {}
    for a, f in t1.items():
        for b, g in t2.items():
            m = geo._merge_indices(a, b)
            if m is None:
                continue
            sign, key = m
            out[key] = add(out.get(key, ex.ZERO), mul(geo._sign(sign), f, g))
    return out


def ref_bracket(J, f, f_slot, g, dg):
    sharp_df, e_f = f_slot
    return add(geo._apply_partials(sharp_df, dg),
               mul(f, geo._apply_partials(J.e, dg)),
               ex.neg(mul(g, e_f)))


@contextlib.contextmanager
def reference():
    """Run the package on the reference copies of the four sites."""
    with contextlib.ExitStack() as stack:
        for module, name, fn in ((ex, "differentiate", ref_differentiate),
                                 (geo, "_apply_partials", ref_apply_partials),
                                 (geo, "_table_product", ref_table_product),
                                 (jac, "_bracket", ref_bracket)):
            stack.enter_context(mock.patch.object(module, name, fn))
        yield


def both(build):
    """build() on the package's sites, then on the reference copies."""
    got = build()
    with reference():
        return got, build()


def items(T):
    """A tensor as its degree and its (key, tree) pairs in storage order."""
    return T.degree, list(T.comps.items())


# ----- random trees and tensors -----

NAMES = ("x0", "x1", "x2", "x3")
# y occurs in trees but is never a coordinate; the coordinates a tree does
# not use are the variables absent from it
LEAVES = st.one_of(
    st.sampled_from([ex.ZERO, ex.ONE, ex.MINUS_ONE, num(2), num(Fraction(-1, 3)),
                     ex.PI]),
    st.sampled_from(NAMES + ("y",)).map(Var))


def _pow(args):
    base, k = args
    return pow_(base, abs(k) if ex.is_exact_zero(base) else k)


def _div(args):
    a, b = args
    return a if ex.is_exact_zero(b) else div(a, b)


def _extend(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda t: add(*t)),
        st.lists(children, min_size=2, max_size=3).map(lambda f: mul(*f)),
        st.tuples(children, st.integers(-2, 3)).map(_pow),
        st.tuples(children, children).map(_div),
        st.tuples(st.sampled_from(ex._FN_NAMES), children)
        .map(lambda t: ex._fn(*t)))


TREES = st.recursive(LEAVES, _extend, max_leaves=10)
VALUES = st.one_of(st.just(ex.ZERO), LEAVES, TREES)


@st.composite
def charts(draw):
    dim = draw(st.integers(1, 4))
    return geo.Chart(NAMES[:dim])


@st.composite
def tensors(draw, chart, degree, cls=geo.MultivectorField):
    keys = list(combinations(range(chart.dim), degree))
    picked = draw(st.lists(st.sampled_from(keys), unique=True,
                           max_size=len(keys))) if keys else []
    # sparse and simple: many components are exactly zero and so not
    # stored, and many are a lone constant or coordinate
    return cls(chart, degree, {k: draw(VALUES) for k in picked})


def outcome(build):
    """build()'s value, or the type and message of what it raised."""
    try:
        return build()
    except ArithmeticError as exc:
        return type(exc), str(exc)


SETTINGS = settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(TREES, st.sampled_from(NAMES + ("y", "z")))
def test_differentiate_builds_the_reference_tree(e, name):
    got, want = both(lambda: outcome(lambda: ex.differentiate(e, name)))
    assert got == want


@SETTINGS
@given(st.data())
def test_wedge_and_schouten_build_the_reference_tensors(data):
    chart = data.draw(charts())
    p, q = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    P = data.draw(tensors(chart, p))
    Q = data.draw(tensors(chart, q))
    for op in (geo.wedge, geo.schouten):
        got, want = both(lambda: outcome(lambda: items(op(P, Q))))
        assert got == want


def test_schouten_keeps_a_slot_whose_first_product_is_zero():
    # [x0 d0, d0 + x0 d2] = -d0 + x0 d2.  The half bracket X(Y) meets (0,)
    # first, with the exact zero d(1)/dx0, so (0,) keeps its slot before
    # (2,), though its value comes from the other half
    ch = geo.Chart(NAMES)
    X = geo.mvf(ch, 1, {(0,): Var("x0")})
    Y = geo.mvf(ch, 1, {(0,): 1, (2,): Var("x0")})
    got, want = both(lambda: items(geo.schouten(X, Y)))
    assert got == want and [k for k, _ in got[1]] == [(0,), (2,)]


@SETTINGS
@given(st.data())
def test_table_product_keeps_the_reference_order(data):
    # the tables geometry multiplies internally may hold exact zeros
    chart = data.draw(charts())
    tables = []
    for _ in range(2):
        deg = data.draw(st.integers(0, min(2, chart.dim)))
        keys = list(combinations(range(chart.dim), deg))
        picked = data.draw(st.lists(st.sampled_from(keys), unique=True))
        tables.append({k: data.draw(VALUES) for k in picked})
    got = geo._table_product(*tables)
    assert list(got.items()) == list(ref_table_product(*tables).items())


@SETTINGS
@given(st.data())
def test_vector_apply_and_bracket_build_the_reference_trees(data):
    chart = data.draw(charts())
    X = data.draw(tensors(chart, 1))
    lam = data.draw(tensors(chart, 2)) if chart.dim > 1 else geo.mvf(chart, 2)
    J = jac.JacobiPair(chart, lam, data.draw(tensors(chart, 1)))
    f, g = data.draw(TREES), data.draw(TREES)
    got, want = both(lambda: outcome(lambda: (geo.vector_apply(X, f),
                                              jac.bracket(J, f, g))))
    assert got == want


# ----- fixed pairs: every tree jacobi_check and poissonize build -----

def _almost_poisson():
    ch, lam = sg.almost_poisson_bivector()
    return jac.JacobiPair(ch, lam, geo.mvf(ch, 1, {}))


def _dense():
    """The dense 4-dimensional pair of the sharp-map oracle test."""
    pytest.importorskip("sympy")
    from test_sharp_oracle import Dense
    return Dense().J


PAIRS = {"contact_1": lambda: sg.contact_pair(1),
         "contact_2": lambda: sg.contact_pair(2),
         "contact_3": lambda: sg.contact_pair(3),
         "almost_poisson": _almost_poisson,
         "dense_4": _dense}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_jacobiators_are_the_reference_trees(name):
    J = PAIRS[name]()
    fns = dict(jac._jacobiator_probes(J))
    got = list(jac._jacobiators(J))
    with reference():
        want = [(t, jac.jacobiator(J, *(fns[n] for n in t))) for t, _ in got]
    assert got == want


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_structure_residuals_and_poissonize_are_the_reference_tensors(name):
    J = PAIRS[name]()

    def build():
        r2 = geo.schouten(J.lam, J.lam) + geo.wedge(J.e, J.lam).scale(2)
        pi = jac.poissonize(J).pi
        return [items(t) for t in (geo.schouten(J.e, J.lam), r2, pi,
                                   geo.schouten(pi, pi))]
    got, want = both(build)
    assert got == want
