import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacobisigma import expr as ex

VARS = ("x", "y", "z")
BOX = {n: (-1.0, 1.0) for n in VARS}


def leaves():
    return st.one_of(
        st.sampled_from(VARS).map(ex.var),
        st.integers(-3, 3).map(ex.num),
    )


def nodes(child):
    safe_log = child.map(lambda e: ex.log(ex.add(ex.num(2), ex.mul(e, e))))
    return st.one_of(
        st.tuples(child, child).map(lambda ab: ex.add(*ab)),
        st.tuples(child, child).map(lambda ab: ex.mul(*ab)),
        child.map(lambda e: ex.sin(e)),
        child.map(lambda e: ex.cos(e)),
        st.tuples(child, st.integers(1, 3)).map(lambda ek: ex.pow_(*ek)),
        st.tuples(child, st.integers(2, 5)).map(
            lambda ek: ex.div(ek[0], ex.num(ek[1]))),
        safe_log,
    )


exprs = st.recursive(leaves(), nodes, max_leaves=12)


def sample_points(k=5, seed=11):
    return [ex.halton_point(BOX, i, seed) for i in range(k)]


# ----- differentiation -----

@settings(max_examples=100, deadline=None)
@given(exprs, exprs, st.sampled_from(VARS))
def test_product_rule(e1, e2, v):
    lhs = ex.differentiate(ex.mul(e1, e2), v)
    rhs = ex.add(ex.mul(e1, ex.differentiate(e2, v)),
                 ex.mul(e2, ex.differentiate(e1, v)))
    assert ex.is_zero(ex.sub(lhs, rhs), BOX, tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(exprs)
def test_mixed_partials_commute(e):
    dxy = ex.differentiate(ex.differentiate(e, "x"), "y")
    dyx = ex.differentiate(ex.differentiate(e, "y"), "x")
    assert ex.is_zero(ex.sub(dxy, dyx), BOX, tol=1e-9)


@settings(max_examples=40, deadline=None)
@given(exprs, st.sampled_from(VARS))
def test_derivative_matches_central_difference(e, v):
    d = ex.differentiate(e, v)
    h = 1e-5
    for pt in sample_points():
        up = dict(pt); up[v] = pt[v] + h
        dn = dict(pt); dn[v] = pt[v] - h
        fd = (ex.evaluate(e, up) - ex.evaluate(e, dn)) / (2 * h)
        exact = ex.evaluate(d, pt)
        assert abs(fd - exact) <= 1e-5 * (1.0 + abs(exact))


def test_chain_rule_through_substitute():
    e = ex.parse("sin(x*y) + x^2", allowed=VARS)
    inner = ex.parse("y^2 + 1", allowed=VARS)
    composed = ex.substitute(e, {"x": inner})
    d = ex.differentiate(composed, "y")
    expected = ex.add(
        ex.substitute(ex.differentiate(e, "x"), {"x": inner}) * ex.differentiate(inner, "y"),
        ex.substitute(ex.differentiate(e, "y"), {"x": inner}))
    assert ex.is_zero(ex.sub(d, expected), BOX, tol=1e-9)


# ----- normalize / parse / print -----

@settings(max_examples=60, deadline=None)
@given(exprs)
def test_normalize_idempotent(e):
    n1 = ex.normalize(e)
    assert ex.normalize(n1) == n1


@settings(max_examples=60, deadline=None)
@given(exprs)
def test_print_parse_round_trip(e):
    back = ex.parse(ex.to_text(e), allowed=VARS)
    assert ex.is_zero(ex.sub(e, back), BOX, tol=1e-11)


def test_rationals_stay_exact():
    assert ex.to_text(ex.parse("1/3")) == "1/3"
    assert ex.evaluate(ex.parse("1/3"), {}) == pytest.approx(1 / 3, abs=0)
    # folding keeps integer arithmetic exact
    assert ex.evaluate(ex.parse("(2/3)*(3/2)"), {}) == 1.0


def test_pi_constant():
    assert ex.evaluate(ex.PI, {}) == pytest.approx(math.pi, abs=0)
    assert ex.evaluate(ex.parse("sin(pi/2)"), {}) == pytest.approx(1.0)


def test_parse_rejects_undeclared_names():
    with pytest.raises(ex.UndeclaredVariableError):
        ex.parse("x + q", allowed=("x",))


@pytest.mark.parametrize("bad", ["", "x +", "sin(", "2 ** 3", "(x"])
def test_parse_errors(bad):
    with pytest.raises(ex.ParseError):
        ex.parse(bad, allowed=VARS)


def test_operator_overloads_match_helpers():
    x, y = ex.var("x"), ex.var("y")
    e1 = (x + 2) * y - x / 2
    e2 = ex.sub(ex.mul(ex.add(x, ex.num(2)), y), ex.div(x, ex.num(2)))
    assert ex.is_zero(ex.sub(e1, e2), BOX, tol=0)


# ----- evaluation -----

def test_evaluate_broadcasts_arrays():
    e = ex.parse("sin(x) * y + 1", allowed=VARS)
    xv = np.linspace(0, 1, 7)
    yv = np.full(7, 2.0)
    out = ex.evaluate(e, {"x": xv, "y": yv})
    assert out.shape == (7,)
    assert np.allclose(out, np.sin(xv) * 2 + 1)


def test_evaluate_missing_variable():
    with pytest.raises(Exception):
        ex.evaluate(ex.var("x"), {})


# ----- sampling -----

def test_halton_deterministic():
    p1 = [ex.halton_point(BOX, i, seed=42) for i in range(8)]
    p2 = [ex.halton_point(BOX, i, seed=42) for i in range(8)]
    assert p1 == p2
    p3 = [ex.halton_point(BOX, i, seed=43) for i in range(8)]
    assert p1 != p3


def test_halton_points_keep_their_values_and_have_no_dimension_cap():
    box = {f"v{i:02d}": (-1.0, 1.0) for i in range(18)}
    for trial, want in ((0, (0.71875, -0.9262782401902497, 0.9344262295081969)),
                        (5, (-0.984375, -0.5814506539833532,
                             -0.9011018543402312))):
        p = ex.halton_point(box, trial, 42)
        assert (p["v00"], p["v09"], p["v17"]) == want
    # a 30-dimensional box samples inside the box, one prime per axis
    wide = {f"w{i:02d}": (0.0, 1.0) for i in range(30)}
    pts = [ex.halton_point(wide, i, 7) for i in range(16)]
    assert all(0.0 <= v < 1.0 for p in pts for v in p.values())
    assert len({p["w29"] for p in pts}) == 16
    assert ex._primes(30)[:30][-3:] == [107, 109, 113]


def test_is_zero_accepts_identity_and_rejects_nonzero():
    e = ex.parse("sin(x)^2 + cos(x)^2 - 1", allowed=VARS)
    assert ex.is_zero(e, BOX)
    assert not ex.is_zero(ex.parse("x*y", allowed=VARS), BOX)


def test_max_abs_reports_witness():
    val, pt = ex.max_abs(ex.parse("x", allowed=VARS), {"x": (-1.0, 1.0)},
                         trials=64, seed=ex.DEFAULT_SEED)
    assert 0.5 < val <= 1.0
    assert abs(abs(pt["x"]) - val) < 1e-12
