"""differentiate memoises the derivative of an inner node on the node, per
variable name.  The memo must be invisible to ==, hash and repr, serve a
repeated call with the same object, never answer for another variable, and
keep nothing of a derivative that raised."""

from hypothesis import given, settings
from hypothesis import strategies as st

from jacobisigma import expr as ex

NAMES = ("x", "y", "z")

TEXTS = ("x*y + sin(x)^2", "exp(x*z)/(1 + y^2)", "log(2 + x*y) - 3/4*z",
         "cos(x - y)*(x + 1)^3", "x/y + y/x", "x*y*z + x*y + x", "pi*x^2")


def inner_nodes(e):
    """The inner nodes of e, each object once, parents before children."""
    seen, out = set(), []

    def visit(t):
        if isinstance(t, (ex.Num, ex.Var, ex.Pi)) or id(t) in seen:
            return
        seen.add(id(t))
        out.append(t)
        children = {ex.Add: lambda: t.terms, ex.Mul: lambda: t.factors,
                    ex.Pow: lambda: (t.base,), ex.Div: lambda: (t.num, t.den),
                    ex.Fn: lambda: (t.arg,)}[type(t)]()
        for c in children:
            visit(c)
    visit(e)
    return out


def texts():
    leaves = st.one_of(st.sampled_from(NAMES),
                       st.sampled_from(("1", "2", "1/3", "pi")))

    def grow(child):
        return st.one_of(
            st.tuples(child, st.sampled_from("+-*/"), child)
            .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(st.sampled_from(("sin", "cos", "exp")), child)
            .map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(child, st.integers(-2, 3))
            .map(lambda t: f"({t[0]})^{t[1]}"))
    return st.one_of(st.sampled_from(TEXTS),
                     st.recursive(leaves, grow, max_leaves=8))


def parse(text):
    try:
        return ex.parse(text)
    except ZeroDivisionError:       # a constant divided by zero
        return None


@settings(max_examples=150, deadline=None)
@given(texts(), st.lists(st.sampled_from(NAMES), min_size=1, max_size=4))
def test_memo_is_invisible_and_per_variable(text, order):
    e = parse(text)
    if e is None:
        return
    # each variable's derivative, taken alone on a fresh tree
    want = {n: ex.differentiate(ex.parse(text), n) for n in NAMES}
    for n in order:
        got = ex.differentiate(e, n)
        assert got == want[n] and repr(got) == repr(want[n])
        assert ex.differentiate(e, n) is got
        for t in inner_nodes(e):
            ex.differentiate(t, n)
    try:
        ex.evaluate(e, {n: 1.0 for n in NAMES})
    except ex.EvaluationError:
        pass
    fresh = ex.parse(text)
    assert e == fresh and hash(e) == hash(fresh) and repr(e) == repr(fresh)
    assert ex.to_text(e) == ex.to_text(fresh)
    assert all(ex.differentiate(e, n) == want[n] for n in NAMES)


def test_a_node_keeps_one_derivative_per_variable():
    e = ex.parse("x*y + sin(x)^2")
    dx, dy = ex.differentiate(e, "x"), ex.differentiate(e, "y")
    assert dx == ex.parse("y + 2*sin(x)*cos(x)")
    assert dy == ex.parse("x")
    assert ex.differentiate(e, "x") is dx and ex.differentiate(e, "y") is dy
    assert ex.differentiate(e, "z") is ex.ZERO
    # the memo lives in the instance, not in a field
    assert set(e.__dict__) == {"terms", "_d"}
    assert e == ex.parse("x*y + sin(x)^2")


def test_a_derivative_that_raises_is_not_kept():
    bad = ex.log(ex.ZERO)
    e = ex.add(ex.var("x"), ex.mul(ex.var("y"), bad))
    for _ in range(2):
        for node in (bad, e):
            try:
                ex.differentiate(node, "x")
            except ZeroDivisionError:
                pass
            else:
                raise AssertionError("d log(0) / dx was built")
            assert "_d" not in node.__dict__
    assert e == ex.add(ex.var("x"), ex.mul(ex.var("y"), ex.log(ex.ZERO)))


def test_evaluation_caches_a_constant_float_invisibly():
    c = ex.Num(ex.Fraction(1, 3))
    assert ex.evaluate(ex.mul(c, ex.var("x")), {"x": 3.0}) == 1.0 / 3 * 3.0
    assert c == ex.Num(ex.Fraction(1, 3)) and repr(c) == "Num(value=Fraction(1, 3))"
    assert hash(c) == hash(ex.Num(ex.Fraction(1, 3)))
