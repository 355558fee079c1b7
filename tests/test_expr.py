import math
import operator
from fractions import Fraction

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


# ----- the batched sampler against the per-point reference -----

def _or_first(f):
    """f(*args), or the first argument where the constructor refuses a
    constant zero denominator."""
    def build(args):
        try:
            return f(*args)
        except ZeroDivisionError:
            return args[0]
    return build


def wide_nodes(child):
    return st.one_of(
        st.tuples(child, child).map(lambda ab: ex.add(*ab)),
        st.tuples(child, child).map(lambda ab: ex.sub(*ab)),
        st.tuples(child, child).map(lambda ab: ex.mul(*ab)),
        st.tuples(child, child).map(_or_first(ex.div)),
        st.tuples(child, st.integers(-3, 5)).map(_or_first(ex.pow_)),
        st.tuples(st.sampled_from((ex.sin, ex.cos, ex.exp, ex.log)),
                  child).map(lambda fa: fa[0](fa[1])),
    )


# guards trip on some of these trees (log of a negative, tiny denominators)
wide_exprs = st.recursive(st.one_of(leaves(), st.just(ex.PI)), wide_nodes,
                          max_leaves=10)


def _reference_values(e, box, trials, seed):
    for i in range(trials):
        pt = ex.halton_point(box, i, seed)
        yield pt, ex.evaluate(e, pt)


def _reference_max_abs(e, box, trials, seed):
    if not ex.free_vars(e):
        return abs(ex.evaluate(e, {})), {}
    best, best_pt = -1.0, None
    for pt, v in _reference_values(e, box, trials, seed):
        if abs(v) > best:
            best, best_pt = abs(v), pt
    return best, best_pt


def _reference_is_zero(e, box, trials, seed, tol=1e-9):
    if not ex.free_vars(e):
        return abs(ex.evaluate(e, {})) <= tol
    return all(abs(v) <= tol for _, v in _reference_values(e, box, trials, seed))


def _exactly(v):
    """A value by type and bits, so 0.0 and -0.0 differ; a point by its
    keys in order and their values."""
    if isinstance(v, tuple):
        return tuple(_exactly(u) for u in v)
    if isinstance(v, dict):
        return tuple((k, _exactly(u)) for k, u in v.items())
    return (type(v), v.hex()) if isinstance(v, float) else v


def _trace(items):
    """Each item, exactly, then the error that stopped the iteration as
    (type, message, point)."""
    out = []
    try:
        for item in items:
            out.append(_exactly(item))
    except ArithmeticError as err:
        out.append((type(err), str(err), getattr(err, "point", None)))
    return out


def _once(run):
    yield run()


# 15 coordinates, inserted in an order that differs from the sorted one
# (v10 sorts before v2), with float and integer bounds
WIDE_BOX = dict({f"v{i}": (i / 8 - 1.0, 1.0 + i / 3) for i in range(12)},
                x=(-1, 2), y=(0.25, 0.75), z=(-1.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(wide_exprs, st.sampled_from((BOX, WIDE_BOX)), st.sampled_from((1, 7, 64)),
       st.integers(0, 2 ** 31))
def test_batched_sampling_matches_pointwise_evaluation(e, box, trials, seed):
    args = (box, trials, seed)
    kw = dict(trials=trials, seed=seed)
    ex._HALTON_CACHE.clear()     # build the sample set, not a cached one
    assert (_trace(ex.sample_values(e, box, **kw))
            == _trace(_reference_values(e, *args)))
    assert (_trace(_once(lambda: ex.max_abs(e, box, **kw)))
            == _trace(_once(lambda: _reference_max_abs(e, *args))))
    for f in (e, ex.sub(e, e)):
        assert (_trace(_once(lambda: ex.is_zero(f, box, tol=1e-9, **kw)))
                == _trace(_once(lambda: _reference_is_zero(f, *args))))


@pytest.mark.parametrize("trials", [0, -1])
def test_sampling_needs_at_least_one_trial(trials):
    x = ex.var("x")
    with pytest.raises(ValueError, match="trials"):
        next(ex.sample_values(x, BOX, trials=trials))
    with pytest.raises(ValueError, match="trials"):
        ex.max_abs(x, BOX, trials=trials)
    with pytest.raises(ValueError, match="trials"):
        ex.is_zero(x, BOX, trials=trials)
    # a box without coordinates still has one (empty) point per trial
    assert list(ex.sample_values(ex.num(2), {}, trials=3)) == [({}, 2.0)] * 3


def _pole_at(box, trial, seed):
    """1/(x - c) with c the x-coordinate of the given sample point."""
    c = ex.halton_point(box, trial, seed)["x"]
    return ex.div(ex.ONE, ex.sub(ex.var("x"), ex.num(c)))


def test_sampling_error_names_the_first_bad_point():
    box, seed = {"x": (-1.0, 1.0), "y": (0.0, 2.0)}, 97
    e = _pole_at(box, 5, seed)
    seen = []
    with pytest.raises(ex.EvaluationError) as err:
        for pt, _ in ex.sample_values(e, box, seed=seed):
            seen.append(pt)
    assert err.value.point == ex.halton_point(box, 5, seed)
    assert seen == [ex.halton_point(box, i, seed) for i in range(5)]
    with pytest.raises(ex.EvaluationError) as err:
        ex.max_abs(e, box, seed=seed)
    assert err.value.point == ex.halton_point(box, 5, seed)


def test_is_zero_decides_before_a_later_bad_point():
    box, seed = {"x": (-1.0, 1.0)}, 5
    assert ex.is_zero(_pole_at(box, 9, seed), box, seed=seed) is False


def test_halton_cache_is_bounded_and_hands_out_copies():
    box = {"x": (0.0, 1.0), "y": (-2.0, 2.0)}
    for seed in range(300):
        ex.is_zero(ex.var("x"), box, seed=seed)
        assert len(ex._HALTON_CACHE) <= ex._CACHE_ENTRIES
    big = ex._CACHE_COORDS // len(box) + 1
    ex.max_abs(ex.var("y"), box, trials=big)
    assert all(key[1] != big for key in ex._HALTON_CACHE)
    pts = ex.halton_points(box, 4, 3)
    pts[0]["x"] = 99.0
    _, witness = ex.max_abs(ex.var("x"), box, trials=4, seed=3)
    witness["y"] = 99.0
    assert ex.halton_points(box, 4, 3) == [ex.halton_point(box, i, 3)
                                           for i in range(4)]


# ----- constant folding in add and mul against sequential Fraction folds -----

def _reference_fold(args, node, unit, op):
    """add (node Add, unit 0, op +) or mul (Mul, 1, *) as a sequential
    Fraction fold from the unit over the once-flattened arguments."""
    flat = []
    for a in map(ex.coerce, args):
        flat.extend(getattr(a, "terms" if node is ex.Add else "factors")
                    if isinstance(a, node) else [a])
    const, out = Fraction(unit), []
    for t in flat:
        if isinstance(t, ex.Num):
            const = op(const, t.value)
        else:
            out.append(t)
    if node is ex.Mul and const == 0:
        return ex.ZERO
    if const != unit or not out:
        if node is ex.Add:
            out.append(ex.Num(const))
        else:
            out.insert(0, ex.Num(const))
    return out[0] if len(out) == 1 else node(tuple(out))


fold_consts = st.one_of(
    st.sampled_from((0, 1, -1)).map(ex.num),
    st.fractions(max_denominator=12).map(ex.Num),
    st.sampled_from((0, 1, -1, Fraction(-3, 4), 0.5)))
fold_atoms = st.one_of(fold_consts, st.sampled_from(VARS).map(ex.var),
                       st.just(ex.PI))
# nested sums and products, normal (smart constructors) or raw (several
# constants, zeros and ones left in)
fold_nests = st.one_of(
    st.lists(fold_atoms, min_size=2, max_size=4).map(lambda a: ex.add(*a)),
    st.lists(fold_atoms, min_size=2, max_size=4).map(lambda a: ex.mul(*a)),
    st.lists(fold_atoms, min_size=2, max_size=4).map(
        lambda a: ex.Add(tuple(map(ex.coerce, a)))),
    st.lists(fold_atoms, min_size=2, max_size=4).map(
        lambda a: ex.Mul(tuple(map(ex.coerce, a)))))
fold_args = st.lists(st.one_of(fold_atoms, fold_nests), max_size=6)


@settings(max_examples=300, deadline=None)
@given(fold_args)
def test_add_and_mul_fold_constants_like_sequential_fractions(args):
    assert ex.add(*args) == _reference_fold(args, ex.Add, 0, operator.add)
    assert ex.mul(*args) == _reference_fold(args, ex.Mul, 1, operator.mul)
