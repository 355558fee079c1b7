import inspect
import json
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("e, x", [
    (ex.pow_(ex.add(ex.var("x"), 1), 200), 1e5),      # a float's power
    (ex.pow_(ex.exp(ex.var("x")), 200), 5.0),         # a numpy scalar's
    (ex.pow_(ex.mul(ex.var("x"), ex.var("x")), -40), 1e-5)])
def test_a_scalar_power_that_overflows_is_one_evaluation_error(e, x):
    with pytest.raises(ex.EvaluationError, match="^power overflow$") as err:
        ex.evaluate(e, {"x": x})
    assert err.value.point == {"x": x}


# exp(x) * exp(2x), which overflows for x above 709.78 / 3
OVERFLOWING = ex.mul(ex.exp(ex.var("x")), ex.exp(ex.mul(2, ex.var("x"))))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("e, point", [
    # a product of scalars from exp, the sine of its inf, and an array's
    # power
    (OVERFLOWING, {"x": 300.0}),
    (ex.sin(OVERFLOWING), {"x": 300.0}),
    (ex.pow_(ex.var("x"), 200), {"x": np.linspace(1, 1e5, 5)})])
def test_an_overflow_is_one_evaluation_error(e, point):
    with pytest.raises(ex.EvaluationError, match="^non-finite result$") as err:
        ex.evaluate(e, point)
    assert err.value.point is point


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sampler", [ex.max_abs, ex.is_zero])
@pytest.mark.parametrize("e", [OVERFLOWING, ex.sin(OVERFLOWING)])
def test_sampling_an_overflow_is_one_evaluation_error(sampler, e):
    """The array pass overflows on every point, with no numpy warning; the
    first point raises the error."""
    box = {"x": (290.0, 300.0)}
    with pytest.raises(ex.EvaluationError, match="^non-finite result$") as err:
        sampler(e, box)
    assert err.value.point == ex.halton_point(box, 0, ex.DEFAULT_SEED)


@pytest.mark.filterwarnings("error")
def test_sampling_a_power_that_overflows_names_the_point():
    e = ex.pow_(ex.exp(ex.var("x")), 200)
    with pytest.raises(ex.EvaluationError, match="power overflow") as err:
        ex.max_abs(e, {"x": (4.0, 6.0)})
    assert ex.evaluate(e, {"x": 3.0}) == float(np.exp(3.0)) ** 200
    assert err.value.point["x"] > 3.5


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
    """(point, value) at each trial, from halton_point and a scalar
    evaluate; a guard tripped because the box lacks a variable of e is a
    ValueError that names the missing variables."""
    for i in range(trials):
        pt = ex.halton_point(box, i, seed)
        try:
            value = ex.evaluate(e, pt)
        except ex.EvaluationError:
            missing = ex.free_vars(e) - set(box)
            if missing:
                raise ValueError(f"box is missing variables: "
                                 f"{sorted(missing)}") from None
            raise
        yield pt, value


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
    ex._HALTON_CACHE.clear()     # build the sample set, not a cached one,
    ex._HALTON_ROWS.clear()      # from radical inverses built for it
    assert (_trace(ex.sample_values(e, box, **kw))
            == _trace(_reference_values(e, *args)))
    assert (_trace(_once(lambda: ex.max_abs(e, box, **kw)))
            == _trace(_once(lambda: _reference_max_abs(e, *args))))
    for f in (e, ex.sub(e, e)):
        assert (_trace(_once(lambda: ex.is_zero(f, box, tol=1e-9, **kw)))
                == _trace(_once(lambda: _reference_is_zero(f, *args))))


def _outcome(run):
    """run() exactly, or the error it raised as (type, message, point)."""
    try:
        return _exactly(run())
    except (ArithmeticError, ValueError) as err:
        return (type(err), str(err), _exactly(getattr(err, "point", None)))


# Rewrites of a drawn tree: 1.0 wherever it is not 0, so every point ties
# for the maximum; 1 + e/2**52, which takes few distinct values, so some
# points tie; and e - e, which is 0 everywhere
REWRITES = {
    "as drawn": lambda e: e,
    "every point ties": lambda e: _or_first(ex.div)((e, e)),
    "some points tie": lambda e: ex.add(ex.ONE, ex.mul(
        ex.num(Fraction(1, 2 ** 52)), e)),
    "zero": lambda e: ex.sub(e, e),
}


@settings(max_examples=200, deadline=None)
@given(wide_exprs, st.sampled_from(sorted(REWRITES)),
       st.dictionaries(st.sampled_from(VARS),
                       st.sampled_from(((-1.0, 1.0), (0.25, 0.25), (-1, 2)))),
       st.one_of(st.none(), st.integers(0, 63)), st.sampled_from((1, 7, 64)),
       st.integers(0, 2 ** 31))
def test_is_zero_and_max_abs_equal_a_pointwise_reference(e, rewrite, box,
                                                          pole, trials, seed):
    # Boxes may lack variables of the tree (a ValueError naming them) and
    # may pin a coordinate (every point the same there, so values tie); a
    # pole added at sample point `pole` trips a guard there, after the
    # points before it, where is_zero may already have decided.
    e = REWRITES[rewrite](e)
    if pole is not None and "x" in box and pole < trials:
        e = ex.add(e, _pole_at(box, pole, seed))
    args, kw = (box, trials, seed), dict(trials=trials, seed=seed)
    assert (_outcome(lambda: ex.max_abs(e, box, **kw))
            == _outcome(lambda: _reference_max_abs(e, *args)))
    assert (_outcome(lambda: ex.is_zero(e, box, tol=1e-9, **kw))
            == _outcome(lambda: _reference_is_zero(e, *args)))


def _sampled(cases):
    """Per case (tree text, box, trials, seed, tol): what sample_values
    yields, then is_zero, then max_abs, each float by its bits and an error
    as [type, message, point], then whether the column pass went through
    without a guard trip.  Self-contained, so that a child process can run
    its source."""
    from jacobisigma import expr as ex

    def exact(v):
        if isinstance(v, dict):
            return [[k, exact(u)] for k, u in v.items()]
        if isinstance(v, (list, tuple)):
            return [exact(u) for u in v]
        return v.hex() if isinstance(v, float) else v

    def outcome(items):
        out = []
        try:
            for item in items():
                out.append(exact(item))
        except (ArithmeticError, ValueError) as err:
            out.append([type(err).__name__, str(err),
                        exact(getattr(err, "point", None))])
        return out

    res = []
    for text, box, trials, seed, tol in cases:
        e, kw = ex.parse(text), dict(trials=trials, seed=seed)
        box = {n: tuple(b) for n, b in box.items()}
        cols = ex._halton_set(box, trials, seed)
        res.append([outcome(lambda: ex.sample_values(e, box, **kw)),
                    outcome(lambda: [ex.is_zero(e, box, tol=tol, **kw)]),
                    outcome(lambda: [ex.max_abs(e, box, **kw)]),
                    isinstance(ex._point_values(e, cols, trials), list)])
    return res


def walk_nodes(child):
    """The nodes the walk takes: rational ones, sin and cos."""
    return st.one_of(
        st.tuples(child, child).map(lambda ab: ex.sub(*ab)),
        st.tuples(child, child).map(lambda ab: ex.mul(*ab)),
        st.tuples(child, child).map(_or_first(ex.div)),
        st.tuples(child, st.integers(-3, 60)).map(_or_first(ex.pow_)),
        child.map(ex.sin),
        child.map(ex.cos),
    )


# boxes that may lack a variable of the tree, pin a coordinate, put a
# denominator under 1e-12 or make a power or product overflow (and a sine
# or cosine of it nan)
_walk_boxes = st.dictionaries(st.sampled_from(VARS), st.sampled_from((
    (-1.0, 1.0), (0.25, 0.25), (-1, 2), (-1e-13, 1e-13), (1e100, 1e120))))


@st.composite
def _walk_cases(draw):
    e = draw(st.recursive(st.one_of(leaves(), st.just(ex.PI)),
                          walk_nodes, max_leaves=10))
    box, trials = draw(_walk_boxes), draw(st.integers(1, 70))
    seed, pole = draw(st.integers(0, 2 ** 31)), draw(st.integers(0, 80))
    if "x" in box and pole < trials:     # a pole at sample point `pole`
        e = ex.add(e, _pole_at(box, pole, seed))
    return [ex.to_text(e), box, trials, seed, draw(st.sampled_from((0, 1e-9)))]


@settings(max_examples=10, deadline=None)
@given(st.lists(_walk_cases(), min_size=1, max_size=30))
@example([["sin(x*y)", {"x": (1e200, 1e220), "y": (1e200, 1e220)}, 8, 3,
           0],                                                 # sin(inf)
          ["cos(x*y) + sin(x)^3", {"x": (-4, 4), "y": (-100, 100)}, 70, 5,
           1e-9],
          # a constant over a column, and a denominator of exactly 1e-12,
          # which no guard refuses
          ["3/(x + 2) - y/(1 + x^2)", {"x": (-1, 1), "y": (0, 2)}, 16, 5, 0],
          ["1/x", {"x": (1e-12, 1e-12)}, 3, 1, 0]])
def test_the_walk_without_numpy_equals_the_array_pass(cases):
    """A one-shot command in which numpy cannot be imported samples trees
    without exp or log (sin and cos by libm) by one pass over columns of
    Python floats; this process, with numpy loaded, by the array pass.
    Values, verdicts, witnesses and the first error are the same, bit for
    bit, and a guard trips on the columns where it trips on the arrays."""
    cases = json.loads(json.dumps(cases))
    # a one-shot command (as cli.main marks it) without numpy
    code = ("import json, sys\nsys.modules['numpy'] = None\n"
            "import jacobisigma.expr\njacobisigma.expr._one_shot = True\n"
            + inspect.getsource(_sampled)
            + "print(json.dumps(_sampled(json.loads(sys.stdin.read()))))")
    child = subprocess.run([sys.executable, "-c", code], input=json.dumps(cases),
                           env=dict(os.environ, PYTHONPATH=str(
                               Path(__file__).resolve().parents[1] / "src")),
                           capture_output=True, text=True, check=True)
    assert sys.modules.get("numpy") is not None
    assert json.loads(child.stdout) == _sampled(cases)


@pytest.mark.parametrize("one_shot, float_sets", [
    (True, 20),                     # a one-shot command, as cli.main sets
    (False, 0)], ids=["command", "library"])
def test_a_command_samples_on_floats_and_a_library_on_arrays(one_shot,
                                                             float_sets):
    """Without numpy a one-shot command samples every set on columns of
    Python floats, however many, and never loads numpy; a library process
    loads numpy at its first set, for the array pass.  Values and witnesses
    are those of the array pass throughout."""
    e, box = "x*y/(1 + x^2) - y^3 + pi*x", {"x": (-1.0, 1.0), "y": (0, 2)}
    code = ("import json, sys\nfrom jacobisigma import expr as ex\n"
            f"ex._one_shot = {one_shot}\n"
            f"e, box, out = ex.parse({e!r}), {box!r}, []\n"
            "for seed in range(20):\n"
            "    m, w = ex.max_abs(e, box, trials=512, seed=seed)\n"
            "    out.append([m.hex(), w, 'numpy' in sys.modules])\n"
            "print(json.dumps(out))")
    child = subprocess.run([sys.executable, "-c", code],
                           env=dict(os.environ, PYTHONPATH=str(
                               Path(__file__).resolve().parents[1] / "src")),
                           capture_output=True, text=True, check=True)
    got = json.loads(child.stdout)
    assert ([loaded for *_, loaded in got]
            == [False] * float_sets + [True] * (20 - float_sets))
    for seed, (m, w, _) in enumerate(got):
        want = ex.max_abs(ex.parse(e), box, trials=512, seed=seed)
        assert [m, w] == [want[0].hex(), want[1]]


@pytest.mark.parametrize("fn", ["sin", "cos"])
def test_numpy_sin_and_cos_equal_libms(fn):
    """The walk takes libm's sin and cos and the array pass numpy's, so a
    report would depend on numpy's presence where they differed.  On this
    platform they must agree bit for bit: 10^5 seeded arguments each on
    [-4, 4], [-100, 100] and magnitudes 2^-1074 .. 2^1023 of either
    sign."""
    rng = np.random.default_rng(0x51C05)
    n = 100_000
    args = np.concatenate((
        rng.uniform(-4, 4, n), rng.uniform(-100, 100, n),
        np.exp2(rng.uniform(-1074, 1023, n)) * rng.choice((-1.0, 1.0), n)))
    libm = getattr(math, fn)
    got = getattr(np, fn)(args).tolist()
    want = [libm(x) for x in args.tolist()]
    bad = [x for x, a, b in zip(args.tolist(), got, want)
           if a.hex() != b.hex()]
    assert not bad, f"{len(bad)} differ, first at {bad[0]!r}"


def test_max_abs_witness_is_the_first_maximum():
    box, seed = {"x": (-1.0, 1.0), "y": (0.25, 0.25)}, 3
    for e in (ex.div(ex.var("x"), ex.var("x")), ex.var("y"),
              ex.sub(ex.var("x"), ex.var("x"))):
        assert ex.max_abs(e, box, seed=seed)[1] == ex.halton_point(box, 0, seed)
    # 1 + x/2**52 rounds to 1 + 2**-52 at most, at several points, the
    # first of them not point 0
    e = REWRITES["some points tie"](ex.var("x"))
    m, witness = ex.max_abs(e, box, seed=seed)
    first = next(i for i in range(64)
                 if ex.evaluate(e, ex.halton_point(box, i, seed)) == m)
    assert first > 0 and m == 1 + 2 ** -52
    assert witness == ex.halton_point(box, first, seed)
    assert list(witness) == ["x", "y"]


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
        assert len(ex._HALTON_ROWS) <= ex._CACHE_ENTRIES
    big = ex._CACHE_COORDS // len(box) + 1
    ex.max_abs(ex.var("y"), box, trials=big)
    assert all(key[1] != big for key in ex._HALTON_CACHE)
    assert all(key[0] != big for key in ex._HALTON_ROWS)
    # the shared rows and columns cannot be written through
    cols = ex._halton_set(box, 4, 3)
    for arr in [*ex._HALTON_ROWS.values(), *cols.values()]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 99.0
    pts = ex.halton_points(box, 4, 3)
    pts[0]["x"] = 99.0
    _, witness = ex.max_abs(ex.var("x"), box, trials=4, seed=3)
    witness["y"] = 99.0
    assert ex.halton_points(box, 4, 3) == [ex.halton_point(box, i, 3)
                                           for i in range(4)]


def _exact_set(points, cols):
    """A sample set exactly: its points, and its columns in key order."""
    return ([_exactly(p) for p in points],
            [(n, [_exactly(v) for v in c.tolist()]) for n, c in cols.items()])


def _reference_set(box, trials, seed):
    points = [ex.halton_point(box, i, seed) for i in range(trials)]
    return points, {n: np.array([p[n] for p in points]) for n in sorted(box)}


def _built_set(box, trials, seed):
    """The sample set as the sampler hands it out: halton_points, and the
    columns _halton_set keeps."""
    return (ex.halton_points(box, trials, seed),
            ex._halton_set(box, trials, seed))


# ints, fractions, and floats of every size (subnormals, signed zeros and
# infinities too, so a coordinate can be -0.0 or nan)
_bounds = st.tuples(*[st.one_of(
    st.integers(-10, 10),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.floats(allow_nan=False))] * 2)
_requests = st.lists(st.tuples(
    st.lists(_bounds, max_size=40), st.integers(0, 1), st.integers(0, 1),
    st.sampled_from(("keep", "drop sets", "drop rows"))),
    min_size=1, max_size=6)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 100), min_size=2, max_size=2),
       st.lists(st.integers(), min_size=2, max_size=2), _requests,
       st.sampled_from((1, 40, ex._DIGIT_BLOCK)))
@example([8, 3], [0, -1], [([(-0.0, -5e-324)], 0, 0, "keep")],  # -0.0 points
         ex._DIGIT_BLOCK)
def test_halton_sets_equal_halton_point_in_any_build_order(trials, seeds,
                                                           requests, block):
    # Two (trials, seed) pairs per example, so the rows of one are built
    # cold, grown by a wider box, reused by a narrower one, and (in caches
    # shrunk to two entries) evicted and built again; small digit blocks
    # split the trials into several passes.
    ex._HALTON_CACHE.clear()
    ex._HALTON_ROWS.clear()
    with mock.patch.object(ex, "_CACHE_ENTRIES", 2), \
            mock.patch.object(ex, "_CACHE_COORDS", 1200), \
            mock.patch.object(ex, "_DIGIT_BLOCK", block):
        for bounds, ti, si, then in requests:
            # inserted in an order that differs from the sorted one
            box = {f"v{i}": b for i, b in reversed(list(enumerate(bounds)))}
            args = (box, trials[ti], seeds[si])
            want = _exact_set(*_reference_set(*args))
            assert _exact_set(*_built_set(*args)) == want
            assert len(ex._HALTON_ROWS) <= 2
            if then == "drop sets":
                ex._HALTON_CACHE.clear()
            elif then == "drop rows":
                ex._HALTON_ROWS.clear()


def test_halton_rows_are_shared_grown_and_rebuilt():
    ex._HALTON_CACHE.clear()
    ex._HALTON_ROWS.clear()
    wide = {f"w{i}": (-1.0, float(i)) for i in range(5)}
    narrow = {"a": (0, 1), "b": (Fraction(1, 3), 2)}
    ex._halton_set(narrow, 16, 9)
    cold = ex._HALTON_ROWS[(16, 9)]
    assert cold.shape == (2, 16)
    ex._halton_set(wide, 16, 9)                  # grows the same entry
    grown = ex._HALTON_ROWS[(16, 9)]
    assert grown.shape == (5, 16) and np.array_equal(grown[:2], cold)
    ex._HALTON_CACHE.clear()
    ex._halton_set(narrow, 16, 9)                # reuses the wider rows
    assert ex._HALTON_ROWS[(16, 9)] is grown
    for seed in range(ex._CACHE_ENTRIES):        # evicts them
        ex._halton_set(narrow, 16, 100 + seed)
    assert (16, 9) not in ex._HALTON_ROWS
    ex._HALTON_CACHE.clear()
    assert (_exact_set(*_built_set(wide, 16, 9))
            == _exact_set(*_reference_set(wide, 16, 9)))
    assert np.array_equal(ex._HALTON_ROWS[(16, 9)], grown)


def test_pow_rejects_a_non_integer_exponent():
    for base, k in ((ex.var("x"), 1.5), (ex.num(2), 0.5),
                    (ex.var("x"), Fraction(1, 2))):
        with pytest.raises(TypeError, match="integer exponents only"):
            ex.pow_(base, k)
    # under python -O too, where an assert would be stripped
    code = ("from jacobisigma import expr as ex\n"
            "for b, k in ((ex.var('x'), 1.5), (ex.num(2), 0.5)):\n"
            "    try:\n"
            "        ex.pow_(b, k)\n"
            "    except TypeError:\n"
            "        continue\n"
            "    raise SystemExit(f'pow_({b}, {k}) was built')\n")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stdout + out.stderr


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


@pytest.mark.parametrize("name", ["pi", "sin", "cos", "exp", "log"])
def test_var_rejects_reserved_names(name):
    with pytest.raises(ValueError, match="reserved name"):
        ex.var(name)
