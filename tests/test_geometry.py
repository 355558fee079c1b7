import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacobisigma import expr as ex
from jacobisigma import geometry as geo
from jacobisigma.geometry import Chart, SmoothMap

CH3 = Chart(("x", "y", "z"))
RNG_SEED = 20240817


def rand_poly(rng, names, deg=2):
    """Small random polynomial with half-integer coefficients."""
    terms = [ex.num(int(rng.integers(-2, 3)))]
    for _ in range(deg):
        mono = ex.num(int(rng.integers(-2, 3)))
        for n in rng.choice(names, size=int(rng.integers(1, 3))):
            mono = ex.mul(mono, ex.var(str(n)))
        terms.append(mono)
    return ex.div(ex.add(*terms), ex.num(2))


def rand_mvf(rng, chart, degree):
    if degree == 0:
        return geo.scalar(chart, rand_poly(rng, chart.names))
    comps = {}
    for key in itertools.combinations(range(chart.dim), degree):
        if rng.random() < 0.75:
            comps[key] = rand_poly(rng, chart.names)
    return geo.mvf(chart, degree, comps)


def rand_form(rng, chart, degree):
    comps = {}
    for key in itertools.combinations(range(chart.dim), degree):
        comps[key] = rand_poly(rng, chart.names)
    return geo.form(chart, degree, comps)


# ----- storage discipline -----

def test_component_antisymmetry():
    T = geo.mvf(CH3, 2, {("x", "y"): ex.var("z")})
    assert T.component("y", "x") == ex.neg(ex.var("z"))
    assert T.component("x", "z") == ex.ZERO


def test_repeated_index_rejected():
    T = geo.mvf(CH3, 2, {("x", "y"): ex.ONE})
    with pytest.raises(AssertionError):
        T.component("x", "x")


def test_chart_rejects_duplicates():
    with pytest.raises(AssertionError):
        Chart(("x", "x"))


# ----- wedge -----

def test_wedge_graded_commutativity():
    rng = np.random.default_rng(RNG_SEED)
    for p, q in [(1, 1), (1, 2), (2, 1), (0, 2)]:
        A, B = rand_mvf(rng, CH3, p), rand_mvf(rng, CH3, q)
        lhs = geo.wedge(A, B)
        rhs = geo.wedge(B, A).scale((-1) ** (p * q))
        assert geo.is_zero_tensor(lhs - rhs), (p, q)


def test_wedge_associativity():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(4):
        A = rand_mvf(rng, CH3, 1)
        B = rand_mvf(rng, CH3, 1)
        C = rand_mvf(rng, CH3, 0)
        lhs = geo.wedge(geo.wedge(A, B), C)
        rhs = geo.wedge(A, geo.wedge(B, C))
        assert geo.is_zero_tensor(lhs - rhs)


# ----- Schouten bracket -----

def test_schouten_on_vector_fields_is_commutator():
    rng = np.random.default_rng(RNG_SEED + 2)
    f = rand_poly(rng, CH3.names)
    for _ in range(3):
        X, Y = rand_mvf(rng, CH3, 1), rand_mvf(rng, CH3, 1)
        br = geo.schouten(X, Y)
        lhs = geo.vector_apply(br, f)
        rhs = ex.sub(geo.vector_apply(X, geo.vector_apply(Y, f)),
                     geo.vector_apply(Y, geo.vector_apply(X, f)))
        assert ex.is_zero(ex.sub(lhs, rhs), CH3.sample_box())


def test_schouten_vector_on_function_is_derivative():
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(5):
        X = rand_mvf(rng, CH3, 1)
        f = rand_mvf(rng, CH3, 0)
        br = geo.schouten(X, f)
        want = geo.vector_apply(X, f.component())
        assert ex.is_zero(ex.sub(br.component(), want), CH3.sample_box())


def test_schouten_graded_symmetry():
    rng = np.random.default_rng(RNG_SEED + 4)
    for p, q in [(1, 2), (2, 2), (1, 1), (2, 0)]:
        P, Q = rand_mvf(rng, CH3, p), rand_mvf(rng, CH3, q)
        lhs = geo.schouten(P, Q)
        rhs = geo.schouten(Q, P).scale(-((-1) ** ((p - 1) * (q - 1))))
        assert geo.is_zero_tensor(lhs - rhs), (p, q)


def test_schouten_graded_jacobi():
    rng = np.random.default_rng(RNG_SEED + 5)
    for degs in [(1, 1, 2), (1, 2, 2), (2, 2, 2), (0, 1, 2)]:
        P, Q, R = (rand_mvf(rng, CH3, d) for d in degs)
        p, q, r = degs
        total = (
            geo.schouten(P, geo.schouten(Q, R)).scale((-1) ** ((p - 1) * (r - 1)))
            + geo.schouten(Q, geo.schouten(R, P)).scale((-1) ** ((q - 1) * (p - 1)))
            + geo.schouten(R, geo.schouten(P, Q)).scale((-1) ** ((r - 1) * (q - 1))))
        assert geo.is_zero_tensor(total), degs


def test_schouten_against_bracket_pairing():
    # the anchor convention: contracting [Lam, Lam] with df^dg^dh gives
    # twice the cyclic defect of the bivector bracket {f,g} = <Lam, df^dg>
    rng = np.random.default_rng(RNG_SEED + 6)
    box = CH3.sample_box()
    for _ in range(3):
        lam = rand_mvf(rng, CH3, 2)
        f, g, h = (rand_poly(rng, CH3.names) for _ in range(3))

        def br(a, b):
            return geo.full_contract(lam, geo.wedge(_d(a), _d(b)))

        jac = ex.add(br(f, br(g, h)), br(g, br(h, f)), br(h, br(f, g)))
        paired = geo.full_contract(geo.schouten(lam, lam),
                                   geo.wedge(geo.wedge(_d(f), _d(g)), _d(h)))
        assert ex.is_zero(ex.sub(paired, ex.mul(ex.num(2), jac)), box)


def _d(f):
    return geo.de_rham(geo.form(CH3, 0, {(): f}))


# ----- de Rham -----

def test_de_rham_squared_zero():
    rng = np.random.default_rng(RNG_SEED + 7)
    for deg in (0, 1):
        w = rand_form(rng, CH3, deg)
        dd = geo.de_rham(geo.de_rham(w))
        assert geo.is_zero_tensor(dd), deg


def test_de_rham_leibniz():
    rng = np.random.default_rng(RNG_SEED + 8)
    f = rand_form(rng, CH3, 0)
    w = rand_form(rng, CH3, 1)
    fw = geo.wedge(f, w)
    lhs = geo.de_rham(fw)
    rhs = geo.wedge(geo.de_rham(f), w) + geo.wedge(f, geo.de_rham(w))
    assert geo.is_zero_tensor(lhs - rhs)


# ----- tangent lift -----

def test_tangent_lift_fiberwise_linear():
    # base-base block vanishes, base-velocity block is velocity-free,
    # velocity-velocity block is homogeneous of degree 1 in the velocities
    rng = np.random.default_rng(RNG_SEED + 9)
    P = rand_mvf(rng, CH3, 2)
    L = geo.tangent_lift(P)
    nb = CH3.dim
    dotted = L.chart.names[nb:]
    box = L.chart.sample_box()
    for (i, j), val in L.comps.items():
        if j < nb:
            assert ex.is_zero(val, box), (i, j)
        elif i < nb:
            assert not (ex.free_vars(val) & set(dotted)), (i, j)
        else:
            euler = ex.neg(val)
            for d in dotted:
                euler = ex.add(euler, ex.mul(ex.var(d), ex.differentiate(val, d)))
            assert ex.is_zero(euler, box), (i, j)


def test_tangent_lift_respects_schouten():
    rng = np.random.default_rng(RNG_SEED + 10)
    for _ in range(3):
        P, Q = rand_mvf(rng, CH3, 2), rand_mvf(rng, CH3, 2)
        lhs = geo.schouten(geo.tangent_lift(P), geo.tangent_lift(Q))
        rhs = geo.tangent_lift(geo.schouten(P, Q))
        assert geo.is_zero_tensor(lhs - rhs)


# ----- maps -----

def _diffeo_pair():
    ch1 = Chart(("a", "b"), {"a": (-1.0, 1.0), "b": (-1.0, 1.0)})
    ch2 = Chart(("p", "q"), {"p": (-1.5, 1.5), "q": (-1.0, 1.0)})
    a, b = ex.var("a"), ex.var("b")
    p, q = ex.var("p"), ex.var("q")
    fwd = SmoothMap(ch1, ch2, {"p": a + ex.div(b, ex.num(2)), "q": b})
    inv = SmoothMap(ch2, ch1, {"a": p - ex.div(q, ex.num(2)), "b": q})
    return fwd, inv


def test_pullback_functorial():
    rng = np.random.default_rng(RNG_SEED + 11)
    fwd, inv = _diffeo_pair()
    ch3 = Chart(("r",), {"r": (-1.0, 1.0)})
    second = SmoothMap(fwd.dst, ch3, {"r": ex.mul(ex.var("p"), ex.var("q"))})
    w = rand_form(rng, ch3, 1)
    lhs = geo.pullback(w, fwd.then(second))
    rhs = geo.pullback(geo.pullback(w, second), fwd)
    assert geo.is_zero_tensor(lhs - rhs)


def test_pullback_commutes_with_d():
    rng = np.random.default_rng(RNG_SEED + 12)
    fwd, _ = _diffeo_pair()
    w = rand_form(rng, fwd.dst, 1)
    lhs = geo.pullback(geo.de_rham(w), fwd)
    rhs = geo.de_rham(geo.pullback(w, fwd))
    assert geo.is_zero_tensor(lhs - rhs)


def test_pushforward_roundtrip():
    rng = np.random.default_rng(RNG_SEED + 13)
    fwd, inv = _diffeo_pair()
    P = rand_mvf(rng, fwd.src, 2)
    back = geo.pushforward(geo.pushforward(P, fwd, inv), inv, fwd)
    assert geo.is_zero_tensor(back - P)


def test_pushforward_pairs_with_pullback():
    # <f_* P, w> = <P, f^* w> composed with the map
    rng = np.random.default_rng(RNG_SEED + 14)
    fwd, inv = _diffeo_pair()
    P = rand_mvf(rng, fwd.src, 2)
    w = rand_form(rng, fwd.dst, 2)
    lhs = geo.full_contract(geo.pushforward(P, fwd, inv), w)
    rhs = inv.apply(geo.full_contract(P, geo.pullback(w, fwd)))
    assert ex.is_zero(ex.sub(lhs, rhs), fwd.dst.sample_box())


# ----- weighted scaling -----

def test_push_scale_degree_tables():
    ch = Chart(("x", "s"), {"x": (-1.0, 1.0), "s": (0.5, 2.0)}, {"s": 1})
    s = ex.var("s")
    # multivector components count weights negatively ...
    T = geo.mvf(ch, 2, {("x", "s"): s})
    assert geo.has_scaling_degree(T, 0)
    assert not geo.has_scaling_degree(T, 1)
    Tinv = geo.mvf(ch, 2, {("x", "s"): ex.div(ex.ONE, s)})
    assert geo.has_scaling_degree(Tinv, -2)
    # ... form components positively
    w = geo.form(ch, 1, {("s",): s})
    assert geo.has_scaling_degree(w, 2)
    w0 = geo.form(ch, 1, {("x",): s})
    assert geo.has_scaling_degree(w0, 1)


def test_push_scale_name_clash():
    ch = Chart(("nu",))
    with pytest.raises(AssertionError):
        geo.push_scale(geo.mvf(ch, 1, {("nu",): ex.ONE}))


# ----- contractions -----

def test_sharp_reproduces_bivector_bracket():
    rng = np.random.default_rng(RNG_SEED + 15)
    lam = rand_mvf(rng, CH3, 2)
    f, g = rand_poly(rng, CH3.names), rand_poly(rng, CH3.names)
    X = geo.sharp(lam, _d(f))
    lhs = geo.vector_apply(X, g)
    rhs = geo.full_contract(lam, geo.wedge(_d(f), _d(g)))
    assert ex.is_zero(ex.sub(lhs, rhs), CH3.sample_box())


def test_interior_product():
    rng = np.random.default_rng(RNG_SEED + 16)
    X = rand_mvf(rng, CH3, 1)
    w = rand_form(rng, CH3, 2)
    iw = geo.interior(X, w)
    box = CH3.sample_box()
    for j, nj in enumerate(CH3.names):
        want = ex.ZERO
        for i, ni in enumerate(CH3.names):
            if i == j:
                continue
            want = ex.add(want, ex.mul(X.component(i), w.component(i, j)))
        assert ex.is_zero(ex.sub(iw.component(j), want), box), nj


def test_lie_derivative_component_formula():
    rng = np.random.default_rng(RNG_SEED + 17)
    X = rand_mvf(rng, CH3, 1)
    w = rand_form(rng, CH3, 1)
    lw = geo.lie_derivative(X, w)
    box = CH3.sample_box()
    for i, ni in enumerate(CH3.names):
        want = ex.ZERO
        for j, nj in enumerate(CH3.names):
            want = ex.add(
                want,
                ex.mul(X.component(j), ex.differentiate(w.component(i), nj)),
                ex.mul(w.component(j), ex.differentiate(X.component(j), ni)))
        assert ex.is_zero(ex.sub(lw.component(i), want), box), ni


# ----- the trusted construction path -----

NAMES4 = ("w", "x", "y", "z")


def _poly(draw, names):
    """A small polynomial over names, built through the smart constructors;
    sometimes the exact zero, sometimes a constant."""
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        mono = ex.num(draw(st.integers(-3, 3)))
        for n in (draw(st.lists(st.sampled_from(names), max_size=2))
                  if names else ()):
            mono = ex.mul(mono, ex.var(n))
        terms.append(mono)
    e = ex.add(*terms) if terms else ex.ZERO
    return ex.div(e, ex.num(draw(st.sampled_from((1, 2, 3)))))


def _comps(draw, chart, degree):
    """Public-constructor input with some components left out."""
    return {key: _poly(draw, chart.names)
            for key in itertools.combinations(range(chart.dim), degree)
            if draw(st.booleans())}


def _as_built_by_public_constructor(T):
    return list(type(T)(T.chart, T.degree, T.comps).comps.items())


def _sharp_unconditional(B, alpha):
    """sharp with a product for every component of B, zero or not."""
    out = {}
    for (i, j), val in B.comps.items():
        out[(j,)] = ex.add(out.get((j,), ex.ZERO),
                           ex.mul(alpha.comps.get((i,), ex.ZERO), val))
        out[(i,)] = ex.add(out.get((i,), ex.ZERO),
                           ex.neg(ex.mul(alpha.comps.get((j,), ex.ZERO), val)))
    return geo.mvf(B.chart, 1, out)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_public_constructor_is_a_no_op_on_operation_results(data):
    draw = data.draw
    names = NAMES4[:draw(st.integers(1, 4))]
    ch = Chart(names, weights={names[0]: 1})
    n = ch.dim

    def mv(deg):
        return geo.mvf(ch, deg, _comps(draw, ch, deg))

    def fm(deg):
        return geo.form(ch, deg, _comps(draw, ch, deg))

    p, q, r = (draw(st.integers(0, min(n, 3))) for _ in range(3))
    P, Q, w = mv(p), mv(q), fm(r)
    X, B, alpha = mv(1), mv(2), fm(1)
    c = _poly(draw, ch.names)
    # a shear and its inverse: the first coordinate moves by a polynomial
    # in the others
    shift = _poly(draw, ch.names[1:])
    fwd = SmoothMap(ch, ch, {m: ex.add(ex.var(m), shift) if k == 0
                             else ex.var(m) for k, m in enumerate(ch.names)})
    inv = SmoothMap(ch, ch, {m: ex.sub(ex.var(m), shift) if k == 0
                             else ex.var(m) for k, m in enumerate(ch.names)})
    results = [geo.sharp(B, alpha), geo.de_rham(w), geo.schouten(P, Q),
               geo.wedge(P, Q), geo.wedge(w, alpha), geo.interior(X, w),
               P.scale(c), w.scale(-1), P + P.scale(2), w + fm(r), w - w,
               geo.tangent_lift(P), geo.pullback(w, fwd),
               geo.pushforward(P, fwd, inv), geo.push_scale(P),
               geo.push_scale(w)]
    for T in results:
        assert _as_built_by_public_constructor(T) == list(T.comps.items())
        assert all(len(k) == T.degree and list(k) == sorted(set(k))
                   for k in T.comps)
    # a sparse 1-form leaves the order of sharp's components as it was
    assert (list(geo.sharp(B, alpha).comps.items())
            == list(_sharp_unconditional(B, alpha).comps.items()))


def test_sharp_keeps_its_component_order_for_a_sparse_form():
    x, y, z = (ex.var(n) for n in CH3.names)
    B = geo.mvf(CH3, 2, {(0, 1): x, (1, 2): y})
    alpha = geo.form(CH3, 1, {(1,): z, (2,): ex.ONE})   # no dx component
    X = geo.sharp(B, alpha)
    assert list(X.comps) == [(1,), (0,), (2,)]
    assert (list(X.comps.items())
            == list(_sharp_unconditional(B, alpha).comps.items()))
