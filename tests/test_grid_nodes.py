"""Grid fields on the open (u, t) mesh and the RK4 scale transport, each
against the full-array / scalar reference it replaced, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacobisigma import expr as ex
from jacobisigma import sigma as sg

U = ex.var("u")


def _or_first(f):
    """f(*args), or the first argument where the constructor refuses a
    constant zero denominator."""
    def build(args):
        try:
            return f(*args)
        except ZeroDivisionError:
            return args[0]
    return build


def trees(names):
    """Random trees over the names: sin/cos/exp/log, integer powers from -3
    to 5, quotients; guards trip on some of them."""
    leaves = st.one_of(st.sampled_from(names).map(ex.var),
                       st.integers(-3, 3).map(ex.num),
                       st.sampled_from(("1/2", "3/2", "-2/3")).map(ex.num))

    def nodes(child):
        return st.one_of(
            st.tuples(child, child).map(lambda ab: ex.add(*ab)),
            st.tuples(child, child).map(lambda ab: ex.sub(*ab)),
            st.tuples(child, child).map(lambda ab: ex.mul(*ab)),
            st.tuples(child, child).map(_or_first(ex.div)),
            st.tuples(child, st.integers(-3, 5)).map(_or_first(ex.pow_)),
            st.tuples(st.sampled_from((ex.sin, ex.cos, ex.exp, ex.log)),
                      child).map(lambda fa: fa[0](fa[1])))
    return st.recursive(leaves, nodes, max_leaves=10)


def _outcome(run):
    """('ok', array) or ('raised', type, message) of run()."""
    with np.errstate(all="ignore"):
        try:
            return ("ok", run())
        except ArithmeticError as err:
            return ("raised", type(err), str(err))


# ------------------------------------------------------ the open mesh

def _full_mesh_eval(e, grid):
    """The reference: e evaluated on the two full mesh() arrays."""
    UU, TT = grid.mesh()
    v = ex.evaluate(ex.coerce(e), {"u": UU, "t": TT})
    return np.broadcast_to(np.asarray(v, float), UU.shape).copy()


odd_sides = st.integers(1, 32).map(lambda k: 2 * k + 1)   # 3 .. 65


@settings(max_examples=300, deadline=None)
@given(trees(("u", "t")), odd_sides, odd_sides,
       st.sampled_from((1.0, 0.7, 2.5)))
def test_open_mesh_equals_full_mesh(e, nu, nt, t_extent):
    if nu == nt:
        nt = nu + 2 if nu < 65 else nu - 2
    grid = sg.SurfaceGrid(nu, nt, t_extent)
    got = _outcome(lambda: sg._grid_eval(e, grid))
    want = _outcome(lambda: _full_mesh_eval(e, grid))
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got == want
        return
    a, b = got[1], want[1]
    assert a.shape == b.shape == (nu, nt) and a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert np.array_equal(a.view(np.int64), b.view(np.int64))   # -0.0 too


def test_open_mesh_result_is_a_fresh_full_array():
    grid = sg.SurfaceGrid(5, 7)
    a = sg._grid_eval(ex.sin(U), grid)
    assert a.shape == (5, 7) and a.flags.writeable and a.flags.owndata
    a[0, 0] = 9.0
    assert sg._grid_eval(ex.sin(U), grid)[0, 0] == 0.0


@pytest.mark.parametrize("t_extent", [0.0, -1.0, math.nan, math.inf])
def test_degenerate_surfaces_are_rejected(t_extent):
    with pytest.raises(ValueError, match="t_extent"):
        sg.SurfaceGrid(9, 9, t_extent)
    with pytest.raises(ValueError, match="t_extent"):
        sg.source_chart(t_extent)


# ------------------------------------------ the finite-difference stencil

def _signed_zeros(rng, shape):
    return np.where(rng.random(shape) < 0.5, 0.0, -0.0)


@pytest.mark.parametrize("make", [
    lambda rng, shape: rng.standard_normal(shape),
    lambda rng, shape: np.zeros(shape),
    _signed_zeros,
    lambda rng, shape: np.broadcast_to(np.zeros(shape[1]), shape),
    lambda rng, shape: np.where(rng.random(shape) < 0.9,
                                _signed_zeros(rng, shape),
                                rng.standard_normal(shape))])
@pytest.mark.parametrize("nu, nt", [(3, 3), (9, 5), (33, 17)])
def test_grid_stencils_equal_np_gradient(make, nu, nt):
    """The grid backend's du/dt skip the stencil on all-zero arrays and equal
    np.gradient under == everywhere (a zero's sign may differ)."""
    grid = sg.SurfaceGrid(nu, nt, 1.5)
    f = sg._grid_fields({}, None, {}, (), grid.u_nodes, grid.t_nodes)
    a = make(np.random.default_rng(nu * nt), (nu, nt))
    for got, want in ((f.du(a), np.gradient(a, grid.u_nodes, axis=0,
                                            edge_order=2)),
                      (f.dt(a), np.gradient(a, grid.t_nodes, axis=1,
                                            edge_order=2))):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


# ------------------------------------------------- RK4 scale transport

def _rk4_reference(structure, x, eta, *, s0=1.0, n=512):
    """scale_ode_rk4 as four scalar evaluations per step."""
    J = sg._as_pair(structure)
    tn = J.chart.names
    acc = ex.ZERO
    for (a,), v in J.e.comps.items():
        nm = tn[a]
        if nm not in eta:
            continue
        comp = ex.substitute(v, {m: ex.coerce(x[m]) for m in tn if m in x})
        acc = acc + ex.coerce(comp) * ex.coerce(eta[nm])
    g = lambda uu: float(ex.evaluate(acc, {"u": uu}))
    h = 1.0 / n
    s, uu = float(s0), 0.0
    for _ in range(n):
        k1 = s * g(uu)
        k2 = (s + 0.5 * h * k1) * g(uu + 0.5 * h)
        k3 = (s + 0.5 * h * k2) * g(uu + 0.5 * h)
        k4 = (s + h * k3) * g(uu + h)
        s += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        uu += h
    return s


def _rk4_outcome(run):
    """('ok', bits) or ('raised', type, message, point) of run()."""
    with np.errstate(all="ignore"):
        try:
            return ("ok", run().hex())
        except ArithmeticError as err:
            return ("raised", type(err), str(err), getattr(err, "point", None))


# E = cos(pi x) on the Moebius chart, so the integrand depends on the path
MOEBIUS = sg.moebius_pair()
CONTACT = sg.contact_pair(1)


@settings(max_examples=150, deadline=None)
@given(trees(("u",)), trees(("u",)), st.integers(1, 96),
       st.sampled_from((1.0, 0.5, -2.0)))
def test_rk4_equals_the_scalar_reference(xe, eta, n, s0):
    for J, x, e in ((MOEBIUS, {"x": xe}, {"x": eta}),
                    (CONTACT, {"x0": xe, "x1": ex.ZERO, "x2": ex.ONE},
                     {"x0": eta})):
        got = _rk4_outcome(lambda: sg.scale_ode_rk4(J, x, e, s0=s0, n=n))
        want = _rk4_outcome(lambda: _rk4_reference(J, x, e, s0=s0, n=n))
        assert got == want


def _nodes(n):
    """The RK4 nodes in step order: u_0, u_0 + h/2, u_1, ..., u_n."""
    h, uu, out = 1.0 / n, 0.0, []
    for _ in range(n):
        out += [uu, uu + 0.5 * h]
        uu += h
    return out + [uu]


@pytest.mark.parametrize("n, node", [(8, 0), (8, 7), (8, 16), (24, 31),
                                     (5, 10)])
def test_rk4_singular_node_raises_the_reference_error(n, node):
    c = ex.num(_nodes(n)[node])
    for eta in (ex.div(ex.ONE, ex.sub(U, c)),          # near-zero denominator
                ex.pow_(ex.sub(U, c), -2),             # negative power
                ex.log(ex.mul(ex.sub(U, c), ex.sub(U, c)))):   # log of 0
        want = _rk4_outcome(lambda: _rk4_reference(MOEBIUS, {"x": U},
                                                   {"x": eta}, n=n))
        got = _rk4_outcome(lambda: sg.scale_ode_rk4(MOEBIUS, {"x": U},
                                                    {"x": eta}, n=n))
        assert want[0] == "raised" and want[3] == {"u": _nodes(n)[node]}
        assert got == want


def test_rk4_overflow_and_missing_variable_match_the_reference():
    big = ex.pow_(ex.add(ex.mul(ex.num(10 ** 6), U), ex.ONE), 60)
    t_path = {"x": ex.var("t")}
    for x, eta in (({"x": U}, {"x": big}), (t_path, {"x": ex.ONE})):
        want = _rk4_outcome(lambda: _rk4_reference(MOEBIUS, x, eta, n=16))
        got = _rk4_outcome(lambda: sg.scale_ode_rk4(MOEBIUS, x, eta, n=16))
        assert want[0] == "raised" and got == want
