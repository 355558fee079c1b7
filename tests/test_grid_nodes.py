"""Grid fields on the open (u, t) mesh, in one pass and in row blocks with
shared subtrees evaluated once, the symbolic action integrated block by
block, the zero marker of the grid backend and the RK4 scale transport,
each against the full-array / scalar / plain recursive reference it
replaced, bit for bit."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacobisigma import expr as ex
from jacobisigma import geometry as geo
from jacobisigma import jacobi as jac
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


@st.composite
def shared_trees(draw, names):
    """Trees that reference drawn subtree objects in several places: each
    step combines two members of a growing pool, so a subtree object can
    recur under one parent, across parents and at several depths."""
    pool = draw(st.lists(trees(names), min_size=1, max_size=3))
    binary = tuple(map(_or_first, (ex.add, ex.sub, ex.mul, ex.div)))
    for _ in range(draw(st.integers(1, 6))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        op = draw(st.sampled_from(binary + (ex.sin, ex.cos, ex.exp, ex.log)))
        pool.append(op((a, b)) if op in binary else op(a))
    return pool[-1]


def _reference(e, point):
    """A plain recursion with the guards of expr.evaluate: every node
    evaluated at every reference, into fresh arrays."""
    def go(t):
        if isinstance(t, ex.Num):
            return float(t.value)
        if isinstance(t, ex.Pi):
            return math.pi
        if isinstance(t, ex.Var):
            try:
                return point[t.name]
            except KeyError:
                raise ex.EvaluationError(f"no value for variable '{t.name}'",
                                         point)
        if isinstance(t, (ex.Add, ex.Mul)):
            parts = t.terms if isinstance(t, ex.Add) else t.factors
            acc = go(parts[0])
            for u in parts[1:]:
                acc = acc + go(u) if isinstance(t, ex.Add) else acc * go(u)
            return acc
        if isinstance(t, ex.Pow):
            b = go(t.base)
            if t.exponent < 0 and np.any(np.abs(b) < 1e-12):
                raise ex.EvaluationError("negative power of a near-zero base",
                                         point)
            return b ** t.exponent
        if isinstance(t, ex.Div):
            a, b = go(t.num), go(t.den)
            if np.any(np.abs(b) < 1e-12):
                raise ex.EvaluationError("near-zero denominator", point)
            return a / b
        a = go(t.arg)
        if t.fn == "exp" and np.any(np.asarray(a) > 700.0):
            raise ex.EvaluationError("exp overflow", point)
        if t.fn == "log" and np.any(np.asarray(a) <= 0):
            raise ex.EvaluationError("log of a non-positive value", point)
        return {"sin": np.sin, "cos": np.cos, "exp": np.exp,
                "log": np.log}[t.fn](a)

    out = go(e)
    if isinstance(out, np.ndarray):
        if not np.all(np.isfinite(out)):
            raise ex.EvaluationError("non-finite result", point)
        return out
    out = float(out)
    if not math.isfinite(out):
        raise ex.EvaluationError("non-finite result", point)
    return out


def _full_mesh_eval(e, grid):
    """The reference: e evaluated by _reference on the two full mesh()
    arrays."""
    UU, TT = grid.mesh()
    v = _reference(ex.coerce(e), {"u": UU, "t": TT})
    return np.broadcast_to(np.asarray(v, float), UU.shape).copy()


def _assert_same_outcome(got, want, shape):
    """Equal guard trips by type and message, or equal arrays to the bit,
    -0.0 included."""
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got == want
        return
    a, b = got[1], want[1]
    assert a.shape == b.shape == shape and a.dtype == b.dtype
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


odd_sides = st.integers(1, 32).map(lambda k: 2 * k + 1)   # 3 .. 65
BLOCK = sg._BLOCK_NODES
# one block; several blocks with sides of any parity, square or not; more
# nodes per row than a block holds, so that every block is one row
grid_sides = st.one_of(
    st.tuples(odd_sides, odd_sides).filter(lambda s: s[0] != s[1]),
    st.tuples(st.integers(100, 420), st.integers(90, 310)),
    st.tuples(st.integers(3, 5), st.integers(BLOCK + 1, BLOCK + 700)))


def _blocked_eval(e, grid):
    """e at the grid nodes, assembled from the row blocks of _grid_rows."""
    out = np.empty((grid.nu, grid.nt))
    for rows, v in sg._grid_rows(e, grid):
        out[rows] = v
    return out


def _grid_case(e, sides, t_extent, run=sg._grid_eval):
    grid = sg.SurfaceGrid(*sides, t_extent)
    _assert_same_outcome(_outcome(lambda: run(e, grid)),
                         _outcome(lambda: _full_mesh_eval(e, grid)), sides)


@settings(max_examples=300, deadline=None)
@given(trees(("u", "t")), grid_sides, st.sampled_from((1.0, 0.7, 2.5)))
def test_open_mesh_equals_full_mesh(e, sides, t_extent):
    _grid_case(e, sides, t_extent)


@settings(max_examples=200, deadline=None)
@given(shared_trees(("u", "t")), grid_sides, st.sampled_from((1.0, 0.7)))
def test_shared_subtrees_equal_the_plain_recursion(e, sides, t_extent):
    _grid_case(e, sides, t_extent, _blocked_eval)


def test_grids_of_several_blocks_and_of_one_row_blocks():
    """The strategies above reach several blocks and one-row blocks."""
    for nu, nt, rows in ((420, 310, 140), (100, 90, 100), (3, BLOCK + 1, 1)):
        grid = sg.SurfaceGrid(nu, nt)
        blocks = [r for r, _ in sg._grid_rows(ex.ZERO, grid)]
        assert blocks == [slice(r, min(r + rows, nu))
                          for r in range(0, nu, rows)]


@pytest.mark.parametrize("variant", sg.ACTION_VARIANTS)
@pytest.mark.parametrize("sides", [(65, 33), (420, 310), (3, BLOCK + 1)])
def test_symbolic_action_equals_the_full_mesh_quadrature(variant, sides):
    """One block, several blocks and one-row blocks: the action integrated
    block by block is the trapezoid rule over the full-mesh density of the
    plain recursion, bit for bit."""
    J, F = sg.contact_pair(1), sg.contact_solution(1)
    grid = sg.SurfaceGrid(*sides)
    dens = sg._action_density(J, F, variant).component("u", "t")
    inner = np.trapezoid(_full_mesh_eval(dens, grid), grid.t_nodes, axis=1)
    want = float(np.trapezoid(inner, grid.u_nodes))
    assert sg.action(J, F, variant, grid).hex() == want.hex()


def test_blocked_guard_trip_raises_what_the_whole_grid_raises():
    """A block of small u trips the exp guard first; the whole grid trips
    the near-zero denominator at u = 1 first, and that is what is
    raised."""
    e = ex.add(ex.div(1, U - 1), ex.exp(1000 * (ex.num("4/5") - U)))
    for grid in (sg.SurfaceGrid(700, 65), sg.SurfaceGrid(1400, 65)):
        first = next(sg._grid_rows(ex.ZERO, grid))[0]
        block = {"u": grid.u_nodes[first, None], "t": grid.t_nodes[None, :]}
        if first.stop < grid.nu:
            with pytest.raises(ex.EvaluationError, match="exp overflow"):
                ex.evaluate(e, block)
        with pytest.raises(ex.EvaluationError,
                           match="^near-zero denominator$"):
            _blocked_eval(e, grid)
        _grid_case(e, (grid.nu, grid.nt), 1.0, _blocked_eval)
    assert first.stop < grid.nu          # the second grid has two blocks


def test_a_shared_subtree_is_evaluated_once(monkeypatch):
    """Through the row blocks of _grid_rows a node object referenced three
    times runs once per block; a plain evaluation runs it at every
    reference."""
    calls = []
    monkeypatch.setitem(ex._UFUNCS, "sin",
                        lambda a: calls.append(a.shape) or np.sin(a))
    s = ex.sin(U * ex.var("t"))
    e = ex.add(ex.mul(s, U), ex.mul(s, s))
    for grid, blocks in ((sg.SurfaceGrid(129, 65), 1),
                         (sg.SurfaceGrid(420, 310), 3)):
        calls.clear()
        _grid_case(e, (grid.nu, grid.nt), 1.0, _blocked_eval)
        assert len(calls) == blocks
        assert sum(rows for rows, _ in calls) == grid.nu
        calls.clear()
        ex.evaluate(e, {"u": grid.u_nodes[:, None], "t": grid.t_nodes})
        assert calls == [(grid.nu, grid.nt)] * 3


@settings(max_examples=150, deadline=None)
@given(shared_trees(("u", "t")), st.sampled_from(((70, 70), (65, 129))))
def test_evaluate_reads_a_callers_arrays_only(e, shape):
    """ex.evaluate on large read-only arrays (the result's own shape, so
    writing into them would be possible) leaves them as they were and
    equals the plain recursion."""
    rng = np.random.default_rng(shape[0])
    point = {"u": rng.uniform(-1.5, 1.5, shape), "t": rng.uniform(0.1, 2, shape)}
    saved = {n: a.copy() for n, a in point.items()}
    for a in point.values():
        a.flags.writeable = False
    got = _outcome(lambda: np.broadcast_to(ex.evaluate(e, point), shape))
    want = _outcome(lambda: np.broadcast_to(_reference(e, point), shape))
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))
    else:
        assert got == want
    for n, a in point.items():
        assert np.array_equal(a.view(np.int64), saved[n].view(np.int64))


def test_grid_nodes_are_built_once_and_read_only():
    grid = sg.SurfaceGrid(9, 7, 1.5)
    assert grid.u_nodes is grid.u_nodes and grid.t_nodes is grid.t_nodes
    for a, want in ((grid.u_nodes, np.linspace(0.0, 1.0, 9)),
                    (grid.t_nodes, np.linspace(-1.5, 1.5, 7))):
        assert not a.flags.writeable
        assert a.dtype == want.dtype
        assert np.array_equal(a.view(np.int64), want.view(np.int64))
        with pytest.raises(ValueError):
            a[0] = 1.0
    other = sg.SurfaceGrid(9, 7, 1.5)
    assert grid == other and hash(grid) == hash(other)
    assert {grid: 1}[other] == 1 and grid != sg.SurfaceGrid(9, 7, 1.0)


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
    """The grid backend holds an all-zero field as the zero marker, whose
    stencil is the marker; du/dt, with the marker read as zeros, equal
    np.gradient under == everywhere (a zero's sign may differ)."""
    grid = sg.SurfaceGrid(nu, nt, 1.5)
    a = make(np.random.default_rng(nu * nt), (nu, nt))
    f = sg._grid_fields({"a": a}, None, {}, (), grid.u_nodes, grid.t_nodes)
    assert (f.x["a"] is sg._ZERO) == (not a.any())
    for got, want in ((f.du(f.x["a"]), np.gradient(a, grid.u_nodes, axis=0,
                                                   edge_order=2)),
                      (f.dt(f.x["a"]), np.gradient(a, grid.t_nodes, axis=1,
                                                   edge_order=2))):
        got = sg._full(got, a.shape)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


# ------------------------------------- the zero marker against full zeros

def _full_zero_fields(x, s, p, z, u, t=None):
    """The reference: the grid backend that keeps every all-zero array as a
    full array, with a stencil of zeros_like for an all-zero one."""
    shape = u.shape if t is None else (u.size, t.size)

    @functools.cache
    def at(e):
        return np.broadcast_to(np.asarray(ex.evaluate(e, x), float), shape)

    def stencil(a, nodes, axis):
        if not a.any():
            return np.zeros_like(a)
        return np.gradient(a, nodes, axis=axis, edge_order=2)
    return sg._Fields(lambda a: stencil(a, u, 0), lambda a: stencil(a, t, 1),
                      at, x, s, p, z)


def _reference_surface(J, D):
    zero = np.zeros((D.grid.nu, D.grid.nt))
    p = {n: (D.pi_u.get(n, zero), D.pi_t.get(n, zero)) for n in J.chart.names}
    return _full_zero_fields(D.x, D.s, p, (D.z_u, D.z_t),
                             D.grid.u_nodes, D.grid.t_nodes)


def _bits(v):
    return float(v).hex()


def _general_pair():
    """Coefficients that vanish wherever some base map does."""
    names = ("x0", "x1", "x2")
    x0, x1, x2 = map(ex.var, names)
    return jac.JacobiPair.build(
        geo.Chart(names), {("x0", "x1"): ex.mul(x2, x0),
                           ("x1", "x2"): ex.add(x1, ex.ONE)},
        {("x1",): x0, ("x2",): ex.mul(x1, x2)})


PAIRS = {"contact": sg.contact_pair(1), "moebius": sg.moebius_pair(),
         "general": _general_pair()}
KINDS = ("values", "zeros", "signed_zeros", "bumped", "sparse", "missing")


def _component(kind, rng, shape):
    """One node array of the given kind (None for a missing one)."""
    if kind == "values":
        return rng.standard_normal(shape)
    if kind == "zeros":
        return np.zeros(shape)
    if kind == "signed_zeros":
        return _signed_zeros(rng, shape)
    if kind == "bumped":
        a = _signed_zeros(rng, shape)
        a[tuple(rng.integers(0, n) for n in shape)] = rng.standard_normal()
        return a
    if kind == "sparse":
        return np.where(rng.random(shape) < 0.7, _signed_zeros(rng, shape),
                        rng.standard_normal(shape))
    return None


@st.composite
def grid_cases(draw, surface=True):
    """(J, node shape, components by slot): random all-zero, signed zero
    and bumped components; a missing x or z component is zeros."""
    J = PAIRS[draw(st.sampled_from(sorted(PAIRS)))]
    shape = ((draw(st.integers(3, 12)), draw(st.integers(3, 12))) if surface
             else (draw(st.integers(3, 40)),))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    slots = ([f"x:{n}" for n in J.chart.names]
             + [f"pi_{c}:{n}" for n in J.chart.names for c in "ut"]
             + ["z_u", "z_t"])
    kinds = {k: draw(st.sampled_from(KINDS)) for k in slots}
    comps = {k: _component(kind, rng, shape) for k, kind in kinds.items()}
    for k, a in comps.items():
        if a is None and not k.startswith("pi_"):
            comps[k] = np.zeros(shape)
    sign = draw(st.sampled_from((1.0, -1.0)))
    comps["s"] = sign * (0.5 + rng.random(shape))
    return J, shape, comps


def _surface_config(J, shape, comps, t_extent):
    grid = sg.SurfaceGrid(*shape, t_extent)
    names = J.chart.names
    return sg.DiscreteFieldConfiguration(
        grid, {n: comps[f"x:{n}"] for n in names}, comps["s"],
        {n: comps[f"pi_u:{n}"] for n in names
         if comps[f"pi_u:{n}"] is not None},
        {n: comps[f"pi_t:{n}"] for n in names
         if comps[f"pi_t:{n}"] is not None},
        comps["z_u"], comps["z_t"])


@settings(max_examples=200, deadline=None)
@given(grid_cases(), st.sampled_from((1.0, 0.7)))
def test_zero_marker_equals_full_zero_arrays(case, t_extent):
    """Density, action, stationarity rows and norms of the grid backend
    equal those of the full-array reference: arrays under ==, so only the
    sign of a zero entry may differ, and norms and actions bit for bit."""
    J, shape, comps = case
    D = _surface_config(J, shape, comps, t_extent)
    ref = _reference_surface(J, D)
    u, t = D.grid.u_nodes, D.grid.t_nodes
    for variant in sg.ACTION_VARIANTS:
        want = sg._density(J, ref, variant)
        got = sg._full(sg._density(J, sg._sampled_fields(J, D), variant),
                       shape)
        assert got.shape == want.shape and np.array_equal(got, want)
        action = float(np.trapezoid(np.trapezoid(want, t, axis=1), u))
        assert _bits(sg.action(J, D, variant)) == _bits(action)
    for variant in ("homogeneous", "reduced"):
        one, two = sg._stationarity(J, ref, variant)
        want = {k: np.stack(r) for k, r in one.items()} | two
        rep = sg.el_residual(J, D, variant=variant)
        assert rep.residuals.keys() == want.keys()
        for k, w in want.items():
            got = rep.residuals[k]
            assert got.shape == w.shape and got.dtype == w.dtype
            assert np.array_equal(got, w), k
            assert _bits(rep.norms[k]) == _bits(np.max(np.abs(w))), k


@settings(max_examples=200, deadline=None)
@given(grid_cases(surface=False))
def test_zero_marker_path_transport_equals_full_zero_arrays(case):
    """apath_check's transport rows and defects against the reference."""
    J, (n,), comps = case
    names = J.chart.names
    path = sg.APath(x={m: comps[f"x:{m}"] for m in names},
                    pi={m: comps[f"pi_u:{m}"] for m in names
                        if comps[f"pi_u:{m}"] is not None},
                    s=comps["s"], z=comps["z_u"], n=n)
    u = np.linspace(0.0, 1.0, n)
    pis = {m: (path.pi.get(m, np.zeros(n)),) for m in names}
    args = (path.x, path.s, pis, (path.z,), u)
    want = sg._transport(J, _full_zero_fields(*args), red=False)
    got = sg._transport(J, sg._grid_fields(*args), red=False)
    assert got.keys() == want.keys()
    rep = sg.apath_check(J, path)
    for k, (w,) in want.items():
        assert np.array_equal(sg._full(got[k][0], u.shape), w), k
        assert _bits(rep.defects[k]) == _bits(np.max(np.abs(w))), k


def test_an_all_zero_density_and_rows_read_as_zeros():
    """Every term zero: the constrained density is the 0 its sum starts
    from, and every row but ds (the stencil of s) is the marker; the
    reports read +0.0 zeros."""
    J = sg.contact_pair(1)
    grid = sg.SurfaceGrid(5, 7)
    zero = np.zeros((5, 7))
    D = sg.DiscreteFieldConfiguration(grid, {n: zero for n in J.chart.names},
                                      np.ones((5, 7)), {}, {}, zero, -zero)
    f = sg._sampled_fields(J, D)
    assert sg._density(J, f, "constrained") == 0
    assert _bits(sg.action(J, D, "constrained")) == _bits(0.0)
    one, two = sg._stationarity(J, f, "homogeneous")
    assert all(r is sg._ZERO for r in two.values())
    assert all(c is sg._ZERO for k, r in one.items() if k != "s" for c in r)
    rep = sg.el_residual(J, D)
    for k, v in rep.residuals.items():
        assert v.shape[-2:] == (5, 7)
        if k != "s":
            assert not v.any() and _bits(rep.norms[k]) == _bits(0.0)


def test_a_zero_array_bumped_after_sampling_is_seen():
    """The marker is chosen when the backend is built, so bumping a node of
    a zero base map of a sampled configuration moves its residual rows as
    it does with full arrays."""
    J = sg.contact_pair(1)
    D = sg.sample_config(sg.contact_solution(1), sg.SurfaceGrid(9, 9))
    assert not D.x["x2"].any()
    assert sg.el_residual(J, D).norms["x:x2"] == 0.0
    D.x["x2"] = D.x["x2"].copy()
    D.x["x2"][4, 4] = 1e-3
    rep = sg.el_residual(J, D)
    one, two = sg._stationarity(J, _reference_surface(J, D), "homogeneous")
    want = {k: np.stack(r) for k, r in one.items()} | two
    assert rep.norms["x:x2"] > 0.0
    for k, w in want.items():
        assert np.array_equal(rep.residuals[k], w), k


def test_zero_marker_absorbs():
    a = np.arange(1.0, 4.0)
    z = sg._ZERO
    for v in (z * a, a * z, z / a, 2.0 * z, z * z, -z, z - z, z + z):
        assert v is z
    for v in (z + a, a + z, a - z):
        assert v is a
    assert np.array_equal(z - a, -a)
    assert 0 + z == 0


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
