"""Tests for the three action variants, stationarity residuals, path
transport/holonomy, the scaling groupoid, and the example gallery."""

import dataclasses
import math

import numpy as np
import pytest

from jacobisigma import expr as ex
from jacobisigma import geometry as geo
from jacobisigma import jacobi as jac
from jacobisigma import algebroid as alg
from jacobisigma import sigma as sg
from jacobisigma.geometry import Chart, SmoothMap

KW = dict(tol=1e-9, trials=64, seed=ex.DEFAULT_SEED)
U, T = ex.var("u"), ex.var("t")


def form1(ch, cu, ct):
    return geo.form(ch, 1, {("u",): ex.coerce(cu), ("t",): ex.coerce(ct)})


def generic_config(ch=None):
    """A smooth non-stationary configuration on the k=1 contact chart."""
    ch = ch or sg.source_chart()
    return sg.FieldConfiguration.build(
        ch,
        {"x0": ex.mul(ex.num("3/10"), ex.sin(ex.add(U, T))),
         "x1": ex.mul(ex.num("1/5"), ex.mul(U, T)),
         "x2": ex.mul(ex.num("1/4"), ex.cos(U))},
        s=ex.exp(ex.add(ex.div(U, ex.num(4)), ex.div(T, ex.num(5)))),
        pi={"x0": form1(ch, ex.mul(U, T), ex.cos(U)),
            "x2": form1(ch, ex.sin(T), ex.num("1/3"))},
        z=form1(ch, ex.cos(T), ex.mul(ex.num("1/2"), U)))


def second_config(ch=None):
    ch = ch or sg.source_chart()
    return sg.FieldConfiguration.build(
        ch,
        {"x0": ex.mul(ex.num("1/4"), ex.cos(ex.mul(U, T))),
         "x1": ex.mul(ex.num("3/10"), ex.sin(T)),
         "x2": ex.add(ex.mul(ex.num("1/5"), U), ex.num("1/10"))},
        s=ex.exp(ex.mul(ex.num("1/3"), ex.sub(T, U))),
        pi={"x1": form1(ch, ex.cos(T), ex.mul(U, U)),
            "x2": form1(ch, ex.num("1/2"), ex.sin(ex.add(U, T)))},
        z=form1(ch, ex.mul(T, T), ex.sin(U)))


def rescaled_momenta(F):
    """Same configuration with the momentum slots multiplied by the scale."""
    return sg.FieldConfiguration.build(
        F.chart, dict(F.x), s=F.s,
        pi={n: w.scale(F.s) for n, w in F.pi.items()}, z=F.z)


def tensor_zero(w, tol=1e-9):
    return geo.max_abs_tensor(w, trials=64, seed=ex.DEFAULT_SEED)[0] <= tol


# ---------------------------------------------------------------- actions


def test_reduced_and_homogeneous_actions_agree():
    J = sg.contact_pair(1)
    grid = sg.SurfaceGrid(33, 33)
    for Fp in (generic_config(), second_config()):
        Fpi = rescaled_momenta(Fp)
        a_red = sg.action(J, Fp, "reduced", grid)
        a_hom = sg.action(J, Fpi, "homogeneous", grid)
        assert abs(a_red - a_hom) <= 1e-12 * max(1.0, abs(a_hom))
        # the agreement is pointwise, not only after quadrature
        d_red = sg._action_density(J, Fp, "reduced")
        d_hom = sg._action_density(J, Fpi, "homogeneous")
        assert tensor_zero(d_red - d_hom)


def test_constrained_action_matches_hand_quadrature():
    J = sg.contact_pair(1)
    ch = sg.source_chart()
    F = sg.FieldConfiguration.build(
        ch,
        {"x0": ex.mul(ex.num("3/10"), ex.sin(U)),
         "x1": ex.mul(ex.num("1/5"), T),
         "x2": ex.mul(ex.num("1/4"), ex.cos(ex.add(U, T)))},
        pi={"x0": form1(ch, U, ex.cos(T)),
            "x1": form1(ch, ex.sin(T), ex.ONE),
            "x2": form1(ch, ex.mul(U, T), ex.num("1/2"))},
        z=form1(ch, T, ex.sin(U)))
    grid = sg.SurfaceGrid(65, 65)
    got = sg.action(J, F, "constrained", grid)

    UU, TT = grid.mesh()
    pt = {}
    for n in J.chart.names:
        w = F.pi_form(n)
        pt[n] = (ex.evaluate(w.component("u"), {"u": UU, "t": TT}),
                 ex.evaluate(w.component("t"), {"u": UU, "t": TT}))
        pt[n] = tuple(np.broadcast_to(np.asarray(v, float), UU.shape)
                      for v in pt[n])
    xs = {n: np.broadcast_to(
        np.asarray(ex.evaluate(F.x[n], {"u": UU, "t": TT}), float), UU.shape)
        for n in J.chart.names}
    dxu = {n: np.broadcast_to(np.asarray(ex.evaluate(
        ex.differentiate(F.x[n], "u"), {"u": UU, "t": TT}), float), UU.shape)
        for n in J.chart.names}
    dxt = {n: np.broadcast_to(np.asarray(ex.evaluate(
        ex.differentiate(F.x[n], "t"), {"u": UU, "t": TT}), float), UU.shape)
        for n in J.chart.names}
    zu = np.broadcast_to(np.asarray(
        ex.evaluate(F.z.component("u"), {"u": UU, "t": TT}), float), UU.shape)
    zt = np.broadcast_to(np.asarray(
        ex.evaluate(F.z.component("t"), {"u": UU, "t": TT}), float), UU.shape)
    dens = np.zeros_like(UU)
    for n in J.chart.names:
        dens += pt[n][0] * dxt[n] - pt[n][1] * dxu[n]
    # Lam^{x1 x2} = 1, Lam^{x0 x2} = x2; E = (1, 0, 0)
    dens += pt["x1"][0] * pt["x2"][1] - pt["x1"][1] * pt["x2"][0]
    dens += xs["x2"] * (pt["x0"][0] * pt["x2"][1] - pt["x0"][1] * pt["x2"][0])
    dens -= pt["x0"][0] * zt - pt["x0"][1] * zu
    want = float(np.trapezoid(np.trapezoid(dens, grid.t_nodes, axis=1),
                              grid.u_nodes))
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_action_guards():
    J = sg.contact_pair(1)
    F = generic_config()
    no_s = sg.FieldConfiguration.build(F.chart, dict(F.x), pi=dict(F.pi),
                                       z=F.z)
    with pytest.raises(ValueError):
        sg.action(J, no_s, "homogeneous")
    with pytest.raises(ValueError):
        sg.action(J, F, "entangled")
    crossing = sg.FieldConfiguration.build(
        F.chart, dict(F.x), s=ex.sub(U, ex.num("1/2")), pi=dict(F.pi), z=F.z)
    with pytest.raises(ValueError):
        sg.action(J, crossing, "homogeneous")
    with pytest.raises(ValueError):
        sg.SurfaceGrid(2, 33)


def test_boundary_requirement():
    J = sg.contact_pair(1)
    ch = sg.source_chart()
    pi_bad = {"x0": form1(ch, ex.ZERO, ex.cos(U))}
    F = sg.FieldConfiguration.build(ch, {"x0": U, "x1": ex.ZERO,
                                         "x2": ex.ZERO},
                                    s=ex.ONE, pi=pi_bad,
                                    require_boundary=True)
    assert sg.boundary_dev(F) > 0.5
    with pytest.raises(ValueError):
        sg.action(J, F, "homogeneous")
    pi_ok = {"x0": form1(ch, ex.ONE, ex.sin(ex.mul(ex.PI, U)))}
    G = sg.FieldConfiguration.build(ch, dict(F.x), s=ex.ONE, pi=pi_ok,
                                    require_boundary=True)
    assert sg.boundary_dev(G) <= 1e-9
    sg.action(J, G, "homogeneous")  # no raise


def test_el_residual_boundary_guard_honours_trials_and_seed():
    # the edge t-components vanish only at the first Halton point of this
    # seed: the guard passes on that one point and fails on other samples
    seed = 12345
    ch = sg.source_chart()
    c = ex.halton_point({"t": ch.box["t"]}, 0, seed)["t"]
    edge = ex.sub(T, ex.coerce(c))
    F = sg.FieldConfiguration.build(
        ch, {"x0": U, "x1": ex.ZERO, "x2": ex.ZERO}, s=ex.ONE,
        pi={"x0": form1(ch, ex.ZERO, edge)}, z=form1(ch, ex.ZERO, edge),
        require_boundary=True)
    assert sg.boundary_dev(F) > 1e-3
    sg.el_residual(sg.contact_pair(1), F, trials=1, seed=seed)  # no raise
    with pytest.raises(ValueError, match="u-boundary"):
        sg.el_residual(sg.contact_pair(1), F, trials=16, seed=seed + 1)


# ----------------------------------------------------------- stationarity


def test_contact_solutions_are_stationary():
    for k in (0, 1, 2):
        J = sg.contact_pair(k)
        rep = sg.el_residual(J, sg.contact_solution(k), **KW)
        assert rep.ok and rep.max_dev <= 1e-9
        assert set(rep.norms) == ({f"x:{n}" for n in J.chart.names}
                                  | {f"pi:{n}" for n in J.chart.names}
                                  | {"s", "z"})


def test_perturbed_solution_is_not_stationary():
    J = sg.contact_pair(1)
    F = sg.contact_solution(1)
    x = dict(F.x)
    x["x1"] = ex.add(x["x1"], ex.mul(ex.num("1/1000"), U))
    P = sg.FieldConfiguration.build(F.chart, x, s=F.s, pi=dict(F.pi), z=F.z)
    rep = sg.el_residual(J, P, **KW)
    assert not rep.ok
    assert rep.max_dev > 1e-4


def test_reduced_residuals_from_homogeneous_ones():
    """With momenta rescaled by the scale, the reduced residual system is
    the homogeneous one with the momentum equation sheared by the scale
    equation: r_p = (r_pi - r_s ^ p) / s, all other slots equal."""
    J = sg.contact_pair(1)
    Fp = generic_config()
    Fpi = rescaled_momenta(Fp)
    red = sg.el_residual(J, Fp, variant="reduced", **KW).residuals
    hom = sg.el_residual(J, Fpi, variant="homogeneous", **KW).residuals
    inv_s = ex.div(ex.ONE, Fp.s)
    for n in J.chart.names:
        assert tensor_zero(red[f"x:{n}"] - hom[f"x:{n}"])
        sheared = (hom[f"pi:{n}"]
                   - geo.wedge(hom["s"], Fp.pi_form(n))).scale(inv_s)
        assert tensor_zero(red[f"p:{n}"] - sheared)
    assert tensor_zero(red["s"] - hom["s"])
    assert tensor_zero(red["z"] - hom["z"])


def test_moebius_reduced_residuals_match_closed_forms():
    J = sg.moebius_pair()
    ch = sg.source_chart()
    X = ex.add(ex.num("1/2"), ex.mul(ex.num("1/4"), ex.sin(ex.add(U, T))))
    s = ex.exp(ex.mul(ex.num("1/3"), U))
    p = form1(ch, ex.mul(U, T), ex.cos(T))
    z = form1(ch, ex.sin(T), ex.mul(U, U))
    F = sg.FieldConfiguration.build(ch, {"x": X}, s=s, pi={"x": p}, z=z)
    res = sg.el_residual(J, F, variant="reduced", **KW).residuals
    cosX = ex.cos(ex.mul(ex.PI, X))
    sinX = ex.sin(ex.mul(ex.PI, X))
    want = {
        "x:x": sg.d0(ch, X) - z.scale(cosX),
        "s": sg.d0(ch, s) + p.scale(ex.mul(s, cosX)),
        "p:x": geo.de_rham(p)
        - geo.wedge(z, p).scale(ex.mul(ex.PI, sinX)),
        "z": geo.de_rham(z),
    }
    for label, w in want.items():
        assert tensor_zero(res[label] - w), label
    # flipping the sign of the z ^ p term gives a different system
    wrong = geo.de_rham(p) + geo.wedge(z, p).scale(ex.mul(ex.PI, sinX))
    assert not tensor_zero(res["p:x"] - wrong)


def test_reduced_null_solutions():
    atlas = sg.moebius_atlas()
    J = atlas.charts["O"]
    rep = sg.el_residual(J, sg.moebius_null_solution(), variant="reduced",
                         **KW)
    assert rep.ok and rep.max_dev <= 1e-12
    # the contact solution in reduced variables
    F = sg.contact_solution(1)
    Fp = sg.FieldConfiguration.build(
        F.chart, dict(F.x), s=F.s,
        pi={n: w.scale(ex.div(ex.ONE, F.s)) for n, w in F.pi.items()},
        z=F.z)
    rep2 = sg.el_residual(sg.contact_pair(1), Fp, variant="reduced", **KW)
    assert rep2.ok


def test_el_residual_guards():
    J = sg.contact_pair(1)
    F = generic_config()
    with pytest.raises(ValueError):
        sg.el_residual(J, F, variant="constrained")
    no_s = sg.FieldConfiguration.build(F.chart, dict(F.x), pi=dict(F.pi),
                                       z=F.z)
    with pytest.raises(ValueError):
        sg.el_residual(J, no_s)


def test_el_residual_scale_guard_samples_the_callers_points():
    # s vanishes at the first sample point of seed 12345 only
    J = sg.contact_pair(1)
    F = generic_config()
    c = ex.halton_point(F.chart.sample_box(), 0, 12345)["u"]
    F = dataclasses.replace(F, s=ex.sub(U, ex.num(c)))
    sg.el_residual(J, F, **KW)
    with pytest.raises(ValueError, match="scale field"):
        sg.el_residual(J, F, trials=4, seed=12345)


def test_discrete_el_residual_rejects_a_scale_zero_on_a_node():
    # u = 1/2 is a node of a 33-point grid, so s is exactly 0 there; the
    # residual would divide by it and report NaN norms
    J = sg.contact_pair(1)
    F = dataclasses.replace(generic_config(), s=ex.sub(U, ex.num("1/2")))
    D = sg.sample_config(F, sg.SurfaceGrid(33, 33))
    assert sg.D_s_min(D) == 0.0
    with pytest.raises(ValueError, match="scale field drops below"):
        sg.el_residual(J, D, **KW)
    # off the nodes the same scale is far enough from 0
    D = sg.sample_config(F, sg.SurfaceGrid(32, 32))
    rep = sg.el_residual(J, D, **KW)
    assert all(math.isfinite(v) for v in rep.norms.values())


def test_discrete_residuals_converge():
    J = sg.contact_pair(1)
    F = sg.contact_solution(1)
    norms = []
    for nn in (33, 65, 129):
        D = sg.sample_config(F, sg.SurfaceGrid(nn, nn))
        rep = sg.el_residual(J, D, variant="homogeneous", **KW)
        assert rep.mode == "discrete"
        norms.append(rep.max_dev)
    assert norms[0] > 1e-8  # finite differences do not vanish exactly
    for a, b in zip(norms, norms[1:]):
        assert math.log2(a / b) >= 1.8


def test_grid_and_exact_backends_agree_on_every_slot():
    """The finite-difference residual of a sampled configuration converges
    at second order to the exact residual form evaluated at the nodes, in
    every slot; slots whose stencils are exact agree to round-off."""
    J = sg.contact_pair(1)
    for F in (generic_config(), second_config()):
        for variant in ("homogeneous", "reduced"):
            sym = sg.el_residual(J, F, variant=variant, **KW).residuals
            errs = {label: [] for label in sym}
            for nn in (33, 65, 129):
                g = sg.SurfaceGrid(nn, nn)
                D = sg.sample_config(F, g)
                res = sg.el_residual(J, D, variant=variant).residuals
                assert res.keys() == sym.keys()
                for label, w in sym.items():
                    keys = [("u",), ("t",)] if w.degree == 1 else [("u", "t")]
                    want = np.stack([sg._grid_eval(w.component(*k), g)
                                     for k in keys])
                    got = res[label].reshape(want.shape)
                    errs[label].append(float(np.max(np.abs(got - want))))
            converging = 0
            for label, e in errs.items():
                if max(e) <= 1e-12:
                    continue
                converging += 1
                for a, b in zip(e, e[1:]):
                    assert math.log2(a / b) >= 1.8, (variant, label, e)
            assert converging >= 6, errs


def test_node_perturbation_matches_residual_density():
    """The derivative of the discrete action with respect to a single
    interior node value equals the discrete residual at that node times
    the quadrature weight, and converges to the symbolic residual."""
    J = sg.contact_pair(1)
    h = 1e-6
    for F in (generic_config(), second_config()):
        sym = sg.el_residual(J, F, **KW).residuals
        errs_cont = []
        for nn in (17, 33, 65):
            g = sg.SurfaceGrid(nn, nn)
            iu, it = nn // 2, nn // 2
            w = g.h_u * g.h_t
            point = {"u": 0.5, "t": 0.0}
            D0 = sg.sample_config(F, g)
            res = sg.el_residual(J, D0, variant="homogeneous").residuals

            def dS(mutate):
                vals = []
                for sign in (+1.0, -1.0):
                    D = sg.sample_config(F, g)
                    mutate(D, sign * h)
                    vals.append(sg.action(J, D, "homogeneous"))
                return (vals[0] - vals[1]) / (2 * h) / w

            # base-map node -> momentum equation
            for n in ("x0", "x2"):
                def bump_x(D, d, n=n):
                    D.x[n] = D.x[n].copy()
                    D.x[n][iu, it] += d
                assert abs(dS(bump_x) - res[f"pi:{n}"][iu, it]) <= 1e-5
            # scale node -> z equation
            def bump_s(D, d):
                D.s = D.s.copy()
                D.s[iu, it] += d
            assert abs(dS(bump_s) - res["z"][iu, it]) <= 1e-5
            # momentum node -> base transport equation (t-slot)
            def bump_p(D, d):
                D.pi_u["x2"] = D.pi_u["x2"].copy()
                D.pi_u["x2"][iu, it] += d
            assert abs(dS(bump_p) - res["x:x2"][1][iu, it]) <= 1e-5

            cont = float(ex.evaluate(
                sym["pi:x2"].component("u", "t"), point))
            def bump_x2(D, d):
                D.x["x2"] = D.x["x2"].copy()
                D.x["x2"][iu, it] += d
            errs_cont.append(abs(dS(bump_x2) - cont))
        for a, b in zip(errs_cont, errs_cont[1:]):
            assert math.log2(a / b) >= 1.5, errs_cont


# ------------------------------------------------------ paths and holonomy


def test_apath_check_accepts_transport_solutions():
    J = sg.contact_pair(1)
    c = ex.num("1/2")
    s = ex.exp(ex.neg(ex.mul(c, U)))
    path = sg.APath(
        x={"x0": ex.num("1/10"), "x1": ex.num("1/5"),
           "x2": ex.mul(ex.num("1/5"), ex.exp(ex.mul(c, U)))},
        pi={"x0": ex.mul(c, s)}, s=s, z=0)
    rep = sg.apath_check(J, path)
    assert rep.ok and rep.max_defect <= 1e-4
    assert "-E^k pi_k" in rep.note and "+E^j eta_j" in rep.note


def test_apath_check_rejects_broken_transport():
    J = sg.contact_pair(1)
    amp = ex.num("3/10")
    good = sg.APath(x={"x0": ex.mul(amp, ex.sin(U)), "x1": ex.ZERO,
                       "x2": ex.ZERO},
                    s=1, z=ex.mul(amp, ex.cos(U)))
    assert sg.apath_check(J, good).ok
    bad = dataclasses.replace(good, z=ex.neg(ex.mul(amp, ex.cos(U))))
    rep = sg.apath_check(J, bad)
    assert not rep.ok
    assert rep.defects["x:x0"] > 0.1
    with pytest.raises(ValueError):
        sg.apath_check(J, sg.APath(x={"x0": ex.ZERO}))
    with pytest.raises(ValueError):
        sg.apath_check(J, dataclasses.replace(good,
                                              s=ex.sub(U, ex.num("1/2"))))


def test_holonomy_exponent():
    J = sg.contact_pair(1)
    x = {"x0": ex.num("1/10"), "x1": ex.ZERO, "x2": ex.num("1/5")}
    for c in (-1.0, 0.5, 2.0):
        got = sg.apath_holonomy(J, x, {"x0": ex.num(c)})
        assert abs(got - math.exp(c)) <= 1e-8
        smooth = ex.mul(ex.num(c), ex.mul(ex.div(ex.PI, ex.num(2)),
                                          ex.sin(ex.mul(ex.PI, U))))
        got2 = sg.apath_holonomy(J, x, {"x0": smooth})
        assert abs(got2 - math.exp(c)) <= 1e-8
        rk = sg.scale_ode_rk4(J, x, {"x0": smooth})
        assert abs(rk - got2) <= 1e-6
    with pytest.raises(ValueError):
        sg.apath_holonomy(J, {"x0": ex.ZERO}, {})


def test_simpson_matches_scipy():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(5)
    for n in (3, 33, 257, 1025):
        for x in (np.linspace(0.0, 1.0, n), np.sort(rng.uniform(0, 2, n))):
            y = rng.normal(size=n)
            want = scipy_integrate.simpson(y, x=x)
            assert abs(sg._simpson(y, x) - want) <= 1e-15 * max(1.0, abs(want))


def test_holonomy_rejects_an_even_node_count():
    J = sg.contact_pair(1)
    x = {"x0": ex.num("1/10"), "x1": ex.ZERO, "x2": ex.num("1/5")}
    assert abs(sg.apath_holonomy(J, x, {"x0": ex.ONE}, n=257) - math.e) <= 1e-12
    with pytest.raises(ValueError, match="odd"):
        sg.apath_holonomy(J, x, {"x0": ex.ONE}, n=256)


def test_holonomy_reparametrization_invariance():
    J = sg.moebius_pair()
    x = {"x": ex.add(ex.num("3/10"), ex.mul(ex.num("2/5"), U))}
    eta = {"x": ex.sin(ex.mul(ex.PI, U))}
    base = sg.apath_holonomy(J, x, eta)
    u2 = ex.mul(U, U)
    x2 = {"x": ex.substitute(x["x"], {"u": u2})}
    eta2 = {"x": ex.mul(ex.mul(ex.num(2), U),
                        ex.substitute(eta["x"], {"u": u2}))}
    again = sg.apath_holonomy(J, x2, eta2)
    assert abs(base - again) <= 1e-7


def test_holonomy_concatenation():
    J = sg.moebius_pair()
    n = 1025
    u = np.linspace(0.0, 1.0, n)

    def x1(v):
        return 0.3 + 0.1 * (1.0 - np.cos(np.pi * v))

    def x2(v):
        return 0.5 + 0.15 * (1.0 - np.cos(np.pi * v))

    def eta1(v):
        return 0.8 * np.sin(np.pi * v)

    def eta2(v):
        return -0.8 * np.sin(np.pi * v)

    h1 = sg.apath_holonomy(J, {"x": x1(u)}, {"x": eta1(u)}, n=n)
    h2 = sg.apath_holonomy(J, {"x": x2(u)}, {"x": eta2(u)}, n=n)
    xc = np.where(u <= 0.5, x1(2 * u), x2(2 * u - 1))
    ec = 2.0 * np.where(u <= 0.5, eta1(2 * u), eta2(2 * u - 1))
    hc = sg.apath_holonomy(J, {"x": xc}, {"x": ec}, n=n)
    assert abs(hc - h1 * h2) <= 1e-8


# ---------------------------------------------------------------- groupoid


def test_groupoid_checks_pass():
    for k in (0, 1):
        G = sg.ex1_groupoid(k)
        rep = sg.verify_ex1_groupoid(G, **KW)
        assert rep.ok, rep.summary()
        assert set(rep.checks) == {"source_target_of_product",
                                   "associativity",
                                   "scale_action_morphism",
                                   "omega_degree_1", "contact_top_form"}
        assert rep.checks["contact_top_form"]["min_abs"] > 1e-6


def test_groupoid_k2_passes_all_checks():
    # the pair chart plus the scale parameter spans 19 sampling dimensions
    rep = sg.verify_ex1_groupoid(sg.ex1_groupoid(2), **KW)
    assert rep.ok, rep.summary()
    assert all(entry["ok"] for entry in rep.checks.values())


def test_groupoid_tampering_is_caught():
    G = sg.ex1_groupoid(0)
    flat_beta = SmoothMap(G.chart, G.l_chart,
                          {"s": ex.var("s"), "x0": ex.var("xr0")})
    rep = sg.verify_ex1_groupoid(dataclasses.replace(G, beta=flat_beta), **KW)
    assert not rep.ok
    assert not rep.checks["source_target_of_product"]["ok"]

    rep2 = sg.verify_ex1_groupoid(
        dataclasses.replace(G, omega=G.omega.scale(ex.var("s"))), **KW)
    assert not rep2.ok
    assert not rep2.checks["omega_degree_1"]["ok"]

    bad_mult = SmoothMap(G.pair_chart, G.chart,
                         {**G.mult.comps,
                          "t": ex.mul(ex.var("t2"), ex.pow_(ex.var("t1"), 2))})
    rep4 = sg.verify_ex1_groupoid(dataclasses.replace(G, mult=bad_mult), **KW)
    assert not rep4.ok
    assert not rep4.checks["associativity"]["ok"]

    closed_theta = geo.form(G.c_chart, 1, {("xl0",): ex.ONE})
    rep3 = sg.verify_ex1_groupoid(
        dataclasses.replace(G, theta_c=closed_theta), **KW)
    assert not rep3.ok
    assert not rep3.checks["contact_top_form"]["ok"]


def test_groupoid_omega_degree_uses_the_callers_tol():
    G = sg.ex1_groupoid(0)
    near = dataclasses.replace(
        G, omega=G.omega.scale(ex.add(ex.ONE, ex.mul(ex.num("1/1000000"),
                                                      ex.var("s")))))
    assert not sg.verify_ex1_groupoid(near, **KW).checks["omega_degree_1"]["ok"]
    loose = dict(KW, tol=1e-3)
    assert sg.verify_ex1_groupoid(near, **loose).checks["omega_degree_1"]["ok"]


# ------------------------------------------------- solutions as morphisms


def test_stationary_iff_morphism():
    J = sg.contact_pair(1)
    R = alg.cotangent_algebroid(jac.poissonize(J))

    def as_morphism(F):
        TS = alg.tangent_algebroid(F.chart)
        base = SmoothMap(F.chart, R.alg.base,
                         {**{n: F.x[n] for n in J.chart.names}, "s": F.s})
        fiber = {f"pi_{n}": F.pi_form(n) for n in J.chart.names}
        fiber["z"] = F.z
        return alg.VBMorphism.build(TS, R, base, fiber)

    F = sg.contact_solution(1)
    assert sg.el_residual(J, F, **KW).ok
    assert alg.morphism_check(as_morphism(F), **KW).ok

    x = dict(F.x)
    x["x2"] = ex.mul(ex.num("1/10"), T)
    P = sg.FieldConfiguration.build(F.chart, x, s=F.s, pi=dict(F.pi), z=F.z)
    assert not sg.el_residual(J, P, **KW).ok
    assert not alg.morphism_check(as_morphism(P), **KW).ok


def test_family_base_maps_have_rank_at_most_one():
    for m in (sg.family_one_morphism(),
              sg.family_one_morphism(g="w^2", h="2*w",
                                     x_profile="sin(u)*cos(t)"),
              sg.family_two_morphism(),
              sg.family_two_morphism(f="w^3", c=1,
                                     y_profile="u*t + 1/4")):
        names = m.base_map.dst.names
        box = m.base_map.src.sample_box()
        grads = {n: [ex.differentiate(m.base_map(n), v) for v in ("u", "t")]
                 for n in names}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                minor = ex.sub(ex.mul(grads[a][0], grads[b][1]),
                               ex.mul(grads[a][1], grads[b][0]))
                assert ex.is_zero(minor, box, **KW), (a, b)


# ----------------------------------------------------------------- gallery


def test_builtin_examples_verify():
    for name in sg.BUILTIN_EXAMPLES:
        pkg = sg.builtin_example(name)
        out = pkg.verify(**KW)
        assert out["ok"], (name, out)
    assert sg.builtin_example("contact-k", k=2).verify(**KW)["ok"]
    assert sg.builtin_example("almost-poisson-family1",
                              g="w^2", h="0", x="u - t").verify(**KW)["ok"]
    with pytest.raises(ValueError):
        sg.builtin_example("contact")
