"""In-process ops of the verdict and grid workloads.

Each op goes through three steps:

* `prepare(op, ctx)`, untimed: parse the op's text into program objects and
  return a zero-argument callable;
* the callable, timed: the calls into jacobisigma that produce the verdict;
* `summarize(op, result)`, untimed: the verdict and a digest payload of the
  report or values, compared against the known answer by `judge`.

`ctx` holds what every op of a workload shares (the contact pair of the
field ops, the target algebroid of the morphisms); `make_ctx` builds it
during set-up.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

from jacobisigma import algebroid as alg
from jacobisigma import expr as ex
from jacobisigma import geometry as geo
from jacobisigma import jacobi as jac
from jacobisigma import sigma as sg

import known

UT = {"u", "t"}


def make_ctx(workload):
    ctx = {"chS": sg.source_chart(), "J": sg.contact_pair(1)}
    if workload == "verdict_sampled":
        ctx["A"] = sg.almost_poisson_algebroid()
        ctx["TS"] = alg.tangent_algebroid(ctx["chS"])
    return ctx


def _p(text, allowed=UT):
    return ex.parse(text, allowed=allowed)


def _pair(op):
    names = tuple(op["names"])
    allowed = set(names)
    chart = geo.Chart(names, {n: (-0.45, 0.45) for n in names})
    lam = {(a, b): _p(t, allowed) for a, b, t in op["lam"]}
    e = {(a,): _p(t, allowed) for a, t in op["e"]}
    return jac.JacobiPair.build(chart, lam, e)


def _form(chart, comps):
    cu, ct = comps
    return geo.form(chart, 1, {("u",): _p(cu) if isinstance(cu, str) else cu,
                               ("t",): _p(ct) if isinstance(ct, str) else ct})


def _contact_field(op, ctx, reduced=False, flip_z=False):
    """The exact solution of contact_pair(1) with the op's profiles."""
    ch = ctx["chS"]
    x = {"x0": _p(op["x0"]), "x1": ex.ZERO, "x2": ex.ZERO}
    if reduced:
        pi = _form(ch, [ex.neg(_p(v)) for v in op["dlogs"]])
    else:
        pi = _form(ch, [ex.neg(_p(v)) for v in op["ds"]])
    z = _form(ch, op["dx0"])
    if flip_z:
        z = z.scale(-1)
    return sg.FieldConfiguration.build(ch, x, s=_p(op["s"]), pi={"x0": pi}, z=z)


def _moebius_atlas(a, flat):
    e_text = a if flat else f"{a}*cos(pi*x)"
    chO = geo.Chart(("x",), {"x": (0.05, 0.95)})
    chU = geo.Chart(("x",), {"x": (0.55, 1.45)})
    pairs = {n: jac.JacobiPair(ch, geo.mvf(ch, 2, {}),
                               geo.mvf(ch, 1, {("x",): _p(e_text, {"x"})}))
             for n, ch in (("O", chO), ("U", chU))}
    x = ex.var("x")
    ovs = []
    for src, dst, ch_s, ch_d, shift, g, sbox, dbox in (
            ("O", "U", chO, chU, 0, 1, (0.55, 0.95), (0.55, 0.95)),
            ("U", "O", chU, chO, 0, 1, (0.55, 0.95), (0.55, 0.95)),
            ("O", "U", chO, chU, 1, -1, (0.05, 0.45), (1.05, 1.45)),
            ("U", "O", chU, chO, -1, -1, (1.05, 1.45), (0.05, 0.45))):
        ovs.append(jac.Overlap(src, dst,
                               geo.SmoothMap(ch_s, ch_d, {"x": x + shift}),
                               geo.SmoothMap(ch_d, ch_s, {"x": x - shift}),
                               ex.num(g), {"x": sbox}, {"x": dbox}))
    return jac.LineBundleAtlas(pairs, ovs)


def _morphism(op, ctx):
    ch, A = ctx["chS"], ctx["A"]
    base = geo.SmoothMap(ch, A.base, {n: _p(v) for n, v in op["maps"].items()})
    fiber = {g: _form(ch, comps) for g, comps in op["fiber"].items()}
    return alg.VBMorphism.build(ctx["TS"], A, base, fiber)


def _action_field(op, ctx, hom):
    ch = ctx["chS"]
    s = _p(op["s"])
    x = {f"x{i}": _p(v) for i, v in enumerate(op["x"])}
    pi = {}
    for i, comps in enumerate(op["p"]):
        w = _form(ch, comps)
        pi[f"x{i}"] = w.scale(s) if hom else w
    return sg.FieldConfiguration.build(ch, x, s=s, pi=pi, z=_form(ch, op["z"]))


def prepare(op, ctx):
    kind, kw = op["kind"], {"seed": op.get("sseed", ex.DEFAULT_SEED)}
    if kind.startswith("jacobi_"):
        J = _pair(op)
        return lambda: jac.jacobi_check(J, **kw)
    if kind.startswith("poissonize_"):
        J = _pair(op)

        def run():
            hp = jac.poissonize(J)
            return [hp.poisson_ok(**kw), hp.homogeneity_ok(**kw)]
        return run
    J = ctx["J"]     # contact_pair(1), the structure of the field ops
    if kind.startswith("el_contact"):
        F = _contact_field(op, ctx, flip_z=kind.endswith("tampered"))
        return lambda: sg.el_residual(J, F, **kw)
    if kind.startswith("atlas_moebius"):
        atlas = _moebius_atlas(op["a"], kind.endswith("flat"))
        return lambda: jac.atlas_check(atlas, **kw)
    if kind == "cotangent":
        J = _pair(op)
        return lambda: alg.cotangent_algebroid(jac.poissonize(J), **kw)
    if kind.startswith("morphism_family"):
        phi = _morphism(op, ctx)
        return lambda: alg.morphism_check(phi, **kw)
    if kind == "groupoid":
        return lambda: sg.verify_ex1_groupoid(sg.ex1_groupoid(op["k"]), **kw)
    if kind == "el_conv":
        F = _contact_field(op, ctx, reduced=op["variant"] == "reduced")
        sizes = (op["n"], 2 * op["n"] - 1)

        def run():
            return [sg.el_residual(J, sg.sample_config(F, sg.SurfaceGrid(n, n)),
                                   variant=op["variant"], **kw) for n in sizes]
        return run
    if kind.startswith("action_"):
        F = _action_field(op, ctx, hom=op["variant"] == "homogeneous")
        grid = sg.SurfaceGrid(op["n"], op["n"])
        if kind == "action_sym":
            return lambda: sg.action(J, F, op["variant"], grid)
        return lambda: sg.action(J, sg.sample_config(F, grid), op["variant"])
    if kind.startswith("apath"):
        names = ("x0", "x1", "x2")
        path = sg.APath(x={n: _p(v) for n, v in zip(names, op["x"])},
                        pi={n: _p(v) for n, v in zip(names, op["pi"])},
                        s=_p(op["s"]), z=_p(op["z"]), n=op["n"])
        return lambda: sg.apath_check(J, path)
    if kind in ("holonomy", "rk4"):
        x = {f"x{i}": _p(v) for i, v in enumerate(op["x"])}
        eta = {"x0": _p(op["eta"])}
        if kind == "holonomy":
            return lambda: sg.apath_holonomy(J, x, eta, n=op["n"])
        return lambda: sg.scale_ode_rk4(J, x, eta, n=op["n"])
    raise ValueError(f"unknown op kind {kind!r}")


def summarize(op, res):
    """(verdict, payload): the verdict compared with the known answer, and
    the values whose digest must not change under tracing."""
    kind = op["kind"]
    if kind.startswith("jacobi_"):
        return res.ok, (res.ok, res.max_residual, res.jacobiator_values,
                        res.witness)
    if kind.startswith("poissonize_"):
        return res, res
    if kind.startswith("el_contact"):
        return res.ok, (res.ok, res.max_dev, sorted(res.norms.items()))
    if kind.startswith("atlas_moebius"):
        return res.ok, (res.ok, res.chart_checks, res.overlap_checks,
                        res.chain_checks)
    if kind == "cotangent":
        return True, (res.alg.describe(), sorted(res.gen_weights.items()))
    if kind.startswith("morphism_family"):
        return res.ok, (res.ok, res.max_dev)
    if kind == "groupoid":
        return res.ok, (res.ok, res.checks)
    if kind == "el_conv":
        devs = [r.max_dev for r in res]
        order = math.log2(devs[0] / devs[1])
        return order, (devs, [sorted(r.norms.items()) for r in res])
    if kind.startswith("apath"):
        return res.ok, (res.ok, res.max_defect, sorted(res.defects.items()))
    return res, res


def judge(op, verdict) -> bool:
    """Does the verdict match the op's known answer?"""
    want, _ = known.expected(op)
    kind = op["kind"]
    if kind == "el_conv":
        return want[0] <= verdict <= want[1]
    if want == "exact":
        exact = float(op["exact"])
        return abs(verdict - exact) <= known.VALUE_TOL[kind] * max(1.0, abs(exact))
    if want == "exp":
        return abs(verdict - math.exp(Fraction(op["c"]))) <= known.VALUE_TOL[kind]
    return verdict == want


def digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]
