"""Tests for linear-bivector <-> algebroid conversions, the frame-level
differential, and morphism checks."""

import numpy as np
import pytest

from jacobisigma import expr as ex
from jacobisigma import geometry as geo
from jacobisigma import jacobi as jac
from jacobisigma import algebroid as alg
from jacobisigma import sigma as sg
from jacobisigma.geometry import Chart, SmoothMap

KW = dict(tol=1e-9, trials=64, seed=ex.DEFAULT_SEED)
RNG_SEED = 20240817


def base3():
    return Chart(("x", "y", "z"), {n: (-0.45, 0.45) for n in "xyz"})


def rand_poly(rng, names, terms=2, max_deg=2):
    acc = ex.num(int(rng.integers(-2, 3)))
    for _ in range(terms):
        coeff = int(rng.integers(-3, 4))
        if coeff == 0:
            continue
        term = ex.num(coeff)
        for n in names:
            for _ in range(int(rng.integers(0, max_deg + 1))):
                term = ex.mul(term, ex.var(n))
        acc = ex.add(acc, term)
    return ex.normalize(acc)


def rand_algebroid(seed, *, gens=("a", "b", "c")):
    rng = np.random.default_rng(RNG_SEED + seed)
    ch = base3()
    anchor = {}
    for g in gens:
        row = {}
        for n in ch.names:
            if rng.random() < 0.6:
                row[n] = rand_poly(rng, ch.names, terms=1, max_deg=1)
        anchor[g] = row
    ctab = {}
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if rng.random() < 0.7:
                row = {gk: rand_poly(rng, ch.names, terms=1, max_deg=1)
                       for gk in gens if rng.random() < 0.5}
                if row:
                    ctab[(gens[i], gens[j])] = row
    return alg.AlgebroidStructure.build(ch, gens, anchor, ctab)


def a10_table():
    ch = base3()
    x = ex.var("x")
    return alg.AlgebroidStructure.build(
        ch, ("dx", "dy", "dz"),
        anchor={"dx": {"y": ex.ONE, "z": x},
                "dy": {"x": ex.num(-1)},
                "dz": {"x": ex.neg(x)}},
        c={("dx", "dz"): {"dx": ex.num(-1)}})


def same_expr(a, b):
    """Structural equality after light normalization."""
    return ex.normalize(ex.coerce(a)) == ex.normalize(ex.coerce(b))


def cotangent_target(k):
    return alg.cotangent_algebroid(jac.poissonize(sg.contact_pair(k)))


def solution_morphism(k, F=None):
    """Package a surface configuration as a bundle map into the scaled dual
    of the poissonized contact structure: momenta to pi_*, z to z."""
    J = sg.contact_pair(k)
    R = cotangent_target(k)
    if F is None:
        F = sg.contact_solution(k)
    TS = alg.tangent_algebroid(F.chart)
    base = SmoothMap(F.chart, R.alg.base,
                     {**{n: F.x[n] for n in J.chart.names}, "s": F.s})
    fiber = {f"pi_{n}": F.pi_form(n) for n in J.chart.names}
    fiber["z"] = F.z
    return alg.VBMorphism.build(TS, R, base, fiber)


# ------------------------------------------------------------ conversions


def test_rebuild_then_extract_round_trips():
    for seed in range(4):
        A = rand_algebroid(seed)
        P = alg.rebuild_linear(A)
        B = alg.from_linear_bivector(P, fiber_names=A.generators,
                                     gen_names=A.generators, **KW)
        assert B.generators == A.generators
        box = A.base.sample_box()
        for g in A.generators:
            for n in A.base.names:
                d = ex.sub(A.anchor.get(g, {}).get(n, ex.ZERO),
                           B.anchor.get(g, {}).get(n, ex.ZERO))
                assert ex.is_zero(d, box, **KW)
        keys = set(A.c) | set(B.c)
        for pair in keys:
            for gk in A.generators:
                d = ex.sub(A.c.get(pair, {}).get(gk, ex.ZERO),
                           B.c.get(pair, {}).get(gk, ex.ZERO))
                assert ex.is_zero(d, box, **KW)


def test_extraction_from_lifted_bivector_is_exact():
    A = sg.almost_poisson_algebroid()
    assert A.generators == ("dx", "dy", "dz")
    x = ex.var("x")
    want_anchor = {"dx": {"y": ex.ONE, "z": x},
                   "dy": {"x": ex.num(-1)},
                   "dz": {"x": ex.neg(x)}}
    for g, row in want_anchor.items():
        got = A.anchor.get(g, {})
        assert set(got) == set(row)
        for n, v in row.items():
            assert same_expr(got[n], v)
    # single stored bracket, displayed as [dz, dx] = dx
    assert set(A.c) == {("dx", "dz")}
    assert set(A.c[("dx", "dz")]) == {"dx"}
    assert same_expr(A.c[("dx", "dz")]["dx"], ex.num(-1))
    rows = A.bracket_table()
    assert len(rows) == 1
    gb, ga, coeffs = rows[0]
    assert (gb, ga) == ("dz", "dx")
    assert set(coeffs) == {"dx"} and same_expr(coeffs["dx"], ex.ONE)


def test_from_linear_rejects_bad_blocks():
    ch = Chart(("x", "y", "a", "b"),
               {n: (-0.45, 0.45) for n in ("x", "y", "a", "b")})
    a, b = ex.var("a"), ex.var("b")
    with pytest.raises(alg.LinearityError):
        alg.from_linear_bivector(geo.mvf(ch, 2, {("x", "y"): ex.ONE}),
                                 fiber_names=("a", "b"))
    with pytest.raises(alg.LinearityError):
        alg.from_linear_bivector(geo.mvf(ch, 2, {("x", "a"): a}),
                                 fiber_names=("a", "b"))
    with pytest.raises(alg.LinearityError):
        alg.from_linear_bivector(geo.mvf(ch, 2, {("a", "b"): ex.mul(a, b)}),
                                 fiber_names=("a", "b"))
    with pytest.raises(alg.LinearityError):
        alg.from_linear_bivector(geo.mvf(ch, 2, {("a", "b"): ex.ONE}),
                                 fiber_names=("a", "b"))


# ----------------------------------------------------------- differential


def test_d_on_functions_is_the_anchor():
    A = a10_table()
    f = ex.add(ex.mul(ex.var("x"), ex.var("y")),
               ex.pow_(ex.var("z"), 2))
    df = alg.algebroid_d(A, f)
    box = A.base.sample_box()
    for i, g in enumerate(A.generators):
        want = ex.ZERO
        for n, r in A.anchor.get(g, {}).items():
            want = ex.add(want, ex.mul(r, ex.differentiate(f, n)))
        assert ex.is_zero(ex.sub(df.comps.get((i,), ex.ZERO), want), box, **KW)


def test_d_satisfies_leibniz():
    A = a10_table()
    x, y, z = (ex.var(n) for n in "xyz")
    f = ex.add(ex.mul(x, z), y)
    g = ex.sub(ex.pow_(y, 2), x)
    lhs = alg.algebroid_d(A, ex.mul(f, g))
    rhs = alg.algebroid_d(A, f).scale(g) + alg.algebroid_d(A, g).scale(f)
    assert (lhs - rhs).is_zero(**{k: v for k, v in KW.items() if k != "tol"})
    # degree 1: d(f w) = df ^ w + f dw
    w = alg.aform(A, 1, {(0,): ex.mul(x, y), (2,): z})
    lhs1 = alg.algebroid_d(A, w.scale(f))
    rhs1 = alg.algebroid_d(A, f).wedge(w) + alg.algebroid_d(A, w).scale(f)
    assert (lhs1 - rhs1).is_zero(**{k: v for k, v in KW.items() if k != "tol"})


def test_d_of_top_degree_vanishes():
    A = a10_table()
    top = alg.aform(A, 3, {(0, 1, 2): ex.var("x")})
    assert not alg.algebroid_d(A, top).comps
    with pytest.raises(ValueError):
        alg.algebroid_d(A, alg.aform(A, 4, {}))


def test_d_squared_verdicts():
    assert alg.is_lie(alg.tangent_algebroid(base3()), **KW)
    # handwritten three-generator table: fails on a base coordinate
    w = alg.lie_witness(a10_table(), **KW)
    assert w is not None
    label, resid, point = w
    assert label in ("x", "y", "z")
    assert resid.degree == 2
    assert resid.max_abs() > 1e-3
    # dual of a scale-homogeneous Poisson chart: closes
    for k in (0, 1):
        assert alg.is_lie(cotangent_target(k).alg, **KW)
    # dual of a non-integrable bivector: does not
    ch, lam = sg.almost_poisson_bivector()
    boxed = Chart(ch.names, {n: (-0.45, 0.45) for n in ch.names})
    pair = jac.JacobiPair(boxed, geo.mvf(boxed, 2, dict(lam.comps)),
                          geo.mvf(boxed, 1, {}))
    R = alg.cotangent_algebroid(jac.poissonize(pair), z_name="theta")
    assert not alg.is_lie(R.alg, **KW)


def test_d_squared_matches_bivector_self_bracket():
    # closing differential <-> the encoding bivector has vanishing
    # self-bracket; check the equivalence across a spread of tables
    cases = [alg.tangent_algebroid(base3()), a10_table(),
             rand_algebroid(11), rand_algebroid(12)]
    for A in cases:
        P = alg.rebuild_linear(A)
        lie = alg.is_lie(A, **KW)
        dev = geo.max_abs_tensor(geo.schouten(P, P), trials=KW["trials"],
                                 seed=KW["seed"])[0]
        assert lie == (dev <= KW["tol"])


# -------------------------------------------------------------- morphisms


def test_identity_morphism_passes():
    for A in (alg.tangent_algebroid(base3()), a10_table(),
              cotangent_target(0).alg):
        rep = alg.morphism_check(alg.identity_morphism(A), **KW)
        assert rep.ok
        assert rep.max_dev <= 1e-12


def test_tangent_functor_and_composition():
    chS = sg.source_chart()
    u, t = ex.var("u"), ex.var("t")
    psi_u = ex.add(ex.mul(ex.num("4/5"), ex.mul(u, t)), ex.num("1/10"))
    psi_t = ex.add(ex.mul(ex.num("9/10"), t), ex.num("1/20"))
    inner = alg.VBMorphism.build(
        alg.tangent_algebroid(chS), alg.tangent_algebroid(chS),
        SmoothMap(chS, chS, {"u": psi_u, "t": psi_t}),
        {"du": sg.d0(chS, psi_u), "dt": sg.d0(chS, psi_t)})
    assert alg.morphism_check(inner, **KW).ok

    outer = solution_morphism(1)
    assert alg.morphism_check(outer, **KW).ok

    both = alg.compose(outer, inner)
    rep = alg.morphism_check(both, **KW)
    assert rep.ok
    # composite base map is plain substitution
    box = chS.sample_box()
    want = ex.substitute(outer.base_map("x0"), {"u": psi_u, "t": psi_t})
    assert ex.is_zero(ex.sub(both.base_map("x0"), want), box, **KW)


def test_solution_families_pass():
    for m in (sg.family_one_morphism(),
              sg.family_one_morphism(x_profile="sin(u)*cos(t)"),
              sg.family_two_morphism(),
              sg.family_two_morphism(c=ex.num("1/4"), y_profile="u*t + 1/4")):
        rep = alg.morphism_check(m, **KW)
        assert rep.ok
        assert rep.max_dev <= 1e-9


FLIP_SUPPORT = {
    # flipped slot -> base equations allowed to break (anchor support)
    ("fiber", "dx"): {"y", "z"},
    ("fiber", "dy"): {"x"},
    ("fiber", "dz"): {"x"},
    ("base", "y"): {"y"},
    ("base", "z"): {"z"},
}


def _flip(m, kind, slot):
    if kind == "fiber":
        fib = dict(m.fiber)
        fib[slot] = fib[slot].scale(-1)
        return alg.VBMorphism.build(m.src, m.dst, m.base_map, fib)
    comps = dict(m.base_map.comps)
    comps[slot] = ex.neg(comps[slot])
    return alg.VBMorphism.build(
        m.src, m.dst, SmoothMap(m.base_map.src, m.base_map.dst, comps),
        m.fiber)


def test_sign_flips_fail_and_stay_localized():
    m = sg.family_one_morphism()
    for (kind, slot), allowed in FLIP_SUPPORT.items():
        rep = alg.morphism_check(_flip(m, kind, slot), **KW)
        assert not rep.ok, (kind, slot)
        for n, r in rep.base_residuals.items():
            if n in allowed:
                continue
            assert r.max_abs() <= 1e-9, (kind, slot, n)
        for g, r in rep.gen_residuals.items():
            assert r.max_abs() <= 1e-9, (kind, slot, g)
        worst_slot, dev = rep.worst()
        assert worst_slot[0] == "base" and worst_slot[1] in allowed
        assert dev > 1e-3


def test_worst_reports_the_callers_samples():
    m = _flip(sg.family_one_morphism(), "fiber", "dx")
    for trials, seed in ((64, KW["seed"]), (7, 12345), (20, 99)):
        rep = alg.morphism_check(m, tol=1e-9, trials=trials, seed=seed)
        (kind, label), dev = rep.worst()
        assert dev == rep.max_dev
        resid = (rep.base_residuals if kind == "base" else rep.gen_residuals)
        assert resid[label].max_abs(trials=trials, seed=seed) == dev


# ------------------------------------------------- scaled dual structure


def test_rx_check_accepts_the_graded_dual():
    for k in (0, 1):
        R = cotangent_target(k)
        assert R.gen_weights["z"] == 0
        assert all(R.gen_weights[g] == 1 for g in R.alg.generators
                   if g != "z")
        assert alg.rx_check(R, **KW)


def test_rx_check_rejects_wrong_weights():
    R = cotangent_target(1)
    bad = {g: (1 if g == "z" else 0) for g in R.alg.generators}
    assert not alg.rx_check(alg.RxAlgebroid(R.alg, bad), **KW)
    with pytest.raises(ValueError):
        alg.rx_check(alg.tangent_algebroid(base3()), **KW)


def test_lift_requires_weighted_target():
    m = sg.family_one_morphism()
    with pytest.raises(ValueError):
        alg.lift_phi_to_psi(m)
    with pytest.raises(ValueError):
        alg.lift_phi_to_psi(solution_morphism(0), param="u")


def test_lifted_family_at_one_is_the_original():
    phi = solution_morphism(1)
    psi = alg.lift_phi_to_psi(phi)
    ok, dev = alg.morphisms_agree(psi.at(1), phi, **KW)
    assert ok and dev <= 1e-12


def test_lift_equivalence_small_batch():
    """Verdict of the plain morphism check matches the verdict of the
    lifted-family check, pass or fail alike."""
    J = sg.contact_pair(0)
    u, t = ex.var("u"), ex.var("t")
    fields = [
        sg.contact_solution(0),
        sg.contact_solution(0, x0_profile=ex.mul(u, u),
                            s_profile=ex.exp(ex.div(t, ex.num(3)))),
        sg.contact_solution(0, x0_profile=ex.cos(ex.add(u, t))),
    ]
    base = sg.contact_solution(0)
    fields.append(sg.FieldConfiguration.build(
        base.chart, {"x0": ex.add(base.x["x0"], ex.mul(ex.num("1/20"), u))},
        s=base.s, pi=dict(base.pi), z=base.z))
    fields.append(sg.FieldConfiguration.build(
        base.chart, dict(base.x), s=base.s, pi=dict(base.pi),
        z=base.z.scale(ex.num("9/10"))))
    fields.append(sg.FieldConfiguration.build(
        base.chart, dict(base.x), s=base.s,
        pi={"x0": base.pi_form("x0").scale(-1)}, z=base.z))

    verdicts = []
    for F in fields:
        phi = solution_morphism(0, F)
        mr = alg.morphism_check(phi, **KW)
        jr = alg.jacobi_morphism_check(alg.lift_phi_to_psi(phi), **KW)
        assert jr.ok == mr.ok
        if mr.ok:
            assert jr.anchor_ok
        verdicts.append(mr.ok)
    assert verdicts[:3] == [True, True, True]
    assert verdicts[3:] == [False, False, False]


# ----------------------------------------------- derivation-valued checks


def _reduced_contact_solution(k=1):
    F = sg.contact_solution(k)
    s = F.s
    p = {n: w.scale(ex.div(ex.ONE, s)) for n, w in F.pi.items()}
    return sg.FieldConfiguration.build(F.chart, dict(F.x), s=s, pi=p, z=F.z)


def test_d0phi_matches_sharp_composition_for_solutions():
    J = sg.contact_pair(1)
    F = _reduced_contact_solution(1)
    ext = J.chart.extend(("s",), box={"s": (0.5, 2.0)}, weights={"s": 1})
    phi0 = SmoothMap(F.chart, ext,
                     {**{n: F.x[n] for n in J.chart.names}, "s": F.s})
    d0phi = alg.compute_D0phi(phi0, "s", trials=KW["trials"], seed=KW["seed"])
    jm = alg.jsharp_morphism(
        J, SmoothMap(F.chart, J.chart, {n: F.x[n] for n in J.chart.names}),
        {n: F.pi_form(n) for n in J.chart.names}, F.z)
    ok, dev = alg.morphisms_agree(d0phi, jm, **KW)
    assert ok and dev <= 1e-9


def test_d0phi_flags_non_solutions():
    J = sg.contact_pair(1)
    F = _reduced_contact_solution(1)
    u = ex.var("u")
    x = dict(F.x)
    x["x1"] = ex.mul(ex.num("1/10"), u)
    ext = J.chart.extend(("s",), box={"s": (0.5, 2.0)}, weights={"s": 1})
    phi0 = SmoothMap(F.chart, ext, {**{n: x[n] for n in J.chart.names},
                                    "s": F.s})
    d0phi = alg.compute_D0phi(phi0, "s", trials=KW["trials"], seed=KW["seed"])
    jm = alg.jsharp_morphism(
        J, SmoothMap(F.chart, J.chart, {n: x[n] for n in J.chart.names}),
        {n: F.pi_form(n) for n in J.chart.names}, F.z)
    ok, dev = alg.morphisms_agree(d0phi, jm, **KW)
    assert not ok and dev > 1e-3


def test_d0phi_needs_nonvanishing_scale():
    ch = sg.source_chart()
    ext = Chart(("x0", "s"), {"x0": (-0.45, 0.45), "s": (0.5, 2.0)},
                {"s": 1})
    bad = SmoothMap(ch, ext, {"x0": ex.ZERO,
                              "s": ex.sub(ex.var("u"), ex.num("1/2"))})
    with pytest.raises(ValueError):
        alg.compute_D0phi(bad, "s")
