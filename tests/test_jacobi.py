import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jacobisigma import expr as ex
from jacobisigma import geometry as geo
from jacobisigma import jacobi as jac
from jacobisigma import sigma as sg
from jacobisigma.geometry import Chart, SmoothMap
from jacobisigma.jacobi import JacobiPair, JetPoint

CH3 = Chart(("x", "y", "z"))


def _rand_pair(seed):
    rng = np.random.default_rng(seed)

    def poly():
        c = [int(rng.integers(-2, 3)) for _ in range(4)]
        x, y, z = (ex.var(n) for n in CH3.names)
        return ex.div(ex.add(ex.num(c[0]), ex.mul(ex.num(c[1]), x),
                             ex.mul(ex.num(c[2]), ex.mul(y, z)),
                             ex.mul(ex.num(c[3]), ex.pow_(x, 2))), ex.num(2))

    lam = geo.mvf(CH3, 2, {("x", "y"): poly(), ("x", "z"): poly(),
                           ("y", "z"): poly()})
    e = geo.mvf(CH3, 1, {("x",): poly(), ("y",): poly()})
    return JacobiPair(CH3, lam, e), poly


def almost_pair():
    ch, lam = sg.almost_poisson_bivector()
    return JacobiPair(ch, lam, geo.mvf(ch, 1, {}))


# ----- the bracket -----

def test_bracket_defining_formula():
    J, poly = _rand_pair(3)
    f, g = poly(), poly()
    df = geo.de_rham(geo.form(CH3, 0, {(): f}))
    dg = geo.de_rham(geo.form(CH3, 0, {(): g}))
    want = ex.add(geo.full_contract(J.lam, geo.wedge(df, dg)),
                  ex.mul(f, geo.vector_apply(J.e, g)),
                  ex.neg(ex.mul(g, geo.vector_apply(J.e, f))))
    assert ex.is_zero(ex.sub(jac.bracket(J, f, g), want), CH3.sample_box())


def test_bracket_antisymmetry():
    J, poly = _rand_pair(4)
    f, g = poly(), poly()
    s = ex.add(jac.bracket(J, f, g), jac.bracket(J, g, f))
    assert ex.is_zero(s, CH3.sample_box())


def test_bracket_on_constants():
    # {f, 1} = -E(f): constants are not central for a Jacobi bracket
    J, poly = _rand_pair(5)
    f = poly()
    diff = ex.add(jac.bracket(J, f, ex.ONE), geo.vector_apply(J.e, f))
    assert ex.is_zero(diff, CH3.sample_box())


def test_hamiltonian_vf_identity():
    J, poly = _rand_pair(6)
    sig, f = poly(), poly()
    X = jac.hamiltonian_vf(J, sig)
    lhs = geo.vector_apply(X, f)
    rhs = ex.sub(jac.bracket(J, sig, f),
                 ex.mul(f, jac.bracket(J, sig, ex.ONE)))
    assert ex.is_zero(ex.sub(lhs, rhs), CH3.sample_box())


# ----- Jacobi identity detection -----

@pytest.mark.parametrize("k", [0, 1, 2])
def test_contact_is_jacobi(k):
    rep = jac.jacobi_check(sg.contact_pair(k))
    assert rep.ok and rep.witness is None


def test_almost_poisson_fails_with_unit_witness():
    rep = jac.jacobi_check(almost_pair())
    assert not rep.ok
    names, value = rep.witness
    assert abs(value - 1.0) <= 1e-12
    # the defect is the constant 1 for the coordinate triple, everywhere
    J = almost_pair()
    jcb = jac.jacobiator(J, ex.var("x"), ex.var("y"), ex.var("z"))
    assert ex.is_zero(ex.sub(jcb, ex.ONE), CH3.sample_box(), tol=1e-12)


def test_random_pair_verdict_matches_schouten_residuals():
    for seed in (7, 8):
        J, _ = _rand_pair(seed)
        ok1 = jac.jacobi_check(J).ok
        r1 = geo.schouten(J.e, J.lam)
        r2 = geo.schouten(J.lam, J.lam) + geo.wedge(J.e, J.lam).scale(2)
        ok2 = geo.is_zero_tensor(r1) and geo.is_zero_tensor(r2)
        assert ok1 == ok2


# ----- poissonization -----

def test_poissonize_homogeneity_and_bracket_equivalence():
    for J, expect in ((sg.contact_pair(1), True), (almost_pair(), False),
                      (sg.moebius_pair(), True)):
        hp = jac.poissonize(J)
        assert hp.homogeneity_ok()
        assert hp.poisson_ok() == expect == jac.jacobi_check(J).ok


def test_poissonize_lifts_the_bracket():
    # {s f, s g}_Pi = s {f, g} whether or not the pair is Jacobi
    for J in (sg.contact_pair(1), almost_pair()):
        hp = jac.poissonize(J)
        s = ex.var(hp.s_name)
        box = hp.chart.sample_box()
        names = J.chart.names
        f = ex.add(ex.var(names[0]), ex.mul(ex.var(names[1]), ex.var(names[-1])))
        g = ex.sub(ex.var(names[-1]), ex.pow_(ex.var(names[0]), 2))
        df = geo.de_rham(geo.form(hp.chart, 0, {(): ex.mul(s, f)}))
        dg = geo.de_rham(geo.form(hp.chart, 0, {(): ex.mul(s, g)}))
        lhs = geo.full_contract(hp.pi, geo.wedge(df, dg))
        rhs = ex.mul(s, jac.bracket(J, f, g))
        assert ex.is_zero(ex.sub(lhs, rhs), box)


def test_jacobi_data_roundtrip():
    for J in (sg.contact_pair(1), almost_pair()):
        back = jac.poissonize(J).jacobi_data()
        assert geo.is_zero_tensor(back.lam - J.lam)
        assert geo.is_zero_tensor(back.e - J.e)


def test_scale_interval_must_avoid_zero():
    ch = Chart(("x", "s"), {"s": (-1.0, 1.0)}, {"s": 1})
    with pytest.raises(AssertionError):
        jac.HomogeneousPoisson(ch, geo.mvf(ch, 2, {}), "s")


_BAD_PAIRS = {
    # Lam on another chart, E on another chart, and the degrees swapped
    "lam_chart": "JacobiPair(CH3, geo.mvf(Chart(('x', 'y', 'w')), 2, {}), "
                 "geo.mvf(CH3, 1, {}))",
    "e_chart": "JacobiPair(CH3, geo.mvf(CH3, 2, {}), "
               "geo.mvf(Chart(('x', 'y')), 1, {}))",
    "degrees": "JacobiPair(CH3, geo.mvf(CH3, 1, {}), geo.mvf(CH3, 2, {}))",
}


@pytest.mark.parametrize("case", sorted(_BAD_PAIRS))
def test_jacobi_pair_rejects_fields_off_its_chart(case):
    with pytest.raises(jac.JacobiPairError, match="on the pair's chart"):
        eval(_BAD_PAIRS[case])
    assert issubclass(jac.JacobiPairError, ValueError)
    assert issubclass(jac.JacobiPairError, AssertionError)


def test_jacobi_pair_rejects_fields_off_its_chart_under_python_O():
    # an assert would be stripped under -O and the pair accepted
    code = ("from jacobisigma import geometry as geo\n"
            "from jacobisigma import jacobi as jac\n"
            "from jacobisigma.geometry import Chart\n"
            "from jacobisigma.jacobi import JacobiPair\n"
            "CH3 = Chart(('x', 'y', 'z'))\n"
            f"for text in {list(_BAD_PAIRS.values())!r}:\n"
            "    try:\n"
            "        eval(text)\n"
            "    except jac.JacobiPairError:\n"
            "        continue\n"
            "    raise SystemExit(f'{text} was accepted')\n")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stdout + out.stderr


# ----- jets and derivations -----

def test_jet_pairing_reproduces_bracket():
    J, poly = _rand_pair(9)
    f, g = poly(), poly()
    base = {n: ex.var(n) for n in CH3.names}

    def jet(h):
        return JetPoint(base, {n: ex.differentiate(h, n) for n in CH3.names}, h)

    val = jac.pairing_L(jac.j_sharp(J, jet(f)), jet(g))
    assert ex.is_zero(ex.sub(val, jac.bracket(J, f, g)), CH3.sample_box())


def test_j_sharp_components():
    J = sg.contact_pair(1)
    base = {n: ex.var(n) for n in J.chart.names}
    p = {"x0": ex.num(2), "x2": ex.var("x0")}
    der = jac.j_sharp(J, JetPoint(base, p, ex.num(3)))
    box = J.chart.sample_box()
    x0, x2 = ex.var("x0"), ex.var("x2")
    # Lam = (d1 + x2 d0)^d2, E = d0; v^n = Lam^{an} p_a + z E^n, t = -E^a p_a
    want_v = {"x0": ex.add(ex.neg(ex.mul(x0, x2)), ex.num(3)),
              "x1": ex.neg(x0),
              "x2": ex.mul(ex.num(2), x2)}
    for n, w in want_v.items():
        assert ex.is_zero(ex.sub(der.v[n], w), box), n
    assert ex.is_zero(ex.sub(der.t, ex.num(-2)), box)


def test_jet_bracket_holonomic_sections():
    J, poly = _rand_pair(10)
    f, g = poly(), poly()
    df = geo.de_rham(geo.form(CH3, 0, {(): f}))
    dg = geo.de_rham(geo.form(CH3, 0, {(): g}))
    form_slot, fn_slot = jac.jet_bracket(J, (df, f), (dg, g))
    want = jac.bracket(J, f, g)
    assert ex.is_zero(ex.sub(fn_slot, want), CH3.sample_box())
    dwant = geo.de_rham(geo.form(CH3, 0, {(): want}))
    assert geo.is_zero_tensor(form_slot - dwant)


_BAD_JETS = {
    # a base off the pair's chart, a momentum off it, two points on
    # different bases, and a 2-form where the bracket takes 1-forms
    "j_sharp base": "jac.j_sharp(J, JetPoint({'x': X}, {}, ex.ONE))",
    "j_sharp momentum": "jac.j_sharp(J, JetPoint(BASE, {'w': X}, ex.ONE))",
    "pairing_L base": "jac.pairing_L(jac.j_sharp(J, JetPoint(BASE, {}, "
                      "ex.ONE)), JetPoint({**BASE, 'x': ex.ZERO}, {}, "
                      "ex.ONE))",
    "jet_bracket degree": "jac.jet_bracket(J, (geo.form(CH3, 2, {}), X), "
                          "(geo.form(CH3, 1, {}), X))",
}
_JET_SETUP = ("from jacobisigma import expr as ex\n"
              "from jacobisigma import geometry as geo\n"
              "from jacobisigma import jacobi as jac\n"
              "from jacobisigma.geometry import Chart\n"
              "from jacobisigma.jacobi import JacobiPair, JetPoint\n"
              "CH3 = Chart(('x', 'y', 'z'))\n"
              "J = JacobiPair(CH3, geo.mvf(CH3, 2, {}), geo.mvf(CH3, 1, {}))\n"
              "X = ex.var('x')\n"
              "BASE = {n: ex.var(n) for n in CH3.names}\n")


@pytest.mark.parametrize("case", sorted(_BAD_JETS))
def test_jet_inputs_off_the_chart_raise_value_error(case):
    scope = {}
    exec(_JET_SETUP, scope)
    with pytest.raises(ValueError):
        eval(_BAD_JETS[case], scope)


def test_jet_inputs_off_the_chart_raise_under_python_O():
    # an assert would be stripped under -O and the input accepted
    code = (_JET_SETUP
            + f"for text in {list(_BAD_JETS.values())!r}:\n"
            "    try:\n"
            "        eval(text)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit(f'{text} was accepted')\n")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stdout + out.stderr


# ----- atlases -----

def test_moebius_atlas_passes():
    rep = jac.atlas_check(sg.moebius_atlas())
    assert rep.ok
    assert all(rep.chart_checks.values())
    assert len(rep.overlap_checks) == 4
    assert rep.chain_checks, "expected composable overlap pairs"


def test_flat_section_cannot_glue():
    rep = jac.atlas_check(sg.moebius_atlas(flat=True))
    assert not rep.ok
    bad = [oc for oc in rep.overlap_checks if not oc["gluing_ok"]]
    assert bad and max(oc["gluing_max"] for oc in bad) > 1.0


def test_atlas_catches_wrong_inverse():
    atlas = sg.moebius_atlas()
    ov = atlas.overlaps[0]
    broken = jac.Overlap(ov.src, ov.dst, ov.fwd,
                         SmoothMap(ov.inv.src, ov.inv.dst,
                                   {"x": ex.add(ex.var("x"), ex.num(0.1))}),
                         ov.g, ov.src_box, ov.dst_box)
    rep = jac.atlas_check(jac.LineBundleAtlas(atlas.charts,
                                              [broken] + atlas.overlaps[1:]))
    assert not rep.ok
    assert not rep.overlap_checks[0]["roundtrip_ok"]
