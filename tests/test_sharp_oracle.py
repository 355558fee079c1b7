"""The sharp map J#(p, z) = (Lam(p, .) + z E, -E(p)) against an independent
SymPy statement of it, on a dense pair whose Lam is non-constant and whose
E has a non-zero component along every coordinate.

Three consumers are compared with the reference at Halton points: the
values of jacobi.j_sharp, the fiber forms of algebroid.jsharp_morphism, and
the x/s rows of sigma.el_residual in both variants."""

import random

import pytest

sp = pytest.importorskip("sympy")

from jacobisigma import algebroid as alg
from jacobisigma import expr as ex
from jacobisigma import geometry as geo
from jacobisigma import jacobi as jac
from jacobisigma import sigma as sg
from jacobisigma.geometry import Chart, SmoothMap

NAMES = ("x0", "x1", "x2", "x3")
UT = ("u", "t")
SEED = 20261018


def _poly(rng, names):
    """Text of a random polynomial, read by both parsers."""
    terms = [str(rng.randint(-3, 3))]
    for _ in range(3):
        coeff = rng.choice((-1, 1)) * rng.randint(1, 4)
        mon = "*".join(rng.choice(names) for _ in range(rng.randint(1, 2)))
        terms.append(f"{coeff}/{rng.randint(1, 5)}*{mon}")
    return " + ".join(terms)


class Dense:
    """One random pair and field data, as program objects and as SymPy."""

    def __init__(self, seed=SEED):
        rng = random.Random(seed)
        self.chart = Chart(NAMES, {n: (-0.45, 0.45) for n in NAMES})
        lam = {(a, b): _poly(rng, NAMES) for i, a in enumerate(NAMES)
               for b in NAMES[i + 1:]}
        e = {a: _poly(rng, NAMES) for a in NAMES}
        self.J = jac.JacobiPair.build(
            self.chart, {k: ex.parse(v, NAMES) for k, v in lam.items()},
            {(a,): ex.parse(v, NAMES) for a, v in e.items()})
        self.lam = {}
        for (a, b), v in lam.items():
            self.lam[(a, b)] = sp.sympify(v)
            self.lam[(b, a)] = -sp.sympify(v)
        self.e = {a: sp.sympify(v) for a, v in e.items()}
        # field data on the (u, t) rectangle: base maps, momenta, z, scale
        self.x = {n: _poly(rng, UT) for n in NAMES}
        self.p = {n: (_poly(rng, UT), _poly(rng, UT)) for n in NAMES}
        self.z = (_poly(rng, UT), _poly(rng, UT))
        self.s = "exp(u/3 - t/5)"

    def sharp(self, p, z):
        """The reference (v, t) for momenta p (name -> SymPy) and z."""
        v = {n: sum(self.lam[(m, n)] * p[m] for m in NAMES if m != n)
             + self.e[n] * z for n in NAMES}
        return v, -sum(self.e[m] * p[m] for m in NAMES)

    def at_x(self, e):
        """A SymPy coefficient at the base maps, as a function of (u, t)."""
        return e.subs({sp.Symbol(n): sp.sympify(self.x[n]) for n in NAMES},
                      simultaneous=True)

    def form(self, comps):
        ch = sg.source_chart()
        return geo.form(ch, 1, {("u",): ex.parse(comps[0], UT),
                                ("t",): ex.parse(comps[1], UT)})


def _agree(ours, ref, names, box, trials=16):
    """max relative deviation of Expression `ours` from SymPy `ref`."""
    f = sp.lambdify([sp.Symbol(n) for n in names], ref, "math")
    worst = 0.0
    for pt in ex.halton_points(box, trials, SEED):
        a, b = ex.evaluate(ours, pt), f(*(pt[n] for n in names))
        worst = max(worst, abs(a - b) / (1.0 + abs(b)))
    return worst


@pytest.fixture(scope="module")
def dense():
    return Dense()


def test_dense_pair_exercises_every_term(dense):
    v_terms, t_terms = jac.sharp_terms(dense.J)
    assert len(t_terms) == len(NAMES)
    assert all(len(v_terms[n]) == len(NAMES) for n in NAMES)
    assert all(ex.free_vars(c) for c in dense.J.lam.comps.values())
    assert all(ex.free_vars(c) for c in dense.J.e.comps.values())


def test_j_sharp_matches_sympy(dense):
    rng = random.Random(SEED + 1)
    p = {n: _poly(rng, NAMES) for n in NAMES}
    z = _poly(rng, NAMES)
    der = jac.j_sharp(dense.J, jac.JetPoint(
        {n: ex.var(n) for n in NAMES}, {n: ex.parse(v, NAMES)
                                        for n, v in p.items()},
        ex.parse(z, NAMES)))
    v, t = dense.sharp({n: sp.sympify(w) for n, w in p.items()},
                       sp.sympify(z))
    box = dense.chart.sample_box()
    for n in NAMES:
        assert _agree(der.v[n], v[n], NAMES, box) <= 1e-12, n
    assert _agree(der.t, t, NAMES, box) <= 1e-12


def test_jsharp_morphism_fibers_match_sympy(dense):
    ch = sg.source_chart()
    x_map = SmoothMap(ch, dense.chart, {n: ex.parse(v, UT)
                                        for n, v in dense.x.items()})
    jm = alg.jsharp_morphism(dense.J, x_map,
                             {n: dense.form(c) for n, c in dense.p.items()},
                             dense.form(dense.z))
    box = ch.sample_box()
    for c in range(2):
        v, t = dense.sharp({n: sp.sympify(w[c]) for n, w in dense.p.items()},
                           sp.sympify(dense.z[c]))
        for n in NAMES:
            got = jm.fiber[f"v_{n}"].comps.get((c,), ex.ZERO)
            assert _agree(got, dense.at_x(v[n]), UT, box) <= 1e-12, (n, c)
        got = jm.fiber["t"].comps.get((c,), ex.ZERO)
        assert _agree(got, dense.at_x(t), UT, box) <= 1e-12, c


@pytest.mark.parametrize("variant", ["homogeneous", "reduced"])
def test_el_residual_transport_rows_match_sympy(dense, variant):
    ch = sg.source_chart()
    F = sg.FieldConfiguration.build(
        ch, {n: ex.parse(v, UT) for n, v in dense.x.items()},
        s=ex.parse(dense.s, UT),
        pi={n: dense.form(c) for n, c in dense.p.items()},
        z=dense.form(dense.z))
    res = sg.el_residual(dense.J, F, variant=variant).residuals
    s = sp.sympify(dense.s)
    u, t_ = sp.symbols("u t")
    box = ch.sample_box()
    for c, d in enumerate((u, t_)):
        p = {n: sp.sympify(w[c]) for n, w in dense.p.items()}
        if variant == "homogeneous":
            p = {n: w / s for n, w in p.items()}
        v, t = dense.sharp(p, sp.sympify(dense.z[c]))
        for n in NAMES:
            want = sp.diff(sp.sympify(dense.x[n]), d) - dense.at_x(v[n])
            got = res[f"x:{n}"].component(UT[c])
            assert _agree(got, want, UT, box) <= 1e-12, (n, c)
        # t(pi) = s t(pi/s) in the homogeneous row, s t(p) in the reduced
        want = sp.diff(s, d) - dense.at_x(t * s)
        assert _agree(res["s"].component(UT[c]), want, UT, box) <= 1e-12, c
