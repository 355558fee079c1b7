"""SymPy confirms the known answers of known.KNOWN on small instances.

The generator writes answers that follow from a mathematical construction;
these tests recompute them independently of both the generator's algebra and
jacobisigma, on the smallest instance of each op kind.
"""

import itertools
import random
from fractions import Fraction

import pytest
import sympy as sp

import gen
import known

U, T = sp.symbols("u t")


def S(text, names=()):
    """Expression text of the jacobisigma grammar as a SymPy expression."""
    loc = {n: sp.Symbol(n) for n in names}
    loc.update(u=U, t=T, pi=sp.pi)
    return sp.sympify(text.replace("^", "**"), locals=loc)


def ops_of(workload, kind, seed=7, passes=2):
    mix, make = gen._MIX[workload]
    rng = random.Random(seed)
    out = []
    for _ in range(passes):
        for k, param in mix:
            op = make(rng, k, param)
            if k == kind:
                out.append(op)
    return out


def jacobiator_zero(op):
    """Jacobi identity of {f,g} = L(df,dg) + f E(g) - g E(f) on 1 and the
    coordinates (enough: the Jacobiator is first order in each slot)."""
    names = op["names"]
    xs = [sp.Symbol(n) for n in names]
    lam = {}
    for a, b, text in op["lam"]:
        i, j = names.index(a), names.index(b)
        lam[(i, j)] = S(text, names)
        lam[(j, i)] = -lam[(i, j)]
    e = {names.index(a): S(text, names) for a, text in op["e"]}

    def E(f):
        return sum(v * sp.diff(f, xs[i]) for i, v in e.items())

    def br(f, g):
        out = sum(v * sp.diff(f, xs[i]) * sp.diff(g, xs[j])
                  for (i, j), v in lam.items())
        return out + f * E(g) - g * E(f)

    probes = [sp.Integer(1)] + xs
    for f, g, h in itertools.combinations(probes, 3):
        jac = br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
        if sp.expand(jac) != 0:
            return False
    return True


@pytest.mark.parametrize("kind", ["jacobi_contact", "jacobi_lie_poisson",
                                  "jacobi_contact_scaled", "jacobi_almost_poisson"])
def test_symbolic_pairs(kind):
    want = known.KNOWN[kind]["expect"]
    small = [op for op in ops_of("verdict_symbolic", kind) if op["dim"] <= 5]
    assert small
    for op in small[:3]:
        assert jacobiator_zero(op) is want


def test_poissonized_pair_is_poisson_iff_jacobi():
    for kind in ("poissonize_contact", "poissonize_contact_scaled"):
        op = [o for o in ops_of("verdict_symbolic", kind) if o["dim"] <= 5][0]
        names = op["names"] + ["s"]
        # Pi = L/s + sum E^i d/ds ^ d/dx^i, i.e. Pi^{i,s} = -E^i; E' = 0
        lam = [[a, b, f"({t})/s"] for a, b, t in op["lam"]]
        lam += [[a, "s", f"-({t})"] for a, t in op["e"]]
        poisson = {"names": names, "lam": lam, "e": []}
        assert jacobiator_zero(poisson) is known.KNOWN[kind]["expect"][0]


def test_contact_profiles_are_differentials():
    rng = random.Random(3)
    for _ in range(4):
        pr = gen.contact_profiles(rng)
        x0, s = S(pr["x0"]), S(pr["s"])
        assert sp.simplify(S(pr["dx0"][0]) - sp.diff(x0, U)) == 0
        assert sp.simplify(S(pr["dx0"][1]) - sp.diff(x0, T)) == 0
        assert sp.simplify(S(pr["ds"][0]) - sp.diff(s, U)) == 0
        assert sp.simplify(S(pr["ds"][1]) - sp.diff(s, T)) == 0
        assert sp.simplify(S(pr["dlogs"][0]) - sp.diff(sp.log(s), U)) == 0
        assert sp.simplify(S(pr["dlogs"][1]) - sp.diff(sp.log(s), T)) == 0


def _base_residuals(op):
    """Base equations of a morphism into the almost-Poisson algebroid
    (anchor: dx -> d/dy + x d/dz, dy -> -d/dx, dz -> -x d/dx):
    d(x o phi) = -F^dy - X F^dz,  d(y o phi) = F^dx,  d(z o phi) = X F^dx,
    and the frame equations, which reduce to dF^k = 0 because every frame
    form is a multiple of one exact form."""
    m = {k: S(v) for k, v in op["maps"].items()}
    F = {g: [S(c) for c in comps] for g, comps in op["fiber"].items()}
    X = m["x"]
    d = {k: [sp.diff(v, U), sp.diff(v, T)] for k, v in m.items()}
    rhs = {"x": [-F["dy"][i] - X * F["dz"][i] for i in range(2)],
           "y": F["dx"], "z": [X * F["dx"][i] for i in range(2)]}
    out = [sp.simplify(d[k][i] - rhs[k][i]) for k in rhs for i in range(2)]
    out += [sp.simplify(sp.diff(f[1], U) - sp.diff(f[0], T)) for f in F.values()]
    return out


@pytest.mark.parametrize("kind", ["morphism_family1", "morphism_family1_tampered",
                                  "morphism_family2", "morphism_family2_tampered"])
def test_morphism_families(kind):
    for op in ops_of("verdict_sampled", kind)[:2]:
        holds = all(r == 0 for r in _base_residuals(op))
        assert holds is known.KNOWN[kind]["expect"]


def _brute_trapezoid(expr, n):
    us = [sp.Rational(i, n - 1) for i in range(n)]
    ts = [sp.Rational(-1) + sp.Rational(2 * i, n - 1) for i in range(n)]
    wu = [sp.Rational(1, 2) if i in (0, n - 1) else 1 for i in range(n)]
    tot = sum(wu[i] * wu[j] * expr.subs({U: us[i], T: ts[j]})
              for i in range(n) for j in range(n))
    return tot * sp.Rational(1, n - 1) * sp.Rational(2, n - 1)


@pytest.mark.parametrize("variant", ["homogeneous", "reduced", "constrained"])
def test_action_exact_trapezoid(variant):
    rng = random.Random(5)
    X, s, p, z = gen.action_fields(rng)
    txt = gen._uv_text
    Xs = [S(txt(v)) for v in X]
    ss = S(txt(s))
    ps = [[S(txt(c)) for c in w] for w in p]
    zs = [S(txt(c)) for c in z]

    def wedge(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def d(f):
        return [sp.diff(f, U), sp.diff(f, T)]

    # contact_pair(1): L^{02} = x2, L^{12} = 1, E = d/dx0
    lam = [((0, 2), Xs[2]), ((1, 2), 1)]
    if variant == "constrained":
        dens = (sum(wedge(ps[i], d(Xs[i])) for i in range(3))
                + sum(v * wedge(ps[i], ps[j]) for (i, j), v in lam)
                - wedge(ps[0], zs))
    else:
        # homogeneous action of pi = s p equals the reduced action of p
        pis = [[ss * c for c in w] for w in ps]
        if variant == "homogeneous":
            dens = (sum(wedge(pis[i], d(Xs[i])) for i in range(3))
                    + wedge(zs, d(ss))
                    + sum(v / ss * wedge(pis[i], pis[j]) for (i, j), v in lam)
                    + wedge(zs, pis[0]))
        else:
            dens = (sum(ss * wedge(ps[i], d(Xs[i])) for i in range(3))
                    + wedge(zs, d(ss))
                    + sum(ss * v * wedge(ps[i], ps[j]) for (i, j), v in lam)
                    + ss * wedge(zs, ps[0]))
    dens = sp.expand(sp.simplify(dens))
    coef = gen.action_density(X, s, p, z, variant)
    n = 5
    want = float(_brute_trapezoid(dens, n))
    assert float(gen.exact_trapezoid(coef, n)) == want


def test_apath_solves_transport():
    """dx^j/du = (1/s) L^{kj} pi_k + E^j z and ds/du = -E^k pi_k for
    contact_pair(1), exactly for `apath`, off by the shift for the tampered
    one."""
    for kind in ("apath", "apath_tampered"):
        op = ops_of("grid_fd", kind)[0]
        x = [S(v) for v in op["x"]]
        pi = [S(v) for v in op["pi"]]
        s, z = S(op["s"]), S(op["z"])
        L = {(0, 2): x[2], (1, 2): 1}
        full = {}
        for (i, j), v in L.items():
            full[(i, j)], full[(j, i)] = v, -v
        defects = []
        for j in range(3):
            rhs = sum(full.get((k, j), 0) * pi[k] for k in range(3)) / s
            rhs += z if j == 0 else 0
            defects.append(sp.simplify(sp.diff(x[j], U) - rhs))
        defects.append(sp.simplify(sp.diff(s, U) + pi[0]))
        assert all(dd == 0 for dd in defects) is known.KNOWN[kind]["expect"]


def test_holonomy_integrand_integrates_to_c():
    for op in ops_of("grid_fd", "holonomy")[:2]:
        total = sp.integrate(S(op["eta"]), (U, 0, 1))
        assert sp.simplify(total - sp.Rational(Fraction(op["c"]).numerator,
                                               Fraction(op["c"]).denominator)) == 0


def test_every_kind_has_a_known_answer():
    kinds = {k for mix, _ in gen._MIX.values() for k, _ in mix} | {"cli"}
    assert kinds == set(known.KNOWN)
    for entry in known.KNOWN.values():
        assert entry["how"]
