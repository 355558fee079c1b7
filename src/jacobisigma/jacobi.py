"""Jacobi pairs (a bivector plus a vector field) and their bracket calculus.

The bracket of two functions is

    {f, g} = Lam(df, dg) + f E(g) - g E(f),

a local Lie bracket that is a first-order bidifferential operator rather
than a derivation in each slot.  The pair is a Jacobi structure exactly when

    schouten(E, Lam) = 0   and   schouten(Lam, Lam) + 2 E ^ Lam = 0

(in this package's Schouten normalization; see geometry).  jacobi_check
tests those residuals and cross-validates with sampled Jacobiators of probe
triples; the two routes disagreeing is an internal error, not a property of
the input.  Its Jacobiators share their parts: the bracket of each ordered
probe pair, each partial derivative of a pair bracket, and Lam#(df) and E(f)
per probe for the outer brackets are built once per call, and every
Jacobiator is the same tree jacobiator() builds.

poissonize produces the degree -1 homogeneous Poisson bivector on the chart
extended by a positive fibre coordinate s (weight 1):

    Pi = (1/s) Lam  +  E ^ (-d/ds wedged in)   i.e.   components
    Pi[i,j] = Lam[i,j]/s,   Pi[i, s] = -E[i],

under which f |-> s*f intertwines the two brackets.

sharp_terms is the one statement of the sharp map J#(p, z) = (Lam(p, .) +
z E, -E(p)): v^n = Lam^{mn} p_m + E^n z and t = -E^m p_m.  Every caller
(j_sharp, the algebroid morphisms, the sigma model's x/s rows) sums its terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from typing import Mapping

import numpy as np

from . import expr as ex
from . import geometry as geo
from .expr import Expression
from .geometry import (Chart, DifferentialForm, MultivectorField, SmoothMap,
                       de_rham, form, full_contract, interior, is_zero_tensor,
                       lie_derivative, max_abs_tensor, mvf, pushforward, scalar,
                       sharp, vector_apply, wedge)


class InternalConsistencyError(RuntimeError):
    """Two independent computation routes disagreed; a bug, not bad input."""


class HomogeneousPoissonError(ValueError, AssertionError):
    """Invalid data for a homogeneous Poisson structure.  Also an
    AssertionError, the type callers caught when it was checked by assert."""


class JacobiPairError(ValueError, AssertionError):
    """A Jacobi pair whose Lam or E is not of its degree on the pair's chart.
    Also an AssertionError, the type callers caught when it was checked by
    assert."""


@dataclass
class JacobiPair:
    chart: Chart
    lam: MultivectorField
    e: MultivectorField

    def __post_init__(self):
        for label, t, degree in (("Lam", self.lam, 2), ("E", self.e, 1)):
            if t.degree != degree or t.chart != self.chart:
                raise JacobiPairError(
                    f"{label} must be a multivector field of degree {degree} "
                    f"on the pair's chart {self.chart.names}, got degree "
                    f"{t.degree} on {t.chart.names}")

    @classmethod
    def build(cls, chart: Chart, lam_comps: Mapping = None, e_comps: Mapping = None):
        return cls(chart, mvf(chart, 2, lam_comps), mvf(chart, 1, e_comps))


def bracket(J: JacobiPair, f, g) -> Expression:
    """{f, g} = Lam(df, dg) + f E(g) - g E(f)."""
    f, g = ex.coerce(f), ex.coerce(g)
    return _bracket(J, f, _first_slot(J, f), g,
                    lambda name: ex.differentiate(g, name))


def _first_slot(J: JacobiPair, f: Expression):
    """(Lam#(df), E(f)): what the bracket {f, .} needs of f.  f is
    smart-constructor output, so the trusted path gives the 0-form that
    form() would."""
    df = de_rham(geo._tensor(DifferentialForm, J.chart, 0, {(): f}))
    return sharp(J.lam, df), vector_apply(J.e, f)


def _bracket(J: JacobiPair, f: Expression, f_slot, g: Expression,
             dg) -> Expression:
    """{f, g} from f_slot = _first_slot(J, f) and dg(name), the partial
    derivative of g."""
    sharp_df, e_f = f_slot
    terms = [geo._apply_partials(sharp_df, dg)]
    e_g = geo._apply_partials(J.e, dg)
    if not ex.is_exact_zero(e_g):
        terms.append(ex.mul(f, e_g))
    if not ex.is_exact_zero(e_f):
        terms.append(ex.neg(ex.mul(g, e_f)))
    return ex.add(*terms)


def jacobiator(J: JacobiPair, f, g, h) -> Expression:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}; vanishes iff the bracket is Lie."""
    return ex.add(bracket(J, f, bracket(J, g, h)),
                  bracket(J, g, bracket(J, h, f)),
                  bracket(J, h, bracket(J, f, g)))


def _jacobiator_probes(J: JacobiPair):
    """Deterministic probes [(name, function)]: the constant 1, the
    coordinates, and a few quadratics (the bracket is first order, so these
    exercise the E terms)."""
    coords = [ex.var(n) for n in J.chart.names]
    probes = [("1", ex.ONE)] + [(n, v) for n, v in zip(J.chart.names, coords)]
    for n, v in list(zip(J.chart.names, coords))[:2]:
        probes.append((f"{n}^2", ex.pow_(v, 2)))
    return probes


def _jacobiators(J: JacobiPair):
    """Yield ((name, name, name), jacobiator(J, f, g, h)) for every probe
    triple f < g < h, each tree equal to the one jacobiator builds.

    The parts that triples share are built once per call: the bracket of
    each ordered probe pair ({h, f} as bracket(h, f), never as -{f, h}, so
    the trees match) and the _first_slot of each probe for the outer
    brackets.  The partial derivatives of a pair bracket are memoised on
    its node by differentiate."""
    names, fns = zip(*_jacobiator_probes(J))
    slots = [_first_slot(J, f) for f in fns]

    @cache
    def pair(i, j):              # {f_i, f_j}
        # a bracket() call, not slots[i] reused: perfbench's tracer counts
        # the bracket work of jacobi_check through bracket()
        return bracket(J, fns[i], fns[j])

    def outer(a, i, j):          # {f_a, {f_i, f_j}}
        g = pair(i, j)
        return _bracket(J, fns[a], slots[a], g,
                        lambda name: ex.differentiate(g, name))

    for a, b, c in combinations(range(len(fns)), 3):
        yield ((names[a], names[b], names[c]),
               ex.add(outer(a, b, c), outer(b, c, a), outer(c, a, b)))


@dataclass
class JacobiCheckReport:
    ok: bool
    res_e_lam: MultivectorField
    res_lam_lam: MultivectorField
    max_residual: float
    jacobiator_values: list          # [((name, name, name), max_abs)]
    witness: tuple                   # (triple names, value) or None

    def summary(self) -> str:
        line = "jacobi_check: " + ("PASS" if self.ok else "FAIL")
        line += f"  max residual {self.max_residual:.3e}"
        if self.witness:
            names, val = self.witness
            line += f"  jacobiator({','.join(names)}) = {val:.12g}"
        return line


def jacobi_check(J: JacobiPair, *, tol: float = ex.DEFAULT_TOL,
                 trials: int = ex.DEFAULT_TRIALS,
                 seed: int = ex.DEFAULT_SEED) -> JacobiCheckReport:
    """Structure-equation residuals, cross-validated by sampled Jacobiators."""
    r1 = geo.schouten(J.e, J.lam)
    r2 = geo.schouten(J.lam, J.lam) + wedge(J.e, J.lam).scale(2)
    m1 = max_abs_tensor(r1, trials=trials, seed=seed)[0] if r1.comps else 0.0
    m2 = max_abs_tensor(r2, trials=trials, seed=seed)[0] if r2.comps else 0.0
    sn_ok = m1 <= tol and m2 <= tol

    box = J.chart.sample_box()
    jac_vals = []
    coord_names = set(J.chart.names)
    for triple, val in _jacobiators(J):
        m, _ = ex.max_abs(val, box, trials=trials, seed=seed)
        jac_vals.append((triple, m))
    jac_ok = all(m <= tol for _, m in jac_vals)

    if not jac_ok and sn_ok:
        raise InternalConsistencyError(
            "jacobi_check: Jacobiator violation with vanishing structure "
            "residuals")

    witness = None
    if not jac_ok:
        # prefer a pure coordinate triple as the certificate
        coord_triples = [(t, m) for t, m in jac_vals
                         if set(t) <= coord_names and m > tol]
        pool = coord_triples or [(t, m) for t, m in jac_vals if m > tol]
        witness = max(pool, key=lambda tm: tm[1])
    return JacobiCheckReport(sn_ok, r1, r2, max(m1, m2), jac_vals, witness)


# ----- homogeneous Poisson side -----

@dataclass
class HomogeneousPoisson:
    chart: Chart                 # base chart extended by the fibre coordinate
    pi: MultivectorField
    s_name: str
    source: JacobiPair = None

    def __post_init__(self):
        if self.s_name not in self.chart.names:
            raise HomogeneousPoissonError(
                f"'{self.s_name}' is not a chart coordinate")
        if self.pi.degree != 2 or self.pi.chart != self.chart:
            raise HomogeneousPoissonError("pi must be a bivector on the chart")
        lo, hi = self.chart.box.get(self.s_name, (0.5, 2.0))
        if lo <= 0.0 <= hi:
            raise HomogeneousPoissonError(
                f"the interval of '{self.s_name}' must exclude 0")

    @property
    def base_names(self):
        return tuple(n for n in self.chart.names if n != self.s_name)

    def jacobi_data(self) -> JacobiPair:
        """Recover (Lam, E) by restricting to s = 1."""
        ch = self.chart
        s_idx = ch.index(self.s_name)
        base_idx = [i for i in range(ch.dim) if i != s_idx]
        bchart = Chart(self.base_names,
                       {n: ch.box[n] for n in self.base_names if n in ch.box},
                       {n: w for n, w in ch.weights.items() if n != self.s_name})
        at_one = {self.s_name: ex.ONE}
        lam_comps, e_comps = {}, {}
        for (a, b), val in self.pi.comps.items():
            v1 = ex.substitute(val, at_one)
            if a == s_idx or b == s_idx:
                other, sign = (b, -1) if a == s_idx else (a, 1)
                # stored (i, s) = -E^i when s comes last; flip if s sorts first
                name = ch.names[other]
                e_comps[(bchart.index(name),)] = ex.mul(ex.num(-sign), v1)
            else:
                key = tuple(bchart.index(ch.names[i]) for i in (a, b))
                lam_comps[key] = ex.mul(ex.var(self.s_name), val)
                lam_comps[key] = ex.substitute(lam_comps[key], at_one)
        return JacobiPair(bchart, mvf(bchart, 2, lam_comps), mvf(bchart, 1, e_comps))

    def poisson_ok(self, **kw) -> bool:
        return is_zero_tensor(geo.schouten(self.pi, self.pi), **kw)

    def homogeneity_ok(self, **kw) -> bool:
        return geo.has_scaling_degree(self.pi, -1, **kw)


def poissonize(J: JacobiPair, s_name: str = "s",
               s_box: tuple = (0.5, 2.0)) -> HomogeneousPoisson:
    """Degree -1 Poisson bivector on the chart extended by s (weight 1)."""
    if s_name in J.chart.names:
        raise HomogeneousPoissonError(
            f"'{s_name}' is already a chart coordinate; poissonize adds it")
    chart = J.chart.extend((s_name,), box={s_name: s_box}, weights={s_name: 1})
    s_idx = chart.dim - 1
    s = ex.var(s_name)
    comps = {}
    for key, val in J.lam.comps.items():
        comps[key] = ex.div(val, s)
    for (i,), val in J.e.comps.items():
        comps[(i, s_idx)] = ex.neg(val)     # E^i d/ds ^ d/dx^i
    # increasing keys (s is the last coordinate), smart-constructor values
    return HomogeneousPoisson(chart, geo._tensor(MultivectorField, chart, 2,
                                                 comps), s_name, source=J)


# ----- pointwise maps between the jet and derivation pictures -----

@dataclass
class JetPoint:
    """A 1-jet style point: base coordinates, covector components, and the
    extra scalar z."""
    base: dict
    p: dict
    z: object = 0

    def __post_init__(self):
        self.base = {k: ex.coerce(v) for k, v in self.base.items()}
        self.p = {k: ex.coerce(v) for k, v in self.p.items()}
        self.z = ex.coerce(self.z)


@dataclass
class DerPoint:
    """A derivation-style point: base coordinates, vector components, and
    the extra scalar t."""
    base: dict
    v: dict
    t: object = 0

    def __post_init__(self):
        self.base = {k: ex.coerce(v) for k, v in self.base.items()}
        self.v = {k: ex.coerce(v) for k, v in self.v.items()}
        self.t = ex.coerce(self.t)


def sharp_terms(J: JacobiPair):
    """J# as coefficient lists ({n: [(coeff, m), ...]}, [(coeff, m), ...]):
    v^n and t are sums of coeff * p_m, with z in place of p_m for m = None.
    Exact zeros are left out; v terms come in chart order with the z term
    last, t terms in the storage order of E."""
    names = J.chart.names
    v = {}
    for n in names:
        terms = [(J.lam.component(m, n), m) for m in names if m != n]
        terms.append((J.e.component(n), None))
        v[n] = [(c, m) for c, m in terms if not ex.is_exact_zero(c)]
    t = [(ex.neg(c), names[i]) for (i,), c in J.e.comps.items()]
    return v, t


def j_sharp(J: JacobiPair, pt: JetPoint) -> DerPoint:
    """(x, p, z) |-> (x, Lam(x)(p, .) + z E(x), -E(x)(p))."""
    names = J.chart.names
    assert set(pt.base) == set(names) and set(pt.p) <= set(names)
    v_terms, t_terms = sharp_terms(J)

    def total(terms):
        acc = ex.ZERO
        for c, m in terms:
            slot = pt.z if m is None else pt.p.get(m, ex.ZERO)
            acc = ex.add(acc, ex.mul(ex.substitute(c, pt.base), slot))
        return acc
    return DerPoint(dict(pt.base), {n: total(v_terms[n]) for n in names},
                    total(t_terms))


def pairing_L(der: DerPoint, jet: JetPoint) -> Expression:
    """<(x, v, t), (x, p, z)> = v.p + t z; both points must share the base."""
    for k, val in der.base.items():
        other = ex.normalize(jet.base[k])
        assert ex.normalize(val) == other, f"base mismatch at {k}"
    parts = [ex.mul(v, jet.p.get(n, ex.ZERO)) for n, v in der.v.items()]
    parts.append(ex.mul(der.t, jet.z))
    return ex.add(*parts)


def hamiltonian_vf(J: JacobiPair, sigma) -> MultivectorField:
    """X_sigma = Lam#(d sigma) + sigma E, so X_sigma(f) = {sigma, f} - f {sigma, 1}."""
    sigma = ex.coerce(sigma)
    dsig = de_rham(form(J.chart, 0, {(): sigma}))
    return sharp(J.lam, dsig) + J.e.scale(sigma)


def jet_bracket(J: JacobiPair, af, bg):
    """Bracket of 1-jet style sections (alpha, f), (beta, g).

    Returns (1-form, function).  On holonomic sections (df, f), (dg, g) the
    function slot reproduces {f, g} and the form slot its differential.
    """
    alpha, f = af
    beta, g = bg
    assert alpha.degree == 1 and beta.degree == 1
    f, g = ex.coerce(f), ex.coerce(g)
    lam, E = J.lam, J.e
    sh_a, sh_b = sharp(lam, alpha), sharp(lam, beta)
    ab = wedge(alpha, beta)
    form_slot = (lie_derivative(sh_a, beta) - lie_derivative(sh_b, alpha)
                 - de_rham(form(J.chart, 0, {(): full_contract(lam, ab)}))
                 + lie_derivative(E, beta).scale(f)
                 - lie_derivative(E, alpha).scale(g)
                 - interior(E, ab))
    fn_slot = ex.add(full_contract(lam, wedge(beta, alpha)),
                     vector_apply(sh_a, g),
                     ex.neg(vector_apply(sh_b, f)),
                     ex.mul(f, vector_apply(E, g)),
                     ex.neg(ex.mul(g, vector_apply(E, f))))
    return form_slot, fn_slot


# ----- line-bundle atlases -----

@dataclass
class Overlap:
    """A glued region between two atlas charts.

    fwd/inv map base coordinates; g is the (nonvanishing) transition factor
    in source coordinates, acting on the fibre by s -> s/g.
    """
    src: str
    dst: str
    fwd: SmoothMap
    inv: SmoothMap
    g: Expression
    src_box: dict
    dst_box: dict

    def __post_init__(self):
        self.g = ex.coerce(self.g)


@dataclass
class LineBundleAtlas:
    charts: dict                  # name -> JacobiPair
    overlaps: list = field(default_factory=list)


@dataclass
class AtlasReport:
    ok: bool
    chart_checks: dict            # name -> bool (jacobi residuals)
    overlap_checks: list          # per-overlap dict
    chain_checks: list            # per-composable-pair dict

    def summary(self) -> str:
        out = ["atlas_check: " + ("PASS" if self.ok else "FAIL")]
        for n, okc in self.chart_checks.items():
            out.append(f"  chart {n}: jacobi {'ok' if okc else 'FAIL'}")
        for oc in self.overlap_checks:
            out.append(f"  overlap {oc['src']}->{oc['dst']}@{oc['index']}: "
                       f"roundtrip {'ok' if oc['roundtrip_ok'] else 'FAIL'}, "
                       f"min|g| {oc['g_min']:.3g}, "
                       f"gluing {'ok' if oc['gluing_ok'] else 'FAIL'} "
                       f"(max dev {oc['gluing_max']:.3e})")
        for cc in self.chain_checks:
            out.append(f"  chain {cc['via']}: {'ok' if cc['ok'] else 'FAIL'}")
        return "\n".join(out)


def _extended_overlap_maps(atlas: LineBundleAtlas, ov: Overlap, s_name: str):
    src_pair, dst_pair = atlas.charts[ov.src], atlas.charts[ov.dst]
    src_ext = src_pair.chart.extend((s_name,), box={s_name: (0.5, 2.0)},
                                    weights={s_name: 1})
    dst_ext = dst_pair.chart.extend((s_name,), box={s_name: (0.5, 2.0)},
                                    weights={s_name: 1})
    s = ex.var(s_name)
    fwd = SmoothMap(src_ext, dst_ext,
                    {**ov.fwd.comps, s_name: ex.div(s, ov.g)})
    g_back = ex.substitute(ov.g, ov.inv.comps)   # g in target coordinates
    inv = SmoothMap(dst_ext, src_ext,
                    {**ov.inv.comps, s_name: ex.mul(s, g_back)})
    return fwd, inv


def _inside(cols: Mapping, box: Mapping, n: int) -> np.ndarray:
    """Mask of the n points of cols with lo < x < hi on every coordinate of
    the box, each Python float compared with the bounds as they are."""
    inside = np.ones(n, dtype=bool)
    for name, (lo, hi) in box.items():
        inside &= [lo < x < hi for x in cols[name].tolist()]
    return inside


def _select(cols: Mapping, mask: np.ndarray) -> dict:
    """The points of cols where mask holds, in the key order of cols."""
    return {n: c[mask] for n, c in cols.items()}


def atlas_check(atlas: LineBundleAtlas, *, s_name: str = "s",
                tol: float = ex.DEFAULT_TOL, g_floor: float = 1e-6,
                trials: int = ex.DEFAULT_TRIALS,
                seed: int = ex.DEFAULT_SEED) -> AtlasReport:
    """Round-trips, nonvanishing transition factors, tensor gluing of the
    homogeneous Poisson data, and sampled cocycle consistency of composable
    overlap pairs."""
    chart_checks = {}
    for name, pair in atlas.charts.items():
        chart_checks[name] = jacobi_check(pair, tol=tol, trials=trials,
                                          seed=seed).ok

    overlap_checks = []
    for idx, ov in enumerate(atlas.overlaps):
        src_pair, dst_pair = atlas.charts[ov.src], atlas.charts[ov.dst]
        # (i) inverse really inverts on the overlap box
        rt = ov.fwd.then(ov.inv)
        rt_ok = all(ex.is_zero(ex.sub(rt.comps[n], ex.var(n)), ov.src_box,
                               tol=tol, trials=trials, seed=seed)
                    for n in src_pair.chart.names)
        # (ii) transition factor stays away from zero
        g_min = min(abs(v) for _, v in
                    ex.sample_values(ov.g, ov.src_box, trials=trials, seed=seed))
        # (iii) the homogeneous bivectors glue: push src Pi forward, compare
        fwd, inv = _extended_overlap_maps(atlas, ov, s_name)
        pi_src = poissonize(src_pair, s_name).pi
        pi_dst = poissonize(dst_pair, s_name).pi
        pushed = pushforward(pi_src, fwd, inv)
        delta = pushed - pi_dst
        box = dict(ov.dst_box)
        box[s_name] = (0.5, 2.0)
        dev = 0.0
        for val in delta.comps.values():
            m, _ = ex.max_abs(val, box, trials=trials, seed=seed)
            dev = max(dev, m)
        overlap_checks.append({
            "index": idx, "src": ov.src, "dst": ov.dst,
            "roundtrip_ok": rt_ok, "g_min": g_min, "g_ok": g_min > g_floor,
            "gluing_ok": dev <= tol, "gluing_max": dev,
        })

    chain_checks = []
    for i, o1 in enumerate(atlas.overlaps):
        for j, o2 in enumerate(atlas.overlaps):
            if o1.dst != o2.src:
                continue
            # sample src points whose image lands in o2's box
            pts = ex._halton_set(o1.src_box, trials, seed)
            img = {n: ex._point_array(o1.fwd.comps[n], pts, trials)
                   for n in o1.fwd.dst.names if n in o2.src_box}
            inside = _inside(img, o2.src_box, trials)
            if not inside.any():
                continue
            pts, img = _select(pts, inside), _select(img, inside)
            k = int(inside.sum())
            g_prod = (ex._point_array(o2.g, img, k)
                      * ex._point_array(o1.g, pts, k))
            if o1.src == o2.dst:
                # closed chain: composite must be the identity with g = 1
                bad = abs(g_prod - 1.0) > 10 * tol
                for n in o2.fwd.dst.names:
                    back = ex._point_array(o2.fwd.comps[n], img, k)
                    bad |= abs(back - pts[n]) > 10 * tol
                checked, ok = k, not bad.any()
            else:
                # open chain: compare against a declared composite overlap
                checked, ok = 0, True
                for o3 in atlas.overlaps:
                    if o3.src != o1.src or o3.dst != o2.dst:
                        continue
                    sel = _inside(pts, o3.src_box, k)
                    m = int(sel.sum())
                    if not m:
                        continue
                    pt3, img3 = _select(pts, sel), _select(img, sel)
                    g3 = ex._point_array(o3.g, pt3, m)
                    bad = abs(g3 - g_prod[sel]) > 10 * tol
                    for n in o2.fwd.dst.names:
                        comp = ex._point_array(o2.fwd.comps[n], img3, m)
                        dec = ex._point_array(o3.fwd.comps[n], pt3, m)
                        bad |= abs(comp - dec) > 10 * tol
                    ok = ok and not bad.any()
                    checked += m
            if checked:
                chain_checks.append({"via": f"{o1.src}->{o1.dst}->{o2.dst}"
                                            f" [{i},{j}]",
                                     "points": checked, "ok": ok})

    ok = (all(chart_checks.values())
          and all(oc["roundtrip_ok"] and oc["g_ok"] and oc["gluing_ok"]
                  for oc in overlap_checks)
          and all(cc["ok"] for cc in chain_checks))
    return AtlasReport(ok, chart_checks, overlap_checks, chain_checks)
