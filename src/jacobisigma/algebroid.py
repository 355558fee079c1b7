"""Skew/Lie algebroids presented by coordinate data, and their morphisms.

An AlgebroidStructure is a frame-level description over a base chart: one
anchor vector field per generator and structure functions stored on ordered
generator pairs.  The stored table is read through the differential:

    d f   = sum_i rho_i(f) y^i                       (functions)
    d y^k = sum_{a<b} c[(g_a, g_b)][g_k] y^a ^ y^b   (generator forms)

extended to higher degree by the graded Leibniz rule.  The same data is
equivalent to a fiberwise-linear bivector on the dual chart (base
coordinates first, fiber coordinates second); `from_linear_bivector` and
`rebuild_linear` convert back and forth and are mutually inverse.

A VBMorphism into an algebroid carries a base map plus one fiber 1-form per
target generator; `morphism_check` tests the two families of equations that
say pullback intertwines the differentials:

    d(x^a o phi0) = sum_i (rho^a_i o phi0) F^i
    d F^k         = sum_{a<b} (c^k_(a,b) o phi0) F^a ^ F^b

Scaling-equipped algebroids (RxAlgebroid) add integer weights on the base
chart and on the generators; `rx_check` verifies the bracket data is
preserved by the weighted scaling, via degree-0 invariance of the rebuilt
linear bivector under push_scale.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Optional, Sequence

from . import expr as ex
from ._records import record
from . import geometry as geo
from .geometry import Chart, DifferentialForm, MultivectorField, SmoothMap
from . import jacobi
from .jacobi import InternalConsistencyError


class LinearityError(ValueError):
    """A dual-chart bivector is not fiberwise linear; names the component
    (None: its degree or fiber split is wrong)."""

    def __init__(self, component, why):
        self.component = component
        super().__init__(why if component is None
                         else f"component {component}: {why}")


# ---------------------------------------------------------------------------
# structures


@record(frozen=True)
class AlgebroidStructure:
    base: Chart
    generators: tuple
    anchor: dict     # generator name -> {base coord name: Expression}
    c: dict          # (gen_a, gen_b) with a before b -> {gen_k: Expression}

    @classmethod
    def build(cls, base: Chart, generators: Sequence[str],
              anchor: Mapping = None, c: Mapping = None) -> "AlgebroidStructure":
        generators = tuple(generators)
        assert len(set(generators)) == len(generators), "duplicate generator"
        order = {g: i for i, g in enumerate(generators)}
        base_names = set(base.names)

        def clean(e):
            e = ex.normalize(ex.coerce(e))
            extra = ex.free_vars(e) - base_names
            assert not extra, f"coefficient uses non-base names {sorted(extra)}"
            return e

        rho = {}
        for g, row in (anchor or {}).items():
            assert g in order, f"unknown generator '{g}'"
            row = {a: e for a, e in ((a, clean(v)) for a, v in row.items())
                   if not ex.is_exact_zero(e)}
            for a in row:
                assert a in base_names, f"unknown base coordinate '{a}'"
            if row:
                rho[g] = row
        ctab = {}
        for pair, row in (c or {}).items():
            ga, gb = pair
            assert ga in order and gb in order, f"unknown generator pair {pair}"
            assert order[ga] < order[gb], f"pair {pair} not in generator order"
            row = {k: e for k, e in ((k, clean(v)) for k, v in row.items())
                   if not ex.is_exact_zero(e)}
            for k in row:
                assert k in order, f"unknown generator '{k}'"
            if row:
                ctab[(ga, gb)] = row
        return cls(base, generators, rho, ctab)

    @property
    def rank(self):
        return len(self.generators)

    @cached_property
    def gen_chart(self) -> Chart:
        """The generator names as a chart: the key space of AlgebroidForm."""
        return Chart.of_labels(self.generators)

    def gen_index(self, g: str) -> int:
        return self.generators.index(g)

    def anchor_vf(self, g: str) -> MultivectorField:
        """The base vector field rho(g)."""
        row = self.anchor.get(g, {})
        return geo.mvf(self.base, 1, {(a,): v for a, v in row.items()})

    def bracket_table(self):
        """Displayable bracket rows: for each stored pair (a, b) report
        ("[b, a]", {k: -c[(a,b)][k]}), dropping empty rows."""
        rows = []
        for (ga, gb), row in sorted(self.c.items(),
                                    key=lambda kv: (self.gen_index(kv[0][0]),
                                                    self.gen_index(kv[0][1]))):
            coeffs = {k: ex.neg(v) for k, v in row.items()}
            rows.append((gb, ga, coeffs))
        return rows

    def describe(self) -> str:
        lines = [f"base ({', '.join(self.base.names)}), "
                 f"generators ({', '.join(self.generators)})"]
        for g in self.generators:
            vf = self.anchor_vf(g)
            lines.append(f"  rho({g}) = {vf.pretty('d')}")
        for gb, ga, coeffs in self.bracket_table():
            rhs = " + ".join(f"({ex.to_text(v)})*{k}" for k, v in coeffs.items())
            lines.append(f"  [{gb}, {ga}] = {rhs or '0'}")
        return "\n".join(lines)


def tangent_algebroid(chart: Chart, gen_names: Sequence[str] = None) -> AlgebroidStructure:
    """The tangent algebroid of a chart: identity anchor, zero c-table."""
    if gen_names is None:
        gen_names = tuple("d" + n for n in chart.names)
    gen_names = tuple(gen_names)
    assert len(gen_names) == chart.dim
    anchor = {g: {n: ex.ONE} for g, n in zip(gen_names, chart.names)}
    return AlgebroidStructure.build(chart, gen_names, anchor, {})


def derivation_algebroid(base: Chart, gen_prefix: str = "v_",
                         t_name: str = "t") -> AlgebroidStructure:
    """First-order-operator algebroid of a trivialized line bundle over
    `base`: one generator per coordinate direction plus a vertical generator
    with zero anchor."""
    gens = tuple(gen_prefix + n for n in base.names) + (t_name,)
    assert len(set(gens)) == len(gens), "generator name clash"
    anchor = {gen_prefix + n: {n: ex.ONE} for n in base.names}
    return AlgebroidStructure.build(base, gens, anchor, {})


def _is_tangent_type(A: AlgebroidStructure) -> bool:
    if A.rank != A.base.dim or A.c:
        return False
    for i, g in enumerate(A.generators):
        row = A.anchor.get(g, {})
        want = A.base.names[i]
        if set(row) != {want} or row[want] != ex.ONE:
            return False
    return True


# ---------------------------------------------------------------------------
# algebroid forms and the differential


class AlgebroidForm(geo._Tensor):
    """A form in the generator duals y^i with coefficients over the base
    chart: geometry's tensor container keyed on generator indices (its
    chart is `alg.gen_chart`), as DifferentialForm is keyed on coordinates."""

    def __init__(self, alg: AlgebroidStructure, degree: int, comps: Mapping = None):
        self.alg = alg
        super().__init__(alg.gen_chart, degree, comps)

    def _new(self, comps, degree: int = None):
        out = super()._new(comps, degree)
        out.alg = self.alg
        return out

    def __repr__(self):
        return f"AlgebroidForm(deg {self.degree}: {self.pretty('y')})"

    def max_abs(self, *, tol=ex.DEFAULT_TOL, trials=ex.DEFAULT_TRIALS,
                seed=ex.DEFAULT_SEED) -> float:
        box = self.alg.base.sample_box()
        return max([0.0] + [ex.max_abs(e, box, trials=trials, seed=seed)[0]
                            for e in self.comps.values()])

    def is_zero(self, *, tol=ex.DEFAULT_TOL, trials=ex.DEFAULT_TRIALS,
                seed=ex.DEFAULT_SEED) -> bool:
        return self.max_abs(trials=trials, seed=seed) <= tol


def aform(alg: AlgebroidStructure, degree: int, comps: Mapping = None) -> AlgebroidForm:
    return AlgebroidForm(alg, degree, comps)


def aform_from_form(alg: AlgebroidStructure, w: DifferentialForm) -> AlgebroidForm:
    """Reinterpret a chart form as a form on the tangent algebroid of the
    same chart (coordinate index i becomes generator index i)."""
    assert _is_tangent_type(alg), "source algebroid is not a tangent algebroid"
    assert w.chart.names == alg.base.names
    return AlgebroidForm(alg, w.degree, dict(w.comps))


def _dgen_tables(A: AlgebroidStructure):
    """Per-generator 2-form tables {(a_idx, b_idx): coeff} realizing d y^k."""
    out = {k: {} for k in range(A.rank)}
    for (ga, gb), row in A.c.items():
        key = (A.gen_index(ga), A.gen_index(gb))
        for gk, v in row.items():
            tab = out[A.gen_index(gk)]
            tab[key] = ex.add(tab.get(key, ex.ZERO), v)
    return out


def algebroid_d(A: AlgebroidStructure, w) -> AlgebroidForm:
    """The frame-level differential; on functions d f = sum_i rho_i(f) y^i,
    on generator duals the stored c-table, Leibniz in between."""
    if not isinstance(w, AlgebroidForm):
        w = AlgebroidForm(A, 0, {(): ex.coerce(w)})
    assert w.alg.generators == A.generators
    if w.degree > A.rank:
        raise ValueError(f"degree {w.degree} exceeds rank {A.rank}")
    dgen = _dgen_tables(A)
    out = {}

    def put(key, val):
        out[key] = ex.add(out.get(key, ex.ZERO), val)

    for key, val in w.comps.items():
        # d(coefficient) ^ y^key
        for i, g in enumerate(A.generators):
            dv = ex.ZERO
            for a, r in A.anchor.get(g, {}).items():
                dv = ex.add(dv, ex.mul(r, ex.differentiate(val, a)))
            if ex.is_exact_zero(dv):
                continue
            merged = geo._merge_indices((i,), key)
            if merged is None:
                continue
            sign, nk = merged
            put(nk, ex.mul(ex.num(sign), dv))
        # coefficient * sum_j (-1)^j y^{key<j} ^ d y^{key_j} ^ y^{key>j}
        for j, gi in enumerate(key):
            for pair, cv in dgen[gi].items():
                m1 = geo._merge_indices(key[:j], pair)
                if m1 is None:
                    continue
                s1, k1 = m1
                m2 = geo._merge_indices(k1, key[j + 1:])
                if m2 is None:
                    continue
                s2, k2 = m2
                put(k2, ex.mul(ex.num((-1) ** j * s1 * s2), ex.mul(val, cv)))
    # keys from _merge_indices, values from the smart constructors
    dw = geo._tensor(AlgebroidForm, A.gen_chart, w.degree + 1, out)
    dw.alg = A
    return dw


def d_squared_residuals(A: AlgebroidStructure):
    """(label, AlgebroidForm) for d^2 on every base coordinate and generator."""
    out = []
    for n in A.base.names:
        out.append((n, algebroid_d(A, algebroid_d(A, ex.var(n)))))
    for k, g in enumerate(A.generators):
        yk = AlgebroidForm(A, 1, {(k,): ex.ONE})
        out.append((g, algebroid_d(A, algebroid_d(A, yk))))
    return out


def is_lie(A: AlgebroidStructure, *, tol=ex.DEFAULT_TOL,
           trials=ex.DEFAULT_TRIALS, seed=ex.DEFAULT_SEED) -> bool:
    """True iff d^2 vanishes on all base coordinates and generators."""
    return lie_witness(A, tol=tol, trials=trials, seed=seed) is None


def lie_witness(A: AlgebroidStructure, *, tol=ex.DEFAULT_TOL,
                trials=ex.DEFAULT_TRIALS, seed=ex.DEFAULT_SEED):
    """None when d^2 = 0; otherwise (label, residual form, sample point)."""
    box = A.base.sample_box()
    for label, r in d_squared_residuals(A):
        for key, val in r.comps.items():
            worst, point = ex.max_abs(val, box, trials=trials, seed=seed)
            if worst > tol:
                return label, r, point
    return None


# ---------------------------------------------------------------------------
# linear bivector <-> algebroid data


def from_linear_bivector(P: MultivectorField, fiber_names: Sequence[str] = None,
                         gen_names: Sequence[str] = None, *,
                         validate: bool = True, tol=ex.DEFAULT_TOL,
                         trials=ex.DEFAULT_TRIALS, seed=ex.DEFAULT_SEED) -> AlgebroidStructure:
    """Read algebroid data off a fiberwise-linear bivector on a dual chart.

    The chart must list base coordinates first and fiber coordinates last;
    by default the second half of the names is the fiber.  Components are
    split into blocks: base-base must vanish, base-fiber coefficients give
    the anchor (with a sign), fiber-fiber coefficients must be linear
    homogeneous in the fiber and differentiate to the c-table.
    """
    if P.degree != 2:
        raise LinearityError(None, f"degree {P.degree}, not a bivector")
    chart = P.chart
    if fiber_names is None:
        if chart.dim % 2:
            raise LinearityError(None, "cannot infer the fiber split")
        fiber_names = chart.names[chart.dim // 2:]
    fiber_names = tuple(fiber_names)
    nb = chart.dim - len(fiber_names)
    if chart.names[nb:] != fiber_names:
        raise LinearityError(None, "fiber coordinates must come last")
    base_names = chart.names[:nb]
    if gen_names is None:
        gen_names = fiber_names
    gen_names = tuple(gen_names)
    if len(gen_names) != len(fiber_names):
        raise LinearityError(None, "one generator name per fiber coordinate")

    base = Chart(base_names,
                 {n: chart.box[n] for n in base_names if n in chart.box},
                 {n: chart.weights[n] for n in base_names if n in chart.weights})
    fiber_set = set(fiber_names)
    box = chart.sample_box()

    anchor = {g: {} for g in gen_names}
    ctab = {}
    for (i, j), val in P.comps.items():
        names = (chart.names[i], chart.names[j])
        if j < nb:
            if validate and not ex.is_zero(val, box, tol=tol, trials=trials, seed=seed):
                raise LinearityError(names, "base-base block must vanish")
            continue
        if i < nb:
            # rho^{x_i}_{gen j} = -P^{ij}
            if validate and (ex.free_vars(val) & fiber_set):
                raise LinearityError(names, "anchor block must be fiber-free")
            g = gen_names[j - nb]
            anchor[g][chart.names[i]] = ex.neg(val)
            continue
        # fiber-fiber: linear homogeneous; c^k = -d val / d xi_k
        ga, gb = gen_names[i - nb], gen_names[j - nb]
        row = {}
        euler = ex.neg(val)
        for k, fk in enumerate(fiber_names):
            dk = ex.differentiate(val, fk)
            if validate and (ex.free_vars(dk) & fiber_set):
                raise LinearityError(names, "fiber-fiber block must be linear in the fiber")
            euler = ex.add(euler, ex.mul(ex.var(fk), dk))
            if not ex.is_exact_zero(dk):
                row[gen_names[k]] = ex.neg(dk)
        if validate and not ex.is_zero(euler, box, tol=tol, trials=trials, seed=seed):
            raise LinearityError(names, "fiber-fiber block must be homogeneous of degree 1")
        if row:
            ctab[(ga, gb)] = row

    A = AlgebroidStructure.build(base, gen_names, anchor, ctab)
    if validate:
        back = rebuild_linear(A, fiber_names=fiber_names,
                              fiber_box={n: chart.box.get(n, (-1.0, 1.0)) for n in fiber_names},
                              fiber_weights={n: chart.weights[n] for n in fiber_names
                                             if n in chart.weights})
        diff = geo.mvf(chart, 2, dict(back.comps)) - P
        dev = geo.max_abs_tensor(diff, trials=trials, seed=seed)[0]
        if dev > tol:
            raise InternalConsistencyError(
                f"from_linear_bivector: extraction does not rebuild the "
                f"input (deviation {dev:.3e})")
    return A


def rebuild_linear(A: AlgebroidStructure, fiber_names: Sequence[str] = None,
                   fiber_box=None, fiber_weights: Mapping = None) -> MultivectorField:
    """The fiberwise-linear bivector on base+fiber encoding (rho, c)."""
    if fiber_names is None:
        fiber_names = A.generators
    fiber_names = tuple(fiber_names)
    assert len(fiber_names) == A.rank
    clash = set(fiber_names) & set(A.base.names)
    assert not clash, f"fiber names collide with base coordinates: {sorted(clash)}"
    if fiber_box is None:
        fiber_box = {n: (-1.0, 1.0) for n in fiber_names}
    elif isinstance(fiber_box, tuple):
        fiber_box = {n: fiber_box for n in fiber_names}
    chart = A.base.extend(fiber_names, box=fiber_box, weights=dict(fiber_weights or {}))
    nb = A.base.dim
    comps = {}
    for g, row in A.anchor.items():
        j = nb + A.gen_index(g)
        for a, v in row.items():
            comps[(A.base.index(a), j)] = ex.neg(v)
    for (ga, gb), row in A.c.items():
        key = (nb + A.gen_index(ga), nb + A.gen_index(gb))
        val = ex.ZERO
        for gk, cv in row.items():
            val = ex.add(val, ex.mul(cv, ex.var(fiber_names[A.gen_index(gk)])))
        comps[key] = ex.neg(val)
    return geo.mvf(chart, 2, comps)


# ---------------------------------------------------------------------------
# morphisms


def _alg_of(target) -> AlgebroidStructure:
    return target.alg if isinstance(target, RxAlgebroid) else target


@record(frozen=True)
class VBMorphism:
    src: AlgebroidStructure
    dst: object                 # AlgebroidStructure or RxAlgebroid
    base_map: SmoothMap         # src.base -> dst base chart
    fiber: dict                 # dst generator name -> degree-1 AlgebroidForm on src

    @classmethod
    def build(cls, src: AlgebroidStructure, dst, base_map: SmoothMap,
              fiber: Mapping) -> "VBMorphism":
        dalg = _alg_of(dst)
        assert base_map.src.names == src.base.names
        assert base_map.dst.names == dalg.base.names
        out = {}
        for g in dalg.generators:
            w = fiber.get(g)
            if w is None:
                out[g] = AlgebroidForm(src, 1, {})
            elif isinstance(w, DifferentialForm):
                out[g] = aform_from_form(src, w)
            else:
                assert isinstance(w, AlgebroidForm) and w.degree == 1
                out[g] = w
        return cls(src, dst, base_map, out)

    def dst_alg(self) -> AlgebroidStructure:
        return _alg_of(self.dst)


def identity_morphism(A: AlgebroidStructure) -> VBMorphism:
    fiber = {g: AlgebroidForm(A, 1, {(i,): ex.ONE})
             for i, g in enumerate(A.generators)}
    return VBMorphism.build(A, A, geo.identity_map(A.base), fiber)


def pullback_aform(phi: VBMorphism, w: AlgebroidForm) -> AlgebroidForm:
    """Pull a target algebroid form back through a VB morphism: coefficients
    compose with the base map, y^k goes to the fiber form F^k."""
    dalg = phi.dst_alg()
    assert w.alg.generators == dalg.generators
    out = AlgebroidForm(phi.src, w.degree, {})
    for key, val in w.comps.items():
        term = AlgebroidForm(phi.src, 0, {(): phi.base_map.apply(val)})
        for i in key:
            term = term.wedge(phi.fiber[dalg.generators[i]])
        out = out + term
    return out


def compose(outer: VBMorphism, inner: VBMorphism) -> VBMorphism:
    assert inner.dst_alg().generators == outer.src.generators
    fiber = {g: pullback_aform(inner, outer.fiber[g])
             for g in outer.dst_alg().generators}
    return VBMorphism.build(inner.src, outer.dst,
                            inner.base_map.then(outer.base_map), fiber)


@record(frozen=True)
class MorphismReport:
    ok: bool
    base_residuals: dict    # dst coord -> AlgebroidForm (degree 1) on src
    gen_residuals: dict     # dst generator -> AlgebroidForm (degree 2) on src
    max_dev: float
    devs: dict              # ("base" | "gen", label) -> sampled max |residual|

    def worst(self):
        if not self.devs:
            return None, 0.0
        return max(self.devs.items(), key=lambda kv: kv[1])

    def summary(self) -> str:
        lines = [f"morphism_check: {'PASS' if self.ok else 'FAIL'} "
                 f"(max residual {self.max_dev:.3e})"]
        for k, r in self.base_residuals.items():
            lines.append(f"  d({k}) equation: {r.pretty('y')}")
        for k, r in self.gen_residuals.items():
            lines.append(f"  d F[{k}] equation: {r.pretty('y')}")
        return "\n".join(lines)


def morphism_check(phi: VBMorphism, *, tol=ex.DEFAULT_TOL,
                   trials=ex.DEFAULT_TRIALS, seed=ex.DEFAULT_SEED) -> MorphismReport:
    """Residuals of the two intertwining equation families, with verdict."""
    src, dalg = phi.src, phi.dst_alg()
    base_res = {}
    for a in dalg.base.names:
        lhs = algebroid_d(src, phi.base_map(a))
        rhs = AlgebroidForm(src, 1, {})
        for g in dalg.generators:
            coeff = dalg.anchor.get(g, {}).get(a)
            if coeff is None:
                continue
            rhs = rhs + phi.fiber[g].scale(phi.base_map.apply(coeff))
        base_res[a] = lhs - rhs
    gen_res = {}
    for g in dalg.generators:
        lhs = algebroid_d(src, phi.fiber[g])
        rhs = AlgebroidForm(src, 2, {})
        for (ga, gb), row in dalg.c.items():
            coeff = row.get(g)
            if coeff is None:
                continue
            rhs = rhs + phi.fiber[ga].wedge(phi.fiber[gb]).scale(phi.base_map.apply(coeff))
        gen_res[g] = lhs - rhs
    devs = {("base", k): r.max_abs(trials=trials, seed=seed)
            for k, r in base_res.items()}
    devs.update({("gen", k): r.max_abs(trials=trials, seed=seed)
                 for k, r in gen_res.items()})
    worst = max(devs.values()) if devs else 0.0
    return MorphismReport(worst <= tol, base_res, gen_res, worst, devs)


# ---------------------------------------------------------------------------
# scaling actions


@record(frozen=True)
class RxAlgebroid:
    """An algebroid with a weighted scaling action: integer weights on the
    base chart plus one weight per generator."""
    alg: AlgebroidStructure
    gen_weights: dict
    poisson: Optional[jacobi.HomogeneousPoisson] = None

    def __post_init__(self):
        for g in self.alg.generators:
            assert g in self.gen_weights, f"missing weight for generator '{g}'"


def rx_check(R: RxAlgebroid, *, nu: str = "nu", tol=ex.DEFAULT_TOL,
             trials=ex.DEFAULT_TRIALS, seed=ex.DEFAULT_SEED) -> bool:
    """True when the weighted scaling preserves (rho, c): the rebuilt linear
    bivector, with fiber weights minus the generator weights, is invariant
    (scaling degree 0) under push_scale."""
    if not isinstance(R, RxAlgebroid):
        raise ValueError("rx_check needs scaling weights (RxAlgebroid)")
    fw = {g: -int(R.gen_weights[g]) for g in R.alg.generators}
    P = rebuild_linear(R.alg, fiber_weights={g: fw[g] for g in R.alg.generators})
    return geo.has_scaling_degree(P, 0, nu=nu, tol=tol, trials=trials, seed=seed)


def cotangent_algebroid(hp: jacobi.HomogeneousPoisson, *, gen_prefix: str = "pi_",
                        z_name: str = "z", validate: bool = True,
                        tol=ex.DEFAULT_TOL, trials=ex.DEFAULT_TRIALS,
                        seed=ex.DEFAULT_SEED) -> RxAlgebroid:
    """The algebroid on the dual of a scale-homogeneous Poisson chart: the
    tangent lift of the bivector is fiberwise linear, and its extraction
    gives one momentum generator per base coordinate plus one for the scale
    direction.  Generator weights: momenta 1, scale generator 0."""
    names = hp.chart.names
    gen_names = []
    for n in names:
        g = z_name if n == hp.s_name else gen_prefix + n
        gen_names.append(g)
    clash = set(gen_names) & set(names)
    if clash:
        raise ValueError(f"generator names collide with coordinates: {sorted(clash)}; "
                         f"pass gen_prefix/z_name")
    lift = geo.tangent_lift(hp.pi)
    A = from_linear_bivector(lift, fiber_names=lift.chart.names[len(names):],
                             gen_names=gen_names, validate=validate,
                             tol=tol, trials=trials, seed=seed)
    weights = {g: (0 if g == z_name else 1) for g in gen_names}
    return RxAlgebroid(A, weights, poisson=hp)


# ---------------------------------------------------------------------------
# lifted morphisms into a scaled cotangent target


@record(frozen=True)
class LiftedMorphism:
    """A one-parameter family of morphisms obtained by scaling a morphism
    into an RxAlgebroid target: each component picks up param^weight."""
    phi: VBMorphism
    param: str = "nu"

    def base_components(self) -> dict:
        dalg = self.phi.dst_alg()
        nu = ex.var(self.param)
        out = {}
        for n in dalg.base.names:
            w = dalg.base.weight(n)
            out[n] = ex.mul(ex.pow_(nu, w), self.phi.base_map(n))
        return out

    def fiber_components(self) -> dict:
        R = self.phi.dst
        nu = ex.var(self.param)
        out = {}
        for g, F in self.phi.fiber.items():
            w = R.gen_weights[g]
            out[g] = F.scale(ex.pow_(nu, w))
        return out

    def at(self, value) -> VBMorphism:
        """Specialize the parameter; at(1) is the original morphism."""
        sub = {self.param: ex.coerce(value)}
        dalg = self.phi.dst_alg()
        base = SmoothMap(self.phi.src.base, dalg.base,
                         {n: ex.substitute(v, sub)
                          for n, v in self.base_components().items()})
        fiber = {g: AlgebroidForm(self.phi.src, 1,
                                  {k: ex.substitute(v, sub) for k, v in F.comps.items()})
                 for g, F in self.fiber_components().items()}
        return VBMorphism.build(self.phi.src, self.phi.dst, base, fiber)


def lift_phi_to_psi(phi: VBMorphism, param: str = "nu") -> LiftedMorphism:
    if not isinstance(phi.dst, RxAlgebroid):
        raise ValueError("target carries no scaling weights")
    if param in phi.src.base.names or param in phi.dst_alg().base.names:
        raise ValueError(f"parameter name '{param}' collides with a coordinate")
    return LiftedMorphism(phi, param)


@record(frozen=True)
class JacobiMorphismReport:
    ok: bool
    morphism: MorphismReport       # parameter fixed to 1
    anchor_ok: bool
    anchor_residuals: dict         # target coord -> DifferentialForm over src+param
    anchor_dev: float

    def summary(self) -> str:
        return (f"jacobi_morphism_check: {'PASS' if self.ok else 'FAIL'} "
                f"(morphism {'ok' if self.morphism.ok else 'fail'}, "
                f"anchor family {'ok' if self.anchor_ok else 'fail'}, "
                f"dev {max(self.morphism.max_dev, self.anchor_dev):.3e})")


def jacobi_morphism_check(psi: LiftedMorphism, *, tol=ex.DEFAULT_TOL,
                          trials=ex.DEFAULT_TRIALS, seed=ex.DEFAULT_SEED) -> JacobiMorphismReport:
    """Two verdicts on a lifted morphism family: (a) the parameter-1 member
    passes morphism_check, and (b) composing the family with the target
    bivector's sharp map reproduces the tangent family of the base maps,
    with the parameter kept formal.  (a) implies (b); seeing (a) pass while
    (b) fails means the implementation itself is broken."""
    phi = psi.phi
    if not isinstance(phi.dst, RxAlgebroid) or phi.dst.poisson is None:
        raise ValueError("target is not a scaled Poisson dual")
    if not _is_tangent_type(phi.src):
        raise ValueError("source must be a tangent algebroid")
    hp = phi.dst.poisson
    J = hp.jacobi_data()
    a_report = morphism_check(phi, tol=tol, trials=trials, seed=seed)

    src_chart = phi.src.base
    ext = src_chart.extend((psi.param,), box={psi.param: (0.5, 2.0)})
    base_c = psi.base_components()
    fiber_c = psi.fiber_components()
    dalg = phi.dst_alg()
    gen_of = {n: (dalg.generators[dalg.base.index(n)]) for n in dalg.base.names}
    sub_x = {n: base_c[n] for n in J.chart.names}
    s_fam = base_c[hp.s_name]

    def row(g, terms, p_den=ex.ONE):
        """d g - sum coeff * slot, each p-slot coefficient over p_den."""
        lhs = geo.form(ext, 1, {(src_chart.index(u),): ex.differentiate(g, u)
                                for u in src_chart.names})
        rhs = geo.form(ext, 1, {})
        for c, m in terms:
            c = ex.substitute(c, sub_x)
            F = fiber_c[gen_of[hp.s_name if m is None else m]]
            rhs = rhs + geo.form(ext, 1, F.comps).scale(
                c if m is None else ex.div(c, p_den))
        return lhs - rhs

    v_terms, t_terms = jacobi.sharp_terms(J)
    residuals = {n: row(base_c[n], v_terms[n], s_fam) for n in J.chart.names}
    residuals[hp.s_name] = row(s_fam, t_terms)

    devs = [geo.max_abs_tensor(r, trials=trials, seed=seed)[0]
            for r in residuals.values()]
    anchor_dev = max(devs) if devs else 0.0
    anchor_ok = anchor_dev <= tol
    if a_report.ok and not anchor_ok:
        raise InternalConsistencyError(
            "jacobi_morphism_check: morphism equations hold but the scaled "
            f"anchor family does not (deviation {anchor_dev:.3e})")
    return JacobiMorphismReport(a_report.ok and anchor_ok, a_report,
                                anchor_ok, residuals, anchor_dev)


# ---------------------------------------------------------------------------
# derivation-algebroid side of a map into the scaled dual


def compute_D0phi(phi0: SmoothMap, s_name: str = "s", *,
                  src_alg: AlgebroidStructure = None, gen_prefix: str = "v_",
                  t_name: str = "t", trials=ex.DEFAULT_TRIALS,
                  seed=ex.DEFAULT_SEED) -> VBMorphism:
    """The induced morphism into the derivation algebroid of the target line
    bundle: directional part d of each base component, vertical part
    d(scale)/scale.  Requires the scale component to stay away from zero on
    the sample box."""
    if s_name not in phi0.dst.names:
        raise ValueError(f"target chart has no '{s_name}'")
    s_comp = phi0.comps[s_name]
    box = phi0.src.sample_box()
    vals = [v for _, v in ex.sample_values(s_comp, box, trials=trials, seed=seed)]
    if not vals or min(abs(v) for v in vals) < 1e-9 or (min(vals) < 0 < max(vals)):
        raise ValueError(f"scale component '{s_name}' vanishes on the sample box")

    if src_alg is None:
        src_alg = tangent_algebroid(phi0.src)
    base_names = tuple(n for n in phi0.dst.names if n != s_name)
    m_chart = Chart(base_names,
                    {n: phi0.dst.box[n] for n in base_names if n in phi0.dst.box},
                    {n: phi0.dst.weights[n] for n in base_names if n in phi0.dst.weights})
    dalg = derivation_algebroid(m_chart, gen_prefix=gen_prefix, t_name=t_name)
    base_map = SmoothMap(phi0.src, m_chart, {n: phi0.comps[n] for n in base_names})

    def d_of(e):
        return AlgebroidForm(src_alg, 1,
                             {(i,): ex.differentiate(e, u)
                              for i, u in enumerate(phi0.src.names)})

    fiber = {gen_prefix + n: d_of(phi0.comps[n]) for n in base_names}
    fiber[t_name] = d_of(s_comp).scale(ex.div(ex.ONE, s_comp))
    return VBMorphism.build(src_alg, dalg, base_map, fiber)


def jsharp_morphism(J: jacobi.JacobiPair, x_map: SmoothMap, p_forms: Mapping,
                    z_form, *, gen_prefix: str = "v_", t_name: str = "t") -> VBMorphism:
    """Compose first-jet valued field data (base map, momentum 1-forms, a
    vertical 1-form) with the bracket's sharp map, landing in the derivation
    algebroid: directional slot Lam^{kj} p_k + E^j z, vertical slot -E^k p_k."""
    src_chart = x_map.src
    src_alg = tangent_algebroid(src_chart)
    dalg = derivation_algebroid(x_map.dst, gen_prefix=gen_prefix, t_name=t_name)

    def as_aform(w):
        if isinstance(w, DifferentialForm):
            return aform_from_form(src_alg, w)
        assert isinstance(w, AlgebroidForm) and w.degree == 1
        return w

    p = {n: as_aform(w) for n, w in p_forms.items()}
    z = as_aform(z_form)

    def total(terms):
        acc = AlgebroidForm(src_alg, 1, {})
        for c, m in terms:
            w = z if m is None else p.get(m)
            if w is not None:
                acc = acc + w.scale(x_map.apply(c))
        return acc
    v_terms, t_terms = jacobi.sharp_terms(J)
    fiber = {gen_prefix + n: total(terms) for n, terms in v_terms.items()}
    fiber[t_name] = total(t_terms)
    return VBMorphism.build(src_alg, dalg, x_map, fiber)


def morphisms_agree(m1: VBMorphism, m2: VBMorphism, *, tol=ex.DEFAULT_TOL,
                    trials=ex.DEFAULT_TRIALS, seed=ex.DEFAULT_SEED):
    """(ok, max deviation) for two morphisms with the same source/target
    charts: base components and fiber forms compared pointwise."""
    d1, d2 = m1.dst_alg(), m2.dst_alg()
    assert d1.generators == d2.generators
    box = m1.src.base.sample_box()
    worst = 0.0
    for n in d1.base.names:
        diff = ex.sub(m1.base_map(n), m2.base_map(n))
        worst = max(worst, ex.max_abs(diff, box, trials=trials, seed=seed)[0])
    for g in d1.generators:
        worst = max(worst, (m1.fiber[g] - m2.fiber[g]).max_abs(trials=trials, seed=seed))
    return worst <= tol, worst
