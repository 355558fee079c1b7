"""Charts, multivector fields, differential forms, and the graded calculus
connecting them.

A Chart is an ordered list of coordinate names with a sampling box per name
and an optional integer weight per name (weights drive push_scale).

Tensors store one Expression per strictly increasing index tuple; degree 0
uses the empty tuple.  All graded products reduce to one primitive: merging
two increasing index tuples with the inversion-count sign.

Conventions fixed here and relied on everywhere else:

* wedge on components:  (A, f) . (B, g)  ->  (sign(A,B), A|B, f*g).
* schouten(P, Q) for a p-vector and q-vector is
      T(P,Q) - (-1)^((p-1)(q-1)) T(Q,P),
  where T(P,Q) contracts the right slot-derivative of P with the coordinate
  derivative of Q.  Degree (1,1) gives the usual vector-field commutator,
  [X, f] = X(f), and the bracket obeys the graded Leibniz rule over wedge.
* full_contract pairs a p-vector with a p-form component-by-component
  (determinant convention).
* push_scale(T) rescales every weighted coordinate, substituting
  x -> nu^w(x) * x in coefficients and multiplying each component by
  nu^(-sum of index weights) for multivectors and nu^(+sum) for forms.
  A tensor T "has scaling degree k" when push_scale(T) = nu^k T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

from . import expr as ex
from .expr import Expression


class ChartError(ValueError, AssertionError):
    """An invalid chart.  Also an AssertionError, the type callers caught
    when charts were validated by assert."""


@dataclass
class Chart:
    names: tuple
    box: dict = field(default_factory=dict)      # name -> (lo, hi)
    weights: dict = field(default_factory=dict)  # name -> int, default 0

    def __post_init__(self):
        self.names = tuple(self.names)
        if len(set(self.names)) != len(self.names):
            raise ChartError(f"duplicate coordinate in {self.names}")
        for n in self.names:
            # a coordinate is a variable, and these names parse as pi and
            # the four functions
            if n in ex._RESERVED:
                raise ChartError(f"coordinate '{n}' is a reserved name "
                                 f"(pi, sin, cos, exp, log)")
        for what, table in (("box", self.box), ("weight", self.weights)):
            for n in table:
                if n not in self.names:
                    raise ChartError(f"{what} for unknown coordinate '{n}'")

    @classmethod
    def of_labels(cls, names) -> "Chart":
        """A chart of labels that never become variables (the generators of
        an algebroid, which only key its forms): reserved names are allowed."""
        ch = cls(())
        ch.names = tuple(names)
        if len(set(ch.names)) != len(ch.names):
            raise ChartError(f"duplicate label in {ch.names}")
        return ch

    @property
    def dim(self):
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def weight(self, name: str) -> int:
        return self.weights.get(name, 0)

    def sample_box(self, extra: Mapping[str, tuple] = None) -> dict:
        out = {}
        for n in self.names:
            out[n] = self.box.get(n, (-1.0, 1.0))
        if extra:
            out.update(extra)
        return out

    def extend(self, names, box=None, weights=None) -> "Chart":
        nb = dict(self.box)
        nw = dict(self.weights)
        if box:
            nb.update(box)
        if weights:
            nw.update(weights)
        return Chart(self.names + tuple(names), nb, nw)


def tangent_chart(chart: Chart, suffix: str = "_dot", dot_box=(-1.0, 1.0)) -> Chart:
    """Double the chart with velocity coordinates appended after the base ones."""
    dotted = tuple(n + suffix for n in chart.names)
    for d in dotted:
        assert d not in chart.names, f"name clash: {d}"
    box = {d: dot_box for d in dotted}
    return chart.extend(dotted, box=box)


def _merge_indices(a: tuple, b: tuple):
    """Merge two strictly increasing tuples; (sign, merged) or None on overlap."""
    inversions = 0
    for x in b:
        for y in a:
            if y == x:
                return None
            if y > x:
                inversions += 1
    return (-1) ** inversions, tuple(sorted(a + b))


def _normalize_key(key, chart: Chart):
    """Accept index or name tuples in any order; return (sign, increasing tuple)."""
    idx = tuple(chart.index(k) if isinstance(k, str) else int(k) for k in key)
    assert all(0 <= i < chart.dim for i in idx), key
    assert len(set(idx)) == len(idx), f"repeated index in {key}"
    srt = tuple(sorted(idx))
    # sign of the sorting permutation
    inversions = sum(1 for i in range(len(idx)) for j in range(i + 1, len(idx))
                     if idx[i] > idx[j])
    return (-1) ** inversions, srt


def _sign(s: int) -> Expression:
    """The constant +1 or -1 of a permutation sign."""
    return ex.ONE if s > 0 else ex.MINUS_ONE


def _tensor(cls, chart: Chart, degree: int, comps: Mapping):
    """A cls over comps that already keep the _Tensor invariant (the
    trusted path): only exact zeros are dropped, and the order is kept."""
    T = cls.__new__(cls)
    T.chart, T.degree = chart, degree
    T.comps = {k: v for k, v in comps.items() if not ex.is_exact_zero(v)}
    return T


class _Tensor:
    """Shared container behaviour for MultivectorField / DifferentialForm,
    keyed on the coordinate indices of `chart`, and for
    algebroid.AlgebroidForm, keyed on generator indices.

    Invariant: every key of `comps` is a strictly increasing index tuple of
    length `degree`, and every value is smart-constructor output (normal at
    the top) and not the exact zero.

    There are two ways in.  The public constructor (`mvf`, `form`,
    `_Tensor(...)`, `AlgebroidForm(...)`) takes caller input: keys of indices
    or names in any order, values of any ExprLike.  It sorts each key, folds
    in the permutation sign and sums the values that land on one key.
    geometry's own operations, `algebroid.algebroid_d` and
    `jacobi.poissonize` build their output under the invariant already
    (keys from `_merge_indices`, `_right_deriv` or sorted by construction,
    values from the smart constructors), so they go through `_tensor` /
    `_new`, which only drop exact zeros.  On such data the public
    constructor changes nothing, dict order included."""

    def __init__(self, chart: Chart, degree: int, comps: Mapping = None):
        # degree may exceed dim: such a tensor is necessarily zero
        assert 0 <= degree
        self.chart = chart
        self.degree = degree
        out = {}
        for key, val in (comps or {}).items():
            if not isinstance(key, tuple):
                key = (key,)
            sign, nk = _normalize_key(key, chart)
            assert len(nk) == degree, f"key {key} has wrong length"
            out[nk] = ex.add(out.get(nk, ex.ZERO),
                             ex.mul(_sign(sign), ex.coerce(val)))
        self.comps = {k: v for k, v in out.items() if not ex.is_exact_zero(v)}

    def component(self, *key) -> Expression:
        if not key and self.degree == 0:
            return self.comps.get((), ex.ZERO)
        sign, nk = _normalize_key(key, self.chart)
        return ex.mul(_sign(sign), self.comps.get(nk, ex.ZERO))

    def _new(self, comps, degree: int = None):
        """A tensor of this type and chart over trusted comps."""
        return _tensor(type(self), self.chart,
                       self.degree if degree is None else degree, comps)

    def __add__(self, other):
        assert type(other) is type(self) and other.chart == self.chart
        assert other.degree == self.degree
        out = dict(self.comps)
        for k, v in other.comps.items():
            out[k] = ex.add(out.get(k, ex.ZERO), v)
        return self._new(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def wedge(self, other):
        return wedge(self, other)

    def scale(self, c):
        c = ex.coerce(c)
        return self._new({k: ex.mul(c, v) for k, v in self.comps.items()})

    def key_names(self, key):
        return tuple(self.chart.names[i] for i in key)

    def pretty(self, basis: str) -> str:
        if not self.comps:
            return "0"
        bits = []
        for k in sorted(self.comps):
            names = "^".join(f"{basis}[{n}]" for n in self.key_names(k))
            coeff = ex.to_text(self.comps[k])
            bits.append(f"({coeff}) {names}" if names else coeff)
        return "  +  ".join(bits)


class MultivectorField(_Tensor):
    def __repr__(self):
        return f"MultivectorField(deg {self.degree}: {self.pretty('dd')})"


class DifferentialForm(_Tensor):
    def __repr__(self):
        return f"DifferentialForm(deg {self.degree}: {self.pretty('d')})"


def mvf(chart, degree, comps=None) -> MultivectorField:
    return MultivectorField(chart, degree, comps)


def form(chart, degree, comps=None) -> DifferentialForm:
    return DifferentialForm(chart, degree, comps)


def scalar(chart, e) -> MultivectorField:
    return MultivectorField(chart, 0, {(): ex.coerce(e)})


# ----- graded products -----

def _table_product(t1: dict, t2: dict) -> dict:
    out = {}
    for a, f in t1.items():
        for b, g in t2.items():
            m = _merge_indices(a, b)
            if m is None:
                continue
            sign, key = m
            # the slot is taken even for an exact-zero product, which is not
            # built, so the order of the output does not depend on it
            cur = out.setdefault(key, ex.ZERO)
            if not (ex.is_exact_zero(f) or ex.is_exact_zero(g)):
                out[key] = ex.add(cur, ex.mul(_sign(sign), f, g))
    return out


def wedge(A: _Tensor, B: _Tensor) -> _Tensor:
    assert type(A) is type(B) and A.chart == B.chart
    return A._new(_table_product(A.comps, B.comps), A.degree + B.degree)


# ----- Schouten bracket -----

def _right_deriv(comps: dict, k: int, degree: int) -> dict:
    """Right slot-derivative: strip index k with sign (-1)^(degree-1-j)."""
    out = {}
    for key, val in comps.items():
        if k not in key:
            continue
        j = key.index(k)
        nk = key[:j] + key[j + 1:]
        sign = (-1) ** (degree - 1 - j)
        out[nk] = ex.add(out.get(nk, ex.ZERO), ex.mul(_sign(sign), val))
    return out


def _half_bracket(P: MultivectorField, Q: MultivectorField) -> dict:
    chart = P.chart
    out = {}
    for k, name in enumerate(chart.names):
        dP = _right_deriv(P.comps, k, P.degree)
        if not dP:
            continue
        dQ = {key: ex.differentiate(val, name) for key, val in Q.comps.items()}
        for key, val in _table_product(dP, dQ).items():
            out[key] = ex.add(out.get(key, ex.ZERO), val)
    return out


def schouten(P: MultivectorField, Q: MultivectorField) -> MultivectorField:
    """Schouten bracket of a p-vector and q-vector (degree p+q-1)."""
    assert P.chart == Q.chart
    p, q = P.degree, Q.degree
    if p + q == 0:
        return _tensor(MultivectorField, P.chart, 0, {})
    sign = -((-1) ** ((p - 1) * (q - 1)))
    t1 = _half_bracket(P, Q)
    # the two halves of [P, P] are the same tables: build them once
    t2 = t1 if Q is P else _half_bracket(Q, P)
    out = dict(t1)
    for k, v in t2.items():
        out[k] = ex.add(out.get(k, ex.ZERO), ex.mul(_sign(sign), v))
    return _tensor(MultivectorField, P.chart, p + q - 1, out)


# ----- exterior derivative -----

def de_rham(w: DifferentialForm) -> DifferentialForm:
    chart = w.chart
    out = {}
    for key, val in w.comps.items():
        for k, name in enumerate(chart.names):
            dv = ex.differentiate(val, name)
            if ex.is_exact_zero(dv):
                continue
            m = _merge_indices((k,), key)
            if m is None:
                continue
            sign, nk = m
            out[nk] = ex.add(out.get(nk, ex.ZERO), ex.mul(_sign(sign), dv))
    return _tensor(DifferentialForm, chart, w.degree + 1, out)


# ----- complete (tangent) lift -----

def tangent_lift(P: MultivectorField, tchart: Chart = None,
                 suffix: str = "_dot") -> MultivectorField:
    """Complete lift of a p-vector to the doubled chart (base then dotted).

    Acts as the derivation sending f to its fibrewise-linear lift and each
    coordinate direction theta_a to theta_a_dot, plus the terms where exactly
    one slot stays undotted.
    """
    chart = P.chart
    n = chart.dim
    if tchart is None:
        tchart = tangent_chart(chart, suffix)
    assert tchart.names[:n] == chart.names
    out = {}

    def put(key, val):
        out[key] = ex.add(out.get(key, ex.ZERO), val)

    for key, val in P.comps.items():
        dotted = tuple(a + n for a in key)
        lin = []
        for k, name in enumerate(chart.names):
            dv = ex.differentiate(val, name)
            if ex.is_exact_zero(dv):
                continue
            lin.append(ex.mul(ex.var(tchart.names[k + n]), dv))
        if lin:
            put(dotted, ex.add(*lin))
        for j, a in enumerate(key):
            rest = tuple(b + n for i, b in enumerate(key) if i != j)
            nk = (a,) + rest  # base index first: already increasing
            put(nk, ex.mul(_sign((-1) ** j), val))
    return _tensor(MultivectorField, tchart, P.degree, out)


# ----- smooth maps, pullback, pushforward -----

@dataclass
class SmoothMap:
    src: Chart
    dst: Chart
    comps: dict  # dst name -> Expression in src coordinates

    def __post_init__(self):
        assert set(self.comps) == set(self.dst.names), "need every target coordinate"
        self.comps = {k: ex.coerce(v) for k, v in self.comps.items()}
        src_names = set(self.src.names)
        for k, v in self.comps.items():
            extra = ex.free_vars(v) - src_names
            assert not extra, f"component {k} uses unknown names {sorted(extra)}"

    def __call__(self, name: str) -> Expression:
        return self.comps[name]

    def apply(self, e) -> Expression:
        """Pull a target-chart function back along the map (compose)."""
        return ex.substitute(ex.coerce(e), self.comps)

    def then(self, other: "SmoothMap") -> "SmoothMap":
        assert self.dst.names == other.src.names
        return SmoothMap(self.src, other.dst,
                         {k: ex.substitute(v, self.comps)
                          for k, v in other.comps.items()})


def identity_map(chart: Chart) -> SmoothMap:
    return SmoothMap(chart, chart, {n: ex.var(n) for n in chart.names})


def pullback(w: DifferentialForm, smap: SmoothMap) -> DifferentialForm:
    """Pull a form on the target chart back to the source chart."""
    assert w.chart.names == smap.dst.names
    src = smap.src
    out = {}
    for key, val in w.comps.items():
        table = {(): smap.apply(val)}
        for a in key:
            dphi = {}
            for b, uname in enumerate(src.names):
                dv = ex.differentiate(smap.comps[w.chart.names[a]], uname)
                if ex.is_exact_zero(dv):
                    continue
                dphi[(b,)] = dv
            table = _table_product(table, dphi)
        for k, v in table.items():
            out[k] = ex.add(out.get(k, ex.ZERO), v)
    return _tensor(DifferentialForm, src, w.degree, out)


def pushforward(P: MultivectorField, fwd: SmoothMap, inv: SmoothMap) -> MultivectorField:
    """Push a multivector through a diffeomorphism given with its inverse."""
    assert P.chart.names == fwd.src.names
    assert fwd.dst.names == inv.src.names and inv.dst.names == fwd.src.names
    dst = fwd.dst
    out = {}
    for key, val in P.comps.items():
        table = {(): val}
        for a in key:
            jac = {}
            for b, yname in enumerate(dst.names):
                dv = ex.differentiate(fwd.comps[yname], P.chart.names[a])
                if ex.is_exact_zero(dv):
                    continue
                jac[(b,)] = dv
            table = _table_product(table, jac)
        for k, v in table.items():
            out[k] = ex.add(out.get(k, ex.ZERO), inv.apply(v))
    return _tensor(MultivectorField, dst, P.degree, out)


# ----- scaling action -----

def push_scale(T: _Tensor, nu: str = "nu") -> _Tensor:
    """Transport T along the weighted scaling x -> nu^w(x) x.

    The result lives on the chart extended by the scale parameter.  Each
    coefficient gets the coordinate substitution; each component picks up
    nu^(-sum of its index weights) for multivectors, nu^(+sum) for forms.
    """
    chart = T.chart
    assert nu not in chart.names, f"scale parameter '{nu}' clashes with a coordinate"
    bigchart = chart.extend((nu,), box={nu: (0.5, 2.0)})
    nu_v = ex.var(nu)
    subs = {n: ex.mul(ex.pow_(nu_v, w), ex.var(n))
            for n, w in chart.weights.items() if w != 0}
    sgn = 1 if isinstance(T, DifferentialForm) else -1
    out = {}
    for key, val in T.comps.items():
        wsum = sum(chart.weight(chart.names[i]) for i in key)
        out[key] = ex.mul(ex.pow_(nu_v, sgn * wsum), ex.substitute(val, subs))
    return _tensor(type(T), bigchart, T.degree, out)


def has_scaling_degree(T: _Tensor, k: int, nu: str = "nu", *,
                       tol: float = ex.DEFAULT_TOL, trials: int = ex.DEFAULT_TRIALS,
                       seed: int = ex.DEFAULT_SEED) -> bool:
    """Check push_scale(T) == nu^k T numerically over the chart box."""
    ps = push_scale(T, nu)
    box = ps.chart.sample_box()
    nu_k = ex.pow_(ex.var(nu), k)
    keys = set(ps.comps) | set(T.comps)
    for key in keys:
        delta = ex.sub(ps.comps.get(key, ex.ZERO),
                       ex.mul(nu_k, T.comps.get(key, ex.ZERO)))
        if not ex.is_zero(delta, box, tol=tol, trials=trials, seed=seed):
            return False
    return True


# ----- contractions and Lie derivatives -----

def vector_apply(X: MultivectorField, f) -> Expression:
    assert X.degree == 1
    f = ex.coerce(f)
    return _apply_partials(X, lambda name: ex.differentiate(f, name))


def _apply_partials(X: MultivectorField, df) -> Expression:
    """X(f) = sum X^n df(n), with df(name) the partial derivative of f;
    a term with an exact-zero partial is not built."""
    parts = []
    for key, val in X.comps.items():
        d = df(X.chart.names[key[0]])
        if not ex.is_exact_zero(d):
            parts.append(ex.mul(val, d))
    return ex.add(*parts) if parts else ex.ZERO


def sharp(B: MultivectorField, alpha: DifferentialForm) -> MultivectorField:
    """B#(alpha) = B(alpha, .) for a bivector and a 1-form."""
    assert B.degree == 2 and alpha.degree == 1 and B.chart == alpha.chart
    out = {}
    for (i, j), val in B.comps.items():
        # alpha_i val at j and -alpha_j val at i; the slot is taken even where
        # alpha has no component, so the order of the output never depends
        # on which components of alpha happen to vanish
        for k, a, negate in ((j, i, False), (i, j, True)):
            cur = out.setdefault((k,), ex.ZERO)
            w = alpha.comps.get((a,))
            if w is not None:
                t = ex.mul(w, val)
                out[(k,)] = ex.add(cur, ex.neg(t) if negate else t)
    return _tensor(MultivectorField, B.chart, 1, out)


def interior(X: MultivectorField, w: DifferentialForm) -> DifferentialForm:
    """Left interior product of a vector field with a p-form."""
    assert X.degree == 1 and X.chart == w.chart
    if w.degree == 0:
        return _tensor(DifferentialForm, w.chart, 0, {})
    out = {}
    for key, val in w.comps.items():
        for j, a in enumerate(key):
            xa = X.comps.get((a,))
            if xa is None:
                continue
            nk = key[:j] + key[j + 1:]
            contrib = ex.mul(_sign((-1) ** j), xa, val)
            out[nk] = ex.add(out.get(nk, ex.ZERO), contrib)
    return _tensor(DifferentialForm, w.chart, w.degree - 1, out)


def lie_derivative(X: MultivectorField, w: DifferentialForm) -> DifferentialForm:
    """Cartan formula on forms."""
    return interior(X, de_rham(w)) + de_rham(interior(X, w))


def full_contract(P: MultivectorField, w: DifferentialForm) -> Expression:
    """Pair a p-vector with a p-form, component by component."""
    assert P.degree == w.degree and P.chart == w.chart
    parts = [ex.mul(val, w.comps[key]) for key, val in P.comps.items()
             if key in w.comps]
    return ex.add(*parts) if parts else ex.ZERO


def is_zero_tensor(T: _Tensor, extra_box: Mapping[str, tuple] = None, *,
                   tol: float = ex.DEFAULT_TOL, trials: int = ex.DEFAULT_TRIALS,
                   seed: int = ex.DEFAULT_SEED) -> bool:
    box = T.chart.sample_box(extra_box)
    return all(ex.is_zero(v, box, tol=tol, trials=trials, seed=seed)
               for v in T.comps.values())


def max_abs_tensor(T: _Tensor, extra_box: Mapping[str, tuple] = None, *,
                   trials: int = ex.DEFAULT_TRIALS, seed: int = ex.DEFAULT_SEED):
    """(max |component|, key, witness point) over Halton samples."""
    box = T.chart.sample_box(extra_box)
    best, bkey, bpt = 0.0, None, None
    for key, val in T.comps.items():
        m, pt = ex.max_abs(val, box, trials=trials, seed=seed)
        if m > best or bkey is None:
            best, bkey, bpt = m, key, pt
    return best, bkey, bpt
