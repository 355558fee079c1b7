"""Surface fields and the sigma-model layer.

Fields live on a coordinate rectangle (u, t) in [0,1] x [-T,T].  A
configuration carries base maps X^i, a scale field s, momentum 1-forms
pi_i, and an extra 1-form z.  On top of that this module provides

  * ``action`` -- the three action variants (homogeneous / reduced /
    constrained) integrated with trapezoid quadrature,
  * ``el_residual`` -- the stationarity residuals, symbolically for exact
    configurations and by finite differences for sampled ones,
  * ``apath_check`` / ``apath_holonomy`` -- the boundary path equations
    and the scale transport along a path,
  * ``Ex1Groupoid`` / ``verify_ex1_groupoid`` -- the scaling groupoid
    built from two copies of a contact chart, with its multiplicative
    2-form and the contact form on the quotient,
  * ``builtin_example`` -- the example gallery wired into the CLI.

The action density and the stationarity system are written once, in u/t
components, over three backend operations: ``du`` and ``dt`` (derivatives
of a field component) and ``at`` (a structure coefficient evaluated at the
base maps).  Two backends implement them.  The exact one differentiates
and substitutes Expressions, so exact configurations get exact residual
forms.  The grid one takes np.gradient stencils (edge_order=2) and
evaluates each coefficient once on the node arrays; a path is the same
grid backend over the u nodes alone, and its transport equations are the
u-components of the first two rows below.  Field expressions are sampled
on the open (u, t) mesh, u as a column and t as a row, so a subtree in one
of them is evaluated on that direction's nodes alone; broadcasting gives
every element the same IEEE operation on the same inputs as the full mesh
would, so no sampled value moves.  A field component is one such pass
(_grid_eval).  The symbolic action density, a large tree that repeats the
field subtrees, is evaluated in blocks of whole rows of about 2^15 nodes
(_grid_rows): its shared subtrees are found once per grid and each is
evaluated once per block, so the temporaries stay in cache, and the action
integrates block by block with no full-size density.  A guard that trips
in a block may not be the one the whole grid trips first, so the whole
grid is then evaluated unblocked and what that raises is raised.

The grid backend replaces every field component and structure coefficient
whose node array is all zero (a zero base map, a missing pi component, a
coefficient that vanishes on the fields) by one marker, _ZERO, before the
equations run.  The marker absorbs like the zero it stands for: times or
over anything it is itself, plus anything it is the other operand, and a
stencil of it is itself, so no arithmetic runs on an all-zero array.  The
results are those of the full arrays up to the sign of a zero entry,
which no norm or quadrature reads, while every product stays finite (the
node values come from guarded evaluation, which rejects non-finite ones).
``el_residual``, ``action`` and ``apath_check`` turn a marker back into
zeros before they report.

Sign conventions follow the rest of the package: the homogeneous
stationarity system is

    dX^i + (1/s) Lam^{ij} pi_j - E^i z           = 0
    ds + E^j pi_j                                = 0
    dpi_k + (1/2s) Lam^{ij}_{,k} pi_i ^ pi_j + E^j_{,k} z ^ pi_j = 0
    dz - (1/2s^2) Lam^{ij} pi_i ^ pi_j           = 0

The first two rows are dX - v = 0 and ds - t = 0 for (v, t) = J#(pi/s, z),
the sharp map of jacobi.sharp_terms; the reduced ones are dX - v = 0 and
ds - s t = 0 for (v, t) = J#(p, z).  The reduced system is obtained by
substituting pi = s p and eliminating the ds terms row by row (the zero
sets agree where s != 0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import field
from typing import Callable, NamedTuple

from . import expr as ex
from ._records import record
from . import geometry as geo
from . import jacobi as jac
from . import algebroid as alg
from .expr import Expression, np, var      # numpy at its first use
from .geometry import (ACTION_VARIANTS, Chart, DifferentialForm,
                       MultivectorField, SmoothMap, _check_t_extent,
                       source_chart)
from .jacobi import JacobiPair, HomogeneousPoisson, LineBundleAtlas, Overlap


def _keep_freed_memory():
    """Keep freed grid temporaries in the process.  glibc serves each
    block over its mmap threshold (128 KiB at first) by mmap and unmaps it
    on free, and trims the heap top past 128 KiB, so every grid check
    faults its temporaries in afresh (a fifth of the CPU of the grid
    benchmark workload, on a 2-core x86_64 machine).  Raise the mmap
    threshold to glibc's 64-bit maximum and the trim threshold above it
    (setting only the trim threshold would freeze the mmap threshold at
    128 KiB).  A no-op without glibc's mallopt; a caller's
    MALLOC_MMAP_THRESHOLD_ or MALLOC_TRIM_THRESHOLD_ wins."""
    import ctypes
    import os
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_mmap_threshold, m_trim_threshold = -3, -1     # from <malloc.h>
    for env, param, value in (
            ("MALLOC_MMAP_THRESHOLD_", m_mmap_threshold, 32 << 20),
            ("MALLOC_TRIM_THRESHOLD_", m_trim_threshold, 128 << 20)):
        if env not in os.environ:
            mallopt(param, value)


_keep_freed_memory()    # at import: set later, grid_fd ran 4% slower

S_FLOOR = 1e-6
BUILTIN_EXAMPLES = ("contact-k", "moebius", "almost-poisson-family1",
                    "almost-poisson-family2", "ex1-groupoid")


# --------------------------------------------------------------- grids

@record(frozen=True)
class SurfaceGrid:
    """Uniform tensor grid on [0,1] x [-t_extent, t_extent].  Equal and
    hashed by its fields; its node arrays are built once, read-only."""
    nu: int = 65
    nt: int = 65
    t_extent: float = 1.0

    def __post_init__(self):
        if self.nu < 3 or self.nt < 3:
            raise ValueError("grid needs at least 3 nodes per direction")
        _check_t_extent(self.t_extent)

    @functools.cached_property
    def u_nodes(self):
        return _read_only(np.linspace(0.0, 1.0, self.nu))

    @functools.cached_property
    def t_nodes(self):
        return _read_only(np.linspace(-self.t_extent, self.t_extent, self.nt))

    @property
    def h_u(self):
        return 1.0 / (self.nu - 1)

    @property
    def h_t(self):
        return 2.0 * self.t_extent / (self.nt - 1)

    def mesh(self):
        return np.meshgrid(self.u_nodes, self.t_nodes, indexing="ij")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def d0(chart: Chart, f) -> DifferentialForm:
    """Exterior derivative of a scalar, as an explicit 1-form."""
    f = ex.coerce(f)
    return geo.form(chart, 1,
                    {(n,): ex.differentiate(f, n) for n in chart.names})


def _zero1(chart: Chart) -> DifferentialForm:
    return geo.form(chart, 1, {})


# ------------------------------------------------------- configurations

@record(frozen=True)
class FieldConfiguration:
    """Symbolic surface fields: X^i, s, momentum 1-forms, and z.

    ``pi`` maps target coordinate names to 1-forms on ``chart``; missing
    entries mean zero.  For the reduced action variant the same slots
    hold the rescaled momenta p = pi / s.  ``require_boundary`` asks the
    checkers to verify that the t-components of pi and z vanish on the
    u = 0 and u = 1 edges.
    """
    chart: Chart
    x: dict
    s: object                  # Expression or None
    pi: dict
    z: DifferentialForm
    require_boundary: bool = False

    @classmethod
    def build(cls, chart: Chart, x, s=None, pi=None, z=None,
              require_boundary: bool = False) -> "FieldConfiguration":
        xm = {k: ex.coerce(v) for k, v in dict(x).items()}
        pim = {}
        for k, v in dict(pi or {}).items():
            if not isinstance(v, DifferentialForm) or v.degree != 1:
                raise ValueError(f"pi[{k!r}] must be a 1-form on the source chart")
            pim[k] = v
        if z is None:
            z = _zero1(chart)
        if not isinstance(z, DifferentialForm) or z.degree != 1:
            raise ValueError("z must be a 1-form on the source chart")
        sm = None if s is None else ex.coerce(s)
        return cls(chart, xm, sm, pim, z, require_boundary)

    def pi_form(self, name: str) -> DifferentialForm:
        return self.pi.get(name, _zero1(self.chart))


@record
class DiscreteFieldConfiguration:
    """Sampled surface fields on a SurfaceGrid (arrays shaped (nu, nt))."""
    grid: SurfaceGrid
    x: dict
    s: object                  # ndarray or None
    pi_u: dict
    pi_t: dict
    z_u: np.ndarray
    z_t: np.ndarray
    require_boundary: bool = False


# nodes per row block of a grid evaluation: 256 KiB of float64 per
# temporary, well inside a core's L2 cache
_BLOCK_NODES = 1 << 15


def _grid_rows(e, grid: SurfaceGrid):
    """Yield (rows, values): e on blocks of whole rows of the grid, as a
    slice of the rows and values that broadcast to their shape, equal to
    the evaluation on the full mesh() arrays bit for bit.  The rows are cut
    into nu * nt // _BLOCK_NODES blocks (one at least) of equal row counts,
    the last block taking what remains, so a block holds one to about two
    times _BLOCK_NODES nodes, or one row where a row holds more.  This is
    for large trees with shared subtrees, such as an action density: the
    shared nodes are found once per grid, each is evaluated once per block,
    and the temporaries of a block stay in cache.

    Blocking changes which guard trips first: when a block trips one (or
    fails the final finiteness check), the whole grid is evaluated again
    unblocked, and what that evaluation raises is raised.
    """
    e = ex.coerce(e)
    u, t = grid.u_nodes[:, None], grid.t_nodes[None, :]
    step = -(-grid.nu // max(1, grid.nu * grid.nt // _BLOCK_NODES))
    shared = ex._shared_nodes(e)
    for r0 in range(0, grid.nu, step):
        rows = slice(r0, min(r0 + step, grid.nu))
        try:
            v = ex._evaluate(e, {"u": u[rows], "t": t}, ex._np_pow, shared)
        except ArithmeticError as err:
            ex.evaluate(e, {"u": u, "t": t})
            raise err
        yield rows, v


def _grid_eval(e, grid: SurfaceGrid) -> np.ndarray:
    """e at the grid nodes as a fresh (nu, nt) array, in one pass on the
    open mesh (u as a column, t as a row).  A result of full shape is the
    array itself: a broadcasting operation made it, so nothing else holds
    it."""
    shape = (grid.nu, grid.nt)
    v = ex.evaluate(ex.coerce(e), {"u": grid.u_nodes[:, None],
                                   "t": grid.t_nodes[None, :]})
    return v if np.shape(v) == shape else np.broadcast_to(v, shape).copy()


def sample_config(F: FieldConfiguration, grid: SurfaceGrid
                  ) -> DiscreteFieldConfiguration:
    xs = {n: _grid_eval(v, grid) for n, v in F.x.items()}
    ss = None if F.s is None else _grid_eval(F.s, grid)
    pu, pt = {}, {}
    for n, w in F.pi.items():
        pu[n] = _grid_eval(w.component("u"), grid)
        pt[n] = _grid_eval(w.component("t"), grid)
    zu = _grid_eval(F.z.component("u"), grid)
    zt = _grid_eval(F.z.component("t"), grid)
    return DiscreteFieldConfiguration(grid, xs, ss, pu, pt, zu, zt,
                                      F.require_boundary)


def _as_pair(structure) -> JacobiPair:
    if isinstance(structure, HomogeneousPoisson):
        return structure.source if structure.source is not None \
            else structure.jacobi_data()
    if isinstance(structure, JacobiPair):
        return structure
    raise TypeError("expected a JacobiPair or a HomogeneousPoisson")


def _xsub(J: JacobiPair, F: FieldConfiguration) -> dict:
    missing = [n for n in J.chart.names if n not in F.x]
    if missing:
        raise ValueError(f"field configuration is missing base maps for {missing}")
    return {n: F.x[n] for n in J.chart.names}


def boundary_dev(F, *, trials: int = 16, seed: int = ex.DEFAULT_SEED) -> float:
    """Max |pi_t|, |z_t| on the u = 0 and u = 1 edges."""
    if isinstance(F, DiscreteFieldConfiguration):
        dev = 0.0
        for arr in list(F.pi_t.values()) + [F.z_t]:
            dev = max(dev, float(np.max(np.abs(arr[0, :]))),
                      float(np.max(np.abs(arr[-1, :]))))
        return dev
    dev = 0.0
    tbox = {"t": F.chart.box.get("t", (-1.0, 1.0))}
    for w in list(F.pi.values()) + [F.z]:
        comp = w.component("t")
        for uval in (0.0, 1.0):
            edge = ex.substitute(comp, {"u": ex.num(uval)})
            m, _ = ex.max_abs(edge, tbox, trials=trials, seed=seed)
            dev = max(dev, m)
    return dev


def _check_boundary(F, **sampling):
    if getattr(F, "require_boundary", False) and \
            boundary_dev(F, **sampling) > 1e-9:
        raise ValueError("t-components of pi and z must vanish on the "
                         "u-boundary for this configuration")


# ----------------------------------------------------- the field equations

class _Fields(NamedTuple):
    """One backend: its three operations and the field components, with
    1-forms as (u, t) pairs, or (u,) along a path."""
    du: Callable
    dt: Callable
    at: Callable
    x: dict
    s: object
    p: dict
    z: tuple


def _exact_fields(J: JacobiPair, F: FieldConfiguration) -> _Fields:
    """Exact backend: Expressions in u, t, differentiated and substituted."""
    xsub = _xsub(J, F)

    def ut(w):
        return w.component("u"), w.component("t")
    return _Fields(lambda f: ex.differentiate(f, "u"),
                   lambda f: ex.differentiate(f, "t"),
                   lambda e: ex.substitute(e, xsub), F.x, F.s,
                   {n: ut(F.pi_form(n)) for n in J.chart.names}, ut(F.z))


class _Zero:
    """An all-zero node array of the grid backend (see the module
    docstring).  ndarray operators defer to it, since it sets
    __array_ufunc__ to None."""
    __slots__ = ()
    __array_ufunc__ = None

    def __mul__(self, other):
        return self
    __rmul__ = __truediv__ = __mul__

    def __add__(self, other):
        return other
    __radd__ = __rsub__ = __add__

    def __sub__(self, other):
        return -other

    def __neg__(self):
        return self


_ZERO = _Zero()


def _absorb(a):
    """a, or the marker where a is all zero."""
    return a if a is _ZERO or a.any() else _ZERO


def _full(a, shape) -> np.ndarray:
    """a as a node array: zeros for the marker, or for the 0 a sum of
    markers starts from."""
    return a if isinstance(a, np.ndarray) else np.zeros(shape)


def _max_norm(a: np.ndarray) -> float:
    """max |a| from one max and one min, without an |a| array; a zero norm
    is +0.0."""
    return float(max(np.max(a), -np.min(a))) + 0.0


def _grid_fields(x, s, p, z, u: np.ndarray, t: np.ndarray = None) -> _Fields:
    """Grid backend: arrays over the u nodes (and the t nodes, for a
    surface), with the marker for every all-zero component of x, p and z;
    each structure coefficient is evaluated once per backend, on the
    arrays of x, and is the marker where it vanishes at every node."""
    shape = u.shape if t is None else (u.size, t.size)

    @functools.cache
    def at(e):
        v = np.asarray(ex.evaluate(e, x), float)
        return np.broadcast_to(v, shape) if v.any() else _ZERO
    return _Fields(lambda a: _stencil(a, u, 0), lambda a: _stencil(a, t, 1),
                   at, {n: _absorb(a) for n, a in x.items()}, s,
                   {n: tuple(map(_absorb, w)) for n, w in p.items()},
                   tuple(map(_absorb, z)))


def _stencil(a, nodes: np.ndarray, axis: int):
    """np.gradient(a, nodes, axis=axis, edge_order=2); the marker for the
    marker."""
    if a is _ZERO:
        return a
    return np.gradient(a, nodes, axis=axis, edge_order=2)


def _sampled_fields(J: JacobiPair, D: DiscreteFieldConfiguration) -> _Fields:
    g = D.grid
    p = {n: (D.pi_u.get(n, _ZERO), D.pi_t.get(n, _ZERO))
         for n in J.chart.names}
    return _grid_fields(D.x, D.s, p, (D.z_u, D.z_t), g.u_nodes, g.t_nodes)


def _wedge(a, c):
    """(u, t) component of the wedge of two 1-forms."""
    return a[0] * c[1] - a[1] * c[0]


def _density(J: JacobiPair, f: _Fields, variant: str):
    """(u, t) component of the action density."""
    if variant not in ACTION_VARIANTS:
        raise ValueError(f"unknown action variant {variant!r}; "
                         f"expected one of {ACTION_VARIANTS}")
    con, red = variant == "constrained", variant == "reduced"
    if not con and f.s is None:
        raise ValueError(f"the {variant} action needs a scale field")
    s, p, z, tn = f.s, f.p, f.z, J.chart.names
    acc = 0
    for n in tn:
        w = _wedge(p[n], (f.du(f.x[n]), f.dt(f.x[n])))
        acc = acc + (s * w if red else w)
    if not con:
        acc = acc + _wedge(z, (f.du(s), f.dt(s)))
    # (1/2s) sum_{ij} = (1/s) sum over the stored i<j components
    for (i, j), v in J.lam.comps.items():
        coeff = f.at(v) if con else s * f.at(v) if red else f.at(v) / s
        acc = acc + coeff * _wedge(p[tn[i]], p[tn[j]])
    for (a,), v in J.e.comps.items():
        if con:
            acc = acc - f.at(v) * _wedge(p[tn[a]], z)
        else:
            acc = acc + (s * f.at(v) if red else f.at(v)) * _wedge(z, p[tn[a]])
    return acc


def _transport(J: JacobiPair, f: _Fields, red: bool) -> dict:
    """The 1-form rows x:n and s, dX - J#(pi/s, z) and ds - t(pi) (reduced:
    J#(p, z) and s t(p)), one entry per component of z."""
    s, p, z = f.s, f.p, f.z
    ds = (f.du, f.dt)[:len(z)]
    v_terms, t_terms = jac.sharp_terms(J)

    def row(g, terms):
        out = []
        for c, dc in enumerate(ds):
            r = dc(g)
            for coeff, w in terms:
                r = r - coeff * w[c]
            out.append(r)
        return out

    rows = {f"x:{n}": row(f.x[n], [(f.at(c), z) if m is None else
                                   (f.at(c) if red else f.at(c) / s, p[m])
                                   for c, m in terms])
            for n, terms in v_terms.items()}
    rows["s"] = row(s, [(f.at(c) * s if red else f.at(c), p[m])
                        for c, m in t_terms])
    return rows


def _stationarity(J: JacobiPair, f: _Fields, variant: str):
    """The stationarity system of the module docstring, as (1-form rows
    x:n and s as (u, t) pairs, 2-form rows pi:n or p:n and z as their
    (u, t) component)."""
    red = variant == "reduced"
    if f.s is None:
        raise ValueError(f"the {variant} residuals need a scale field")
    s, p, z, tn = f.s, f.p, f.z, J.chart.names

    def d1(w):
        return -f.dt(w[0]) + f.du(w[1])

    two = {}
    for k in tn:
        r = d1(p[k])
        for (i, j), v in J.lam.comps.items():
            dv = ex.differentiate(v, k)
            if not ex.is_exact_zero(dv):
                coeff = f.at(dv) if red else f.at(dv) / s
                r = r + coeff * _wedge(p[tn[i]], p[tn[j]])
        for (a,), v in J.e.comps.items():
            dv = ex.differentiate(v, k)
            if not ex.is_exact_zero(dv):
                r = r + f.at(dv) * _wedge(z, p[tn[a]])
        if red:
            for (a,), v in J.e.comps.items():
                r = r - f.at(v) * _wedge(p[tn[a]], p[k])
        two[f"{'p' if red else 'pi'}:{k}"] = r
    r = d1(z)
    for (i, j), v in J.lam.comps.items():
        coeff = f.at(v) if red else f.at(v) / (s * s)
        r = r - coeff * _wedge(p[tn[i]], p[tn[j]])
    two["z"] = r
    return _transport(J, f, red), two


# -------------------------------------------------------------- actions

def _action_density(J: JacobiPair, F: FieldConfiguration,
                    variant: str) -> DifferentialForm:
    return geo.form(F.chart, 2,
                    {("u", "t"): _density(J, _exact_fields(J, F), variant)})


def action(structure, F, variant: str = "homogeneous",
           grid: SurfaceGrid = None) -> float:
    """Trapezoid quadrature of the chosen action density over the grid.
    Raises ValueError, unless the variant is constrained, where the scale
    field drops below S_FLOOR at a node or takes both signs over them."""
    if variant not in ACTION_VARIANTS:
        raise ValueError(f"unknown action variant {variant!r}; "
                         f"expected one of {ACTION_VARIANTS}")
    J = _as_pair(structure)
    grid = grid or SurfaceGrid()
    _check_boundary(F)
    if isinstance(F, FieldConfiguration):
        if variant != "constrained":
            if F.s is None:
                raise ValueError(f"the {variant} action needs a scale field")
            _check_node_scale(_grid_eval(F.s, grid), "on the grid")
        dens = _action_density(J, F, variant).component("u", "t")
        # the t-quadrature block by block, so no full-size density array is
        # kept; each row's sum is the one a full array gives
        inner = np.empty(grid.nu)
        for rows, v in _grid_rows(dens, grid):
            v = np.broadcast_to(v, (rows.stop - rows.start, grid.nt))
            inner[rows] = np.trapezoid(v, grid.t_nodes, axis=1)
    elif isinstance(F, DiscreteFieldConfiguration):
        if variant != "constrained" and F.s is not None:
            _check_node_scale(F.s, "on the grid")
        grid = F.grid
        vals = _full(_density(J, _sampled_fields(J, F), variant),
                     (grid.nu, grid.nt))
        inner = np.trapezoid(vals, grid.t_nodes, axis=1)
    else:
        raise TypeError("expected a FieldConfiguration or "
                        "DiscreteFieldConfiguration")
    return float(np.trapezoid(inner, grid.u_nodes))


def _check_node_scale(vals, where: str):
    """Raise ValueError when the scale field takes both signs over its
    values at nodes or sample points (a continuous s then vanishes between
    two of them) or drops below S_FLOOR at one; where names the nodes or
    points.  One min and one max (builtins on a list) give min |s|."""
    lo, hi = ((min(vals), max(vals)) if type(vals) is list
              else (float(np.min(vals)), float(np.max(vals))))
    if lo < 0 < hi:
        raise ValueError(f"scale field drops below 1e-06 {where}: "
                         "it changes sign there")
    if min(abs(lo), abs(hi)) < S_FLOOR:
        raise ValueError(f"scale field drops below 1e-06 {where}")


# --------------------------------------------------- stationarity system

@record
class ELReport:
    mode: str                 # "symbolic" or "discrete"
    variant: str
    ok: bool
    max_dev: float
    norms: dict               # equation label -> max |residual|
    residuals: dict           # label -> DifferentialForm / ndarray

    def summary(self) -> str:
        out = [f"el_residual[{self.variant},{self.mode}]: "
               + ("PASS" if self.ok else "FAIL")
               + f"  max {self.max_dev:.3e}"]
        for k in sorted(self.norms):
            out.append(f"  {k}: {self.norms[k]:.3e}")
        return "\n".join(out)


def el_residual(structure, F, *, variant: str = "homogeneous",
                tol: float = ex.DEFAULT_TOL, trials: int = ex.DEFAULT_TRIALS,
                seed: int = ex.DEFAULT_SEED) -> ELReport:
    """Stationarity residuals of the (homogeneous or reduced) action.

    Symbolic configurations give exact residual forms plus a sampled
    verdict; discrete configurations give finite-difference residual
    arrays (np.gradient, edge_order=2) and their max norms.  Raises
    ValueError where the scale field drops below S_FLOOR, at a sample
    point or at a grid node, or takes both signs at the sample points or
    at the grid nodes.
    """
    if variant not in ("homogeneous", "reduced"):
        raise ValueError("el_residual covers the homogeneous and reduced "
                         "variants")
    J = _as_pair(structure)
    _check_boundary(F, trials=trials, seed=seed)
    if isinstance(F, FieldConfiguration):
        if F.s is not None:
            _, vals = ex._sample(F.s, F.chart.sample_box(), trials, seed)
            _check_node_scale(list(vals), "on the chart box")
        one, two = _stationarity(J, _exact_fields(J, F), variant)
        res = {k: geo.form(F.chart, 1, {"u": ru, "t": rt})
               for k, (ru, rt) in one.items()}
        res.update({k: geo.form(F.chart, 2, {("u", "t"): r})
                    for k, r in two.items()})
        box = F.chart.sample_box()
        norms = {label: max([0.0] + [ex.max_abs(v, box, trials=trials,
                                                seed=seed)[0]
                                     for v in w.comps.values()])
                 for label, w in res.items()}
        dev = max([0.0] + list(norms.values()))
        return ELReport("symbolic", variant, dev <= tol, dev, norms, res)
    if isinstance(F, DiscreteFieldConfiguration):
        if F.s is not None:
            _check_node_scale(F.s, "on the grid")
        one, two = _stationarity(J, _sampled_fields(J, F), variant)
        shape = (F.grid.nu, F.grid.nt)
        res = ({k: np.stack([_full(c, shape) for c in r])
                for k, r in one.items()}
               | {k: _full(r, shape) for k, r in two.items()})
        norms = {k: _max_norm(v) for k, v in res.items()}
        dev = max(norms.values()) if norms else 0.0
        return ELReport("discrete", variant, dev <= tol, dev, norms, res)
    raise TypeError("expected a FieldConfiguration or "
                    "DiscreteFieldConfiguration")


# ------------------------------------------------------------ A-paths

@record(frozen=True)
class APath:
    """A path datum on [0,1]: base curve x, scale s, momentum components
    pi (du-coefficients), and z.  Entries may be Expressions in u or
    sampled arrays of length n."""
    x: dict
    pi: dict = field(default_factory=dict)
    s: object = 1
    z: object = 0
    n: int = 257


@record
class APathReport:
    ok: bool
    max_defect: float
    defects: dict
    n: int

    def summary(self) -> str:
        head = f"apath_check: {'PASS' if self.ok else 'FAIL'}  " \
               f"max defect {self.max_defect:.3e} ({self.n} nodes)"
        rows = [f"  {k}: {v:.3e}" for k, v in sorted(self.defects.items())]
        return "\n".join([head] + rows)


def _on_nodes(v, u: np.ndarray) -> np.ndarray:
    if isinstance(v, np.ndarray):
        arr = np.asarray(v, float)
        if arr.shape != u.shape:
            raise ValueError("sampled path entry has the wrong length")
        return arr
    val = ex.evaluate(ex.coerce(v), {"u": u})
    return np.broadcast_to(np.asarray(val, float), u.shape).copy()


def apath_check(structure, path: APath, *, tol: float = 1e-4) -> APathReport:
    """Check the two transport equations along the path:

        dx^j/du = (1/s) Lam^{kj} pi_k + E^j z,      ds/du = -E^k pi_k.

    These are the u-components of the homogeneous x and s rows of the
    stationarity system, on the grid backend over the path's own nodes.
    With eta = -pi/s the s row is d(log s)/du = +E^j eta_j, the rule
    apath_holonomy integrates: one transport rule, so on a path that
    passes, apath_holonomy(J, x, -pi/s) is s(1)/s(0).  Raises ValueError
    where the scale drops below S_FLOOR at a node or takes both signs over
    them.
    """
    J = _as_pair(structure)
    tn = J.chart.names
    u = np.linspace(0.0, 1.0, path.n)
    missing = [n for n in tn if n not in path.x]
    if missing:
        raise ValueError(f"path is missing base components for {missing}")
    xs = {n: _on_nodes(path.x[n], u) for n in tn}
    ss = _on_nodes(path.s, u)
    _check_node_scale(ss, "along the path")
    pis = {n: (_on_nodes(path.pi.get(n, 0), u),) for n in tn}
    f = _grid_fields(xs, ss, pis, (_on_nodes(path.z, u),), u)
    defects = {k: _max_norm(_full(r, u.shape)) for k, (r,)
               in _transport(J, f, red=False).items()}
    dev = max(defects.values())
    return APathReport(dev <= tol, dev, defects, path.n)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule over the nodes x (an odd number of them),
    panel by panel, so uneven spacing is allowed."""
    if len(x) % 2 == 0:
        raise ValueError("Simpson's rule needs an odd number of nodes")
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum, ratio = h0 + h1, h0 / h1
    return np.sum(hsum / 6.0 * (y[:-2:2] * (2.0 - 1.0 / ratio)
                                + y[1::2] * (hsum * (hsum / (h0 * h1)))
                                + y[2::2] * (2.0 - ratio)))


def apath_holonomy(structure, x: dict, eta: dict, *, n: int = 257) -> float:
    """exp of the Simpson integral of E^j(x(u)) eta_j(u) over [0,1];
    the ratio s(1)/s(0) transported along the reduced path.  With
    eta = -pi/s the rule d(log s)/du = +E^j eta_j is the s row
    ds/du = -E^k pi_k of apath_check, divided by s."""
    J = _as_pair(structure)
    tn = J.chart.names
    u = np.linspace(0.0, 1.0, n)
    xs = {nm: _on_nodes(x[nm], u) for nm in tn if nm in x}
    missing = [nm for nm in tn if nm not in xs]
    if missing:
        raise ValueError(f"path is missing base components for {missing}")
    vals = np.zeros_like(u)
    for (a,), v in J.e.comps.items():
        nm = tn[a]
        if nm not in eta:
            continue
        earr = np.broadcast_to(np.asarray(ex.evaluate(v, xs), float), u.shape)
        vals = vals + earr * _on_nodes(eta[nm], u)
    return float(np.exp(_simpson(vals, u)))


def scale_ode_rk4(structure, x: dict, eta: dict, *, s0: float = 1.0,
                  n: int = 512) -> float:
    """RK4 integration of ds/du = s E^j(x(u)) eta_j(u); returns s(1).

    Needs symbolic path entries (the integrand is evaluated off-grid).  The
    integrand is evaluated once per distinct node, in one array pass: the
    step starts u_i (u_0 = 0, u_{i+1} = u_i + h), the midpoints u_i + h/2,
    which k2 and k3 share, and u_n; k4 of a step is k1 of the next.  The
    2n + 1 values equal scalar evaluations bit for bit, and a guard that
    trips raises at the first bad node in step order."""
    J = _as_pair(structure)
    tn = J.chart.names
    acc = ex.ZERO
    for (a,), v in J.e.comps.items():
        nm = tn[a]
        if nm not in eta:
            continue
        comp = ex.substitute(v, {m: ex.coerce(x[m]) for m in tn if m in x})
        acc = acc + ex.coerce(comp) * ex.coerce(eta[nm])
    h = 1.0 / n
    nodes, uu = [], 0.0
    for _ in range(n):
        nodes += [uu, uu + 0.5 * h]
        uu += h
    nodes.append(uu)
    g = list(ex._point_values(acc, {"u": np.array(nodes)}, len(nodes)))
    s = float(s0)
    for i in range(n):
        g0, gm, g1 = g[2 * i:2 * i + 3]
        k1 = s * g0
        k2 = (s + 0.5 * h * k1) * gm
        k3 = (s + 0.5 * h * k2) * gm
        k4 = (s + h * k3) * g1
        s += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return s


# ----------------------------------------------------------- groupoid

SCALE_BOX = (0.5, 2.0)
X_BOX = (-0.45, 0.45)


@record(frozen=True)
class Ex1Groupoid:
    """The scaling groupoid over a contact chart.

    Elements are (s, t, X_l, X_r) with source (s, X_l), target (t s, X_r)
    and multiplication
        (t1 s1, t2, X_r, Y) o (s1, t1, X_l, X_r) = (s1, t2 t1, X_l, Y).
    Carries the multiplicative 2-form omega = alpha^* omega_0 -
    beta^* omega_0 with omega_0 = -s dtheta + ds ^ theta, and the contact
    form theta_c on the (s-reduced) quotient chart.
    """
    k: int
    chart: Chart
    pair_chart: Chart
    l_chart: Chart
    c_chart: Chart
    alpha: SmoothMap
    beta: SmoothMap
    mult: SmoothMap
    omega0: DifferentialForm
    omega: DifferentialForm
    theta_c: DifferentialForm


def contact_theta(k: int, l_chart: Chart) -> DifferentialForm:
    comps = {("x0",): ex.ONE}
    for j in range(1, k + 1):
        comps[(f"x{j}",)] = -var(f"x{k + j}")
    return geo.form(l_chart, 1, comps)


def contact_omega0(k: int = 0) -> DifferentialForm:
    """-s dtheta + ds ^ theta on the scale-extended contact chart."""
    xnames = tuple(f"x{i}" for i in range(2 * k + 1))
    l_chart = Chart(("s",) + xnames,
                    {"s": SCALE_BOX, **{n: X_BOX for n in xnames}},
                    {"s": 1})
    theta = contact_theta(k, l_chart)
    ds = geo.form(l_chart, 1, {("s",): ex.ONE})
    return geo.de_rham(theta).scale(-var("s")) + geo.wedge(ds, theta)


def ex1_groupoid(k: int = 0) -> Ex1Groupoid:
    m = 2 * k + 1
    xn = tuple(f"x{i}" for i in range(m))
    xl = tuple(f"xl{i}" for i in range(m))
    xm = tuple(f"xm{i}" for i in range(m))
    xr = tuple(f"xr{i}" for i in range(m))

    g_chart = Chart(("s", "t") + xl + xr,
                    {"s": SCALE_BOX, "t": SCALE_BOX,
                     **{n: X_BOX for n in xl + xr}},
                    {"s": 1})
    pair_chart = Chart(("s1", "t1", "t2") + xl + xm + xr,
                       {"s1": SCALE_BOX, "t1": SCALE_BOX, "t2": SCALE_BOX,
                        **{n: X_BOX for n in xl + xm + xr}},
                       {"s1": 1})
    l_chart = Chart(("s",) + xn,
                    {"s": SCALE_BOX, **{n: X_BOX for n in xn}},
                    {"s": 1})
    c_chart = Chart(("t",) + xl + xr,
                    {"t": SCALE_BOX, **{n: X_BOX for n in xl + xr}})

    alpha = SmoothMap(g_chart, l_chart,
                      {"s": var("s"), **{xn[i]: var(xl[i]) for i in range(m)}})
    beta = SmoothMap(g_chart, l_chart,
                     {"s": var("t") * var("s"),
                      **{xn[i]: var(xr[i]) for i in range(m)}})
    # the pair chart parametrizes composable pairs: g1 = (s1, t1, xl, xm),
    # g2 = (t1 s1, t2, xm, xr); the product keeps the outer slots
    mult = SmoothMap(pair_chart, g_chart,
                     {"s": var("s1"), "t": var("t2") * var("t1"),
                      **{xl[i]: var(xl[i]) for i in range(m)},
                      **{xr[i]: var(xr[i]) for i in range(m)}})

    omega0 = contact_omega0(k)
    omega = geo.pullback(omega0, alpha) - geo.pullback(omega0, beta)

    comps = {("xl0",): ex.ONE, ("xr0",): -var("t")}
    for j in range(1, k + 1):
        comps[(f"xl{j}",)] = -var(f"xl{k + j}")
        comps[(f"xr{j}",)] = var("t") * var(f"xr{k + j}")
    theta_c = geo.form(c_chart, 1, comps)

    return Ex1Groupoid(k, g_chart, pair_chart, l_chart, c_chart,
                       alpha, beta, mult, omega0, omega, theta_c)


@record
class GroupoidReport:
    ok: bool
    k: int
    checks: dict

    def summary(self) -> str:
        out = [f"ex1_groupoid(k={self.k}): " + ("PASS" if self.ok else "FAIL")]
        for name, entry in self.checks.items():
            bits = ", ".join(f"{kk}={vv:.3e}" if isinstance(vv, float)
                             else f"{kk}={vv}" for kk, vv in entry.items()
                             if kk != "ok")
            out.append(f"  {name}: {'ok' if entry['ok'] else 'FAIL'}  {bits}")
        return "\n".join(out)


def _exprs_dev(pairs, box, *, trials, seed) -> float:
    dev = 0.0
    for a, b in pairs:
        m, _ = ex.max_abs(ex.sub(ex.coerce(a), ex.coerce(b)), box,
                          trials=trials, seed=seed)
        dev = max(dev, m)
    return dev


def verify_ex1_groupoid(G: Ex1Groupoid, *, tol: float = ex.DEFAULT_TOL,
                        trials: int = ex.DEFAULT_TRIALS,
                        seed: int = ex.DEFAULT_SEED) -> GroupoidReport:
    """Five checks: source/target of products, associativity, the scale
    action is a groupoid morphism intertwining source and target, omega
    scales with degree 1, and theta_c ^ (dtheta_c)^(2k+1) has no zeros."""
    m = 2 * G.k + 1
    xl = [f"xl{i}" for i in range(m)]
    xr = [f"xr{i}" for i in range(m)]
    checks = {}
    pbox = G.pair_chart.sample_box()

    am = G.mult.then(G.alpha)
    bm = G.mult.then(G.beta)
    pairs = [(am("s"), var("s1")), (bm("s"), var("t2") * var("t1") * var("s1"))]
    for i in range(m):
        pairs.append((am(f"x{i}"), var(xl[i])))
        pairs.append((bm(f"x{i}"), var(xr[i])))
    dev = _exprs_dev(pairs, pbox, trials=trials, seed=seed)
    checks["source_target_of_product"] = {"ok": dev <= tol, "max_dev": dev}

    # associativity: compose G.mult both ways on a composable triple
    # g1 = (s1, t1, xa, xb), g2 = (t1 s1, t2, xb, xc),
    # g3 = (t2 t1 s1, t3, xc, xd)
    def element(s, t, left, right):
        return {"s": s, "t": t, **dict(zip(xl, left)), **dict(zip(xr, right))}

    def compose(a, b):
        """b o a through G.mult: the pair chart takes a's scale, both
        arrows' t and the three base points."""
        sub = {"s1": a["s"], "t1": a["t"], "t2": b["t"]}
        for i in range(m):
            sub.update({xl[i]: a[xl[i]], f"xm{i}": a[xr[i]],
                        xr[i]: b[xr[i]]})
        return {n: ex.substitute(G.mult(n), sub) for n in G.chart.names}

    s1, t1, t2, t3 = var("s1"), var("t1"), var("t2"), var("t3")
    pts = {c: [f"x{c}{i}" for i in range(m)] for c in "abcd"}
    xa, xb, xc, xd = ([var(n) for n in pts[c]] for c in "abcd")
    g1 = element(s1, t1, xa, xb)
    g2 = element(t1 * s1, t2, xb, xc)
    g3 = element(t2 * t1 * s1, t3, xc, xd)
    left, right = compose(compose(g1, g2), g3), compose(g1, compose(g2, g3))
    tbox = {"s1": SCALE_BOX, "t1": SCALE_BOX, "t2": SCALE_BOX, "t3": SCALE_BOX,
            **{n: X_BOX for c in "abcd" for n in pts[c]}}
    dev = _exprs_dev([(left[n], right[n]) for n in G.chart.names], tbox,
                     trials=trials, seed=seed)
    checks["associativity"] = {"ok": dev <= tol, "max_dev": dev}

    # the scale action h_nu(s,t,xl,xr) = (nu s, t, xl, xr)
    nu = var("nu")
    nbox = dict(pbox)
    nbox["nu"] = SCALE_BOX
    scaled = {n: ex.substitute(G.mult(n), {"s1": nu * s1})
              for n in G.chart.names}
    target = dict(G.mult.comps)
    target["s"] = nu * target["s"]
    pairs = [(scaled[n], target[n]) for n in G.chart.names]
    gbox = dict(G.chart.sample_box())
    gbox["nu"] = SCALE_BOX
    sc = {"s": nu * var("s")}
    for n in G.l_chart.names:
        a_scaled = ex.substitute(G.alpha(n), sc)
        a_target = G.alpha(n) if n != "s" else nu * G.alpha("s")
        b_scaled = ex.substitute(G.beta(n), sc)
        b_target = G.beta(n) if n != "s" else nu * G.beta("s")
        pairs.append((a_scaled, a_target))
        pairs.append((b_scaled, b_target))
    dev = max(_exprs_dev(pairs[:len(G.chart.names)], nbox,
                         trials=trials, seed=seed),
              _exprs_dev(pairs[len(G.chart.names):], gbox,
                         trials=trials, seed=seed))
    checks["scale_action_morphism"] = {"ok": dev <= tol, "max_dev": dev}

    deg_ok = geo.has_scaling_degree(G.omega, 1, tol=tol, trials=trials,
                                    seed=seed)
    checks["omega_degree_1"] = {"ok": deg_ok, "degree": 1}

    dth = geo.de_rham(G.theta_c)
    top = G.theta_c
    for _ in range(2 * G.k + 1):
        top = geo.wedge(top, dth)
    if not top.comps:
        checks["contact_top_form"] = {"ok": False, "min_abs": 0.0}
    else:
        box = G.c_chart.sample_box()
        best = math.inf
        for v in top.comps.values():
            for _, val in ex.sample_values(v, box, trials=trials, seed=seed):
                best = min(best, abs(val))
        checks["contact_top_form"] = {"ok": best > 1e-6, "min_abs": best}

    ok = all(entry["ok"] for entry in checks.values())
    return GroupoidReport(ok, G.k, checks)


# ------------------------------------------------------------- builders

def contact_pair(k: int = 1, *, width: float = 0.45) -> JacobiPair:
    """The contact structure on a (2k+1)-chart: E = d/dx0 and
    Lam = sum_j (d/dx^j + x^{k+j} d/dx^0) ^ d/dx^{k+j}."""
    names = tuple(f"x{i}" for i in range(2 * k + 1))
    chart = Chart(names, {n: (-width, width) for n in names})
    lam = {}
    for j in range(1, k + 1):
        lam[(f"x{j}", f"x{k + j}")] = ex.ONE
        lam[("x0", f"x{k + j}")] = var(f"x{k + j}")
    return JacobiPair.build(chart, lam, {("x0",): ex.ONE})


def contact_solution(k: int = 1, *, x0_profile=None, s_profile=None,
                     t_extent: float = 1.0) -> FieldConfiguration:
    """An exact stationary configuration for contact_pair(k): all base
    maps but X^0 vanish, pi_{x0} = -ds, z = dX^0."""
    ch = source_chart(t_extent)
    u, t = var("u"), var("t")
    X0 = ex.coerce(x0_profile) if x0_profile is not None \
        else ex.sin(u) * ex.cos(t)
    s = ex.coerce(s_profile) if s_profile is not None \
        else ex.exp(u / 4 + t / 2)
    x = {"x0": X0, **{f"x{i}": ex.ZERO for i in range(1, 2 * k + 1)}}
    return FieldConfiguration.build(
        ch, x, s=s, pi={"x0": d0(ch, s).scale(-1)}, z=d0(ch, X0))


def moebius_pair(*, flat: bool = False) -> JacobiPair:
    """One chart of the twisted line bundle over the circle: Lam = 0 and
    E = cos(pi x) d/dx (or the untwistable E = d/dx when flat)."""
    ch = Chart(("x",), {"x": (0.05, 0.95)})
    e_ = ex.ONE if flat else ex.cos(ex.PI * var("x"))
    return JacobiPair(ch, geo.mvf(ch, 2, {}), geo.mvf(ch, 1, {("x",): e_}))


def moebius_atlas(*, flat: bool = False) -> LineBundleAtlas:
    """Two charts around the circle glued on two arcs; the second gluing
    reverses the fibre (g = -1), which forces E to change sign across it."""
    chO = Chart(("x",), {"x": (0.05, 0.95)})
    chU = Chart(("x",), {"x": (0.55, 1.45)})
    e_of = lambda: ex.ONE if flat else ex.cos(ex.PI * var("x"))
    JO = JacobiPair(chO, geo.mvf(chO, 2, {}), geo.mvf(chO, 1, {("x",): e_of()}))
    JU = JacobiPair(chU, geo.mvf(chU, 2, {}), geo.mvf(chU, 1, {("x",): e_of()}))
    x = var("x")
    overlaps = [
        Overlap("O", "U", SmoothMap(chO, chU, {"x": x}),
                SmoothMap(chU, chO, {"x": x}), ex.ONE,
                {"x": (0.55, 0.95)}, {"x": (0.55, 0.95)}),
        Overlap("U", "O", SmoothMap(chU, chO, {"x": x}),
                SmoothMap(chO, chU, {"x": x}), ex.ONE,
                {"x": (0.55, 0.95)}, {"x": (0.55, 0.95)}),
        Overlap("O", "U", SmoothMap(chO, chU, {"x": x + 1}),
                SmoothMap(chU, chO, {"x": x - 1}), ex.num(-1),
                {"x": (0.05, 0.45)}, {"x": (1.05, 1.45)}),
        Overlap("U", "O", SmoothMap(chU, chO, {"x": x - 1}),
                SmoothMap(chO, chU, {"x": x + 1}), ex.num(-1),
                {"x": (1.05, 1.45)}, {"x": (0.05, 0.45)}),
    ]
    return LineBundleAtlas({"O": JO, "U": JU}, overlaps)


def moebius_null_solution(*, t_extent: float = 1.0) -> FieldConfiguration:
    """Constant stationary configuration sitting at the zero of E:
    X = 1/2, s = 1, p = z = 0 (reduced variables)."""
    ch = source_chart(t_extent)
    return FieldConfiguration.build(ch, {"x": ex.num(0.5)}, s=ex.ONE)


def almost_poisson_bivector():
    """The R^3 bivector d/dx ^ (d/dy + x d/dz); skew but not integrable."""
    ch = Chart(("x", "y", "z"))
    return ch, geo.mvf(ch, 2, {("x", "y"): ex.ONE, ("x", "z"): var("x")})


def almost_poisson_algebroid() -> alg.AlgebroidStructure:
    _, lam = almost_poisson_bivector()
    return alg.from_linear_bivector(geo.tangent_lift(lam),
                                    gen_names=("dx", "dy", "dz"))


def _profile(value, default_text: str, allowed) -> Expression:
    if value is None:
        return ex.parse(default_text, allowed=allowed)
    if isinstance(value, str):
        return ex.parse(value, allowed=allowed)
    return ex.coerce(value)


def family_one_morphism(g=None, h=None, x_profile=None) -> alg.VBMorphism:
    """Solution family with a free base profile X(u,t) and two shape
    functions: base map (X, g'(X), X g'(X) - g(X)) and frame components
    (g''(X) dX, -(1 + X h(X)) dX, h(X) dX)."""
    gw = _profile(g, "w^3", {"w"})
    hw = _profile(h, "w", {"w"})
    X = _profile(x_profile, "u + t", {"u", "t"})
    chS = source_chart()
    TS = alg.tangent_algebroid(chS)
    A = almost_poisson_algebroid()
    at = lambda e_: ex.substitute(e_, {"w": X})
    gp = ex.differentiate(gw, "w")
    gpp = ex.differentiate(gp, "w")
    dX = d0(chS, X)
    eta_x = dX.scale(at(gpp))
    eta_y = dX.scale(-(ex.ONE + X * at(hw)))
    eta_z = dX.scale(at(hw))
    phi0 = SmoothMap(chS, A.base,
                     {"x": X, "y": at(gp), "z": X * at(gp) - at(gw)})
    return alg.VBMorphism.build(TS, A, phi0,
                                {"dx": eta_x, "dy": eta_y, "dz": eta_z})


def family_two_morphism(f=None, c=0, y_profile=None) -> alg.VBMorphism:
    """Solution family along x = 1: base map (1, Y, Y + c) and frame
    components (dY, f'(Y) dY, -f'(Y) dY)."""
    fw = _profile(f, "w^2", {"w"})
    Y = _profile(y_profile, "u", {"u", "t"})
    chS = source_chart()
    TS = alg.tangent_algebroid(chS)
    A = almost_poisson_algebroid()
    fp = ex.substitute(ex.differentiate(fw, "w"), {"w": Y})
    dY = d0(chS, Y)
    phi0 = SmoothMap(chS, A.base, {"x": ex.ONE, "y": Y, "z": Y + ex.coerce(c)})
    return alg.VBMorphism.build(TS, A, phi0,
                                {"dx": dY, "dy": dY.scale(fp),
                                 "dz": dY.scale(-fp)})


# -------------------------------------------------------- example gallery

@record
class ExamplePackage:
    name: str
    kind: str                 # "jacobi" | "atlas" | "morphism" | "groupoid"
    structure: object
    fields: tuple
    params: dict

    def verify(self, *, tol: float = ex.DEFAULT_TOL,
               trials: int = ex.DEFAULT_TRIALS,
               seed: int = ex.DEFAULT_SEED) -> dict:
        kw = dict(tol=tol, trials=trials, seed=seed)
        if self.kind == "jacobi":
            jr = jac.jacobi_check(self.structure, **kw)
            fr = el_residual(self.structure, self.fields[0], **kw)
            return {"ok": bool(jr.ok and fr.ok),
                    "jacobi": {"ok": bool(jr.ok),
                               "max_residual": jr.max_residual},
                    "solution": {"ok": bool(fr.ok), "max_dev": fr.max_dev,
                                 "norms": fr.norms}}
        if self.kind == "atlas":
            ar = jac.atlas_check(self.structure, **kw)
            J = self.structure.charts["O"]
            fr = el_residual(J, self.fields[0], variant="reduced", **kw)
            return {"ok": bool(ar.ok and fr.ok),
                    "atlas": {"ok": bool(ar.ok),
                              "charts": {n: bool(v) for n, v
                                         in ar.chart_checks.items()},
                              "gluing_max": max(oc["gluing_max"]
                                                for oc in ar.overlap_checks)},
                    "null_solution": {"ok": bool(fr.ok),
                                      "max_dev": fr.max_dev}}
        if self.kind == "morphism":
            mr = alg.morphism_check(self.fields[0], **kw)
            out = {"ok": bool(mr.ok), "max_dev": mr.max_dev}
            if mr.max_dev > tol:
                (slot, label), dev = mr.worst()
                out["worst"] = {"slot": slot, "label": label, "dev": dev}
            return out
        if self.kind == "groupoid":
            gr = verify_ex1_groupoid(self.structure, **kw)
            return {"ok": bool(gr.ok), "k": gr.k,
                    "checks": {n: {kk: (bool(vv) if isinstance(vv, bool)
                                        else vv) for kk, vv in e.items()}
                               for n, e in gr.checks.items()}}
        raise ValueError(f"unknown example kind {self.kind!r}")


def builtin_example(name: str, **params) -> ExamplePackage:
    """The five built-in examples.  Parameters:

      contact-k               k (default 1), x0_profile, s_profile
      moebius                 (none)
      almost-poisson-family1  g (default w^3), h (default w), x (default u+t)
      almost-poisson-family2  f (default w^2), c (default 0), y (default u)
      ex1-groupoid            k (default 0)

    Shape functions are expressions in w; profiles are expressions in
    u, t.  Strings are parsed.
    """
    if name == "contact-k":
        k = int(params.get("k", 1))
        J = contact_pair(k)
        F = contact_solution(k, x0_profile=params.get("x0_profile"),
                             s_profile=params.get("s_profile"))
        return ExamplePackage(name, "jacobi", J, (F,), {"k": k})
    if name == "moebius":
        atlas = moebius_atlas()
        F = moebius_null_solution()
        return ExamplePackage(name, "atlas", atlas, (F,), {})
    if name == "almost-poisson-family1":
        phi = family_one_morphism(params.get("g"), params.get("h"),
                                  params.get("x"))
        return ExamplePackage(name, "morphism", phi.dst, (phi,),
                              {"g": str(params.get("g", "w^3")),
                               "h": str(params.get("h", "w")),
                               "x": str(params.get("x", "u + t"))})
    if name == "almost-poisson-family2":
        phi = family_two_morphism(params.get("f"), params.get("c", 0),
                                  params.get("y"))
        return ExamplePackage(name, "morphism", phi.dst, (phi,),
                              {"f": str(params.get("f", "w^2")),
                               "c": str(params.get("c", 0)),
                               "y": str(params.get("y", "u"))})
    if name == "ex1-groupoid":
        k = int(params.get("k", 0))
        return ExamplePackage(name, "groupoid", ex1_groupoid(k), (), {"k": k})
    raise ValueError(f"unknown example {name!r}; "
                     f"choose one of {BUILTIN_EXAMPLES}")
