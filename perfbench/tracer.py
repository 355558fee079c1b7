"""Span tracer for the traced benchmark run.

`Tracer.install()` wraps the public functions of the six jacobisigma modules
in every module namespace that binds them (`jacobi` binds `geometry.wedge`
as `wedge`, `sigma` binds `expr.var`, ...), and `uninstall()` puts the
originals back.  Module-level dispatch tables (`cli._DISPATCH`) count as
bindings too.  Nothing under src/ is edited.

Every wrapped function belongs to a layer: the layer names of the per-layer
metrics (`expr.construct`, `expr.sample`, `geometry.schouten`, ...), or the
bare module name for the rest of a module.  A span opens only where a call
crosses from one layer into another; a call within a layer (a constructor
calling `coerce`, `differentiate` recursing) is counted, not spanned.  The
expr and cli modules are split into layers because their sub-layers call
each other (`is_zero` -> `halton_point` -> ..., `cmd_check` ->
`parse_structure`), and a module-level boundary would fold the sampling
kernel into the sampler and the parser into the command.

A span records function, layer, start, end, parent span and op id; spans
live in flat arrays in memory and are written out by `save`.  A layer's self
time is its spans' time minus the time their child spans cover.
"""

from __future__ import annotations

import inspect
from array import array
from time import perf_counter

import numpy as np

from jacobisigma import algebroid, cli, expr, geometry, jacobi, sigma

MODULES = (expr, geometry, jacobi, algebroid, sigma, cli)

_LAYER_OF = {
    "expr": {
        "construct": ("coerce", "num", "var", "add", "mul", "neg", "sub",
                      "pow_", "div", "sin", "cos", "exp", "log", "normalize"),
        "differentiate": ("differentiate",), "substitute": ("substitute",),
        "sample": ("sample_values", "is_zero", "max_abs"),
        "halton": ("halton_point",), "evaluate": ("evaluate",),
        "parse": ("parse",)},
    "geometry": {
        "schouten": ("schouten",),
        "calculus": ("wedge", "de_rham", "sharp", "interior", "vector_apply"),
        "transport": ("pushforward", "pullback", "tangent_lift", "push_scale")},
    "jacobi": {"bracket": ("bracket",), "atlas_check": ("atlas_check",)},
    "algebroid": {"d": ("algebroid_d",), "extract": ("from_linear_bivector",),
                  "morphism": ("morphism_check",)},
    "sigma": {"grid": ("action", "sample_config", "apath_check",
                       "apath_holonomy", "scale_ode_rk4")},
    "cli": {"cmd": ("cmd_check", "cmd_derive", "cmd_verify", "cmd_example"),
            "parse": ("parse_structure", "parse_field"),
            "emit": ("emit_poisson", "emit_algebroid")},
}

LAYERS = ("bench",) + tuple(
    f"{m}.{layer}" for m, table in _LAYER_OF.items() for layer in table) + (
    "sigma.symbolic",) + tuple(m.__name__.split(".")[-1] for m in MODULES)


def layer_of(module: str, name: str) -> str:
    for layer, names in _LAYER_OF.get(module, {}).items():
        if name in names:
            return f"{module}.{layer}"
    return module


def _grid_nodes(name, args, kwargs):
    """Grid or path nodes touched by one sigma.grid call."""
    def nodes(g):
        return g.nu * g.nt
    if name == "sample_config":
        return nodes(args[1])
    if name == "el_residual":
        return nodes(args[1].grid)
    if name == "action":
        F = args[1]
        if isinstance(F, sigma.DiscreteFieldConfiguration):
            return nodes(F.grid)
        grid = args[3] if len(args) > 3 else kwargs.get("grid")
        return nodes(grid or sigma.SurfaceGrid())
    if name == "apath_check":
        return args[1].n
    default = 257 if name == "apath_holonomy" else 512
    return kwargs.get("n", default)


class Tracer:
    """Wraps the public functions of jacobisigma while installed.

    Counters: calls per function; for `evaluate`, scalar and array calls and
    guard trips (EvaluationError); for `sample_values`, points yielded; for
    `bracket`, distinct (f, g) argument pairs per op; for the grid layer,
    nodes touched.
    """

    def __init__(self):
        self.names = []            # function id -> "module.name"
        self.fn_layer = []         # function id -> layer id
        self.calls = []
        self.fn = array("i")        # function id per span
        self.layer = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [(0, -1)]     # (layer id, span index); 0 = bench
        self.on = False
        self.op_id = -1
        self.counts = {"evaluate.scalar": 0, "evaluate.array": 0,
                       "evaluate.guard_trips": 0, "sample.points": 0,
                       "bracket.distinct": 0, "grid.nodes": 0}
        self._pairs = set()
        self._saved = []           # (namespace or table, key, original)
        self._layer_id = {name: i for i, name in enumerate(LAYERS)}

    # -- op bookkeeping

    def begin_op(self, op_id):
        self.op_id = op_id
        self._pairs = set()
        self.on = True

    def end_op(self):
        self.on = False

    # -- installation

    def install(self):
        wrapped = {}
        for mod in MODULES:
            short = mod.__name__.split(".")[-1]
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped[fn] = self._wrap(fn, short, name)
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._saved.append((vars(mod), attr, val))
                    setattr(mod, attr, wrapped[val])
                elif isinstance(val, dict):     # dispatch tables (cli)
                    for key, fn in list(val.items()):
                        if inspect.isfunction(fn) and fn in wrapped:
                            self._saved.append((val, key, fn))
                            val[key] = wrapped[fn]

    def uninstall(self):
        for table, key, val in reversed(self._saved):
            table[key] = val
        self._saved = []

    def _wrap(self, fn, module, name):
        fid = len(self.names)
        self.names.append(f"{module}.{name}")
        self.calls.append(0)
        layer = self._layer_id[layer_of(module, name)]
        self.fn_layer.append(layer)
        calls, stack, counts = self.calls, self.stack, self.counts
        starts, ends, parents, ops = self.start, self.end, self.parent, self.op
        fns, layers = self.fn, self.layer
        tracer = self
        sym_layer = self._layer_id["sigma.symbolic"]
        grid_layer = self._layer_id["sigma.grid"]

        def hook(args, kwargs):
            """Counters that need the arguments; returns the call's layer."""
            if name == "evaluate":
                point = args[1] if len(args) > 1 else kwargs["point"]
                if any(isinstance(v, np.ndarray) for v in point.values()):
                    counts["evaluate.array"] += 1
                else:
                    counts["evaluate.scalar"] += 1
            elif name == "bracket":
                key = (args[1], args[2])
                if key not in tracer._pairs:
                    tracer._pairs.add(key)
                    counts["bracket.distinct"] += 1
            elif name == "el_residual":
                if isinstance(args[1], sigma.DiscreteFieldConfiguration):
                    counts["grid.nodes"] += _grid_nodes(name, args, kwargs)
                    return grid_layer
                return sym_layer
            if layer == grid_layer:
                counts["grid.nodes"] += _grid_nodes(name, args, kwargs)
            return layer

        needs_hook = name in ("evaluate", "bracket", "el_residual") \
            or layer == grid_layer

        def open_span(lay):
            idx = len(starts)
            fns.append(fid)
            layers.append(lay)
            parents.append(stack[-1][1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append((lay, idx))
            starts.append(perf_counter())
            return idx

        def close_span(idx):
            ends[idx] = perf_counter()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                if not tracer.on:
                    return fn(*args, **kwargs)
                calls[fid] += 1
                inner = fn(*args, **kwargs)
                same = stack[-1][0] == layer

                def run():
                    while True:
                        if same or not tracer.on:
                            try:
                                item = next(inner)
                            except StopIteration:
                                return
                        else:
                            idx = open_span(layer)
                            try:
                                item = next(inner)
                            except StopIteration:
                                return
                            finally:
                                close_span(idx)
                        counts["sample.points"] += 1
                        yield item
                return run()
            return _named(gen_wrapper, fn)

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            calls[fid] += 1
            lay = hook(args, kwargs) if needs_hook else layer
            if stack[-1][0] == lay:
                if name == "evaluate":
                    try:
                        return fn(*args, **kwargs)
                    except expr.EvaluationError:
                        counts["evaluate.guard_trips"] += 1
                        raise
                return fn(*args, **kwargs)
            idx = open_span(lay)
            try:
                return fn(*args, **kwargs)
            except expr.EvaluationError:
                if name == "evaluate":
                    counts["evaluate.guard_trips"] += 1
                raise
            finally:
                close_span(idx)
        return _named(wrapper, fn)

    # -- results

    def self_times(self) -> dict:
        """Self time summed per layer, over all recorded spans."""
        n = len(self.start)
        if not n:
            return {}
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n)
        own = dur - child
        per = np.bincount(np.frombuffer(self.layer, dtype=np.uint8),
                          weights=own, minlength=len(LAYERS))
        return {LAYERS[i]: float(v) for i, v in enumerate(per) if v}

    def layer_calls(self) -> dict:
        out = {}
        for fid, c in enumerate(self.calls):
            name = LAYERS[self.fn_layer[fid]]
            out[name] = out.get(name, 0) + c
        return out

    def save(self, path):
        """Write every span (function, layer, start, end, parent, op)."""
        np.savez_compressed(
            path, names=np.array(self.names), layers=np.array(LAYERS),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            layer=np.frombuffer(self.layer, dtype=np.uint8),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32))

    def summary(self) -> dict:
        """Totals over the traced ops: self time and calls per layer, and the
        counters."""
        return {"self_s": self.self_times(), "calls": self.layer_calls(),
                "counts": dict(self.counts), "spans": len(self.start)}


def _named(wrapper, fn):
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper
