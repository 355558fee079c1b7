"""Command-line front end and the on-disk file formats.

Structure and field descriptions are flat INI files with expression
strings (the grammar of the expr module).  Four commands:

  jsm check  <structure>                      run the structure checks
  jsm derive <structure> --what W [-o OUT]    poissonize | lift | algebroid
  jsm verify <structure> <field>              residuals / morphism verdicts
  jsm example <name>                          run a built-in example

Common flags: --json PATH --seed N --tol X --trials N --grid NxM, with
--trials at least 1 and --tol finite and not negative.
Exit codes: 0 all checks pass, 1 a check failed, 2 bad input.
JSON reports are deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import re
import sys
import time
from pathlib import Path

# jsm calls no BLAS routine, but numpy's import starts OpenBLAS's thread
# pool, whose idle workers spin on the CPU; one thread starts none.  This
# must run before numpy is first imported, and a caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import expr as ex  # noqa: E402
from . import geometry as geo  # noqa: E402
from . import jacobi as jac  # noqa: E402
from . import algebroid as alg  # noqa: E402
from . import sigma as sg  # noqa: E402
from .geometry import Chart, SmoothMap  # noqa: E402
from .jacobi import (JacobiPair, HomogeneousPoisson,  # noqa: E402
                     LineBundleAtlas, Overlap)

STRUCTURE_KINDS = ("jacobi", "poisson", "algebroid", "atlas")


class InputError(Exception):
    """Bad file, bad expression, or an incompatible request (exit code 2)."""


# ------------------------------------------------------------- parsing

def _read_ini(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    p = Path(path)
    if not p.exists():
        raise InputError(f"{path}: no such file")
    try:
        with open(p) as fh:
            cp.read_file(fh, source=str(path))
    except configparser.Error as err:
        raise InputError(str(err)) from err
    return cp


def _split_list(text):
    return [s.strip() for s in text.split(",") if s.strip()]


def _parse_expr(text, allowed, where):
    try:
        return ex.parse(text, allowed=allowed)
    except (ex.ParseError, ex.UndeclaredVariableError) as err:
        raise InputError(f"{where}: {err}") from err


def _parse_interval(text, where):
    parts = _split_list(text)
    if len(parts) != 2:
        raise InputError(f"{where}: expected 'lo, hi'")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as err:
        raise InputError(f"{where}: {err}") from err


def _parse_chart(cp, path, *, chart_sec="chart", box_sec="box",
                 weights_sec="weights") -> Chart:
    if not cp.has_section(chart_sec):
        raise InputError(f"{path}: missing [{chart_sec}] section")
    names = _split_list(cp.get(chart_sec, "names", fallback=""))
    if not names:
        raise InputError(f"{path}: [{chart_sec}] needs a 'names' entry")
    box, weights = {}, {}
    if cp.has_section(box_sec):
        for n, v in cp.items(box_sec):
            if n not in names:
                raise InputError(f"{path}: [{box_sec}] unknown coordinate '{n}'")
            box[n] = _parse_interval(v, f"{path}: [{box_sec}] {n}")
    if cp.has_section(weights_sec):
        for n, v in cp.items(weights_sec):
            if n not in names:
                raise InputError(f"{path}: [{weights_sec}] unknown "
                                 f"coordinate '{n}'")
            try:
                weights[n] = int(v)
            except ValueError as err:
                raise InputError(f"{path}: [{weights_sec}] {n}: {err}") from err
    try:
        return Chart(tuple(names), box, weights)
    except ValueError as err:
        raise InputError(f"{path}: [{chart_sec}] {err}") from err


def _parse_tensor_comps(cp, sec, chart, degree, path) -> dict:
    """Component rows 'n1, n2 = expr'.  Index tuples must be strictly
    increasing in chart order."""
    comps = {}
    if not cp.has_section(sec):
        return comps
    for key, val in cp.items(sec):
        names = _split_list(key)
        if len(names) != degree:
            raise InputError(f"{path}: [{sec}] {key}: expected {degree} "
                             f"index name(s)")
        try:
            idx = tuple(chart.index(n) for n in names)
        except ValueError:
            raise InputError(f"{path}: [{sec}] {key}: unknown coordinate")
        if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
            raise InputError(f"{path}: [{sec}] {key}: indices must be "
                             f"strictly increasing in chart order")
        comps[idx] = _parse_expr(val, set(chart.names), f"{path}: [{sec}] {key}")
    return comps


def parse_structure(path):
    """-> (kind, object); object is JacobiPair, HomogeneousPoisson,
    MultivectorField (plain bivector), AlgebroidStructure or RxAlgebroid,
    or LineBundleAtlas.  A poisson file may carry a [fiber] block, returned
    as object.fiber_hint when present."""
    cp = _read_ini(path)
    if not cp.has_section("structure"):
        raise InputError(f"{path}: missing [structure] section")
    kind = cp.get("structure", "kind", fallback="").strip()
    if kind not in STRUCTURE_KINDS:
        raise InputError(f"{path}: kind must be one of {STRUCTURE_KINDS}, "
                         f"got {kind!r}")

    if kind == "jacobi":
        chart = _parse_chart(cp, path)
        lam = _parse_tensor_comps(cp, "lambda", chart, 2, path)
        e = _parse_tensor_comps(cp, "e", chart, 1, path)
        return kind, JacobiPair(chart, geo.mvf(chart, 2, lam),
                                geo.mvf(chart, 1, e))

    if kind == "poisson":
        chart = _parse_chart(cp, path)
        pi = _parse_tensor_comps(cp, "pi", chart, 2, path)
        P = geo.mvf(chart, 2, pi)
        fiber = None
        if cp.has_section("fiber"):
            fiber = tuple(_split_list(cp.get("fiber", "names", fallback="")))
            for n in fiber:
                if n not in chart.names:
                    raise InputError(f"{path}: [fiber] unknown coordinate '{n}'")
        s_name = cp.get("structure", "s_name", fallback="").strip()
        if s_name:
            if s_name not in chart.names:
                raise InputError(f"{path}: s_name '{s_name}' is not a "
                                 f"chart coordinate")
            try:
                obj = HomogeneousPoisson(chart, P, s_name)
            except jac.HomogeneousPoissonError as err:
                raise InputError(f"{path}: {err}") from err
        else:
            obj = P
        obj.fiber_hint = fiber
        return kind, obj

    if kind == "algebroid":
        base = _parse_chart(cp, path)
        if not cp.has_section("generators"):
            raise InputError(f"{path}: missing [generators] section")
        gens = _split_list(cp.get("generators", "names", fallback=""))
        if not gens:
            raise InputError(f"{path}: [generators] needs a 'names' entry")
        order = {g: i for i, g in enumerate(gens)}
        anchor = {}
        if cp.has_section("anchor"):
            for key, val in cp.items("anchor"):
                parts = _split_list(key)
                if len(parts) != 2 or parts[0] not in order \
                        or parts[1] not in base.names:
                    raise InputError(f"{path}: [anchor] {key}: expected "
                                     f"'generator, coordinate'")
                g, xn = parts
                anchor.setdefault(g, {})[xn] = _parse_expr(
                    val, set(base.names), f"{path}: [anchor] {key}")
        c = {}
        if cp.has_section("brackets"):
            # rows 'ga, gb, gk = coeff' meaning [ga, gb] has coeff * y^gk
            for key, val in cp.items("brackets"):
                parts = _split_list(key)
                if len(parts) != 3 or any(p not in order for p in parts):
                    raise InputError(f"{path}: [brackets] {key}: expected "
                                     f"'gen, gen, gen'")
                ga, gb, gk = parts
                if ga == gb:
                    raise InputError(f"{path}: [brackets] {key}: repeated "
                                     f"generator")
                coeff = _parse_expr(val, set(base.names),
                                    f"{path}: [brackets] {key}")
                if order[ga] < order[gb]:
                    pair, sign = (ga, gb), 1
                else:
                    pair, sign = (gb, ga), -1
                row = c.setdefault(pair, {})
                prev = row.get(gk, ex.ZERO)
                row[gk] = ex.add(prev, ex.mul(ex.num(sign), coeff))
        try:
            A = alg.AlgebroidStructure.build(base, gens, anchor, c)
        except AssertionError as err:
            raise InputError(f"{path}: {err}") from err
        if cp.has_section("gen_weights"):
            gw = {}
            for g, v in cp.items("gen_weights"):
                if g not in order:
                    raise InputError(f"{path}: [gen_weights] unknown "
                                     f"generator '{g}'")
                try:
                    gw[g] = int(v)
                except ValueError as err:
                    raise InputError(f"{path}: [gen_weights] {g}: {err}") \
                        from err
            for g in gens:
                gw.setdefault(g, 0)
            return kind, alg.RxAlgebroid(A, gw)
        return kind, A

    # atlas
    names = _split_list(cp.get("structure", "charts", fallback=""))
    if not names:
        raise InputError(f"{path}: atlas needs 'charts = ...' under "
                         f"[structure]")
    charts = {}
    for nm in names:
        chart = _parse_chart(cp, path, chart_sec=f"chart:{nm}",
                             box_sec=f"box:{nm}", weights_sec=f"weights:{nm}")
        lam = _parse_tensor_comps(cp, f"lambda:{nm}", chart, 2, path)
        e = _parse_tensor_comps(cp, f"e:{nm}", chart, 1, path)
        charts[nm] = JacobiPair(chart, geo.mvf(chart, 2, lam),
                                geo.mvf(chart, 1, e))
    overlaps = []
    ov_secs = sorted(s for s in cp.sections() if s.startswith("overlap:"))
    for sec in ov_secs:
        src = cp.get(sec, "src", fallback="").strip()
        dst = cp.get(sec, "dst", fallback="").strip()
        if src not in charts or dst not in charts:
            raise InputError(f"{path}: [{sec}] src/dst must name charts")
        s_chart, d_chart = charts[src].chart, charts[dst].chart
        fwd, inv, src_box, dst_box = {}, {}, {}, {}
        g = ex.ONE
        for key, val in cp.items(sec):
            if key in ("src", "dst"):
                continue
            if key == "g":
                g = _parse_expr(val, set(s_chart.names), f"{path}: [{sec}] g")
            elif key.startswith("fwd."):
                fwd[key[4:]] = _parse_expr(val, set(s_chart.names),
                                           f"{path}: [{sec}] {key}")
            elif key.startswith("inv."):
                inv[key[4:]] = _parse_expr(val, set(d_chart.names),
                                           f"{path}: [{sec}] {key}")
            elif key.startswith("src_box."):
                src_box[key[8:]] = _parse_interval(val, f"{path}: [{sec}] {key}")
            elif key.startswith("dst_box."):
                dst_box[key[8:]] = _parse_interval(val, f"{path}: [{sec}] {key}")
            else:
                raise InputError(f"{path}: [{sec}] unknown entry '{key}'")
        try:
            overlaps.append(Overlap(src, dst,
                                    SmoothMap(s_chart, d_chart, fwd),
                                    SmoothMap(d_chart, s_chart, inv),
                                    g, src_box, dst_box))
        except AssertionError as err:
            raise InputError(f"{path}: [{sec}] {err}") from err
    return kind, LineBundleAtlas(charts, overlaps)


def parse_field(path) -> dict:
    """Field files: [field] variant/grid/t_extent, [maps], [scale] value,
    [pi] / [z] 1-form components in u, t, optional [fiber] morphism block."""
    cp = _read_ini(path)
    if not cp.has_section("field"):
        raise InputError(f"{path}: missing [field] section")
    variant = cp.get("field", "variant", fallback="homogeneous").strip()
    if variant not in sg.ACTION_VARIANTS:
        raise InputError(f"{path}: variant must be one of "
                         f"{sg.ACTION_VARIANTS}")
    try:
        t_extent = float(cp.get("field", "t_extent", fallback="1.0"))
    except ValueError as err:
        raise InputError(f"{path}: [field] t_extent: {err}") from err
    try:
        sg.source_chart(t_extent)
    except ValueError as err:
        raise InputError(f"{path}: [field] {err}") from err
    grid = cp.get("field", "grid", fallback="").strip() or None
    allowed = {"u", "t"}
    maps = {n: _parse_expr(v, allowed, f"{path}: [maps] {n}")
            for n, v in (cp.items("maps") if cp.has_section("maps") else [])}
    scale = None
    if cp.has_section("scale"):
        scale = _parse_expr(cp.get("scale", "value", fallback="1"),
                            allowed, f"{path}: [scale]")
    pi, fiber = {}, {}
    for sec, store in (("pi", pi), ("fiber", fiber)):
        if not cp.has_section(sec):
            continue
        for key, val in cp.items(sec):
            parts = _split_list(key)
            if len(parts) != 2 or parts[1] not in ("u", "t"):
                raise InputError(f"{path}: [{sec}] {key}: expected "
                                 f"'name, u' or 'name, t'")
            nm, comp = parts
            store.setdefault(nm, {})[comp] = _parse_expr(
                val, allowed, f"{path}: [{sec}] {key}")
    z = {}
    if cp.has_section("z"):
        for comp, val in cp.items("z"):
            if comp not in ("u", "t"):
                raise InputError(f"{path}: [z] component must be u or t")
            z[comp] = _parse_expr(val, allowed, f"{path}: [z] {comp}")
    return {"variant": variant, "t_extent": t_extent, "grid": grid,
            "maps": maps, "scale": scale, "pi": pi, "z": z, "fiber": fiber}


def _forms_from(comp_dict, chart) -> dict:
    out = {}
    for nm, comps in comp_dict.items():
        out[nm] = geo.form(chart, 1,
                           {(c,): v for c, v in comps.items()})
    return out


def field_config(fld: dict) -> sg.FieldConfiguration:
    ch = sg.source_chart(fld["t_extent"])
    z = geo.form(ch, 1, {(c,): v for c, v in fld["z"].items()})
    return sg.FieldConfiguration.build(ch, fld["maps"], s=fld["scale"],
                                       pi=_forms_from(fld["pi"], ch), z=z)


# ------------------------------------------------------------ emission

def _emit_lines(path, lines):
    Path(path).write_text("\n".join(lines) + "\n")


def _chart_lines(chart, *, chart_sec="chart", box_sec="box",
                 weights_sec="weights"):
    out = [f"[{chart_sec}]", "names = " + ", ".join(chart.names)]
    if chart.box:
        out += ["", f"[{box_sec}]"]
        for n in chart.names:
            if n in chart.box:
                lo, hi = chart.box[n]
                out.append(f"{n} = {lo!r}, {hi!r}")
    if chart.weights:
        out += ["", f"[{weights_sec}]"]
        for n in chart.names:
            if chart.weight(n):
                out.append(f"{n} = {chart.weight(n)}")
    return out


def _tensor_lines(sec, T):
    out = [f"[{sec}]"]
    for key in sorted(T.comps):
        names = ", ".join(T.chart.names[i] for i in key)
        out.append(f"{names} = {ex.to_text(T.comps[key])}")
    return out


def emit_poisson(path, chart, P, *, s_name=None, fiber=None):
    head = ["[structure]", "kind = poisson"]
    if s_name:
        head.append(f"s_name = {s_name}")
    lines = head + [""] + _chart_lines(chart) + [""] + _tensor_lines("pi", P)
    if fiber:
        lines += ["", "[fiber]", "names = " + ", ".join(fiber)]
    _emit_lines(path, lines)


def emit_algebroid(path, A: alg.AlgebroidStructure):
    lines = (["[structure]", "kind = algebroid", ""]
             + _chart_lines(A.base)
             + ["", "[generators]", "names = " + ", ".join(A.generators)])
    if A.anchor:
        lines += ["", "[anchor]"]
        for g in A.generators:
            for xn, v in sorted(A.anchor.get(g, {}).items()):
                lines.append(f"{g}, {xn} = {ex.to_text(v)}")
    if A.c:
        lines += ["", "[brackets]"]
        # bracket-convention rows: [gb, ga] = -c y^k
        for (ga, gb), row in sorted(A.c.items()):
            for gk, v in sorted(row.items()):
                lines.append(f"{gb}, {ga}, {gk} = {ex.to_text(ex.neg(v))}")
    _emit_lines(path, lines)


# ------------------------------------------------------------- reports

def _render(report, seconds):
    lines = [f"{report['command']}: " + ("PASS" if report["ok"] else "FAIL")]

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in obj:
                walk(f"{prefix}{k}.", obj[k])
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(f"{prefix}{i}.", v)
        else:
            val = f"{obj:.6g}" if isinstance(obj, float) else obj
            lines.append(f"  {prefix[:-1]} = {val}")

    walk("", report.get("checks", {}))
    st = report["settings"]
    lines.append(f"(seed={st['seed']} tol={st['tol']:g} trials={st['trials']}"
                 + (f" grid={st['grid']}" if st.get("grid") else "")
                 + f"; {seconds:.2f} s)")
    return "\n".join(lines)


def _wv(witness):
    if witness is None:
        return None
    names, val = witness
    return {"triple": list(names), "value": float(val)}


# ------------------------------------------------------------ commands

def cmd_check(args, kw):
    kind, obj = parse_structure(args.structure)
    checks = {}
    if kind == "jacobi" or (kind == "poisson"
                            and not isinstance(obj, HomogeneousPoisson)):
        J = obj if kind == "jacobi" else \
            JacobiPair(obj.chart, obj, geo.mvf(obj.chart, 1, {}))
        jr = jac.jacobi_check(J, **kw)
        checks["jacobi"] = {"ok": bool(jr.ok),
                            "max_residual": float(jr.max_residual),
                            "witness": _wv(jr.witness)}
    elif kind == "poisson":
        checks["poisson_bracket"] = {"ok": bool(obj.poisson_ok(**kw))}
        checks["homogeneity_degree_-1"] = {"ok": bool(obj.homogeneity_ok(**kw))}
    elif kind == "algebroid":
        A = obj.alg if isinstance(obj, alg.RxAlgebroid) else obj
        lie = alg.is_lie(A, **kw)
        entry = {"ok": bool(lie)}
        if not lie:
            w = alg.lie_witness(A, **kw)
            if w is not None:
                label, wform, _ = w
                entry["witness"] = {"label": label,
                                    "max": float(wform.max_abs(
                                        trials=kw["trials"], seed=kw["seed"]))}
        checks["lie"] = entry
        if isinstance(obj, alg.RxAlgebroid):
            checks["scaling"] = {"ok": bool(alg.rx_check(obj, **kw))}
    else:
        ar = jac.atlas_check(obj, **kw)
        checks["atlas"] = {
            "ok": bool(ar.ok),
            "charts": {n: bool(v) for n, v in ar.chart_checks.items()},
            "overlaps": [{"src": oc["src"], "dst": oc["dst"],
                          "roundtrip_ok": bool(oc["roundtrip_ok"]),
                          "g_ok": bool(oc["g_ok"]),
                          "gluing_ok": bool(oc["gluing_ok"]),
                          "gluing_max": float(oc["gluing_max"])}
                         for oc in ar.overlap_checks],
            "chains": [{"via": cc["via"], "ok": bool(cc["ok"])}
                       for cc in ar.chain_checks]}
    ok = _all_ok(checks)
    return {"kind": kind, "checks": checks}, ok


def _all_ok(node) -> bool:
    if isinstance(node, dict):
        vals = [v for k, v in node.items() if k == "ok"]
        sub = all(_all_ok(v) for k, v in node.items() if k != "ok")
        return sub and all(bool(v) for v in vals)
    if isinstance(node, (list, tuple)):
        return all(_all_ok(v) for v in node)
    return True


def _default_out(path, what):
    p = Path(path)
    return str(p.with_name(p.stem + f"-{what}.ini"))


def cmd_derive(args, kw):
    kind, obj = parse_structure(args.structure)
    what = args.what
    out = args.output or _default_out(args.structure, what)
    checks = {}

    if what == "poissonize":
        if kind != "jacobi":
            raise InputError(f"poissonize needs a jacobi structure, "
                             f"got kind={kind}")
        try:
            hp = jac.poissonize(obj)
        except jac.HomogeneousPoissonError as err:
            raise InputError(f"{args.structure}: {err}") from err
        emit_poisson(out, hp.chart, hp.pi, s_name=hp.s_name)
        checks["poisson_bracket"] = {"ok": bool(hp.poisson_ok(**kw))}
        checks["homogeneity_degree_-1"] = {"ok": bool(hp.homogeneity_ok(**kw))}
        k2, re_obj = parse_structure(out)
        dev = geo.max_abs_tensor(re_obj.pi - hp.pi,
                                 trials=kw["trials"], seed=kw["seed"])[0]
        checks["round_trip"] = {"ok": dev <= kw["tol"], "max_dev": float(dev)}
    elif what == "lift":
        if kind != "poisson":
            raise InputError(f"lift needs a poisson structure, got "
                             f"kind={kind}")
        P = obj.pi if isinstance(obj, HomogeneousPoisson) else obj
        lifted = geo.tangent_lift(P)
        fiber = tuple(n + "_dot" for n in P.chart.names)
        emit_poisson(out, lifted.chart, lifted, fiber=fiber)
        k2, re_obj = parse_structure(out)
        dev = geo.max_abs_tensor(re_obj - lifted,
                                 trials=kw["trials"], seed=kw["seed"])[0]
        checks["round_trip"] = {"ok": dev <= kw["tol"], "max_dev": float(dev)}
    elif what == "algebroid":
        if kind != "poisson":
            raise InputError(f"algebroid extraction needs a poisson "
                             f"structure, got kind={kind}")
        P = obj.pi if isinstance(obj, HomogeneousPoisson) else obj
        fiber = getattr(obj, "fiber_hint", None)
        try:
            A = alg.from_linear_bivector(P, fiber_names=fiber, **kw)
        except (alg.LinearityError, AssertionError) as err:
            raise InputError(f"{args.structure}: not a fiberwise-linear "
                             f"bivector ({err})") from err
        emit_algebroid(out, A)
        k2, re_A = parse_structure(out)
        dev = _algebroid_dev(A, re_A, kw)
        checks["round_trip"] = {"ok": dev <= kw["tol"], "max_dev": float(dev)}
        checks["anchor"] = {g: {xn: ex.to_text(v) for xn, v in row.items()}
                            for g, row in A.anchor.items()}
        checks["brackets"] = [f"[{gb}, {ga}] = "
                              + " + ".join(f"({ex.to_text(cv)}) {gk}"
                                           for gk, cv in coeffs.items())
                              for gb, ga, coeffs in A.bracket_table()]
        # informational: extracted brackets need not satisfy d^2 = 0
        checks["lie"] = {"is_lie": bool(alg.is_lie(A, **kw))}
    else:
        raise InputError(f"unknown derive target {what!r}")

    ok = _all_ok(checks)
    return {"kind": kind, "what": what, "emitted": out, "checks": checks}, ok


def _algebroid_dev(A, B, kw) -> float:
    if A.generators != B.generators or A.base.names != B.base.names:
        return math.inf
    box = A.base.sample_box()
    dev = 0.0
    for g in A.generators:
        for xn in A.base.names:
            d = ex.sub(A.anchor.get(g, {}).get(xn, ex.ZERO),
                       B.anchor.get(g, {}).get(xn, ex.ZERO))
            dev = max(dev, ex.max_abs(d, box, trials=kw["trials"],
                                      seed=kw["seed"])[0])
    pairs = set(A.c) | set(B.c)
    for pair in pairs:
        gens = set(A.c.get(pair, {})) | set(B.c.get(pair, {}))
        for gk in gens:
            d = ex.sub(A.c.get(pair, {}).get(gk, ex.ZERO),
                       B.c.get(pair, {}).get(gk, ex.ZERO))
            dev = max(dev, ex.max_abs(d, box, trials=kw["trials"],
                                      seed=kw["seed"])[0])
    return dev


def _grid_error(grid, err) -> str:
    return (f"the field cannot be evaluated on the {grid.nu}x{grid.nt} "
            f"grid: {err}")


def cmd_verify(args, kw):
    kind, obj = parse_structure(args.structure)
    fld = parse_field(args.field)
    variant = args.variant or fld["variant"]
    grid = _parse_grid(args.grid or fld["grid"], fld["t_extent"])
    checks = {}

    if kind in ("jacobi", "poisson"):
        if kind == "jacobi":
            J = obj
        elif isinstance(obj, HomogeneousPoisson):
            J = obj.jacobi_data()
        else:
            J = JacobiPair(obj.chart, obj, geo.mvf(obj.chart, 1, {}))
        F = field_config(fld)
        if variant in ("homogeneous", "reduced"):
            try:
                rep = sg.el_residual(J, F, variant=variant, **kw)
            except ValueError as err:
                raise InputError(str(err)) from err
            checks["el_residual"] = {"ok": bool(rep.ok),
                                     "max_dev": float(rep.max_dev),
                                     "norms": {k: float(v) for k, v
                                               in rep.norms.items()}}
            if grid is not None:
                try:
                    rep_d = sg.el_residual(J, sg.sample_config(F, grid),
                                           variant=variant, **kw)
                except ex.EvaluationError as err:
                    raise InputError(_grid_error(grid, err)) from err
                except ValueError as err:
                    raise InputError(str(err)) from err
                # finite-difference norms are informational (no verdict)
                checks["el_residual_grid"] = {
                    "norms": {k: float(v) for k, v in rep_d.norms.items()},
                    "max": float(rep_d.max_dev)}
        else:
            grid = grid or sg.SurfaceGrid(t_extent=fld["t_extent"])
            try:
                val = sg.action(J, F, "constrained", grid)
            except ex.EvaluationError as err:
                raise InputError(_grid_error(grid, err)) from err
            checks["action"] = {"variant": "constrained", "value": float(val)}
        if variant == "reduced":
            ch = F.chart
            missing = [n for n in J.chart.names if n not in F.x]
            if missing:
                raise InputError(f"[maps] is missing target coordinates "
                                 f"{missing}")
            if F.s is None:
                raise InputError("the reduced constraint needs a [scale] "
                                 "entry")
            ext = J.chart.extend(("s",), box={"s": (0.5, 2.0)},
                                 weights={"s": 1})
            try:
                phi0 = SmoothMap(ch, ext, {**{n: F.x[n] for n in J.chart.names},
                                           "s": F.s})
                d0phi = alg.compute_D0phi(phi0, "s",
                                          trials=kw["trials"], seed=kw["seed"])
            except (ValueError, AssertionError) as err:
                raise InputError(f"D0phi constraint: {err}") from err
            jm = alg.jsharp_morphism(J, SmoothMap(ch, J.chart,
                                                  {n: F.x[n]
                                                   for n in J.chart.names}),
                                     {n: F.pi_form(n) for n in J.chart.names},
                                     F.z)
            okc, dev = alg.morphisms_agree(d0phi, jm, **kw)
            checks["d0phi_constraint"] = {"ok": bool(okc),
                                          "max_dev": float(dev)}
    elif kind == "algebroid":
        R = obj if isinstance(obj, alg.RxAlgebroid) else None
        A = obj.alg if R is not None else obj
        if not fld["fiber"]:
            raise InputError("verifying against an algebroid needs a "
                             "[fiber] block in the field file")
        ch = sg.source_chart(fld["t_extent"])
        TS = alg.tangent_algebroid(ch)
        missing = [n for n in A.base.names if n not in fld["maps"]]
        if missing:
            raise InputError(f"[maps] is missing target coordinates {missing}")
        try:
            phi0 = SmoothMap(ch, A.base,
                             {n: fld["maps"][n] for n in A.base.names})
            fiber = _forms_from(fld["fiber"], ch)
            target = R if R is not None else A
            phi = alg.VBMorphism.build(TS, target, phi0, fiber)
        except AssertionError as err:
            raise InputError(str(err)) from err
        mr = alg.morphism_check(phi, **kw)
        checks["morphism"] = {"ok": bool(mr.ok),
                              "max_dev": float(mr.max_dev)}
        if mr.max_dev > kw["tol"]:
            (slot, label), dev = mr.worst()
            checks["morphism"]["worst"] = {"slot": slot, "label": label,
                                           "dev": float(dev)}
        if R is not None:
            checks["scaling"] = {"ok": bool(alg.rx_check(R, **kw))}
    else:
        raise InputError("verify expects a jacobi, poisson, or algebroid "
                         "structure")

    ok = _all_ok(checks)
    return {"kind": kind, "variant": variant, "checks": checks}, ok


def cmd_example(args, kw):
    try:
        pkg = sg.builtin_example(args.name)
    except ValueError as err:
        raise InputError(str(err)) from err
    checks = pkg.verify(**kw)
    if args.name == "contact-k":
        # constant Reeb pairing along a path inside the chart box: exp(1)
        J = pkg.structure
        u = ex.var("u")
        xpath = {n: ex.sub(ex.mul(ex.num(0.4), u), ex.num(0.2))
                 for n in J.chart.names}
        hol = sg.apath_holonomy(J, xpath, {"x0": ex.ONE})
        checks["holonomy_demo"] = {"value": float(hol),
                                   "expected": math.e,
                                   "ok": abs(hol - math.e) <= 1e-8}
    ok = _all_ok(checks)
    return {"name": args.name, "params": pkg.params, "checks": checks}, ok


# ----------------------------------------------------------- front end

def _parse_grid(text, t_extent=1.0):
    if not text:
        return None
    m = re.fullmatch(r"(\d+)x(\d+)", text.strip())
    if not m:
        raise InputError(f"bad grid spec {text!r}; expected NxM")
    try:
        return sg.SurfaceGrid(int(m.group(1)), int(m.group(2)), t_extent)
    except ValueError as err:
        raise InputError(str(err)) from err


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH",
                        help="also write the report as JSON")
    common.add_argument("--seed", type=lambda s: int(s, 0),
                        default=ex.DEFAULT_SEED)
    common.add_argument("--tol", type=float, default=ex.DEFAULT_TOL)
    common.add_argument("--trials", type=int, default=ex.DEFAULT_TRIALS)
    common.add_argument("--grid", metavar="NxM", default=None)

    p = argparse.ArgumentParser(
        prog="jsm", description="checks and derivations for Jacobi "
                                "structures and their sigma models")
    sub = p.add_subparsers(dest="cmd", required=True)

    pc = sub.add_parser("check", parents=[common],
                        help="run the checks of a structure file")
    pc.add_argument("structure")

    pd = sub.add_parser("derive", parents=[common],
                        help="derive and emit a new structure file")
    pd.add_argument("structure")
    pd.add_argument("--what", required=True,
                    choices=("poissonize", "lift", "algebroid"))
    pd.add_argument("-o", "--output", default=None)

    pv = sub.add_parser("verify", parents=[common],
                        help="check field data against a structure")
    pv.add_argument("structure")
    pv.add_argument("field")
    pv.add_argument("--variant", default=None,
                    choices=sg.ACTION_VARIANTS)

    pe = sub.add_parser("example", parents=[common],
                        help="run a built-in example end to end")
    pe.add_argument("name")
    return p


_DISPATCH = {"check": cmd_check, "derive": cmd_derive,
             "verify": cmd_verify, "example": cmd_example}


def _check_settings(args):
    """Reject sampling settings under which a check could not fail."""
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise InputError(f"--tol must be finite and not negative, "
                         f"got {args.tol}")


def _guard_message(err: ex.EvaluationError) -> str:
    """An input expression tripped an evaluation guard at a sample point:
    name the guard and the point."""
    msg = f"an input cannot be evaluated: {err}"
    point = err.point or {}
    if point and all(isinstance(v, (int, float)) for v in point.values()):
        msg += " at the sample point " + ", ".join(
            f"{k} = {v!r}" for k, v in point.items())
    return msg


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    kw = dict(tol=args.tol, trials=args.trials, seed=args.seed)
    t0 = time.perf_counter()
    try:
        _check_settings(args)
        body, ok = _DISPATCH[args.cmd](args, kw)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ex.EvaluationError as err:
        print(f"error: {_guard_message(err)}", file=sys.stderr)
        return 2
    seconds = time.perf_counter() - t0
    report = {"command": args.cmd, "ok": bool(ok),
              "settings": {"seed": args.seed, "tol": args.tol,
                           "trials": args.trials,
                           "grid": args.grid}}
    report.update(body)
    print(_render(report, seconds))
    if args.json:
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            Path(args.json).write_text(payload)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
