"""Print digests of verdicts and reports, to diff one checkout against another.

A change that should not move any output (a speed-up, a refactor) runs this
in both checkouts with the same arguments and diffs the two outputs.  It
prints:

* for the first K ops of a benchmark workload's op pool (written by
  `perfbench/gen.py` from `--seed` into a temporary directory), one line per
  op kind: the op count and a sha256 over each op's verdict and payload
  digest, as `perfbench/ops.py` computes them (or the error an op raised);
* one line per CLI report in a fixed list (`check` on every shipped
  structure, on contact-k1 with 4096 trials and on moebius-atlas with 600,
  every built-in example, `derive` of the Poissonization of contact-k1,
  of the tangent lift of
  almost-poisson and of the algebroid of that lift, `verify` plain, on a
  grid, on a grid of several row blocks in the homogeneous and the
  constrained variant, and with the reduced variant, and `verify` of the
  a10 algebroid morphism): the exit code and the sha256 of the `--json`
  report, and for a `derive` the sha256 of the file it writes.  Each runs
  as its own cold `python -m jacobisigma.cli` process, so that it samples
  as a user's command does: a process that has not loaded numpy samples
  trees without exp or log on columns of Python floats (the exp cases,
  `example contact-k` and `verify` with a grid, keep the array pass);
* one line per run of the grid scripts (`convergence_study.py` in both
  variants, `holonomy_sweep.py`), which exercise grid code that no CLI case
  covers: the sha256 of what the script prints;
* with --trees, for the ops among the first K that carry a Jacobi pair,
  one line per op kind: the op count and a sha256 over the `repr` of the
  trees the program builds from the pair (its `_jacobiators`, the
  Schouten residuals of `jacobi_check` and the components of
  `poissonize(J).pi`, each tensor in its component order).  Verdicts can
  agree while trees differ; these lines show whether the trees do;
* with --halton, one line per Halton sample set of a fixed list, built
  from empty caches in an order that grows one seed's radical-inverse rows,
  reuses them for narrower boxes and moves to other trials and seeds: the
  sha256 of its columns and of the point dicts `halton_points` returns for
  it, every float by its exact bits and every dict in its key order;
* with --arrays, for the grid_fd ops among the first K, one line per op
  kind: the op count and a sha256 over the sha256 of every node array the
  op computes (each residual array of an `el_conv` op, the density an
  `action_*` op integrates, the transport defect rows of an `apath*`
  op), every float by its exact bits after `+ 0.0`, which makes every
  zero +0.0.  Equal lines mean that no array value moved, up to the sign
  of a zero entry, which no norm or quadrature reads.

The program is imported from this checkout's `src/`, whatever PYTHONPATH
says; `perfbench/` is used read-only.

Usage:
    python scripts/verdict_digests.py [--workload verdict_symbolic]
                                      [--seed 5] [--ops 300] [--trees]
                                      [--halton] [--arrays]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import ops as O  # noqa: E402
from jacobisigma import expr as ex  # noqa: E402
from jacobisigma import jacobi as jac  # noqa: E402
from jacobisigma import sigma as sg  # noqa: E402

WORKLOADS = ("verdict_symbolic", "verdict_sampled", "grid_fd")
SCRIPT_RUNS = (("convergence_study.py",),
               ("convergence_study.py", "--variant", "reduced"),
               ("holonomy_sweep.py",))


def cli_cases():
    """[(label, argv)] of the fixed CLI report list, paths from the root; a
    `derive` writes its file in the directory the case runs in."""
    cases = [(f"check {p.name}", ["check", str(p)])
             for p in sorted((ROOT / "structures").glob("*.ini"))]
    # 4096 trials: a sample set as large as a grid block, on which the cold
    # process makes its column pass over Python floats
    cases += [("check contact-k1.ini --trials 4096",
               ["check", str(ROOT / "structures/contact-k1.ini"),
                "--trials", "4096"]),
              # the atlas chain checks' column pass on a larger sample set
              ("check moebius-atlas.ini --trials 600",
               ["check", str(ROOT / "structures/moebius-atlas.ini"),
                "--trials", "600"])]
    cases += [(f"example {n}", ["example", n]) for n in sg.BUILTIN_EXAMPLES]
    cases += [("derive contact-k1 --what poissonize",
               ["derive", str(ROOT / "structures/contact-k1.ini"), "--what",
                "poissonize", "-o", "poissonized.ini"]),
              ("derive almost-poisson --what lift",
               ["derive", str(ROOT / "structures/almost-poisson.ini"),
                "--what", "lift", "-o", "lift.ini"]),
              ("derive lift --what algebroid",
               ["derive", "lift.ini", "--what", "algebroid",
                "-o", "algebroid.ini"])]
    contact = [str(ROOT / "structures/contact-k1.ini"),
               str(ROOT / "fields/contact-k1-solution.ini")]
    cases += [("verify contact-k1", ["verify", *contact]),
              ("verify contact-k1 --grid 33x33",
               ["verify", *contact, "--grid", "33x33"]),
              # sides neither equal nor 2^k + 1, over three row blocks
              ("verify contact-k1 --grid 451x233",
               ["verify", *contact, "--grid", "451x233"]),
              ("verify constrained --grid 451x233",
               ["verify", *contact, "--variant", "constrained",
                "--grid", "451x233"]),
              ("verify moebius --variant reduced",
               ["verify", str(ROOT / "structures/moebius.ini"),
                str(ROOT / "fields/moebius-null.ini"), "--variant", "reduced"]),
              ("verify a10-algebroid family1",
               ["verify", str(ROOT / "structures/a10-algebroid.ini"),
                str(ROOT / "fields/family1.ini")])]
    return cases


def _pool(workload, seed, count, tmp):
    """The first `count` ops of the pool of (workload, seed)."""
    gen.generate(workload, seed, tmp)
    with open(Path(tmp) / "ops.jsonl") as fh:
        return [json.loads(text) for _, text in zip(range(count), fh)]


def _by_kind(pool, line):
    """{kind: (ops, sha256)} over line(op) for each op of the pool with a
    line; an op that raises contributes the error it raised."""
    lines = OrderedDict()
    for op in pool:
        try:
            text = line(op)
        except Exception as exc:   # a raising op is part of the output
            text = f"raised {type(exc).__name__}: {exc}"
        if text is not None:
            lines.setdefault(op["kind"], []).append(f"{op['i']} {text}")
    return {kind: (len(ls), hashlib.sha256("\n".join(ls).encode()).hexdigest())
            for kind, ls in lines.items()}


def op_digests(workload, pool):
    """{kind: (ops, sha256)} over the verdicts and payloads of the ops."""
    ctx = O.make_ctx(workload)

    def line(op):
        verdict, payload = O.summarize(op, O.prepare(op, ctx)())
        return f"{verdict!r} {O.digest(payload)}"
    return _by_kind(pool, line)


def tree_digests(pool):
    """{kind: (ops, sha256)} over the trees built from the Jacobi pair of
    each op that has one."""
    def line(op):
        if "lam" not in op:
            return None
        J = O._pair(op)
        rep = jac.jacobi_check(J, seed=op["sseed"])
        return repr((list(jac._jacobiators(J)),
                     list(rep.res_e_lam.comps.items()),
                     list(rep.res_lam_lam.comps.items()),
                     list(jac.poissonize(J).pi.comps.items())))
    return _by_kind(pool, line)


def array_sha(a):
    """sha256 of a node array: its shape, then every float by its exact
    bits after + 0.0, so -0.0 and +0.0 give the same digest."""
    a = np.asarray(a, float) + 0.0
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _node_array(a, shape):
    """A grid backend result as an array: a checkout may keep an all-zero
    result as a marker object, or as the 0 a sum starts from."""
    return a if isinstance(a, np.ndarray) else np.zeros(shape)


def grid_arrays(op, ctx):
    """[(label, array)] of the node arrays a grid_fd op computes, or None
    for an op that computes none (holonomy, rk4).  The arrays are those of
    `perfbench/ops.py`'s call: the residual arrays of both grids of an
    `el_conv` op, the density an `action_*` op integrates, and the
    transport rows of an `apath*` op after `apath_check` ran on it."""
    kind, J = op["kind"], ctx["J"]
    if kind == "el_conv":
        F = O._contact_field(op, ctx, reduced=op["variant"] == "reduced")
        out = []
        for n in (op["n"], 2 * op["n"] - 1):
            rep = sg.el_residual(J, sg.sample_config(F, sg.SurfaceGrid(n, n)),
                                 variant=op["variant"])
            out += [(f"{n}:{k}", v) for k, v in sorted(rep.residuals.items())]
        return out
    if kind.startswith("action_"):
        F = O._action_field(op, ctx, hom=op["variant"] == "homogeneous")
        grid = sg.SurfaceGrid(op["n"], op["n"])
        if kind == "action_sym":
            dens = sg._action_density(J, F, op["variant"])
            return [("density", sg._grid_eval(dens.component("u", "t"), grid))]
        f = sg._sampled_fields(J, sg.sample_config(F, grid))
        return [("density", _node_array(sg._density(J, f, op["variant"]),
                                        (grid.nu, grid.nt)))]
    if kind.startswith("apath"):
        names = ("x0", "x1", "x2")
        path = sg.APath(x={n: O._p(v) for n, v in zip(names, op["x"])},
                        pi={n: O._p(v) for n, v in zip(names, op["pi"])},
                        s=O._p(op["s"]), z=O._p(op["z"]), n=op["n"])
        sg.apath_check(J, path)
        u = np.linspace(0.0, 1.0, path.n)
        f = sg._grid_fields(
            {n: sg._on_nodes(path.x[n], u) for n in names},
            sg._on_nodes(path.s, u),
            {n: (sg._on_nodes(path.pi.get(n, 0), u),) for n in names},
            (sg._on_nodes(path.z, u),), u)
        return [(k, _node_array(r, u.shape))
                for k, (r,) in sorted(sg._transport(J, f, red=False).items())]
    return None


def array_digests(pool):
    """{kind: (ops, sha256)} over the node arrays of each grid_fd op."""
    ctx = O.make_ctx("grid_fd")

    def line(op):
        arrays = grid_arrays(op, ctx)
        if arrays is None:
            return None
        return " ".join(f"{label}={array_sha(a)}" for label, a in arrays)
    return _by_kind(pool, line)


# (coordinates, trials, seed) in build order: seed 7's rows are built for
# 3 coordinates, grown to 8 and 24, reused for 2 and 1, then other trials
# and seeds, a box wider than a cache entry, and a box of no coordinates
HALTON_SETS = ((3, 64, 7), (8, 64, 7), (2, 64, 7), (24, 64, 7), (1, 64, 7),
               (24, 16, 7), (5, 64, 8), (40, 100, 12345), (5, 64, 7),
               (2, 4097, 3), (0, 4, 7))


def halton_box(k):
    """k coordinates with int, fraction and float bounds, inserted in an
    order that differs from the sorted one."""
    bounds = ((-1, 2), (Fraction(1, 3), Fraction(5, 2)), (-0.75, 0.5))
    return {f"c{i}": bounds[i % 3] for i in reversed(range(k))}


def _exact(v):
    """v by its exact bits: floats as hex, dicts as (key, value) in order."""
    if isinstance(v, dict):
        return [(k, _exact(u)) for k, u in v.items()]
    if isinstance(v, list):
        return [_exact(u) for u in v]
    return v.hex()


def _columns(box, trials, seed):
    """The columns `_halton_set` keeps for the sample set; a checkout whose
    `_halton_set` returns (points, columns) gives its second item."""
    cols = ex._halton_set(box, trials, seed)
    return cols[1] if isinstance(cols, tuple) else cols


def halton_digests():
    """[(label, columns sha256, halton_points sha256)] over HALTON_SETS,
    built from empty caches."""
    ex._HALTON_CACHE.clear()
    getattr(ex, "_HALTON_ROWS", {}).clear()
    out = []
    for k, trials, seed in HALTON_SETS:
        box = halton_box(k)
        cols = _columns(box, trials, seed)
        parts = ([(n, _exact(c.tolist())) for n, c in cols.items()],
                 _exact(ex.halton_points(box, trials, seed)))
        out.append((f"{k} coords, {trials} trials, seed {seed}",
                    *(hashlib.sha256(repr(p).encode()).hexdigest()
                      for p in parts)))
    return out


def _file_sha(path):
    """sha256 of a file's bytes, or '-' if there is none."""
    path = Path(path)
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() \
        else "-"


def report_digest(argv, tmp):
    """(exit code, sha256 of the --json report, and of the -o file of a
    `derive`; '-' for a file that was not written), from a cold `jsm` run
    in tmp, so that a report names the file it wrote as argv does."""
    out = Path(tmp) / "report.json"
    out.unlink(missing_ok=True)
    code = subprocess.run([sys.executable, "-m", "jacobisigma.cli", *argv,
                           "--json", str(out)], cwd=tmp,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True).returncode
    digests = [_file_sha(out)]
    if "-o" in argv:
        digests.append(_file_sha(Path(tmp) / argv[argv.index("-o") + 1]))
    return code, " ".join(digests)


def script_digest(argv):
    """sha256 of the stdout of scripts/<argv[0]> run with argv[1:]."""
    out, saved = io.StringIO(), sys.argv
    sys.argv = [str(ROOT / "scripts" / argv[0]), *argv[1:]]
    try:
        with contextlib.redirect_stdout(out):
            runpy.run_path(sys.argv[0], run_name="__main__")
    finally:
        sys.argv = saved
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="verdict_symbolic", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--ops", type=int, default=300,
                    help="digest the first K ops of the pool")
    ap.add_argument("--trees", action="store_true",
                    help="also digest the trees built from each op's "
                         "Jacobi pair")
    ap.add_argument("--halton", action="store_true",
                    help="also digest a fixed list of Halton sample sets")
    ap.add_argument("--arrays", action="store_true",
                    help="also digest the node arrays of each grid_fd op "
                         "(needs --workload grid_fd)")
    args = ap.parse_args()
    if args.arrays and args.workload != "grid_fd":
        ap.error("--arrays digests grid_fd ops; add --workload grid_fd")

    with tempfile.TemporaryDirectory() as tmp:
        print(f"# {args.workload} seed {args.seed}, first {args.ops} ops")
        pool = _pool(args.workload, args.seed, args.ops, tmp)
        for kind, (n, digest) in op_digests(args.workload, pool).items():
            print(f"{kind:<28} {n:>4}  {digest}")
        if args.trees:
            print("# trees of the Jacobi pairs: ops, sha256")
            for kind, (n, digest) in tree_digests(pool).items():
                print(f"{kind:<28} {n:>4}  {digest}")
        if args.halton:
            print("# Halton sets: sha256 of columns, halton_points")
            for label, *digests in halton_digests():
                print(f"{label:<34} {' '.join(digests)}")
        if args.arrays:
            print("# node arrays of the grid ops, zeros as +0.0: ops, sha256")
            for kind, (n, digest) in array_digests(pool).items():
                print(f"{kind:<28} {n:>4}  {digest}")
        print("# CLI --json reports: exit code, sha256 (and of a derive's "
              "file), each from a cold jsm")
        for label, argv in cli_cases():
            code, digest = report_digest(argv, tmp)
            print(f"{label:<40} {code}  {digest}")
        print("# grid scripts: sha256 of stdout")
        for argv in SCRIPT_RUNS:
            print(f"{' '.join(argv):<40}    {script_digest(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
