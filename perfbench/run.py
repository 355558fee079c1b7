"""Time-to-verdict benchmark of jacobisigma.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src and
nothing is installed.  Workloads (see BENCHMARK.json for why each exists):

  cli_cold          one op = one `python -m jacobisigma.cli ... --json` process
  verdict_symbolic  jacobi_check / poissonize on sheared pairs of dim 3-9
  verdict_sampled   sampled checks with little construction
  grid_fd           finite-difference residuals, actions, path transport

Inputs come from perfbench/gen.py, seeded by --seed, and are written before
any workload process starts.  Each op's verdict is checked against the
known-answer table in known.KNOWN.

--trace 0 prints the end-to-end metrics, measured untraced: set-up time (the
median of three fresh interpreters), median and tail latency, throughput,
the share of ops with the known answer and peak RSS.  Times are CPU seconds
of the process doing the work, scaled to a reference machine speed by
calibration loops run between ops (calib.py), so that other tenants of a
shared machine do not show up as latency; the report also prints raw CPU
and wall-clock figures.  --trace 1 runs the same
seed traced, replays the same ops untraced in a fresh process, checks that
every verdict and digest agrees, and prints the per-layer metrics.  The last
line of stdout is one JSON object; the lines above it are the readable
report, with the environment block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gen  # noqa: E402
import importtime  # noqa: E402

SETUP_RUNS = 3      # set-ups per run, the main workload process included
RUN_LIMIT_S = 170   # the whole run, set-ups, repeats and replays included
_DEADLINE = time.monotonic() + RUN_LIMIT_S


def remaining():
    """Seconds left before the run's deadline (at least one)."""
    return max(1.0, _DEADLINE - time.monotonic())

# Where the tail percentile sits, in kinds' worth of samples above it: a
# run is whole passes of K kinds that return a verdict (gen.verdict_kinds),
# so with a count ending in .5 the percentile falls in the middle of one
# kind's samples rather than on the gap between two kinds.  The counts leave
# at least ten samples beyond the tail in a 15-second run of the seed commit
# on a 2-core Xeon, also when other tenants slow it by a third (cli_cold 2
# passes, verdict_symbolic 3-5, verdict_sampled 22-30, grid_fd 25-35); each
# run prints the count.
TAIL_KINDS_ABOVE = {"cli_cold": 5.5, "verdict_symbolic": 3.5,
                    "verdict_sampled": 0.5, "grid_fd": 0.5}


def tail_pct(workload):
    k = gen.verdict_kinds(workload)
    return 100 * (k - TAIL_KINDS_ABOVE[workload]) / k


E2E = (("setup_s", "s"), ("latency_p50_s", "s"), ("latency_tail_s", "s"),
       ("throughput_ops_s", "1/s"), ("ok_ratio", "ratio"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("cli.import_s", "s"), ("cli.import_scipy_s", "s"), ("cli.inproc_s", "s"),
    ("cli.parse_s", "s"), ("cli.emit_s", "s"), ("cli.interp_overhead_s", "s"),
    ("expr.construct.calls", "count"), ("expr.construct.self_s", "s"),
    ("expr.differentiate.calls", "count"), ("expr.differentiate.self_s", "s"),
    ("expr.substitute.calls", "count"), ("expr.substitute.self_s", "s"),
    ("expr.sample.calls", "count"), ("expr.sample.points", "count"),
    ("expr.sample.self_s", "s"), ("expr.halton.self_s", "s"),
    ("expr.evaluate.scalar_calls", "count"), ("expr.evaluate.array_calls", "count"),
    ("expr.evaluate.self_s", "s"), ("expr.evaluate.guard_trips", "count"),
    ("expr.parse.calls", "count"), ("expr.parse.self_s", "s"),
    ("geometry.schouten.calls", "count"), ("geometry.schouten.self_s", "s"),
    ("geometry.calculus.calls", "count"), ("geometry.calculus.self_s", "s"),
    ("geometry.transport.calls", "count"), ("geometry.transport.self_s", "s"),
    ("jacobi.bracket.calls", "count"), ("jacobi.bracket.self_s", "s"),
    ("jacobi.bracket.distinct_ratio", "ratio"), ("jacobi.atlas_check.self_s", "s"),
    ("algebroid.d.self_s", "s"), ("algebroid.extract.self_s", "s"),
    ("algebroid.morphism.self_s", "s"),
    ("sigma.symbolic.self_s", "s"), ("sigma.grid.self_s", "s"),
    ("sigma.grid.nodes", "count"), ("trace.overhead_ratio", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ------------------------------------------------------------- processes

def child_env(root):
    """The program's environment: ./src on the path, and bytecode caching on
    as in an installed package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn_worker(root, work, workload, tag, extra, importtime_on=False):
    """Start a worker, wait for READY; returns ((set-up CPU seconds scaled to
    the reference speed, set-up wall seconds), result or None, stderr)."""
    out = work / f"{tag}.json"
    err_path = work / f"{tag}.stderr"
    cmd = [sys.executable] + (["-X", "importtime"] if importtime_on else []) + [
        str(HERE / "worker.py"), "--workload", workload,
        "--inputs", str(work / "inputs"), "--out", str(out)] + extra
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                                stdout=subprocess.PIPE, stderr=err, text=True,
                                start_new_session=True)
        try:
            line = ""
            if select.select([proc.stdout], [], [], remaining())[0]:
                line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            proc.wait(timeout=remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag}: worker timed out")
        finally:
            proc.stdout.close()
            if proc.poll() is None:     # the worker and any CLI child
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    stderr = err_path.read_text()
    if not line.startswith("READY ") or proc.returncode != 0:
        raise BenchError(f"{tag}: worker failed (exit {proc.returncode}): "
                         f"{stderr.strip()[-600:]}")
    result = json.loads(out.read_text()) if out.exists() else None
    _, cpu, cal = line.split(" ", 2)
    return (float(cpu) / calib.slowness(json.loads(cal), "setup"), setup), \
        result, stderr


def start_import_breakdown(root):
    """Start `import jacobisigma.cli` under `-X importtime`; nothing is timed
    while it runs, so it overlaps input generation."""
    return subprocess.Popen([sys.executable, "-X", "importtime", "-c",
                             "import jacobisigma.cli"], cwd=root,
                            env=child_env(root), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)


def import_breakdown(proc):
    """Import seconds per package, from a process of start_import_breakdown."""
    _, err = proc.communicate(timeout=remaining())
    if proc.returncode != 0:
        raise BenchError(f"cannot import jacobisigma: {err[-400:]}")
    return importtime.breakdown(err)


def repeat_cli(root, work, records):
    """Re-run every timed CLI op once, untimed, in one fresh interpreter
    (clirepeat.py); returns the op indices whose exit code or JSON report
    differs from the timed run's."""
    ops = {}
    with open(work / "inputs" / "ops.jsonl") as fh:
        for line in fh:
            op = json.loads(line)
            ops[op["i"]] = op
            if len(ops) >= len(records):
                break
    args = [ops[r["i"]]["args"] + ["--json", ops[r["i"]]["json"] + ".repeat"]
            for r in records]
    (work / "repeat.json").write_text(json.dumps(args))
    proc = subprocess.run([sys.executable, str(HERE / "clirepeat.py"),
                           str(work / "repeat.json")], cwd=root,
                          env=child_env(root), capture_output=True, text=True,
                          timeout=remaining())
    if proc.returncode != 0:
        raise BenchError(f"repeat run failed: {proc.stderr.strip()[-400:]}")
    codes = json.loads(proc.stdout.strip().splitlines()[-1])
    changed = set()
    for rec, code in zip(records, codes):
        path = root / (ops[rec["i"]]["json"] + ".repeat")
        blob = path.read_bytes() if path.exists() else b""
        if code != rec["exit"] or hashlib.sha256(blob).hexdigest()[:16] != rec["digest"]:
            changed.add(rec["i"])
    return changed


# --------------------------------------------------------------- metrics

def percentile(values, pct):
    """Nearest-rank percentile."""
    vals = sorted(values)
    k = max(1, math.ceil(pct / 100 * len(vals)))
    return vals[k - 1]


def judge_records(records, mismatched=()):
    """Count failures; `correct` is False when any failure is not a known
    defect (a wrong verdict, an unexpected error, a report that changed)."""
    failed, unexpected = [], []
    for r in records:
        bad = r["status"] != "ok" or r["i"] in mismatched
        if bad:
            failed.append(r)
            if not (r.get("defect") and r["status"] == "error"):
                unexpected.append(r)
    return failed, unexpected


def e2e_metrics(workload, setups, result, failed):
    """Times are CPU seconds of the work (the workload process, or the CLI
    child) at the reference machine speed (see calib.py)."""
    recs = result["records"]
    scaled = calib.scale_ops(recs, result["calib"], workload)
    speed = 1 / calib.slowness(result["calib"], workload)
    done = [v for v, r in zip(scaled, recs) if r["status"] != "error"]
    if not done:
        raise BenchError("no op produced a verdict")
    ok = len(recs) - len(failed)
    tail = tail_pct(workload)
    beyond = sum(1 for v in done if v > percentile(done, tail))
    return {
        "setup_s": statistics.median(c for c, _ in setups),
        "latency_p50_s": percentile(done, 50),
        "latency_tail_s": percentile(done, tail),
        "throughput_ops_s": ok / sum(scaled),
        "ok_ratio": ok / len(recs),
        "peak_rss_mb": result["peak_rss_mb"],
    }, {"tail_pct": round(tail, 2), "samples_beyond_tail": beyond,
        "latency_samples": len(done), "speed_factor": round(speed, 4),
        "raw_cpu_p50_s": round(percentile([r["cpu"] for r in recs
                                           if r["status"] != "error"], 50), 6),
        "wall_p50_s": round(percentile([r["wall"] for r in recs
                                        if r["status"] != "error"], 50), 6),
        "setup_cpu_wall_s": [(round(c, 4), round(w, 4)) for c, w in setups]}


def per_layer_metrics(workload, traced, replay, cli_import):
    """Per-op means of the traced run's layer totals, plus the cli group."""
    recs = traced["records"]
    n = len(recs)
    if workload == "cli_cold":
        trs = [r["trace"] for r in recs if "trace" in r]
        if not trs:
            raise BenchError("no traced CLI op wrote its trace")
        self_s, calls, counts = {}, {}, {}
        for t in trs:
            for src, dst in ((t["trace"]["self_s"], self_s),
                             (t["trace"]["calls"], calls),
                             (t["trace"]["counts"], counts)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
        med = lambda key: statistics.median(t[key] for t in trs)  # noqa: E731
        cli = {"cli.import_s": med("import_s"),
               "cli.import_scipy_s": med("import_scipy_s"),
               "cli.inproc_s": med("inproc_s"), "cli.parse_s": med("parse_s"),
               "cli.emit_s": med("emit_s"),
               "cli.interp_overhead_s": med("interp_overhead_s")}
    else:
        tr = traced["trace"]
        self_s, calls, counts = tr["self_s"], tr["calls"], tr["counts"]
        cli = {"cli.import_s": traced["import_s"], "cli.import_scipy_s": cli_import,
               "cli.inproc_s": 0.0, "cli.parse_s": 0.0, "cli.emit_s": 0.0,
               "cli.interp_overhead_s": 0.0}
    per_op = lambda d, k: d.get(k, 0) / n  # noqa: E731
    out = dict(cli)
    for layer in ("expr.construct", "expr.differentiate", "expr.substitute",
                  "expr.parse", "geometry.schouten", "geometry.calculus",
                  "geometry.transport", "jacobi.bracket"):
        out[f"{layer}.calls"] = per_op(calls, layer)
        out[f"{layer}.self_s"] = per_op(self_s, layer)
    out["expr.sample.calls"] = per_op(calls, "expr.sample")
    out["expr.sample.points"] = per_op(counts, "sample.points")
    out["expr.sample.self_s"] = per_op(self_s, "expr.sample")
    out["expr.halton.self_s"] = per_op(self_s, "expr.halton")
    out["expr.evaluate.scalar_calls"] = per_op(counts, "evaluate.scalar")
    out["expr.evaluate.array_calls"] = per_op(counts, "evaluate.array")
    out["expr.evaluate.self_s"] = per_op(self_s, "expr.evaluate")
    out["expr.evaluate.guard_trips"] = per_op(counts, "evaluate.guard_trips")
    bc = calls.get("jacobi.bracket", 0)
    out["jacobi.bracket.distinct_ratio"] = counts.get("bracket.distinct", 0) / bc if bc else 0.0
    for layer in ("jacobi.atlas_check", "algebroid.d", "algebroid.extract",
                  "algebroid.morphism", "sigma.symbolic", "sigma.grid"):
        out[f"{layer}.self_s"] = per_op(self_s, layer)
    out["sigma.grid.nodes"] = per_op(counts, "grid.nodes")
    out["trace.overhead_ratio"] = (
        sum(calib.scale_ops(recs, traced["calib"], workload, key="wall"))
        / sum(calib.scale_ops(replay["records"], replay["calib"], workload,
                              key="wall")))
    return out


# ------------------------------------------------------------------ runs

def run_untraced(root, work, workload, seconds):
    setups = []
    for k in range(SETUP_RUNS - 1):
        s, _, _ = spawn_worker(root, work, workload, f"setup{k}", ["--setup-only"])
        setups.append(s)
    s, result, _ = spawn_worker(root, work, workload, "main",
                                ["--seconds", str(seconds)])
    setups.append(s)
    mismatched = set()
    if workload == "cli_cold":
        mismatched = repeat_cli(root, work, result["records"])
    failed, unexpected = judge_records(result["records"], mismatched)
    metrics, notes = e2e_metrics(workload, setups, result, failed)
    notes["changed_reports"] = sorted(mismatched)
    return result, failed, unexpected, metrics, notes


def run_traced(root, work, workload, seconds):
    _, traced, stderr = spawn_worker(root, work, workload, "traced",
                                     ["--seconds", str(seconds), "--trace"],
                                     importtime_on=workload != "cli_cold")
    n = len(traced["records"])
    _, replay, _ = spawn_worker(root, work, workload, "replay",
                                ["--count", str(n)])
    if len(replay["records"]) != n:
        raise BenchError("the untraced replay ran a different number of ops")
    diff = {r["i"] for r, q in zip(traced["records"], replay["records"])
            if (r["status"], r.get("verdict"), r.get("digest"))
            != (q["status"], q.get("verdict"), q.get("digest"))}
    failed, unexpected = judge_records(traced["records"], diff)
    metrics = per_layer_metrics(workload, traced, replay,
                                importtime.scipy_seconds(stderr))
    notes = {"traced_ops": n, "transparency_mismatches": sorted(diff)}
    spans = work / "traced.spans.npz"
    if spans.exists():
        keep = root / ".perfbench_work" / f"spans-{workload}.npz"
        shutil.copyfile(spans, keep)
        notes["spans_file"] = str(keep.relative_to(root))
    return traced, failed, unexpected, metrics, notes


# ---------------------------------------------------------------- report

def environment(imports):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "sympy": version("sympy"),
            "nproc": len(os.sched_getaffinity(0)),
            "import_s": {k: round(v, 4) for k, v in
                         sorted(import_breakdown(imports).items(),
                                key=lambda kv: -kv[1])[:8]}}


def report(args, env, result, failed, metrics, units, notes):
    recs = result["records"]
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
             f"  trace {args.trace}",
             "environment " + json.dumps(env, sort_keys=True),
             f"ops {len(recs)}  loop {result['loop_s']:.2f} s  failed {len(failed)}"
             f"  fail_ratio {len(failed) / len(recs):.4f}"]
    kinds = {}
    for r in recs:
        k = kinds.setdefault(r["kind"], [0, 0, 0.0])
        k[0] += 1
        k[1] += r["status"] != "ok"
        k[2] += r["cpu"]
    for kind, (cnt, bad, tot) in sorted(kinds.items()):
        lines.append(f"  {kind:<28} ops {cnt:5d}  failed {bad:4d}  mean cpu {tot / cnt:.4f} s")
    for r in failed[:10]:
        lines.append(f"  failed op {r['i']} {r['kind']}: {r['status']}"
                     f"{' (known defect)' if r.get('defect') else ''}"
                     f" {r.get('error', r.get('verdict', ''))}"[:200])
    for k, v in notes.items():
        lines.append(f"note {k} = {v}")
    for name, unit in units:
        lines.append(f"{name:34s} {metrics[name]:.6g} {unit}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "jacobisigma" / "__init__.py").is_file():
        print("error: run from the root of a jacobisigma checkout "
              "(src/jacobisigma not found)", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    imports = start_import_breakdown(root)
    try:
        gen.generate(args.workload, args.seed, work / "inputs",
                     work_rel=str((work / "inputs").relative_to(root)))
        env = environment(imports)
        if args.trace:
            result, failed, unexpected, metrics, notes = run_traced(
                root, work, args.workload, args.seconds)
            units = PER_LAYER
        else:
            result, failed, unexpected, metrics, notes = run_untraced(
                root, work, args.workload, args.seconds)
            units = E2E
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if imports.poll() is None:
            imports.kill()
            imports.communicate()
        shutil.rmtree(work, ignore_errors=True)
    for line in report(args, env, result, failed, metrics, units, notes):
        print(line)
    final = {"correct": not unexpected,
             "attempted": len(result["records"]), "failed": len(failed),
             "metrics": {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
