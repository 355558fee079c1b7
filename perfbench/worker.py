"""One workload process: set up, signal READY, run ops, write results.

    python3 perfbench/worker.py --workload W --inputs DIR --out FILE
        [--seconds S | --count N] [--trace] [--setup-only]

Run from the root of a checkout; the program is imported from ./src.  Once
set-up (imports, shared construction and warm-up) is done, the process
prints `READY <set-up CPU seconds> <calibration samples>` on stdout, then
runs a closed loop with one client.  Each op records its CPU time (this
process, or the CLI child) and its wall time.  The loop stops at the first
pass boundary after `--seconds`, so every run measures whole passes of the
mix.
`--count N` runs exactly the first N ops instead (the untraced replay of a
traced run).  Results go to --out as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _ready(cpu, first, program_sympy=False):
    """Report the set-up's CPU seconds and three calibration samples: `first`,
    taken when the interpreter started, and two taken right after set-up.
    SymPy (the generator's algebra) must not be in the process unless the
    program imported it itself."""
    if "sympy" in sys.modules and not program_sympy:
        sys.exit("the benchmark imported SymPy into the workload process")
    cal = [first] + [calib.sample() for _ in range(2)]
    print(f"READY {cpu!r} {json.dumps(cal)}", flush=True)


def _read_ops(path):
    with open(path) as fh:
        for line in fh:
            yield json.loads(line)


def _stop(args, n_done, elapsed, op, nxt):
    if args.count is not None:
        return n_done >= args.count
    if elapsed < args.seconds:
        return False
    return nxt is None or nxt["pass"] != op["pass"]


def _loop(args, run_one):
    """Closed loop over the op pool; returns (records, loop seconds,
    calibration samples).  Calibration runs between ops, untimed, whenever
    0.1 s have passed since the last sample; each record's `cal` is the
    index of the first sample taken after it.  Running out of ops before
    `--seconds` is an error: the run would be shorter than asked for."""
    records, samples = [], [calib.sample()]
    ops = _read_ops(Path(args.inputs) / "ops.jsonl")
    op = next(ops, None)
    t0 = last = time.perf_counter()
    pending = []
    while op is not None:
        if args.count is not None and len(records) >= args.count:
            break
        rec = run_one(op)
        records.append(rec)
        pending.append(rec)
        if time.perf_counter() - last >= 0.1:
            for r in pending:
                r["cal"] = len(samples)
            pending = []
            samples.append(calib.sample())
            last = time.perf_counter()
        nxt = next(ops, None)
        if _stop(args, len(records), time.perf_counter() - t0, op, nxt):
            break
        op = nxt
    loop_s = time.perf_counter() - t0
    if op is None and args.count is None:
        sys.exit(f"the op pool ran out after {len(records)} ops and "
                 f"{loop_s:.1f} s, before --seconds")
    for r in pending:
        r["cal"] = len(samples)
    samples.append(calib.sample())
    return records, loop_s, samples


# ----------------------------------------------------------- in process

def inprocess(args, first):
    sys.path.insert(0, str(ROOT / "src"))
    t_imp = time.perf_counter()
    import jacobisigma.cli  # noqa: F401  (imports every module)
    import_s = time.perf_counter() - t_imp
    program_sympy = "sympy" in sys.modules
    import jacobisigma
    if Path(jacobisigma.__file__).resolve().parent != (ROOT / "src" / "jacobisigma").resolve():
        sys.exit("jacobisigma was not imported from ./src")
    import known
    import ops as O

    ctx = O.make_ctx(args.workload)
    for op in _read_ops(Path(args.inputs) / "warmup.jsonl"):
        try:
            O.prepare(op, ctx)()
        except Exception:       # warm-up of a known defect may raise
            pass
    _ready(time.process_time() - first["cpu"], first, program_sympy)
    if args.setup_only:
        return None

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    def run_one(op):
        fn = O.prepare(op, ctx)
        if tracer:
            tracer.begin_op(op["i"])
        c, t = time.process_time(), time.perf_counter()
        try:
            res = fn()
            err = None
        except Exception as exc:   # a raising op is a failed op, not a crash
            res, err = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t, time.process_time() - c
        if tracer:
            tracer.end_op()
        _, defect = known.expected(op)
        rec = {"i": op["i"], "kind": op["kind"], "cpu": cpu, "wall": wall,
               "defect": defect}
        if err is not None:
            return dict(rec, status="error", error=err[:200])
        try:
            verdict, payload = O.summarize(op, res)
            good = O.judge(op, verdict)
        except Exception as exc:   # a report of another shape is a wrong answer
            return dict(rec, status="wrong",
                        error=f"reading the report: {type(exc).__name__}: {exc}"[:200])
        return dict(rec, status="ok" if good else "wrong",
                    verdict=repr(verdict), digest=O.digest(payload))

    records, loop_s, samples = _loop(args, run_one)
    out = {"records": records, "loop_s": loop_s, "calib": samples, "import_s": import_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        tracer.save(Path(args.out).with_suffix(".spans.npz"))
    return out


# ----------------------------------------------------------------- cli

def cli_run(args, op, traced, out_json):
    argv = list(op["args"]) + ["--json", out_json]
    if traced:
        cmd = [sys.executable, "-X", "importtime", str(HERE / "clishim.py"),
               out_json + ".trace"] + argv
    else:
        cmd = [sys.executable, "-m", "jacobisigma.cli"] + argv
    c, t = _children_cpu(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    return proc, _children_cpu() - c, time.perf_counter() - t


def cli_main(args, first):
    warm = Path(args.inputs) / "out" / "warmup.json"
    proc, _, _ = cli_run(args, {"args": ["check", "structures/moebius.ini",
                                         "--seed", "1"]}, False, str(warm))
    if proc.returncode != 0:
        sys.exit(f"warm-up CLI run failed: {proc.stderr.strip()[-300:]}")
    _ready(time.process_time() - first["cpu"] + _children_cpu(), first)
    if args.setup_only:
        return None
    import known
    from importtime import scipy_seconds

    def run_one(op):
        proc, cpu, wall = cli_run(args, op, args.trace, op["json"])
        _, defect = known.expected(op)
        rec = {"i": op["i"], "kind": f"cli:{op['cmd']}", "cpu": cpu, "wall": wall,
               "exit": proc.returncode, "defect": defect}
        path = ROOT / op["json"]
        blob = path.read_bytes() if path.exists() else b""
        rec["digest"] = hashlib.sha256(blob).hexdigest()[:16]
        rec["verdict"] = str(proc.returncode)
        if proc.returncode == op["expect_exit"] and blob:
            rec["status"] = "ok"
        elif proc.returncode in (0, 1) and blob:
            rec["status"] = "wrong"
        else:
            rec["status"] = "error"
            rec["error"] = proc.stderr.strip()[-200:]
        tpath = ROOT / (op["json"] + ".trace")
        if args.trace and tpath.exists():
            tr = json.loads(tpath.read_text())
            tr["import_scipy_s"] = scipy_seconds(proc.stderr)
            tr["interp_overhead_s"] = wall - tr["busy_s"]
            rec["trace"] = tr
        return rec

    records, loop_s, samples = _loop(args, run_one)
    return {"records": records, "loop_s": loop_s, "calib": samples,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--count", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    c = time.process_time()
    first = calib.sample()
    first["cpu"] = time.process_time() - c     # not part of the set-up
    run = cli_main if args.workload == "cli_cold" else inprocess
    result = run(args, first)
    if result is not None:
        Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
