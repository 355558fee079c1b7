"""Compare two checkouts op by op: CPU per op kind and payload digests.

Whole benchmark runs taken in turn drift with the machine: on a shared box
the same ops can take half as long again from one minute to the next, which
hides a change of a fifth.  This script runs one long-lived worker process
per checkout and takes turns op by op, so that both sides see the same
machine within a fraction of a second, and flips which side goes first on
every op.

The first K ops of the pool of (workload, seed) are written by the CHANGE
checkout's `perfbench/gen.py` into a temporary directory.  Each worker
imports the program from its checkout's `src/` and the op code from its
`perfbench/ops.py`, runs the warm-up ops, and then runs the ops it is sent:
`prepare` untimed, the op timed in CPU seconds of the worker, `summarize`
untimed.  Every op runs R times on each side (the rounds).  The report gives,
per op kind, the op count and each side's CPU seconds (the sum over the
kind's ops of each op's median over the rounds) and their ratio, then the
total.  Every op's verdict and payload digest must be the same on both sides
and in every round; the script exits 1, naming the op, when one differs, or
when an op raises on one side and not on the other.

Usage:
    python scripts/ab_ops.py PARENT CHANGE --workload verdict_symbolic
                             --seed 7 --ops 300 --rounds 3
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from collections import OrderedDict
from pathlib import Path

WORKLOADS = ("verdict_symbolic", "verdict_sampled", "grid_fd")


def serve(checkout: Path, inputs: Path):
    """The worker: run the ops whose indices arrive on stdin, one JSON line
    out per op."""
    # the replies own stdout; anything the program prints goes to stderr
    reply, sys.stdout = sys.stdout, sys.stderr
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import ops as O
    workload = (inputs / "workload").read_text()
    pool = {}
    with open(inputs / "ops.jsonl") as fh:
        for text in fh:
            op = json.loads(text)
            pool[op["i"]] = op
    ctx = O.make_ctx(workload)
    with open(inputs / "warmup.jsonl") as fh:
        for text in fh:
            try:
                O.prepare(json.loads(text), ctx)()
            except Exception:       # warm-up of a known defect may raise
                pass
    print("READY", file=reply, flush=True)
    for text in sys.stdin:
        op = pool[int(text)]
        fn = O.prepare(op, ctx)
        c = time.process_time()
        try:
            res, err = fn(), None
        except Exception as exc:    # a raising op is part of the output
            res, err = None, f"{type(exc).__name__}: {exc}"
        cpu = time.process_time() - c
        if err is None:
            verdict, payload = O.summarize(op, res)
            out = f"{verdict!r} {O.digest(payload)}"
        else:
            out = f"raised {err}"
        print(json.dumps({"cpu": cpu, "out": out}), file=reply, flush=True)


class Worker:
    """One checkout's serving process."""

    def __init__(self, checkout: Path, inputs: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve",
             str(checkout), str(inputs)],
            cwd=checkout, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            self.close()
            raise RuntimeError(f"{checkout}: the worker did not start")

    def run(self, i: int) -> dict:
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("a worker exited")
        return json.loads(line)

    def close(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        self.proc.wait()


def _table(ops, cpu):
    """[(kind, ops, parent s, change s)] per op kind in pool order, then the
    total; an op's time is its median over the rounds."""
    rows = OrderedDict()
    for k, op in enumerate(ops):
        row = rows.setdefault(op["kind"], [0, 0.0, 0.0])
        row[0] += 1
        for s in (0, 1):
            row[1 + s] += statistics.median(cpu[s][k])
    out = [(kind, *row) for kind, row in rows.items()]
    out.append(("total", len(ops), sum(r[2] for r in out),
                sum(r[3] for r in out)))
    return out


def compare(parent: Path, change: Path, workload: str, seed: int, count: int,
            rounds: int, log=print) -> int:
    """Run the comparison and print the report; the exit code."""
    sys.path.insert(0, str(change / "perfbench"))
    import gen
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp)
        gen.generate(workload, seed, inputs)
        (inputs / "workload").write_text(workload)
        with open(inputs / "ops.jsonl") as fh:
            ops = [json.loads(text) for _, text in zip(range(count), fh)]
        workers = []
        try:
            for checkout in (parent, change):
                workers.append(Worker(checkout, inputs))
            cpu = ([[] for _ in ops], [[] for _ in ops])
            outs = [None] * len(ops)
            for r in range(rounds):
                for k, op in enumerate(ops):
                    order = (0, 1) if (r + k) % 2 == 0 else (1, 0)
                    got = {s: workers[s].run(op["i"]) for s in order}
                    for s in (0, 1):
                        cpu[s][k].append(got[s]["cpu"])
                    want = outs[k] or got[0]["out"]
                    for s, side in ((0, "parent"), (1, "change")):
                        if got[s]["out"] != want:
                            log(f"op {op['i']} ({op['kind']}), round {r + 1}: "
                                f"{side} gave {got[s]['out']!r}, expected "
                                f"{want!r}")
                            return 1
                    outs[k] = want
        finally:
            for w in workers:
                w.close()
    log(f"# {workload} seed {seed}, first {len(ops)} ops, {rounds} rounds; "
        f"CPU s, each op's median over the rounds; digests equal")
    log(f"{'kind':<28} {'ops':>4} {'parent':>9} {'change':>9} {'ratio':>6}")
    for kind, n, p, c in _table(ops, cpu):
        log(f"{kind:<28} {n:>4} {p:>9.3f} {c:>9.3f} "
            f"{(c / p if p else float('nan')):>6.3f}")
    return 0


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--serve"]:
        serve(Path(argv[1]), Path(argv[2]))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", default="verdict_symbolic",
                    choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--ops", type=int, default=300,
                    help="run the first K ops of the pool")
    ap.add_argument("--rounds", type=int, default=3,
                    help="run every op this many times on each side")
    args = ap.parse_args(argv)
    if args.ops < 1 or args.rounds < 1:
        ap.error("--ops and --rounds must be at least 1")
    return compare(args.parent.resolve(), args.change.resolve(),
                   args.workload, args.seed, args.ops, args.rounds)


if __name__ == "__main__":
    sys.exit(main())
