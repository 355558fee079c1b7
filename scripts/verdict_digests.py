"""Print digests of verdicts and reports, to diff one checkout against another.

A change that should not move any output (a speed-up, a refactor) runs this
in both checkouts with the same arguments and diffs the two outputs.  It
prints:

* for the first K ops of a benchmark workload's op pool (written by
  `perfbench/gen.py` from `--seed` into a temporary directory), one line per
  op kind: the op count and a sha256 over each op's verdict and payload
  digest, as `perfbench/ops.py` computes them (or the error an op raised);
* one line per CLI report in a fixed list (`check` on every shipped
  structure, every built-in example, and `verify` plain, on a grid and with
  the reduced variant): the exit code and the sha256 of the `--json` report.

The program is imported from this checkout's `src/`, whatever PYTHONPATH
says; `perfbench/` is used read-only.

Usage:
    python scripts/verdict_digests.py [--workload verdict_symbolic]
                                      [--seed 5] [--ops 300]
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from collections import OrderedDict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import ops as O  # noqa: E402
from jacobisigma import cli  # noqa: E402
from jacobisigma import sigma as sg  # noqa: E402

WORKLOADS = ("verdict_symbolic", "verdict_sampled", "grid_fd")


def cli_cases():
    """[(label, argv)] of the fixed CLI report list, paths from the root."""
    cases = [(f"check {p.name}", ["check", str(p)])
             for p in sorted((ROOT / "structures").glob("*.ini"))]
    cases += [(f"example {n}", ["example", n]) for n in sg.BUILTIN_EXAMPLES]
    contact = [str(ROOT / "structures/contact-k1.ini"),
               str(ROOT / "fields/contact-k1-solution.ini")]
    cases += [("verify contact-k1", ["verify", *contact]),
              ("verify contact-k1 --grid 33x33",
               ["verify", *contact, "--grid", "33x33"]),
              ("verify moebius --variant reduced",
               ["verify", str(ROOT / "structures/moebius.ini"),
                str(ROOT / "fields/moebius-null.ini"), "--variant", "reduced"])]
    return cases


def op_digests(workload, seed, count, tmp):
    """{kind: (ops, sha256)} over the first `count` ops of the pool."""
    gen.generate(workload, seed, tmp)
    ctx = O.make_ctx(workload)
    lines = OrderedDict()
    with open(Path(tmp) / "ops.jsonl") as fh:
        for _, text in zip(range(count), fh):
            op = json.loads(text)
            try:
                verdict, payload = O.summarize(op, O.prepare(op, ctx)())
                line = f"{op['i']} {verdict!r} {O.digest(payload)}"
            except Exception as exc:   # a raising op is part of the output
                line = f"{op['i']} raised {type(exc).__name__}: {exc}"
            lines.setdefault(op["kind"], []).append(line)
    return {kind: (len(ls), hashlib.sha256("\n".join(ls).encode()).hexdigest())
            for kind, ls in lines.items()}


def report_digest(argv, tmp):
    """(exit code, sha256 of the --json report or '-' if none was written)."""
    out = Path(tmp) / "report.json"
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--json", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() \
        else "-"
    return code, digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="verdict_symbolic", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--ops", type=int, default=300,
                    help="digest the first K ops of the pool")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        print(f"# {args.workload} seed {args.seed}, first {args.ops} ops")
        for kind, (n, digest) in op_digests(args.workload, args.seed,
                                            args.ops, tmp).items():
            print(f"{kind:<28} {n:>4}  {digest}")
        print("# CLI --json reports: exit code, sha256")
        for label, argv in cli_cases():
            code, digest = report_digest(argv, tmp)
            print(f"{label:<40} {code}  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
