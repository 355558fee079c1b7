"""Run parent/change benchmark pairs and write them to a BENCH_<n>.json.

Each seed of the range is one pair: `perfbench/run.py --workload W --seed N
--seconds S --trace 0` runs once in the parent checkout and once in the
change, alternating which side runs first (the parent first on even pair
indices), with S the `run_seconds` of the change's BENCHMARK.json.  Every
run is recorded, with the number of ops it attempted.  Per end-to-end
metric of BENCHMARK.json the summary gives each side's median and
quartiles (numpy's linear percentiles), the pairs the change wins and
loses (ties count for neither), the relative change of the medians, and
whether the change's median stays within the metric's bound.  With
--claim METRIC the claim rule is applied to that metric: at least ten
pairs, the change wins at least nine tenths of them, and the medians
differ by more than the parent's interquartile range.

The output file keeps what it already holds: this workload's entry (and
the claim, when one is given) is replaced, other workloads stay.

Usage:
    python scripts/bench_pairs.py --parent DIR --change DIR --workload W
                                  --seeds A-B [--claim METRIC] --out FILE
"""

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

CLAIM_RULE = ("at least 10 pairs, the change wins at least 9 of 10 pairs "
              "and the medians differ by more than the parent's "
              "interquartile range")


def _quartiles(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(med), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6)}


def summarize_metric(parent, change, better, bound):
    """The summary of one metric over paired runs (parent[i], change[i])."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    p, c = _quartiles(parent), _quartiles(change)
    diffs = [sign * (b - a) for a, b in zip(parent, change)]
    pm, cm = float(np.median(parent)), float(np.median(change))
    rel = (cm - pm) / pm if pm else 0.0
    return {"parent": p, "change": c,
            "change_wins": sum(d > 0 for d in diffs),
            "change_losses": sum(d < 0 for d in diffs),
            "median_rel_change": round(rel, 4),
            "within_bound": sign * rel >= -bound}


def claim_met(parent, change, better):
    """(met, details) of the claim rule for one metric."""
    s = summarize_metric(parent, change, better, bound=0.0)
    q1, q3 = np.percentile(parent, [25, 75])
    iqr = float(q3 - q1)
    gain = float(np.median(change) - np.median(parent))
    gain = gain if better == "higher" else -gain
    pairs = len(parent)
    met = pairs >= 10 and s["change_wins"] >= 0.9 * pairs and gain > iqr
    return met, {"rule": CLAIM_RULE, "pairs": pairs,
                 "change_wins": s["change_wins"],
                 "parent_median": s["parent"]["median"],
                 "change_median": s["change"]["median"],
                 "parent_iqr": round(iqr, 6), "met": bool(met)}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(checkout, workload, seed, seconds):
    """The final JSON line of one untraced perfbench run in the checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: seed {seed}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _revision(checkout):
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else str(checkout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="an inclusive range A-B, one pair per seed")
    ap.add_argument("--claim", metavar="METRIC", default=None)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        ap.error(f"--claim must name an end-to-end metric: {sorted(metrics)}")
    seconds = bench["run_seconds"]

    runs = {"parent": [], "change": []}
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload,
                                       seed, seconds))
        shown = args.claim or "throughput_ops_s"
        print(f"pair {k + 1}/{len(args.seeds)} seed {seed}: {shown} "
              + "  ".join(f"{side} {runs[side][-1]['metrics'][shown]['value']:.6g}"
                          for side in ("parent", "change")), file=sys.stderr)

    entry = {"seeds": args.seeds, "pairs": len(args.seeds),
             "correct_all_runs": all(r["correct"] for side in runs.values()
                                     for r in side),
             "attempted": {side: [r["attempted"] for r in runs[side]]
                           for side in runs},
             "metrics": {}}
    for name, m in metrics.items():
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]]
                for side in runs}
        entry["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **summarize_metric(vals["parent"], vals["change"], m["better"],
                               m["bound"]),
            "runs": {"seed": args.seeds,
                     **{side: [round(v, 6) for v in vs]
                        for side, vs in vals.items()}}}

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out.setdefault("harness", f"python3 perfbench/run.py --workload W --seed "
                   f"N --seconds {seconds} --trace 0, in a checkout of the "
                   f"parent commit and in the change; each pair runs both on "
                   f"one seed, alternating which side runs first")
    out.setdefault("machine", f"{platform.machine()} {platform.system()}, "
                   f"{platform.python_implementation()} "
                   f"{platform.python_version()}, numpy {np.__version__}; "
                   f"times are perfbench's calibrated CPU seconds")
    out.setdefault("parent", _revision(args.parent))
    if args.claim is not None:
        vals = {side: [r["metrics"][args.claim]["value"] for r in runs[side]]
                for side in runs}
        _, details = claim_met(vals["parent"], vals["change"],
                               metrics[args.claim]["better"])
        out["claim"] = {"metric": args.claim, "workload": args.workload,
                        **details}
    out.setdefault("workloads", {})[args.workload] = entry
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
