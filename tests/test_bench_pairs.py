"""The summary math of scripts/bench_pairs.py, on fixed numbers (no
benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)


def test_summary_counts_wins_losses_and_ties():
    parent = [10.0, 10.0, 12.0, 11.0]
    change = [11.0, 10.0, 11.0, 13.0]
    s = bp.summarize_metric(parent, change, "higher", 0.25)
    assert (s["change_wins"], s["change_losses"]) == (2, 1)
    assert s["parent"] == {"median": 10.5, "q1": 10.0, "q3": 11.25}
    assert s["change"] == {"median": 11.0, "q1": 10.75, "q3": 11.5}
    assert s["median_rel_change"] == round(0.5 / 10.5, 4)
    # the same numbers as a lower-is-better metric swap wins and losses
    s = bp.summarize_metric(parent, change, "lower", 0.25)
    assert (s["change_wins"], s["change_losses"]) == (1, 2)


@pytest.mark.parametrize("better, change_median, ok", [
    ("lower", 1.25, True), ("lower", 1.26, False),
    ("higher", 0.75, True), ("higher", 0.74, False)])
def test_within_bound_is_one_sided(better, change_median, ok):
    s = bp.summarize_metric([1.0] * 3, [change_median] * 3, better, 0.25)
    assert s["within_bound"] is ok


def test_claim_rule():
    parent = [40.0 + 0.1 * i for i in range(10)]        # IQR 0.45
    change = [41.0 + 0.1 * i for i in range(10)]
    met, d = bp.claim_met(parent, change, "higher")
    assert met and d["change_wins"] == 10 and d["parent_iqr"] == 0.45
    # a gain inside the parent's spread does not count
    met, _ = bp.claim_met(parent, [p + 0.3 for p in parent], "higher")
    assert not met
    # two losses in ten pairs are one too many
    met, d = bp.claim_met(parent, change[:8] + [39.0, 39.0], "higher")
    assert not met and d["change_wins"] == 8
    # nine pairs are too few, however large the gain
    met, _ = bp.claim_met(parent[:9], change[:9], "higher")
    assert not met
    # lower is better: the change must sit below the parent
    met, _ = bp.claim_met(change, parent, "lower")
    assert met


def test_summary_reproduces_a_recorded_benchmark_file():
    rec = json.loads((ROOT / "BENCH_6.json").read_text())
    for w in rec["workloads"].values():
        for m in w["metrics"].values():
            runs = m["runs"]
            s = bp.summarize_metric(runs["parent"], runs["change"],
                                    m["better"], m["bound"])
            # the file's quartiles came from the runs before they were
            # rounded to six decimals
            for side in ("parent", "change"):
                assert s[side] == pytest.approx(m[side], abs=2e-6)
            assert s["median_rel_change"] == pytest.approx(
                m["median_rel_change"], abs=1e-4)
            for k in ("change_wins", "change_losses", "within_bound"):
                assert s[k] == m[k]
    claim = rec["claim"]
    tp = rec["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    met, d = bp.claim_met(tp["runs"]["parent"], tp["runs"]["change"], "higher")
    assert met and claim["met"]
    assert (d["pairs"], d["change_wins"]) == (claim["pairs"],
                                              claim["change_wins"])
    for k in ("parent_median", "change_median", "parent_iqr"):
        assert d[k] == pytest.approx(claim[k], abs=2e-6)


def test_seed_ranges():
    assert bp.parse_seeds("7-10") == [7, 8, 9, 10]
    assert bp.parse_seeds("5") == [5]
