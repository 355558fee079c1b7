"""run.py refuses a directory without the program and judges records; the
workload process stays free of the generator and stops on an empty pool;
the CLI repeat run reports every exit code."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import run

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "grid_fd", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_known_defects_fail_but_keep_correct():
    recs = [{"i": 0, "status": "ok"},
            {"i": 1, "status": "error", "defect": True},
            {"i": 2, "status": "ok"}]
    failed, unexpected = run.judge_records(recs)
    assert [r["i"] for r in failed] == [1] and not unexpected
    failed, unexpected = run.judge_records(recs, mismatched={2})
    assert [r["i"] for r in unexpected] == [2]
    recs.append({"i": 3, "status": "wrong", "defect": True})
    assert [r["i"] for r in run.judge_records(recs)[1]] == [3]


def test_percentile_is_nearest_rank():
    vals = list(range(1, 21))
    assert run.percentile(vals, 50) == 10
    assert run.percentile(vals, 50.1) == 11
    assert run.percentile(vals, 100) == 20


def test_tail_percentile_falls_mid_kind():
    for workload in gen.WORKLOADS:
        k = gen.verdict_kinds(workload)
        rank = run.tail_pct(workload) / 100 * k
        assert abs(rank % 1 - 0.5) < 1e-9 and 0 < rank < k, workload


def test_workload_process_does_not_load_sympy():
    code = ("import sys, known, ops, worker; "
            "assert 'sympy' not in sys.modules, 'sympy loaded'")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_run_that_uses_up_its_pool_fails(tmp_path):
    gen.generate("grid_fd", 3, tmp_path / "inputs")
    ops = (tmp_path / "inputs" / "ops.jsonl").read_text().splitlines()
    (tmp_path / "inputs" / "ops.jsonl").write_text(ops[-1] + "\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload",
                           "grid_fd", "--inputs", str(tmp_path / "inputs"),
                           "--out", str(tmp_path / "out.json"), "--seconds", "30"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert "ran out" in proc.stderr
    assert not (tmp_path / "out.json").exists()


def test_clirepeat_runs_each_op_and_reports_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    args = [["example", "moebius", "--json", str(out)],
            ["check", "structures/a10-algebroid.ini"],
            ["no-such-command"]]
    (tmp_path / "args.json").write_text(json.dumps(args))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(BENCH / "clirepeat.py"),
                           str(tmp_path / "args.json")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 1, 2]
    assert json.loads(out.read_text())["command"] == "example"
