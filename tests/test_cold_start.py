"""Smoke test of scripts/cold_start.py at one run per stage: the shape of
its output, no timing bound."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cold_start_prints_every_stage_and_the_thread_count():
    out = subprocess.run([sys.executable, str(ROOT / "scripts/cold_start.py"),
                          "--runs", "1"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0].startswith("cold_start: medians of 1 child processes")
    assert out[1].split() == ["stage", "cpu_s", "wall_s"]
    stages = ["python -c pass", "import numpy", "import jacobisigma.cli",
              "jsm check contact-k1", "jsm example contact-k"]
    assert len(out) == 2 + len(stages) + 1
    for name, line in zip(stages, out[2:]):
        assert re.fullmatch(re.escape(name) + r" +\d+\.\d{3} +\d+\.\d{3}", line)
    assert re.fullmatch(r"threads after import jacobisigma\.cli: "
                        r"(\d+|unknown)", out[-1])
