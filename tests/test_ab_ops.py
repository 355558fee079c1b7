"""scripts/ab_ops.py: this checkout against itself on a few ops gives equal
digests and exits 0; a digest that differs between the sides exits 1.  No
timing bound."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_ops.py"


def test_this_checkout_against_itself():
    out = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), str(ROOT),
                          "--workload", "verdict_symbolic", "--seed", "3",
                          "--ops", "3", "--rounds", "2"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("# verdict_symbolic seed 3, first 3 ops, "
                               "2 rounds") and "digests equal" in lines[0]
    total = lines[-1].split()
    assert total[:2] == ["total", "3"] and float(total[2]) > 0


def test_a_digest_that_differs_fails(monkeypatch):
    spec = importlib.util.spec_from_file_location("ab_ops", SCRIPT)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    monkeypatch.setattr(sys, "path", list(sys.path))

    class Fake:
        """A worker whose change side (the second made) moves the digest of
        the second op."""
        made = []

        def __init__(self, checkout, inputs):
            self.side = ("parent", "change")[len(self.made)]
            self.made.append(self)

        def run(self, i):
            moved = self.side == "change" and i == 1
            return {"cpu": 0.01, "out": f"True {'moved' if moved else i}"}

        def close(self):
            pass

    monkeypatch.setattr(ab, "Worker", Fake)
    log = []
    code = ab.compare(ROOT, ROOT, "verdict_symbolic", 3, 3, 1,
                      log=log.append)
    assert code == 1
    assert log == ["op 1 (jacobi_contact), round 1: change gave 'True moved', "
                   "expected 'True 1'"]
