"""scripts/verdict_digests.py on the first three ops of a verdict_symbolic
pool: the shape of the tree digests, and that they see a changed tree.  No
timing bound."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(monkeypatch):
    # the script puts src/ and perfbench/ on sys.path while it loads
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "verdict_digests", ROOT / "scripts" / "verdict_digests.py")
    vd = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(vd)
    return vd


def test_tree_digests_of_three_ops(monkeypatch, tmp_path):
    vd = _load(monkeypatch)
    pool = vd._pool("verdict_symbolic", 3, 3, tmp_path)
    assert len(pool) == 3 and all("lam" in op for op in pool)
    digests = vd.tree_digests(pool)
    assert list(digests) == list(dict.fromkeys(op["kind"] for op in pool))
    assert sum(n for n, _ in digests.values()) == 3
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for _, d in digests.values())
    assert vd.tree_digests(pool) == digests
    # a Jacobiator list in another order is another digest
    jacobiators = vd.jac._jacobiators
    monkeypatch.setattr(vd.jac, "_jacobiators",
                        lambda J: reversed(list(jacobiators(J))))
    changed = vd.tree_digests(pool)
    assert all(changed[k][1] != d for k, (_, d) in digests.items())
