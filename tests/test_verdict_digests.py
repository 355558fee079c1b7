"""scripts/verdict_digests.py on the first three ops of a verdict_symbolic
pool: the shape of the tree digests, and that they see a changed tree; its
Halton set digests against sets built point by point; and its node array
digests of grid_fd ops, which see a moved value but not the sign of a
zero.  No timing bound."""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np

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


def test_halton_digests_digest_the_values_halton_point_gives(monkeypatch):
    vd = _load(monkeypatch)
    digests = vd.halton_digests()
    assert len(digests) == len(vd.HALTON_SETS)
    assert all(re.fullmatch(r"[0-9a-f]{64}", d)
               for _, *ds in digests for d in ds)
    assert vd.halton_digests() == digests

    def reference_set(box, trials, seed):
        """The columns of the sample set as halton_point makes it, point by
        point."""
        points = [vd.ex.halton_point(box, i, seed) for i in range(trials)]
        return {n: np.array([p[n] for p in points]) for n in sorted(box)}
    # the same floats built point by point give the same digests ...
    monkeypatch.setattr(vd.ex, "_halton_set", reference_set)
    assert vd.halton_digests() == digests
    # ... and other floats other digests (a box of no coordinates has none)
    monkeypatch.setattr(vd.ex, "_halton_start", lambda seed: seed % 7 + 18)
    changed = vd.halton_digests()
    assert all(c[1:] != d[1:] for c, d, (k, _, _)
               in zip(changed, digests, vd.HALTON_SETS) if k)


# the cheap ops of one pass of a grid_fd pool: el_conv 65 (both variants),
# action_sym 65, action_disc 65, apath 257, apath_tampered 257, holonomy
CHEAP_GRID_OPS = (0, 1, 5, 9, 13, 14, 16)


def test_array_digests_of_grid_ops(monkeypatch, tmp_path):
    vd = _load(monkeypatch)
    pool = [op for op in vd._pool("grid_fd", 3, 19, tmp_path)
            if op["i"] in CHEAP_GRID_OPS]
    assert len(pool) == len(CHEAP_GRID_OPS)
    digests = vd.array_digests(pool)
    # holonomy computes no node array
    assert list(digests) == ["el_conv", "action_sym", "action_disc", "apath",
                             "apath_tampered"]
    assert [n for n, _ in digests.values()] == [2, 1, 1, 1, 1]
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for _, d in digests.values())
    assert vd.array_digests(pool) == digests
    arrays = vd.grid_arrays(pool[0], vd.O.make_ctx("grid_fd"))
    assert [label for label, _ in arrays][:2] == ["65:pi:x0", "65:pi:x1"]
    assert all(isinstance(a, np.ndarray) for _, a in arrays)
    # a value moved by a first-order stencil moves every stencil's digest
    monkeypatch.setattr(
        vd.sg, "_stencil",
        lambda a, nodes, axis: a if not isinstance(a, np.ndarray)
        else np.gradient(a, nodes, axis=axis, edge_order=1))
    changed = vd.array_digests(pool)
    assert changed["action_sym"] == digests["action_sym"]
    assert all(changed[k] != digests[k] for k in digests if k != "action_sym")


def test_array_sha_reads_every_zero_as_plus_zero(monkeypatch):
    vd = _load(monkeypatch)
    a = np.array([[0.0, 1.5], [-2.0, 0.0]])
    signed = np.array([[-0.0, 1.5], [-2.0, -0.0]])
    assert vd.array_sha(signed) == vd.array_sha(a)
    assert vd.array_sha(np.nextafter(a, 1.0)) != vd.array_sha(a)
    assert vd.array_sha(a.reshape(4)) != vd.array_sha(a)
    assert vd.array_sha(vd._node_array(0, (2, 2))) == \
        vd.array_sha(np.zeros((2, 2)))
