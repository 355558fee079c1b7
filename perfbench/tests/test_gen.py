"""The generator is a pure function of (workload, seed)."""

import filecmp
import json

import pytest

import gen
import known


@pytest.fixture
def small_pools(monkeypatch):
    monkeypatch.setattr(gen, "POOL_PASSES", {w: 2 for w in gen.WORKLOADS})


def _files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_bytes(tmp_path, small_pools, workload):
    a, b = tmp_path / "a", tmp_path / "b"
    gen.generate(workload, 12345, a, work_rel="w")
    gen.generate(workload, 12345, b, work_rel="w")
    assert _files(a) == _files(b)
    for rel in _files(a):
        assert filecmp.cmp(a / rel, b / rel, shallow=False), rel


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_other_seed_other_inputs(tmp_path, small_pools, workload):
    gen.generate(workload, 1, tmp_path / "a", work_rel="w")
    gen.generate(workload, 2, tmp_path / "b", work_rel="w")
    assert ((tmp_path / "a" / "ops.jsonl").read_bytes()
            != (tmp_path / "b" / "ops.jsonl").read_bytes())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_no_two_ops_alike(tmp_path, small_pools, workload):
    gen.generate(workload, 9, tmp_path, work_rel="w")
    seen = set()
    for line in (tmp_path / "ops.jsonl").read_text().splitlines():
        op = json.loads(line)
        key = json.dumps({k: v for k, v in op.items() if k not in ("i", "pass", "json")},
                         sort_keys=True)
        assert key not in seen
        seen.add(key)


def test_known_defect_is_the_k2_groupoid_only():
    defects = [k for k, v in known.KNOWN.items() if v.get("known_defect")]
    assert defects == ["groupoid"]
    assert known.expected({"kind": "groupoid", "k": 2}) == (True, True)
    assert known.expected({"kind": "groupoid", "k": 1}) == (True, False)
