"""bench/record.py's statistics against the committed bench records."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record", ROOT / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_compare_reproduces_committed_records(path):
    # BENCH_extract_buckets.json was written before the recorder existed
    data = json.loads(path.read_text())
    for workload in data["workloads"].values():
        for stats in workload["metrics"].values():
            got = record.compare(stats["better"], stats["parent_runs"], stats["change_runs"])
            for side in ("parent", "change"):
                assert got[side] == pytest.approx(stats[side])
            assert got["change_over_parent"] == pytest.approx(stats["change_over_parent"])
            assert got == {**stats, "parent": got["parent"], "change": got["change"],
                           "change_over_parent": got["change_over_parent"]}


def test_compare_counts_wins_by_direction():
    got = record.compare("lower", [2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    assert (got["change_wins"], got["change_losses"]) == (1, 1)
    assert record.compare("higher", [2.0], [3.0])["change_wins"] == 1
    assert record.summary([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0}


def test_main_records_every_benchmark_workload_in_ten_pairs(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    order = []

    def run_once(checkout, workload, seed, seconds):
        order.append((workload, seed, checkout.name))
        value = 2.0 if checkout.name == "change" else 1.0
        metrics = {m["name"]: {"value": value} for m in bench["end_to_end"]}
        prov = {"src_sha256": checkout.name, **{k: "" for k in record.RUN_KEYS}}
        return {"metrics": metrics, "failed": 0, "attempted": 5, "correct": True}, prov

    monkeypatch.setattr(record, "ROOT", tmp_path)
    monkeypatch.setattr(record, "git", lambda *args: args[-1])
    monkeypatch.setattr(record, "export", lambda rev, dest: None)
    monkeypatch.setattr(record, "run_once", run_once)
    assert record.main(["--parent", "P", "--label", "t", "--claim", "c", "--first-seed", "7"]) == 0
    data = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert data["provenance"]["parent_revision"] == "P"
    assert data["provenance"]["change_revision"] == "HEAD"
    assert list(data["workloads"]) == [w["name"] for w in bench["workloads"]]
    for workload in data["workloads"].values():
        assert workload["seeds"] == list(range(7, 7 + record.PAIRS))
        assert workload["metrics"]["ops_per_s"]["change_wins"] == record.PAIRS
    first = [side for w, s, side in order if w == "extract"][::2]
    assert first[:3] == ["parent", "change", "parent"]
