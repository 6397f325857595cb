"""tools/bench_record.py runs the benchmark on each tree it is given and
writes one JSON record; a tiny run on the working tree checks its schema."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_record  # noqa: E402


def test_parse_seeds():
    assert bench_record.parse_seeds("1101-1103,7") == [1101, 1102, 1103, 7]
    assert bench_record.parse_seeds("5") == [5]


def test_record_schema(tmp_path):
    out = tmp_path / "BENCH_test.json"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), "--out", str(out),
         "--seconds", "0.05", "--workload", "analysis=3,4", f"change={ROOT}"],
        check=True, capture_output=True, text=True, timeout=300,
    )
    doc = json.loads(out.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end"]}

    assert doc["schema"] == bench_record.SCHEMA
    assert (doc["seconds"], doc["command"]) == (0.05, "perfbench/run.py")
    side = doc["sides"]["change"]
    assert set(side) == {"commit", "dirty", "env"}
    assert {"python", "numpy", "blas", "nproc"} <= set(side["env"])

    record = doc["workloads"]["analysis"]
    assert record["seeds"] == [3, 4]
    assert [(r["side"], r["seed"], r["first"]) for r in record["runs"]] == [
        ("change", 3, True), ("change", 4, True)]
    for run in record["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert set(run["metrics"]) == names
    summary = record["summary"]["change"]
    assert set(summary) == names
    for name, stats in summary.items():
        values = sorted(r["metrics"][name] for r in record["runs"])
        assert values[0] <= stats["q1"] <= stats["median"] <= stats["q3"] <= values[-1]
    assert "wins" not in record["summary"]


def test_summary_counts_wins_by_direction():
    record = {"seeds": [1, 2, 3], "runs": [
        {"side": side, "seed": seed, "metrics": {"op_s_p50": t, "items_per_s": 1 / t}}
        for seed, (a, b) in zip([1, 2, 3], [(2.0, 1.0), (2.0, 3.0), (2.0, 1.5)])
        for side, t in (("parent", a), ("change", b))
    ]}
    out = bench_record.summary(record, ["parent", "change"],
                               {"op_s_p50": "lower", "items_per_s": "higher"})
    assert out["parent"]["op_s_p50"]["median"] == 2.0
    assert out["change"]["op_s_p50"]["median"] == 1.5
    assert out["wins"]["side"] == "change" and out["wins"]["against"] == "parent"
    for name in ("op_s_p50", "items_per_s"):
        assert out["wins"]["metrics"][name] == {"better": 2, "worse": 1, "pairs": 3}
