"""The statistics of ``bench_record.py`` on fixed numbers."""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import bench_record  # noqa: E402


def test_quartiles_are_inclusive():
    assert bench_record.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_record.quartiles([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert bench_record.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_summary_of_a_lower_is_better_metric():
    s = bench_record.summarize([1.0, 2.0, 4.0, 4.0, 5.0], [2.0, 2.0, 2.0, 2.0, 2.0], "lower")
    assert (s["pairs"], s["wins"], s["better"]) == (5, 3, "lower")   # a tie is no win
    assert s["parent"] == {"runs": [1.0, 2.0, 4.0, 4.0, 5.0], "median": 4.0, "q1": 2.0, "q3": 4.0}
    assert s["tree"]["median"] == 2.0
    assert s["ratio"]["runs"] == [2.0, 1.0, 0.5, 0.5, 0.4]
    assert (s["ratio"]["median"], s["ratio"]["q1"], s["ratio"]["q3"]) == (0.5, 0.5, 1.0)


def test_summary_of_a_higher_is_better_metric():
    s = bench_record.summarize([10.0, 10.0, 10.0], [12.0, 8.0, 11.0], "higher")
    assert s["wins"] == 2
    assert s["ratio"]["runs"] == [1.2, 0.8, 1.1]
    assert s["ratio"]["median"] == 1.1


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        bench_record.summarize([1.0, 2.0], [1.0], "lower")


def test_sides_alternate():
    assert [bench_record.side_order(k)[0] for k in range(4)] == ["parent", "tree"] * 2
    assert all(sorted(bench_record.side_order(k)) == ["parent", "tree"] for k in range(4))


def _side(value, **fields):
    return {"attempted": 10, "correct": True, "failed": 0, "metrics": {"op_s_p50": value}} | fields


def test_pairs_with_a_failed_incorrect_or_missing_run_are_excluded():
    runs = [{"seed": 1, "parent": _side(2.0), "tree": _side(1.0)},
            {"seed": 2, "parent": {"exit": 1, "stderr": "boom"}, "tree": _side(0.5)},
            {"seed": 3, "parent": _side(2.0), "tree": _side(0.5, correct=False)},
            {"seed": 4, "parent": _side(2.0, failed=1), "tree": _side(0.5)},
            {"seed": 5, "parent": _side(4.0), "tree": _side(3.0)}]
    w = bench_record.workload_record(runs, {"op_s_p50": "lower"})
    assert w["runs"] == runs
    assert w["excluded"] == [2, 3, 4]
    s = w["metrics"]["op_s_p50"]
    assert (s["pairs"], s["wins"]) == (2, 2)
    assert s["parent"]["runs"] == [2.0, 4.0] and s["tree"]["runs"] == [1.0, 3.0]


def test_no_usable_pair_leaves_no_summary():
    runs = [{"seed": 1, "parent": {"exit": 2, "stderr": ""}, "tree": _side(1.0)}]
    assert bench_record.workload_record(runs, {"op_s_p50": "lower"}) == {
        "runs": runs, "excluded": [1], "metrics": {}}


def test_run_length_and_workloads_come_from_the_benchmark(monkeypatch):
    def no_run(*args):
        raise AssertionError("the options were accepted")

    monkeypatch.setattr(bench_record, "_git", no_run)
    with pytest.raises(SystemExit):
        bench_record.main(["--parent", "HEAD", "--pr", "0", "--seeds", "1", "--seconds", "5"])
    with pytest.raises(SystemExit):
        bench_record.main(["--parent", "HEAD", "--pr", "0", "--seeds", "1",
                           "--workloads", "large_truncation"])


def test_layer_self_times_of_a_traced_run():
    run = {"attempted": 12, "correct": True, "failed": 0,
           "metrics": {"cli.roundtrip.concurrency": 0.5, "serialize.dumps.calls": 24,
                       "serialize.dumps.self_s_total": 0.25,
                       "roundtrip.run_roundtrip_trial.self_s_total": 1.5}}
    assert bench_record.layer_self_times(run) == {
        "attempted": 12, "self_s_total": {"serialize.dumps": 0.25,
                                          "roundtrip.run_roundtrip_trial": 1.5}}
    failed = {"exit": 1, "stderr": "boom"}
    assert bench_record.layer_self_times(failed) == failed


def test_each_workload_gets_one_traced_run_per_side(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7, "workloads": [{"name": "a"}, {"name": "b"}],
        "end_to_end": [{"name": "ops_per_s", "better": "higher"}]}))
    calls = []

    def run_once(root, workload, seed, seconds, trace=0):
        calls.append((root.name, workload, seed, seconds, trace))
        metrics = ({"x.self_s_total": 0.5, "x.calls": 3} if trace
                   else {"ops_per_s": 2.0 if root.name == "tree" else 1.0})
        return {"attempted": 4, "correct": True, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_record, "run_once", run_once)
    monkeypatch.setattr(bench_record.subprocess, "run",
                        lambda *args, **kwargs: types.SimpleNamespace(stdout=b""))
    monkeypatch.setattr(bench_record, "machine", dict)
    assert bench_record.main(["--parent", "HEAD", "--pr", "0", "--seeds", "5", "6"]) == 0
    traced = [c for c in calls if c[4]]
    assert sorted(traced) == [(side, w, 5, 7, 1) for side in ("parent", "tree") for w in "ab"]
    record = json.loads((tmp_path / "BENCH_0.json").read_text())
    for w in "ab":
        assert record["workloads"][w]["metrics"]["ops_per_s"]["wins"] == 2
        assert record["workloads"][w]["layers"] == {
            side: {"attempted": 4, "self_s_total": {"x": 0.5}} for side in ("parent", "tree")}
