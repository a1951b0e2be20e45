"""Tier-1 smoke test of the end-to-end benchmark.

Deterministic: a tiny fixture, one trial, ~40 journeys per workload,
trials run in-process.  Nothing here asserts on a wall-clock time —
only that every check inside the benchmark passes, that every named
metric is printed with its unit, that counts repeat exactly, and that
``BENCHMARK.json`` lists exactly what the command prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from . import ROOT, cli, fixture, worker, workloads

HISTORY = cli.SMOKE.history_points


def in_process_trial(workload, seed, journeys, history_points, trace, deadline=None):
    """``cli.spawn_trial`` without the subprocess."""
    result = worker.run_trial(
        workload, seed, journeys, history_points=history_points, trace=trace,
    )
    return json.loads(json.dumps(result))  # as it would cross the pipe


def trial(workload: str, trace: bool = False) -> dict:
    return in_process_trial(
        workload, 1, cli.SMOKE.journeys[workload], HISTORY, trace
    )


def last_line(text: str) -> dict:
    return json.loads(text.splitlines()[-1])


def test_inputs_follow_the_seed():
    a, t_a = fixture.history_batches(1, HISTORY)
    b, t_b = fixture.history_batches(1, HISTORY)
    c, _ = fixture.history_batches(2, HISTORY)
    assert t_a == t_b and len(a) == fixture.BULK_BATCHES
    assert sum(len(batch) for batch in a) == HISTORY
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))
    assert all(np.array_equal(x.timestamps, y.timestamps) for x, y in zip(a, b))
    assert not np.array_equal(a[0].values, c[0].values)

    u1 = workloads._uplink_inputs(1, t_a, 50)
    assert u1 == workloads._uplink_inputs(1, t_a, 50)
    assert [i[0].payload for i in u1] != [
        i[0].payload for i in workloads._uplink_inputs(2, t_a, 50)
    ]


def test_times_are_scaled_to_a_quiet_machine_trial_by_trial():
    def fake(slowdown):
        return {
            "journey_ns": [int(10e6 * slowdown)] * 4, "attempted": 4,
            "busy_ns": int(40e6 * slowdown), "slowdown": slowdown,
            "setup_steps_ns": {"import": int(1e9 * slowdown), "warmup": int(1e9 * slowdown)},
            "setup_slowdown": slowdown, "peak_rss_mb": 100.0, "wal_bytes_per_point": 20.0,
        }

    quiet = cli.end_to_end([fake(1.0)])
    mixed = cli.end_to_end([fake(1.0), fake(1.5), fake(2.0)])
    assert quiet["journey_ms_p50"] == pytest.approx(10.0)
    assert quiet["setup_s"] == pytest.approx(2.0)
    assert quiet["journeys_per_s"] == pytest.approx(100.0)
    for name, value in quiet.items():
        assert mixed[name] == pytest.approx(value, rel=1e-6)


@pytest.mark.parametrize("workload", cli.WORKLOADS)
def test_workload_is_correct_repeatable_and_fully_reported(workload):
    first, traced = trial(workload), trial(workload, trace=True)

    # run_trial returns only when every end-of-trial check passed
    for result in (first, traced):
        assert result["failed"] == 0
        assert result["attempted"] == cli.SMOKE.journeys[workload]
    # two runs with one seed: the counts repeat exactly, traced or not
    assert first["wal_bytes_per_point"] == traced["wal_bytes_per_point"]
    assert first["counts"] == traced["counts"]

    e2e = cli.end_to_end([first])
    assert set(e2e) == set(cli.END_TO_END)
    assert all(value > 0 for value in e2e.values())

    table = cli.per_layer([first], traced, e2e)
    assert set(table) == set(cli.PER_LAYER)
    assert table["journey_ms_p90"] >= e2e["journey_ms_p50"]
    assert set(traced["layers"]) | set(traced["counts"]) <= set(cli.PER_LAYER)
    assert {step for steps in cli.SETUP_STEPS.values() for step in steps} == set(
        first["setup_steps_ns"]
    )
    assert set(traced["budget"]) <= set(traced["layers"])
    assert table["replication.records_resent"] == 0
    assert table["replication.duplicates"] == 0
    if workload == "uplink_stream":
        # the percentiles pool rounds of the nodes, not single uplinks
        assert len(first["journey_ns"]) == -(-first["attempted"] // fixture.UPLINK_NODES)
        assert table["journey_ms_queryable_p50"] > 0
        assert table["dataport.points_per_flush"] == workloads.POINTS_PER_UPLINK
        assert table["lorawan.replays_rejected"] == 0
        assert table["tsdb.plan_scan_calls"] == 0
    else:
        assert table["serve.lane_dropped"] == 0
        assert table["serve.reply_kb"] > 0
    if workload == "dashboard_cold":
        assert table["serve.cache_hit_ratio"] == 0.0
        assert table["serve.cache_evictions"] > 0
        assert table["tsdb.plan_scan_calls"] == cli.SMOKE.journeys[workload]
    if workload == "dashboard_cached":
        assert table["serve.cache_hit_ratio"] == 1.0
        assert table["tsdb.plan_scan_calls"] == 0
    if workload == "dashboard_live":
        assert table["serve.refresh_incremental_ratio"] > 0.9
        assert table["serve.refresh_ms"] > 0


def test_a_wrong_standby_fails_the_trial(monkeypatch):
    import repro.tsdb

    calls = iter(range(100))
    monkeypatch.setattr(repro.tsdb, "dumps", lambda *a, **kw: b"%d" % next(calls))
    with pytest.raises(workloads.CheckFailed, match="follower"):
        trial("dashboard_cached")


def test_a_failed_trial_prints_no_numbers(monkeypatch, capsys):
    def refuse(*args):
        raise cli.TrialFailed("dashboard_cached trial exited with code 1")

    monkeypatch.setattr(cli, "spawn_trial", refuse)
    assert cli.main(["--workload", "dashboard_cached", "--smoke"]) == 1
    assert "{" not in capsys.readouterr().out


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_json_lists_exactly_what_the_command_prints(
    trace, monkeypatch, capsys
):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(cli.WORKLOADS)
    assert spec["paths"] == ["benchmarks/e2e"]

    monkeypatch.setattr(cli, "spawn_trial", in_process_trial)
    argv = ["--workload", "dashboard_cached", "--seed", "3", "--seconds", "8",
            "--trace", str(trace), "--smoke"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    result = last_line(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert f"{name} " in out and isinstance(metric["value"], (int, float))
    assert "nproc=" in out and "numpy=" in out and "kernel=" in out
    assert cli.FLUSH_POLICY in out


def test_the_command_itself_runs_and_needs_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "dashboard_cached",
         "--seed", "1", "--seconds", "8", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_line(proc.stdout)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(cli.END_TO_END)

    # A directory holding only the benchmark: no program, no result.
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "dashboard_cached",
         "--seed", "1", "--seconds", "8", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
