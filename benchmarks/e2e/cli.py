"""``python -m benchmarks.e2e --workload NAME --seed S [--trace]``.

One workload run is one discarded warm-up trial plus five measured
trials, each a fresh worker subprocess that builds its own fixture and
then does a fixed *count* of journeys.  Latency percentiles pool the
journeys of the measured trials; ``setup_s``, ``journeys_per_s`` and
``peak_rss_mb`` are the median of the per-trial values.  Every time is
scaled, trial by trial, to the speed of a quiet machine (calibrate.py).
``--trace`` adds one trial with span proxies in place and prints the
per-layer table instead.  The last line of standard output is the
result as one JSON object; everything above it is the same numbers for
people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median

from . import ROOT, SRC

WORKLOADS = ("uplink_stream", "dashboard_cold", "dashboard_cached", "dashboard_live")

#: name -> unit, in print order.
END_TO_END = {
    "setup_s": "s",
    "journey_ms_p50": "ms",
    "journeys_per_s": "1/s",
    "peak_rss_mb": "MB",
    "wal_bytes_per_point": "B",
}

PER_LAYER = {
    # Demoted from the end-to-end list: its run-to-run spread on a
    # shared box (6-26 %) is wider than any bound worth gating on.
    "journey_ms_p90": "ms",
    # uplink_stream only: a single uplink, ingest until read back.  It
    # depends on who wins the GIL (see workloads.py); the rounds do not.
    "journey_ms_queryable_p50": "ms",
    "lorawan.ingest_us": "us",
    "lorawan.codec_us": "us",
    "mqtt.publish_us": "us",
    "dataport.handle_us": "us",
    "tsdb.wal_append_us": "us",
    "tsdb.wal_bytes_per_point": "B",
    "replication.tee_us": "us",
    "tsdb.put_batch_us": "us",
    "tsdb.read_back_us": "us",
    "replication.apply_us": "us",
    "replication.drain_s": "s",
    "replication.drain_us": "us",
    "replication.backlog_max_records": "count",
    "replication.records_resent": "count",
    "replication.duplicates": "count",
    "dataport.points_per_flush": "count",
    "mqtt.redelivered": "count",
    "lorawan.replays_rejected": "count",
    "serve.client_encode_us": "us",
    "serve.request_decode_us": "us",
    "tsdb.plan_scan_ms": "ms",
    "tsdb.plan_scan_calls": "count",
    "tsdb.scanned_per_returned": "ratio",
    "serve.cache_lookup_us": "us",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_evictions": "count",
    "serve.refresh_ms": "ms",
    "serve.refresh_incremental_ratio": "ratio",
    "tsdb.encode_response_ms": "ms",
    "serve.json_dumps_ms": "ms",
    "serve.client_decode_ms": "ms",
    "serve.reply_kb": "KB",
    "serve.transport_ms": "ms",
    "serve.lane_depth_max": "count",
    "serve.lane_dropped": "count",
    "fixture.import_s": "s",
    "fixture.generate_s": "s",
    "fixture.assemble_ms": "ms",
    "fixture.bulk_load_s": "s",
    "fixture.follower_catchup_s": "s",
    "fixture.server_start_ms": "ms",
    "fixture.warmup_s": "s",
    "machine.slowdown": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.residual_frac": "ratio",
}

#: Nanoseconds per unit of time: a metric in one of these is scaled.
NS_PER = {"us": 1e3, "ms": 1e6, "s": 1e9}

#: The worker's set-up steps that make up each ``fixture.*`` metric;
#: together they are ``setup_s``.
SETUP_STEPS = {
    "fixture.import_s": ("interpreter", "import"),
    "fixture.generate_s": ("generate", "inputs"),
    "fixture.assemble_ms": ("assemble",),
    "fixture.bulk_load_s": ("bulk_load",),
    "fixture.follower_catchup_s": ("follower_catchup",),
    "fixture.server_start_ms": ("server_start",),
    "fixture.warmup_s": ("warmup",),
}

#: The code's own policy (``SegmentWriter``); stated with every run.
FLUSH_POLICY = "flush() per block, no fsync"

#: A hung worker must not carry a run past the contract's 180 s.
RUN_TIMEOUT_S = 170

#: The run length the journey counts below were sized for: what the
#: journeys of the five trials take together on a quiet box.
DEFAULT_SECONDS = 8


@dataclass(frozen=True)
class Shape:
    """How much one run does."""

    trials: int
    #: one discarded trial first, to page in the interpreter and the program
    warmup: bool
    history_points: int
    #: journeys per trial at ``DEFAULT_SECONDS``
    journeys: dict[str, int]


#: Sized on a 2-core box so that a run, set-up included, takes 22-28 s
#: when the box is quiet (the builder's contract caps 92 runs at 57
#: minutes, and the box can slow by a third for half an hour): 1-2 s of
#: journeys per trial.
FULL = Shape(
    trials=5,
    warmup=True,
    history_points=1_000_000,
    journeys={
        "uplink_stream": 2400,
        "dashboard_cold": 12,
        "dashboard_cached": 50,
        "dashboard_live": 18,
    },
)

#: The tier-1 smoke shape: every code path, no meaningful timing.
SMOKE = Shape(
    trials=1,
    warmup=False,
    history_points=20_000,
    journeys={
        "uplink_stream": 250,
        "dashboard_cold": 32,
        "dashboard_cached": 32,
        "dashboard_live": 12,
    },
)


class TrialFailed(RuntimeError):
    """A worker exited non-zero: a check failed or it crashed."""


def machine_stamp() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": platform.release(),
    }


def spawn_trial(
    workload: str, seed: int, journeys: int, history_points: int, trace: bool,
    deadline: float,
) -> dict:
    """One trial in a fresh interpreter, to end before ``deadline``
    (``time.monotonic()``); returns the worker's result."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, "-m", "benchmarks.e2e.worker",
        "--workload", workload,
        "--seed", str(seed),
        "--journeys", str(journeys),
        "--history-points", str(history_points),
        "--trace", str(int(trace)),
        "--spawned-at", str(time.monotonic_ns()),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise TrialFailed(f"{workload} trial timed out") from None
    if proc.returncode != 0:
        raise TrialFailed(f"{workload} trial exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def pooled_ms(trials: list[dict], q: float, *, scaled: bool = True) -> float:
    """A percentile of the journeys of all trials, pooled."""
    pooled = sorted(
        ns / (t["slowdown"] if scaled else 1.0)
        for t in trials
        for ns in t["journey_ns"]
    )
    return percentile(pooled, q) / 1e6


def end_to_end(trials: list[dict]) -> dict[str, float]:
    """The end-to-end metrics from the measured trials."""
    return {
        "setup_s": median(
            sum(t["setup_steps_ns"].values()) / t["setup_slowdown"] for t in trials
        ) / 1e9,
        "journey_ms_p50": pooled_ms(trials, 0.50),
        "journeys_per_s": median(
            t["attempted"] / t["busy_ns"] * t["slowdown"] for t in trials
        ) * 1e9,
        "peak_rss_mb": median(t["peak_rss_mb"] for t in trials),
        "wal_bytes_per_point": median(t["wal_bytes_per_point"] for t in trials),
    }


def per_layer(trials: list[dict], traced: dict, e2e: dict[str, float]) -> dict[str, float]:
    """The per-layer table: times from the traced trial, counts from
    the program's stats(), set-up steps as medians over the untraced
    trials, and how far to trust it all."""
    table = dict.fromkeys(PER_LAYER, 0.0)
    for name, value in traced["layers"].items():
        scaled = PER_LAYER[name] in NS_PER
        table[name] = value / traced["slowdown"] if scaled else value
    table.update(trials[0]["counts"])
    for name, steps in SETUP_STEPS.items():
        table[name] = median(
            sum(t["setup_steps_ns"][s] for s in steps) / t["setup_slowdown"]
            for t in trials
        ) / NS_PER[PER_LAYER[name]]
    table["tsdb.wal_bytes_per_point"] = e2e["wal_bytes_per_point"]
    table["journey_ms_p90"] = pooled_ms(trials, 0.90)
    table["machine.slowdown"] = median(t["slowdown"] for t in trials)

    # Layer times and the journey they should add up to come from the
    # same trial; how far that trial is from the untraced ones is the
    # overhead.
    untraced_ms = e2e["journey_ms_p50"]
    traced_ms = pooled_ms([traced], 0.50)
    explained_ms = sum(
        table[name] * NS_PER[PER_LAYER[name]] / 1e6 for name in traced["budget"]
    )
    table["trace.overhead_frac"] = (traced_ms - untraced_ms) / untraced_ms
    table["trace.residual_frac"] = (traced_ms - explained_ms) / traced_ms
    return table


def run(workload: str, seed: int, seconds: float, trace: bool, shape: Shape) -> dict:
    """Warm-up trial(s), measured trials, optional traced trial; returns
    the result object the last output line carries."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    journeys = max(5, round(shape.journeys[workload] * seconds / DEFAULT_SECONDS))
    if shape.warmup:
        # Discarded: it only has to page in the interpreter and the program.
        spawn_trial(workload, seed, 5, SMOKE.history_points, False, deadline)
    trials = [
        spawn_trial(workload, seed, journeys, shape.history_points, False, deadline)
        for _ in range(shape.trials)
    ]
    e2e = end_to_end(trials)
    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["failed"] for t in trials)

    samples = sum(len(t["journey_ns"]) for t in trials)
    print(f"workload {workload}  seed {seed}  trials {len(trials)}  journeys "
          f"{attempted}  failed {failed}  percentiles pool {samples} samples")
    for name, unit in END_TO_END.items():
        print(f"  {name:28s} {e2e[name]:14.4f} {unit}")
    print(f"  {'journey_ms_p90':28s} {pooled_ms(trials, 0.90):14.4f} ms  (per-layer: no bound)")
    slow = median(t["slowdown"] for t in trials)
    print(f"  times are scaled to a quiet machine; this one ran {slow:.3f}x slower "
          f"(as measured: journey_ms_p50 {pooled_ms(trials, 0.50, scaled=False):.4f} ms)")
    metrics, units = e2e, END_TO_END

    if trace:
        traced = spawn_trial(
            workload, seed, journeys, shape.history_points, True, deadline
        )
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics, units = per_layer(trials, traced, e2e), PER_LAYER
        print(f"per layer (traced trial, {traced['attempted']} journeys; "
              f"spans in {traced['trace_file']})")
        for name, unit in PER_LAYER.items():
            print(f"  {name:34s} {metrics[name]:14.4f} {unit}")
        explained = " + ".join(traced["budget"])
        print(f"  budget: journey_ms_p50 ~ {explained}")

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help=f"scales the fixed journey counts (sized for {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced trial; print per-layer")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixture, one trial: the tier-1 smoke shape")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"benchmarks.e2e: no program to measure at {SRC}", file=sys.stderr)
        return 2

    stamp = machine_stamp()
    print("machine " + "  ".join(f"{k}={v}" for k, v in stamp.items()))
    print("shape closed loop, one driver thread, one connection; fixed journey "
          "counts; PYTHONHASHSEED=0; WAL " + FLUSH_POLICY)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     SMOKE if args.smoke else FULL)
    except TrialFailed as exc:
        print(f"benchmarks.e2e: {exc}; no numbers", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0
