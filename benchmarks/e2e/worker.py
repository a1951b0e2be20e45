"""One trial: build the fixture, drive one workload, check every
output, report.  Run as a fresh subprocess per trial by
``python -m benchmarks.e2e`` (``PYTHONHASHSEED=0``, default GC, one
``gc.collect()`` at ready); the smoke test calls :func:`run_trial`
in-process.

A trial whose end-of-trial check fails exits non-zero and prints no
numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

from . import OUT_DIR


def run_trial(
    workload: str,
    seed: int,
    journeys: int,
    *,
    history_points: int,
    trace: bool = False,
    spawned_at: int | None = None,
) -> dict:
    """Run one trial and return its numbers (see the keys below).

    ``spawned_at`` is the parent's ``time.monotonic_ns()`` just before
    it started this process, so that the set-up covers interpreter
    start-up and imports; in-process callers leave it out.
    """
    entered = time.monotonic_ns()
    # Imported here, not at the top: importing the program is a set-up
    # step, timed like the others.
    from .calibrate import Speedometer

    meter = Speedometer(entered if spawned_at is None else spawned_at)
    meter.step("interpreter")
    from . import fixture
    from .spans import Tracer
    from .workloads import WORKLOADS

    meter.step("import")

    tracer = Tracer() if trace else None
    stack = fixture.build(seed, meter, history_points=history_points, tracer=tracer)

    def ready() -> None:
        gc.collect()
        meter.step("warmup")

    try:
        measured = WORKLOADS[workload](stack, seed, journeys, tracer, ready)
        # Before the checks: they build two more copies of the data.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        _end_of_trial_checks(stack)
        shipper = stack.shipper.stats
        follower = stack.follower.stats
    finally:
        stack.teardown()

    result = {
        "workload": workload,
        "seed": seed,
        "attempted": measured.attempted,
        "failed": measured.failed,
        # Times are as measured; the two slowdowns say how much slower
        # than nominal the machine ran beside them (see calibrate.py).
        "journey_ns": measured.journey_ns,
        "busy_ns": measured.busy_ns,
        "slowdown": meter.journey_slowdown,
        "setup_steps_ns": meter.steps,
        "setup_slowdown": meter.setup_slowdown,
        "peak_rss_mb": peak_rss_mb,
        "wal_bytes_per_point": measured.wal_bytes_per_point,
        "counts": {
            **measured.counts,
            "replication.records_resent": shipper.records_resent,
            "replication.duplicates": follower.duplicates,
        },
        "layers": measured.layers,
        "budget": list(measured.budget),
    }
    if tracer is not None:
        path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        with open(path, "w") as fh:
            json.dump(
                {
                    "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "journey"],
                    "layers": measured.layers,
                    "spans": tracer.spans,
                },
                fh,
            )
        result["trace_file"] = str(path)
    return result


def _end_of_trial_checks(stack) -> None:
    """Standby and WAL must both reproduce the primary, byte for byte."""
    from repro.tsdb import ShardedTSDB, dumps, load

    from .fixture import SHARDS
    from .workloads import CheckFailed

    stack.wait_follower()
    primary = dumps(stack.inner, format="binary")
    if dumps(stack.follower_inner, format="binary") != primary:
        raise CheckFailed("follower differs from the primary")
    with ShardedTSDB(SHARDS) as replayed:
        load(stack.durable.wal_path, into=replayed)
        if dumps(replayed, format="binary") != primary:
            raise CheckFailed("WAL replay differs from the primary")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--journeys", type=int, required=True)
    parser.add_argument("--history-points", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=int, required=True)
    args = parser.parse_args(argv)
    result = run_trial(
        args.workload,
        args.seed,
        args.journeys,
        history_points=args.history_points,
        trace=bool(args.trace),
        spawned_at=args.spawned_at,
    )
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
