"""A/A check: ``python -m benchmarks.e2e.aa --sets 2 --runs 5``.

Runs the same commit as alternating sets (run 0 of every set, then
run 1 of every set, ...; run *r* uses seed *r* in every set) and prints,
per workload and end-to-end metric, each set's median and quartiles,
its spread (inter-quartile distance as a share of the median) and the
relative gap between the sets' medians.  Exits non-zero if a gap, or a
spread other than that of ``setup_s``, exceeds the metric's bound in
``BENCHMARK.json`` — the same two tests the benchmark itself has to
pass before any later change is judged by it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from statistics import median, quantiles

from . import OUT_DIR, ROOT
from .cli import WORKLOADS


def run_once(workload: str, seed: int) -> tuple[dict, float]:
    """One full benchmark run; returns its metrics and wall seconds."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} journeys failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, time.monotonic() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.aa")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    args = parser.parse_args(argv)
    if args.sets < 2 or args.runs < 2:
        parser.error("need at least two sets of two runs")

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    # samples[workload][metric][set] -> one value per run
    samples = {
        w: {name: [[] for _ in range(args.sets)] for name in spec}
        for w in args.workloads
    }
    wall: list[float] = []
    for run in range(args.runs):
        for s in range(args.sets):
            for workload in args.workloads:
                values, seconds = run_once(workload, seed=run)
                wall.append(seconds)
                for name in spec:
                    samples[workload][name][s].append(values[name])
                print(f"run {run} set {s} {workload}: {seconds:.1f} s", flush=True)

    over = 0
    print(f"\n{'workload':17s} {'metric':20s} set {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'gap':>7s} {'bound':>6s}")
    for workload in args.workloads:
        for name, metric in spec.items():
            sets = samples[workload][name]
            base = median(sets[0])
            for s, values in enumerate(sets):
                q1, _, q3 = quantiles(values, n=4)
                mid = median(values)
                spread = (q3 - q1) / mid
                gap = abs(mid - base) / base
                flag = ""
                if gap > metric["bound"] or (
                    name != "setup_s" and spread > metric["bound"]
                ):
                    over += 1
                    flag = "  OVER"
                print(f"{workload:17s} {name:20s} {s:3d} {mid:12.4f} {q1:12.4f} "
                      f"{q3:12.4f} {spread:7.4f} {gap:7.4f} {metric['bound']:6.3f}{flag}")

    print(f"\nwall seconds per run: median {median(wall):.1f}, max {max(wall):.1f}")
    OUT_DIR.mkdir(exist_ok=True)
    log = OUT_DIR / f"aa-{int(time.time())}.json"
    with open(log, "w") as fh:
        json.dump({"samples": samples, "wall_s": wall}, fh)
    print(f"samples written to {log}")
    if over:
        print(f"{over} metric/set pairs over their bound")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
