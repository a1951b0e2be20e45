"""Parent / change pair runs of the end-to-end benchmark:
``python -m benchmarks.pairs --parent REF --workload W --pairs N``.

The house rule of every performance change, as one command.  The parent
commit is unpacked (``git archive``) into a temporary directory that is
removed afterwards; pair *i* runs ``python3 -m benchmarks.e2e --workload
W --seed S`` once in each tree with the same seed ``S = first seed + i``,
and which side goes first alternates pair by pair, so a drift of the
machine lands on both.  Per end-to-end metric of ``BENCHMARK.json`` it
prints each side's median and quartiles, the pairs the change won, tied
and lost, and a verdict:

- *unresolved* — the parent's own runs spread (inter-quartile distance)
  wider than the metric's bound, unless every run of the change reads
  better than every run of the parent;
- *worse* — the change's median is worse than the parent's by more than
  the bound;
- *better* — of at least ten pairs the change won nine tenths or more
  (ties count for neither side) and the medians are further apart than
  the parent's inter-quartile distance;
- *unchanged* — none of the above.

A run that is not ``correct`` or has failed journeys stops the session.
Exit status is 1 if any metric reads *worse*.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]


def run_once(tree: Path, workload: str, seed: int) -> dict[str, float]:
    """One benchmark run in ``tree``: its end-to-end metric values."""
    proc = subprocess.run(
        ["python3", "-m", "benchmarks.e2e", "--workload", workload,
         "--seed", str(seed)],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(
            f"{tree}: {workload} seed {seed}: correct={result['correct']} "
            f"failed={result['failed']}"
        )
    return {name: m["value"] for name, m in result["metrics"].items()}


def unpack(ref: str, into: Path) -> None:
    """The committed files of ``ref``, as a plain directory."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT,
        stdout=subprocess.PIPE, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, median(values), q3


def verdict(
    parent: list[float], change: list[float], *, lower_is_better: bool, bound: float
) -> tuple[str, int, int]:
    """(verdict, pairs won by the change, pairs tied)."""
    sign = 1.0 if lower_is_better else -1.0  # so that smaller is better
    p = [sign * v for v in parent]
    c = [sign * v for v in change]
    wins = sum(b < a for a, b in zip(p, c))
    ties = sum(b == a for a, b in zip(p, c))
    q1, mid, q3 = quartiles(p)
    allowed = bound * abs(mid)
    gap = mid - median(c)  # > 0: the change is better
    if q3 - q1 > allowed and not max(c) < min(p):
        return "unresolved", wins, ties
    if -gap > allowed:
        return "worse", wins, ties
    decided = len(p) - ties
    if len(p) >= 10 and decided and wins >= 0.9 * decided and gap > q3 - q1:
        return "better", wins, ties
    return "unchanged", wins, ties


def run_pairs(
    parent: Path, change: Path, workload: str, pairs: int, first_seed: int
) -> dict[str, tuple[list[float], list[float]]]:
    """``pairs`` alternating runs; metric -> (parent values, change values)."""
    samples: dict[str, tuple[list[float], list[float]]] = {}
    for i in range(pairs):
        seed = first_seed + i
        sides = [(0, parent), (1, change)]
        if i % 2:
            sides.reverse()
        for side, tree in sides:
            for name, value in run_once(tree, workload, seed).items():
                samples.setdefault(name, ([], []))[side].append(value)
        print(
            f"pair {i + 1}/{pairs} seed {seed} "
            f"({'change' if i % 2 else 'parent'} first): "
            + "  ".join(
                f"{name} {p[-1]:.4g} -> {c[-1]:.4g}"
                for name, (p, c) in samples.items()
            ),
            flush=True,
        )
    return samples


def report(samples, spec: dict[str, dict], workload: str) -> bool:
    """Print the table; True if any metric reads *worse*."""
    any_worse = False
    print(f"\n{workload}: parent -> change, median [quartiles]")
    for name, (p, c) in samples.items():
        m = spec[name]
        what, wins, ties = verdict(
            p, c, lower_is_better=m["better"] == "lower", bound=m["bound"]
        )
        any_worse |= what == "worse"
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        print(
            f"  {name:20s} {pm:10.4f} [{p1:.4f}-{p3:.4f}] -> "
            f"{cm:10.4f} [{c1:.4f}-{c3:.4f}] {m['unit']:4s} "
            f"won {wins} tied {ties} of {len(p)}  bound {m['bound']:.1%}  "
            f"{what}"
        )
        print(f"    parent: {' '.join(f'{v:.4g}' for v in p)}")
        print(f"    change: {' '.join(f'{v:.4g}' for v in c)}")
    return any_worse


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    parser = argparse.ArgumentParser(prog="python -m benchmarks.pairs")
    parser.add_argument("--parent", required=True,
                        help="git ref of the commit to compare against")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="pair i runs seed first-seed + i on both sides")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("need at least one pair")
    spec = {m["name"]: m for m in benchmark["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as tmp:
        unpack(args.parent, Path(tmp))
        samples = run_pairs(
            Path(tmp), ROOT, args.workload, args.pairs, args.first_seed
        )
    return 1 if report(samples, spec, args.workload) else 0


if __name__ == "__main__":
    sys.exit(main())
