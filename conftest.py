"""Repo-root pytest options (``tests/`` and ``benchmarks/`` share them)."""

import sys
from pathlib import Path

# tests/ import the frozen seed executor and its aggregation oracle from
# benchmarks/test_query_throughput.py, also when run without benchmarks/.
sys.path.insert(0, str(Path(__file__).resolve().parent / "benchmarks"))


def pytest_addoption(parser):
    parser.addoption(
        "--bench-record",
        action="store_true",
        help="let the benchmarks rewrite BENCH_ingest.json (make bench* and "
        "CI's bench job pass it; a plain test run leaves the tree clean)",
    )
