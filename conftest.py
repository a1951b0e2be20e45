"""Repo-root pytest options (``tests/`` and ``benchmarks/`` share them)."""

import sys
from pathlib import Path

# benchmarks/test_query_throughput.py times the frozen seed executor of
# tests/seed_executor.py on the feed of tests/test_tsdb_batch.py, also
# when run without tests/.
sys.path.insert(0, str(Path(__file__).resolve().parent / "tests"))


def pytest_addoption(parser):
    parser.addoption(
        "--bench-record",
        action="store_true",
        help="let the benchmarks rewrite BENCH_ingest.json (make bench* and "
        "CI's bench job pass it; a plain test run leaves the tree clean)",
    )
