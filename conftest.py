"""Repo-root pytest options (``tests/`` and ``benchmarks/`` share them)."""


def pytest_addoption(parser):
    parser.addoption(
        "--bench-record",
        action="store_true",
        help="let the benchmarks rewrite BENCH_ingest.json (make bench* and "
        "CI's bench job pass it; a plain test run leaves the tree clean)",
    )
