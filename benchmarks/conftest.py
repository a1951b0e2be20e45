"""Shared fixtures for the per-figure/table benchmark harness.

Every benchmark regenerates the data behind one figure or table of the
paper and (a) asserts the qualitative *shape* the paper reports and
(b) measures the hot code path with pytest-benchmark.  Expensive
ecosystem builds are session-scoped.
"""

from __future__ import annotations

import numpy as np
import pytest

import bench_io
from repro.core import (
    CttEcosystem,
    EcosystemConfig,
    backfill_history,
    trondheim_deployment,
    vejle_deployment,
)
from repro.simclock import CTT_EPOCH, DAY, HOUR


def pytest_configure(config):
    bench_io.recording = config.getoption("--bench-record")


@pytest.fixture(scope="session")
def live_ecosystem():
    """Both cities after 6 live hours (radio-accurate path)."""
    eco = CttEcosystem(
        [trondheim_deployment(), vejle_deployment()],
        config=EcosystemConfig(seed=17, shadowing_sigma_db=4.0),
    )
    eco.start()
    eco.run(6 * HOUR)
    return eco


@pytest.fixture(scope="module")
def history_ecosystem():
    """Vejle with 14 days of hourly backfilled history.

    Module-scoped on purpose: some benchmarks write synthetic events
    into the history (the demo's injection), which must not leak into
    other figures' analyses.
    """
    eco = CttEcosystem([vejle_deployment()], config=EcosystemConfig(seed=23))
    city = eco.city("vejle")
    start = CTT_EPOCH
    end = start + 14 * DAY
    backfill_history(city, start, end, cadence_s=HOUR)
    return eco, city, start, end


def report(title: str, rows: list[tuple]) -> None:
    """Print a paper-style table into the benchmark output."""
    print(f"\n--- {title} ---")
    for row in rows:
        print("  " + "  ".join(str(c) for c in row))
