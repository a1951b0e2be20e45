"""Shared ``BENCH_ingest.json`` I/O for the benchmark suite.

Every benchmark records its numbers in one repo-root JSON file so
successive PRs can diff performance.  The file is shared, so writers
must be good neighbours: each updates **only its own section**, leaves
every other key byte-for-byte untouched, and preserves key order (an
existing section updates in its original position, a new one appends at
the end — ``json.loads``/``dumps`` keep insertion order).  Route every
write through :func:`update_section` instead of hand-rolling the
read-modify-write.

The file is rewritten only under ``pytest --bench-record`` (what the
``make bench*`` targets and CI's bench job pass); without it the
benchmarks still run and assert, and the working tree stays clean.
"""

from __future__ import annotations

import json
from pathlib import Path

#: The shared benchmark report at the repo root.
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_ingest.json"

#: Set once per session by ``benchmarks/conftest.py`` from ``--bench-record``.
recording = False

__all__ = ["RESULT_PATH", "read_results", "update_section"]


def read_results(path: Path = RESULT_PATH) -> dict:
    """The current report (``{}`` before the first benchmark runs)."""
    return json.loads(path.read_text()) if path.exists() else {}


def _write(existing: dict, path: Path) -> None:
    if recording:
        path.write_text(json.dumps(existing, indent=2) + "\n")


def _deep_merge(target: dict, payload: dict) -> None:
    for key, value in payload.items():
        if isinstance(value, dict) and isinstance(target.get(key), dict):
            _deep_merge(target[key], value)
        else:
            target[key] = value


def update_section(
    section: str,
    payload: dict,
    *,
    merge: bool = False,
    path: Path = RESULT_PATH,
) -> dict:
    """Replace (or with ``merge=True``, deep-merge into) one top-level
    section, leaving every other section untouched and in place.

    Merging is for parametrized benchmarks that accumulate sub-keys
    across runs (e.g. ``region_fanin.cities.<n>``); replacement is the
    default so a re-run never leaves stale fields behind.  Returns the
    full report as written.
    """
    existing = read_results(path)
    if merge and isinstance(existing.get(section), dict):
        _deep_merge(existing[section], payload)
    else:
        existing[section] = payload
    _write(existing, path)
    return existing

