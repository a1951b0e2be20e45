"""End-to-end benchmark of the two journeys that matter to the people
who run the platform: one sensor uplink becoming queryable (and safe on
the standby), and one dashboard refresh.  See README.md in this
directory for the workloads, the metrics and the run shape.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: The program under measurement.
SRC = ROOT / "src"
#: Where WAL directories, traces and run logs go — inside the
#: benchmark's own directory, never elsewhere in the tree.
OUT_DIR = Path(__file__).resolve().parent / "out"
