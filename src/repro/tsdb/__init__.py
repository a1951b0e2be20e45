"""A from-scratch time-series database standing in for OpenTSDB.

Data model: points are ``(metric, timestamp, value, tags)``; a series is
one metric + tag combination.  Queries support tag filtering (exact,
``*``, ``a|b``), cross-series aggregation, group-by, rate, and
downsampling with gap-fill policies; the declarative :class:`Query`
surface executes through one batched planner (:mod:`~repro.tsdb.plan`)
and speaks a versioned OpenTSDB-style JSON wire format
(:mod:`~repro.tsdb.wire`).
Persistence is an append-only WAL
with snapshot compaction in columnar segments, the one durable format
(see :mod:`~repro.tsdb.segments`) — and retention optionally rolls old
raw data up into coarser series.

This module re-exports what other packages, the benchmarks and the
examples import; everything else is imported from its submodule.
"""

from .batch import BatchBuilder, PointBatch, run_boundaries
from .database import TSDB, ShardedTSDB
from .interface import TimeSeriesStore
from .model import (
    METRIC_BATTERY,
    METRIC_CO2,
    METRIC_HUMIDITY,
    METRIC_JAM_FACTOR,
    METRIC_NO2,
    METRIC_PM10,
    METRIC_PM25,
    METRIC_PRESSURE,
    METRIC_TEMPERATURE,
    DataPoint,
    SeriesKey,
)
from .persistence import dumps, load, snapshot
from .query import Query, QueryError, ResultSeries
from .segments import SegmentCorruption, SegmentWriter, segment_stats
from .tier import DurableStore, compact_log
from .wire import WireError

__all__ = [
    "BatchBuilder",
    "DataPoint",
    "DurableStore",
    "METRIC_BATTERY",
    "METRIC_CO2",
    "METRIC_HUMIDITY",
    "METRIC_JAM_FACTOR",
    "METRIC_NO2",
    "METRIC_PM10",
    "METRIC_PM25",
    "METRIC_PRESSURE",
    "METRIC_TEMPERATURE",
    "PointBatch",
    "Query",
    "QueryError",
    "ResultSeries",
    "SegmentCorruption",
    "SegmentWriter",
    "SeriesKey",
    "ShardedTSDB",
    "TSDB",
    "TimeSeriesStore",
    "WireError",
    "compact_log",
    "dumps",
    "load",
    "run_boundaries",
    "segment_stats",
    "snapshot",
]
