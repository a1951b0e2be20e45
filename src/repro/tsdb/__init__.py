"""A from-scratch time-series database standing in for OpenTSDB.

Data model: points are ``(metric, timestamp, value, tags)``; a series is
one metric + tag combination.  Queries support tag filtering (exact,
``*``, ``a|b``), cross-series aggregation, group-by, rate, and
downsampling with gap-fill policies; the declarative :class:`Query`
surface (plus the fluent :func:`select` builder and :func:`expr`
arithmetic expression queries) executes through one batched planner
(:mod:`~repro.tsdb.plan`) on single and sharded stores, and speaks a
versioned OpenTSDB-style JSON wire format (:mod:`~repro.tsdb.wire`).
Persistence is an append-only WAL
with snapshot compaction in binary columnar segments (see
:mod:`~repro.tsdb.segments`; a human-readable line protocol survives as
the import / export codec, and every read auto-detects it) — and
retention optionally rolls old raw data up into coarser series.
"""

from . import aggregators
from .batch import BatchBuilder, PointBatch, run_boundaries
from .catalog import CardinalityLimitError, MergedCatalog, SeriesCatalog
from .database import TSDB, execute_query
from .downsample import Downsample, FillPolicy, InvalidDownsampleSpec
from .interface import TimeSeriesStore
from .model import (
    ALL_AIR_METRICS,
    ALL_WEATHER_METRICS,
    METRIC_BATTERY,
    METRIC_CO2,
    METRIC_HUMIDITY,
    METRIC_JAM_FACTOR,
    METRIC_NO2,
    METRIC_PM10,
    METRIC_PM25,
    METRIC_PRESSURE,
    METRIC_TEMPERATURE,
    METRIC_TRAFFIC_COUNT,
    DataPoint,
    InvalidName,
    SeriesKey,
    validate_name,
)
from .persistence import (
    DeleteBefore,
    DeleteSeriesBefore,
    LogCorruption,
    LogWriter,
    convert_log,
    detect_format,
    dumps,
    format_delete_before,
    format_delete_series_before,
    format_point,
    iter_batches,
    iter_entries,
    iter_log,
    load,
    parse_entry,
    parse_line,
    snapshot,
)
from .segments import (
    SegmentCorruption,
    SegmentStats,
    SegmentWriter,
    decode_block,
    decode_frame,
    frame_block,
    iter_segments,
    parse_series_key,
    segment_point_count,
    segment_stats,
)
from .tier import (
    ColdShardPager,
    CompactionPolicy,
    CompactionResult,
    Compactor,
    DurableStore,
    Tier,
    TierPolicy,
    TierReport,
    compact_dir,
    compact_log,
)
from .plan import (
    ExprQuery,
    ExprResult,
    QueryBuilder,
    expr,
    run_batch,
    select,
)
from .query import Query, QueryError, QueryResult, ResultSeries, compute_rate
from .retention import PerShardRetention, RetentionPolicy, RolledUp
from .wire import (
    WIRE_VERSION,
    CatalogRequest,
    RemoteQueryError,
    WireError,
    WireResult,
    WireSeries,
    encode_catalog_request,
    encode_error,
    handle_catalog_request,
    handle_request,
)
from .series import SeriesSlice, SeriesStore, merge_slices
from .sharded import ShardedTSDB, shard_for_key

__all__ = [
    "ALL_AIR_METRICS",
    "ALL_WEATHER_METRICS",
    "BatchBuilder",
    "CardinalityLimitError",
    "CatalogRequest",
    "ColdShardPager",
    "CompactionPolicy",
    "CompactionResult",
    "Compactor",
    "DataPoint",
    "DeleteBefore",
    "DeleteSeriesBefore",
    "Downsample",
    "DurableStore",
    "ExprQuery",
    "ExprResult",
    "FillPolicy",
    "InvalidDownsampleSpec",
    "InvalidName",
    "LogCorruption",
    "LogWriter",
    "METRIC_BATTERY",
    "METRIC_CO2",
    "METRIC_HUMIDITY",
    "METRIC_JAM_FACTOR",
    "METRIC_NO2",
    "METRIC_PM10",
    "METRIC_PM25",
    "METRIC_PRESSURE",
    "METRIC_TEMPERATURE",
    "METRIC_TRAFFIC_COUNT",
    "MergedCatalog",
    "PerShardRetention",
    "PointBatch",
    "Query",
    "QueryBuilder",
    "RemoteQueryError",
    "QueryError",
    "QueryResult",
    "ResultSeries",
    "RetentionPolicy",
    "RolledUp",
    "SegmentCorruption",
    "SegmentStats",
    "SegmentWriter",
    "SeriesCatalog",
    "SeriesKey",
    "SeriesSlice",
    "SeriesStore",
    "ShardedTSDB",
    "TSDB",
    "Tier",
    "TierPolicy",
    "TierReport",
    "TimeSeriesStore",
    "WIRE_VERSION",
    "WireError",
    "WireResult",
    "WireSeries",
    "aggregators",
    "compact_dir",
    "compact_log",
    "compute_rate",
    "convert_log",
    "decode_block",
    "decode_frame",
    "detect_format",
    "dumps",
    "frame_block",
    "encode_catalog_request",
    "encode_error",
    "execute_query",
    "expr",
    "handle_catalog_request",
    "handle_request",
    "format_delete_before",
    "format_delete_series_before",
    "format_point",
    "iter_batches",
    "iter_entries",
    "iter_log",
    "iter_segments",
    "load",
    "merge_slices",
    "parse_entry",
    "parse_line",
    "parse_series_key",
    "run_batch",
    "run_boundaries",
    "select",
    "segment_point_count",
    "segment_stats",
    "shard_for_key",
    "snapshot",
    "validate_name",
]
