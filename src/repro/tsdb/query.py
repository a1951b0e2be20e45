"""Query specification and results.

A :class:`Query` mirrors the OpenTSDB HTTP query shape the paper's
Zeppelin dashboards issue: time range + metric + tag filters + cross-series
aggregator + optional downsample + optional rate, with optional group-by
tag keys producing one output series per distinct tag value combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import aggregators
from .downsample import Downsample, InvalidDownsampleSpec
from .model import SeriesKey
from .series import SeriesSlice


class QueryError(ValueError):
    """Malformed query specification."""


@dataclass(frozen=True)
class Query:
    """Declarative query against the TSDB.

    Parameters
    ----------
    metric:
        Metric name to read.
    start, end:
        Inclusive epoch-second range.
    tags:
        Tag filters; values support ``"*"`` and ``"a|b"`` alternation.
    aggregator:
        How to combine multiple matched series at each instant.
    downsample:
        Optional spec string like ``"5m-avg"`` or a parsed
        :class:`Downsample`.
    rate:
        Emit the per-second first derivative instead of raw values
        (used for counter metrics such as cumulative traffic counts).
    group_by:
        Tag keys whose distinct value combinations each produce their
        own output series instead of being merged together.
    """

    metric: str
    start: int
    end: int
    tags: Mapping[str, str] = field(default_factory=dict)
    aggregator: str = "avg"
    downsample: str | Downsample | None = None
    rate: bool = False
    group_by: Sequence[str] = ()

    def __post_init__(self) -> None:
        # Fail fast: a malformed query should die where it was written,
        # not deep inside plan execution (or worse, inside a batch that
        # interleaves it with eleven healthy dashboard panels).
        if not isinstance(self.metric, str) or not self.metric:
            raise QueryError(f"metric must be a non-empty string: {self.metric!r}")
        if self.end < self.start:
            raise QueryError(f"end ({self.end}) precedes start ({self.start})")
        # plain loops and an exact-dict fast path: this runs for every
        # query a request decodes
        if type(self.tags) is not dict and not isinstance(self.tags, Mapping):
            raise QueryError(f"tags must map strings to strings: {self.tags!r}")
        for k, v in self.tags.items():
            if not (isinstance(k, str) and isinstance(v, str)):
                raise QueryError(f"tags must map strings to strings: {self.tags!r}")
        if not isinstance(self.group_by, (list, tuple)):
            raise QueryError(
                f"group_by must be a list or tuple of tag keys: {self.group_by!r}"
            )
        for g in self.group_by:
            if not isinstance(g, str):
                raise QueryError(
                    f"group_by must be a list or tuple of tag keys: {self.group_by!r}"
                )
        try:
            aggregators.lookup(self.aggregator)
        except aggregators.UnknownAggregator as exc:
            raise QueryError(str(exc)) from None
        if isinstance(self.downsample, str):
            try:
                Downsample.parse(self.downsample)
            except InvalidDownsampleSpec as exc:
                raise QueryError(str(exc)) from None

    def parsed_downsample(self) -> Downsample | None:
        if self.downsample is None:
            return None
        if isinstance(self.downsample, Downsample):
            return self.downsample
        return Downsample.parse(self.downsample)


@dataclass(frozen=True)
class ResultSeries:
    """One output series of a query."""

    metric: str
    group_tags: Mapping[str, str]
    slice: SeriesSlice
    source_series: tuple[SeriesKey, ...] = ()

    @property
    def timestamps(self) -> np.ndarray:
        return self.slice.timestamps

    @property
    def values(self) -> np.ndarray:
        return self.slice.values

    def __len__(self) -> int:
        return len(self.slice)

    def label(self) -> str:
        if not self.group_tags:
            return self.metric
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.group_tags.items()))
        return f"{self.metric}{{{inner}}}"


@dataclass(frozen=True)
class QueryResult:
    """All series produced by one query, plus bookkeeping."""

    query: Query
    series: tuple[ResultSeries, ...]
    scanned_points: int

    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self):
        return iter(self.series)

    def single(self) -> ResultSeries:
        """The only series of an ungrouped query; raises if ambiguous."""
        if len(self.series) != 1:
            raise QueryError(
                f"expected exactly one result series, got {len(self.series)}"
            )
        return self.series[0]

    def is_empty(self) -> bool:
        return all(len(s) == 0 for s in self.series)


def compute_rate(slice_: SeriesSlice) -> SeriesSlice:
    """Per-second first derivative of a sorted slice.

    Emits one point per consecutive pair, timestamped at the later point.
    Negative deltas (counter resets) become 0, mirroring OpenTSDB's
    counter handling.
    """
    if len(slice_) < 2:
        return SeriesSlice(np.empty(0, np.int64), np.empty(0, np.float64))
    dt = np.diff(slice_.timestamps).astype(np.float64)
    dv = np.diff(slice_.values)
    valid = dt > 0
    rate = np.full(dv.shape, np.nan)
    rate[valid] = dv[valid] / dt[valid]
    rate = np.where(rate < 0, 0.0, rate)
    return SeriesSlice(slice_.timestamps[1:][valid], rate[valid])
