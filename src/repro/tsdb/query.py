"""Query specification and results.

A :class:`Query` mirrors the OpenTSDB HTTP query shape the paper's
Zeppelin dashboards issue: time range + metric + tag filters + cross-series
aggregator + optional downsample + optional rate, with optional group-by
tag keys producing one output series per distinct tag value combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import aggregators
from .downsample import Downsample, InvalidDownsampleSpec
from .model import SeriesKey
from .series import SeriesSlice


class QueryError(ValueError):
    """Malformed query specification."""


def _timestamp(name: str, v) -> int:
    """``start``/``end`` as an exact integer.

    ``int()`` alone would silently reshape the range: ``True`` becomes
    1 (bool is an int subclass) and ``3.9`` truncates to 3.  Integers
    (numpy's too) and integral floats (clients that write every JSON
    number as a float) are exact; everything else is refused.
    """
    if not isinstance(v, bool):
        if isinstance(v, (int, np.integer)):
            return int(v)
        if isinstance(v, float) and v.is_integer():
            return int(v)
    raise QueryError(
        f"{name!r} must be an integer timestamp, got {v!r} ({type(v).__name__})"
    )


@dataclass(frozen=True, eq=False)
class Query:
    """Declarative query against the TSDB, normalized once at
    construction: this is the one place that knows what identifies a
    query.

    Parameters
    ----------
    metric:
        Metric name to read.
    start, end:
        Inclusive epoch-second range; stored as exact ``int``.
    tags:
        Tag filters; values support ``"*"`` and ``"a|b"`` alternation.
        Stored as a read-only mapping sorted by key.
    aggregator:
        How to combine multiple matched series at each instant.
    downsample:
        Optional spec string like ``"5m-avg"`` or a :class:`Downsample`;
        stored parsed, so ``"5m-avg"`` and ``"300s-avg"`` are the same
        query.
    rate:
        Emit the per-second first derivative instead of raw values
        (used for counter metrics such as cumulative traffic counts).
    group_by:
        Tag keys whose distinct value combinations each produce their
        own output series instead of being merged together.  Stored as
        a sorted tuple.

    Two identities are fields computed here: :attr:`filter` (the
    metric and its sorted tag pairs: what the query matches series by)
    and :attr:`panel` (the query minus its window).  Two queries are
    equal when their panels and windows are, and the hash is taken
    once.
    """

    metric: str
    start: int
    end: int
    tags: Mapping[str, str] = field(default_factory=dict)
    aggregator: str = "avg"
    downsample: Downsample | None = None
    rate: bool = False
    group_by: tuple[str, ...] = ()
    filter: tuple = field(init=False, repr=False)
    panel: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Fail fast: a malformed query should die where it was written,
        # not deep inside plan execution (or worse, inside a batch that
        # interleaves it with eleven healthy dashboard panels).
        metric, tags, group_by, ds = (
            self.metric, self.tags, self.group_by, self.downsample
        )
        if not isinstance(metric, str) or not metric:
            raise QueryError(f"metric must be a non-empty string: {metric!r}")
        start, end = self.start, self.end
        if type(start) is not int:
            start = _timestamp("start", start)
        if type(end) is not int:
            end = _timestamp("end", end)
        if end < start:
            raise QueryError(f"end ({end}) precedes start ({start})")
        # plain loops and an exact-dict fast path: this runs for every
        # query a request decodes
        if type(tags) is not dict and not isinstance(tags, Mapping):
            raise QueryError(f"tags must map strings to strings: {tags!r}")
        for k, v in tags.items():
            if not (isinstance(k, str) and isinstance(v, str)):
                raise QueryError(f"tags must map strings to strings: {tags!r}")
        if not isinstance(group_by, (list, tuple)):
            raise QueryError(
                f"group_by must be a list or tuple of tag keys: {group_by!r}"
            )
        for g in group_by:
            if not isinstance(g, str):
                raise QueryError(
                    f"group_by must be a list or tuple of tag keys: {group_by!r}"
                )
        if not isinstance(self.aggregator, str):
            raise QueryError(f"aggregator must be a string: {self.aggregator!r}")
        try:
            aggregators.lookup(self.aggregator)
        except aggregators.UnknownAggregator as exc:
            raise QueryError(str(exc)) from None
        if isinstance(ds, str):
            try:
                ds = Downsample.parse(ds)
            except InvalidDownsampleSpec as exc:
                raise QueryError(str(exc)) from None
        elif ds is not None and not isinstance(ds, Downsample):
            raise QueryError(
                f"downsample must be a spec string like '5m-avg': {ds!r}"
            )
        if type(self.rate) is not bool:
            raise QueryError(f"rate must be a boolean: {self.rate!r}")
        pairs = tuple(sorted(tags.items()))
        group_by = tuple(sorted(group_by))
        filter_ = (metric, pairs)
        panel = (filter_, self.aggregator, ds, self.rate, group_by)
        # past the frozen __setattr__, in one call
        self.__dict__.update(
            start=start,
            end=end,
            tags=MappingProxyType(dict(pairs)),
            downsample=ds,
            group_by=group_by,
            filter=filter_,
            panel=panel,
            _hash=hash((panel, start, end)),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return (
            self.start == other.start
            and self.end == other.end
            and self.panel == other.panel
        )

    def __hash__(self) -> int:
        return self._hash


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
