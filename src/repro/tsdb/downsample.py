"""Downsampling: collapsing raw points into fixed-width time buckets.

A downsample spec is written OpenTSDB-style as ``"<width>-<agg>[-<fill>]"``,
e.g. ``"5m-avg"``, ``"1h-max-nan"``, ``"15m-avg-linear"``.  Buckets are
aligned to multiples of the width from the epoch; the bucket timestamp is
its *start*.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import aggregators
from .series import SeriesSlice

_SPEC_RE = re.compile(r"^(\d+)(s|m|h|d)-([a-z0-9]+)(?:-([a-z]+))?$")
_UNIT_SECONDS = {"s": 1, "m": 60, "h": 3600, "d": 86400}

#: Gap-filling materializes every bucket in the range; cap it so a typo'd
#: query fails fast instead of exhausting memory (10M buckets ≈ 160 MB).
MAX_FILLED_BUCKETS = 10_000_000


class FillPolicy(Enum):
    """What to emit for buckets containing no raw points."""

    NONE = "none"  # omit the bucket entirely
    NAN = "nan"  # emit NaN
    ZERO = "zero"  # emit 0.0
    PREVIOUS = "previous"  # carry the last seen bucket value forward
    LINEAR = "linear"  # linearly interpolate between neighbours


class InvalidDownsampleSpec(ValueError):
    """Downsample spec string does not parse."""


@dataclass(frozen=True, slots=True)
class Downsample:
    """Parsed downsample: bucket width (s), aggregator name, fill policy."""

    width: int
    agg: str
    fill: FillPolicy = FillPolicy.NONE

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise InvalidDownsampleSpec(f"width must be positive: {self.width}")
        try:
            aggregators.lookup(self.agg)  # validate eagerly
        except aggregators.UnknownAggregator as exc:
            raise InvalidDownsampleSpec(str(exc)) from None

    @classmethod
    @lru_cache(maxsize=256)  # pure in the string; a raise is not kept
    def parse(cls, spec: str) -> "Downsample":
        """Parse ``"5m-avg"`` / ``"1h-max-nan"`` style specs."""
        m = _SPEC_RE.match(spec.strip().lower())
        if not m:
            raise InvalidDownsampleSpec(
                f"bad downsample spec {spec!r}; expected e.g. '5m-avg' or '1h-max-nan'"
            )
        number, unit, agg, fill = m.groups()
        width = int(number) * _UNIT_SECONDS[unit]
        policy = FillPolicy(fill) if fill else FillPolicy.NONE
        return cls(width=width, agg=agg, fill=policy)

    def spec(self) -> str:
        base = f"{self.width}s-{self.agg}"
        if self.fill is not FillPolicy.NONE:
            base += f"-{self.fill.value}"
        return base


def apply(
    slice_: SeriesSlice,
    ds: Downsample,
    start: int | None = None,
    end: int | None = None,
) -> SeriesSlice:
    """Downsample a sorted slice: :func:`apply_many` over a batch of one."""
    return apply_many([slice_], ds, start, end)[0]


def apply_many(
    slices: list[SeriesSlice],
    ds: Downsample,
    start: int | None = None,
    end: int | None = None,
) -> list[SeriesSlice]:
    """Downsample sorted slices over one range, all buckets in one pass.

    ``start``/``end`` bound the emitted bucket range; when given with a
    gap-filling policy, empty leading/trailing buckets are emitted too,
    which dashboards rely on for fixed-width windows.

    The slices are trimmed to the bucket range, laid end to end and
    handed to :func:`apply_block`.
    """
    if not slices:
        return []
    w = ds.width
    sparse = ds.fill is FillPolicy.NONE
    if start is not None or end is not None:
        # From the start's bucket to the end itself — or, on a gap-filled
        # grid, to the end of the end's bucket.
        lo = None if start is None else int(start // w) * w
        hi = None if end is None else end if sparse else int(end // w) * w + w - 1
        slices = [s.between(lo, hi) for s in slices]
    return apply_block(
        np.concatenate([s.timestamps for s in slices]),
        np.concatenate([s.values for s in slices]),
        np.cumsum([0] + [len(s) for s in slices]),
        ds,
        start,
        end,
    )


def apply_block(
    timestamps: np.ndarray,
    values: np.ndarray,
    bounds: np.ndarray,
    ds: Downsample,
    start: int | None = None,
    end: int | None = None,
) -> list[SeriesSlice]:
    """Downsample sorted runs laid end to end — run ``i`` is
    ``timestamps[bounds[i]:bounds[i + 1]]`` — all buckets in one pass,
    one slice per run.  Every point must lie in the bucket range of
    ``start``/``end`` (as :func:`apply_many` trims it); ``start``/``end``
    bound the gap-filled grid as there.

    The points are cut into :class:`~repro.tsdb.aggregators.Segments`
    wherever the bucket or the run changes, so a panel grouped by node
    reduces every node's buckets in one pass, whatever the aggregator.
    A segment's reduction reads its own points only, so each run's
    buckets are what they are when it is downsampled alone.
    """
    w = ds.width
    bucket = timestamps // w
    n = bucket.shape[0]
    edge = np.zeros(n + 1, dtype=bool)
    np.not_equal(bucket[1:], bucket[:-1], out=edge[1:n])
    edge[bounds] = True
    starts = np.flatnonzero(edge[:n])
    seg_bucket = bucket[starts]
    reduce = aggregators.lookup(ds.agg).reduce
    seg_vals = reduce(aggregators.Segments(values, starts)) if n else values
    seg_bounds = starts.searchsorted(bounds)

    if ds.fill is FillPolicy.NONE:
        # No gap filling: only occupied buckets are emitted, so work is
        # proportional to the number of points, not the time span.
        keep = ~np.isnan(seg_vals)
        out_ts, out_vals = seg_bucket[keep] * w, seg_vals[keep]
        kept = np.zeros(keep.shape[0] + 1, dtype=np.intp)
        np.cumsum(keep, out=kept[1:])
        kept = kept[seg_bounds]
        return [
            SeriesSlice(out_ts[a:b], out_vals[a:b])
            for a, b in zip(kept[:-1].tolist(), kept[1:].tolist())
        ]
    return [
        _filled(timestamps[p:q], seg_bucket[a:b], seg_vals[a:b], ds, start, end)
        for p, q, a, b in zip(
            bounds[:-1].tolist(), bounds[1:].tolist(),
            seg_bounds[:-1].tolist(), seg_bounds[1:].tolist(),
        )
    ]


def _filled(
    run: np.ndarray,
    seg_bucket: np.ndarray,
    seg_vals: np.ndarray,
    ds: Downsample,
    start: int | None,
    end: int | None,
) -> SeriesSlice:
    """One run's occupied buckets laid on its gap-filled grid (``run``:
    its timestamps)."""
    w = ds.width
    if run.shape[0] == 0 and (start is None or end is None):
        return SeriesSlice(np.empty(0, np.int64), np.empty(0, np.float64))
    lo = run[0] if start is None else start
    hi = run[-1] if end is None else end
    first = int(lo // w)
    n_buckets = int(hi // w) - first + 1
    if n_buckets <= 0:
        return SeriesSlice(np.empty(0, np.int64), np.empty(0, np.float64))
    if n_buckets > MAX_FILLED_BUCKETS:
        raise InvalidDownsampleSpec(
            f"gap-filled downsample would materialize {n_buckets} buckets "
            f"(limit {MAX_FILLED_BUCKETS}); narrow the range or widen the "
            "bucket"
        )
    bucket_ts = (first + np.arange(n_buckets, dtype=np.int64)) * w
    bucket_vals = np.full(n_buckets, np.nan, dtype=np.float64)
    bucket_vals[seg_bucket - first] = seg_vals

    if ds.fill is FillPolicy.ZERO:
        bucket_vals[np.isnan(bucket_vals)] = 0.0
    elif ds.fill is FillPolicy.PREVIOUS:
        bucket_vals = _fill_previous(bucket_vals)
    elif ds.fill is FillPolicy.LINEAR:
        bucket_vals = _fill_linear(bucket_ts, bucket_vals)
    # FillPolicy.NAN leaves NaNs in place.
    return SeriesSlice(bucket_ts, bucket_vals)


def _fill_previous(vals: np.ndarray) -> np.ndarray:
    known = ~np.isnan(vals)
    # Forward-fill: index of the most recent known bucket at each slot.
    # Slots before the first known bucket point at slot 0, which is NaN
    # there by construction, so they stay NaN.
    idx = np.where(known, np.arange(vals.shape[0]), 0)
    np.maximum.accumulate(idx, out=idx)
    return vals[idx]


def _fill_linear(ts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    out = vals.copy()
    known = ~np.isnan(vals)
    if known.sum() >= 2:
        out[~known] = np.interp(ts[~known], ts[known], vals[known])
        # np.interp extrapolates flat beyond the ends; mask those back to NaN
        lo, hi = ts[known][0], ts[known][-1]
        outside = (~known) & ((ts < lo) | (ts > hi))
        out[outside] = np.nan
    return out
