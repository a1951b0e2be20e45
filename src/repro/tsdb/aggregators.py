"""Aggregation functions over aligned series values.

Aggregators serve two roles, mirroring OpenTSDB:

- *cross-series* aggregation: combining the values of several series at
  the same instant (e.g. the city-wide average CO2 across nodes);
- *downsampling* aggregation: collapsing all raw points inside one time
  bucket to a single value.

All scalar functions take a 1-D float array and return a float; NaNs
are ignored (a bucket of all-NaN yields NaN).

Each scalar aggregator also has vectorized forms that the query engine
prefers on the hot path:

- *columnar* (:func:`get_columnar`): takes a ``(n_series, n_instants)``
  matrix, NaN where a series has no point, and reduces down the columns
  in one numpy pass.  This is the public form and the *definition* of
  cross-series aggregation: everything below is tested byte-for-byte
  against it;
- *scattered* (:func:`reduce_cells`): the same reduction over
  :class:`Cells`, the matrix in coordinate form — only the cells that
  hold a point.  This is what the planner runs: battery nodes never
  report on the same second, so the matrix of a city-wide panel is
  mostly NaN and a pass over it costs series × instants where the cells
  cost points.  The folds (avg, sum, dev, count, min, max) accumulate
  straight from the cells; order statistics (median, percentiles,
  first, last) have no fold, so they fill the matrix from the cells
  and run the columnar form.

  min / max fold with ``ufunc.at`` from ±inf.  The float folds (avg,
  sum, dev, count) use ``np.bincount(col, weights=...)``, which starts
  every column at +0.0 and adds its cells in input (row) order — the
  very additions numpy's axis-0 ``sum`` makes over a matrix whose
  missing cells read 0.0, so not a bit changes.  (From two columns
  up: numpy sums a lone column as a contiguous vector, pairwise.  The
  cells keep row order there too, so one instant aggregates the same
  alone as inside a wider window.)  ``np.add.reduceat``
  over time-sorted cells would *not* do: numpy's reduce loop is
  ``first + pairwise_sum(rest)``, unrolled eight ways from eight
  elements up, and regrouping float additions moves the last ulp;

  Masks run only where something is masked.  One pass over the values
  (:func:`_nan_free`) decides per :class:`Cells`, and per grouped call:
  when nothing is NaN no finite mask is built, a column's count is the
  number of its cells and the folds read the values as they lie.  No
  bit moves: ``where(finite, x, missing)`` *is* ``x`` when every cell
  is finite, a count of 1.0s is the exact integer it counts, and a
  masked cell only ever added +0.0 to a column that started at +0.0 —
  so a window without a NaN and a wider one with a NaN elsewhere still
  agree on every column they share.  Which branch runs is chosen by
  the data, and both are held to the columnar definition;
- *grouped* (:func:`grouped`): takes a value column plus ``reduceat``
  segment starts and reduces every segment at once — downsampling's
  per-bucket loop, vectorized.  Segments must be non-empty (NaNs inside
  them are fine); order-statistic aggregators (median, percentiles)
  return None and callers fall back to the scalar loop.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np

Aggregator = Callable[[np.ndarray], float]
#: (n_series, n_instants) matrix -> per-instant 1-D result.
ColumnarAggregator = Callable[[np.ndarray], np.ndarray]
#: (values, segment_starts) -> per-segment 1-D result.
GroupedAggregator = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _nan_safe(fn: Callable[[np.ndarray], np.floating], empty: float = np.nan):
    def agg(values: np.ndarray) -> float:
        if values.size == 0:
            return empty
        finite = values[~np.isnan(values)]
        if finite.size == 0:
            return np.nan
        return float(fn(finite))

    return agg


avg = _nan_safe(np.mean)
total = _nan_safe(np.sum, empty=0.0)
minimum = _nan_safe(np.min)
maximum = _nan_safe(np.max)
median = _nan_safe(np.median)
dev = _nan_safe(lambda v: np.std(v, ddof=0))
first = _nan_safe(lambda v: v[0])
last = _nan_safe(lambda v: v[-1])


def count(values: np.ndarray) -> float:
    """Number of non-NaN values (0.0 for an empty bucket)."""
    if values.size == 0:
        return 0.0
    return float(np.count_nonzero(~np.isnan(values)))


def percentile(q: float) -> Aggregator:
    """Aggregator computing the ``q``-th percentile (0-100)."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100]: {q}")
    return _nan_safe(lambda v: np.percentile(v, q))


_REGISTRY: dict[str, Aggregator] = {
    "avg": avg,
    "mean": avg,
    "sum": total,
    "min": minimum,
    "max": maximum,
    "median": median,
    "dev": dev,
    "std": dev,
    "count": count,
    "first": first,
    "last": last,
    "p50": percentile(50.0),
    "p90": percentile(90.0),
    "p95": percentile(95.0),
    "p99": percentile(99.0),
}


class UnknownAggregator(KeyError):
    """Requested aggregator name is not registered."""


def get(name: str) -> Aggregator:
    """Look up an aggregator by name (e.g. ``"avg"``, ``"p95"``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownAggregator(
            f"unknown aggregator {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def names() -> list[str]:
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Columnar forms: reduce a (n_series, n_instants) matrix down the columns.
# ---------------------------------------------------------------------------


def _mask_empty(out: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    out = np.asarray(out, dtype=np.float64)
    empty = np.all(np.isnan(matrix), axis=0)
    if empty.any():
        out[empty] = np.nan
    return out


def _moments(matrix: np.ndarray):
    """(finite mask, per-column counts, per-column sums): the shared
    first pass of avg/sum/dev."""
    finite = ~np.isnan(matrix)
    return finite, finite.sum(axis=0), np.where(finite, matrix, 0.0).sum(axis=0)


def _sum_of(counts: np.ndarray, sums: np.ndarray) -> np.ndarray:
    out = np.array(sums, dtype=np.float64)
    out[counts == 0] = np.nan
    return out


def _avg_of(counts: np.ndarray, sums: np.ndarray) -> np.ndarray:
    return np.divide(sums, counts, out=np.full(counts.shape, np.nan), where=counts > 0)


def _dev_of(counts: np.ndarray, square_sums: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.sqrt(square_sums / counts)
    out[counts == 0] = np.nan
    return out


def _col_sum(matrix: np.ndarray) -> np.ndarray:
    return _sum_of(*_moments(matrix)[1:])


def _col_avg(matrix: np.ndarray) -> np.ndarray:
    return _avg_of(*_moments(matrix)[1:])


def _col_min(matrix: np.ndarray) -> np.ndarray:
    return _mask_empty(np.where(np.isnan(matrix), np.inf, matrix).min(axis=0), matrix)


def _col_max(matrix: np.ndarray) -> np.ndarray:
    return _mask_empty(np.where(np.isnan(matrix), -np.inf, matrix).max(axis=0), matrix)


def _col_dev(matrix: np.ndarray) -> np.ndarray:
    # Two-pass (center first): the E[x²]-E[x]² shortcut cancels
    # catastrophically for large-offset values (epoch-like series).
    finite, counts, sums = _moments(matrix)
    with np.errstate(invalid="ignore", divide="ignore"):
        centered = np.where(finite, matrix - sums / counts, 0.0)
        square_sums = (centered * centered).sum(axis=0)
    return _dev_of(counts, square_sums)


def _col_count(matrix: np.ndarray) -> np.ndarray:
    return (~np.isnan(matrix)).sum(axis=0).astype(np.float64)


#: Columnar aggregators for which reducing a *single* series is not the
#: identity: ``count`` of one series is 1-where-finite and ``dev`` is
#: 0-where-finite, never the raw values.  ``aggregate_across``'s
#: single-slice shortcut must fall through to the full reduction for
#: these; for every other registered aggregator a lone series is its
#: own aggregate (NaN instants stay NaN) — through :data:`ZERO_FOLDED`
#: for the two that add.
NON_IDENTITY_COLUMNAR = frozenset({_col_count, _col_dev})

#: Columnar aggregators whose aggregate of a lone series is ``0.0 +
#: value``, not the value: numpy's ``sum`` starts every column at +0.0,
#: so a lone −0.0 folds to 0.0 — as it does beside any sibling.  The
#: single-slice shortcut adds the same 0.0, or a refresher's delta scan
#: (siblings empty) and the full window would differ in that one bit.
ZERO_FOLDED = frozenset({_col_avg, _col_sum})


def _col_first(matrix: np.ndarray) -> np.ndarray:
    finite = ~np.isnan(matrix)
    idx = np.argmax(finite, axis=0)
    out = matrix[idx, np.arange(matrix.shape[1])]
    return _mask_empty(out, matrix)


def _col_last(matrix: np.ndarray) -> np.ndarray:
    finite = ~np.isnan(matrix)
    idx = matrix.shape[0] - 1 - np.argmax(finite[::-1], axis=0)
    out = matrix[idx, np.arange(matrix.shape[1])]
    return _mask_empty(out, matrix)


def _col_median(matrix: np.ndarray) -> np.ndarray:
    if np.isnan(matrix).any():
        with np.errstate(invalid="ignore"):
            return np.asarray(_nanquiet(np.nanmedian, matrix), dtype=np.float64)
    return np.median(matrix, axis=0)


def _col_percentile(q: float) -> ColumnarAggregator:
    def columnar(matrix: np.ndarray) -> np.ndarray:
        if np.isnan(matrix).any():
            return np.asarray(
                _nanquiet(np.nanpercentile, matrix, q), dtype=np.float64
            )
        return np.percentile(matrix, q, axis=0)

    return columnar


def _nanquiet(fn, matrix: np.ndarray, *args) -> np.ndarray:
    """Run a nan-reduction silencing the all-NaN-slice RuntimeWarning."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(matrix, *args, axis=0)


_COLUMNAR: dict[str, ColumnarAggregator] = {
    "avg": _col_avg,
    "mean": _col_avg,
    "sum": _col_sum,
    "min": _col_min,
    "max": _col_max,
    "median": _col_median,
    "dev": _col_dev,
    "std": _col_dev,
    "count": _col_count,
    "first": _col_first,
    "last": _col_last,
    "p50": _col_percentile(50.0),
    "p90": _col_percentile(90.0),
    "p95": _col_percentile(95.0),
    "p99": _col_percentile(99.0),
}


def get_columnar(name: str) -> ColumnarAggregator:
    """Columnar form of a registered aggregator (always available)."""
    get(name)  # raise UnknownAggregator consistently
    return _COLUMNAR[name]


# ---------------------------------------------------------------------------
# Scattered forms: the same column reductions over the cells that exist.
# ---------------------------------------------------------------------------


def _nan_free(values: np.ndarray) -> bool:
    return not np.isnan(values).any()


class Cells:
    """A ``(n_series, n_instants)`` matrix in coordinate form.

    Only cells that hold a point are stored: ``values[i]`` sits in column
    ``col[i]``, cells are listed row by row (``lengths[r]`` of them for
    row ``r``) and a row holds at most one cell per column.  Everything
    derived is computed on first use and kept, so aggregators reducing
    the same cells (a dashboard's ``avg`` and ``dev`` panels over one
    metric) share the first pass; each quantity equals, bit for bit,
    what the columnar forms compute from :attr:`matrix`.
    """

    def __init__(
        self,
        lengths: np.ndarray,
        col: np.ndarray,
        values: np.ndarray,
        n_cols: int,
        sizes: np.ndarray,
    ) -> None:
        self.lengths = lengths
        self.col = col
        self.values = values
        self.n_cols = n_cols
        #: Cells per column as float64 — what :attr:`counts` is when no
        #: cell is NaN; whoever aligned the cells has it for free.
        self.sizes = sizes

    def fold(self, weights: np.ndarray) -> np.ndarray:
        """Per-column sum of one weight per cell, added in row order
        from +0.0 (see the module docstring: ``bincount``, not
        ``reduceat``)."""
        return np.bincount(self.col, weights=weights, minlength=self.n_cols)

    @cached_property
    def nan_free(self) -> bool:
        return _nan_free(self.values)

    @cached_property
    def finite(self) -> np.ndarray:
        """Which cells are not NaN; never built while :attr:`nan_free`."""
        return ~np.isnan(self.values)

    def filled(self, missing: float) -> np.ndarray:
        """The values with ``missing`` in place of NaN."""
        if self.nan_free:
            return self.values
        return np.where(self.finite, self.values, missing)

    @cached_property
    def counts(self) -> np.ndarray:
        return self.sizes if self.nan_free else self.fold(self.finite)

    @cached_property
    def sums(self) -> np.ndarray:
        return self.fold(self.filled(0.0))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, NaN where there is no cell."""
        out = np.full((self.lengths.shape[0], self.n_cols), np.nan)
        out[np.repeat(np.arange(self.lengths.shape[0]), self.lengths), self.col] = (
            self.values
        )
        return out


def _sct_sum(cells: Cells) -> np.ndarray:
    return _sum_of(cells.counts, cells.sums)


def _sct_avg(cells: Cells) -> np.ndarray:
    return _avg_of(cells.counts, cells.sums)


def _sct_dev(cells: Cells) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = cells.sums / cells.counts
        centered = cells.values - mean[cells.col]
        if not cells.nan_free:
            centered = np.where(cells.finite, centered, 0.0)
        np.multiply(centered, centered, out=centered)
    return _dev_of(cells.counts, cells.fold(centered))


def _sct_count(cells: Cells) -> np.ndarray:
    return cells.counts.copy()


def _sct_extreme(ufunc: np.ufunc, missing: float):
    def scattered(cells: Cells) -> np.ndarray:
        # ufunc.at folds each column's cells in row order from
        # ``missing``, the value the columnar form puts in empty cells.
        out = np.full(cells.n_cols, missing)
        ufunc.at(out, cells.col, cells.filled(missing))
        if not cells.nan_free:
            out[cells.counts == 0] = np.nan
        return out

    return scattered


_SCATTERED: dict[ColumnarAggregator, Callable[[Cells], np.ndarray]] = {
    _col_avg: _sct_avg,
    _col_sum: _sct_sum,
    _col_dev: _sct_dev,
    _col_count: _sct_count,
    _col_min: _sct_extreme(np.minimum, np.inf),
    _col_max: _sct_extreme(np.maximum, -np.inf),
}


def reduce_cells(agg: ColumnarAggregator, cells: Cells) -> np.ndarray:
    """``agg(cells.matrix)``, bit for bit, without building the matrix
    where ``agg`` is a fold (see the module docstring)."""
    scattered = _SCATTERED.get(agg)
    return agg(cells.matrix) if scattered is None else scattered(cells)


# ---------------------------------------------------------------------------
# Grouped forms: reduce contiguous segments of a value column at once.
# Segments are given by their start offsets (np.reduceat convention) and
# must be non-empty; NaNs within a segment are ignored.
# ---------------------------------------------------------------------------


def segment_lengths(starts: np.ndarray, n: int) -> np.ndarray:
    """Cells per segment, as the float64 a count of them is."""
    lengths = np.empty(starts.shape[0], dtype=np.float64)
    lengths[:-1] = starts[1:]
    lengths[-1:] = n
    lengths -= starts
    return lengths


def _seg_counts(
    values: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray]:
    """(which cells are not NaN, how many per segment) — no mask and the
    segment lengths when nothing is NaN (see the module docstring)."""
    if _nan_free(values):
        return None, segment_lengths(starts, values.shape[0])
    finite = ~np.isnan(values)
    return finite, np.add.reduceat(finite.astype(np.float64), starts)


def _filled(values: np.ndarray, finite: np.ndarray | None, missing: float):
    return values if finite is None else np.where(finite, values, missing)


def _grp_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    finite, counts = _seg_counts(values, starts)
    sums = np.add.reduceat(_filled(values, finite, 0.0), starts)
    sums[counts == 0] = np.nan
    return sums


def _grp_avg(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    finite, counts = _seg_counts(values, starts)
    return _avg_of(counts, np.add.reduceat(_filled(values, finite, 0.0), starts))


def _grp_extreme(ufunc: np.ufunc, missing: float) -> GroupedAggregator:
    def grouped(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        finite, counts = _seg_counts(values, starts)
        out = ufunc.reduceat(_filled(values, finite, missing), starts)
        out[counts == 0] = np.nan
        return out

    return grouped


def _grp_dev(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    # Two-pass like _col_dev: center each segment on its own mean
    # before squaring to avoid catastrophic cancellation.
    finite, counts = _seg_counts(values, starts)
    lengths = np.diff(starts, append=values.shape[0])
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.add.reduceat(_filled(values, finite, 0.0), starts) / counts
        centered = values - np.repeat(mean, lengths)
        if finite is not None:
            centered = np.where(finite, centered, 0.0)
        np.multiply(centered, centered, out=centered)
        var = np.add.reduceat(centered, starts) / counts
    out = np.sqrt(var)
    out[counts == 0] = np.nan
    return out


def _grp_count(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    return _seg_counts(values, starts)[1]


def _grp_first(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    finite = ~np.isnan(values)
    # Index of the first finite row per segment (n = "no finite row").
    cand = np.where(finite, np.arange(n), n)
    firsts = np.minimum.reduceat(cand, starts)
    out = values[np.minimum(firsts, n - 1)].astype(np.float64)
    out[firsts == n] = np.nan
    return out


def _grp_last(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    finite = ~np.isnan(values)
    cand = np.where(finite, np.arange(values.shape[0]), -1)
    lasts = np.maximum.reduceat(cand, starts)
    out = values[np.maximum(lasts, 0)].astype(np.float64)
    out[lasts < 0] = np.nan
    return out


_GROUPED: dict[str, GroupedAggregator] = {
    "avg": _grp_avg,
    "mean": _grp_avg,
    "sum": _grp_sum,
    "min": _grp_extreme(np.minimum, np.inf),
    "max": _grp_extreme(np.maximum, -np.inf),
    "dev": _grp_dev,
    "std": _grp_dev,
    "count": _grp_count,
    "first": _grp_first,
    "last": _grp_last,
    # median / percentiles are order statistics; no reduceat form.
}


def grouped(name: str) -> GroupedAggregator | None:
    """Reduceat form of an aggregator, or None when only the scalar
    per-segment loop can compute it (median, percentiles)."""
    get(name)
    return _GROUPED.get(name)
