"""Aggregation: one algebra of reduce-by-group over two group layouts.

Aggregators serve two roles, mirroring OpenTSDB:

- *cross-series* aggregation combines the values several series hold
  at one instant (the city-wide average CO2 across nodes);
- *downsampling* collapses the raw points of one series inside one time
  bucket to a single value.

Both are one operation — reduce values by group — so every registered
aggregator is written once, as a function of :class:`Groups`, and runs
on whichever layout its caller holds:

- :class:`Cells` groups an instant's points across series (the
  planner's alignment, :func:`~repro.tsdb.plan.align`): group ``i`` is
  every cell in column ``i``, cells listed row (series) by row.  It
  folds with ``np.bincount``, ``ufunc.at`` and ``mean[col]``;
- :class:`Segments` groups a bucket's points in time order (the batched
  downsample, :func:`~repro.tsdb.downsample.apply_block`): group ``i`` is
  the contiguous run from ``starts[i]``.  It folds with ``reduceat``
  and ``np.repeat``.

A layout supplies the primitives (``fold``, ``reduce``, ``spread``,
``ids``, ``sizes``); :class:`Groups` derives the rest once — the NaN
mask, the counts, the sums, the ranked values — and keeps it, so panels
reducing the same groups (a dashboard's ``avg`` and ``dev``, its
``median`` and ``p95``) share the work.  NaN is "no value": every
aggregator ignores it, and a group holding nothing else aggregates to
NaN (``count``: 0.0).

**Why the layouts add in different orders.**  Each keeps the order of
the numpy definition it replaces, so not a bit changes.  numpy adds down
a *matrix's* rows one by one from +0.0, and ``np.bincount(col,
weights=...)`` over cells listed row by row makes exactly those
additions: a cross-series fold is, byte for byte, the fold down the
(series × instant) matrix with NaN where a series has no point.  numpy
sums a *vector* pairwise — its reduce loop is ``first +
pairwise_sum(rest)``, unrolled eight ways from eight elements up — and
``np.add.reduceat`` runs that loop over each bucket's run.  Regrouping
float additions moves the last ulp, so neither layout may borrow the
other's primitive (``reduceat`` over time-sorted cells differs from the
matrix from nine series up).  Within a layout the order never depends on
the rest of the window: a column adds its cells in row order, a bucket
its own points — so a refresher's delta window and the full window
agree on every group they share.

**Masks only where something is NaN.**  One pass over the values
(:func:`_finite`, the one mask decision, kept as :attr:`Groups.finite`)
says None when nothing is NaN: then no mask is built, a group's count is
its size and the folds read the values as they lie.  No bit moves —
``where(finite, x, missing)`` *is* ``x`` when nothing is masked, a count
of 1.0s is the exact integer it counts, and a masked value only ever
adds +0.0 to a group that began at +0.0 — so a NaN-free window and a
wider one with a NaN elsewhere agree on every group they share.

**Order statistics.**  ``first`` / ``last`` are one index pass: the
lowest / highest position of a non-NaN value per group (row order on
cells, time order on segments).  ``median`` and ``pNN`` read one sort,
shared by every quantile of the same groups: each group's values
ascending, −0.0 before 0.0 — the sort key is the value's bits, so the
ranking is a function of the group's values, never of the order they
came in.  Of ``k`` values, ``median`` lies between ranks ``(k − 1) // 2``
and ``k // 2``, halfway; ``pNN`` between ranks ``floor(v)`` and
``floor(v) + 1`` for ``v = (k − 1) · NN / 100``, ``v − floor(v)`` of the
way.  Between two different neighbours the answer is numpy's arithmetic
— the mean of the two, numpy's linear ``_lerp`` — so it is
``np.median`` / ``np.percentile``, byte for byte.  One rule decides the
rest:

    where the two neighbours are equal, or the arithmetic makes NaN of
    them (an infinite neighbour), the answer is the neighbour nearer by
    rank: the lower one below halfway, the upper one from halfway on.

So equal neighbours return themselves — a lone value is its own
quantile, −0.0 and ±inf included, where numpy makes 0.0 of −0.0 and NaN
of ``inf − inf`` — and no quantile is NaN unless its group holds no
value.  That is also what the planner's lone-series shortcut returns, so
a delta window whose siblings are empty agrees with the full window.

Every aggregator is registered once, by name, in :data:`_TABLE`
(:func:`lookup`), with what a planner may assume of it: whether a lone
series is its own aggregate and whether the aggregate adds +0.0.
:func:`get` is the validating public entry: the algebra over one
segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

#: Every bit of an int64 but the sign.
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _finite(values: np.ndarray) -> np.ndarray | None:
    """Which values are not NaN — None when none is: the one place a
    mask is decided."""
    nan = np.isnan(values)
    if not nan.any():
        return None
    return np.logical_not(nan, out=nan)


def segment_lengths(starts: np.ndarray, n: int) -> np.ndarray:
    """Values per run of ``n`` values cut at ``starts``, as the float64
    a count of them is."""
    lengths = np.empty(starts.shape[0], dtype=np.float64)
    lengths[:-1] = starts[1:]
    lengths[-1:] = n
    lengths -= starts
    return lengths


class Groups:
    """Values partitioned into non-empty groups: the interface every
    aggregator is written against.

    A layout sets :attr:`values` and :attr:`sizes` and supplies the
    four primitives below; what is derived from them is computed on
    first use and kept.
    """

    values: np.ndarray
    #: Values per group as float64 — each group's count when none is NaN.
    sizes: np.ndarray

    def fold(self, weights: np.ndarray) -> np.ndarray:
        """Per-group sum of one weight per value, as float64, added in
        the layout's order from the layout's start."""
        raise NotImplementedError

    def reduce(self, ufunc: np.ufunc, x: np.ndarray, missing) -> np.ndarray:
        """Per-group ``ufunc`` reduction of ``x``.  ``missing`` stands
        for "no value" (what :meth:`filled` puts in place of NaN); a
        layout that reduces into an accumulator starts every group
        from it."""
        raise NotImplementedError

    def spread(self, per_group: np.ndarray) -> np.ndarray:
        """Each value's group's entry of ``per_group``."""
        raise NotImplementedError

    @property
    def ids(self) -> np.ndarray:
        """Each value's group."""
        raise NotImplementedError

    @property
    def n(self) -> int:
        return self.sizes.shape[0]

    @cached_property
    def finite(self) -> np.ndarray | None:
        """Which values are not NaN; None (no mask built) when all are."""
        return _finite(self.values)

    def filled(self, missing: float) -> np.ndarray:
        """The values with ``missing`` in place of NaN."""
        if self.finite is None:
            return self.values
        return np.where(self.finite, self.values, missing)

    @cached_property
    def counts(self) -> np.ndarray:
        """Non-NaN values per group."""
        return self.sizes if self.finite is None else self.fold(self.finite)

    @cached_property
    def sums(self) -> np.ndarray:
        return self.fold(self.filled(0.0))

    @cached_property
    def offsets(self) -> np.ndarray:
        """Where each group's run begins in :attr:`ranked`."""
        return (np.cumsum(self.sizes) - self.sizes).astype(np.intp)

    @cached_property
    def ranked(self) -> np.ndarray:
        """Every group's values ascending, group after group, −0.0
        before 0.0 and NaN (as +inf) last.

        One argsort on the values' bits read as ordered integers (equal
        keys are equal bits, so which of them lands first cannot
        matter), then one sort of group-major keys.
        """
        x = self.filled(np.inf)
        bits = x.view(np.int64)
        order = np.argsort(bits ^ ((bits >> 63) & _MAGNITUDE))
        n = x.shape[0]
        key = self.ids[order] * n
        key += np.arange(n)
        key.sort()
        np.remainder(key, n, out=key)
        return x[order[key]]


class Cells(Groups):
    """An instant's points across series: a ``(series, instant)`` matrix
    in coordinate form.

    Only cells that hold a point are stored: ``values[i]`` sits in
    column ``col[i]``, cells are listed row by row and a row holds at
    most one cell per column; ``sizes`` counts each column's cells
    (whoever aligned them has it for free).
    """

    def __init__(self, col: np.ndarray, values: np.ndarray, sizes: np.ndarray) -> None:
        self.col = col
        self.values = values
        self.sizes = sizes

    def fold(self, weights: np.ndarray) -> np.ndarray:
        return np.bincount(self.col, weights=weights, minlength=self.n)

    def reduce(self, ufunc: np.ufunc, x: np.ndarray, missing) -> np.ndarray:
        # ufunc.at folds each column's cells in row order from
        # ``missing``, the value the matrix holds where there is no cell.
        out = np.full(self.n, missing)
        ufunc.at(out, self.col, x)
        return out

    def spread(self, per_group: np.ndarray) -> np.ndarray:
        return per_group[self.col]

    @property
    def ids(self) -> np.ndarray:
        return self.col


class Segments(Groups):
    """A bucket's points in time order: group ``i`` is
    ``values[starts[i]:starts[i + 1]]`` (the last runs to the end), and
    no group is empty."""

    def __init__(self, values: np.ndarray, starts: np.ndarray) -> None:
        self.values = values
        self.starts = starts
        self.sizes = segment_lengths(starts, values.shape[0])

    def fold(self, weights: np.ndarray) -> np.ndarray:
        return np.add.reduceat(weights, self.starts, dtype=np.float64)

    def reduce(self, ufunc: np.ufunc, x: np.ndarray, missing) -> np.ndarray:
        return ufunc.reduceat(x, self.starts)

    @cached_property
    def _lengths(self) -> np.ndarray:
        return self.sizes.astype(np.intp)

    def spread(self, per_group: np.ndarray) -> np.ndarray:
        return np.repeat(per_group, self._lengths)

    @cached_property
    def ids(self) -> np.ndarray:
        return np.repeat(np.arange(self.n), self._lengths)


# ---------------------------------------------------------------------------
# The aggregators, each written once over Groups.
# ---------------------------------------------------------------------------


def avg(g: Groups) -> np.ndarray:
    counts = g.counts
    return np.divide(g.sums, counts, out=np.full(g.n, np.nan), where=counts > 0)


def total(g: Groups) -> np.ndarray:
    out = g.sums.copy()
    if g.finite is not None:
        out[g.counts == 0] = np.nan
    return out


def dev(g: Groups) -> np.ndarray:
    # Two-pass (center first): the E[x²]-E[x]² shortcut cancels
    # catastrophically for large-offset values (epoch-like series).
    counts = g.counts
    with np.errstate(invalid="ignore", divide="ignore"):
        centered = g.values - g.spread(g.sums / counts)
        if g.finite is not None:
            centered = np.where(g.finite, centered, 0.0)
        np.multiply(centered, centered, out=centered)
        out = np.sqrt(g.fold(centered) / counts)
    out[counts == 0] = np.nan
    return out


def count(g: Groups) -> np.ndarray:
    return g.counts.copy()


def _extreme(ufunc: np.ufunc, missing: float) -> Callable[[Groups], np.ndarray]:
    def reduction(g: Groups) -> np.ndarray:
        out = g.reduce(ufunc, g.filled(missing), missing)
        if g.finite is not None:
            out[g.counts == 0] = np.nan
        return out

    return reduction


minimum = _extreme(np.minimum, np.inf)
maximum = _extreme(np.maximum, -np.inf)


def _at_position(ufunc: np.ufunc) -> Callable[[Groups], np.ndarray]:
    """The value at each group's lowest (``np.minimum``) or highest
    (``np.maximum``) position holding one."""

    def reduction(g: Groups) -> np.ndarray:
        n = g.values.shape[0]
        # a position past every value, on the side ``ufunc`` never picks
        none = n if ufunc is np.minimum else -1
        position = np.arange(n)
        if g.finite is not None:
            position = np.where(g.finite, position, none)
        at = g.reduce(ufunc, position, none)
        out = g.values[np.clip(at, 0, n - 1)]
        if g.finite is not None:
            out[at == none] = np.nan
        return out

    return reduction


first = _at_position(np.minimum)
last = _at_position(np.maximum)


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """numpy's linear interpolation, as ``np.percentile`` runs it."""
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out


def _midpoint(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    return (a + b) / 2


def _between(g: Groups, lo, hi, t, arithmetic) -> np.ndarray:
    """The order statistic ``t`` of the way from rank ``lo`` to rank
    ``hi`` of each group: ``arithmetic`` on the two neighbours, and the
    rule of the module docstring where they are equal or it makes NaN."""
    a = g.ranked[g.offsets + np.maximum(lo, 0).astype(np.intp)]
    b = g.ranked[g.offsets + np.maximum(hi, 0).astype(np.intp)]
    with np.errstate(invalid="ignore", over="ignore"):
        out = arithmetic(a, b, t)
    np.copyto(out, np.where(t < 0.5, a, b), where=(a == b) | np.isnan(out))
    if g.finite is not None:
        out[g.counts == 0] = np.nan
    return out


def median(g: Groups) -> np.ndarray:
    k = g.counts
    return _between(g, (k - 1) // 2, k // 2, 0.5, _midpoint)


def percentile(q: float) -> Callable[[Groups], np.ndarray]:
    """The ``q``-th percentile (0-100), by numpy's linear method."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100]: {q}")
    fraction = q / 100

    def reduction(g: Groups) -> np.ndarray:
        k = g.counts
        virtual = (k - 1) * fraction
        lo = np.floor(virtual)
        return _between(g, lo, np.minimum(lo + 1, k - 1), virtual - lo, _lerp)

    return reduction


# ---------------------------------------------------------------------------
# The table: one entry per name.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Aggregator:
    """A registered aggregator and what a planner may assume of it."""

    reduce: Callable[[Groups], np.ndarray]
    #: A lone series is its own aggregate (NaN instants stay NaN) — not
    #: ``count`` (1 where there is a value) nor ``dev`` (0).
    lone_is_itself: bool = True
    #: ... as ``0.0 + value``: the fold starts every group at +0.0, so a
    #: lone −0.0 aggregates to 0.0, as it does beside any sibling.
    adds_zero: bool = False
    #: What :func:`get` answers for no values at all (no group is empty).
    empty: float = np.nan

    def lone(self, values: np.ndarray) -> np.ndarray:
        """The aggregate of a lone series' ``values``, where
        :attr:`lone_is_itself`: the values themselves, or ``0.0 +`` each."""
        return values + 0.0 if self.adds_zero else values


_AVG = Aggregator(avg, adds_zero=True)
_DEV = Aggregator(dev, lone_is_itself=False)
_TABLE: dict[str, Aggregator] = {
    "avg": _AVG,
    "mean": _AVG,
    "sum": Aggregator(total, adds_zero=True, empty=0.0),
    "min": Aggregator(minimum),
    "max": Aggregator(maximum),
    "median": Aggregator(median),
    "dev": _DEV,
    "std": _DEV,
    "count": Aggregator(count, lone_is_itself=False, empty=0.0),
    "first": Aggregator(first),
    "last": Aggregator(last),
    **{f"p{q}": Aggregator(percentile(q)) for q in (50, 90, 95, 99)},
}


class UnknownAggregator(KeyError):
    """Requested aggregator name is not registered."""


def lookup(name: str) -> Aggregator:
    """The table entry of ``name`` (e.g. ``"avg"``, ``"p95"``)."""
    try:
        return _TABLE[name]
    except KeyError:
        raise UnknownAggregator(
            f"unknown aggregator {name!r}; available: {sorted(_TABLE)}"
        ) from None


_ONE_SEGMENT = np.zeros(1, dtype=np.intp)


def get(name: str) -> Callable[[np.ndarray], float]:
    """Aggregator ``name`` as a function of one 1-D array of values
    (NaN ignored): the algebra over one segment."""
    agg = lookup(name)

    def one(values: np.ndarray) -> float:
        values = np.asarray(values, dtype=np.float64)
        if values.shape[0] == 0:
            return agg.empty
        return float(agg.reduce(Segments(values, _ONE_SEGMENT))[0])

    return one


def names() -> list[str]:
    return sorted(_TABLE)
