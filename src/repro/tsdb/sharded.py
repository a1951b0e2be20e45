"""Sharded TSDB engine: one store whose series columns live in N shards.

Scaling past a single in-process store means partitioning, and the
partition is OpenTSDB's: the metadata index is global, only the data
rows are split.  A :class:`ShardedTSDB` is a
:class:`~repro.tsdb.database.TSDB` — one
:class:`~repro.tsdb.catalog.SeriesCatalog`, one cardinality guard, one
set of counters — whose series stores hash-route to one of N dicts.
Writes, reads, retention and queries are the single store's own code,
so every answer is byte-identical for any shard count
(``tests/test_tsdb_sharded.py`` and ``tests/test_tsdb_plan.py`` enforce
this for n ∈ {1, 2, 4, 7}).  A snapshot is one file whatever the shard
count: :func:`~repro.tsdb.persistence.snapshot` writes the same bytes a
single store with the same contents would, and
``load(path, into=ShardedTSDB(m))`` restores it into any shard count.

Routing uses CRC-32 of the canonical key string: stable across
processes and Python's per-run hash randomization, so a writer and a
reader in different processes agree on every series' owner.
"""

from __future__ import annotations

import zlib
from itertools import chain
from types import MappingProxyType
from typing import Iterator, Mapping, MutableMapping

from .database import TSDB
from .model import SeriesKey
from .series import SeriesStore


def shard_for_key(key: SeriesKey, num_shards: int) -> int:
    """Owning shard of a series: stable hash of the canonical key string.

    Pure function of ``(key, num_shards)`` — independent of insertion
    order, process, and run — so routing never drifts between a writer,
    a restored snapshot, and a reader.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    return zlib.crc32(str(key).encode("utf-8")) % num_shards


class _Partitioned(MutableMapping):
    """Key → :class:`SeriesStore` over N dicts, each key in the dict
    :func:`shard_for_key` names."""

    def __init__(self, num_shards: int) -> None:
        self.parts: tuple[dict[SeriesKey, SeriesStore], ...] = tuple(
            {} for _ in range(num_shards)
        )

    def _part(self, key: SeriesKey) -> dict[SeriesKey, SeriesStore]:
        return self.parts[shard_for_key(key, len(self.parts))]

    def get(self, key: SeriesKey, default=None) -> SeriesStore | None:
        return self._part(key).get(key, default)

    def __getitem__(self, key: SeriesKey) -> SeriesStore:
        return self._part(key)[key]

    def __setitem__(self, key: SeriesKey, store: SeriesStore) -> None:
        self._part(key)[key] = store

    def __delitem__(self, key: SeriesKey) -> None:
        del self._part(key)[key]

    def __iter__(self) -> Iterator[SeriesKey]:
        return chain.from_iterable(self.parts)

    def __len__(self) -> int:
        return sum(map(len, self.parts))


class ShardedTSDB(TSDB):
    """A :class:`TSDB` whose series stores are hash-partitioned.

    Drop-in for every consumer of
    :class:`~repro.tsdb.interface.TimeSeriesStore`; the one difference
    is where a series' columns live (:meth:`shard_of`, :attr:`shards`).
    """

    def __init__(
        self, num_shards: int = 4, *, max_tag_values: int | None = None
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        super().__init__(max_tag_values=max_tag_values)
        self._stores = _Partitioned(num_shards)

    # No-ops, kept only because the frozen benchmarks/e2e calls them.
    def close(self) -> None:
        pass

    def __enter__(self) -> "ShardedTSDB":
        return self

    def __exit__(self, *exc) -> None:
        pass

    @property
    def num_shards(self) -> int:
        return len(self._stores.parts)

    @property
    def shards(self) -> tuple[Mapping[SeriesKey, SeriesStore], ...]:
        """Each shard's series, key → column store (read-only views)."""
        return tuple(MappingProxyType(part) for part in self._stores.parts)

    def shard_of(self, key: SeriesKey) -> int:
        """Index of the shard owning ``key``."""
        return shard_for_key(key, self.num_shards)

    def __repr__(self) -> str:
        per_shard = ",".join(str(len(part)) for part in self._stores.parts)
        return f"ShardedTSDB(num_shards={self.num_shards}, series=[{per_shard}])"
