"""The serving layer: one live store behind a networked query service.

Dashboards for many users hit one store over a versioned wire
protocol.  The pieces compose bottom-up and each is usable on its own:

- :mod:`~repro.serve.cache` — :class:`ResultCache`, a bounded LRU of
  answers keyed by the :class:`~repro.tsdb.query.Query` itself and
  validated by per-series write generations (exact invalidation, no
  timers), plus :class:`CatalogCache`, the same discipline applied to
  series-metadata answers;
- :mod:`~repro.serve.refresh` — :class:`CachingStore`, the serving
  store: every request is answered through its result cache and its
  per-panel state, which answers a moved window from the held buckets,
  rescanning only the edges append-only writes can have changed;
- :mod:`~repro.serve.server` — :class:`QueryServer`, the asyncio TCP
  endpoint (newline-delimited JSON) with per-tenant admission control
  reusing the region layer's ``block`` / ``drop-oldest`` policies;
- :mod:`~repro.serve.client` — :class:`QueryClient`, the synchronous
  SDK (connection reuse, timeout, retry with backoff, batched calls,
  and the held replies that let the server answer *not modified* or
  *the tail*).

``IncrementalRefresher`` is a vestige: it returns the
:class:`CachingStore` it is given.
"""

from .cache import CacheStats, CatalogCache, ResultCache
from .client import QueryClient
from .refresh import CachingStore, IncrementalRefresher, RefreshStats
from .server import QueryServer, TenantPolicy, serve

__all__ = [
    "CacheStats",
    "CachingStore",
    "CatalogCache",
    "IncrementalRefresher",
    "QueryClient",
    "QueryServer",
    "RefreshStats",
    "ResultCache",
    "TenantPolicy",
    "serve",
]
