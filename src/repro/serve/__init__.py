"""The serving layer: one live store behind a networked query service.

ROADMAP item 1: dashboards for many users hit one store over a
versioned wire protocol.  The pieces compose bottom-up and each is
usable on its own:

- :mod:`~repro.serve.cache` — :class:`CachingStore`, a bounded-LRU
  result cache keyed by the planner's canonical query key and
  validated by per-series write generations (exact invalidation, no
  timers), plus :class:`CatalogCache`, the same discipline applied to
  series-metadata answers;
- :mod:`~repro.serve.refresh` — :class:`IncrementalRefresher`,
  steady-state dashboard refresh that rescans only past the splice
  boundary append-only writes cannot have changed;
- :mod:`~repro.serve.server` — :class:`QueryServer`, the asyncio TCP
  endpoint (newline-delimited JSON) with per-tenant admission control
  reusing the region layer's backpressure policies;
- :mod:`~repro.serve.client` — :class:`QueryClient`, the synchronous
  SDK (connection reuse, timeout, retry with backoff, batched calls,
  and the held replies that let the server answer *not modified* or
  *the tail*).
"""

from .cache import CacheStats, CachingStore, CatalogCache, ResultCache
from .client import QueryClient
from .refresh import IncrementalRefresher, RefreshStats
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
