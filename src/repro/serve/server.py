"""Asyncio TCP query server: newline-delimited JSON over the wire codec.

One live store, many dashboard clients.  Each connection sends one JSON
request per line — the :mod:`repro.tsdb.wire` request format plus four
optional envelope fields stripped before decoding:

- ``"tenant"``: admission-control lane (defaults to ``"public"``);
- ``"id"``: opaque correlation value echoed on the reply, so clients
  may pipeline requests;
- ``"refresh"`` (a JSON boolean): route the batch through the server's
  :class:`~repro.serve.refresh.IncrementalRefresher` (steady-state
  dashboard polling) instead of the result cache;
- ``"held"``: a list aligned with ``"queries"`` — per query, the
  validator of the reply entry the client still holds for that panel,
  or ``null``.  The reply then carries ``"validators"``, aligned with
  ``"results"``, and an entry may come back in one of three forms:
  *full* (``"series": [...]``, what every request without ``held``
  gets, byte for byte), *not modified* (``"notModified": true`` — the
  held ``series`` are still the answer) or, on the ``refresh`` path,
  *tail* (``"tail": [{"keep": k, "dps": {...}}, ...]``, one element per
  held series: keep its first ``k`` ``dps`` entries, append these).
  ``scannedPoints`` (and an expression's ``expr``) are sent in every
  form.  A validator is an opaque string naming the text of an entry's
  ``series`` array (see :func:`~repro.serve.cache.entry_validator`).

A payload carrying a ``"catalog"`` object instead of ``"queries"`` is a
series-metadata lookup (the ``/api/suggest`` surface — see
:mod:`repro.tsdb.catalog`), answered through a generation-validated
:class:`~repro.serve.cache.CatalogCache`.  With ``max_match_series``
set, query batches are additionally guarded: any sub-query whose tag
filter matches more series than the limit is rejected in-band with a
``CardinalityLimitError`` before a single point is scanned.

Replies are one JSON line each: a wire response, a wire *error*
response for anything malformed (the connection always stays usable —
that is the point of the ``handle_request`` bugfix underneath), or an
``InternalError`` response if the store itself faults.

Admission control uses the :class:`~repro.backpressure.Backpressure`
vocabulary of the region layer's fan-in queues per tenant lane,
mapped onto a request queue:

- ``block``       — a full lane stops reading from the submitting
  connection until a slot frees (TCP backpressure reaches the client);
- ``drop-oldest`` — the oldest *queued* request is answered immediately
  with an ``Overloaded`` error and the new one takes its place;
- ``spill``       — the lane queue is unbounded; requests beyond
  capacity are counted as spilled but all execute, in order.

Query execution is offloaded to a thread pool (numpy scans release the
GIL), and so is reply encoding: the executor thread hands back the
finished reply text — joined from per-series JSON that
:func:`~repro.serve.cache.series_text` encodes once per result series —
and the loop thread only splices in the request id and writes.  The
event loop stays responsive while lanes execute concurrently.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from dataclasses import dataclass

from ..backpressure import Backpressure
from ..tsdb import wire
from ..tsdb.catalog import CardinalityLimitError
from ..tsdb.model import InvalidName
from ..tsdb.plan import ExprQuery
from ..tsdb.query import QueryError
from .cache import (
    CachingStore,
    CatalogCache,
    entry_tail,
    entry_validator,
    series_text,
)
from .refresh import IncrementalRefresher

#: Longest validator a request may name in ``held`` (ours are 32 chars).
_MAX_VALIDATOR_CHARS = 64


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's admission contract with the query server.

    ``max_pending`` bounds the lane's queued-but-not-yet-running
    requests; ``backpressure`` picks the overflow behaviour (the same
    vocabulary as the region fan-in queues); ``parallelism`` is how
    many of the tenant's requests may execute concurrently;
    ``max_match_series`` caps how many series one of the tenant's
    queries may fan out over — it overrides the server-wide limit for
    this lane (tighter *or* looser), so one tenant's wildcard storms
    can be capped without throttling operators.
    """

    max_pending: int = 64
    backpressure: Backpressure | str = Backpressure.BLOCK
    parallelism: int = 2
    max_match_series: int | None = None

    def __post_init__(self) -> None:
        if self.max_pending <= 0:
            raise ValueError("max_pending must be positive")
        if self.parallelism <= 0:
            raise ValueError("parallelism must be positive")
        if self.max_match_series is not None and self.max_match_series <= 0:
            raise ValueError("max_match_series must be positive")
        object.__setattr__(
            self, "backpressure", Backpressure.coerce(self.backpressure)
        )


class _Job:
    """One admitted request: payload in, one reply line out."""

    __slots__ = (
        "payload", "refresh", "held", "id_json", "tenant", "writer",
        "write_lock", "forms",
    )

    def __init__(
        self, payload, refresh, held, id_json, tenant, writer, write_lock
    ):
        self.payload = payload
        self.refresh = refresh
        self.held = held  # what the client holds per query, or None
        self.id_json = id_json  # the request id's JSON text, or None
        self.tenant = tenant
        self.writer = writer
        self.write_lock = write_lock
        self.forms: list[str] = []  # the form of each result entry sent


class _Lane:
    """Per-tenant request queue with explicit backpressure."""

    def __init__(self, name: str, policy: TenantPolicy) -> None:
        self.name = name
        self.policy = policy
        self.queue: deque[_Job] = deque()
        self.workers: list[asyncio.Task] = []
        self.has_work = asyncio.Event()
        self.not_full = asyncio.Event()
        self.not_full.set()
        self.admitted = 0
        self.dropped = 0
        self.spilled = 0
        self.in_flight = 0  # popped from the queue, reply not yet sent

    def depth(self) -> int:
        return len(self.queue)

    def idle(self) -> bool:
        """Nothing queued and nothing executing: safe to cancel."""
        return not self.queue and self.in_flight == 0

    def stats(self) -> dict:
        return {
            "admitted": self.admitted,
            "dropped": self.dropped,
            "spilled": self.spilled,
            "depth": self.depth(),
            "policy": self.policy.backpressure.value,
        }


class QueryServer:
    """The serving layer: a TSDB behind an asyncio TCP endpoint.

    Wraps the store in a :class:`CachingStore` (generation-validated
    result cache) and keeps one :class:`IncrementalRefresher` for
    ``refresh``-flagged requests.  ``port=0`` binds an ephemeral port —
    read :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        store,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        default_policy: TenantPolicy | None = None,
        tenant_policies: dict[str, TenantPolicy] | None = None,
        cache_capacity: int = 128,
        catalog_cache_capacity: int = 256,
        max_match_series: int | None = None,
    ) -> None:
        if max_match_series is not None and max_match_series <= 0:
            raise ValueError("max_match_series must be positive")
        self.caching = CachingStore(store, capacity=cache_capacity)
        self.refresher = IncrementalRefresher(self.caching)
        self.catalog_cache = CatalogCache(catalog_cache_capacity)
        self.max_match_series = max_match_series
        self._host = host
        self._port = port
        self._default_policy = default_policy or TenantPolicy()
        self._tenant_policies = dict(tenant_policies or {})
        self._lanes: dict[str, _Lane] = {}
        self._server: asyncio.Server | None = None
        self._stopping = False
        self.requests = 0
        self.errors = 0
        #: Result entries sent, by form, and reply bytes written.
        self.replies = {"full": 0, "not_modified": 0, "tail": 0, "bytes": 0}

    # -- lifecycle -------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Shut down gracefully: refuse new work, answer admitted work.

        Closing the listener stops new connections; the ``_stopping``
        flag stops live connections from submitting further requests.
        With ``drain`` (the default) every job already admitted to a
        lane — queued or executing — is answered before the workers are
        cancelled, so a SIGTERM rollout never eats requests the server
        accepted; ``timeout`` bounds the wait (then abandons the rest,
        the old behaviour).  ``drain=False`` is the hard stop.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain:
            loop = asyncio.get_running_loop()
            deadline = None if timeout is None else loop.time() + timeout
            while any(not lane.idle() for lane in self._lanes.values()):
                if deadline is not None and loop.time() >= deadline:
                    break
                await asyncio.sleep(0.005)
        for lane in self._lanes.values():
            for task in lane.workers:
                task.cancel()
            for task in lane.workers:
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            lane.workers.clear()

    def stats(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "replies": dict(self.replies),
            "cache": self.caching.cache.stats.as_dict(),
            "catalog_cache": self.catalog_cache.stats.as_dict(),
            "refresh": self.refresher.stats.as_dict(),
            "tenants": {
                name: lane.stats() for name, lane in sorted(self._lanes.items())
            },
        }

    # -- admission -------------------------------------------------------
    def _lane(self, tenant: str) -> _Lane:
        lane = self._lanes.get(tenant)
        if lane is None:
            policy = self._tenant_policies.get(tenant, self._default_policy)
            lane = self._lanes[tenant] = _Lane(tenant, policy)
            for _ in range(policy.parallelism):
                lane.workers.append(
                    asyncio.get_running_loop().create_task(self._pump(lane))
                )
        return lane

    async def _admit(self, lane: _Lane, job: _Job) -> None:
        policy = lane.policy
        if lane.depth() >= policy.max_pending:
            bp = policy.backpressure
            if bp is Backpressure.BLOCK:
                # Stop reading this connection until the lane drains —
                # the submitting client feels it as TCP backpressure.
                while lane.depth() >= policy.max_pending:
                    lane.not_full.clear()
                    await lane.not_full.wait()
            elif bp is Backpressure.DROP_OLDEST:
                oldest = lane.queue.popleft()
                lane.dropped += 1
                await self._reply(
                    oldest,
                    _error_dict(
                        "Overloaded",
                        f"dropped by drop-oldest admission "
                        f"(tenant {lane.name!r} backlog "
                        f"{policy.max_pending})",
                    ),
                )
            else:  # SPILL: unbounded overflow, FIFO preserved
                lane.spilled += 1
        lane.queue.append(job)
        lane.admitted += 1
        lane.has_work.set()

    async def _pump(self, lane: _Lane) -> None:
        loop = asyncio.get_running_loop()
        while True:
            while not lane.queue:
                lane.has_work.clear()
                await lane.has_work.wait()
            job = lane.queue.popleft()
            lane.in_flight += 1
            try:
                if lane.depth() < lane.policy.max_pending:
                    lane.not_full.set()
                response = await loop.run_in_executor(None, self._execute, job)
                await self._reply(job, response)
            except Exception as exc:
                # A reply that cannot be written must not take the
                # lane's worker with it: requests admitted later would
                # never be answered.
                self.errors += 1
                loop.call_exception_handler({
                    "message": f"reply on lane {lane.name!r} failed",
                    "exception": exc,
                })
            finally:
                lane.in_flight -= 1

    # -- execution -------------------------------------------------------
    def _execute(self, job: _Job) -> bytes | dict:
        """Runs on the executor thread: decode → run → encode, total.

        Results come back as finished response text; errors and catalog
        answers as their (small) dicts.
        """
        try:
            if isinstance(job.payload, dict) and "catalog" in job.payload:
                return self._serve_catalog(job.payload)
            queries = wire.decode_request(job.payload)
            self._guard_match_cardinality(queries, tenant=job.tenant)
            run_many = (
                self.refresher.run_many if job.refresh else self.caching.run_many
            )
            forms: list[str] = []
            text = wire.encode_response_json(
                run_many(queries),
                series_json=series_text,
                held=job.held,
                validator=entry_validator,
                tail=entry_tail if job.refresh else None,
                forms=forms,
            )
            job.forms = forms  # only a reply that was encoded counts
            return text
        except (
            wire.WireError, QueryError, InvalidName, CardinalityLimitError
        ) as exc:
            return wire.encode_error(exc)
        except Exception as exc:  # store fault: answer, don't die
            return _error_dict("InternalError", f"{type(exc).__name__}: {exc}")

    def _serve_catalog(self, payload: dict) -> dict:
        """Catalog metadata request, served through the catalog cache."""
        req = wire.decode_catalog_request(payload)
        cached = self.catalog_cache.lookup(self.caching, req)
        if cached is not None:
            return cached
        validators = self.catalog_cache.capture(self.caching, req)
        response = wire.execute_catalog_request(self.caching, req)
        self.catalog_cache.insert(self.caching, req, validators, response)
        return response

    def _guard_match_cardinality(self, queries, *, tenant: str | None = None) -> None:
        """Reject queries whose tag filter fans out over too many series.

        The serving-side guard-rail: a wildcard query over a
        high-cardinality metric would scan (and cache) an answer
        assembled from thousands of series.  With ``max_match_series``
        set, each sub-query's match cardinality is checked against the
        catalog — an O(postings) set intersection — before any scan
        runs, and oversized queries come back as an in-band
        ``CardinalityLimitError``.  A tenant whose
        :class:`TenantPolicy` carries its own ``max_match_series`` is
        held to that per-lane limit instead of the server-wide one.
        """
        limit = self.max_match_series
        if tenant is not None:
            policy = self._tenant_policies.get(tenant, self._default_policy)
            if policy.max_match_series is not None:
                limit = policy.max_match_series
        if limit is None:
            return
        seen: set = set()
        for q in queries:
            subs = (
                tuple(sub for _, sub in q.operands)
                if isinstance(q, ExprQuery)
                else (q,)
            )
            for sub in subs:
                probe = (sub.metric, tuple(sorted(sub.tags.items())))
                if probe in seen:
                    continue
                seen.add(probe)
                matched = self.caching.cardinality(sub.metric, sub.tags)
                if matched > limit:
                    scope = "tenant's" if limit != self.max_match_series else "server's"
                    raise CardinalityLimitError(
                        f"query on metric {sub.metric!r} matches {matched} "
                        f"series, over the {scope} {limit}-series limit "
                        f"(narrow the tag filter)",
                        limit=limit,
                    )

    async def _reply(self, job: _Job, response: bytes | dict) -> None:
        if isinstance(response, dict) and "error" in response:
            self.errors += 1
        line = wire.reply_line(response, job.id_json)
        async with job.write_lock:
            if job.writer.is_closing():
                return
            # counted before the write: whoever reads this reply and
            # then ``stats()`` finds it there
            for form in job.forms:
                self.replies[form] += 1
            self.replies["bytes"] += len(line)
            job.writer.write(line)
            try:
                await job.writer.drain()
            except ConnectionError:
                pass

    # -- connections -----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        try:
            while not self._stopping:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                if self._stopping:
                    break  # draining: refuse work read after the stop
                # Counted here, on the loop thread, with ``errors``: one
                # per request line, each of which gets exactly one reply.
                self.requests += 1
                job = self._parse_line(line, writer, write_lock)
                if job is None:
                    continue  # error already replied; connection lives on
                await self._admit(self._lane(job.tenant), job)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    def _parse_line(self, line: bytes, writer, write_lock) -> "_Job | None":
        """Envelope parsing; replies with a wire error on junk input."""
        bad: str | None = None
        payload = None
        id_json = None
        try:
            payload = json.loads(line)
        except (ValueError, RecursionError) as exc:  # huge ints, deep nesting
            bad = f"request is not valid JSON: {exc}"
        if bad is None and not isinstance(payload, dict):
            bad = "request must be a JSON object"
        if bad is None:
            payload = dict(payload)
            tenant = payload.pop("tenant", "public")
            request_id = payload.pop("id", None)
            refresh = payload.pop("refresh", False)
            held = payload.pop("held", None)
            if not isinstance(tenant, str) or not tenant:
                bad = "'tenant' must be a non-empty string"
            elif not isinstance(refresh, bool):
                bad = "'refresh' must be a JSON boolean"
            elif held is not None and not _well_formed_held(
                held, payload.get("queries")
            ):
                bad = (
                    "'held' must be a list aligned with 'queries' of "
                    "validators (strings of at most "
                    f"{_MAX_VALIDATOR_CHARS} characters) or nulls"
                )
            elif request_id is not None:
                # Encoded once, here: ``json.loads`` accepts NaN and
                # Infinity, which no reply may echo.
                try:
                    id_json = json.dumps(request_id, allow_nan=False).encode()
                except (ValueError, RecursionError) as exc:
                    bad = f"'id' cannot be echoed as JSON: {exc}"
        if bad is not None:
            stub = _Job(None, False, None, None, "public", writer, write_lock)
            asyncio.get_running_loop().create_task(
                self._reply(stub, wire.encode_error(wire.WireError(bad)))
            )
            return None
        return _Job(payload, refresh, held, id_json, tenant, writer, write_lock)


def _well_formed_held(held, queries) -> bool:
    """Is ``held`` one validator-or-null per item of ``queries``?"""
    return (
        isinstance(held, list)
        and isinstance(queries, list)
        and len(held) == len(queries)
        and all(
            v is None or (isinstance(v, str) and len(v) <= _MAX_VALIDATOR_CHARS)
            for v in held
        )
    )


def _error_dict(error_type: str, message: str) -> dict:
    return {
        "version": wire.WIRE_VERSION,
        "error": {"type": error_type, "message": message},
    }


async def serve(
    store,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs,
) -> QueryServer:
    """Start a :class:`QueryServer` and return it (tests/embedding)."""
    server = QueryServer(store, host=host, port=port, **kwargs)
    await server.start()
    return server
