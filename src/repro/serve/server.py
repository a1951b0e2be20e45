"""Asyncio TCP query server: newline-delimited JSON over the wire codec.

One live store, many dashboard clients.  Each connection sends one JSON
request per line — the :mod:`repro.tsdb.wire` request format plus three
optional envelope fields stripped before decoding — and its lines are
answered one at a time, in order: the server reads a connection's next
line only once the last one's reply is written.

- ``"tenant"``: admission-control lane (defaults to ``"public"``);
- ``"id"``: opaque correlation value echoed on the reply;
- ``"held"``: a list aligned with ``"queries"`` — per query, the
  validator of the reply entry the client still holds for that panel,
  or ``null``.  The reply then carries ``"validators"``, aligned with
  ``"results"``, and an entry may come back in one of three forms:
  *full* (``"series": [...]``, what every request without ``held``
  gets, byte for byte), *not modified* (``"notModified": true`` — the
  held ``series`` are still the answer) or *tail* (``"tail": [...]``,
  one splice element per held series).  ``{"keep": k, "t": ...,
  "v": ...}`` keeps the first ``k`` values of its columns and appends
  these — as base64 text, the first ``k * 32 // 3`` characters of each
  held column followed by the tail's; ``{"keep": [a, b], "head": {"t":
  ..., "v": ...}, "t": ..., "v": ...}`` (a moved start) keeps the held
  values ``[a, b)`` with the head's text before them and the tail's
  after; ``k``, ``a``, ``b`` and the head's values are multiples of 3
  (see :func:`~repro.tsdb.wire.splice_column`).
  ``scannedPoints`` is sent in every form.  A validator is an opaque
  string naming the text of an entry's ``series`` array: equal
  validators, equal text (see :func:`~repro.serve.cache.series_tag`).

A payload carrying a ``"catalog"`` object instead of ``"queries"`` is a
series-metadata lookup (the ``/api/suggest`` surface — see
:mod:`repro.tsdb.catalog`), answered through a generation-validated
:class:`~repro.serve.cache.CatalogCache`.  With ``max_match_series``
set, query batches are additionally guarded: any sub-query whose tag
filter matches more series than the limit is rejected in-band with a
``CardinalityLimitError`` before a single point is scanned.

Replies are one JSON line each: a wire response, a wire *error*
response for anything malformed — a line longer than
:data:`MAX_LINE_BYTES` and a field the request format does not name
(``"refresh"`` among them) included (the connection always stays usable —
that is the point of the ``handle_request`` bugfix underneath), or an
``InternalError`` response if the store itself faults.

Admission control uses two of the :class:`~repro.backpressure.Backpressure`
policies of the region layer's fan-in queues per tenant lane, a gate
that runs ``parallelism`` requests at once while the rest wait, oldest first:

- ``block``       — a waiting request waits its turn, its connection not
  read meanwhile (TCP backpressure reaches the client);
- ``drop-oldest`` — once ``max_pending`` wait, the oldest is answered at
  once with an ``Overloaded`` error and the new one waits in its place.

The region's third, ``spill``, goes to disk segments there; a lane has
no disk to spill to, so a server refuses it rather than grow without
bound under its name.

The lanes of ``"public"`` and of the tenants named in
``tenant_policies`` live as long as the server; any other tenant name
is client input, and its lane goes, counters included, once none of its
requests runs or waits.

A request runs in the task of the connection that read it: the
connection's handler waits its turn at the lane, answers the request,
writes the reply line into the connection's buffer and lets the lane go,
and reads the client's next line only once the client has read what is
buffered.  So a connection holds at most one request admitted and
unanswered, and one reply: a client that stops reading its replies
stops being read, alone, and its tenant's other clients are served.  A
client that half-closes after its last line still reads every reply,
since each line is answered before the end of the stream is read.

Every request runs through the server's
:class:`~repro.serve.refresh.CachingStore`: it is answered from the
result cache when it names a cached window exactly, and otherwise from
the panel's held buckets plus its head and tail edges, byte-identical to
a fresh run (``scannedPoints`` included) and inserted into the result
cache.

A request's path splits at the result cache
(:meth:`~repro.serve.refresh.CachingStore.look_up` /
:meth:`~repro.serve.refresh.CachingStore.finish`).  The event
loop's thread decodes it, applies the cardinality guard and looks every
query up; a request the cache answers whole — every panel *hit*, the
wall a dashboard re-polls between writes — is assembled, encoded and
written there, with no thread hop.  Only a request with a miss left
(and a catalog request) crosses to a worker thread, once: scans
release the GIL, and a closed loop of requests stays on one thread
(see :class:`_Threads`).  The worker runs the misses and encodes the
reply —
one base64 per result column, see
:func:`~repro.tsdb.wire.encode_response_json` — and hands back the
finished text; the loop thread splices in the request id and writes.
A handler holding a further pipelined line lets other connections in
first: one client's burst starves no other tenant.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..backpressure import Backpressure
from ..tsdb import wire
from ..tsdb.catalog import CardinalityLimitError
from ..tsdb.model import InvalidName
from ..tsdb.query import QueryError
from .cache import CatalogCache, entry_tail, result_validator
from .refresh import CachingStore, Request

#: Longest validator a request may name in ``held`` (ours are 32 chars).
_MAX_VALIDATOR_CHARS = 64

#: Longest request line the server reads, its newline not counted
#: (asyncio's stream default); a longer one is answered in band.
MAX_LINE_BYTES = 2**16


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's admission contract with the query server.

    ``parallelism`` is how many of the tenant's requests may execute
    concurrently; ``backpressure`` picks what happens to the others
    (``block``: every waiting connection waits its turn, and is not read
    meanwhile; ``drop-oldest``: once ``max_pending`` requests wait, the
    oldest waiting one is answered ``Overloaded``) — ``max_pending`` is
    the ``drop-oldest`` bound.  Neither waits on a client: one that does
    not read its replies stops being read, alone;
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
        if self.backpressure is Backpressure.SPILL:
            raise ValueError(
                "a server lane has no spill; pick block or drop-oldest"
            )


class _Job:
    """One admitted request: payload in, one reply line out."""

    __slots__ = ("payload", "held", "id_json", "tenant", "writer", "forms")

    def __init__(self, payload, held, id_json, tenant, writer):
        self.payload = payload
        self.held = held  # what the client holds per query, or None
        self.id_json = id_json  # the request id's JSON text, or None
        self.tenant = tenant
        self.writer = writer
        self.forms: list[str] = []  # the form of each result entry sent


class _Threads:
    """The threads a request's run phase goes to when the result cache
    did not answer it whole: one single-thread executor per job in
    flight, the most recently idle one first.  An all-hit request makes
    no job and wakes no thread.

    An executor goes back on the stack, on the loop thread, as soon as
    its job's result arrives — before the reply is written — so a client
    that sends its next request the moment a reply lands finds the same
    thread waiting.  A shared pool starts a new thread whenever the last
    one has not yet got the GIL back to mark itself idle, and every
    thread that has planned a cold dashboard keeps a malloc arena of its
    scratch (≈ 17 MB on the e2e wall): peak RSS would follow how fast
    clients are, not how many requests run at once.
    """

    def __init__(self) -> None:
        self._idle: list[ThreadPoolExecutor] = []
        self._all: list[ThreadPoolExecutor] = []

    async def run(self, fn, *args):
        executor = self._idle.pop() if self._idle else None
        if executor is None:
            executor = ThreadPoolExecutor(1, thread_name_prefix="query")
            self._all.append(executor)
        try:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(executor, fn, *args)
        finally:
            self._idle.append(executor)

    def shutdown(self) -> None:
        """Let every thread exit once its job (if any) is done."""
        for executor in self._all:
            executor.shutdown(wait=False)
        self._idle.clear()
        self._all.clear()


class _Lane:
    """One tenant's admission gate: at most ``parallelism`` requests
    run, and the others wait their turn, oldest first, each in the task
    of the connection that read it."""

    def __init__(self, policy: TenantPolicy) -> None:
        self.policy = policy
        self.running = 0
        self.waiting: deque[asyncio.Future] = deque()  # each: True = run
        self.admitted = 0
        self.dropped = 0

    async def enter(self) -> bool:
        """Take a slot, waiting for one while none is free; False if the
        request was dropped while it waited."""
        self.admitted += 1
        if self.running < self.policy.parallelism:
            self.running += 1
            return True
        if (self.policy.backpressure is Backpressure.DROP_OLDEST
                and len(self.waiting) >= self.policy.max_pending
                and self._wake(False)):
            self.dropped += 1
        turn = asyncio.get_running_loop().create_future()
        self.waiting.append(turn)
        try:
            return await turn
        except asyncio.CancelledError:
            if not turn.cancelled() and turn.result():
                self.leave()  # handed a slot it will not use: pass it on
            elif turn in self.waiting:
                self.waiting.remove(turn)
            raise

    def leave(self) -> None:
        """Hand the slot to the oldest waiter, or free it."""
        if not self._wake(True):
            self.running -= 1

    def _wake(self, run: bool) -> bool:
        """Tell the oldest waiter still waiting ``run``; False if none."""
        while self.waiting:
            turn = self.waiting.popleft()
            if not turn.done():
                turn.set_result(run)
                return True
        return False

    def stats(self) -> dict:
        return {
            "admitted": self.admitted,
            "dropped": self.dropped,
            "depth": len(self.waiting),
            "policy": self.policy.backpressure.value,
        }


class QueryServer:
    """The serving layer: a TSDB behind an asyncio TCP endpoint.

    Wraps the store in one :class:`CachingStore` (a
    generation-validated result cache and panel state), which every
    request shares.
    ``port=0`` binds an ephemeral port — read :attr:`address` after
    :meth:`start`.
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
        max_match_series: int | None = None,
    ) -> None:
        if max_match_series is not None and max_match_series <= 0:
            raise ValueError("max_match_series must be positive")
        self.caching = CachingStore(store, capacity=cache_capacity)
        self.catalog_cache = CatalogCache()
        self.max_match_series = max_match_series
        self._host = host
        self._port = port
        self._default_policy = default_policy or TenantPolicy()
        self._tenant_policies = dict(tenant_policies or {})
        self._kept_lanes = {"public", *self._tenant_policies}
        self._lanes: dict[str, _Lane] = {}
        self._threads = _Threads()
        self._server: asyncio.Server | None = None
        self._stopping = False
        # the handlers holding an admitted request, running or waiting
        self._busy: set[asyncio.Task] = set()
        self._drained = asyncio.Event()  # set each time ``_busy`` empties
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
            self._handle_connection, self._host, self._port,
            limit=MAX_LINE_BYTES,
        )
        return self.address

    async def stop(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Shut down gracefully: refuse new work, answer admitted work.

        Closing the listener stops new connections; the ``_stopping``
        flag stops live connections from submitting further requests.
        With ``drain`` (the default) every request already admitted to a
        lane — waiting or running — is answered, so a SIGTERM rollout
        never eats requests the server accepted; ``timeout`` bounds the
        wait, then the handlers still holding one are cancelled.
        ``drain=False`` is the hard stop: it cancels them at once.
        """
        self._stopping = True
        if self._server is not None:
            # Stop accepting first, and let a connection accepted just
            # before attach to the server: closing the server under an
            # accept in flight strands that connection's socket, which is
            # then never closed.  This relies on the selector event loop:
            # the listener accepts through a reader registered on its
            # socket, and each accept queues a task that attaches the
            # connection in its first step — queued before this task's
            # own wake-up from sleep(0), so one yield lets it run.
            # tests/test_serve.py::TestGracefulStop pins the race.
            loop = asyncio.get_running_loop()
            for sock in self._server.sockets:
                loop.remove_reader(sock)
            await asyncio.sleep(0)
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain and self._busy:
            self._drained.clear()
            try:
                async with asyncio.timeout(timeout):
                    await self._drained.wait()
            except TimeoutError:
                pass
        for task in self._busy:
            task.cancel()
        self._threads.shutdown()

    def stats(self) -> dict:
        """Server-wide counters, and one entry per live lane under
        ``"tenants"`` (the module docstring says which lanes stay)."""
        return {
            "requests": self.requests,
            "errors": self.errors,
            "replies": dict(self.replies),
            "cache": self.caching.cache.stats.as_dict(),
            "catalog_cache": self.catalog_cache.stats.as_dict(),
            "refresh": self.caching.stats.as_dict(),
            "tenants": {
                name: lane.stats() for name, lane in sorted(self._lanes.items())
            },
        }

    # -- admission -------------------------------------------------------
    def _lane(self, tenant: str) -> _Lane:
        lane = self._lanes.get(tenant)
        if lane is None:
            policy = self._tenant_policies.get(tenant, self._default_policy)
            lane = self._lanes[tenant] = _Lane(policy)
        return lane

    async def _serve(self, job: _Job) -> None:
        """Admit ``job`` to its tenant's lane, answer it, and let the
        lane go — all in the task of the connection that read it."""
        lane = self._lane(job.tenant)
        task = asyncio.current_task()
        self._busy.add(task)
        try:
            if not await lane.enter():
                self._reply(job, _error_dict(
                    "Overloaded",
                    f"dropped by drop-oldest admission (tenant "
                    f"{job.tenant!r} backlog {lane.policy.max_pending})",
                ))
                return
            try:
                response = self._look_up(job)
                if callable(response):  # work left: the one thread hop
                    response = await self._threads.run(response)
                self._reply(job, response)
            finally:
                lane.leave()
        except Exception as exc:
            # A reply that cannot be written must not take the
            # connection with it: it reads on.
            self.errors += 1
            asyncio.get_running_loop().call_exception_handler({
                "message": f"reply on lane {job.tenant!r} failed",
                "exception": exc,
            })
        finally:
            self._busy.discard(task)
            if not self._busy:
                self._drained.set()
            if (job.tenant not in self._kept_lanes
                    and not lane.running and not lane.waiting):
                del self._lanes[job.tenant]

    # -- execution -------------------------------------------------------
    def _look_up(self, job: _Job) -> bytes | dict | Callable[[], bytes | dict]:
        """Runs on the loop thread: decode, guard and the exact hits
        (:meth:`CachingStore.look_up`).

        A request the result cache answers whole is assembled and
        encoded here, and its reply returned; otherwise — a miss left,
        or a catalog request — what is left to run on a worker thread.  Results come back as finished
        response text; errors and catalog answers as their (small) dicts.
        """
        if isinstance(job.payload, dict) and "catalog" in job.payload:
            return partial(_answered, self._serve_catalog, job.payload)

        def start() -> bytes | dict | Callable[[], bytes | dict]:
            queries = wire.decode_request(job.payload)
            self._guard_match_cardinality(
                queries, self._lane(job.tenant).policy)
            request = self.caching.look_up(queries)
            if request.answered:
                return self._encode(job, request)
            return partial(_answered, self._encode, job, request)

        return _answered(start)

    def _encode(self, job: _Job, request: Request) -> bytes:
        """The request's run phase (only assembly when every query hit)
        and its reply text."""
        forms: list[str] = []
        text = wire.encode_response_json(
            self.caching.finish(request),
            held=job.held,
            validator=result_validator,
            tail=entry_tail,
            forms=forms,
        )
        job.forms = forms  # only a reply that was encoded counts
        return text

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

    def _guard_match_cardinality(self, queries, policy: TenantPolicy) -> None:
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
        limit, scope = self.max_match_series, "server's"
        if policy.max_match_series is not None:
            limit, scope = policy.max_match_series, "tenant's"
        if limit is None:
            return
        seen: set = set()
        for q in queries:
            if q.filter in seen:
                continue
            seen.add(q.filter)
            matched = self.caching.cardinality(q.metric, q.tags)
            if matched > limit:
                raise CardinalityLimitError(
                    f"query on metric {q.metric!r} matches {matched} "
                    f"series, over the {scope} {limit}-series limit "
                    f"(narrow the tag filter)",
                    limit=limit,
                )

    def _reply(self, job: _Job, response: bytes | dict) -> None:
        """Write one whole line; the connection's handler drains it."""
        if isinstance(response, dict) and "error" in response:
            self.errors += 1
        line = wire.reply_line(response, job.id_json)
        if job.writer.is_closing():
            return
        # counted before the write: whoever reads this reply and then
        # ``stats()`` finds it there
        for form in job.forms:
            self.replies[form] += 1
        self.replies["bytes"] += len(line)
        job.writer.write(line)

    # -- connections -----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._stopping:
                try:
                    await writer.drain()  # a client not reading: not read
                    if b"\n" in reader._buffer:
                        # a pipelined line is here already: let the other
                        # connections in first (a closed loop never is)
                        await asyncio.sleep(0)
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # end of stream: the last line, if any
                except asyncio.LimitOverrunError as exc:
                    # Counted and answered like any other bad line; the
                    # rest of it is skipped, so the connection lives on.
                    self.requests += 1
                    self._refuse(
                        f"request line is over the {MAX_LINE_BYTES}-byte limit",
                        writer,
                    )
                    if await _skip_line(reader, exc.consumed):
                        continue
                    break
                except ConnectionError:
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
                job = self._parse_line(line, writer)
                if job is None:
                    continue  # error already replied; connection lives on
                # One line in flight: its reply is written (or abandoned
                # by a hard stop) before the next line is read.
                await self._serve(job)
        except asyncio.CancelledError:
            pass  # a hard stop; ending cancelled, Python 3.11 logs an error
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    def _parse_line(self, line: bytes, writer) -> "_Job | None":
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
            held = payload.pop("held", None)
            if not isinstance(tenant, str) or not tenant:
                bad = "'tenant' must be a non-empty string"
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
            self._refuse(bad, writer)
            return None
        return _Job(payload, held, id_json, tenant, writer)

    def _refuse(self, message: str, writer) -> None:
        """Answer one request line with a ``WireError`` naming ``message``."""
        self._reply(
            _Job(None, None, None, "public", writer),
            wire.encode_error(wire.WireError(message)),
        )


async def _skip_line(reader: asyncio.StreamReader, consumed: int) -> bool:
    """Discard an over-limit line through its newline, starting with the
    ``consumed`` bytes already buffered; False if the stream ends first."""
    try:
        while True:
            await reader.readexactly(consumed)
            try:
                await reader.readuntil(b"\n")
                return True
            except asyncio.LimitOverrunError as exc:
                consumed = exc.consumed
    except (asyncio.IncompleteReadError, ConnectionError):
        return False


def _answered(fn, *args) -> bytes | dict | Callable[[], bytes | dict]:
    """``fn(*args)``, or the error response for what it raised."""
    try:
        return fn(*args)
    except (
        wire.WireError, QueryError, InvalidName, CardinalityLimitError
    ) as exc:
        return wire.encode_error(exc)
    except Exception as exc:  # store fault: answer, don't die
        return _error_dict("InternalError", f"{type(exc).__name__}: {exc}")


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
