"""Synchronous client SDK for the query server.

A thin, dependency-free socket client speaking the newline-delimited
JSON protocol of :mod:`repro.serve.server`:

- **connection reuse** — one TCP connection per client, lazily opened
  and kept across calls;
- **timeouts** — a per-call socket deadline; a timed-out call closes
  the connection so a stuck server cannot wedge the client;
- **retry with backoff** — transport failures (refused, reset, timed
  out) reconnect and resend with exponential backoff; queries are
  idempotent reads, so resending is safe.  Each sleep is scaled by a
  random **jitter** factor so a fleet of clients cut off together (say,
  by a primary failover) doesn't retry in lockstep against the freshly
  promoted follower, and an optional total-elapsed **deadline** caps
  the whole retry sequence — a dashboard would rather show one stale
  panel than block a render loop through full exponential backoff.
  *Server-answered* errors
  (:class:`~repro.tsdb.wire.RemoteQueryError`) are never retried — the
  request itself is bad;
- **batched multi-query calls** — :meth:`run_many` ships a whole
  dashboard as one request line, so the server plans it as one batch;
- **replies proportional to what changed** — the client keeps the last
  reply entry per panel *shape* (the query minus its window) and says
  so: every query request carries the ``"held"`` envelope field, one
  validator or ``null`` per query.  The server answers an entry it can
  tell is unchanged with ``"notModified": true`` and, on the refresh
  path, one that only grew with its ``"tail"``; the client puts the
  held series back, so callers see whole replies of the usual shape and
  none of this.  A pre-``held`` server answers such a request with its
  in-band ``unknown request fields`` error.

Usage::

    with QueryClient(host, port, tenant="dashboard") as client:
        results = client.run_many(panel_queries, refresh=True)
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Callable, Sequence

from ..tsdb import wire
from ..tsdb.plan import ExprQuery, QueryBuilder
from ..tsdb.query import Query
from ..tsdb.wire import RemoteQueryError, WireError, WireResult, WireSeries
from .cache import BoundedLRU

#: Panel shapes a client keeps the last reply entry of (the server-side
#: refresher's ``max_panels``).
HELD_PANELS = 256


class _Held:
    """The last reply entry received for one panel shape."""

    __slots__ = ("validator", "series", "decoded")

    def __init__(
        self,
        validator: str,
        series: list,
        decoded: tuple[WireSeries, ...] | None = None,
    ) -> None:
        self.validator = validator
        self.series = series  # the entry's parsed ``series``, handed out
        self.decoded = decoded  # ``wire.decode_series(series)``, once asked for


def _windowless(q: dict) -> dict:
    if "operands" in q:
        return {
            **q,
            "operands": {k: _windowless(v) for k, v in q["operands"].items()},
        }
    return {k: v for k, v in q.items() if k not in ("start", "end")}


def _panel_shape(encoded: dict) -> str:
    """Panel identity of an encoded query: everything but its window —
    the client-side twin of :func:`repro.serve.refresh._panel_key`.
    (:func:`~repro.tsdb.wire.encode_query` emits its keys, tags and
    ``groupBy`` in one order, so the text needs no sorting.)"""
    return json.dumps(_windowless(encoded))


def _extend(held: _Held, tails, validator: str) -> _Held | None:
    """What ``held`` becomes under a *tail* entry's ``tail`` array, or
    None if that does not fit it.

    Every changed series gets a **new** ``dps`` dict — the held one's
    first ``keep`` entries, then the tail's — because the held series
    have been handed out.
    """
    if not isinstance(tails, list) or len(tails) != len(held.series):
        return None
    series = []
    for prev, t in zip(held.series, tails):
        if not isinstance(t, dict) or not isinstance(prev, dict):
            return None
        keep, tail, dps = t.get("keep"), t.get("dps"), prev.get("dps")
        if (
            type(keep) is not int
            or not isinstance(tail, dict)
            or not isinstance(dps, dict)
            or not 0 <= keep <= len(dps)
        ):
            return None
        if keep == len(dps) and not tail:
            series.append(prev)
            continue
        dps = dps.copy()
        for _ in range(len(dps) - keep):
            dps.popitem()
        dps.update(tail)
        series.append({**prev, "dps": dps})
    decoded = None
    if held.decoded is not None:
        decoded = wire.extend_series(held.decoded, tails)
    return _Held(validator, series, decoded)


class QueryClient:
    """Reusable connection to one :class:`~repro.serve.server.QueryServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str | None = None,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.05,
        jitter: float = 0.25,
        deadline: float | None = None,
        rng: Callable[[], float] | None = None,
    ) -> None:
        """``jitter`` scales each backoff sleep by a uniform factor in
        ``[1-jitter, 1+jitter]``; ``deadline`` (seconds) is a
        total-elapsed budget per call — once it is spent, no further
        retry starts (the in-progress attempt still finishes, bounded by
        ``timeout``) and sleeps are clipped to the time remaining.
        ``rng`` is an injectable ``random()``-like callable so tests pin
        the jitter.
        """
        self.host = host
        self.port = int(port)
        self.tenant = tenant
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.jitter = float(jitter)
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.deadline = None if deadline is None else float(deadline)
        self._rng = rng if rng is not None else random.random
        self._sock: socket.socket | None = None
        self._file = None
        self._next_id = 0
        self._held: BoundedLRU = BoundedLRU(HELD_PANELS)  # shape -> _Held
        self._answered: list[_Held] = []  # per result of the last reply

    # -- connection lifecycle --------------------------------------------
    def connect(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.settimeout(self.timeout)
        self._sock = sock
        self._file = sock.makefile("rb")

    def close(self) -> None:
        file, self._file = self._file, None
        sock, self._sock = self._sock, None
        if file is not None:
            try:
                file.close()
            except OSError:
                pass
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "QueryClient":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- calls -----------------------------------------------------------
    def request(
        self,
        queries: Sequence[Query | QueryBuilder | ExprQuery],
        *,
        refresh: bool = False,
    ) -> dict:
        """One batched call; returns the raw (JSON-decoded) response.

        Retries transport failures with exponential backoff, resending
        the same request over a fresh connection.  Raises the last
        transport error when retries are exhausted.

        The envelope and each ``results`` entry are fresh dicts, the
        caller's to change.  Each entry's ``series`` list, and everything
        below it, is shared with the client's held copy and with later
        replies for the same panel: **read-only**.
        """
        envelope = wire.encode_request(queries)
        if refresh:
            envelope["refresh"] = True
        shapes = [_panel_shape(q) for q in envelope["queries"]]
        was_held = [self._held.use(shape) for shape in shapes]
        envelope["held"] = [h and h.validator for h in was_held]
        response = self._call(envelope)
        self._answered = []
        if isinstance(response, dict) and "results" in response:
            try:
                self._answered = self._resolve(response, was_held)
            except WireError:
                # A server that lies must not poison later replies.
                self._held.clear()
                self.close()
                raise
            for shape, held in zip(shapes, self._answered):
                self._held.put(shape, held)
        return response

    @staticmethod
    def _resolve(response: dict, was_held: list[_Held | None]) -> list[_Held]:
        """Put every entry of ``response`` the server answered *not
        modified* or with a *tail* back into its full form, from what
        was held when the request was sent, so the response is the whole
        reply of a client holding nothing.  Returns what each entry
        leaves held; raises :class:`WireError` for a reply that does not
        fit what was sent.
        """
        results = response["results"]
        validators = response.pop("validators", None)
        if (
            not isinstance(results, list)
            or not isinstance(validators, list)
            or not len(results) == len(validators) == len(was_held)
        ):
            raise WireError(
                "reply must carry 'results' and 'validators' aligned with "
                "the queries sent"
            )
        now_held = []
        for i, (entry, validator, held) in enumerate(
            zip(results, validators, was_held)
        ):
            if not isinstance(entry, dict) or not isinstance(validator, str):
                raise WireError(f"result {i} is not an entry with a validator")
            if "series" in entry:
                now_held.append(_Held(validator, entry["series"]))
                continue
            if entry.get("notModified") is True:
                if held is not None and held.validator != validator:
                    held = None
            elif held is not None:
                held = _extend(held, entry.get("tail"), validator)
            if held is None:
                raise WireError(
                    f"result {i} is not modified from, or the tail of, a "
                    "reply this client does not hold"
                )
            # a fresh entry in the full form's key order
            full = {"expr": entry["expr"]} if "expr" in entry else {}
            full["series"] = held.series
            for key, value in entry.items():
                if key not in ("expr", "notModified", "tail"):
                    full[key] = value
            results[i] = full
            now_held.append(held)
        return now_held

    def _call(self, envelope: dict) -> dict:
        """Stamp the envelope, send it, and read one reply line.

        The shared transport loop under :meth:`request` and
        :meth:`catalog_request`: connection reuse, per-call timeout,
        retry with exponential backoff, and reply-id correlation.
        """
        self._next_id += 1
        envelope["id"] = self._next_id
        if self.tenant is not None:
            envelope["tenant"] = self.tenant
        line = json.dumps(envelope, allow_nan=False).encode() + b"\n"

        started = time.monotonic()
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                delay = self.backoff * (2 ** (attempt - 1))
                # Jittered so clients that failed together retry spread out.
                delay *= 1.0 + self.jitter * (2.0 * self._rng() - 1.0)
                if self.deadline is not None:
                    remaining = self.deadline - (time.monotonic() - started)
                    if remaining <= 0:
                        break  # out of time: surface the last transport error
                    delay = min(delay, remaining)
                time.sleep(max(0.0, delay))
            try:
                self.connect()
                assert self._sock is not None and self._file is not None
                self._sock.sendall(line)
                reply = self._file.readline()
                if not reply:
                    raise ConnectionError("server closed the connection")
                response = json.loads(reply)
                if (
                    isinstance(response, dict)
                    and response.get("id") not in (None, envelope["id"])
                ):
                    raise WireError(
                        f"response id {response.get('id')!r} does not match "
                        f"request id {envelope['id']!r}"
                    )
                return response
            except (ConnectionError, socket.timeout, OSError) as exc:
                # Transport fault: this connection is suspect — drop it
                # and (maybe) retry on a fresh one.
                self.close()
                last_error = exc
            except json.JSONDecodeError as exc:
                self.close()
                raise WireError(f"response is not valid JSON: {exc}") from None
        assert last_error is not None
        raise last_error

    def run_many(
        self,
        queries: Sequence[Query | QueryBuilder | ExprQuery],
        *,
        refresh: bool = False,
    ) -> list[WireResult]:
        """Execute a batch remotely; results align with the input order.

        Raises :class:`RemoteQueryError` when the server answers with a
        wire error response (bad query, overload drop, server fault).

        Decoded series are kept beside the held replies and shared
        between calls (an unchanged panel decodes nothing, a grown one
        its tail): their arrays are **read-only**.
        """
        response = self.request(queries, refresh=refresh)
        by_series = {id(held.series): held for held in self._answered}

        def decode_series(series) -> tuple[WireSeries, ...]:
            held = by_series.get(id(series))
            if held is None:  # not an entry of a reply ``request`` resolved
                return wire.decode_series(series)
            if held.decoded is None:
                held.decoded = wire.decode_series(series)
            return held.decoded

        return wire.decode_response(response, decode_series=decode_series)

    def run(self, query: Query | QueryBuilder | ExprQuery) -> WireResult:
        """Execute a single query remotely."""
        return self.run_many([query])[0]

    # -- catalog metadata ------------------------------------------------
    def catalog_request(
        self,
        op: str,
        *,
        metric: str | None = None,
        key: str | None = None,
        tags: dict | None = None,
    ) -> dict:
        """One catalog call; returns the raw (JSON-decoded) response."""
        return self._call(
            wire.encode_catalog_request(op, metric=metric, key=key, tags=tags)
        )

    def catalog(
        self,
        op: str,
        *,
        metric: str | None = None,
        key: str | None = None,
        tags: dict | None = None,
    ) -> list | int:
        """Series-metadata lookup: the remote suggest/cardinality surface.

        ``op`` is one of ``metrics``, ``tag_keys``, ``tag_values``,
        ``cardinality``; the first three return sorted string lists,
        the last an integer.  Raises :class:`RemoteQueryError` on an
        in-band error (malformed request, guard-rail rejection).
        """
        return wire.decode_catalog_response(
            self.catalog_request(op, metric=metric, key=key, tags=tags)
        )


__all__ = ["QueryClient", "RemoteQueryError"]
