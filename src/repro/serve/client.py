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
- **batched multi-query calls** — :meth:`request` ships a whole
  dashboard as one request line, so the server plans it as one batch;
- **replies proportional to what changed** — the client keeps the last
  reply entry per panel, keyed by :attr:`~repro.tsdb.query.Query.panel`
  (the query minus its window), and says so: every query request
  carries the ``"held"`` envelope field, one validator or ``null`` per
  query.  The server answers an entry it can
  tell is unchanged with ``"notModified": true``, and one spliced from
  the held one — grown, slid, or both — with its ``"tail"``: per series,
  the held run to keep and the head and tail around it; the client
  splices the held columns as text and puts the series back, so
  callers see whole replies of the usual shape and none of this.  A
  pre-``held`` server answers such a request with its in-band
  ``unknown request fields`` error.

Replies come back as their JSON; :func:`~repro.tsdb.wire.decode_response`
turns one into numpy-backed results (and raises
:class:`~repro.tsdb.wire.RemoteQueryError` for an in-band error)::

    with QueryClient(host, port, tenant="dashboard") as client:
        results = wire.decode_response(client.request(panel_queries))
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Callable, Sequence

from ..tsdb import wire
from ..tsdb.query import Query
from ..tsdb.wire import RemoteQueryError, WireError
from .cache import HELD_PANELS, BoundedLRU


class _Held:
    """The last reply entry received for one panel."""

    __slots__ = ("validator", "series")

    def __init__(self, validator: str, series: list) -> None:
        self.validator = validator
        self.series = series  # the entry's parsed ``series``, handed out


#: Where a query keeps its wire dict: the instance dict, which equality,
#: hash and repr do not see.
_WIRE_ATTR = "_wire_query"


def _wire_query(q: Query) -> dict:
    """``q``'s wire dict (:func:`~repro.tsdb.wire.encode_query`), made
    once per query object and kept on it: a query is immutable, and a
    dashboard re-polls the same objects.  Shared by every request that
    sends ``q``, so read-only."""
    encoded = q.__dict__.get(_WIRE_ATTR) if isinstance(q, Query) else None
    if encoded is None:
        encoded = wire.encode_query(q)  # WireError for a non-query
        q.__dict__[_WIRE_ATTR] = encoded
    return encoded


def _head(t: dict):
    """A splice element's ``keep`` and head columns: an int ``keep`` and
    no head, or a pair of ints and a ``"head"`` of two strings of equal
    length — else None."""
    keep, head = t.get("keep"), t.get("head")
    if type(keep) is int:
        return None if head is not None else (keep, "", "")
    if (
        type(keep) is not list
        or len(keep) != 2
        or type(keep[0]) is not int
        or type(keep[1]) is not int
        or type(head) is not dict
    ):
        return None
    t_head, v_head = head.get("t"), head.get("v")
    if type(t_head) is str and type(v_head) is str and len(t_head) == len(v_head):
        return keep, t_head, v_head
    return None


def _extend(held: _Held, tails, validator: str) -> _Held | None:
    """What ``held`` becomes under a *tail* entry's ``tail`` array, or
    None if that does not fit it.

    Every series is a **new** dict — the held one with each column
    spliced as text (:func:`~repro.tsdb.wire.splice_column`), nothing
    decoded — because the held series have been handed out.
    """
    if not isinstance(tails, list) or len(tails) != len(held.series):
        return None
    series = []
    for prev, t in zip(held.series, tails):
        if not isinstance(t, dict) or not isinstance(prev, dict):
            return None
        spec, t_tail, v_tail = _head(t), t.get("t"), t.get("v")
        t_held, v_held = prev.get("t"), prev.get("v")
        if (
            spec is None
            or type(t_tail) is not str
            or type(v_tail) is not str
            or type(t_held) is not str
            or type(v_held) is not str
            or len(t_tail) != len(v_tail)
        ):
            return None
        keep, t_head, v_head = spec
        t_now = wire.splice_column(t_held, keep, t_tail, t_head)
        v_now = wire.splice_column(v_held, keep, v_tail, v_head)
        if t_now is None or v_now is None:
            return None
        series.append({**prev, "t": t_now, "v": v_now})
    return _Held(validator, series)


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
        self._held: BoundedLRU = BoundedLRU(HELD_PANELS)  # Query.panel -> _Held

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
        queries: Sequence[Query],
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
        # ``refresh`` is ignored: the frozen benchmarks/e2e workloads pass it.
        envelope = {
            "version": wire.WIRE_VERSION,
            "queries": [_wire_query(q) for q in queries],
        }
        panels = [q.panel for q in queries]
        was_held = [self._held.use(panel) for panel in panels]
        envelope["held"] = [h and h.validator for h in was_held]
        response = self._call(envelope)
        if isinstance(response, dict) and "results" in response:
            try:
                now_held = self._resolve(response, was_held)
            except WireError:
                self._distrust()
                raise
            for panel, was, held in zip(panels, was_held, now_held):
                if held is not was:  # else ``use`` made it the newest
                    self._held.put(panel, held)
        return response

    def _distrust(self) -> None:
        """A server that lies must not poison later replies: forget
        what is held and drop the connection."""
        self._held.clear()
        self.close()

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
            full = {"series": held.series}
            for key, value in entry.items():
                if key not in ("notModified", "tail"):
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


__all__ = ["QueryClient", "RemoteQueryError"]
