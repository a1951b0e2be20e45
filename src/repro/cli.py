"""Command-line interface: ``python -m repro <command>``.

Small operational wrapper over the library so a city operator can poke
the system without writing code:

- ``demo``        — run the two-city EDBT demonstration;
- ``run``         — simulate one city for N hours and print pipeline stats;
- ``dashboard``   — render the Fig. 6 air-quality dashboard as text;
- ``table1``      — show the external-source catalog status;
- ``wall``        — render the Fig. 8 wall display once;
- ``query``       — batch-execute OpenTSDB-shape queries over a simulated
  city and print the JSON wire response; with ``--connect HOST:PORT``
  the queries go to a running query server instead;
- ``catalog``     — series-metadata lookups (metrics, tag keys, tag
  values, cardinality) against a simulated city or, with
  ``--connect``, a running query server;
- ``serve``       — simulate a city, then serve its store over the
  asyncio TCP query service (newline-delimited JSON wire requests);
  SIGTERM drains admitted requests before exiting, and
  ``--replicate-to HOST:PORT`` ships every committed write to a
  follower;
- ``follow``      — run a hot-standby replica: apply shipped segment
  blocks into a local store, promote to a read-write primary on
  SIGUSR1 (optionally serving queries), shut down cleanly on SIGTERM;
- ``convert-log`` — migrate a WAL/snapshot between the text line
  protocol and binary columnar segments.
"""

from __future__ import annotations

import argparse
import sys

# Each command imports its own subsystem when it runs: the parser, and
# the commands that talk to a store or a server (`query --connect`,
# `follow`, `compact`, ...), never load the simulation (`repro.core`).
from .backpressure import Backpressure
from .simclock import HOUR


def _deployment(city: str):
    from .core import trondheim_deployment, vejle_deployment

    if city == "trondheim":
        return trondheim_deployment()
    if city == "vejle":
        return vejle_deployment()
    raise SystemExit(f"unknown city {city!r}; pick 'trondheim' or 'vejle'")


def _build(
    city: str, hours: int, seed: int, shards: int = 0
) -> tuple:
    """Simulate ``city`` for ``hours``; returns ``(ecosystem, city)``."""
    from .core import CttEcosystem, EcosystemConfig

    eco = CttEcosystem(
        [_deployment(city)],
        config=EcosystemConfig(seed=seed, tsdb_shards=shards),
    )
    eco.start()
    eco.run(hours * HOUR)
    return eco, eco.city(city)


def cmd_run(args: argparse.Namespace) -> int:
    if args.cities:
        return _run_region(args)
    eco, city = _build(args.city, args.hours, args.seed, args.shards)
    stats = city.delivery_stats()
    store = f"sharded tsdb ({args.shards} shards)" if args.shards else "tsdb"
    print(f"{args.city}: {args.hours} simulated hour(s), store: {store}")
    for key, value in stats.items():
        print(f"  {key:>22}: {value}")
    return 0


def _run_region(args: argparse.Namespace) -> int:
    """Multi-city fan-in run: N dataports → RegionalHub → one store."""
    import contextlib
    import tempfile

    names = [c.strip() for c in args.cities.split(",") if c.strip()]
    if len(names) != len(set(names)):
        raise SystemExit("--cities must not repeat a city")
    with contextlib.ExitStack() as stack:
        spill_dir = None
        if args.backpressure == Backpressure.SPILL.value:
            spill_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-region-spill-")
            )
        return _run_region_inner(args, names, spill_dir)


def _run_region_inner(args, names: list[str], spill_dir: str | None) -> int:
    from .core import CttEcosystem, EcosystemConfig
    from .region import CityPolicy

    policies = tuple(
        CityPolicy(
            name,
            queue_capacity=args.queue_depth,
            backpressure=args.backpressure,
        )
        for name in names
    )
    eco = CttEcosystem(
        [_deployment(name) for name in names],
        config=EcosystemConfig(
            seed=args.seed,
            tsdb_shards=args.shards,
            cities=policies,
            region_spill_dir=spill_dir,
        ),
    )
    eco.start()
    eco.run(args.hours * HOUR)
    eco.flush_region()
    store = f"sharded tsdb ({args.shards} shards)" if args.shards else "tsdb"
    print(
        f"regional fan-in: {len(names)} cities, {args.hours} simulated "
        f"hour(s), store: {store}, backpressure: {args.backpressure}, "
        f"queue depth: {args.queue_depth}"
    )
    for name in names:
        stats = eco.city(name).delivery_stats()
        lane = eco.hub.city_stats(name)
        print(f"  [{name}]")
        for key in ("transmissions", "processed_dataport", "points_written"):
            print(f"    {key:>22}: {stats[key]}")
        for key in (
            "accepted_points",
            "dropped_points",
            "spilled_points",
            "flushed_points",
            "high_watermark",
            "refused_offers",
        ):
            print(f"    {key:>22}: {lane[key]}")
    hub = eco.hub.stats_snapshot()["hub"]
    print(f"  hub: {hub['flushed_points']} points over {hub['flushes']} flushes "
          f"({hub['ticks']} ticks)")
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    from .core import build_air_quality_dashboard

    eco, city = _build(args.city, args.hours, args.seed, args.shards)
    start = eco.now - args.hours * HOUR
    dash = build_air_quality_dashboard(city, start, eco.now)
    print(dash.render_text())
    return 0


def cmd_wall(args: argparse.Namespace) -> int:
    from .core import build_wall_display

    eco, city = _build(args.city, args.hours, args.seed, args.shards)
    start = eco.now - args.hours * HOUR
    print(build_wall_display(city, start, eco.now).render_text())
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from .core import CttEcosystem, EcosystemConfig
    from .integration import render_table1

    eco = CttEcosystem([_deployment(args.city)],
                       config=EcosystemConfig(seed=args.seed))
    print(render_table1(eco.city(args.city).catalog))
    return 0


def _parse_tag_pairs(spec: str | None, *, context: str = "query") -> dict:
    tags: dict = {}
    for pair in (spec or "").split(","):
        if not pair.strip():
            continue
        if "=" not in pair:
            raise SystemExit(
                f"{context}: bad --tags entry {pair!r}; expected k=v"
            )
        k, v = pair.split("=", 1)
        tags[k.strip()] = v.strip()
    return tags


def _parse_tags(city: str, spec: str | None) -> dict:
    return {"city": city, **_parse_tag_pairs(spec)}


def _flag_queries(args: argparse.Namespace, start: int, end: int) -> list:
    from .tsdb import Query, QueryError

    tags = _parse_tags(args.city, args.tags)
    group_by = tuple(
        g.strip() for g in (args.group_by or "").split(",") if g.strip()
    )
    try:
        return [
            Query(
                metric.strip(),
                start,
                end,
                tags=tags,
                aggregator=args.agg,
                downsample=args.downsample,
                rate=args.rate,
                group_by=group_by,
            )
            for metric in args.metrics.split(",")
        ]
    except QueryError as exc:
        raise SystemExit(f"query: {exc}")


def _parse_connect(spec: str, *, flag: str = "--connect") -> tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise SystemExit(f"bad {flag} {spec!r}; expected HOST:PORT")
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"bad {flag} port {port!r}")


def cmd_query(args: argparse.Namespace) -> int:
    """Batched queries as wire JSON, local or over the network.

    Two input modes, both executed through ``run_many`` as one batch:

    - flags: ``query air.co2.ppm,weather.temperature.c --downsample
      1h-avg --group-by node`` builds one query per metric over the
      simulated window;
    - ``--request FILE``: a versioned wire-format JSON request
      (``-`` = stdin) with absolute start/end, for exact replays.

    With ``--connect HOST:PORT`` nothing is simulated locally: the
    batch is shipped to a running ``repro serve`` endpoint through the
    client SDK and the server's raw JSON reply is printed.  Flag-built
    queries then need absolute ``--start``/``--end`` timestamps
    (the remote store's clock, not ours).
    """
    import json
    from pathlib import Path

    from .tsdb import WireError, wire

    # Validate the request before paying for the simulation: a bad wire
    # file should fail in milliseconds, not after N simulated hours.
    queries = None
    if args.request:
        text = sys.stdin.read() if args.request == "-" else Path(args.request).read_text()
        try:
            queries = wire.decode_request(text)
        except WireError as exc:
            raise SystemExit(f"query: bad request: {exc}")
    elif not args.metrics:
        raise SystemExit("query: give METRIC[,METRIC...] or --request FILE")

    if args.connect:
        from .serve import QueryClient

        host, port = _parse_connect(args.connect)
        if queries is None:
            if args.start is None or args.end is None:
                raise SystemExit(
                    "query: --connect with flag-built queries needs absolute "
                    "--start and --end (or use --request FILE)"
                )
            queries = _flag_queries(args, args.start, args.end)
        try:
            with QueryClient(host, port, tenant=args.tenant) as client:
                response = client.request(queries, refresh=args.refresh)
        except OSError as exc:
            raise SystemExit(f"query: cannot reach {host}:{port}: {exc}")
        print(json.dumps(response, indent=2))
        return 0 if "error" not in response else 1

    eco, city = _build(args.city, args.hours, args.seed, args.shards)
    if queries is None:
        end = eco.now
        queries = _flag_queries(args, end - args.hours * HOUR, end)
    results = city.db.run_many(queries)
    print(json.dumps(wire.encode_response(results), indent=2))
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    """Series-metadata lookups as wire JSON, local or over the network.

    The op is inferred from the flags, mirroring OpenTSDB's
    ``/api/suggest`` family:

    - no flags              → ``metrics`` (every metric in the store);
    - ``--metric M``        → ``tag_keys`` (tag keys under ``M``);
    - ``--metric M --key K``→ ``tag_values`` (distinct values of ``K``);
    - ``--metric M --cardinality [--tags K=V,...]`` → matching-series
      count (tag values may use ``*`` and ``a|b`` patterns).

    Locally the lookup runs against a freshly simulated city; with
    ``--connect HOST:PORT`` it goes to a running ``repro serve``
    endpoint (where it is answered from the server's generation-
    validated catalog cache).  Exit status 1 on an in-band error reply
    — e.g. a guard-rail rejection.
    """
    import json

    from .tsdb import wire

    if args.key and args.cardinality:
        raise SystemExit("catalog: --key and --cardinality are exclusive")
    if (args.key or args.cardinality) and not args.metric:
        raise SystemExit("catalog: --key/--cardinality need --metric")
    if args.tags and not args.cardinality:
        raise SystemExit("catalog: --tags only applies to --cardinality")
    if args.cardinality:
        op = "cardinality"
    elif args.key:
        op = "tag_values"
    elif args.metric:
        op = "tag_keys"
    else:
        op = "metrics"
    tags = _parse_tag_pairs(args.tags, context="catalog") or None

    if args.connect:
        from .serve import QueryClient

        host, port = _parse_connect(args.connect)
        try:
            with QueryClient(host, port, tenant=args.tenant) as client:
                response = client.catalog_request(
                    op, metric=args.metric, key=args.key, tags=tags
                )
        except OSError as exc:
            raise SystemExit(f"catalog: cannot reach {host}:{port}: {exc}")
    else:
        eco, city = _build(args.city, args.hours, args.seed, args.shards)
        request = wire.encode_catalog_request(
            op, metric=args.metric, key=args.key, tags=tags
        )
        response = wire.handle_catalog_request(city.db, request)
    print(json.dumps(response, indent=2))
    return 0 if "error" not in response else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Simulate a city, then serve its store over asyncio TCP.

    The simulated window is the data set; clients query it with
    absolute timestamps (the bound window is printed on startup).
    Runs until SIGTERM/SIGINT, then *drains*: admitted requests are
    answered, new ones refused, and only then does the process exit.

    With ``--replicate-to HOST:PORT`` the store is wrapped in a
    :class:`~repro.replication.ReplicatedStore` and a shipper streams
    its history (bootstrapped from a binary snapshot of the simulated
    window) plus any later writes to a ``repro follow`` standby.

    With ``--wal PATH`` the store journals through a
    :class:`~repro.tsdb.tier.DurableStore` (the simulated window is
    snapshotted as the journal's base, later writes append); adding
    ``--compact-every SECONDS`` runs the tiered-storage compactor over
    the journal in the background, rewriting it whenever the trigger
    policy finds it fragmented.
    """
    import asyncio
    import io
    import signal

    from .serve import QueryServer, TenantPolicy

    if args.compact_every is not None and not args.wal:
        raise SystemExit("serve: --compact-every requires --wal PATH")

    eco, city = _build(args.city, args.hours, args.seed, args.shards)
    store = city.db
    replicate_to = None
    if args.replicate_to:
        from .replication import ReplicatedStore, ReplicationLog
        from .tsdb import dumps

        replicate_to = _parse_connect(args.replicate_to, flag="--replicate-to")
        log = ReplicationLog()
        # The simulated history predates the tee: bootstrap the log from
        # a binary snapshot so the follower converges on the full store.
        log.append_segment(io.BytesIO(dumps(store, format="binary")))
        store = ReplicatedStore(store, log)
    durable = None
    if args.wal:
        from .tsdb import snapshot
        from .tsdb.tier import DurableStore

        # The journal's base is the simulated window; every later write
        # appends, so replaying the file rebuilds the served store.
        snapshot(store, args.wal, format="binary")
        store = durable = DurableStore(store, args.wal)
    policy = TenantPolicy(
        max_pending=args.max_pending,
        backpressure=args.backpressure,
        parallelism=args.parallelism,
    )
    server = QueryServer(
        store,
        host=args.host,
        port=args.port,
        default_policy=policy,
        cache_capacity=args.cache_capacity,
        max_match_series=args.max_match_series,
    )

    async def _main() -> None:
        shipper = None
        if replicate_to is not None:
            from .replication import SegmentShipper

            shipper = SegmentShipper(store.log, *replicate_to)
            shipper.start()
        host, port = await server.start()
        start = eco.now - args.hours * HOUR
        print(f"serving {args.city} on {host}:{port} "
              f"(window {start}..{eco.now}, backpressure: "
              f"{policy.backpressure.value})", flush=True)
        if replicate_to is not None:
            print(f"replicating to {replicate_to[0]}:{replicate_to[1]}",
                  flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        compact_task = None
        if durable is not None and args.compact_every is not None:
            from .tsdb.tier import Compactor

            compactor = Compactor(durable.wal_path)
            print(f"journaling to {durable.wal_path} "
                  f"(compacting every {args.compact_every:g}s)", flush=True)

            def _compact_once():
                # Quiesce the journal while the compactor swaps the file
                # out from under it; writers block on the store lock for
                # the (short) duration of the rewrite.
                with durable.suspend_wal():
                    return compactor.maybe_compact()

            async def _compact_loop() -> None:
                while True:
                    await asyncio.sleep(args.compact_every)
                    result = await loop.run_in_executor(None, _compact_once)
                    if result is not None:
                        print(
                            f"compacted {result.path}: "
                            f"{result.blocks_before} -> {result.blocks_after} "
                            f"blocks, {result.bytes_before} -> "
                            f"{result.bytes_after} bytes "
                            f"({result.bytes_ratio:.2f}x)",
                            flush=True,
                        )

            compact_task = loop.create_task(_compact_loop())
        elif durable is not None:
            print(f"journaling to {durable.wal_path}", flush=True)
        await stop.wait()
        print("draining...", flush=True)
        if compact_task is not None:
            compact_task.cancel()
            try:
                await compact_task
            except asyncio.CancelledError:
                pass
        await server.stop(timeout=10.0)
        if shipper is not None:
            await shipper.stop()
        if durable is not None:
            durable.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - pre-handler interrupt
        pass
    print("bye")
    return 0


def cmd_follow(args: argparse.Namespace) -> int:
    """Run a hot-standby replica of a replicating primary.

    Listens for shipper connections (``repro serve --replicate-to`` or
    any :class:`~repro.replication.SegmentShipper`) and applies records
    into a local single or sharded store.  Signals drive the lifecycle:

    - ``SIGUSR1`` — promote: stop replicating, optionally write a
      binary snapshot (``--snapshot-on-promote``), and, with
      ``--serve-port``, serve the store over the standard query
      endpoint — the failover path;
    - ``SIGTERM``/``SIGINT`` — shut down cleanly (draining the query
      server first when promoted).
    """
    import asyncio
    import signal

    from .replication import Follower

    host, port = _parse_connect(args.listen, flag="--listen")
    follower = Follower(host=host, port=port, shards=args.shards)

    async def _main() -> None:
        fh, fp = await follower.start()
        print(f"following on {fh}:{fp}", flush=True)
        loop = asyncio.get_running_loop()
        promote = asyncio.Event()
        term = asyncio.Event()
        loop.add_signal_handler(signal.SIGUSR1, promote.set)
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, term.set)
        promote_wait = asyncio.ensure_future(promote.wait())
        term_wait = asyncio.ensure_future(term.wait())
        try:
            await asyncio.wait(
                {promote_wait, term_wait}, return_when=asyncio.FIRST_COMPLETED
            )
            if not promote.is_set():
                await follower.stop()
                return
            store = follower.promote()
            await follower.stop()
            print(f"promoted at seq {follower.applied_seq} "
                  f"({follower.stats.points_applied} points applied)",
                  flush=True)
            if args.snapshot_on_promote:
                from .tsdb import snapshot

                n = snapshot(store, args.snapshot_on_promote, format="binary")
                print(f"snapshot: {n} points -> {args.snapshot_on_promote}",
                      flush=True)
            if args.serve_port is not None:
                from .serve import QueryServer

                server = QueryServer(store, host=fh, port=args.serve_port)
                sh, sp = await server.start()
                print(f"serving on {sh}:{sp}", flush=True)
                await term.wait()
                print("draining...", flush=True)
                await server.stop(timeout=10.0)
        finally:
            for waiter in (promote_wait, term_wait):
                waiter.cancel()

    asyncio.run(_main())
    print("bye")
    return 0


def cmd_convert_log(args: argparse.Namespace) -> int:
    """Migrate a WAL or snapshot between durability formats.

    The source format is auto-detected, so this upgrades pre-segment
    text logs to binary (``--to binary``, the default) and turns
    segments back into human-readable lines for debugging
    (``--to text``).  ``--lenient`` skips corrupt lines/blocks — the
    recovery path for a log damaged by an unclean shutdown.
    """
    from .tsdb import LogCorruption, SegmentCorruption, convert_log

    try:
        points, markers = convert_log(
            args.src, args.dst, format=args.to, strict=not args.lenient
        )
    except FileNotFoundError as exc:
        raise SystemExit(f"convert-log: {exc}")
    except (LogCorruption, SegmentCorruption) as exc:
        raise SystemExit(
            f"convert-log: {args.src} is corrupt ({exc}); rerun with --lenient "
            "to skip damaged entries"
        )
    except ValueError as exc:  # e.g. src == dst
        raise SystemExit(f"convert-log: {exc}")
    print(
        f"converted {args.src} -> {args.dst} [{args.to}]: "
        f"{points} points, {markers} retention markers"
    )
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Rewrite a WAL/snapshot (or a sharded snapshot directory) in place.

    Replays the log leniently, resolves retention markers against the
    data, and atomically swaps in a snapshot with few large sorted
    blocks — restoring the compacted file is byte-identical to replaying
    the original, just much cheaper.  With ``--max-blocks`` /
    ``--max-markers`` the rewrite is conditional on the trigger policy
    (files already compact are left untouched); by default it always
    runs.
    """
    from pathlib import Path

    from .tsdb import LogCorruption, SegmentCorruption
    from .tsdb.tier import CompactionPolicy, compact_dir, compact_log

    policy = None
    if args.max_blocks is not None or args.max_markers is not None:
        policy = CompactionPolicy(
            max_blocks=args.max_blocks if args.max_blocks is not None else 256,
            max_marker_blocks=(
                args.max_markers if args.max_markers is not None else 16
            ),
        )

    def _report(result) -> None:
        print(
            f"compacted {result.path}: {result.blocks_before} -> "
            f"{result.blocks_after} blocks, {result.bytes_before} -> "
            f"{result.bytes_after} bytes ({result.bytes_ratio:.2f}x), "
            f"{result.markers_resolved} markers resolved, "
            f"{result.points} points"
        )

    path = Path(args.path)
    try:
        if path.is_dir():
            results = compact_dir(path, policy=policy, strict=not args.lenient)
            if not results:
                print(f"{path}: all shards already compact")
            for _, result in sorted(results.items()):
                _report(result)
        else:
            if policy is not None:
                from .tsdb.tier import Compactor

                result = Compactor(
                    path, policy=policy, strict=not args.lenient
                ).maybe_compact()
                if result is None:
                    print(f"{path}: already compact")
                    return 0
            else:
                result = compact_log(path, strict=not args.lenient)
            _report(result)
    except FileNotFoundError as exc:
        raise SystemExit(f"compact: {exc}")
    except (LogCorruption, SegmentCorruption) as exc:
        raise SystemExit(
            f"compact: {args.path} is corrupt ({exc}); rerun with --lenient "
            "to skip damaged entries"
        )
    except ValueError as exc:
        raise SystemExit(f"compact: {exc}")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    # The examples script is the canonical demo; reuse it.
    from pathlib import Path
    import runpy

    script = Path(__file__).resolve().parents[2] / "examples" / "two_city_demo.py"
    if script.exists():
        runpy.run_path(str(script), run_name="__main__")
        return 0
    print("examples/two_city_demo.py not found; run from a source checkout",
          file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CTT smart-city air-quality ecosystem (EDBT 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--city", default="trondheim",
                       choices=("trondheim", "vejle"))
        p.add_argument("--hours", type=int, default=6)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--shards", type=int, default=0, metavar="N",
                       help="partition the TSDB across N shards (0 = single store)")

    p_run = sub.add_parser("run", help="simulate and print pipeline stats")
    common(p_run)
    p_run.add_argument(
        "--cities", default=None, metavar="A,B",
        help="comma-separated cities fanned into one RegionalHub "
             "(overrides --city)")
    p_run.add_argument(
        "--queue-depth", type=int, default=50_000, metavar="POINTS",
        help="per-city fan-in queue capacity in points (with --cities)")
    p_run.add_argument(
        "--backpressure", default="block",
        choices=tuple(p.value for p in Backpressure),
        help="full-queue policy for the fan-in lanes (with --cities)")
    p_run.set_defaults(func=cmd_run)

    p_dash = sub.add_parser("dashboard", help="render the air-quality dashboard")
    common(p_dash)
    p_dash.set_defaults(func=cmd_dashboard)

    p_wall = sub.add_parser("wall", help="render the wall display")
    common(p_wall)
    p_wall.set_defaults(func=cmd_wall)

    p_t1 = sub.add_parser("table1", help="external-source catalog status")
    common(p_t1)
    p_t1.set_defaults(func=cmd_table1)

    p_query = sub.add_parser(
        "query",
        help="batch-execute queries over a simulated city (wire JSON out)",
    )
    common(p_query)
    p_query.add_argument(
        "metrics", nargs="?", default=None, metavar="METRIC[,METRIC...]",
        help="metrics to query over the simulated window (one query each)")
    p_query.add_argument(
        "--tags", default=None, metavar="K=V[,K=V...]",
        help="extra tag filters (city=<--city> is implied)")
    p_query.add_argument(
        "--agg", default="avg", metavar="NAME",
        help="cross-series aggregator (default: avg)")
    p_query.add_argument(
        "--downsample", default=None, metavar="SPEC",
        help="downsample spec, e.g. 5m-avg or 1h-max-nan")
    p_query.add_argument(
        "--rate", action="store_true",
        help="emit per-second first derivative (counter metrics)")
    p_query.add_argument(
        "--group-by", default=None, metavar="K[,K...]",
        help="tag keys producing one series per value combination")
    p_query.add_argument(
        "--request", default=None, metavar="FILE",
        help="versioned wire-format JSON request ('-' = stdin); "
             "overrides the flag-built queries")
    p_query.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="send the batch to a running 'repro serve' endpoint instead "
             "of simulating locally")
    p_query.add_argument(
        "--start", type=int, default=None, metavar="TS",
        help="absolute window start for flag-built queries (with --connect)")
    p_query.add_argument(
        "--end", type=int, default=None, metavar="TS",
        help="absolute window end for flag-built queries (with --connect)")
    p_query.add_argument(
        "--tenant", default=None, metavar="NAME",
        help="admission-control lane on the server (with --connect)")
    p_query.add_argument(
        "--refresh", action="store_true",
        help="route through the server's incremental refresher "
             "(with --connect)")
    p_query.set_defaults(func=cmd_query)

    p_cat = sub.add_parser(
        "catalog",
        help="series-metadata lookups: metrics, tag keys/values, cardinality",
    )
    common(p_cat)
    p_cat.add_argument(
        "--metric", default=None, metavar="NAME",
        help="scope to one metric (alone: list its tag keys)")
    p_cat.add_argument(
        "--key", default=None, metavar="TAGKEY",
        help="list distinct values of this tag key (needs --metric)")
    p_cat.add_argument(
        "--cardinality", action="store_true",
        help="count matching series instead of listing (needs --metric)")
    p_cat.add_argument(
        "--tags", default=None, metavar="K=V[,K=V...]",
        help="tag filter for --cardinality ('*' and 'a|b' patterns allowed)")
    p_cat.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="ask a running 'repro serve' endpoint instead of simulating")
    p_cat.add_argument(
        "--tenant", default=None, metavar="NAME",
        help="admission-control lane on the server (with --connect)")
    p_cat.set_defaults(func=cmd_catalog)

    p_serve = sub.add_parser(
        "serve",
        help="simulate a city and serve its store over asyncio TCP",
    )
    common(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=4242,
        help="TCP port (0 = ephemeral; default: 4242)")
    p_serve.add_argument(
        "--cache-capacity", type=int, default=128, metavar="N",
        help="bounded-LRU result cache entries (default: 128)")
    p_serve.add_argument(
        "--max-pending", type=int, default=64, metavar="N",
        help="per-tenant admission queue depth (default: 64)")
    p_serve.add_argument(
        "--backpressure", default="block",
        choices=tuple(p.value for p in Backpressure),
        help="full-lane policy for tenant admission queues")
    p_serve.add_argument(
        "--parallelism", type=int, default=2, metavar="N",
        help="concurrent requests per tenant lane (default: 2)")
    p_serve.add_argument(
        "--max-match-series", type=int, default=None, metavar="N",
        help="reject queries whose tag filter matches more than N series "
             "(default: unlimited)")
    p_serve.add_argument(
        "--replicate-to", default=None, metavar="HOST:PORT",
        help="ship the store (snapshot bootstrap + live writes) to a "
             "'repro follow' hot standby at this address")
    p_serve.add_argument(
        "--wal", default=None, metavar="PATH",
        help="journal the store to a binary WAL at PATH (snapshot "
             "bootstrap + every later write)")
    p_serve.add_argument(
        "--compact-every", type=float, default=None, metavar="SECONDS",
        help="with --wal, run the compaction trigger policy over the "
             "journal at this interval")
    p_serve.set_defaults(func=cmd_serve)

    p_follow = sub.add_parser(
        "follow",
        help="run a hot-standby replica; SIGUSR1 promotes it to primary",
    )
    p_follow.add_argument(
        "--listen", default="127.0.0.1:4252", metavar="HOST:PORT",
        help="address to accept shipper connections on "
             "(port 0 = ephemeral; default: 127.0.0.1:4252)")
    p_follow.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="apply into a sharded store with N shards (0 = single store)")
    p_follow.add_argument(
        "--serve-port", type=int, default=None, metavar="PORT",
        help="after promotion, serve queries on this port (0 = ephemeral)")
    p_follow.add_argument(
        "--snapshot-on-promote", default=None, metavar="PATH",
        help="write a binary snapshot of the promoted store to PATH")
    p_follow.set_defaults(func=cmd_follow)

    p_conv = sub.add_parser(
        "convert-log",
        help="migrate a WAL/snapshot between text and binary segment formats",
    )
    p_conv.add_argument("src", help="source log (format auto-detected)")
    p_conv.add_argument("dst", help="destination file (truncated)")
    p_conv.add_argument(
        "--to", choices=("binary", "text"), default="binary",
        help="target format (default: binary columnar segments)")
    p_conv.add_argument(
        "--lenient", action="store_true",
        help="skip corrupt lines/blocks instead of failing")
    p_conv.set_defaults(func=cmd_convert_log)

    p_compact = sub.add_parser(
        "compact",
        help="rewrite a WAL/snapshot (or sharded snapshot dir) as its "
             "compacted form, in place",
    )
    p_compact.add_argument(
        "path",
        help="log file or snapshot directory (shard files found by name)")
    p_compact.add_argument(
        "--max-blocks", type=int, default=None, metavar="N",
        help="only compact files carrying more than N blocks "
             "(enables the trigger policy)")
    p_compact.add_argument(
        "--max-markers", type=int, default=None, metavar="N",
        help="only compact files carrying more than N retention markers "
             "(enables the trigger policy)")
    p_compact.add_argument(
        "--lenient", action="store_true",
        help="skip corrupt blocks instead of failing — compacts a "
             "damaged log down to its recoverable prefix")
    p_compact.set_defaults(func=cmd_compact)

    p_demo = sub.add_parser("demo", help="run the full EDBT demo")
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
