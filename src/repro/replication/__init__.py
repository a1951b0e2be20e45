"""Hot-standby replication: segment shipping, catch-up, failover.

The geo-redundancy half of ROADMAP item 2.  A primary wraps its store
in a :class:`ReplicatedStore`, which tees every committed mutation into
a :class:`ReplicationLog` as framed binary segment blocks (the PR 4
durability format doubles as the wire format).  An asyncio
:class:`SegmentShipper` streams the log to a :class:`Follower` over a
length-prefixed TCP protocol — at-least-once delivery, sequence-based
dedup, bounded in-flight window, exponential backoff + jitter on
reconnect, catch-up replay from the follower's acked high-water mark
after any disconnect.  The follower applies blocks idempotently into
its own store and can be promoted into a read-write
primary (``python -m repro follow``).

:mod:`repro.replication.faults` is the deterministic fault-injection
harness that proves the equivalence bar: under seeded schedules of
drops, duplicates, reorders, torn tails, and corruption, the promoted
follower's ``dumps()`` stays byte-identical to a from-scratch build of
the acknowledged input.
"""

from .follower import Follower, FollowerStats
from .log import DEFAULT_FOLLOWER, ReplicatedStore, ReplicationLog
from .shipper import (
    MAX_RECORD_BYTES,
    REPLICATION_MAGIC,
    SegmentShipper,
    ShipperStats,
    encode_record,
)

__all__ = [
    "DEFAULT_FOLLOWER",
    "Follower",
    "FollowerStats",
    "MAX_RECORD_BYTES",
    "REPLICATION_MAGIC",
    "ReplicatedStore",
    "ReplicationLog",
    "SegmentShipper",
    "ShipperStats",
    "encode_record",
]
