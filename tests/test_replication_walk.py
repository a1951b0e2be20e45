"""The follower's buffer walk is the record-at-a-time loop.

The follower takes whatever a socket read returns and walks every
complete record in it; what it applies, counts and acknowledges must
not depend on where the reads happened to cut the byte stream.  One
seeded record stream — batches, both marker kinds, resent duplicates,
then optionally a gap, a CRC-flipped frame, an oversize length or a cut
mid-header / mid-payload, with more records behind the fault — is fed
through a raw socket under three segmentations (one write, one byte at
a time, hypothesis-drawn cuts) and each run is compared with
:func:`reference`: the per-record loop over the whole stream, one
record read, judged, applied and acknowledged before the next.

(The one place the walk deliberately differs from the loop it replaced:
a stream cut *exactly* behind a record's 4-byte length prefix counts as
a torn tail, like any other cut inside a record.  ``readexactly``
reported that cut with an empty ``partial`` and the old loop let it
pass as a clean end.)
"""

import asyncio
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication import (
    REPLICATION_MAGIC,
    Follower,
    FollowerStats,
    encode_record,
)
from repro.tsdb import BatchBuilder, PointBatch, SeriesKey, TSDB, dumps, segments
from repro.tsdb.persistence import DeleteBefore, DeleteSeriesBefore
from repro.tsdb.segments import (
    BLOCK_BATCH,
    BLOCK_MARKER,
    SegmentCorruption,
    decode_block,
    decode_frame,
    encode_batch,
    encode_marker,
    frame_block,
)

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
KEY_POOL = ("a", "b", "c")

_op = st.one_of(
    st.tuples(
        st.just("batch"),
        st.integers(0, 50),
        st.lists(st.sampled_from(KEY_POOL), min_size=1, max_size=3),
    ),
    st.tuples(st.just("del"), st.integers(0, 5_000)),
    st.tuples(st.just("delseries"), st.sampled_from(KEY_POOL), st.integers(0, 5_000)),
    # resend an earlier record (index into the records so far)
    st.tuples(st.just("dup"), st.integers(0, 30)),
)
_fault = st.sampled_from(
    [None, "gap", "crc", "oversize", "cut_header", "cut_payload"]
)


def frame_of(op) -> bytes:
    if op[0] == "batch":
        _, i, nodes = op
        b = BatchBuilder()
        for j, node in enumerate(nodes):
            b.add("air.co2.ppm", 100 * i + j, float(i), {"node": node})
        return frame_block(BLOCK_BATCH, encode_batch(b.build()))
    if op[0] == "del":
        return frame_block(BLOCK_MARKER, encode_marker(DeleteBefore(op[1])))
    key = SeriesKey.make("air.co2.ppm", {"node": op[1]})
    return frame_block(BLOCK_MARKER, encode_marker(DeleteSeriesBefore(key, op[2])))


def wire_stream(ops, fault, trailing) -> bytes:
    """The bytes a shipper-shaped peer sends after the handshake."""
    records: list[bytes] = []
    out = bytearray()
    seq = 0
    for op in ops:
        if op[0] == "dup":
            if records:
                out += records[op[1] % len(records)]
            continue
        seq += 1
        records.append(encode_record(seq, frame_of(op)))
        out += records[-1]
    filler = frame_of(("batch", 7, ["a", "c"]))
    if fault == "gap":
        seq += 2  # one sequence number never arrives
        out += encode_record(seq, filler)
    elif fault == "crc":
        seq += 1
        damaged = bytearray(encode_record(seq, filler))
        damaged[-3] ^= 0x40
        out += damaged
    elif fault == "oversize":
        out += _U32.pack(segments.MAX_RECORD_BYTES + 1) + _U64.pack(seq + 1)
    for op in trailing:  # must never apply behind a gap / crc / oversize
        seq += 1
        out += encode_record(seq, frame_of(op))
    if fault == "cut_header":
        out += encode_record(seq + 1, filler)[:3]
    elif fault == "cut_payload":
        whole = encode_record(seq + 1, filler)
        out += whole[: len(whole) - 5]
    return bytes(out)


def reference(stream: bytes) -> tuple[bytes, int, dict]:
    """Record at a time over the whole stream: the semantics the walk
    must reproduce whatever the segmentation."""
    store = TSDB()
    stats = FollowerStats(connections=1)
    applied = off = 0
    while True:
        rest = len(stream) - off
        if rest < 4:
            stats.torn_tails += bool(rest)
            break
        (length,) = _U32.unpack_from(stream, off)
        if length < 8 or length > segments.MAX_RECORD_BYTES:
            stats.corrupt_frames += 1
            break
        if rest < 4 + length:
            stats.torn_tails += 1
            break
        (seq,) = _U64.unpack_from(stream, off + 4)
        frame = stream[off + 12 : off + 4 + length]
        off += 4 + length
        if seq <= applied:
            stats.duplicates += 1
            continue
        if seq != applied + 1:
            stats.gaps += 1
            break
        try:
            item = decode_block(*decode_frame(frame))
        except (SegmentCorruption, ValueError):
            stats.corrupt_frames += 1
            break
        if isinstance(item, PointBatch):
            store.put_batch(item)
            stats.points_applied += len(item)
        elif isinstance(item, DeleteSeriesBefore):
            store.delete_series_before(item.key, item.cutoff)
        else:
            store.delete_before(item.cutoff, exclude_suffix=item.exclude_suffix)
        applied = seq
        stats.records_applied += 1
    return dumps(store), applied, stats.as_dict()


async def feed(follower: Follower, chunks: list[bytes]) -> list[int]:
    """Play ``chunks`` at a started follower through a raw socket, one
    write each, and return every ack read back (handshake first)."""
    reader, writer = await asyncio.open_connection(follower.host, follower.port)
    received = bytearray()

    async def collect() -> None:
        try:
            while data := await reader.read(1 << 16):
                received.extend(data)
        except OSError:
            pass  # the follower dropped us with our bytes unread

    collector = asyncio.create_task(collect())
    try:
        writer.write(REPLICATION_MAGIC)
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            # Let the follower's read return before the next write, so
            # the cuts mostly reach it as cuts.
            await asyncio.sleep(0)
            await asyncio.sleep(0)
        if writer.can_write_eof():
            writer.write_eof()
    except OSError:
        pass  # dropped mid-stream behind a gap / corrupt frame
    await asyncio.wait_for(collector, 10.0)
    writer.close()
    await follower.stop()  # waits for the connection handler
    assert len(received) % 8 == 0
    return [seq for (seq,) in _U64.iter_unpack(bytes(received))]


def run_segmented(stream: bytes, cuts: list[int]) -> tuple[bytes, int, dict, list[int]]:
    bounds = [0, *sorted({c % (len(stream) + 1) for c in cuts}), len(stream)]
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]

    async def _run():
        follower = Follower()
        await follower.start()
        acks = await feed(follower, chunks)
        return (
            dumps(follower.store),
            follower.applied_seq,
            follower.stats.as_dict(),
            acks,
        )

    return asyncio.run(_run())


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(_op, max_size=12),
    fault=_fault,
    trailing=st.lists(_op.filter(lambda op: op[0] != "dup"), max_size=2),
    cuts=st.lists(st.integers(0, 4096), max_size=12),
)
def test_applied_state_stats_and_acks_ignore_the_segmentation(
    ops, fault, trailing, cuts
):
    stream = wire_stream(ops, fault, trailing)
    want_store, want_applied, want_stats = reference(stream)
    completed = (
        want_stats["records_applied"] + want_stats["duplicates"]
    )
    for segmentation in ([], list(range(len(stream))), cuts):
        store, applied, stats, acks = run_segmented(stream, segmentation)
        assert store == want_store
        assert applied == want_applied
        assert stats == want_stats
        # Handshake, then cumulative acks: never more than the records
        # they cover, non-decreasing, the last one the high-water mark.
        assert acks[0] == 0
        assert acks == sorted(acks)
        assert len(acks) - 1 <= completed
        assert (len(acks) > 1) == (completed > 0)
        assert acks[-1] == want_applied


def test_a_promote_between_two_records_of_one_buffer_applies_nothing_after_it():
    first, second = (frame_of(("batch", i, ["a", "b"])) for i in (1, 2))
    stream = encode_record(1, first) + encode_record(2, second)

    async def _run():
        follower = Follower()
        await follower.start()
        put_batch = follower.store.put_batch

        def promote_after_apply(batch):
            n = put_batch(batch)
            follower.promote()
            return n

        follower.store.put_batch = promote_after_apply
        await feed(follower, [stream])  # both records in one write
        return follower

    follower = asyncio.run(_run())
    assert follower.promoted
    assert follower.applied_seq == 1
    assert follower.stats.records_applied == 1
    only_first = TSDB()
    only_first.put_batch(decode_block(*decode_frame(first)))
    assert dumps(follower.store) == dumps(only_first)
