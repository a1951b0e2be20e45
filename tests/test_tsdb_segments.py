"""Binary columnar segment persistence: codec, equivalence, recovery.

Pins the new durability fast path to the text line protocol:

- the batch/marker codec round-trips bit-exactly (hypothesis: arbitrary
  metrics, tags, out-of-order timestamps, duplicate keys, NaN values);
- a store restored from a binary WAL/snapshot is byte-identical (via
  ``dumps``) to one restored from the equivalent text log, for single
  and sharded stores and with interleaved retention markers;
- per-block CRCs turn corruption into per-block loss under
  ``strict=False`` and loud failure under ``strict=True``;
- the dataport WAL hook and the CLI ``convert-log`` migration replay
  losslessly.
"""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.dataport import BatchingTsdbWriter
from repro.tsdb import (
    BatchBuilder,
    DataPoint,
    DeleteBefore,
    DeleteSeriesBefore,
    DurableStore,
    LogWriter,
    PointBatch,
    Query,
    SegmentCorruption,
    SegmentWriter,
    SeriesKey,
    ShardedTSDB,
    TSDB,
    convert_log,
    detect_format,
    dumps,
    iter_batches,
    iter_segments,
    load,
    parse_series_key,
    segment_point_count,
    snapshot,
)
from repro.tsdb.segments import (
    SEGMENT_MAGIC,
    carried_frames,
    decode_batch,
    encode_batch,
    frame_batch,
)


def make_point(metric="m", ts=100, val=1.5, tags=None):
    return DataPoint.make(metric, ts, val, tags or {"node": "a"})


def sources(path):
    """The two kinds of source every reader accepts — the path and a
    binary handle over the same bytes — so each corruption case runs on
    both (one walker serves them; production readers pass paths)."""
    yield path
    yield io.BytesIO(path.read_bytes())


def mixed_batch() -> PointBatch:
    """Two series, interleaved rows, out-of-order + duplicate timestamps."""
    b = BatchBuilder()
    for ts, val in ((30, 1.0), (10, 2.0), (10, 3.0), (20, float("nan"))):
        b.add("air.co2.ppm", ts, val, {"node": "n1", "city": "trondheim"})
        b.add("plain", ts + 1, -val)
    return b.build()


def assert_batches_equal(a: PointBatch, b: PointBatch) -> None:
    """Bit-exact equality: keys, dictionary indices, columns (NaN-safe)."""
    assert a.keys == b.keys
    assert np.array_equal(a.key_idx, b.key_idx)
    assert np.array_equal(a.timestamps, b.timestamps)
    assert a.values.tobytes() == b.values.tobytes()


class TestCodec:
    def test_batch_round_trip(self):
        batch = mixed_batch()
        assert_batches_equal(decode_batch(encode_batch(batch)), batch)

    def test_empty_batch_round_trip(self):
        assert len(decode_batch(encode_batch(PointBatch.empty()))) == 0

    def test_delta_column_is_the_diff_with_a_leading_zero(self):
        """delta[0] = ts[0], int64 wrap-around included — the bytes
        ``np.diff(ts, prepend=0)`` would give."""
        ts = np.array([5, 3, 3, 2**62, -(2**62), 7, -9], dtype=np.int64)
        batch = PointBatch(
            (SeriesKey.make("m"),), np.zeros(7, np.intp), ts, np.arange(7.0)
        )
        payload = encode_batch(batch)
        head = len(payload) - 20 * 7
        assert payload[head + 28 : head + 84] == (
            np.diff(ts, prepend=np.int64(0)).astype("<i8").tobytes()
        )
        assert_batches_equal(decode_batch(payload), batch)

    def test_decoded_keys_are_interned(self):
        payload = encode_batch(mixed_batch())
        first, again = decode_batch(payload), decode_batch(payload)
        assert all(a is b for a, b in zip(first.keys, again.keys))
        assert first.keys == mixed_batch().keys

    def test_a_carry_drops_only_its_own_frames_and_never_raises(self):
        """One batch object put into two stacks from two threads can
        race the carry; the ``finally`` runs after the write committed,
        so it must not turn a finished write into a failure."""
        batch = mixed_batch()
        with carried_frames(batch):
            del vars(batch)["_frames"]  # the other stack's finally ran first
        other = frame_batch(batch)
        with carried_frames(batch):
            vars(batch)["_frames"] = other  # the other stack's set ran last
        assert vars(batch).pop("_frames") is other  # theirs to drop

    def test_parse_series_key_round_trip(self):
        for key in mixed_batch().keys:
            assert parse_series_key(str(key)) == key

    def test_parse_series_key_rejects_garbage(self):
        for bad in ("m{node", "m{node:a}", "m{=a}", "{a=b}", "bad name"):
            with pytest.raises(ValueError):
                parse_series_key(bad)

    def test_decode_rejects_short_columns(self):
        payload = encode_batch(mixed_batch())
        with pytest.raises(ValueError, match="column bytes"):
            decode_batch(payload[:-8])


class TestSegmentWriterAndReader:
    def test_wal_round_trip(self, tmp_path):
        path = tmp_path / "wal.seg"
        batch = mixed_batch()
        with SegmentWriter(path) as w:
            w.comment("header")
            w.write_batch(batch)
        assert w.written == len(batch)
        items = list(iter_segments(path))
        assert len(items) == 1  # comments are skipped
        assert_batches_equal(items[0], batch)
        assert segment_point_count(path) == len(batch)

    def test_append_mode(self, tmp_path):
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            w.write_batch(mixed_batch())
        with SegmentWriter(path) as w:
            w.write_batch(mixed_batch())
        assert sum(len(b) for b in iter_segments(path)) == 2 * len(mixed_batch())

    def test_refuses_to_append_to_text_log(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_text("m 1 2.0\n")
        with pytest.raises(SegmentCorruption, match="not a segment file"):
            SegmentWriter(path)

    def test_marker_blocks_interleave_in_order(self, tmp_path):
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            w.write_batch(PointBatch.from_points([make_point(ts=1)]))
            w.delete_before(5, exclude_suffix=".rollup")
            w.write_batch(PointBatch.from_points([make_point(ts=9)]))
        items = list(iter_segments(path))
        assert [type(i).__name__ for i in items] == [
            "PointBatch", "DeleteBefore", "PointBatch",
        ]
        assert items[1] == DeleteBefore(5, ".rollup")
        assert w.written == 2  # markers are not points

    def test_reader_requires_magic(self, tmp_path):
        path = tmp_path / "not-a-segment.seg"
        path.write_text("m 1 2.0\n")
        for source in sources(path):
            with pytest.raises(SegmentCorruption, match="magic"):
                list(iter_segments(source))
        # ... even in lenient mode: a wrong format is not a damaged file.
        for source in sources(path):
            with pytest.raises(SegmentCorruption, match="magic"):
                list(iter_segments(source, strict=False))


class TestCorruptionRecovery:
    def three_block_file(self, tmp_path):
        path = tmp_path / "wal.seg"
        with SegmentWriter(path) as w:
            for base in (0, 100, 200):
                w.write_batch(
                    PointBatch.from_points([make_point(ts=base + i) for i in range(5)])
                )
        return path

    def corrupt_middle_block(self, path):
        raw = bytearray(path.read_bytes())
        # Blocks are identical size; flip a payload byte in the middle one.
        block = (len(raw) - len(SEGMENT_MAGIC)) // 3
        raw[len(SEGMENT_MAGIC) + block + 20] ^= 0xFF
        path.write_bytes(bytes(raw))

    def test_corrupt_block_raises_strict(self, tmp_path):
        path = self.three_block_file(tmp_path)
        self.corrupt_middle_block(path)
        for source in sources(path):
            with pytest.raises(SegmentCorruption, match="checksum"):
                list(iter_segments(source))

    def test_corrupt_block_skipped_lenient(self, tmp_path):
        """The length prefix bounds the damage: one bad CRC loses one
        block, and the blocks after it still replay."""
        path = self.three_block_file(tmp_path)
        self.corrupt_middle_block(path)
        for source in sources(path):
            items = list(iter_segments(source, strict=False))
            assert [b.timestamps.min() for b in items] == [0, 200]
        for source in sources(path):
            assert load(source, strict=False).exact_point_count() == 10

    def test_truncated_tail_recovery(self, tmp_path):
        """Unclean shutdown: a half-written final block is dropped, the
        clean prefix replays — mirroring the text protocol's contract."""
        path = self.three_block_file(tmp_path)
        raw = path.read_bytes()
        for cut in (1, 7, 15):  # mid-payload, mid-header
            path.write_bytes(raw[:-cut])
            for source in sources(path):
                with pytest.raises(SegmentCorruption, match="truncated"):
                    list(iter_segments(source))
            for source in sources(path):
                assert load(source, strict=False).exact_point_count() == 10

    def test_corrupted_length_field_keeps_clean_prefix(self, tmp_path):
        """Header damage is CRC-detected; a bogus length can't be
        trusted for framing, so lenient recovery keeps every block
        before the damage (like a truncated tail) — never garbage."""
        path = self.three_block_file(tmp_path)
        raw = bytearray(path.read_bytes())
        block = (len(raw) - len(SEGMENT_MAGIC)) // 3
        raw[len(SEGMENT_MAGIC) + block + 2] ^= 0x40  # length field, block 2
        path.write_bytes(bytes(raw))
        for source in sources(path):
            with pytest.raises(SegmentCorruption):
                list(iter_segments(source))
        for source in sources(path):
            recovered = load(source, strict=False)
            assert recovered.exact_point_count() == 5  # block 1 survives
            assert sorted(p.timestamp for p in recovered.iter_points()) == list(
                range(5)
            )

    def test_append_after_torn_tail_truncates_and_stays_readable(self, tmp_path):
        """Reopening a WAL whose last block was torn by a crash must
        drop the torn tail before appending — the format has no resync
        marker, so blocks written after torn bytes would otherwise be
        swallowed by the partial block's length prefix."""
        path = self.three_block_file(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])  # torn mid-payload
        with SegmentWriter(path) as w:  # restart: append mode
            w.write_batch(
                PointBatch.from_points([make_point(ts=500 + i) for i in range(5)])
            )
        db = load(path)  # strict: the file is clean again
        assert db.exact_point_count() == 15  # 2 clean blocks + 5 new
        assert sorted(p.timestamp for p in db.iter_points())[-1] == 504

    def test_corrupt_magic_recovers_without_decode_crash(self, tmp_path):
        """A damaged magic mis-detects the file as text; the recovery
        contract must still hold: LogCorruption (handled corruption),
        never a raw UnicodeDecodeError, and lenient load survives."""
        path = self.three_block_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert detect_format(path) == "text"
        from repro.tsdb import LogCorruption

        with pytest.raises(LogCorruption):
            load(path)
        load(path, strict=False)  # recovers (no crash); garbage skipped
        # convert-log --lenient ends with its friendly error path too.
        assert (
            cli_main(
                ["convert-log", "--lenient", str(path), str(tmp_path / "o.seg")]
            )
            == 0
        )

    def test_corrupt_magic_binary_handle_recovers_too(self):
        """The same corrupt-magic recovery contract holds for a
        binary-mode *handle*, not just a path: bytes lines must not hit
        the str line parser and crash with TypeError."""
        db = TSDB()
        db.put("m", 1, 2.0)
        blob = bytearray(dumps(db, format="binary"))
        blob[0] ^= 0xFF
        from repro.tsdb import LogCorruption

        with pytest.raises(LogCorruption):
            load(io.BytesIO(bytes(blob)))
        recovered = load(io.BytesIO(bytes(blob)), strict=False)
        assert recovered.point_count == 0  # nothing parseable, no crash

    def test_wal_write_failure_rolls_back_torn_frame(self, tmp_path):
        """A write that dies mid-frame (disk full) must not leave torn
        bytes: a retried append afterwards stays fully replayable."""
        path = tmp_path / "wal.seg"
        w = SegmentWriter(path)
        w.write_batch(mixed_batch())

        real_write = w._fh.write

        def failing_write(data):
            real_write(data[: len(data) // 2])  # torn: half the frame lands
            raise OSError(28, "No space left on device")

        w._fh.write = failing_write
        with pytest.raises(OSError):
            w.write_batch(mixed_batch())
        # The torn frame was rolled back; appends after the failure replay.
        w.write_batch(mixed_batch())
        w.close()
        items = list(iter_segments(path))  # strict: file is clean
        assert sum(len(b) for b in items) == 2 * len(mixed_batch())

    def test_empty_file_is_not_a_segment(self, tmp_path):
        path = tmp_path / "empty.seg"
        path.touch()
        for strict in (True, False):
            for source in sources(path):
                with pytest.raises(SegmentCorruption):
                    list(iter_segments(source, strict=strict))
        assert detect_format(path) == "text"  # empty text log loads empty
        assert load(path).point_count == 0


def reference_ops(db):
    """A workload with out-of-order rows, overwrites, and interleaved
    retention — applied identically to live stores and WALs."""
    for i in range(60):
        db.put(f"m.{i % 4}", (i * 7) % 50, float(i), {"node": f"n{i % 3}"})
    db.delete_before(20)
    for i in range(20):
        db.put("m.0", 5 + i, -float(i), {"node": "n9"})
    db.delete_before(8, exclude_suffix=".rollup")


def write_reference_wal(writer) -> None:
    """The same workload as :func:`reference_ops`, as a WAL stream: one
    batch per run of puts, a marker per deletion (either writer)."""
    writer.write_batch(
        PointBatch.from_points(
            DataPoint.make(f"m.{i % 4}", (i * 7) % 50, float(i), {"node": f"n{i % 3}"})
            for i in range(60)
        )
    )
    writer.delete_before(20)
    writer.write_batch(
        PointBatch.from_points(
            DataPoint.make("m.0", 5 + i, -float(i), {"node": "n9"}) for i in range(20)
        )
    )
    writer.delete_before(8, exclude_suffix=".rollup")


def text_snapshot_dir(db: ShardedTSDB, directory) -> None:
    """A legacy text snapshot directory (what ``snapshot_to_dir`` wrote
    before it became binary-only): one ``.log`` per shard."""
    directory.mkdir(parents=True, exist_ok=True)
    n = db.num_shards
    for i, shard in enumerate(db.shards):
        snapshot(shard, directory / f"shard-{i}-of-{n}.log", format="text")


class TestFormatEquivalence:
    def test_wal_replay_matches_text_and_live(self, tmp_path):
        live = TSDB()
        reference_ops(live)
        with LogWriter(tmp_path / "wal.log") as w:
            write_reference_wal(w)
        with SegmentWriter(tmp_path / "wal.seg") as w:
            write_reference_wal(w)
        from_text = load(tmp_path / "wal.log")
        from_binary = load(tmp_path / "wal.seg")
        assert dumps(from_binary) == dumps(from_text) == dumps(live)

    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_replay_into_sharded_store(self, tmp_path, shards):
        with SegmentWriter(tmp_path / "wal.seg") as w:
            write_reference_wal(w)
        single = load(tmp_path / "wal.seg")
        sharded = load(tmp_path / "wal.seg", into=ShardedTSDB(shards))
        assert dumps(sharded) == dumps(single)
        assert sharded.metrics() == single.metrics()

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_snapshot_dir_round_trip(self, tmp_path, shards):
        db = ShardedTSDB(shards)
        reference_ops(db)
        text_snapshot_dir(db, tmp_path / "text")
        db.snapshot_to_dir(tmp_path / "bin")
        assert all(p.suffix == ".seg" for p in (tmp_path / "bin").iterdir())
        from_text = ShardedTSDB.restore_from_dir(tmp_path / "text")
        from_bin = ShardedTSDB.restore_from_dir(tmp_path / "bin")
        assert dumps(from_bin) == dumps(from_text) == dumps(db)
        # iter_points order is canonical and identical across formats.
        assert [str(p.key) for p in from_bin.iter_points()] == [
            str(p.key) for p in from_text.iter_points()
        ]

    def test_mixed_format_snapshot_restores(self, tmp_path):
        """A partially migrated snapshot dir (some shards converted to
        .seg, some still .log) restores by per-file auto-detection."""
        db = ShardedTSDB(2)
        reference_ops(db)
        text_snapshot_dir(db, tmp_path)
        convert_log(
            tmp_path / "shard-0-of-2.log", tmp_path / "shard-0-of-2.seg"
        )
        (tmp_path / "shard-0-of-2.log").unlink()
        assert dumps(ShardedTSDB.restore_from_dir(tmp_path)) == dumps(db)

    def test_failed_resnapshot_preserves_prior_snapshot(self, tmp_path, monkeypatch):
        """A mid-snapshot failure (disk full on one shard) must leave
        the previous snapshot restorable: no good files deleted, no
        duplicate twins left behind."""
        from repro.tsdb import persistence as pmod

        db = ShardedTSDB(2)
        reference_ops(db)
        text_snapshot_dir(db, tmp_path)
        real_snapshot = pmod.snapshot

        def failing_snapshot(store, path, **kw):
            if "shard-1-" in str(path):
                raise OSError(28, "No space left on device")
            return real_snapshot(store, path, **kw)

        monkeypatch.setattr(pmod, "snapshot", failing_snapshot)
        with pytest.raises(OSError):
            db.snapshot_to_dir(tmp_path)
        monkeypatch.undo()
        # The old text snapshot is whole and restorable; no .tmp litter.
        assert {p.suffix for p in tmp_path.iterdir()} == {".log"}
        assert dumps(ShardedTSDB.restore_from_dir(tmp_path)) == dumps(db)

    def test_resnapshot_in_other_format_replaces_stale_twins(self, tmp_path):
        """Snapshotting over a legacy text snapshot must not leave the
        old ``.log`` files behind as duplicates."""
        db = ShardedTSDB(2)
        reference_ops(db)
        text_snapshot_dir(db, tmp_path)
        db.snapshot_to_dir(tmp_path)
        assert {p.suffix for p in tmp_path.iterdir()} == {".seg"}
        assert dumps(ShardedTSDB.restore_from_dir(tmp_path)) == dumps(db)

    def test_resnapshot_with_other_shard_count_replaces_stale_files(self, tmp_path):
        """Re-snapshotting with a different shard count removes the old
        count's files, keeping the directory single-snapshot restorable."""
        big = ShardedTSDB(4)
        reference_ops(big)
        big.snapshot_to_dir(tmp_path)
        small = ShardedTSDB(2)
        reference_ops(small)
        small.snapshot_to_dir(tmp_path)
        assert {p.name for p in tmp_path.iterdir()} == {
            "shard-0-of-2.seg", "shard-1-of-2.seg",
        }
        assert dumps(ShardedTSDB.restore_from_dir(tmp_path)) == dumps(small)

    def test_duplicate_shard_files_fail_loudly(self, tmp_path):
        db = ShardedTSDB(2)
        reference_ops(db)
        text_snapshot_dir(db, tmp_path)
        convert_log(
            tmp_path / "shard-0-of-2.log", tmp_path / "shard-0-of-2.seg"
        )
        with pytest.raises(ValueError, match="duplicate"):
            ShardedTSDB.restore_from_dir(tmp_path)

    def test_snapshot_queries_match_across_formats(self, tmp_path):
        db = TSDB()
        reference_ops(db)
        snapshot(db, tmp_path / "s.log", format="text")
        snapshot(db, tmp_path / "s.seg", format="binary")
        q = Query("m.0", 0, 100, tags={"node": "*"}, downsample="10s-avg")
        a = load(tmp_path / "s.log").run(q).single()
        b = load(tmp_path / "s.seg").run(q).single()
        assert np.array_equal(a.timestamps, b.timestamps)
        assert a.values.tobytes() == b.values.tobytes()

    def test_dumps_binary_round_trip(self):
        db = TSDB()
        reference_ops(db)
        blob = dumps(db, format="binary")
        assert isinstance(blob, bytes) and blob.startswith(SEGMENT_MAGIC)
        assert dumps(load(io.BytesIO(blob))) == dumps(db)

    def test_iter_batches_text_chunks_at_markers(self, tmp_path):
        path = tmp_path / "wal.log"
        with LogWriter(path) as w:
            w.write(make_point(ts=1))
            w.delete_before(2)
            w.write(make_point(ts=3))
        items = list(iter_batches(path))
        kinds = [type(i).__name__ for i in items]
        assert kinds == ["PointBatch", "DeleteBefore", "PointBatch"]


class TestConvertLog:
    def build_text_log(self, path):
        with LogWriter(path) as w:
            write_reference_wal(w)

    def test_text_to_binary_and_back(self, tmp_path):
        self.build_text_log(tmp_path / "wal.log")
        convert_log(tmp_path / "wal.log", tmp_path / "wal.seg", format="binary")
        convert_log(tmp_path / "wal.seg", tmp_path / "back.log", format="text")
        ref = dumps(load(tmp_path / "wal.log"))
        assert dumps(load(tmp_path / "wal.seg")) == ref
        assert dumps(load(tmp_path / "back.log")) == ref

    def test_counts(self, tmp_path):
        self.build_text_log(tmp_path / "wal.log")
        points, markers = convert_log(tmp_path / "wal.log", tmp_path / "wal.seg")
        assert points == 80 and markers == 2

    def test_lenient_skips_damage(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_text("m 1 2.0\nGARBAGE\nm 3 4.0\n")
        from repro.tsdb import LogCorruption

        with pytest.raises(LogCorruption):
            convert_log(path, tmp_path / "wal.seg")
        points, _ = convert_log(path, tmp_path / "wal.seg", strict=False)
        assert points == 2

    def test_cli_subcommand(self, tmp_path, capsys):
        self.build_text_log(tmp_path / "wal.log")
        rc = cli_main(
            ["convert-log", str(tmp_path / "wal.log"), str(tmp_path / "wal.seg")]
        )
        assert rc == 0
        assert "80 points" in capsys.readouterr().out
        assert detect_format(tmp_path / "wal.seg") == "binary"
        assert dumps(load(tmp_path / "wal.seg")) == dumps(load(tmp_path / "wal.log"))

    def test_refuses_same_source_and_destination(self, tmp_path):
        """src == dst would truncate the source before reading it."""
        path = tmp_path / "wal.log"
        self.build_text_log(path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="same file"):
            convert_log(path, path, format="text")
        assert path.read_bytes() == before  # untouched
        with pytest.raises(SystemExit, match="same file"):
            cli_main(["convert-log", str(path), str(path), "--to", "text"])

    def test_missing_source_leaves_no_stub(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            convert_log(tmp_path / "nope.log", tmp_path / "out.seg")
        assert not (tmp_path / "out.seg").exists()

    def test_cli_corrupt_without_lenient_fails(self, tmp_path):
        (tmp_path / "wal.log").write_text("m 1 2.0\nGARBAGE\n")
        with pytest.raises(SystemExit, match="lenient"):
            cli_main(
                ["convert-log", str(tmp_path / "wal.log"), str(tmp_path / "o.seg")]
            )
        rc = cli_main(
            ["convert-log", "--lenient", str(tmp_path / "wal.log"),
             str(tmp_path / "o.seg")]
        )
        assert rc == 0


class TestDataportWalHook:
    def test_write_batch_flushes_to_disk(self, tmp_path):
        """Write-ahead means *on disk* before the store sees the batch:
        the block (and magic) must not sit in a userspace buffer."""
        w = SegmentWriter(tmp_path / "wal.seg")
        w.write_batch(mixed_batch())
        on_disk = segment_point_count(tmp_path / "wal.seg")  # before close
        assert on_disk == len(mixed_batch())
        w.close()

    def test_flushes_append_to_wal_before_store(self, tmp_path):
        """Through ``DurableStore`` the writer's flush is write-ahead:
        the block is on disk when the store sees the batch, and the
        journal replays to the store."""
        path = tmp_path / "wal.seg"
        on_disk_at_commit = []

        class Watching(TSDB):
            def put_batch(self, batch):
                on_disk_at_commit.append(segment_point_count(path))
                return super().put_batch(batch)

        db = Watching()
        store = DurableStore(db, path)
        writer = BatchingTsdbWriter(store, max_pending=16)
        for i in range(50):
            writer.add("air.co2.ppm", i, float(i), {"node": "n1"})
        writer.flush()
        store.close()
        assert writer.written == 50
        assert on_disk_at_commit == [16, 32, 48, 50]
        assert dumps(load(path)) == dumps(db)

    def test_failed_wal_write_keeps_batch_for_retry(self, tmp_path, monkeypatch):
        """A WAL append failure (disk full) must not lose the buffered
        points: the builder retains them and a later flush retries."""
        db = TSDB()
        store = DurableStore(db, tmp_path / "wal.seg")
        append = store._writer.write_batch

        def failing_once(batch):
            monkeypatch.setattr(store._writer, "write_batch", append)
            raise OSError("no space left on device")

        monkeypatch.setattr(store._writer, "write_batch", failing_once)
        writer = BatchingTsdbWriter(store, max_pending=100)
        for i in range(10):
            writer.add("air.co2.ppm", i, float(i), {"node": "n1"})
        with pytest.raises(OSError):
            writer.flush()
        assert writer.pending == 10  # retained, not lost
        assert db.exact_point_count() == 0  # store untouched too
        assert writer.flush() == 10  # retry succeeds
        store.close()
        assert db.exact_point_count() == 10
        assert dumps(load(store.wal_path)) == dumps(db)


# -- hypothesis: codec + equivalence over arbitrary workloads -------------
names = st.from_regex(r"[A-Za-z0-9][A-Za-z0-9._\-/]{0,8}", fullmatch=True)
tag_maps = st.dictionaries(names, names, max_size=3)
point_rows = st.lists(
    st.tuples(
        names,
        st.integers(min_value=0, max_value=2**40),
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        tag_maps,
    ),
    max_size=80,
)


class TestCodecProperties:
    @given(point_rows)
    @settings(max_examples=120, deadline=None)
    def test_batch_codec_round_trips_exactly(self, rows):
        """Arbitrary metrics/tags/timestamps — including out-of-order
        rows, duplicate series keys, NaN and infinite values — survive
        encode/decode bit-exactly, in row order."""
        builder = BatchBuilder()
        for metric, ts, val, tags in rows:
            builder.add(metric, ts, val, tags)
        batch = builder.build()
        assert_batches_equal(decode_batch(encode_batch(batch)), batch)

    @given(point_rows, st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=60, deadline=None)
    def test_wal_equivalence_with_marker(self, rows, cutoff):
        """Text and binary WALs carrying the same stream (with a
        retention marker in the middle) restore identical stores."""
        finite_rows = [
            (m, t, v if v == v and abs(v) != float("inf") else 0.5, tags)
            for m, t, v, tags in rows
        ]
        text_buf, bin_buf = io.StringIO(), io.BytesIO()
        tw, bw = LogWriter(text_buf), SegmentWriter(bin_buf)
        half = len(finite_rows) // 2
        before, after = (
            PointBatch.from_points(DataPoint.make(m, t, v, tags) for m, t, v, tags in part)
            for part in (finite_rows[:half], finite_rows[half:])
        )
        for writers in (tw, bw):
            writers.write_batch(before)
            writers.delete_before(cutoff)
            writers.write_batch(after)
            writers.flush()
        text_buf.seek(0)
        bin_buf.seek(0)
        a = load(text_buf, format="text")
        b = load(bin_buf, format="binary")
        assert dumps(a) == dumps(b)

    @given(point_rows)
    @settings(max_examples=60, deadline=None)
    def test_binary_snapshot_restores_identical_state(self, rows):
        db = TSDB()
        builder = BatchBuilder()
        for metric, ts, val, tags in rows:
            v = val if val == val and abs(val) != float("inf") else -1.0
            builder.add(metric, ts, v, tags)
        db.put_batch(builder.build())
        blob = dumps(db, format="binary")
        assert dumps(load(io.BytesIO(blob))) == dumps(db)


class TestDeleteSeriesBeforeMarker:
    """The per-series retention marker (scoped retention's WAL footprint)
    round-trips both durability formats and replays its deletion."""

    def reference(self):
        db = TSDB()
        db.put("m", 10, 1.0, {"node": "a"})
        db.put("m", 20, 2.0, {"node": "a"})
        db.put("m", 10, 3.0, {"node": "b"})
        key = parse_series_key("m{node=a}")
        db.delete_series_before(key, 15)  # drops only m{node=a}@10
        return db, key

    def test_binary_round_trip(self, tmp_path):
        path = tmp_path / "wal.seg"
        _, key = self.reference()
        with SegmentWriter(path) as w:
            w.write_batch(PointBatch.from_points([make_point(ts=1)]))
            w.delete_series_before(key, 15)
        items = list(iter_segments(path))
        assert items[1] == DeleteSeriesBefore(key, 15)

    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        _, key = self.reference()
        with LogWriter(path) as w:
            w.write(make_point(ts=1))
            w.delete_series_before(key, 15)
        items = list(iter_batches(path))
        assert items[1] == DeleteSeriesBefore(key, 15)

    @pytest.mark.parametrize("fmt,cls", [("text", LogWriter),
                                         ("binary", SegmentWriter)])
    def test_replay_applies_the_scoped_deletion(self, tmp_path, fmt, cls):
        live, key = self.reference()
        path = tmp_path / ("wal.log" if fmt == "text" else "wal.seg")
        with cls(path) as w:
            w.write_batch(
                PointBatch.from_points(
                    [
                        DataPoint.make("m", 10, 1.0, {"node": "a"}),
                        DataPoint.make("m", 20, 2.0, {"node": "a"}),
                        DataPoint.make("m", 10, 3.0, {"node": "b"}),
                    ]
                )
            )
            w.delete_series_before(key, 15)
        assert dumps(load(path)) == dumps(live)

    def test_convert_log_preserves_series_markers(self, tmp_path):
        live, key = self.reference()
        src = tmp_path / "wal.log"
        with LogWriter(src) as w:
            w.write(DataPoint.make("m", 10, 1.0, {"node": "a"}))
            w.write(DataPoint.make("m", 20, 2.0, {"node": "a"}))
            w.write(DataPoint.make("m", 10, 3.0, {"node": "b"}))
            w.delete_series_before(key, 15)
        points, markers = convert_log(src, tmp_path / "wal.seg")
        assert (points, markers) == (3, 1)
        assert dumps(load(tmp_path / "wal.seg")) == dumps(live)

    def test_text_marker_rejects_garbage_key(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_text("m 1 2.0\n!delete_series_before 5 not{a}key{\n")
        from repro.tsdb import LogCorruption

        with pytest.raises(LogCorruption):
            list(iter_batches(path))
        assert load(path, strict=False).exact_point_count() == 1


# -- hypothesis: crash recovery under arbitrary torn writes ---------------

_HDR = struct.Struct("<BII")  # u8 type · u32 len · u32 crc

block_specs = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), st.integers(0, 2)),
        st.tuples(st.just("del"), st.integers(0, 1)),
        st.tuples(st.just("delseries"), st.integers(0, 2)),
    ),
    min_size=1,
    max_size=8,
)


class TestTornWriteRecoveryProperty:
    """Satellite: ``strict=False`` recovery is *exact*, not best-effort.

    A WAL damaged at an arbitrary byte offset — truncated (torn write)
    or bit-flipped (media damage) — must recover precisely the blocks
    the framing rules promise, on single and sharded stores alike:

    - truncation keeps every block wholly inside the surviving prefix;
    - a flip under CRC cover (type byte, crc field, payload) loses
      exactly the damaged block — the length prefix bounds the blast;
    - a flip in the length field can't be framed past: the clean prefix
      before it survives, the damaged block never resurrects.
    """

    def build_wal(self, spec):
        """Write one block per spec entry (in memory); returns the raw
        bytes, the decoded items, and each block's ``(start, end)``
        byte range."""
        buf = io.BytesIO()
        w = SegmentWriter(buf)
        for i, (kind, n) in enumerate(spec):
            if kind == "batch":
                b = BatchBuilder()
                for j in range(n + 1):
                    b.add("m", 1000 * i + j, float(i), {"node": f"n{j}"})
                w.write_batch(b.build())
            elif kind == "del":
                w.delete_before(
                    1000 * i, exclude_suffix=".rollup" if n else None
                )
            else:
                w.delete_series_before(
                    parse_series_key(f"m{{node=n{n}}}"), 1000 * i
                )
        w.flush()
        raw = buf.getvalue()
        items = list(iter_segments(io.BytesIO(raw)))
        ranges, off = [], len(SEGMENT_MAGIC)
        while off < len(raw):
            _t, plen, _crc = _HDR.unpack_from(raw, off)
            ranges.append((off, off + _HDR.size + plen))
            off += _HDR.size + plen
        assert len(ranges) == len(items)
        return raw, items, ranges

    @staticmethod
    def replay(items, store):
        for item in items:
            if isinstance(item, DeleteSeriesBefore):
                store.delete_series_before(item.key, item.cutoff)
            elif isinstance(item, DeleteBefore):
                store.delete_before(
                    item.cutoff, exclude_suffix=item.exclude_suffix
                )
            else:
                store.put_batch(item)
        return store

    def assert_recovers(self, raw, expected_items):
        """Lenient recovery equals a replay of ``expected_items`` — on a
        single store and byte-identically on a 3-shard store."""
        single = load(io.BytesIO(raw), strict=False)
        assert dumps(single) == dumps(self.replay(expected_items, TSDB()))
        sharded = load(io.BytesIO(raw), strict=False, into=ShardedTSDB(3))
        assert dumps(sharded) == dumps(
            self.replay(expected_items, ShardedTSDB(3))
        )

    @given(spec=block_specs, frac=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_truncation_recovers_longest_valid_prefix(self, spec, frac):
        raw, items, ranges = self.build_wal(spec)
        lo = len(SEGMENT_MAGIC)
        cut = lo + int(frac * (len(raw) - lo))
        torn = raw[:cut]
        survivors = [it for it, (_s, e) in zip(items, ranges) if e <= cut]
        boundaries = {lo} | {e for _s, e in ranges}
        if cut not in boundaries:
            # A cut on a block boundary is a clean (shorter) file; any
            # other cut leaves a torn block that strict mode rejects.
            with pytest.raises(SegmentCorruption, match="truncated"):
                list(iter_segments(io.BytesIO(torn)))
        self.assert_recovers(torn, survivors)

    @given(spec=block_specs, frac=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_byte_flip_loses_at_most_the_damaged_block(self, spec, frac):
        raw, items, ranges = self.build_wal(spec)
        lo = len(SEGMENT_MAGIC)
        offset = min(lo + int(frac * (len(raw) - lo)), len(raw) - 1)
        damaged = bytearray(raw)
        damaged[offset] ^= 0xFF
        damaged = bytes(damaged)
        hit = next(i for i, (s, e) in enumerate(ranges) if s <= offset < e)
        start, _end = ranges[hit]
        with pytest.raises(SegmentCorruption):
            list(iter_segments(io.BytesIO(damaged)))
        in_length_field = start + 1 <= offset < start + 5
        if not in_length_field:
            # CRC-covered damage (type byte, crc field, payload): the
            # length prefix bounds the blast — exactly one block lost.
            self.assert_recovers(
                damaged, [it for i, it in enumerate(items) if i != hit]
            )
        else:
            # A lied-about length breaks framing: the clean prefix is
            # guaranteed, the damaged block must never resurrect, and
            # nothing un-CRC'd is ever invented.
            recovered = list(iter_segments(io.BytesIO(damaged), strict=False))
            recovered_ts = {
                int(t)
                for b in recovered
                if isinstance(b, PointBatch)
                for t in b.timestamps
            }
            all_ts = {
                int(t)
                for b in items
                if isinstance(b, PointBatch)
                for t in b.timestamps
            }
            assert recovered_ts <= all_ts  # nothing invented
            for it in items[:hit]:  # prefix blocks always survive
                if isinstance(it, PointBatch):
                    assert {int(t) for t in it.timestamps} <= recovered_ts
            if isinstance(items[hit], PointBatch):  # damage never returns
                assert not (
                    {int(t) for t in items[hit].timestamps} & recovered_ts
                )


# -- one walker: path and handle sources agree, and nothing forks it again --


def _outcome(source, strict):
    """Everything a consumer can observe from one read: the items
    yielded before the end, and the error (offset + reason) if any."""
    items, error = [], None
    try:
        for item in iter_segments(source, strict=strict):
            items.append(item)
    except SegmentCorruption as exc:
        error = (exc.offset, exc.reason)
    return items, error


class TestOneWalker:
    @given(
        spec=block_specs,
        damage=st.lists(
            st.tuples(
                st.sampled_from(["flip", "cut", "insert", "delete"]),
                st.floats(0.0, 1.0),
                st.integers(1, 255),
            ),
            max_size=3,
        ),
        strict=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_path_and_handle_sources_read_identically(
        self, tmp_path_factory, spec, damage, strict
    ):
        """For random byte damage (magic included), reading the file by
        path and reading the same bytes through a handle give the same
        items and the same error — offset and reason — strict and
        lenient."""
        raw = bytearray(TestTornWriteRecoveryProperty().build_wal(spec)[0])
        for kind, frac, byte in damage:
            at = min(int(frac * len(raw)), max(len(raw) - 1, 0))
            if kind == "flip" and raw:
                raw[at] ^= byte
            elif kind == "cut":
                del raw[at:]
            elif kind == "insert":
                raw[at:at] = bytes([byte]) * (byte % 7 + 1)
            elif kind == "delete":
                del raw[at : at + byte % 7 + 1]
        path = tmp_path_factory.mktemp("walker") / "wal.seg"
        path.write_bytes(bytes(raw))
        by_path, path_error = _outcome(path, strict)
        by_handle, handle_error = _outcome(io.BytesIO(bytes(raw)), strict)
        assert path_error == handle_error
        assert len(by_path) == len(by_handle)
        for a, b in zip(by_path, by_handle):
            if isinstance(a, PointBatch):
                assert_batches_equal(a, b)
            else:
                assert a == b

    def test_no_reader_forks_and_one_writer_entry_point(self):
        """The options this format once carried stay gone: no ``mmap``
        switch on any reader (one framing walk), no per-point surface
        on ``SegmentWriter`` (``write_batch`` is the data entry point),
        no ``format`` on the two paths that only ever write segments."""
        import dataclasses
        import inspect

        from repro.tsdb import (
            ColdShardPager,
            Compactor,
            compact_dir,
            compact_log,
            segment_stats,
        )
        from repro.tsdb.segments import _iter_blocks

        readers = (
            iter_segments, _iter_blocks, segment_point_count, segment_stats,
            iter_batches, load, ShardedTSDB.restore_from_dir, compact_log,
            Compactor, compact_dir, ColdShardPager,
        )  # fmt: skip
        for fn in readers:
            assert "mmap" not in inspect.signature(fn).parameters, fn
        assert "mmap" not in {f.name for f in dataclasses.fields(Compactor)}
        for name in ("write", "write_many", "_pending", "_pending_frames"):
            assert not hasattr(SegmentWriter, name)
        assert "_pending" not in vars(SegmentWriter(io.BytesIO()))
        for fn in (ShardedTSDB.snapshot_to_dir, compact_log):
            assert "format" not in inspect.signature(fn).parameters, fn
