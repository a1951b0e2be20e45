"""Tests for repro.tsdb.model and repro.tsdb.series."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.tsdb import DataPoint, SeriesKey
from repro.tsdb.model import InvalidName, validate_name
from repro.tsdb.series import SeriesStore


class TestValidateName:
    def test_accepts_typical_metric_names(self):
        for name in ("air.co2.ppm", "node-1", "a/b", "T_0"):
            assert validate_name(name) == name

    def test_rejects_bad_names(self):
        for bad in ("", " ", "a b", "héllo", ".leading", None, 42):
            with pytest.raises(InvalidName):
                validate_name(bad)  # type: ignore[arg-type]


class TestSeriesKey:
    def test_tags_sorted_canonically(self):
        k1 = SeriesKey.make("m", {"b": "2", "a": "1"})
        k2 = SeriesKey.make("m", {"a": "1", "b": "2"})
        assert k1 == k2
        assert hash(k1) == hash(k2)

    def test_str_representation(self):
        k = SeriesKey.make("air.co2.ppm", {"node": "ctt-07", "city": "trondheim"})
        assert str(k) == "air.co2.ppm{city=trondheim,node=ctt-07}"
        assert str(SeriesKey.make("m")) == "m"

    def test_canonical_text_is_kept_and_is_not_part_of_the_identity(self):
        made = SeriesKey.make("air.co2.ppm", {"node": "ctt-07", "city": "trondheim"})
        bare = SeriesKey("air.co2.ppm", (("city", "trondheim"), ("node", "ctt-07")))
        fresh = SeriesKey.make("air.co2.ppm", {"node": "ctt-07", "city": "trondheim"})
        plain = repr(fresh)
        for key in (made, bare):
            text = str(key)
            assert text == "air.co2.ppm{city=trondheim,node=ctt-07}"
            assert str(key) is text  # formatted once, then kept
            # ... and invisible: a key that was formatted and one that
            # never was are the same key.
            assert key == fresh and hash(key) == hash(fresh)
            assert repr(key) == plain and "_text" not in plain
            assert {key: 1}[fresh] == 1
        clone = pickle.loads(pickle.dumps(made))
        assert clone == made and hash(clone) == hash(made)
        assert str(clone) == str(made) and repr(clone) == plain
        moved = dataclasses.replace(made, metric="air.no2.ugm3")
        assert str(moved) == "air.no2.ugm3{city=trondheim,node=ctt-07}"
        assert moved != made and str(made).startswith("air.co2.ppm{")
        with pytest.raises(dataclasses.FrozenInstanceError):
            made.metric = "other"  # type: ignore[misc]

    def test_tag_lookup(self):
        k = SeriesKey.make("m", {"node": "x"})
        assert k.tag("node") == "x"
        assert k.tag("missing") is None
        assert k.tag("missing", "dflt") == "dflt"

    def test_matches_exact(self):
        k = SeriesKey.make("m", {"node": "x", "city": "trondheim"})
        assert k.matches({"node": "x"})
        assert not k.matches({"node": "y"})

    def test_matches_wildcard_requires_presence(self):
        k = SeriesKey.make("m", {"node": "x"})
        assert k.matches({"node": "*"})
        assert not k.matches({"city": "*"})

    def test_matches_alternation(self):
        k = SeriesKey.make("m", {"node": "x"})
        assert k.matches({"node": "x|y"})
        assert not k.matches({"node": "y|z"})

    def test_matches_empty_filter(self):
        assert SeriesKey.make("m", {"a": "1"}).matches({})

    def test_invalid_tag_key(self):
        with pytest.raises(InvalidName):
            SeriesKey.make("m", {"bad key": "v"})


class TestDataPoint:
    def test_make_coerces_types(self):
        p = DataPoint.make("m", 100.9, "3", {"a": "1"})  # type: ignore[arg-type]
        assert p.timestamp == 100
        assert p.value == 3.0


class TestSeriesStore:
    def test_in_order_append_and_scan(self):
        s = SeriesStore()
        for i in range(10):
            s.append(i * 10, float(i))
        sl = s.scan()
        assert len(sl) == 10
        assert sl.timestamps.tolist() == [i * 10 for i in range(10)]

    def test_out_of_order_sorted_on_scan(self):
        s = SeriesStore()
        s.append(30, 3.0)
        s.append(10, 1.0)
        s.append(20, 2.0)
        sl = s.scan()
        assert sl.timestamps.tolist() == [10, 20, 30]
        assert sl.values.tolist() == [1.0, 2.0, 3.0]

    def test_duplicate_timestamp_last_write_wins(self):
        s = SeriesStore()
        s.append(10, 1.0)
        s.append(10, 99.0)
        sl = s.scan()
        assert len(sl) == 1
        assert sl.values[0] == 99.0

    def test_duplicate_across_compactions(self):
        s = SeriesStore()
        s.append(10, 1.0)
        _ = s.scan()  # a read between the two writes
        s.append(10, 2.0)
        assert s.scan().values.tolist() == [2.0]

    def test_range_scan_inclusive(self):
        s = SeriesStore()
        for t in (10, 20, 30, 40):
            s.append(t, float(t))
        sl = s.scan(20, 30)
        assert sl.timestamps.tolist() == [20, 30]

    def test_scan_empty_range(self):
        s = SeriesStore()
        s.append(10, 1.0)
        assert s.scan(100, 200).is_empty()

    def test_latest(self):
        s = SeriesStore()
        assert s.latest() is None
        s.append(10, 1.0)
        s.append(5, 0.5)  # out of order; latest is still t=10
        assert s.latest() == (10, 1.0)

    def test_len_and_growth(self):
        s = SeriesStore()
        n = 3000  # crosses the initial capacity several times
        for i in range(n):
            s.append(i, float(i))
        assert len(s) == n

    def test_delete_before(self):
        s = SeriesStore()
        for t in range(0, 100, 10):
            s.append(t, float(t))
        dropped = s.delete_before(50)
        assert dropped == 5
        assert s.scan().timestamps.tolist() == [50, 60, 70, 80, 90]
        assert s.delete_before(0) == 0
