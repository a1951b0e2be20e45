"""Tests for stream operators and flow graphs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.mqtt import Broker
from repro.streams import (
    Event,
    Filter,
    FlowGraph,
    FlowGraphError,
    Map,
    Segmenter,
    Sink,
    Source,
    TumblingWindow,
    chain,
)


def feed(source, pairs):
    for t, v in pairs:
        source.push(Event(t, v))


class TestOperators:
    def test_map(self):
        src, sink = Source(), Sink()
        chain(src, Map(lambda e: Event(e.timestamp, e.value * 2)), sink)
        feed(src, [(0, 1.0), (1, 2.0)])
        assert sink.values().tolist() == [2.0, 4.0]

    def test_filter(self):
        src, sink = Source(), Sink()
        chain(src, Filter(lambda e: e.value > 1.0), sink)
        feed(src, [(0, 0.5), (1, 2.0), (2, 1.5)])
        assert sink.values().tolist() == [2.0, 1.5]

    def test_counters(self):
        src = Source()
        f = Filter(lambda e: e.value > 1.0)
        sink = Sink()
        chain(src, f, sink)
        feed(src, [(0, 0.5), (1, 2.0)])
        assert src.received == 2
        assert f.received == 2
        assert f.emitted == 1

    def test_fanout(self):
        src = Source()
        s1, s2 = Sink(), Sink()
        src.to(s1, s2)
        src.push(Event(0, 1.0))
        assert len(s1.events) == len(s2.events) == 1

    def test_sink_callback(self):
        got = []
        src = Source()
        src.to(Sink(callback=got.append))
        src.push(Event(5, 1.0))
        assert got[0].timestamp == 5

    def test_chain_empty_raises(self):
        with pytest.raises(ValueError):
            chain()


class TestTumblingWindow:
    def test_aggregates_per_bucket(self):
        src, sink = Source(), Sink()
        chain(src, TumblingWindow(10, np.mean), sink)
        feed(src, [(0, 1.0), (5, 3.0), (10, 10.0), (20, 7.0)])
        src.flush()
        assert sink.timestamps().tolist() == [0, 10, 20]
        assert sink.values().tolist() == [2.0, 10.0, 7.0]

    def test_flush_emits_partial(self):
        src, sink = Source(), Sink()
        chain(src, TumblingWindow(10), sink)
        src.push(Event(3, 5.0))
        assert sink.events == []
        src.flush()
        assert sink.values().tolist() == [5.0]

    def test_bucket_alignment(self):
        src, sink = Source(), Sink()
        chain(src, TumblingWindow(300), sink)
        feed(src, [(299, 1.0), (300, 2.0)])
        src.flush()
        assert sink.timestamps().tolist() == [0, 300]

    def test_custom_aggregate(self):
        src, sink = Source(), Sink()
        chain(src, TumblingWindow(10, np.max), sink)
        feed(src, [(0, 1.0), (5, 9.0), (12, 2.0)])
        src.flush()
        assert sink.values()[0] == 9.0

    def test_late_events_fold_into_open_window(self):
        window, sink = TumblingWindow(60, aggregate=np.sum), Sink()
        window.to(sink)
        feed(window, [(0, 1.0), (61, 2.0), (30, 4.0), (122, 8.0)])
        window.flush()
        # 30 arrives after the [60,120) window opened -> folds into it.
        assert sink.timestamps().tolist() == [0, 60, 120]
        assert sink.values().tolist() == [1.0, 6.0, 8.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            TumblingWindow(0)


class TestSegmenter:
    def test_splits_on_gap(self):
        closed = []
        src = Source()
        seg = Segmenter(max_gap_s=600, on_segment=closed.append)
        sink = Sink()
        chain(src, seg, sink)
        feed(src, [(0, 1.0), (300, 2.0), (5000, 3.0), (5300, 4.0)])
        src.flush()
        assert len(closed) == 2
        assert [e.value for e in closed[0]] == [1.0, 2.0]
        assert seg.segments_closed == 2

    def test_segment_ids_tagged(self):
        src, sink = Source(), Sink()
        chain(src, Segmenter(600), sink)
        feed(src, [(0, 1.0), (5000, 2.0)])
        src.flush()
        assert [e.tags["segment"] for e in sink.events] == [0, 1]

    def test_no_gap_single_segment(self):
        src, sink = Source(), Sink()
        seg = Segmenter(600)
        chain(src, seg, sink)
        feed(src, [(i * 300, float(i)) for i in range(10)])
        src.flush()
        assert seg.segments_closed == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Segmenter(0)


class TestFlowGraph:
    def build(self):
        g = FlowGraph("test")
        g.add("src", Source())
        g.add("double", Map(lambda e: Event(e.timestamp, e.value * 2)))
        g.add("out", Sink())
        g.connect("src", "double")
        g.connect("double", "out")
        return g

    def test_end_to_end(self):
        g = self.build()
        g.push("src", Event(0, 21.0))
        assert g.stage("out").values().tolist() == [42.0]

    def test_duplicate_stage_rejected(self):
        g = self.build()
        with pytest.raises(FlowGraphError):
            g.add("src", Source())

    def test_unknown_stage(self):
        g = self.build()
        with pytest.raises(FlowGraphError):
            g.connect("src", "nope")

    def test_cycle_rejected(self):
        g = self.build()
        with pytest.raises(FlowGraphError):
            g.connect("out", "src")
        # The failed edge must not have half-connected anything.
        g.push("src", Event(0, 1.0))
        assert len(g.stage("out").events) == 1

    def test_rewire_at_runtime(self):
        """The demo scenario: change the dependency of the data flow."""
        g = self.build()
        g.add("halve", Map(lambda e: Event(e.timestamp, e.value / 2)))
        g.add("out2", Sink())
        g.connect("halve", "out2")
        g.push("src", Event(0, 10.0))
        # Rewire: src now feeds halve instead of double.
        g.disconnect("src", "double")
        g.connect("src", "halve")
        g.push("src", Event(1, 10.0))
        assert g.stage("out").values().tolist() == [20.0]
        assert g.stage("out2").values().tolist() == [5.0]

    def test_disconnect_unknown_edge(self):
        g = self.build()
        with pytest.raises(FlowGraphError):
            g.disconnect("out", "src")

    def test_topology_introspection(self):
        g = self.build()
        assert g.roots() == ["src"]
        assert g.leaves() == ["out"]
        assert g.topological_order() == ["src", "double", "out"]
        assert g.edges() == [("double", "out"), ("src", "double")]

    def test_describe(self):
        text = self.build().describe()
        assert "src" in text
        assert "(sink)" in text

    def test_mqtt_automation(self):
        """A source bound to an MQTT topic runs with no manual pushes."""
        broker = Broker()
        g = self.build()

        def extract(message):
            ts, val = message.text().split(",")
            return Event(int(ts), float(val))

        g.bind_mqtt(broker, "data/#", "src", extract)
        broker.publish("data/x", "100,3.5")
        broker.publish("data/y", "200,4.5")
        assert g.stage("out").values().tolist() == [7.0, 9.0]

    def test_mqtt_extract_none_skips(self):
        broker = Broker()
        g = self.build()
        g.bind_mqtt(broker, "data/#", "src", lambda m: None)
        broker.publish("data/x", "whatever")
        assert g.stage("out").events == []

    def test_stage_stats(self):
        g = self.build()
        g.push("src", Event(0, 1.0))
        lines = g.describe().splitlines()
        assert "  src [Source: in=1 out=1] -> double" in lines
        assert "  out [Sink: in=1 out=0] (sink)" in lines

    def test_runs_without_networkx(self):
        """The graph is stdlib-only: a process that cannot import
        networkx builds, orders, refuses a cycle and runs a flow."""
        script = """
import sys
sys.modules["networkx"] = None
from repro.streams import Event, FlowGraph, FlowGraphError, Map, Sink, Source
g = FlowGraph("t")
g.add("src", Source())
g.add("double", Map(lambda e: Event(e.timestamp, 2 * e.value)))
g.add("out", Sink())
g.connect("src", "double")
g.connect("double", "out")
try:
    g.connect("out", "src")
except FlowGraphError:
    pass
g.push("src", Event(0, 21.0))
print(g.topological_order(), g.stage("out").values().tolist())
"""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['src', 'double', 'out'] [42.0]"
