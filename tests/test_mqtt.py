"""Tests for the in-process MQTT broker."""

import pytest

from repro.mqtt import (
    Broker,
    InvalidTopic,
    MqttError,
    join,
    topic_matches,
    validate_filter,
    validate_topic,
)


class TestTopicValidation:
    def test_publish_topic_rejects_wildcards(self):
        with pytest.raises(InvalidTopic):
            validate_topic("a/+/b")
        with pytest.raises(InvalidTopic):
            validate_topic("a/#")

    def test_empty_and_nul(self):
        for bad in ("", "a\x00b"):
            with pytest.raises(InvalidTopic):
                validate_topic(bad)

    def test_filter_hash_must_be_last(self):
        validate_filter("a/#")
        with pytest.raises(InvalidTopic):
            validate_filter("a/#/b")

    def test_filter_wildcard_must_be_whole_level(self):
        with pytest.raises(InvalidTopic):
            validate_filter("a/b+/c")
        with pytest.raises(InvalidTopic):
            validate_filter("a/b#")

    def test_join(self):
        assert join("ctt", "uplink", "dev-1") == "ctt/uplink/dev-1"


class TestTopicMatching:
    @pytest.mark.parametrize(
        "filter_,topic,expected",
        [
            ("a/b/c", "a/b/c", True),
            ("a/b/c", "a/b/d", False),
            ("a/+/c", "a/b/c", True),
            ("a/+/c", "a/b/d", False),
            ("a/#", "a/b/c/d", True),
            ("a/#", "a", True),  # '#' matches the parent level
            ("#", "a/b", True),
            ("+", "a", True),
            ("+", "a/b", False),
            ("a/+", "a", False),
            ("#", "$SYS/health", False),  # $-topics hidden from wildcards
            ("$SYS/#", "$SYS/health", True),
        ],
    )
    def test_cases(self, filter_, topic, expected):
        assert topic_matches(filter_, topic) is expected


class TestBrokerBasics:
    def test_publish_subscribe(self):
        broker = Broker()
        client = broker.connect("c1")
        got = []
        client.subscribe("sensors/+/up", got.append)
        broker.publish("sensors/dev1/up", b"hello")
        assert len(got) == 1
        assert got[0].payload == b"hello"
        assert got[0].topic == "sensors/dev1/up"

    def test_string_payload_encoded(self):
        broker = Broker()
        client = broker.connect("c1")
        got = []
        client.subscribe("t", got.append)
        client.publish("t", "text")
        assert got[0].text() == "text"

    def test_no_delivery_after_unsubscribe(self):
        broker = Broker()
        client = broker.connect("c1")
        got = []
        client.subscribe("t", got.append)
        assert client.unsubscribe("t")
        assert not client.unsubscribe("t")
        broker.publish("t", b"x")
        assert got == []

    def test_deliver_once_per_client_even_with_overlapping_subs(self):
        broker = Broker()
        client = broker.connect("c1")
        got = []
        client.subscribe("a/#", got.append)
        client.subscribe("a/+", got.append)
        broker.publish("a/b", b"x")
        assert len(got) == 1
        # With different QoS, the one delivery goes through the highest.
        got0, got1 = [], []
        client.subscribe("b/#", got0.append, qos=0)
        client.subscribe("b/+", got1.append, qos=1)
        broker.publish("b/c", b"x", qos=1)
        assert got0 == [] and len(got1) == 1

    def test_qos_validation(self):
        broker = Broker()
        with pytest.raises(MqttError):
            broker.publish("t", b"x", qos=2)

    def test_stats(self):
        broker = Broker()
        broker.connect("c1")
        broker.publish("t", b"x")
        assert broker.stats() == {
            "published": 1, "sessions": 1, "retained": 0, "inflight": 0,
        }


class TestRetained:
    def test_retained_replay_on_subscribe(self):
        broker = Broker()
        broker.publish("status/node1", b"online", retain=True)
        client = broker.connect("c1")
        got = []
        client.subscribe("status/#", got.append)
        assert len(got) == 1
        assert got[0].retain

    def test_retained_overwrite(self):
        broker = Broker()
        broker.publish("s", b"v1", retain=True)
        broker.publish("s", b"v2", retain=True)
        assert broker.retained_for("s")[0].payload == b"v2"

    def test_empty_payload_clears_retained(self):
        broker = Broker()
        broker.publish("s", b"v1", retain=True)
        broker.publish("s", b"", retain=True)
        assert broker.retained_for("s") == []
