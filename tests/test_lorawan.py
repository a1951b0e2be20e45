"""Tests for the LoRaWAN simulator: airtime, radio, devices, network server."""

import numpy as np
import pytest

from repro.geo import TRONDHEIM
from repro.lorawan import (
    DutyCycle,
    Gateway,
    InvalidSpreadingFactor,
    LoraDevice,
    Measurements,
    NetworkServer,
    PAYLOAD_SIZE,
    PayloadError,
    PropagationModel,
    RadioPlane,
    Uplink,
    airtime_s,
    decode_measurements,
    encode_measurements,
    uplink_from_json,
    uplink_to_json,
)


class TestAirtime:
    def test_sf_validation(self):
        with pytest.raises(InvalidSpreadingFactor):
            airtime_s(20, 6)

    def test_airtime_monotonic_in_sf(self):
        times = [airtime_s(31, sf) for sf in (7, 8, 9, 10, 11, 12)]
        assert times == sorted(times)
        assert times[0] < 0.1  # SF7 well under 100 ms
        assert times[-1] > 1.0  # SF12 over a second

    def test_airtime_monotonic_in_size(self):
        assert airtime_s(10, 9) < airtime_s(50, 9)

    def test_known_value_sf7(self):
        # 31-byte PHY payload at SF7/125k, CR4/5, 8-symbol preamble: ~71.9 ms
        # (matches the TTN airtime calculator).
        assert airtime_s(31, 7) == pytest.approx(0.0719, abs=0.001)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            airtime_s(-1, 7)


class TestDutyCycle:
    def test_one_percent_budget(self):
        dc = DutyCycle(limit=0.01, window_s=3600)
        assert dc.can_send(0.0, 36.0)
        dc.record(0.0, 36.0)  # consumes the whole 1% of 3600 s
        assert not dc.can_send(1.0, 0.001)

    def test_window_slides(self):
        dc = DutyCycle(limit=0.01, window_s=3600)
        dc.record(0.0, 36.0)
        assert dc.can_send(3601.0, 36.0)

    def test_next_allowed(self):
        dc = DutyCycle(limit=0.01, window_s=3600)
        dc.record(100.0, 36.0)
        t = dc.next_allowed(200.0, 1.0)
        assert t >= 3700.0  # must wait for the window to slide past t=100

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            DutyCycle(limit=0.0)


class TestPayloadCodec:
    def test_round_trip(self):
        m = Measurements(
            co2_ppm=412.0,
            no2_ugm3=40.3,
            pm10_ugm3=21.5,
            pm25_ugm3=10.1,
            temperature_c=-12.34,
            pressure_hpa=1013.2,
            humidity_pct=81.25,
            battery_v=3.912,
            sequence=1234,
        )
        out = decode_measurements(encode_measurements(m))
        assert out.co2_ppm == 412.0
        assert out.no2_ugm3 == pytest.approx(40.3)
        assert out.temperature_c == pytest.approx(-12.34)
        assert out.battery_v == pytest.approx(3.912)
        assert out.sequence == 1234

    def test_payload_size(self):
        m = Measurements(400, 10, 10, 5, 0, 1000, 50, 3.7)
        assert len(encode_measurements(m)) == PAYLOAD_SIZE == 18

    def test_clamping_out_of_range(self):
        m = Measurements(99999999, -5, 10, 5, 0, 1000, 50, 3.7)
        out = decode_measurements(encode_measurements(m))
        assert out.co2_ppm == 65535.0
        assert out.no2_ugm3 == 0.0

    def test_wrong_size_rejected(self):
        with pytest.raises(PayloadError):
            decode_measurements(b"\x00" * 5)

    def test_sequence_wraps(self):
        m = Measurements(400, 10, 10, 5, 0, 1000, 50, 3.7, sequence=65536 + 3)
        assert decode_measurements(encode_measurements(m)).sequence == 3


class TestPropagation:
    def test_rssi_decreases_with_distance(self):
        model = PropagationModel(shadowing_sigma_db=0.0)
        near = model.evaluate(100.0, 9)
        far = model.evaluate(5000.0, 9)
        assert near.rssi_dbm > far.rssi_dbm

    def test_reception_threshold(self):
        model = PropagationModel(shadowing_sigma_db=0.0)
        assert model.evaluate(100.0, 12).received
        assert not model.evaluate(100_000.0, 12).received

    def test_sf12_outranges_sf7(self):
        model = PropagationModel(shadowing_sigma_db=0.0)
        assert model.evaluate(3000.0, 12).received
        assert not model.evaluate(3000.0, 7).received

    def test_shadowing_is_random_but_seeded(self):
        model = PropagationModel(shadowing_sigma_db=7.0)
        losses1 = [
            model.path_loss_db(1000.0, np.random.default_rng(7)) for _ in range(1)
        ]
        losses2 = [
            model.path_loss_db(1000.0, np.random.default_rng(7)) for _ in range(1)
        ]
        assert losses1 == losses2


def make_plane(n_gateways=2, seed=0, sigma=0.0):
    plane = RadioPlane(
        PropagationModel(shadowing_sigma_db=sigma), np.random.default_rng(seed)
    )
    for i in range(n_gateways):
        loc = TRONDHEIM.destination(90.0 * i, 500.0 + 100.0 * i)
        plane.add_gateway(Gateway(f"gw-{i}", loc))
    return plane


class TestRadioPlane:
    def test_duplicate_gateway_rejected(self):
        plane = make_plane(1)
        with pytest.raises(ValueError):
            plane.add_gateway(Gateway("gw-0", TRONDHEIM))

    def test_nearby_uplink_heard_by_all_gateways(self):
        plane = make_plane(2)
        up = Uplink("dev", 0, b"\x00" * 18, sf=9, sent_at=0)
        receptions = plane.transmit(up, TRONDHEIM)
        assert len(receptions) == 2
        assert plane.gateway("gw-0").received_count == 1

    def test_offline_gateway_hears_nothing(self):
        plane = make_plane(2)
        plane.gateway("gw-0").set_online(False)
        up = Uplink("dev", 0, b"\x00" * 18, sf=9, sent_at=0)
        receptions = plane.transmit(up, TRONDHEIM)
        assert [r.gateway_id for r in receptions] == ["gw-1"]

    def test_collision_loses_both_when_close_in_power(self):
        plane = make_plane(1)
        up1 = Uplink("dev-a", 0, b"\x00" * 18, sf=12, sent_at=0)
        up2 = Uplink("dev-b", 0, b"\x00" * 18, sf=12, sent_at=0)
        r1 = plane.transmit(up1, TRONDHEIM)
        r2 = plane.transmit(up2, TRONDHEIM)  # same place, same power, same SF
        assert r1  # first had no contender at transmit time
        assert not r2  # second collides and cannot capture
        assert plane.collisions >= 1

    def test_different_sf_no_collision(self):
        plane = make_plane(1)
        up1 = Uplink("dev-a", 0, b"\x00" * 18, sf=7, sent_at=0)
        up2 = Uplink("dev-b", 0, b"\x00" * 18, sf=12, sent_at=0)
        plane.transmit(up1, TRONDHEIM)
        r2 = plane.transmit(up2, TRONDHEIM)
        assert r2  # orthogonal SFs do not interfere

    def test_non_overlapping_in_time_no_collision(self):
        plane = make_plane(1)
        up1 = Uplink("dev-a", 0, b"\x00" * 18, sf=9, sent_at=0)
        up2 = Uplink("dev-b", 1, b"\x00" * 18, sf=9, sent_at=100)
        plane.transmit(up1, TRONDHEIM)
        assert plane.transmit(up2, TRONDHEIM)


class TestLoraDevice:
    def test_send_increments_fcnt(self):
        plane = make_plane(1)
        dev = LoraDevice("dev", TRONDHEIM, plane, sf=9)
        r1 = dev.send(b"\x00" * 18, now=0)
        r2 = dev.send(b"\x00" * 18, now=300)
        assert r1.uplink.fcnt == 0
        assert r2.uplink.fcnt == 1
        assert r1.delivered

    def test_duty_cycle_blocks_rapid_fire(self):
        plane = make_plane(1)
        dev = LoraDevice(
            "dev", TRONDHEIM, plane, sf=12, duty_cycle=DutyCycle(limit=0.001)
        )
        results = [dev.send(b"\x00" * 18, now=i) for i in range(10)]
        blocked = [r for r in results if r.blocked_by_duty_cycle]
        assert blocked
        assert blocked[0].deferred_until is not None
        assert dev.duty_blocked == len(blocked)

    def test_set_sf_validates(self):
        dev = LoraDevice("dev", TRONDHEIM, make_plane(1))
        with pytest.raises(InvalidSpreadingFactor):
            dev.set_sf(13)


class TestNetworkServer:
    def make_received(self, ns, fcnt=0, n_rx=2):
        up = Uplink("dev", fcnt, b"\x00" * 18, sf=9, sent_at=0)
        plane = make_plane(n_rx)
        receptions = plane.transmit(up, TRONDHEIM)
        return ns.ingest(up, receptions, now=1)

    def test_dedup_and_forward(self):
        ns = NetworkServer()
        seen = []
        ns.on_uplink(seen.append)
        received = self.make_received(ns)
        assert received is not None
        assert len(seen) == 1
        assert len(received.receptions) == 2
        assert ns.session("dev").duplicates_suppressed == 1

    def test_replay_rejected(self):
        ns = NetworkServer()
        self.make_received(ns, fcnt=5)
        assert self.make_received(ns, fcnt=5) is None
        assert self.make_received(ns, fcnt=4) is None
        assert ns.session("dev").replays_rejected == 2

    def test_no_receptions_not_forwarded(self):
        ns = NetworkServer()
        up = Uplink("dev", 0, b"\x00" * 18, sf=9, sent_at=0)
        assert ns.ingest(up, [], now=1) is None

    def test_offline_server_drops(self):
        ns = NetworkServer(online=False)
        assert self.make_received(ns) is None
        assert ns.stats()["dropped_while_offline"] == 1

    def test_best_reception_is_strongest(self):
        ns = NetworkServer()
        received = self.make_received(ns)
        rssis = [r.rssi_dbm for r in received.receptions]
        assert received.best_reception.rssi_dbm == max(rssis)

    def test_adr_needs_full_window(self):
        ns = NetworkServer()
        self.make_received(ns)
        assert ns.adr_recommendation("dev") is None

    def test_adr_recommends_low_sf_for_strong_link(self):
        ns = NetworkServer()
        for i in range(NetworkServer.ADR_WINDOW):
            self.make_received(ns, fcnt=i)
        assert ns.adr_recommendation("dev") == 7  # node sits 500 m from gw

    def test_json_round_trip(self):
        ns = NetworkServer()
        received = self.make_received(ns)
        restored = uplink_from_json(uplink_to_json(received))
        assert restored.uplink.dev_eui == received.uplink.dev_eui
        assert restored.uplink.payload == received.uplink.payload
        assert restored.receptions == received.receptions
