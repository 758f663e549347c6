"""Tests for the UE device and its packet capture (tcpdump stand-in)."""

import pytest

from repro.ue.channel import FadingChannel
from repro.ue.table import UeTable
from repro.ue.traffic import BulkDownload, TrafficBuffer
from repro.ue.ue import PacketCapture, PacketRecord, UeError, \
    UserEquipment

SLOT_S = 0.5e-3


def make_ue(ue_id=0, arrival=0.0):
    return UserEquipment(
        ue_id=ue_id,
        dl_buffer=TrafficBuffer(BulkDownload(rate_cap_bps=1e6,
                                             slot_duration_s=SLOT_S)),
        ul_buffer=TrafficBuffer(BulkDownload(rate_cap_bps=1e5,
                                             slot_duration_s=SLOT_S)),
        channel=FadingChannel("awgn", 20.0, SLOT_S, seed=1),
        arrival_time_s=arrival)


class TestPacketCapture:
    def test_bytes_between(self):
        capture = PacketCapture()
        capture.record(0.1, 100, downlink=True)
        capture.record(0.2, 200, downlink=True)
        capture.record(0.25, 999, downlink=False)
        capture.record(0.3, 400, downlink=True)
        assert capture.bytes_between(0.0, 0.25) == 300
        assert capture.bytes_between(0.2, 0.35) == 600
        assert capture.bytes_between(0.0, 1.0, downlink=False) == 999

    def test_bitrate_series(self):
        capture = PacketCapture()
        for i in range(10):
            capture.record(0.05 + i * 0.1, 1250, downlink=True)  # 10 kbps
        series = capture.bitrate_series(window_s=0.5, end_time_s=1.0)
        assert len(series) == 2
        assert series[0][1] == pytest.approx(5 * 1250 * 8 / 0.5)

    def test_timestamps_must_be_ordered(self):
        capture = PacketCapture()
        capture.record(1.0, 10, downlink=True)
        with pytest.raises(UeError):
            capture.record(0.5, 10, downlink=True)

    def test_negative_size_rejected(self):
        with pytest.raises(UeError):
            PacketCapture().record(0.0, -1, downlink=True)

    def test_bad_window(self):
        with pytest.raises(UeError):
            PacketCapture().bitrate_series(0.0, 1.0)

    def test_records_rebuilt_from_the_columns(self):
        capture = PacketCapture()
        capture.record(0.1, 100, downlink=True, n_packets=2)
        capture.record(0.25, 999, downlink=False)
        assert capture.records == [PacketRecord(0.1, 100, True, 2),
                                   PacketRecord(0.25, 999, False, 1)]
        assert len(capture) == 2

    @pytest.mark.parametrize("size, n_packets", [
        (PacketCapture.MAX_COUNT + 1, 1), (10, -1),
        (10, PacketCapture.MAX_COUNT + 1)])
    def test_delivery_outside_the_columns_keeps_nothing(self, size,
                                                        n_packets):
        capture = PacketCapture()
        capture.record(0.1, 100, downlink=True)
        with pytest.raises(UeError, match="outside"):
            capture.record(0.2, size, downlink=True, n_packets=n_packets)
        assert capture.records == [PacketRecord(0.1, 100, True, 1)]
        capture.record(0.3, 5, downlink=True)
        assert capture.bytes_between(0.0, 1.0) == 105


class TestUserEquipment:
    def test_connect_disconnect(self):
        ue = make_ue()
        assert not ue.is_connected
        ue.connect(0x4601)
        assert ue.is_connected
        with pytest.raises(UeError):
            ue.connect(0x4602)
        ue.disconnect()
        assert not ue.is_connected

    def test_advance_slot_accumulates_traffic(self):
        ue = make_ue()
        for slot in range(100):
            ue.advance_slot(slot)
        assert ue.dl_buffer.backlog_bytes > 0
        assert ue.ul_buffer.backlog_bytes > 0

    def test_advance_updates_cqi(self):
        # The gNB's UE table advances an admitted UE's channel and CQI.
        ue = make_ue()
        table = UeTable()
        table.add(ue)
        table.advance(0)
        assert 1 <= table.cqi(ue.ue_id) <= 15

    def test_delivery_recorded_in_capture(self):
        ue = make_ue()
        ue.deliver_downlink(0.1, 1000, n_packets=2)
        ue.deliver_uplink(0.2, 300, n_packets=1)
        assert ue.delivered_dl_bits == 8000
        assert ue.delivered_ul_bits == 2400
        assert len(ue.capture) == 2
        assert ue.capture.bytes_between(0.0, 1.0, downlink=True) == 1000

    def test_active_time(self):
        ue = make_ue(arrival=5.0)
        assert ue.active_time_s(now_s=15.0) == pytest.approx(10.0)
        ue.departure_time_s = 8.0
        assert ue.active_time_s(now_s=15.0) == pytest.approx(3.0)
