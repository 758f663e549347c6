"""Tests for the UE traffic models and buffers."""

import pytest

from repro.ue.traffic import (
    BulkDownload,
    ConstantBitRate,
    OnOffTraffic,
    PoissonPackets,
    TrafficBuffer,
    TrafficError,
    VideoStream,
)

SLOT_S = 0.5e-3


class TestConstantBitRate:
    def test_long_run_rate(self):
        model = ConstantBitRate(rate_bps=4e6, slot_duration_s=SLOT_S)
        total = sum(model.bytes_in_slot(i) for i in range(2000))  # 1 s
        assert total * 8 == pytest.approx(4e6, rel=0.01)

    def test_fractional_bytes_carry(self):
        # 8 kbps at 0.5 ms = 0.5 bytes/slot: arrivals alternate 0/1.
        model = ConstantBitRate(rate_bps=8e3, slot_duration_s=SLOT_S)
        arrivals = [model.bytes_in_slot(i) for i in range(100)]
        assert sum(arrivals) == 50
        assert set(arrivals) == {0, 1}

    def test_rejects_negative(self):
        with pytest.raises(TrafficError):
            ConstantBitRate(rate_bps=-1, slot_duration_s=SLOT_S)


class TestPoisson:
    def test_mean_rate(self):
        model = PoissonPackets(packets_per_second=400, packet_bytes=1400,
                               slot_duration_s=SLOT_S, seed=1)
        total = sum(model.bytes_in_slot(i) for i in range(20000))  # 10 s
        expected = 400 * 10 * 1400
        assert total == pytest.approx(expected, rel=0.1)

    def test_rejects_bad_params(self):
        with pytest.raises(TrafficError):
            PoissonPackets(-1, 1400, SLOT_S)
        with pytest.raises(TrafficError):
            PoissonPackets(10, 0, SLOT_S)


class TestVideo:
    def test_burst_structure(self):
        model = VideoStream(rate_bps=4e6, slot_duration_s=SLOT_S, fps=30,
                            size_jitter=0.0, seed=1)
        arrivals = [model.bytes_in_slot(i) for i in range(2000)]
        bursts = [a for a in arrivals if a > 0]
        # ~30 frames in a second, one burst per frame period.
        assert 25 <= len(bursts) <= 35
        assert all(a == bursts[0] for a in bursts)  # no jitter

    def test_long_run_rate(self):
        model = VideoStream(rate_bps=4e6, slot_duration_s=SLOT_S, seed=2)
        total = sum(model.bytes_in_slot(i) for i in range(20000))
        assert total * 8 == pytest.approx(4e6 * 10, rel=0.15)

    def test_rejects_bad(self):
        with pytest.raises(TrafficError):
            VideoStream(rate_bps=0, slot_duration_s=SLOT_S)


class TestBulkDownload:
    def test_arrives_in_chunks(self):
        model = BulkDownload(rate_cap_bps=8e6, slot_duration_s=SLOT_S,
                             chunk_bytes=131072)
        arrivals = [model.bytes_in_slot(i) for i in range(20000)]
        nonzero = [a for a in arrivals if a > 0]
        assert all(a % 131072 == 0 for a in nonzero)
        # Deep-queue regime: far fewer arrival events than slots.
        assert len(nonzero) < len(arrivals) / 50

    def test_long_run_rate_matches_cap(self):
        model = BulkDownload(rate_cap_bps=8e6, slot_duration_s=SLOT_S,
                             chunk_bytes=65536)
        total = sum(model.bytes_in_slot(i) for i in range(20000))  # 10 s
        # First chunk arrives immediately, hence the one-chunk slack.
        assert total * 8 == pytest.approx(8e7, abs=2 * 65536 * 8)

    def test_rejects_bad_chunk(self):
        with pytest.raises(TrafficError):
            BulkDownload(chunk_bytes=0)


class TestOnOff:
    def test_produces_idle_and_busy_periods(self):
        inner = ConstantBitRate(rate_bps=1e6, slot_duration_s=SLOT_S)
        model = OnOffTraffic(inner=inner, slot_duration_s=SLOT_S,
                             mean_on_s=0.05, mean_off_s=0.05, seed=3)
        arrivals = [model.bytes_in_slot(i) for i in range(10000)]
        idle = sum(1 for a in arrivals if a == 0)
        busy = sum(1 for a in arrivals if a > 0)
        assert idle > 1000 and busy > 1000

    def test_rejects_bad_periods(self):
        inner = BulkDownload()
        with pytest.raises(TrafficError):
            OnOffTraffic(inner=inner, slot_duration_s=SLOT_S, mean_on_s=0)


class TestControlledRate:
    def test_tracks_set_rate(self):
        from repro.ue.traffic import ControlledRate
        model = ControlledRate(slot_duration_s=SLOT_S,
                               initial_rate_bps=1e6)
        first = sum(model.bytes_in_slot(i) for i in range(2000))
        model.set_rate(4e6)
        second = sum(model.bytes_in_slot(i) for i in range(2000, 4000))
        assert first * 8 == pytest.approx(1e6, rel=0.01)
        assert second * 8 == pytest.approx(4e6, rel=0.01)

    def test_zero_rate_sends_nothing(self):
        from repro.ue.traffic import ControlledRate
        model = ControlledRate(slot_duration_s=SLOT_S,
                               initial_rate_bps=1e6)
        model.set_rate(0.0)
        assert sum(model.bytes_in_slot(i) for i in range(100)) == 0

    def test_rejects_negative(self):
        from repro.ue.traffic import ControlledRate
        with pytest.raises(TrafficError):
            ControlledRate(slot_duration_s=SLOT_S,
                           initial_rate_bps=-1.0)
        model = ControlledRate(slot_duration_s=SLOT_S)
        with pytest.raises(TrafficError):
            model.set_rate(-5.0)


class TestTrafficBuffer:
    def test_arrivals_accumulate(self):
        buffer = TrafficBuffer(ConstantBitRate(8e6, SLOT_S))
        buffer.arrive(0)
        assert buffer.backlog_bytes == 500

    def test_packetisation_respects_mtu(self):
        buffer = TrafficBuffer(BulkDownload(rate_cap_bps=0.0,
                                            slot_duration_s=SLOT_S,
                                            chunk_bytes=3500),
                               mtu_bytes=1400)
        buffer.arrive(0)  # 3500-byte chunk -> 2 full + 1 partial packet
        assert buffer.backlog_packets == 3

    def test_drain_returns_bytes_and_packets(self):
        buffer = TrafficBuffer(ConstantBitRate(0, SLOT_S), mtu_bytes=100)
        buffer._packets = [100, 100, 100]
        buffer._backlog_bytes = 300
        served, packets = buffer.drain(250)
        assert served == 250
        assert packets == 2
        assert buffer.backlog_bytes == 50

    def test_partial_packet_completes_later(self):
        buffer = TrafficBuffer(ConstantBitRate(0, SLOT_S), mtu_bytes=100)
        buffer._packets = [100]
        buffer._backlog_bytes = 100
        _, first = buffer.drain(60)
        assert first == 0
        _, second = buffer.drain(40)
        assert second == 1

    def test_drain_more_than_backlog(self):
        buffer = TrafficBuffer(ConstantBitRate(0, SLOT_S))
        buffer._packets = [10]
        buffer._backlog_bytes = 10
        served, packets = buffer.drain(10**6)
        assert (served, packets) == (10, 1)
        assert buffer.backlog_bytes == 0

    def test_negative_drain_rejected(self):
        buffer = TrafficBuffer(BulkDownload())
        with pytest.raises(TrafficError):
            buffer.drain(-1)


def _models():
    """Fresh models of every kind, with a per-slot rate change for the
    sender-controlled one (set at the same slots on both copies)."""
    from repro.ue.traffic import ControlledRate
    return {
        "cbr": ConstantBitRate(rate_bps=3e5, slot_duration_s=SLOT_S),
        "poisson-sparse": PoissonPackets(packets_per_second=9.0,
                                         packet_bytes=1400,
                                         slot_duration_s=SLOT_S, seed=3),
        "poisson-dense": PoissonPackets(packets_per_second=4000.0,
                                        packet_bytes=1400,
                                        slot_duration_s=SLOT_S, seed=4),
        "poisson-zero": PoissonPackets(packets_per_second=0.0,
                                       packet_bytes=1400,
                                       slot_duration_s=SLOT_S, seed=5),
        "video": VideoStream(rate_bps=4e6, slot_duration_s=SLOT_S, seed=6),
        "bulk": BulkDownload(rate_cap_bps=8e6, slot_duration_s=SLOT_S),
        "bulk-zero": BulkDownload(rate_cap_bps=0.0, slot_duration_s=SLOT_S,
                                  chunk_bytes=3000),
        "controlled": ControlledRate(slot_duration_s=SLOT_S,
                                     initial_rate_bps=2e5),
        "onoff": OnOffTraffic(inner=ConstantBitRate(1e6, SLOT_S),
                              slot_duration_s=SLOT_S, mean_on_s=0.01,
                              mean_off_s=0.02, seed=7),
    }


def _control(model, slot: int) -> None:
    if slot % 97 == 0 and hasattr(model, "set_rate"):
        model.set_rate(1e4 * (slot % 7))


class TestQuietSlots:
    """A model called only in the slots its ``quiet_slots`` leaves due,
    with the skipped ones accounted for by ``skip_quiet``, gives what
    it gives when called every slot."""

    N_SLOTS = 3000

    @pytest.mark.parametrize("kind", sorted(_models()))
    def test_due_calls_equal_per_slot_calls(self, kind):
        import pickle

        model, oracle = _models()[kind], _models()[kind]
        start = due = 0
        calls = 0
        for slot in range(self.N_SLOTS):
            _control(model, slot)
            _control(oracle, slot)
            want = oracle.bytes_in_slot(slot)
            if slot == 1234:                    # checkpoint mid-gap
                model = pickle.loads(pickle.dumps(model))
            if slot < due:
                assert want == 0, f"{kind}: slot {slot} was not quiet"
                continue
            model.skip_quiet(start, slot - start)
            assert model.bytes_in_slot(slot) == want, f"{kind} {slot}"
            calls += 1
            start = slot + 1
            due = start + model.quiet_slots(start)
        # Caught up at the end, the two continue as one.
        model.skip_quiet(start, self.N_SLOTS - start)
        for slot in range(self.N_SLOTS, self.N_SLOTS + 500):
            assert model.bytes_in_slot(slot) == oracle.bytes_in_slot(slot)
        if kind in ("video", "bulk", "poisson-sparse", "poisson-zero",
                    "bulk-zero"):
            assert calls < self.N_SLOTS // 4, f"{kind}: {calls} calls"

    @pytest.mark.parametrize("kind", sorted(_models()))
    def test_peeking_changes_no_arrival(self, kind):
        model, oracle = _models()[kind], _models()[kind]
        for slot in range(1500):
            _control(model, slot)
            _control(oracle, slot)
            model.quiet_slots(slot)
            model.quiet_slots(slot)
            assert model.bytes_in_slot(slot) == oracle.bytes_in_slot(slot)

    def test_zero_rate_peek_is_bounded(self):
        from repro.ue.traffic import MAX_QUIET_SLOTS
        for kind in ("poisson-zero", "bulk-zero"):
            model = _models()[kind]
            model.bytes_in_slot(0)      # the bulk model's first chunk
            quiet = model.quiet_slots(1)
            assert MAX_QUIET_SLOTS <= quiet < 2 * MAX_QUIET_SLOTS
