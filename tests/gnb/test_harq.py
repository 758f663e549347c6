"""Tests for gNB-side HARQ entities."""

import pickle

import pytest

from repro.gnb.harq import HarqEntity, HarqError, HarqProcess, \
    NO_GEOMETRY, RV_SEQUENCE


class TestHarqProcess:
    def test_ndi_toggles_on_new_data(self):
        process = HarqProcess(0)
        first = process.start_new(1000)
        process.ack()
        second = process.start_new(1000)
        assert first != second

    def test_retransmit_keeps_ndi(self):
        process = HarqProcess(0)
        ndi = process.start_new(1000)
        retx_ndi, rv = process.retransmit()
        assert retx_ndi == ndi
        assert rv == RV_SEQUENCE[1]

    def test_rv_sequence_progresses(self):
        process = HarqProcess(0)
        process.start_new(1000)
        rvs = [process.retransmit()[1] for _ in range(5)]
        assert rvs[:3] == [2, 3, 1]
        assert rvs[3] == rvs[4] == RV_SEQUENCE[-1]

    def test_cannot_retransmit_idle(self):
        with pytest.raises(HarqError):
            HarqProcess(0).retransmit()

    def test_rejects_empty_block(self):
        with pytest.raises(HarqError):
            HarqProcess(0).start_new(0)

    def test_holds_its_block_until_acked(self):
        process = HarqProcess(3)
        process.start_new(1000)
        process.hold(120, 2, (6, 1, 12))
        process.retransmit()
        assert (process.payload_bytes, process.n_packets,
                process.geometry) == (120, 2, (6, 1, 12))
        process.ack()
        assert (process.payload_bytes, process.n_packets,
                process.geometry) == (0, 0, NO_GEOMETRY)

    def test_pickles_by_value(self):
        process = HarqProcess(3)
        process.start_new(1000)
        process.hold(120, 2, (6, 1, 12))
        process.retransmit()
        assert pickle.loads(pickle.dumps(process)) == process


class TestHarqEntity:
    def test_sixteen_processes(self):
        entity = HarqEntity()
        assert len(entity.processes) == 16

    def test_new_transmissions_use_free_processes(self):
        entity = HarqEntity()
        seen = set()
        for _ in range(16):
            harq_id, _, rv = entity.transmit_new(500)
            assert rv == 0
            seen.add(harq_id)
        assert len(seen) == 16
        assert entity.transmit_new(500) is None  # all busy

    def test_ack_frees_process(self):
        entity = HarqEntity()
        harq_id, _, _ = entity.transmit_new(500)
        assert entity.handle_feedback(harq_id, ack=True) == "acked"
        assert entity.free_process() is not None

    def test_nack_then_retransmit(self):
        entity = HarqEntity()
        harq_id, ndi, _ = entity.transmit_new(500)
        assert entity.handle_feedback(harq_id, ack=False) == "retransmit"
        retx_id, retx_ndi, rv = entity.transmit_retx(harq_id)
        assert retx_id == harq_id
        assert retx_ndi == ndi
        assert rv == 2

    def test_drop_after_max_retx(self):
        entity = HarqEntity(max_retx=2)
        harq_id, _, _ = entity.transmit_new(500)
        for _ in range(2):
            assert entity.handle_feedback(harq_id, ack=False) == \
                "retransmit"
            entity.transmit_retx(harq_id)
        assert entity.handle_feedback(harq_id, ack=False) == "dropped"
        assert entity.dropped_blocks == 1
        assert entity.free_process() is not None

    def test_retransmission_ratio(self):
        entity = HarqEntity()
        harq_id, _, _ = entity.transmit_new(500)
        entity.handle_feedback(harq_id, ack=False)
        entity.transmit_retx(harq_id)
        entity.handle_feedback(harq_id, ack=True)
        assert entity.retransmission_ratio == pytest.approx(0.5)

    def test_ratio_empty(self):
        assert HarqEntity().retransmission_ratio == 0.0

    def test_bad_harq_id(self):
        with pytest.raises(HarqError):
            HarqEntity().handle_feedback(16, ack=True)

    def test_bad_process_count(self):
        with pytest.raises(HarqError):
            HarqEntity(n_processes=17)

    def test_pending_retransmissions_listed(self):
        entity = HarqEntity()
        harq_id, _, _ = entity.transmit_new(500)
        entity.handle_feedback(harq_id, ack=False)
        entity.transmit_retx(harq_id)
        pending = entity.pending_retransmissions()
        assert [p.process_id for p in pending] == [harq_id]
