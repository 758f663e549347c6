"""Tests for the RACH procedure FSM."""

import pytest

from repro.gnb.rach import RachError, RachProcedure, RachState


def drive(rach: RachProcedure, until_slot: int):
    """Step slot by slot collecting MSG 4 events."""
    events = []
    for slot in range(until_slot):
        events.extend(rach.step(slot))
    return events


class TestRachProcedure:
    def test_single_ue_completes(self):
        rach = RachProcedure()
        rach.request_connection(ue_id=7, slot_index=0)
        events = drive(rach, 30)
        assert len(events) == 1
        assert events[0].ue_id == 7
        assert events[0].tc_rnti == 0x4601
        assert rach.completed == 1
        assert rach.in_flight == 0

    def test_cancel_drops_the_attempt(self):
        rach = RachProcedure()
        rach.request_connection(ue_id=7, slot_index=0)
        rach.request_connection(ue_id=8, slot_index=0)
        rach.step(0)                    # both send MSG 1
        rach.cancel(7)
        rach.cancel(99)                 # no attempt: nothing to drop
        events = [e for slot in range(1, 30) for e in rach.step(slot)]
        assert [e.ue_id for e in events] == [8]
        rach.request_connection(ue_id=7, slot_index=30)

    def test_msg4_timing_respects_delays(self):
        rach = RachProcedure(occasion_period_slots=10, msg2_delay_slots=2,
                             msg3_delay_slots=3, msg4_delay_slots=2)
        rach.request_connection(ue_id=1, slot_index=0)
        events = drive(rach, 30)
        # MSG1 at slot 0 (occasion), MSG2 by slot 2, MSG3 by 5, MSG4 by 7.
        assert events[0].slot_index == 7

    def test_waits_for_occasion(self):
        rach = RachProcedure(occasion_period_slots=10)
        rach.request_connection(ue_id=1, slot_index=3)
        events = []
        for slot in range(3, 40):
            events.extend(rach.step(slot))
        # Next occasion after slot 3 is slot 10; MSG 4 lands 7 slots on.
        assert events[0].slot_index == 17

    def test_rnti_allocation_sequential_and_unique(self):
        rach = RachProcedure()
        for ue in range(5):
            rach.request_connection(ue, slot_index=0)
        events = drive(rach, 30)
        rntis = [e.tc_rnti for e in events]
        assert len(set(rntis)) == 5
        assert rntis == sorted(rntis)

    def test_rnti_wraps_in_c_rnti_range(self):
        rach = RachProcedure(first_rnti=0xFFEF)
        assert rach.allocate_rnti() == 0xFFEF
        assert rach.allocate_rnti() == 0x0001

    def test_duplicate_request_rejected(self):
        rach = RachProcedure()
        rach.request_connection(1, 0)
        with pytest.raises(RachError):
            rach.request_connection(1, 0)

    def test_invalid_period(self):
        with pytest.raises(RachError):
            RachProcedure(occasion_period_slots=0)

    def test_is_occasion(self):
        rach = RachProcedure(occasion_period_slots=10)
        assert rach.is_occasion(0)
        assert rach.is_occasion(20)
        assert not rach.is_occasion(5)

    def test_many_ues_all_complete(self):
        rach = RachProcedure()
        for ue in range(64):
            rach.request_connection(ue, slot_index=0)
        events = drive(rach, 60)
        assert len(events) == 64
        assert rach.completed == 64


class TestContention:
    def test_collisions_back_off_and_retry(self):
        procedure = RachProcedure(seed=3)
        for ue in range(32):
            procedure.request_connection(ue, 0)
        events = drive(procedure, 400)
        assert procedure.completed == 32
        assert len(events) == 32
        # With 32 UEs drawing from 64 preambles, collisions are near
        # certain (birthday bound).
        assert procedure.collisions > 0

    def test_lone_ue_never_collides(self):
        procedure = RachProcedure(seed=4)
        procedure.request_connection(0, 0)
        drive(procedure, 30)
        assert procedure.completed == 1
        assert procedure.collisions == 0

    def test_collided_attempt_keeps_waiting_state(self):
        procedure = RachProcedure(seed=5)
        # Force a collision by flooding one occasion.
        for ue in range(64):
            procedure.request_connection(ue, 0)
        procedure.step(0)
        waiting = [a for a in procedure._attempts.values()
                   if a.state is RachState.WAITING_OCCASION]
        sent = [a for a in procedure._attempts.values()
                if a.state is RachState.MSG1_SENT]
        assert waiting, "some UEs must have collided"
        assert sent, "some UEs must have won their preamble"
        for attempt in waiting:
            assert attempt.collisions >= 1
            assert attempt.next_action_slot > 0
