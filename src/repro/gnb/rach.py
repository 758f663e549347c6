"""The random access procedure (TS 38.321 section 5.1, paper section 3.1.2).

Four messages attach a UE to the cell:

1. MSG 1 - preamble on the PRACH (uplink; invisible to a DL-only sniffer)
2. MSG 2 - random access response: assigns the TC-RNTI
3. MSG 3 - RRC Setup Request on the PUSCH
4. MSG 4 - RRC Setup on the PDSCH, scheduled by a PDCCH DCI whose CRC is
   scrambled with the TC-RNTI

MSG 4 is the one NR-Scope must catch: its DCI reveals the RNTI (promoted
to C-RNTI immediately after) and its payload carries the UE-dedicated
configuration.  The FSM below produces MSG 4 events with realistic slot
timing; MSG 1-3 are tracked as state transitions so the procedure's
latency and RACH-occasion structure are faithful, without modelling the
uplink waveform the paper's tool never receives.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.constants import FIRST_C_RNTI, LAST_C_RNTI

#: Preambles available per occasion (38.331 totalNumberOfRA-Preambles).
N_PREAMBLES = 64


class RachError(ValueError):
    """Raised for invalid RACH configuration or state transitions."""


class RachState(Enum):
    """Progress of one UE through the four-message exchange."""

    WAITING_OCCASION = "waiting-msg1-occasion"
    MSG1_SENT = "msg1-sent"
    MSG2_SENT = "msg2-sent"
    MSG3_SENT = "msg3-sent"
    CONNECTED = "connected"


@dataclass
class RachAttempt:
    """One UE's in-flight random access attempt."""

    ue_id: int
    requested_slot: int
    state: RachState = RachState.WAITING_OCCASION
    tc_rnti: int | None = None
    next_action_slot: int = 0
    preamble: int | None = None
    collisions: int = 0


@dataclass(frozen=True)
class Msg4Event:
    """A MSG 4 transmission the gNB performs this slot."""

    ue_id: int
    tc_rnti: int
    slot_index: int


@dataclass
class RachProcedure:
    """gNB-side random access machine.

    ``occasion_period_slots`` spaces the PRACH occasions (from the SIB1
    ``prach-ConfigIndex``); the message turnaround delays default to the
    few-slot latencies real stacks exhibit.
    """

    occasion_period_slots: int = 10
    msg2_delay_slots: int = 2
    msg3_delay_slots: int = 3
    msg4_delay_slots: int = 2
    first_rnti: int = 0x4601
    max_backoff_slots: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.occasion_period_slots < 1:
            raise RachError("occasion period must be >= 1 slot")
        self._attempts: dict[int, RachAttempt] = {}
        self._next_rnti = self.first_rnti
        self._rng = np.random.default_rng(self.seed)
        self.completed: int = 0
        self.collisions: int = 0

    def allocate_rnti(self) -> int:
        """Next unused TC-RNTI (wraps within the C-RNTI range)."""
        rnti = self._next_rnti
        self._next_rnti += 1
        if self._next_rnti > LAST_C_RNTI:
            self._next_rnti = FIRST_C_RNTI
        return rnti

    def request_connection(self, ue_id: int, slot_index: int) -> None:
        """A UE wants in; it will transmit MSG 1 at the next occasion."""
        if ue_id in self._attempts:
            raise RachError(f"UE {ue_id} already has a RACH in flight")
        self._attempts[ue_id] = RachAttempt(ue_id=ue_id,
                                            requested_slot=slot_index)

    def cancel(self, ue_id: int) -> None:
        """Drop ``ue_id``'s attempt, if any (the UE left mid-RACH)."""
        self._attempts.pop(ue_id, None)

    @property
    def in_flight(self) -> int:
        """Attempts not yet completed."""
        return len(self._attempts)

    def is_occasion(self, slot_index: int) -> bool:
        """True when this slot hosts a PRACH occasion."""
        return slot_index % self.occasion_period_slots == 0

    def step(self, slot_index: int) -> list[Msg4Event]:
        """Advance every attempt one slot; return MSG 4 events to send."""
        events: list[Msg4Event] = []
        finished: list[int] = []
        if self.is_occasion(slot_index):
            self._resolve_occasion(slot_index)
        for attempt in self._attempts.values():
            if attempt.state is RachState.WAITING_OCCASION:
                # Preamble transmission is handled per occasion in
                # _resolve_occasion (contention happens there).
                pass
            elif attempt.state is RachState.MSG1_SENT:
                if slot_index >= attempt.next_action_slot:
                    attempt.tc_rnti = self.allocate_rnti()
                    attempt.state = RachState.MSG2_SENT
                    attempt.next_action_slot = slot_index \
                        + self.msg3_delay_slots
            elif attempt.state is RachState.MSG2_SENT:
                if slot_index >= attempt.next_action_slot:
                    attempt.state = RachState.MSG3_SENT
                    attempt.next_action_slot = slot_index \
                        + self.msg4_delay_slots
            elif attempt.state is RachState.MSG3_SENT:
                if slot_index >= attempt.next_action_slot:
                    assert attempt.tc_rnti is not None
                    events.append(Msg4Event(ue_id=attempt.ue_id,
                                            tc_rnti=attempt.tc_rnti,
                                            slot_index=slot_index))
                    attempt.state = RachState.CONNECTED
                    finished.append(attempt.ue_id)
        for ue_id in finished:
            del self._attempts[ue_id]
            self.completed += 1
        return events

    def _resolve_occasion(self, slot_index: int) -> None:
        """One PRACH occasion: every waiting UE draws a preamble.

        Two UEs drawing the same preamble collide (their ZC sequences
        superpose indistinguishably); both back off a random number of
        slots and retry at a later occasion — real contention-based
        random access (38.321 section 5.1.5).
        """
        waiting = [a for a in self._attempts.values()
                   if a.state is RachState.WAITING_OCCASION
                   and a.next_action_slot <= slot_index]
        if not waiting:
            return
        draws: dict[int, list[RachAttempt]] = {}
        for attempt in waiting:
            preamble = int(self._rng.integers(0, N_PREAMBLES))
            attempt.preamble = preamble
            draws.setdefault(preamble, []).append(attempt)
        for preamble, contenders in draws.items():
            if len(contenders) == 1:
                attempt = contenders[0]
                attempt.state = RachState.MSG1_SENT
                attempt.next_action_slot = slot_index \
                    + self.msg2_delay_slots
            else:
                self.collisions += len(contenders)
                for attempt in contenders:
                    attempt.collisions += 1
                    backoff = int(self._rng.integers(
                        1, self.max_backoff_slots + 1))
                    attempt.next_action_slot = slot_index + backoff
