"""Passive HARQ tracking: retransmission detection from NDI toggles.

Paper section 3.2.2: "NR-Scope maintains an array for each UE to record
the ndi from previous DCIs for each harq_id to detect re-transmissions."
This module is that array.  A DCI whose NDI *differs* from the stored
value for its HARQ process carries new data; an *equal* NDI means the
gNB is retransmitting after a NACK.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import N_HARQ_PROCESSES


class HarqTrackerError(ValueError):
    """Raised for out-of-range HARQ process ids."""


@dataclass
class UeHarqTracker:
    """Per-UE NDI arrays, one per direction."""

    n_processes: int = N_HARQ_PROCESSES
    dl_ndi: list[int | None] = field(default_factory=list)
    ul_ndi: list[int | None] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.dl_ndi:
            self.dl_ndi = [None] * self.n_processes
        if not self.ul_ndi:
            self.ul_ndi = [None] * self.n_processes

    def observe(self, harq_id: int, ndi: int, downlink: bool) -> bool:
        """Record one DCI; returns True when it is a retransmission.

        The first DCI ever seen on a process is necessarily new data.
        """
        if not 0 <= harq_id < self.n_processes:
            raise HarqTrackerError(f"HARQ id out of range: {harq_id}")
        array = self.dl_ndi if downlink else self.ul_ndi
        previous = array[harq_id]
        array[harq_id] = ndi
        return previous is not None and previous == ndi


class HarqTrackerBank:
    """Trackers for every UE NR-Scope follows."""

    def __init__(self) -> None:
        self._trackers: dict[int, UeHarqTracker] = {}

    def tracker(self, rnti: int) -> UeHarqTracker:
        """The (lazily created) tracker for one RNTI."""
        if rnti not in self._trackers:
            self._trackers[rnti] = UeHarqTracker()
        return self._trackers[rnti]

    def observe(self, rnti: int, harq_id: int, ndi: int,
                downlink: bool) -> bool:
        """Route one DCI observation; returns the retransmission verdict."""
        return self.tracker(rnti).observe(harq_id, ndi, downlink)

    def forget(self, rnti: int) -> None:
        """Drop state for a departed UE (RNTIs get reused)."""
        self._trackers.pop(rnti, None)

    def rntis(self) -> list[int]:
        """All tracked RNTIs."""
        return sorted(self._trackers)
