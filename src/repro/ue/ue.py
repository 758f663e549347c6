"""The simulated user equipment and its ground-truth packet capture.

Each UE owns its traffic buffers, fading channel and mobility model;
while it is admitted, its gNB's :class:`~repro.ue.table.UeTable` steps
the channel and mobility together with every other UE's, and the gNB
pulls the buffers' arrivals in the slots they are due.  The
``PacketCapture`` plays the role of tcpdump on the paper's phones
(section 5.2.2): it records every MAC-delivered payload with a timestamp,
and windowed bit rates computed from it are the ground truth NR-Scope's
estimates are compared against.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass, field

from repro.ue.channel import FadingChannel
from repro.ue.mobility import MobilityModel, StaticUe
from repro.ue.traffic import TrafficBuffer


class UeError(ValueError):
    """Raised for inconsistent UE state transitions."""


@dataclass(frozen=True)
class PacketRecord:
    """One delivered payload: when, how big, which direction."""

    time_s: float
    size_bytes: int
    downlink: bool
    n_packets: int = 1


class PacketCapture:
    """tcpdump-equivalent trace of payloads delivered to/from one UE.

    Kept as columns (time, size, direction, packets), one append each
    per delivery; :attr:`records` rebuilds the :class:`PacketRecord`
    objects on read.
    """

    #: Largest size or packet count a column holds (unsigned 32-bit).
    MAX_COUNT = (1 << 32) - 1

    def __init__(self) -> None:
        self._times = array("d")
        self._sizes = array("I")
        self._downlink = array("B")
        self._packets = array("I")

    def record(self, time_s: float, size_bytes: int, downlink: bool,
               n_packets: int = 1) -> None:
        """Append one delivery; times must be non-decreasing."""
        times = self._times
        if times and time_s < times[-1]:
            raise UeError("capture timestamps must be non-decreasing")
        if size_bytes < 0:
            raise UeError(f"negative payload size: {size_bytes}")
        if size_bytes > self.MAX_COUNT \
                or not 0 <= n_packets <= self.MAX_COUNT:
            raise UeError(f"delivery outside the capture's columns: "
                          f"{size_bytes} bytes, {n_packets} packets")
        times.append(time_s)
        self._sizes.append(size_bytes)
        self._downlink.append(downlink)
        self._packets.append(n_packets)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def records(self) -> list[PacketRecord]:
        """All recorded deliveries, oldest first."""
        return [PacketRecord(time_s, size, bool(downlink), n_packets)
                for time_s, size, downlink, n_packets in zip(
                    self._times, self._sizes, self._downlink,
                    self._packets)]

    def bytes_between(self, start_s: float, end_s: float,
                      downlink: bool = True) -> int:
        """Payload bytes delivered in ``[start_s, end_s)``."""
        lo = bisect.bisect_left(self._times, start_s)
        hi = bisect.bisect_left(self._times, end_s)
        return sum(size for size, flag in zip(self._sizes[lo:hi],
                                              self._downlink[lo:hi])
                   if flag == downlink)

    def bitrate_series(self, window_s: float, end_time_s: float,
                       downlink: bool = True) -> list[tuple[float, float]]:
        """(window end time, bits/s) samples over the whole capture."""
        if window_s <= 0:
            raise UeError(f"window must be positive: {window_s}")
        series = []
        t = window_s
        while t <= end_time_s + 1e-9:
            bits = 8.0 * self.bytes_between(t - window_s, t, downlink)
            series.append((t, bits / window_s))
            t += window_s
        return series


@dataclass
class UserEquipment:
    """One simulated device attached (or attaching) to the cell."""

    ue_id: int
    dl_buffer: TrafficBuffer
    ul_buffer: TrafficBuffer
    channel: FadingChannel
    mobility: MobilityModel = field(default_factory=StaticUe)
    arrival_time_s: float = 0.0
    departure_time_s: float | None = None

    def __post_init__(self) -> None:
        self.rnti: int | None = None
        self.capture = PacketCapture()
        self.delivered_dl_bits = 0
        self.delivered_ul_bits = 0

    @property
    def is_connected(self) -> bool:
        """True once the RACH process has granted a C-RNTI."""
        return self.rnti is not None

    def connect(self, rnti: int) -> None:
        """Complete the RACH process with an assigned C-RNTI."""
        if self.rnti is not None:
            raise UeError(f"UE {self.ue_id} already connected")
        self.rnti = rnti

    def disconnect(self) -> None:
        """Release the RRC connection (UE leaves the RAN)."""
        self.rnti = None

    def advance_slot(self, slot_index: int) -> None:
        """One slot of traffic arrivals in both buffers.  An admitted
        UE's gNB calls each buffer's model only in its due slots
        instead, with the same result."""
        self.dl_buffer.arrive(slot_index)
        self.ul_buffer.arrive(slot_index)

    def deliver_downlink(self, time_s: float, payload_bytes: int,
                         n_packets: int) -> None:
        """Record a successfully decoded downlink transport block."""
        self.delivered_dl_bits += payload_bytes * 8
        self.capture.record(time_s, payload_bytes, downlink=True,
                            n_packets=n_packets)

    def deliver_uplink(self, time_s: float, payload_bytes: int,
                       n_packets: int) -> None:
        """Record an uplink transport block the gNB accepted."""
        self.delivered_ul_bits += payload_bytes * 8
        self.capture.record(time_s, payload_bytes, downlink=False,
                            n_packets=n_packets)

    def active_time_s(self, now_s: float) -> float:
        """Seconds this UE has been in the RAN (paper Fig 10)."""
        end = self.departure_time_s if self.departure_time_s is not None \
            else now_s
        return max(0.0, end - self.arrival_time_s)
