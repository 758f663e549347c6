"""Downlink/uplink traffic models driving the simulated UEs.

Each model answers one question per slot: how many new bytes arrived for
this UE at the gNB (downlink) or at the UE (uplink)?  The gNB's scheduler
drains these buffers, which is exactly the offered load whose delivered
bit rate NR-Scope estimates.  The mix mirrors the paper's workloads:
video watching, file downloads (section 5.2.2) and the bursty
come-and-go usage of commercial cells (section 5.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import TTI_DURATION_S


#: Values drawn per ``Generator`` call for the per-slot random streams.
#: A block of ``n`` draws equals ``n`` scalar draws and leaves the
#: generator in the same state, so the size moves speed only.
BLOCK_DRAWS = 64

#: Most slots one :meth:`TrafficModel.quiet_slots` call looks ahead, so
#: that a model whose rate is zero still answers.
MAX_QUIET_SLOTS = 1024


class TrafficError(ValueError):
    """Raised for non-physical traffic parameters."""


class TrafficModel:
    """Interface: bytes arriving during one slot.

    A caller may skip the slots :meth:`quiet_slots` names, then call
    :meth:`skip_quiet` for them before the next :meth:`bytes_in_slot`.
    The model's later arrivals are the same as if it had been called
    for every slot.
    """

    def bytes_in_slot(self, slot_index: int) -> int:
        """New payload bytes generated during ``slot_index``."""
        raise NotImplementedError

    def quiet_slots(self, slot_index: int) -> int:
        """How many slots from ``slot_index`` on bring no bytes for
        certain (0: call every slot).  What later calls return does not
        change."""
        return 0

    def skip_quiet(self, slot_index: int, n_slots: int) -> None:
        """Account for ``n_slots`` quiet slots from ``slot_index`` on,
        as ``bytes_in_slot`` would have."""
        for offset in range(n_slots):
            self.bytes_in_slot(slot_index + offset)


@dataclass
class ConstantBitRate(TrafficModel):
    """Smooth CBR traffic (e.g. a voice or sensor stream)."""

    rate_bps: float
    slot_duration_s: float

    def __post_init__(self) -> None:
        if self.rate_bps < 0:
            raise TrafficError(f"negative rate: {self.rate_bps}")
        self._carry = 0.0

    def bytes_in_slot(self, slot_index: int) -> int:
        self._carry += self.rate_bps * self.slot_duration_s / 8.0
        whole = int(self._carry)
        self._carry -= whole
        return whole


@dataclass
class PoissonPackets(TrafficModel):
    """Poisson packet arrivals with a fixed packet size (web-like)."""

    packets_per_second: float
    packet_bytes: int
    slot_duration_s: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.packets_per_second < 0 or self.packet_bytes <= 0:
            raise TrafficError("invalid Poisson traffic parameters")
        self._rng = np.random.default_rng(self.seed)
        self._counts: list[int] = []    # unread block, next draw last

    def _draw_block(self) -> list[int]:
        mean = self.packets_per_second * self.slot_duration_s
        return self._rng.poisson(mean, size=BLOCK_DRAWS)[::-1].tolist()

    def bytes_in_slot(self, slot_index: int) -> int:
        if not self._counts:
            self._counts = self._draw_block()
        return self._counts.pop() * self.packet_bytes

    def quiet_slots(self, slot_index: int) -> int:
        # The leading zero counts.  When they run to the end of the
        # unread block, the next block is drawn now: it holds the values
        # the generator would give later, since nothing else draws from
        # it.
        quiet = 0
        block = self._counts
        while quiet < MAX_QUIET_SLOTS:
            for count in reversed(block):
                if count:
                    return quiet
                quiet += 1
            block = self._draw_block()
            self._counts[:0] = block
        return quiet

    def skip_quiet(self, slot_index: int, n_slots: int) -> None:
        del self._counts[len(self._counts) - n_slots:]


@dataclass
class VideoStream(TrafficModel):
    """Frame-periodic video: bursts every 1/fps with size jitter.

    Models the "watching videos" workload of section 5.2.2: large
    I-frame-ish bursts arriving at the frame rate, so throughput is
    bursty at millisecond scale but steady per second.
    """

    rate_bps: float
    slot_duration_s: float
    fps: float = 30.0
    size_jitter: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate_bps <= 0 or self.fps <= 0:
            raise TrafficError("invalid video traffic parameters")
        self._rng = np.random.default_rng(self.seed)
        self._slots_per_frame = max(
            1, int(round(1.0 / (self.fps * self.slot_duration_s))))
        self._frame_bytes = self.rate_bps / self.fps / 8.0
        self._jitter: list[float] = []  # unread block, next draw last

    def bytes_in_slot(self, slot_index: int) -> int:
        if slot_index % self._slots_per_frame:
            return 0
        if not self._jitter:
            self._jitter = self._rng.normal(size=BLOCK_DRAWS)[::-1].tolist()
        jitter = 1.0 + self.size_jitter * self._jitter.pop()
        return max(0, int(self._frame_bytes * jitter))

    def quiet_slots(self, slot_index: int) -> int:
        return -slot_index % self._slots_per_frame

    def skip_quiet(self, slot_index: int, n_slots: int) -> None:
        pass                # slots between frames change nothing


@dataclass
class BulkDownload(TrafficModel):
    """A file download arriving in large TCP-like bursts.

    Data lands in ``chunk_bytes`` units (a congestion window's worth),
    so the gNB-side queue is deep while a chunk drains — the regime
    where transport blocks are sized to the radio share, not to the
    arrival trickle. Average offered rate is ``rate_cap_bps``.
    """

    rate_cap_bps: float = 1e9
    slot_duration_s: float = TTI_DURATION_S[30]
    chunk_bytes: int = 131072

    def __post_init__(self) -> None:
        if self.rate_cap_bps < 0 or self.chunk_bytes <= 0:
            raise TrafficError("invalid bulk download parameters")
        self._carry = float(self.chunk_bytes)  # first chunk immediate

    def bytes_in_slot(self, slot_index: int) -> int:
        self._carry += self.rate_cap_bps * self.slot_duration_s / 8.0
        if self._carry >= self.chunk_bytes:
            chunks = int(self._carry // self.chunk_bytes)
            self._carry -= chunks * self.chunk_bytes
            return chunks * self.chunk_bytes
        return 0

    def quiet_slots(self, slot_index: int) -> int:
        # Replay the per-slot additions on a copy of the carry.
        step = self.rate_cap_bps * self.slot_duration_s / 8.0
        carry = self._carry
        quiet = 0
        while quiet < MAX_QUIET_SLOTS:
            carry += step
            if carry >= self.chunk_bytes:
                break
            quiet += 1
        return quiet

    def skip_quiet(self, slot_index: int, n_slots: int) -> None:
        step = self.rate_cap_bps * self.slot_duration_s / 8.0
        for _ in range(n_slots):
            self._carry += step


@dataclass
class ControlledRate(TrafficModel):
    """A sender-controlled stream: the rate is set from outside.

    This is the closed-loop case of the paper's section 6 — an
    application server adjusting its offered load from NR-Scope
    feedback.  ``set_rate`` takes effect on the next slot.
    """

    slot_duration_s: float
    initial_rate_bps: float = 1e6

    def __post_init__(self) -> None:
        if self.initial_rate_bps < 0:
            raise TrafficError(f"negative rate: {self.initial_rate_bps}")
        self._rate_bps = self.initial_rate_bps
        self._carry = 0.0

    @property
    def rate_bps(self) -> float:
        """The currently offered rate."""
        return self._rate_bps

    def set_rate(self, rate_bps: float) -> None:
        """Update the offered rate (the sender's control action)."""
        if rate_bps < 0:
            raise TrafficError(f"negative rate: {rate_bps}")
        self._rate_bps = rate_bps

    def bytes_in_slot(self, slot_index: int) -> int:
        self._carry += self._rate_bps * self.slot_duration_s / 8.0
        whole = int(self._carry)
        self._carry -= whole
        return whole


@dataclass
class OnOffTraffic(TrafficModel):
    """Exponential on/off bursts around an inner model (chatty apps)."""

    inner: TrafficModel
    slot_duration_s: float
    mean_on_s: float = 2.0
    mean_off_s: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mean_on_s <= 0 or self.mean_off_s <= 0:
            raise TrafficError("on/off periods must be positive")
        self._rng = np.random.default_rng(self.seed)
        self._on = True
        self._remaining_s = float(self._rng.exponential(self.mean_on_s))

    def bytes_in_slot(self, slot_index: int) -> int:
        self._remaining_s -= self.slot_duration_s
        if self._remaining_s <= 0:
            self._on = not self._on
            mean = self.mean_on_s if self._on else self.mean_off_s
            self._remaining_s = float(self._rng.exponential(mean))
        if not self._on:
            return 0
        return self.inner.bytes_in_slot(slot_index)


@dataclass
class TrafficBuffer:
    """The gNB-side (or UE-side) queue a traffic model feeds.

    Tracks arrival timestamps at packet granularity so the packet
    aggregation analysis (paper Appendix D) can count packets per TTI.
    """

    model: TrafficModel
    mtu_bytes: int = 1400

    def __post_init__(self) -> None:
        self._backlog_bytes = 0
        self._packets: list[int] = []  # per-packet byte counts, FIFO

    @property
    def backlog_bytes(self) -> int:
        """Bytes waiting to be scheduled."""
        return self._backlog_bytes

    @property
    def backlog_packets(self) -> int:
        """Whole packets waiting (for aggregation accounting)."""
        return len(self._packets)

    def arrive(self, slot_index: int) -> int:
        """Pull one slot of arrivals from the model into the queue."""
        new_bytes = self.model.bytes_in_slot(slot_index)
        if not new_bytes:
            return 0        # most slots bring nothing
        remaining = new_bytes
        while remaining > 0:
            size = min(self.mtu_bytes, remaining)
            self._packets.append(size)
            remaining -= size
        self._backlog_bytes += new_bytes
        return new_bytes

    def drain(self, max_bytes: int) -> tuple[int, int]:
        """Serve up to ``max_bytes``; returns (bytes, whole packets) sent.

        Packets are consumed FIFO; a partially sent packet counts toward
        the packet tally only when it completes (RLC reassembly view).
        """
        if max_bytes < 0:
            raise TrafficError(f"negative drain: {max_bytes}")
        served = min(max_bytes, self._backlog_bytes)
        self._backlog_bytes -= served
        packets_done = 0
        budget = served
        while self._packets and budget >= self._packets[0]:
            budget -= self._packets.pop(0)
            packets_done += 1
        if self._packets and budget > 0:
            self._packets[0] -= budget
        return served, packets_done
