"""Multi-cell telemetry fusion (paper section 7, "Post-Processing
Library": multiple USRPs decoding multiple cells, with the streams fused
to expose carrier aggregation and handover events).

Three pieces:

* :class:`MultiCellController` - drives several independent cell
  simulations in lockstep wall-clock time, one NR-Scope per cell, and
  can move a device between cells (the RAN-side half of a handover).
* :func:`detect_handovers` - post-processes the per-cell telemetry:
  an RNTI going quiet in one cell followed within a window by a fresh
  MSG 4 in another is a handover candidate.
* :func:`correlate_streams` / :class:`FusedStream` - activity
  correlation across cells to pair carrier-aggregated legs, and the
  merged per-device throughput series the paper's aggregate data
  stream describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.scope import NRScope
from repro.obs.context import AnyObsContext, OBS_NOOP
from repro.simulation import Simulation


class MultiCellError(ValueError):
    """Raised for inconsistent multi-cell setups."""


@dataclass
class CellStream:
    """One cell's simulation plus the scope listening to it."""

    name: str
    sim: Simulation
    scope: NRScope


@dataclass(frozen=True)
class HandoverEvent:
    """One detected cell change of a device."""

    from_cell: str
    to_cell: str
    from_rnti: int
    to_rnti: int
    left_at_s: float
    joined_at_s: float

    @property
    def gap_s(self) -> float:
        """Interruption between the last old-cell DCI and the new MSG 4."""
        return self.joined_at_s - self.left_at_s


class MultiCellController:
    """Runs several cells side by side under one clock.

    Each cell's scope is an independent
    :class:`~repro.core.runtime.SlotRuntime`, so N cells means N
    per-cell runtimes driven through the same staged machinery.
    """

    def __init__(self, obs: AnyObsContext | None = None) -> None:
        #: Shared observability bus: every scope built by ``add_cell``
        #: binds its cell name as a constant event label, so the fleet
        #: emits one globally sequenced stream.
        self.obs = obs if obs is not None else OBS_NOOP
        self._streams: dict[str, CellStream] = {}
        self._next_ue_id = 10_000
        self.now_s = 0.0

    def add_cell(self, name: str, sim: Simulation,
                 scope: NRScope | None = None,
                 **scope_kwargs) -> CellStream:
        """Register one cell + sniffer pair.

        With no ``scope``, one is attached here on the controller's
        obs bus (``scope_kwargs`` pass through to
        :meth:`NRScope.attach`); passing a pre-built scope keeps
        working for callers that need custom wiring.
        """
        if name in self._streams:
            raise MultiCellError(f"duplicate cell name: {name!r}")
        if scope is None:
            scope_kwargs.setdefault("obs", self.obs)
            scope_kwargs.setdefault("cell", name)
            scope = NRScope.attach(sim, **scope_kwargs)
        stream = CellStream(name=name, sim=sim, scope=scope)
        self._streams[name] = stream
        return stream

    @property
    def cells(self) -> list[str]:
        """Registered cell names."""
        return sorted(self._streams)

    def stream(self, name: str) -> CellStream:
        """Look up one cell."""
        if name not in self._streams:
            raise MultiCellError(f"unknown cell: {name!r}")
        return self._streams[name]

    def run(self, seconds: float) -> None:
        """Advance every cell by the same wall-clock duration.

        Cells may run different numerologies (15 vs 30 kHz SCS), so the
        loop interleaves their slot steps by timestamp rather than
        assuming a shared TTI.
        """
        if seconds < 0:
            raise MultiCellError(f"negative duration: {seconds}")
        target = self.now_s + seconds
        streams = list(self._streams.values())
        if not streams:
            self.now_s = target
            return
        while True:
            upcoming = [(s.sim.now_s, i) for i, s in enumerate(streams)
                        if s.sim.now_s < target - 1e-12]
            if not upcoming:
                break
            _, index = min(upcoming)
            streams[index].sim.step()
        # The interleaved loop steps the sims directly, so barrier on
        # every cell's runtime before handing telemetry back.
        for stream in streams:
            stream.sim.flush_observers()
        self.now_s = target

    def runtime_stats(self) -> dict[str, "object"]:
        """Per-cell :class:`~repro.core.runtime.RuntimeStats` snapshot."""
        return {name: stream.scope.runtime_stats
                for name, stream in sorted(self._streams.items())}

    def fleet_state(self) -> dict:
        """Controller-level checkpoint payload (clock + UE-id cursor).

        Per-cell state travels separately (see
        :class:`~repro.core.fleet.FleetSupervisor`); this covers only
        what the controller itself owns.
        """
        return {"now_s": self.now_s, "next_ue_id": self._next_ue_id}

    def restore_fleet_state(self, state: dict) -> None:
        """Adopt a :meth:`fleet_state` snapshot."""
        self.now_s = state["now_s"]
        self._next_ue_id = state["next_ue_id"]

    def attach_device(self, cell: str, traffic: str = "bulk",
                      channel: str = "pedestrian",
                      mean_snr_db: float = 20.0,
                      rate_bps: float = 4e6) -> int:
        """Admit a new device to one cell; returns its UE id."""
        stream = self.stream(cell)
        ue_id = self._next_ue_id
        self._next_ue_id += 1
        ue = stream.sim.make_ue(ue_id, traffic=traffic, channel=channel,
                                mean_snr_db=mean_snr_db,
                                rate_bps=rate_bps,
                                arrival_time_s=stream.sim.now_s)
        stream.sim.gnb.add_ue(ue, slot_index=stream.sim.clock.index)
        return ue_id

    def attach_ca_device(self, cells: list[str], traffic: str = "onoff",
                         channel: str = "pedestrian",
                         mean_snr_db: float = 20.0,
                         rate_bps: float = 4e6) -> dict[str, int]:
        """Attach one carrier-aggregated device: one leg per cell.

        The legs share a traffic seed so their on/off pattern is the
        same stream split across carriers — the signature
        ``correlate_streams`` detects.  Returns {cell: ue_id}.
        """
        if len(cells) < 2:
            raise MultiCellError("carrier aggregation needs >= 2 cells")
        shared_seed = self._next_ue_id * 7919
        legs: dict[str, int] = {}
        for cell in cells:
            stream = self.stream(cell)
            ue_id = self._next_ue_id
            self._next_ue_id += 1
            from repro.simulation import make_traffic
            from repro.ue.channel import FadingChannel
            from repro.ue.mobility import StaticUe
            from repro.ue.traffic import TrafficBuffer
            from repro.ue.ue import UserEquipment
            slot_s = stream.sim.profile.slot_duration_s
            ue = UserEquipment(
                ue_id=ue_id,
                dl_buffer=TrafficBuffer(make_traffic(
                    traffic, slot_s, shared_seed, rate_bps)),
                ul_buffer=TrafficBuffer(make_traffic(
                    "poisson", slot_s, shared_seed + 1,
                    max(rate_bps * 0.1, 1.0))),
                channel=FadingChannel(channel, mean_snr_db, slot_s,
                                      seed=ue_id),
                mobility=StaticUe(),
                arrival_time_s=stream.sim.now_s)
            stream.sim.gnb.add_ue(ue, slot_index=stream.sim.clock.index)
            legs[cell] = ue_id
        return legs

    def handover(self, ue_id: int, from_cell: str, to_cell: str,
                 **attach_kwargs) -> int:
        """Move a device: release in one cell, RACH into another.

        Returns the device's new UE id in the target cell (the RAN
        assigns a fresh RNTI there; tying the two identities together
        is exactly the fusion problem ``detect_handovers`` solves).
        """
        source = self.stream(from_cell)
        source.sim.gnb.remove_ue(ue_id, time_s=source.sim.now_s)
        return self.attach_device(to_cell, **attach_kwargs)


def detect_handovers(streams: list[CellStream],
                     max_gap_s: float = 1.0,
                     min_active_s: float = 0.05) -> list[HandoverEvent]:
    """Fuse per-cell telemetry into handover events.

    For every RNTI whose DCI stream *ends* in one cell (quiet through
    the end of its session), look for an MSG 4 in another cell within
    ``max_gap_s`` after the last DCI.  Candidate pairs are matched
    greedily by smallest gap.
    """
    if max_gap_s <= 0:
        raise MultiCellError("gap window must be positive")
    departures = []   # (time, cell, rnti)
    arrivals = []     # (time, cell, rnti)
    for stream in streams:
        end_s = stream.sim.now_s
        store = stream.scope.telemetry.store
        for rnti in stream.scope.telemetry.rntis():
            extents = store.time_extents(rnti)
            if extents is None:
                continue
            first, last = extents
            if last - first < min_active_s:
                continue
            if end_s - last > max_gap_s / 2:
                departures.append((last, stream.name, rnti))
        rach = stream.scope.rach
        if rach is None:
            continue
        for rnti, tracked in rach.tracked.items():
            arrivals.append((tracked.first_seen_s, stream.name, rnti))

    events: list[HandoverEvent] = []
    used_arrivals: set[tuple[str, int]] = set()
    for left_at, from_cell, from_rnti in sorted(departures):
        best: tuple[float, float, str, int] | None = None
        for joined_at, to_cell, to_rnti in arrivals:
            if to_cell == from_cell:
                continue
            if (to_cell, to_rnti) in used_arrivals:
                continue
            gap = joined_at - left_at
            if not 0.0 <= gap <= max_gap_s:
                continue
            if best is None or gap < best[0]:
                best = (gap, joined_at, to_cell, to_rnti)
        if best is not None:
            _, joined_at, to_cell, to_rnti = best
            used_arrivals.add((to_cell, to_rnti))
            events.append(HandoverEvent(
                from_cell=from_cell, to_cell=to_cell,
                from_rnti=from_rnti, to_rnti=to_rnti,
                left_at_s=left_at, joined_at_s=joined_at))
    return events


def correlate_streams(a: CellStream, b: CellStream,
                      bin_s: float = 0.1) -> list[tuple[int, int, float]]:
    """Cross-cell activity correlation: candidate CA pairings.

    Returns (rnti in a, rnti in b, correlation) sorted best first.
    Carrier-aggregated legs of one device carry correlated traffic;
    unrelated UEs do not.

    Each cell's activity matrix is built *once* (one scatter-add pass
    over its columnar store) and every pairing correlates rows of it —
    the seed rebuilt cell B's vector from scratch inside the cell-A
    loop, an O(N²) full-telemetry rescan.
    """
    end_s = max(a.sim.now_s, b.sim.now_s)
    rntis_a = a.scope.telemetry.rntis()
    rntis_b = b.scope.telemetry.rntis()
    if not rntis_a or not rntis_b:
        return []
    matrix_a = a.scope.telemetry.store.activity_matrix(
        rntis_a, bin_s, end_s)
    matrix_b = b.scope.telemetry.store.activity_matrix(
        rntis_b, bin_s, end_s)
    keep_a = [i for i in range(len(rntis_a))
              if float(matrix_a[i].std()) != 0.0]
    keep_b = [j for j in range(len(rntis_b))
              if float(matrix_b[j].std()) != 0.0]
    if not keep_a or not keep_b:
        return []
    stacked = np.vstack([matrix_a[keep_a], matrix_b[keep_b]])
    corr = np.corrcoef(stacked)
    pairs = [(rntis_a[i], rntis_b[j],
              float(corr[row, len(keep_a) + col]))
             for row, i in enumerate(keep_a)
             for col, j in enumerate(keep_b)]
    return sorted(pairs, key=lambda p: -p[2])


@dataclass
class FusedStream:
    """The aggregate data stream of one device across cells."""

    device: str
    legs: list[tuple[CellStream, int]] = field(default_factory=list)

    def add_leg(self, stream: CellStream, rnti: int) -> None:
        """Attach one (cell, RNTI) leg of the device."""
        self.legs.append((stream, rnti))

    def total_bits(self, start_s: float = 0.0,
                   end_s: float | None = None) -> int:
        """Aggregate new-data bits over every leg."""
        total = 0
        for stream, rnti in self.legs:
            stop = end_s if end_s is not None else stream.sim.now_s
            total += stream.scope.telemetry.bits_between(rnti, start_s,
                                                         stop)
        return total

    def throughput_series(self, window_s: float) \
            -> list[tuple[float, float]]:
        """Summed per-window bit rate across legs (the fused stream).

        Every leg's series shares one end time and window width, so the
        windows line up by *integer index* — the legs sum positionally.
        (The seed merged on ``round(t, 9)`` float keys, which splits a
        window in two once accumulated edges drift past the rounding.)
        """
        if not self.legs:
            raise MultiCellError(f"device {self.device!r} has no legs")
        end_s = max(stream.sim.now_s for stream, _ in self.legs)
        times: list[float] = []
        totals: list[float] = []
        for stream, rnti in self.legs:
            series = stream.scope.telemetry.bitrate_series(
                rnti, window_s, end_s)
            if not times:
                times = [t for t, _ in series]
                totals = [0.0] * len(series)
            for index, (_, rate) in enumerate(series):
                totals[index] += rate
        return list(zip(times, totals))
