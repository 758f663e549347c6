"""Extension experiment: RAN-aware congestion control (paper section 6).

"The UE can instruct NR-Scope to send channel feedback to a sender ...
NR-Scope's feedback is faster than half an RTT."  This experiment
closes that loop: one sender adapts its offered rate from NR-Scope's
spare-capacity feedback, a baseline sender runs classic AIMD on delayed
end-to-end delivery reports.  Mid-session the UE's channel collapses
(blockage) and later recovers; the RAN-aware sender should track the
capacity change faster in both directions — the PBE-CC argument the
paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.report import Table
from repro.constants import TTI_DURATION_S
from repro.core.scope import NRScope
from repro.experiments.common import FigureResult
from repro.gnb.cell_config import MOSOLAB_PROFILE
from repro.simulation import Simulation
from repro.ue.channel import FadingChannel
from repro.ue.traffic import ControlledRate, PoissonPackets, \
    TrafficBuffer

#: Control interval of both senders.
CONTROL_S = 0.05

#: End-to-end feedback delay for the baseline (half of a ~100 ms RTT on
#: each leg: reports describe the state one RTT ago).
E2E_DELAY_S = 0.1


@dataclass
class _Blockage:
    """A scripted channel collapse: -15 dB between start and stop."""

    start_s: float
    stop_s: float
    loss_db: float = 15.0
    slot_duration_s: float = TTI_DURATION_S[30]

    def __post_init__(self) -> None:
        self._elapsed = 0.0

    def step(self, slot_index: int) -> float:
        self._elapsed += self.slot_duration_s
        if self.start_s <= self._elapsed < self.stop_s:
            return -self.loss_db
        return 0.0

    @property
    def name(self) -> str:
        return "scripted-blockage"


@dataclass
class SenderTrace:
    """One sender's control trajectory."""

    name: str
    times: list[float] = field(default_factory=list)
    offered_bps: list[float] = field(default_factory=list)
    delivered_bps: list[float] = field(default_factory=list)
    backlog_bytes: list[int] = field(default_factory=list)

    def utilisation(self, capacity_series: list[float]) -> float:
        """Mean delivered rate over the session."""
        if not self.delivered_bps:
            return 0.0
        return float(np.mean(self.delivered_bps))

    @property
    def peak_backlog_bytes(self) -> int:
        """Worst queue build-up (the bufferbloat the paper warns of)."""
        return max(self.backlog_bytes) if self.backlog_bytes else 0


def _run_sender(ran_aware: bool, duration_s: float,
                seed: int) -> SenderTrace:
    """One closed-loop session with the chosen feedback source."""
    sim = Simulation.build(MOSOLAB_PROFILE, n_ues=0, seed=seed,
                           olla_target_bler=0.1)
    slot_s = MOSOLAB_PROFILE.slot_duration_s
    source = ControlledRate(slot_duration_s=slot_s,
                            initial_rate_bps=2e6)
    from repro.ue.ue import UserEquipment
    ue = UserEquipment(
        ue_id=0,
        dl_buffer=TrafficBuffer(source),
        ul_buffer=TrafficBuffer(PoissonPackets(
            packets_per_second=20, packet_bytes=200,
            slot_duration_s=slot_s, seed=seed)),
        channel=FadingChannel("pedestrian", 24.0, slot_s, seed=seed),
        mobility=_Blockage(start_s=duration_s / 3,
                           stop_s=2 * duration_s / 3,
                           slot_duration_s=slot_s))
    sim.gnb.add_ue(ue)
    scope = NRScope.attach(sim, snr_db=18.0, window_s=CONTROL_S)

    trace = SenderTrace(name="ran-aware" if ran_aware else "e2e-aimd")
    # (time, delivered rate, offered rate at that time) history; the
    # e2e sender only sees entries older than the feedback delay.
    history: list[tuple[float, float, float]] = []
    last_delivered_bits = 0
    rate = 2e6
    while sim.now_s < duration_s:
        sim.run(seconds=CONTROL_S)
        now = sim.now_s
        delivered = ue.delivered_dl_bits
        delivered_rate = (delivered - last_delivered_bits) / CONTROL_S
        last_delivered_bits = delivered
        history.append((now, delivered_rate, rate))

        if ran_aware and scope.tracked_rntis:
            rnti = scope.tracked_rntis[0]
            used = scope.per_ue_throughput(now)[rnti]
            spare_series = scope.spare.spare_rate_series(rnti, slot_s)
            recent = [v for t, v in spare_series if t >= now - CONTROL_S]
            spare = float(np.mean(recent)) if recent else 0.0
            rate = max(2e5, used + 0.7 * spare)
        else:
            # AIMD on delayed delivery reports: the sender compares the
            # delivery rate against what it was *offering at that time*
            # (one feedback delay ago).
            report_time = now - E2E_DELAY_S
            past = [(r, offered) for t, r, offered in history
                    if t <= report_time]
            if past:
                known_delivered, offered_then = past[-1]
                if known_delivered >= 0.85 * offered_then:
                    rate += 4e5            # additive increase
                else:
                    rate = max(2e5, 0.6 * rate)  # multiplicative back-off
        source.set_rate(rate)
        trace.times.append(now)
        trace.offered_bps.append(rate)
        trace.delivered_bps.append(delivered_rate)
        trace.backlog_bytes.append(ue.dl_buffer.backlog_bytes)
    return trace


def run(duration_s: float = 6.0, seed: int = 23) \
        -> tuple[SenderTrace, SenderTrace]:
    """Both senders over the identical scripted channel."""
    ran_aware = _run_sender(True, duration_s, seed)
    baseline = _run_sender(False, duration_s, seed)
    return ran_aware, baseline


def to_result(ran_aware: SenderTrace,
              baseline: SenderTrace) -> FigureResult:
    result = FigureResult(figure="ext-congestion")
    result.add_series("ran-aware-offered",
                      list(zip(ran_aware.times, ran_aware.offered_bps)))
    result.add_series("e2e-offered",
                      list(zip(baseline.times, baseline.offered_bps)))
    result.summary["ran_aware_goodput_mbps"] = \
        float(np.mean(ran_aware.delivered_bps)) / 1e6
    result.summary["e2e_goodput_mbps"] = \
        float(np.mean(baseline.delivered_bps)) / 1e6
    result.summary["ran_aware_peak_backlog_kb"] = \
        ran_aware.peak_backlog_bytes / 1e3
    result.summary["e2e_peak_backlog_kb"] = \
        baseline.peak_backlog_bytes / 1e3
    return result


def table(ran_aware: SenderTrace, baseline: SenderTrace) -> Table:
    rows = []
    for trace in (ran_aware, baseline):
        rows.append((trace.name,
                     float(np.mean(trace.delivered_bps)) / 1e6,
                     float(np.mean(trace.offered_bps)) / 1e6,
                     trace.peak_backlog_bytes / 1e3))
    return Table(
        title="EXT - RAN-aware vs end-to-end congestion control",
        columns=("sender", "goodput Mbps", "offered Mbps",
                 "peak queue kB"),
        rows=tuple(rows))
