#!/usr/bin/env python3
"""Spare-capacity feedback to an application server (paper section 5.4.1
and 6).

Two UEs share the Mosolab cell.  NR-Scope estimates each UE's used and
fair-share spare bit rate every 250 ms and pushes it through the
feedback service — the "UE can instruct NR-Scope to send channel
feedback to a sender" use case, arriving faster than half an RTT
because it skips the RAN bottleneck.

A toy rate controller consumes the feedback: it sets its target bitrate
to current + 0.8 x spare, the kind of millisecond-scale decision the
paper motivates for cloud gaming and interactive video.

Run:  python examples/spare_capacity_monitor.py
"""

from repro import MOSOLAB_PROFILE, NRScope, Simulation
from repro.core.feedback import FeedbackMessage, FeedbackService

REPORT_INTERVAL_S = 0.25
SESSION_S = 4.0


class AdaptiveSender:
    """A server-side rate controller driven by NR-Scope feedback."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.target_bps = 1e6
        self.history: list[tuple[float, float]] = []

    def on_feedback(self, message: FeedbackMessage) -> None:
        headroom = 0.8 * message.spare_capacity_bps
        self.target_bps = message.throughput_bps + headroom
        self.history.append((message.arrives_at_s, self.target_bps))


def main() -> None:
    sim = Simulation.build(MOSOLAB_PROFILE, n_ues=2, seed=7,
                           traffic="video", channel="pedestrian",
                           rate_bps=5e6)
    scope = NRScope.attach(sim, snr_db=18.0)
    service = FeedbackService(uplink_latency_s=0.008)
    senders: dict[int, AdaptiveSender] = {}

    # Warm up until the RACH sniffer has found both UEs.
    sim.run(seconds=0.2)
    for rnti in scope.tracked_rntis:
        sender = AdaptiveSender(f"server-for-0x{rnti:04x}")
        senders[rnti] = sender
        service.subscribe(rnti, sender.on_feedback)

    slot_s = MOSOLAB_PROFILE.slot_duration_s
    print(f"{'t s':>6}  {'UE':>8}  {'used Mbps':>10}  {'spare Mbps':>10}  "
          f"{'sender target Mbps':>18}")
    next_report = REPORT_INTERVAL_S
    while sim.now_s < SESSION_S:
        sim.run(seconds=REPORT_INTERVAL_S)
        now = sim.now_s
        rates = scope.per_ue_throughput(now)
        for rnti in scope.tracked_rntis:
            used = rates[rnti]
            spare_series = scope.spare.spare_rate_series(rnti, slot_s)
            recent = [v for t, v in spare_series
                      if t >= now - REPORT_INTERVAL_S]
            spare = sum(recent) / len(recent) if recent else 0.0
            mcs = scope.telemetry.mcs_distribution(rnti)
            service.publish(
                now, rnti, throughput_bps=used,
                spare_capacity_bps=spare,
                mcs_index=mcs[-1] if mcs else 0,
                retransmission_ratio=scope.telemetry
                .retransmission_ratio(rnti))
            sender = senders.get(rnti)
            target = sender.target_bps if sender else 0.0
            print(f"{now:6.2f}  0x{rnti:04x}  {used / 1e6:10.2f}  "
                  f"{spare / 1e6:10.2f}  {target / 1e6:18.2f}")
        next_report += REPORT_INTERVAL_S

    print(f"\nfeedback messages delivered: {service.messages_sent} "
          f"(one-way latency {service.uplink_latency_s * 1e3:.0f} ms, "
          f"no RAN involvement)")


if __name__ == "__main__":
    main()
