#!/usr/bin/env python3
"""Quickstart: attach NR-Scope to a simulated 5G SA cell and read
per-UE telemetry.

Builds the srsRAN/Open5GS-style network from the paper's methodology
(n41, TDD, 30 kHz SCS, 20 MHz), connects two UEs, lets NR-Scope decode
two seconds of air interface, and prints what it learned — all without
touching the gNB's internal state.

Run:  python examples/quickstart.py
"""

from repro import NRScope, Simulation, SRSRAN_PROFILE


def main() -> None:
    # A lab-bench cell with two UEs (one watching video, one
    # downloading), both attached via the full RACH procedure.
    sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=42,
                           traffic="mixed", channel="pedestrian")

    # NR-Scope listens passively; 18 dB is a USRP a few metres away.
    scope = NRScope.attach(sim, snr_db=18.0)

    sim.run(seconds=2.0)

    print(f"cell: {SRSRAN_PROFILE.name} band {SRSRAN_PROFILE.band}, "
          f"{SRSRAN_PROFILE.n_prb} PRB @ {SRSRAN_PROFILE.scs_khz} kHz "
          f"(TTI {SRSRAN_PROFILE.slot_duration_s * 1e3:.2f} ms)")
    print(f"slots observed: {scope.counters.slots_observed}, "
          f"DCIs decoded: {scope.counters.dcis_decoded}, "
          f"UEs discovered via RACH: {scope.counters.msg4_seen}")
    print()

    now = sim.now_s
    rates = scope.per_ue_throughput(now)
    for rnti in scope.tracked_rntis:
        rate = rates[rnti]
        total = scope.telemetry.bits_between(rnti, 0.0, now)
        retx = scope.telemetry.retransmission_ratio(rnti)
        mcs = scope.telemetry.mcs_distribution(rnti)
        mean_mcs = sum(mcs) / len(mcs) if mcs else 0.0
        print(f"UE 0x{rnti:04x}: {total / now / 1e6:6.2f} Mbps avg "
              f"({rate / 1e6:.2f} Mbps in the last window), "
              f"mean MCS {mean_mcs:.1f}, retx ratio {retx:.2%}")

        # Ground truth from the phone's tcpdump, for comparison.
        ue = sim.gnb.ue_by_rnti(rnti)
        if ue is not None:
            truth = ue.delivered_dl_bits / now
            estimate = total / now
            print(f"            tcpdump says {truth / 1e6:6.2f} Mbps "
                  f"-> estimation error "
                  f"{abs(estimate - truth) / 1e3:.1f} kbps "
                  f"({abs(estimate - truth) / truth:.2%})")


if __name__ == "__main__":
    main()
