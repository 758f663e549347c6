"""Session report: one human-readable summary of a telemetry run.

Condenses everything a finished :class:`~repro.core.scope.NRScope`
session knows — per-UE throughput, MCS, retransmissions, CQI and
scheduling requests, plus cell-level utilisation — into the text report
the tool's operator reads after a capture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.report import Table
from repro.core.runtime import RuntimeStats
from repro.phy.numerology import slot_duration_s


class SummaryError(ValueError):
    """Raised when a report is requested from an unusable session."""


@dataclass(frozen=True)
class UeSummary:
    """One UE's session statistics."""

    rnti: int
    dl_mbps: float
    ul_mbps: float
    mean_mcs: float
    retx_ratio: float
    latest_cqi: int | None
    scheduling_requests: int
    active_time_s: float
    n_dcis: int


@dataclass(frozen=True)
class CellSummary:
    """Cell-level aggregates."""

    duration_s: float
    slots_observed: int
    dcis_decoded: int
    ues_discovered: int
    ues_missed: int
    aggregate_dl_mbps: float
    mean_prb_utilisation: float
    #: TTIs whose decoded PRBs exceeded the carrier (phantom DCIs).
    overbooked_ttis: int = 0


@dataclass
class SessionReport:
    """The full report: cell aggregates plus per-UE rows."""

    cell: CellSummary
    ues: list[UeSummary]
    runtime: RuntimeStats | None = None
    #: Length of one slot of the session's cell, for the runtime's
    #: seconds per air second.
    slot_s: float | None = None

    def render(self) -> str:
        """Multi-table text rendering."""
        header = (
            f"Telemetry session: {self.cell.duration_s:.1f} s, "
            f"{self.cell.slots_observed} slots observed, "
            f"{self.cell.dcis_decoded} DCIs decoded\n"
            f"UEs: {self.cell.ues_discovered} discovered via RACH"
            f" ({self.cell.ues_missed} missed), aggregate DL "
            f"{self.cell.aggregate_dl_mbps:.2f} Mbps, mean PRB "
            f"utilisation {100 * self.cell.mean_prb_utilisation:.1f}%, "
            f"{self.cell.overbooked_ttis} TTIs overbooked")
        table = Table(
            title="Per-UE telemetry",
            columns=("RNTI", "DL Mbps", "UL Mbps", "MCS", "retx %",
                     "CQI", "SRs", "active s", "DCIs"),
            rows=tuple((f"0x{u.rnti:04x}", u.dl_mbps, u.ul_mbps,
                        u.mean_mcs, 100 * u.retx_ratio,
                        u.latest_cqi if u.latest_cqi is not None else "-",
                        u.scheduling_requests, u.active_time_s,
                        u.n_dcis) for u in self.ues))
        text = header + "\n\n" + table.render()
        if self.runtime is not None:
            stats = self.runtime
            keep_up = "" if self.slot_s is None else (
                f", {stats.busy_per_air_s(self.slot_s):.2f} s per air s")
            runtime_table = Table(
                title=(f"Runtime stages - "
                       f"{stats.slots_completed}/{stats.slots_submitted}"
                       f" slots{keep_up}, {stats.budget_overruns} over "
                       f"budget of {stats.stage('dci').calls} decode slots"
                       f" (a slot's DCI time is its pack, its replay and "
                       f"an equal share of its window's shared work)"),
                columns=("stage", "calls", "mean us", "max us"),
                rows=tuple((s.name, s.calls, s.mean_us, 1e6 * s.max_s)
                           for s in stats.stages))
            text += "\n\n" + runtime_table.render()
        return text


def build_session_report(scope, duration_s: float,
                         n_prb_carrier: int | None = None) \
        -> SessionReport:
    """Assemble a report from a finished scope session."""
    if duration_s <= 0:
        raise SummaryError(f"duration must be positive: {duration_s}")
    telemetry = scope.telemetry
    ues: list[UeSummary] = []
    aggregate_dl_bits = 0
    for rnti in telemetry.rntis():
        records = telemetry.for_rnti(rnti)
        dl_bits = telemetry.bits_between(rnti, 0.0, duration_s,
                                         downlink=True)
        ul_bits = telemetry.bits_between(rnti, 0.0, duration_s,
                                         downlink=False)
        aggregate_dl_bits += dl_bits
        mcs = telemetry.mcs_distribution(rnti)
        first = records[0].time_s
        last = records[-1].time_s
        ues.append(UeSummary(
            rnti=rnti,
            dl_mbps=dl_bits / duration_s / 1e6,
            ul_mbps=ul_bits / duration_s / 1e6,
            mean_mcs=float(np.mean(mcs)) if mcs else 0.0,
            retx_ratio=telemetry.retransmission_ratio(rnti),
            latest_cqi=scope.uci.latest_cqi(rnti),
            scheduling_requests=scope.uci.scheduling_request_count(rnti),
            active_time_s=max(last - first, 0.0),
            n_dcis=len(records)))
    ues.sort(key=lambda u: -u.dl_mbps)

    utilisation = 0.0
    overbooked = 0
    if scope.spare is not None and scope.spare.n_ttis:
        n_prb = n_prb_carrier or scope.spare.n_prb_carrier
        used = scope.spare.tti_table()["used_prbs"]
        utilisation = float(np.mean(used)) / n_prb
        overbooked = scope.spare.overbooked
    cell = CellSummary(
        duration_s=duration_s,
        slots_observed=scope.counters.slots_observed,
        dcis_decoded=scope.counters.dcis_decoded,
        ues_discovered=scope.counters.msg4_seen,
        ues_missed=scope.counters.msg4_missed,
        aggregate_dl_mbps=aggregate_dl_bits / duration_s / 1e6,
        mean_prb_utilisation=utilisation, overbooked_ttis=overbooked)
    return SessionReport(cell=cell, ues=ues,
                         runtime=getattr(scope, "runtime_stats", None),
                         slot_s=slot_duration_s(scope.scs_khz))
