"""Fig 16: per-scenario throughput error CCDFs and packet aggregation.

(Paper Appendix C and D.)  Subfigures a-c repeat the Mosolab throughput
accuracy measurement with static, blocked and moving UEs; subfigure d
counts packets aggregated into one TTI under two load regimes — a flow
with spare capacity versus one competing for the cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.metrics import ccdf_points, summarize_errors
from repro.analysis.report import Table
from repro.core.telemetry import TelemetryLog
from repro.experiments.common import FigureResult, run_session
from repro.experiments.fig09_throughput import ThroughputErrorSeries, \
    _errors_vs_capture
from repro.gnb.cell_config import MOSOLAB_PROFILE

SCENARIOS = ("static", "blocked", "moving")
UE_COUNTS = (1, 2, 3, 4)

#: The flows' packet size: Fig 16d counts each TTI's TBS in packets of
#: this many bytes.
PACKET_BYTES = 1400


def run_scenarios(duration_s: float = 4.0, seed: int = 17) \
        -> dict[str, list[ThroughputErrorSeries]]:
    """Fig 16a-c: one error CCDF per UE count per mobility scenario."""
    out: dict[str, list[ThroughputErrorSeries]] = {}
    for scenario in SCENARIOS:
        series = []
        for n_ues in UE_COUNTS:
            result = run_session(
                MOSOLAB_PROFILE, n_ues=n_ues, duration_s=duration_s,
                seed=seed + n_ues, traffic="mixed",
                channel="pedestrian", mobility=scenario)
            series.append(_errors_vs_capture(result, f"{n_ues} UE"))
        out[scenario] = series
    return out


@dataclass
class AggregationComparison:
    """Fig 16d: packets-per-TTI with and without competition."""

    spare: list[float]          # lone flow, cell mostly idle
    competing: list[float]      # flow sharing the cell

    def spare_cdf(self) -> list[tuple[float, float]]:
        return _cdf(self.spare)

    def competing_cdf(self) -> list[tuple[float, float]]:
        return _cdf(self.competing)


def _cdf(values: list[float]) -> list[tuple[float, float]]:
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def packets_per_tti(telemetry: TelemetryLog,
                    rnti: int | None = None) -> list[float]:
    """Each downlink new-data transport block's TBS in packets, in
    decode order, optionally for one UE."""
    rows = telemetry.store.table()
    keep = (rows["downlink"] == 1) & (rows["is_retransmission"] == 0)
    if rnti is not None:
        keep &= rows["rnti"] == rnti
    packets: list[float] = (rows["tbs_bits"][keep]
                            / (PACKET_BYTES * 8.0)).tolist()
    return packets


def run_aggregation(duration_s: float = 4.0,
                    seed: int = 18) -> AggregationComparison:
    """Fig 16d's two regimes.

    With spare capacity the scheduler drains every packet as it arrives
    (few packets per TTI); under competition packets queue between a
    UE's scheduling turns and ride out together in large transport
    blocks.
    """
    lone = run_session(MOSOLAB_PROFILE, n_ues=1, duration_s=duration_s,
                       seed=seed, traffic="poisson", rate_bps=3e6)
    crowd = run_session(MOSOLAB_PROFILE, n_ues=6, duration_s=duration_s,
                        seed=seed + 1, traffic="bulk", rate_bps=6e6,
                        max_ues_per_slot=2)
    spare = packets_per_tti(lone.telemetry)
    rnti = crowd.scope.tracked_rntis[0] if crowd.scope.tracked_rntis \
        else None
    competing = packets_per_tti(crowd.telemetry, rnti)
    return AggregationComparison(spare=spare, competing=competing)


def to_result(scenarios: dict[str, list[ThroughputErrorSeries]],
              aggregation: AggregationComparison) -> FigureResult:
    result = FigureResult(figure="fig16")
    for scenario, series in scenarios.items():
        errors = [e for s in series for e in s.errors_kbps]
        if errors:
            result.add_series(f"{scenario}-error-ccdf",
                              ccdf_points(errors))
            result.summary[f"{scenario}_median_kbps"] = \
                summarize_errors(errors).median
    result.add_series("agg-spare", aggregation.spare_cdf())
    result.add_series("agg-competing", aggregation.competing_cdf())
    result.summary["spare_mean_pkts"] = float(np.mean(aggregation.spare))
    result.summary["competing_mean_pkts"] = float(
        np.mean(aggregation.competing))
    return result


def scenario_table(scenarios: dict[str, list[ThroughputErrorSeries]]) \
        -> Table:
    rows = []
    for scenario, series in scenarios.items():
        for line in series:
            if not line.errors_kbps:
                continue
            summary = line.summary()
            rows.append((scenario, line.label, summary.median,
                         summary.p75, summary.p95))
    return Table(
        title="Fig 16a-c - throughput error by UE scenario (Mosolab)",
        columns=("scenario", "UEs", "median kbps", "p75 kbps",
                 "p95 kbps"),
        rows=tuple(rows))


def aggregation_table(aggregation: AggregationComparison) -> Table:
    return Table(
        title="Fig 16d - packets per TTI",
        columns=("regime", "mean pkts/TTI", "p90 pkts/TTI"),
        rows=(
            ("spare", float(np.mean(aggregation.spare)),
             float(np.percentile(aggregation.spare, 90))),
            ("competition", float(np.mean(aggregation.competing)),
             float(np.percentile(aggregation.competing, 90))),
        ))
