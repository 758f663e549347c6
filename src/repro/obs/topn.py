"""Failure-clustering TopN analysis over an observability stream.

The first question a fleet operator asks of a long run is "which
UEs/cells account for the misses?".  This module answers it from the
bus's event stream alone: failure events (DCI misses, MSG 4 losses)
are grouped by ``(cell, rnti, stage, reason)`` and ranked by count,
producing a JSON
document for machines and a markdown table for humans
(``python -m repro.cli obs topn events.jsonl``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

#: Event names treated as failures, with the failure class they count
#: toward in the report's ``by_name`` totals.
FAILURE_NAMES: dict[str, str] = {
    "dci.miss": "decode miss",
    "msg4.miss": "acquisition miss",
}

#: Report document version (independent of the event schema version).
REPORT_VERSION = 1


class TopnError(ValueError):
    """Raised for unreadable event streams."""


@dataclass(frozen=True)
class ClusterKey:
    """The grouping identity of one failure cluster."""

    cell: str | None
    rnti: int | None
    stage: str | None
    reason: str | None

    def sort_key(self) -> tuple:
        return (self.cell or "", self.rnti if self.rnti is not None
                else -1, self.stage or "", self.reason or "")


@dataclass
class Cluster:
    """One ranked group of failures."""

    key: ClusterKey
    count: int = 0
    first_slot: int | None = None
    last_slot: int | None = None
    by_name: dict[str, int] = field(default_factory=dict)

    def absorb(self, event: Mapping[str, Any]) -> None:
        self.count += 1
        name = str(event.get("name"))
        self.by_name[name] = self.by_name.get(name, 0) + 1
        slot = event.get("slot")
        if isinstance(slot, int) and not isinstance(slot, bool):
            if self.first_slot is None or slot < self.first_slot:
                self.first_slot = slot
            if self.last_slot is None or slot > self.last_slot:
                self.last_slot = slot


@dataclass
class TopnReport:
    """The clustered failure summary of one event stream."""

    total_events: int
    failures_total: int
    by_name: dict[str, int]
    clusters: list[Cluster]
    truncated: int  #: clusters beyond the requested TopN


def load_events(path: str | Path) -> list[dict[str, Any]]:
    """Read a JSONL event stream written by ``--obs jsonl:PATH``."""
    events: list[dict[str, Any]] = []
    target = Path(path)
    if not target.exists():
        raise TopnError(f"no such event stream: {target}")
    with target.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TopnError(
                    f"{target}:{line_no}: not valid JSON: {exc}") \
                    from exc
            if not isinstance(event, dict):
                raise TopnError(
                    f"{target}:{line_no}: event is not an object")
            events.append(event)
    return events


def cluster_failures(events: Iterable[Mapping[str, Any]],
                     top_n: int = 10) -> TopnReport:
    """Group failure events by (cell, rnti, stage, reason) and rank.

    Ranking is count-descending with the cluster key as a deterministic
    tiebreak, so two runs over the same stream produce the same report
    byte for byte.
    """
    if top_n < 1:
        raise TopnError(f"top_n must be >= 1: {top_n}")
    clusters: dict[ClusterKey, Cluster] = {}
    by_name: dict[str, int] = {}
    total_events = 0
    failures_total = 0
    for event in events:
        total_events += 1
        name = event.get("name")
        if name not in FAILURE_NAMES:
            continue
        failures_total += 1
        by_name[name] = by_name.get(name, 0) + 1
        rnti = event.get("rnti")
        key = ClusterKey(
            cell=event.get("cell"),
            rnti=rnti if isinstance(rnti, int)
            and not isinstance(rnti, bool) else None,
            stage=event.get("stage"),
            reason=event.get("reason"))
        cluster = clusters.get(key)
        if cluster is None:
            cluster = clusters[key] = Cluster(key=key)
        cluster.absorb(event)
    ranked = sorted(clusters.values(),
                    key=lambda c: (-c.count, c.key.sort_key()))
    return TopnReport(total_events=total_events,
                      failures_total=failures_total,
                      by_name=dict(sorted(by_name.items())),
                      clusters=ranked[:top_n],
                      truncated=max(0, len(ranked) - top_n))


def report_to_json(report: TopnReport) -> dict[str, Any]:
    """The machine-readable report document."""
    return {
        "v": REPORT_VERSION,
        "total_events": report.total_events,
        "failures_total": report.failures_total,
        "by_name": report.by_name,
        "truncated_clusters": report.truncated,
        "clusters": [
            {
                "cell": c.key.cell,
                "rnti": c.key.rnti,
                "stage": c.key.stage,
                "reason": c.key.reason,
                "count": c.count,
                "share": (c.count / report.failures_total
                          if report.failures_total else 0.0),
                "first_slot": c.first_slot,
                "last_slot": c.last_slot,
                "by_name": dict(sorted(c.by_name.items())),
            }
            for c in report.clusters
        ],
    }


def render_markdown(report: TopnReport) -> str:
    """The human-readable report: a ranked failure-cluster table."""
    lines = ["# Failure clusters (TopN)", ""]
    lines.append(f"Events scanned: {report.total_events}; failures: "
                 f"{report.failures_total}.")
    if report.by_name:
        parts = ", ".join(
            f"{FAILURE_NAMES[name]} {count}"
            for name, count in report.by_name.items())
        lines.append(f"By class: {parts}.")
    lines.append("")
    if not report.clusters:
        lines.append("No failure events in the stream.")
        return "\n".join(lines) + "\n"
    lines.append("| # | cell | rnti | stage | reason | count | share "
                 "| slots |")
    lines.append("|--:|------|------|-------|--------|------:|------:"
                 "|-------|")
    for rank, cluster in enumerate(report.clusters, start=1):
        key = cluster.key
        rnti = f"0x{key.rnti:04x}" if key.rnti is not None else "-"
        share = cluster.count / report.failures_total
        if cluster.first_slot is None:
            slots = "-"
        elif cluster.first_slot == cluster.last_slot:
            slots = str(cluster.first_slot)
        else:
            slots = f"{cluster.first_slot}..{cluster.last_slot}"
        lines.append(
            f"| {rank} | {key.cell or '-'} | {rnti} "
            f"| {key.stage or '-'} | {key.reason or '-'} "
            f"| {cluster.count} | {share:.1%} | {slots} |")
    if report.truncated:
        lines.append("")
        lines.append(f"... and {report.truncated} smaller clusters "
                     f"not shown.")
    return "\n".join(lines) + "\n"
