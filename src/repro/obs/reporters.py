"""Pluggable reporters: where bus events go.

A reporter is anything with ``emit(event)`` / ``close()`` (the
:class:`Reporter` protocol).  Three ship with the bus:

* :class:`JsonlReporter` - one schema-versioned JSON object per line,
  the durable run artifact ``repro.cli obs topn`` post-processes;
* :class:`CounterReporter` - Prometheus-style monotonic counters and
  span histograms with a text-format dump, the live-scrape surface;
* :class:`RingReporter` - a bounded in-memory ring, the substrate for
  live dashboards and for tests that assert on the exact stream.

Reporters must be fast and must never raise into the hot path; the
context catches and counts reporter failures rather than letting them
abort a telemetry session.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import deque
from pathlib import Path
from typing import Any, Iterator, Mapping, Protocol, runtime_checkable


class ReporterError(ValueError):
    """Raised for invalid reporter configuration."""


@runtime_checkable
class Reporter(Protocol):
    """The reporter protocol: consume one event; flush state on close."""

    def emit(self, event: Mapping[str, Any]) -> None:
        """Consume one schema-versioned event."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Flush and release any resources (idempotent)."""
        ...  # pragma: no cover - protocol


class JsonlReporter:
    """Writes one compact JSON line per event.

    The file is opened lazily on the first event and the key order is
    the context's assembly order, so two sessions emitting the same
    event sequence produce byte-identical files.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.count = 0
        self._handle: Any = None

    def emit(self, event: Mapping[str, Any]) -> None:
        if self._handle is None:
            self._handle = self.path.open("w", encoding="utf-8")
        self._handle.write(
            json.dumps(event, separators=(",", ":")) + "\n")
        self.count += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class RingReporter:
    """Keeps the last ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ReporterError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.count = 0

    def emit(self, event: Mapping[str, Any]) -> None:
        self._ring.append(dict(event))
        self.count += 1

    @property
    def events(self) -> list[dict[str, Any]]:
        """Retained events, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(list(self._ring))

    def close(self) -> None:
        return None


class TailReporter:
    """Live-tails the stream: one compact JSON line per event.

    The operator's ``tail -f`` surface — watch a fleet's checkpoint
    spans and failure events as they commit, without waiting for a
    JSONL file to flush.  Writes to ``stderr`` by default (keeping
    ``stdout`` clean for command output) and flushes per event; the
    stream object is borrowed, so :meth:`close` never closes it.
    """

    def __init__(self, stream: Any = None) -> None:
        import sys
        self._stream = stream if stream is not None else sys.stderr
        self.count = 0

    def emit(self, event: Mapping[str, Any]) -> None:
        self._stream.write(
            json.dumps(event, separators=(",", ":")) + "\n")
        self._stream.flush()
        self.count += 1

    def close(self) -> None:
        return None


#: Event fields promoted to metric labels (low-cardinality by design;
#: ``rnti`` and ``slot`` stay event-only so counters cannot explode).
LABEL_KEYS = ("cell", "stage", "reason", "outcome")

#: Histogram bucket upper bounds for span durations, in microseconds.
SPAN_BUCKETS_US = (50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
                   10000.0, 50000.0, float("inf"))


class CounterReporter:
    """Prometheus-style aggregation of the event stream.

    * ``counter`` events add their ``value`` to a monotonic counter
      keyed by (name, labels);
    * plain ``event`` events count occurrences the same way (so failure
      events aggregate without a separate counter emission);
    * ``span`` events land in a fixed-bucket histogram per (name,
      labels) with ``sum``/``count`` like a Prometheus histogram.  Each
      observation increments one bucket; the cumulative ``le`` counts
      are summed when read.

    :meth:`render_text` dumps everything in the Prometheus text
    exposition format (deterministic ordering).
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, tuple[tuple[str, Any], ...]],
                             float] = {}
        self._hist: dict[tuple[str, tuple[tuple[str, Any], ...]],
                         list[float]] = {}
        self._hist_sum: dict[tuple[str, tuple[tuple[str, Any], ...]],
                             float] = {}
        self.events_seen = 0

    @staticmethod
    def _labels_of(event: Mapping[str, Any]) \
            -> tuple[tuple[str, Any], ...]:
        return tuple((k, event[k]) for k in LABEL_KEYS if k in event)

    def emit(self, event: Mapping[str, Any]) -> None:
        self.events_seen += 1
        kind = event.get("kind")
        key = (str(event.get("name")), self._labels_of(event))
        if kind == "counter":
            raw = event.get("value", 1)
            inc = float(raw) if isinstance(raw, (int, float)) \
                and not isinstance(raw, bool) else 1.0
            self._counters[key] = self._counters.get(key, 0.0) + inc
        elif kind == "event":
            self._counters[key] = self._counters.get(key, 0.0) + 1.0
        elif kind == "span":
            raw = event.get("duration_us", 0.0)
            duration = float(raw) if isinstance(raw, (int, float)) \
                and not isinstance(raw, bool) else 0.0
            buckets = self._hist.get(key)
            if buckets is None:
                buckets = [0.0] * len(SPAN_BUCKETS_US)
                self._hist[key] = buckets
            # One bucket per observation: the first bound >= duration
            # (a NaN duration is <= no bound and lands in none).
            if duration == duration:
                buckets[bisect_left(SPAN_BUCKETS_US, duration)] += 1
            self._hist_sum[key] = self._hist_sum.get(key, 0.0) + duration

    # ------------------------------------------------------------ query
    def value(self, name: str, **labels: Any) -> float:
        """Sum of a counter over every series matching ``labels``.

        Label filters are a subset match: ``value("dci.decoded",
        cell="a")`` sums all ``dci.decoded`` series whose ``cell``
        label is ``a`` whatever their other labels.
        """
        want = set(labels.items())
        total = 0.0
        for (cname, clabels), count in self._counters.items():
            if cname == name and want <= set(clabels):
                total += count
        return total

    def span_count(self, name: str, **labels: Any) -> float:
        """Total observations of a span histogram (subset label match)."""
        want = set(labels.items())
        total = 0.0
        for (hname, hlabels), buckets in self._hist.items():
            if hname == name and want <= set(hlabels):
                total += sum(buckets)
        return total

    def span_sum_us(self, name: str, **labels: Any) -> float:
        """Summed duration of a span histogram, in microseconds."""
        want = set(labels.items())
        return sum(value for (hname, hlabels), value
                   in self._hist_sum.items()
                   if hname == name and want <= set(hlabels))

    # ----------------------------------------------------------- render
    @staticmethod
    def _metric_name(event_name: str, suffix: str) -> str:
        return "nrscope_" + event_name.replace(".", "_") + suffix

    @staticmethod
    def _format_labels(labels: tuple[tuple[str, Any], ...],
                       extra: tuple[tuple[str, str], ...] = ()) -> str:
        pairs = tuple((k, str(v)) for k, v in labels) + extra
        if not pairs:
            return ""
        body = ",".join(f'{k}="{v}"' for k, v in pairs)
        return "{" + body + "}"

    def render_text(self) -> str:
        """Prometheus text-format dump of every counter and histogram."""
        lines: list[str] = []
        by_counter: dict[str, list[tuple[tuple[tuple[str, Any], ...],
                                         float]]] = {}
        for (name, labels), count in self._counters.items():
            by_counter.setdefault(name, []).append((labels, count))
        for name in sorted(by_counter):
            metric = self._metric_name(name, "_total")
            lines.append(f"# TYPE {metric} counter")
            for labels, count in sorted(by_counter[name],
                                        key=lambda item: item[0]):
                value = int(count) if count == int(count) else count
                lines.append(
                    f"{metric}{self._format_labels(labels)} {value}")
        by_hist: dict[str, list[tuple[tuple[tuple[str, Any], ...],
                                      list[float]]]] = {}
        for (name, labels), buckets in self._hist.items():
            by_hist.setdefault(name, []).append((labels, buckets))
        for name in sorted(by_hist):
            metric = self._metric_name(name, "_duration_us")
            lines.append(f"# TYPE {metric} histogram")
            for labels, buckets in sorted(by_hist[name],
                                          key=lambda item: item[0]):
                count = 0.0
                for bound, in_bucket in zip(SPAN_BUCKETS_US, buckets):
                    count += in_bucket
                    le = "+Inf" if bound == float("inf") else \
                        f"{bound:g}"
                    lines.append(
                        f"{metric}_bucket"
                        f"{self._format_labels(labels, (('le', le),))}"
                        f" {int(count)}")
                total = self._hist_sum[(name, labels)]
                lines.append(f"{metric}_sum"
                             f"{self._format_labels(labels)}"
                             f" {total:.3f}")
                lines.append(f"{metric}_count"
                             f"{self._format_labels(labels)}"
                             f" {int(count)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def close(self) -> None:
        return None
