"""Tests for the three shipped reporters and the spec parser."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import CounterReporter, JsonlReporter, Reporter, \
    ReporterError, RingReporter, reporters_from_specs
from repro.obs.reporters import LABEL_KEYS, SPAN_BUCKETS_US


def labels_of(event):
    """An event's metric labels: its ``LABEL_KEYS`` fields, in order."""
    return tuple((k, event[k]) for k in LABEL_KEYS if k in event)


def make_event(name="dci.miss", kind="event", seq=0, **fields):
    event = {"v": 1, "seq": seq, "run_id": "r1", "kind": kind,
             "name": name}
    event.update(fields)
    return event


class TestJsonlReporter:
    def test_writes_one_compact_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        reporter = JsonlReporter(path)
        reporter.emit(make_event(seq=0, rnti=1))
        reporter.emit(make_event(seq=1, rnti=2))
        reporter.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert reporter.count == 2
        assert json.loads(lines[0])["rnti"] == 1
        assert ": " not in lines[0]

    def test_lazy_open(self, tmp_path):
        path = tmp_path / "never.jsonl"
        reporter = JsonlReporter(path)
        reporter.close()
        assert not path.exists()

    def test_close_is_idempotent(self, tmp_path):
        reporter = JsonlReporter(tmp_path / "e.jsonl")
        reporter.emit(make_event())
        reporter.close()
        reporter.close()


class TestRingReporter:
    def test_bounded(self):
        ring = RingReporter(capacity=3)
        for i in range(5):
            ring.emit(make_event(seq=i))
        assert len(ring) == 3
        assert ring.count == 5
        assert [e["seq"] for e in ring.events] == [2, 3, 4]

    def test_copies_events(self):
        ring = RingReporter()
        event = make_event()
        ring.emit(event)
        event["name"] = "mutated"
        assert ring.events[0]["name"] == "dci.miss"

    def test_bad_capacity(self):
        with pytest.raises(ReporterError):
            RingReporter(capacity=0)


class TestCounterReporter:
    def test_events_count_as_one(self):
        rep = CounterReporter()
        rep.emit(make_event("dci.miss", stage="dci"))
        rep.emit(make_event("dci.miss", stage="dci"))
        rep.emit(make_event("dci.miss", stage="rach"))
        assert rep.value("dci.miss", stage="dci") == 2
        assert rep.value("dci.miss") == 3

    def test_counters_add_value(self):
        rep = CounterReporter()
        rep.emit(make_event("dci.decoded", kind="counter", value=3))
        rep.emit(make_event("dci.decoded", kind="counter", value=4))
        assert rep.value("dci.decoded") == 7

    def test_high_cardinality_fields_are_not_labels(self):
        rep = CounterReporter()
        for rnti in range(100):
            rep.emit(make_event("dci.miss", rnti=rnti, stage="dci"))
        assert len(rep._counters) == 1
        assert rep.value("dci.miss") == 100

    def test_span_histogram(self):
        rep = CounterReporter()
        rep.emit(make_event("stage.span", kind="span", stage="dci",
                            duration_us=80.0))
        rep.emit(make_event("stage.span", kind="span", stage="dci",
                            duration_us=70000.0))
        assert rep.span_count("stage.span", stage="dci") == 2
        assert rep.span_sum_us("stage.span") == pytest.approx(70080.0)

    def test_render_text_prometheus_format(self):
        rep = CounterReporter()
        rep.emit(make_event("dci.miss", cell="srsran", stage="dci"))
        rep.emit(make_event("stage.span", kind="span", stage="dci",
                            duration_us=80.0))
        text = rep.render_text()
        assert "# TYPE nrscope_dci_miss_total counter" in text
        assert 'nrscope_dci_miss_total{cell="srsran",stage="dci"} 1' \
            in text
        assert 'nrscope_stage_span_duration_us_bucket{stage="dci",' \
            'le="100"} 1' in text
        assert 'nrscope_stage_span_duration_us_count{stage="dci"} 1' \
            in text

    def test_render_text_empty(self):
        assert CounterReporter().render_text() == ""

    @given(st.lists(st.tuples(
        st.sampled_from(["stage.span", "dci.miss", "fleet.checkpoint"]),
        st.sampled_from(["span", "event", "counter"]),
        st.sampled_from([{}, {"stage": "dci"}, {"stage": "sinks"},
                         {"cell": "a", "outcome": "ok"}]),
        st.one_of(st.sampled_from(SPAN_BUCKETS_US), st.floats(),
                  st.integers(-10, 10 ** 6), st.booleans(), st.none())),
        max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_render_text_matches_cumulative_buckets(self, stream):
        """One bucket per observation, cumulated when read, renders the
        same bytes as walking every bound per observation."""
        new, reference = CounterReporter(), CumulativeReference()
        for seq, (name, kind, labels, value) in enumerate(stream):
            fields = dict(labels)
            if kind == "span" and value is not None:
                fields["duration_us"] = value
            event = make_event(name, kind=kind, seq=seq, **fields)
            new.emit(event)
            reference.emit(event)
        assert new.render_text() == reference.render_text()
        for stage in (None, "dci", "sinks"):
            labels = {} if stage is None else {"stage": stage}
            assert new.span_count("stage.span", **labels) == \
                reference.span_count("stage.span", **labels)


class CumulativeReference(CounterReporter):
    """The span histogram as first written: every observation walks
    every bound and the buckets hold cumulative counts."""

    def __init__(self):
        super().__init__()
        self._cumulative = {}
        self._sums = {}

    def emit(self, event):
        if event.get("kind") != "span":
            super().emit(event)
            return
        self.events_seen += 1
        key = (str(event.get("name")), labels_of(event))
        raw = event.get("duration_us", 0.0)
        duration = float(raw) if isinstance(raw, (int, float)) \
            and not isinstance(raw, bool) else 0.0
        buckets = self._cumulative.setdefault(
            key, [0.0] * len(SPAN_BUCKETS_US))
        for i, bound in enumerate(SPAN_BUCKETS_US):
            if duration <= bound:
                buckets[i] += 1
        self._sums[key] = self._sums.get(key, 0.0) + duration

    def span_count(self, name, **labels):
        want = set(labels.items())
        return sum(buckets[-1] for (hname, hlabels), buckets
                   in self._cumulative.items()
                   if hname == name and want <= set(hlabels))

    def render_text(self):
        lines = super().render_text().splitlines()  # counters only
        by_hist = {}
        for (name, labels), buckets in self._cumulative.items():
            by_hist.setdefault(name, []).append((labels, buckets))
        for name in sorted(by_hist):
            metric = self._metric_name(name, "_duration_us")
            lines.append(f"# TYPE {metric} histogram")
            for labels, buckets in sorted(by_hist[name],
                                          key=lambda item: item[0]):
                for bound, count in zip(SPAN_BUCKETS_US, buckets):
                    le = "+Inf" if bound == float("inf") else \
                        f"{bound:g}"
                    lines.append(
                        f"{metric}_bucket"
                        f"{self._format_labels(labels, (('le', le),))}"
                        f" {int(count)}")
                total = self._sums[(name, labels)]
                lines.append(f"{metric}_sum{self._format_labels(labels)}"
                             f" {total:.3f}")
                lines.append(f"{metric}_count"
                             f"{self._format_labels(labels)}"
                             f" {int(buckets[-1])}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fold(values):
    total = 0.0
    for value in values:
        total += value
    return total


def _as_float(raw, default):
    return float(raw) if isinstance(raw, (int, float)) \
        and not isinstance(raw, bool) else default


def _format(labels):
    if not labels:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"


class PlainAggregation:
    """What :class:`CounterReporter` computes, written plainly: each
    series keeps every increment and every duration it saw, and every
    figure is folded from those lists when read."""

    def __init__(self):
        self.counters = {}
        self.spans = {}
        self.events_seen = 0

    def emit(self, event):
        self.events_seen += 1
        key = (str(event.get("name")), labels_of(event))
        kind = event.get("kind")
        if kind == "counter":
            self.counters.setdefault(key, []).append(
                _as_float(event.get("value", 1), 1.0))
        elif kind == "event":
            self.counters.setdefault(key, []).append(1.0)
        elif kind == "span":
            self.spans.setdefault(key, []).append(
                _as_float(event.get("duration_us", 0.0), 0.0))

    @staticmethod
    def _matching(series, name, labels):
        want = set(labels.items())
        return [values for (sname, slabels), values in series.items()
                if sname == name and want <= set(slabels)]

    def value(self, name, **labels):
        total = 0.0
        for increments in self._matching(self.counters, name, labels):
            total += _fold(increments)
        return total

    def span_count(self, name, **labels):
        total = 0.0
        for durations in self._matching(self.spans, name, labels):
            total += sum(1 for d in durations if d == d)
        return total

    def span_sum_us(self, name, **labels):
        return sum(_fold(durations)
                   for durations in self._matching(self.spans, name, labels))

    def render_text(self):
        lines = []
        for name in sorted({name for name, _ in self.counters}):
            metric = "nrscope_" + name.replace(".", "_") + "_total"
            lines.append(f"# TYPE {metric} counter")
            rows = [(labels, _fold(increments)) for (sname, labels),
                    increments in self.counters.items() if sname == name]
            for labels, total in sorted(rows, key=lambda row: row[0]):
                shown = int(total) if total == int(total) else total
                lines.append(f"{metric}{_format(labels)} {shown}")
        for name in sorted({name for name, _ in self.spans}):
            metric = "nrscope_" + name.replace(".", "_") + "_duration_us"
            lines.append(f"# TYPE {metric} histogram")
            rows = [(labels, durations) for (sname, labels), durations
                    in self.spans.items() if sname == name]
            for labels, durations in sorted(rows, key=lambda row: row[0]):
                text = tuple((k, str(v)) for k, v in labels)
                for bound in SPAN_BUCKETS_US:
                    le = "+Inf" if bound == float("inf") else f"{bound:g}"
                    below = sum(1 for d in durations if d <= bound)
                    lines.append(f"{metric}_bucket"
                                 f"{_format(text + (('le', le),))} {below}")
                lines.append(f"{metric}_sum{_format(text)}"
                             f" {_fold(durations):.3f}")
                lines.append(f"{metric}_count{_format(text)}"
                             f" {sum(1 for d in durations if d == d)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _outcome(fn, *args, **kwargs):
    """A call's result as its repr, or the type of what it raised."""
    try:
        return repr(fn(*args, **kwargs))
    except (TypeError, ValueError, OverflowError) as exc:
        return type(exc)


#: Label values, one family per label key and example, so rendered
#: series stay sortable; ``None`` is a value, unlike an absent label.
LABEL_FAMILIES = [
    st.sampled_from(["a", "b", "ok"]),
    st.one_of(st.integers(-2, 2), st.booleans(),
              st.floats(-1e3, 1e3, allow_nan=False)),
    st.none(),
]

#: Span durations and counter values, including the ones the reporter
#: reads as 0 or 1 (bools, text, absent) and NaN, drawn on its own so
#: that most runs see it.
RAW_NUMBERS = st.one_of(st.floats(), st.just(math.nan),
                        st.integers(-10, 10 ** 6), st.booleans(),
                        st.just("x"), st.none())


@st.composite
def event_streams(draw):
    families = {key: draw(st.sampled_from(LABEL_FAMILIES))
                for key in LABEL_KEYS}
    stream = []
    for seq in range(draw(st.integers(0, 50))):
        fields = {}
        for key in draw(st.lists(st.sampled_from(LABEL_KEYS),
                                 unique=True, max_size=4)):
            fields[key] = draw(families[key])
        if draw(st.booleans()):
            fields["slot"] = draw(st.integers(0, 9))
        kind = draw(st.sampled_from(["span", "counter", "event", "gauge"]))
        raw = draw(RAW_NUMBERS)
        if raw is not None:
            fields["duration_us" if kind == "span" else "value"] = raw
        name = draw(st.sampled_from(["stage.span", "dci.decoded",
                                     "dci.miss"]))
        stream.append(make_event(name, kind=kind, seq=seq, **fields))
    return stream


class TestCounterReporterAgainstPlainAggregation:
    @given(event_streams())
    @settings(max_examples=200, deadline=None)
    def test_every_figure_matches(self, stream):
        reporter, plain = CounterReporter(), PlainAggregation()
        for event in stream:
            reporter.emit(event)
            plain.emit(event)
        assert reporter.events_seen == plain.events_seen
        assert _outcome(reporter.render_text) == \
            _outcome(plain.render_text)
        queries = [{}] + [dict(labels_of(event)) for event in stream] \
            + [{key: value} for event in stream
               for key, value in labels_of(event)]
        for name in ("stage.span", "dci.decoded", "dci.miss"):
            for labels in queries:
                for figure in ("value", "span_count", "span_sum_us"):
                    assert _outcome(getattr(reporter, figure), name,
                                    **labels) == \
                        _outcome(getattr(plain, figure), name, **labels)


class TestSpecs:
    def test_parse_all_kinds(self, tmp_path):
        specs = [f"jsonl:{tmp_path}/e.jsonl", "counters", "ring:16",
                 "ring"]
        reporters = reporters_from_specs(specs)
        assert isinstance(reporters[0], JsonlReporter)
        assert isinstance(reporters[1], CounterReporter)
        assert isinstance(reporters[2], RingReporter)
        assert reporters[2].capacity == 16
        assert all(isinstance(r, Reporter) for r in reporters)

    @pytest.mark.parametrize("spec", ["jsonl", "jsonl:", "counters:x",
                                      "ring:abc", "statsd:host"])
    def test_bad_specs(self, spec):
        with pytest.raises(ReporterError):
            reporters_from_specs([spec])
