"""Tests for the three shipped reporters and the spec parser."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import CounterReporter, JsonlReporter, Reporter, \
    ReporterError, RingReporter, reporters_from_specs
from repro.obs.reporters import SPAN_BUCKETS_US


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

    def emit(self, event):
        if event.get("kind") != "span":
            super().emit(event)
            return
        self.events_seen += 1
        key = (str(event.get("name")), self._labels_of(event))
        raw = event.get("duration_us", 0.0)
        duration = float(raw) if isinstance(raw, (int, float)) \
            and not isinstance(raw, bool) else 0.0
        buckets = self._cumulative.setdefault(
            key, [0.0] * len(SPAN_BUCKETS_US))
        for i, bound in enumerate(SPAN_BUCKETS_US):
            if duration <= bound:
                buckets[i] += 1
        self._hist_sum[key] = self._hist_sum.get(key, 0.0) + duration

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
                total = self._hist_sum[(name, labels)]
                lines.append(f"{metric}_sum{self._format_labels(labels)}"
                             f" {total:.3f}")
                lines.append(f"{metric}_count"
                             f"{self._format_labels(labels)}"
                             f" {int(buckets[-1])}")
        return "\n".join(lines) + ("\n" if lines else "")


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
