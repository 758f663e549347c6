"""Tests for the event schema validator and the TopN failure report."""

import json

import pytest

from repro.obs import validate_event, validate_events
from repro.obs.topn import TopnError, cluster_failures, load_events, \
    render_markdown, report_to_json


def make_event(name="dci.miss", seq=0, **fields):
    event = {"v": 1, "seq": seq, "run_id": "r1", "kind": "event",
             "name": name}
    event.update(fields)
    return event


class TestValidate:
    def test_valid_event(self):
        assert validate_event(make_event(rnti=1, slot=2,
                                         stage="dci")) == []

    def test_missing_envelope_field(self):
        event = make_event()
        del event["run_id"]
        assert any("run_id" in p for p in validate_event(event))

    def test_bad_types(self):
        assert validate_event(make_event(rnti="0x4601"))
        assert validate_event(make_event(slot=True))
        event = make_event()
        event["kind"] = "gauge"
        assert validate_event(event)

    def test_unknown_scalar_fields_tolerated(self):
        assert validate_event(make_event(beam_index=3)) == []
        assert validate_event(make_event(nested={"a": 1}))

    def test_stream_seq_must_increase(self):
        events = [make_event(seq=0), make_event(seq=0)]
        assert any("seq" in p for _, p in validate_events(events))

    def test_stream_run_id_must_be_constant(self):
        events = [make_event(seq=0), make_event(seq=1)]
        events[1]["run_id"] = "other"
        assert any("run_id" in p for _, p in validate_events(events))

    def test_valid_stream(self):
        events = [make_event(seq=i) for i in range(4)]
        assert validate_events(events) == []


class TestLoadEvents:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "e.jsonl"
        events = [make_event(seq=i) for i in range(3)]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert load_events(path) == events

    def test_missing_file(self, tmp_path):
        with pytest.raises(TopnError, match="no such"):
            load_events(tmp_path / "absent.jsonl")

    def test_bad_json_names_the_line(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"v":1}\nnot json\n')
        with pytest.raises(TopnError, match=":2"):
            load_events(path)


class TestCluster:
    def make_stream(self):
        events = []
        seq = 0
        for _ in range(5):
            events.append(make_event("dci.miss", seq=seq, cell="a",
                                     rnti=0x4601, stage="dci",
                                     reason="bler", slot=seq))
            seq += 1
        for _ in range(3):
            events.append(make_event("msg4.miss", seq=seq, cell="a",
                                     rnti=0x4602, stage="rach",
                                     reason="rrc_setup", slot=seq))
            seq += 1
        events.append(make_event("msg4.miss", seq=seq, cell="b",
                                 rnti=0x4603, stage="rach",
                                 reason="msg4_decode", slot=seq))
        seq += 1
        # Non-failure traffic must be scanned but not clustered.
        events.append(make_event("session.start", seq=seq))
        return events

    def test_grouping_and_ranking(self):
        report = cluster_failures(self.make_stream())
        assert report.total_events == 10
        assert report.failures_total == 9
        assert report.by_name == {"dci.miss": 5, "msg4.miss": 4}
        assert [c.count for c in report.clusters] == [5, 3, 1]
        top = report.clusters[0]
        assert top.key.rnti == 0x4601
        assert top.key.reason == "bler"
        assert (top.first_slot, top.last_slot) == (0, 4)

    def test_top_n_truncation(self):
        report = cluster_failures(self.make_stream(), top_n=1)
        assert len(report.clusters) == 1
        assert report.truncated == 2

    def test_deterministic_tiebreak(self):
        events = [make_event("dci.miss", seq=0, rnti=2, stage="dci"),
                  make_event("dci.miss", seq=1, rnti=1, stage="dci")]
        report = cluster_failures(events)
        assert [c.key.rnti for c in report.clusters] == [1, 2]

    def test_bad_top_n(self):
        with pytest.raises(TopnError):
            cluster_failures([], top_n=0)

    def test_json_document(self):
        report = cluster_failures(self.make_stream())
        document = report_to_json(report)
        assert document["v"] == 1
        assert document["failures_total"] == 9
        shares = [c["share"] for c in document["clusters"]]
        assert shares == sorted(shares, reverse=True)
        assert sum(c["count"] for c in document["clusters"]) == 9

    def test_markdown_table(self):
        text = render_markdown(cluster_failures(self.make_stream()))
        assert "| 1 | a | 0x4601 | dci | bler | 5 |" in text
        assert "failures: 9" in text

    def test_markdown_empty_stream(self):
        text = render_markdown(cluster_failures([]))
        assert "No failure events" in text
