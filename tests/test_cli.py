"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main


class TestCells:
    def test_lists_all_profiles(self, capsys):
        assert main(["cells"]) == 0
        out = capsys.readouterr().out
        for name in ("srsran", "mosolab", "amarisoft", "tmobile-n25",
                     "tmobile-n71"):
            assert name in out


class TestSniff:
    def test_basic_session(self, capsys):
        assert main(["sniff", "--seconds", "0.5", "--ues", "1",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "cell srsran" in out
        assert "UE 0x" in out
        assert "Mbps DL" in out

    def test_profile_selection(self, capsys):
        assert main(["sniff", "--profile", "tmobile-n25",
                     "--seconds", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "FDD" in out

    def test_report_flag(self, capsys):
        assert main(["sniff", "--seconds", "0.5", "--ues", "2",
                     "--report"]) == 0
        out = capsys.readouterr().out
        assert "Telemetry session" in out
        assert "Per-UE telemetry" in out

    def test_json_export(self, tmp_path, capsys):
        path = tmp_path / "telemetry.jsonl"
        assert main(["sniff", "--seconds", "0.5", "--json",
                     str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert "rnti" in record and "tbs_bits" in record

    def test_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            main(["sniff", "--profile", "fantasy"])

    def test_runtime_stats_prints_stage_table(self, capsys):
        assert main(["sniff", "--seconds", "0.3", "--ues", "1",
                     "--runtime-stats"]) == 0
        out = capsys.readouterr().out
        assert "runtime: 600/600 slots" in out
        assert " s per air s (sniffer stages only), " in out
        stats = re.search(r" (\d+) over budget of (\d+) decode slots ", out)
        assert stats and int(stats.group(1)) <= int(stats.group(2)) > 0
        assert "  dci " in out and "drops" not in out

    def test_obs_jsonl_stream(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main(["sniff", "--seconds", "0.3", "--ues", "1",
                     "--obs", f"jsonl:{path}"]) == 0
        from repro.obs import validate_events
        events = [json.loads(line)
                  for line in path.read_text().splitlines()]
        assert events
        assert validate_events(events) == []
        assert events[0]["name"] == "session.start"
        assert events[0]["run_id"] == "run-00000000"
        assert events[-1]["name"] == "session.end"

    def test_obs_counters_prints_exposition(self, capsys):
        assert main(["sniff", "--seconds", "0.3", "--ues", "1",
                     "--obs", "counters"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE nrscope_stage_span_duration_us histogram" in out

    def test_obs_bad_spec(self, capsys):
        assert main(["sniff", "--seconds", "0.1",
                     "--obs", "statsd:nowhere"]) == 2
        assert "unknown obs reporter" in capsys.readouterr().err


class TestObs:
    def _stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        assert main(["sniff", "--seconds", "0.5", "--ues", "2",
                     "--snr-db", "6.0",
                     "--obs", f"jsonl:{path}"]) == 0
        return path

    def test_validate_ok(self, tmp_path, capsys):
        path = self._stream(tmp_path)
        capsys.readouterr()
        assert main(["obs", "validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_rejects_broken_stream(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"v":1,"seq":0,"run_id":"r","kind":"event","name":"a"}\n'
            '{"v":1,"seq":0,"run_id":"r","kind":"event","name":"b"}\n')
        assert main(["obs", "validate", str(path)]) == 1
        assert "seq" in capsys.readouterr().out

    def test_topn_reports_clusters(self, tmp_path, capsys):
        path = self._stream(tmp_path)
        capsys.readouterr()
        json_path = tmp_path / "topn.json"
        md_path = tmp_path / "topn.md"
        assert main(["obs", "topn", str(path), "--top", "5",
                     "--json", str(json_path),
                     "--md", str(md_path)]) == 0
        document = json.loads(json_path.read_text())
        assert document["v"] == 1
        assert document["failures_total"] >= 0
        assert "# Failure clusters (TopN)" in md_path.read_text()

    def test_topn_stdout_markdown(self, tmp_path, capsys):
        path = self._stream(tmp_path)
        capsys.readouterr()
        assert main(["obs", "topn", str(path)]) == 0
        assert "Failure clusters" in capsys.readouterr().out

    def test_missing_stream_errors(self, tmp_path, capsys):
        assert main(["obs", "topn",
                     str(tmp_path / "absent.jsonl")]) == 2
        assert "no such event stream" in capsys.readouterr().err


class TestFigure:
    def test_fig10(self, capsys):
        assert main(["figure", "fig10"]) == 0
        assert "active time" in capsys.readouterr().out

    def test_fig11(self, capsys):
        assert main(["figure", "fig11"]) == 0
        assert "per second" in capsys.readouterr().out

    def test_quick_fig7(self, capsys):
        assert main(["figure", "fig7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Fig 7a" in out and "Fig 7b" in out

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestSurvey:
    def test_survey_stats(self, capsys):
        assert main(["survey", "--seconds", "120"]) == 0
        out = capsys.readouterr().out
        assert "distinct UEs" in out
        assert "p90" in out
