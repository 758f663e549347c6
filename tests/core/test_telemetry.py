"""Tests for telemetry records and the session log."""

import pytest

from repro.core.telemetry import TELEMETRY_SCHEMA_VERSION, \
    TelemetryError, TelemetryLog, TelemetryRecord
from repro.phy.dci import Dci, DciFormat, riv_encode
from repro.phy.grant import GrantConfig, dci_to_grant


def make_record(slot=0, time_s=0.0, rnti=0x4601, tbs=1000, downlink=True,
                retx=False, mcs=10):
    return TelemetryRecord(slot_index=slot, time_s=time_s, rnti=rnti,
                           downlink=downlink, tbs_bits=tbs, n_prb=4,
                           n_symbols=12, mcs_index=mcs, harq_id=0, ndi=0,
                           rv=0, is_retransmission=retx,
                           aggregation_level=2)


class TestRecord:
    def test_append_decode(self):
        """The sink's DCI/grant → row mapping, read back as a record."""
        config = GrantConfig(bwp_n_prb=51)
        dci = Dci(format=DciFormat.DL_1_1, rnti=0x4601,
                  freq_alloc_riv=riv_encode(0, 4, 51), time_alloc=1,
                  mcs=10, ndi=1, rv=0, harq_id=2)
        grant = dci_to_grant(dci, config)
        log = TelemetryLog()
        log.append_decode(5, 0.0025, dci, grant, 2,
                          is_retransmission=False)
        record = log.records[0]
        assert record == TelemetryRecord(
            slot_index=5, time_s=0.0025, rnti=0x4601, downlink=True,
            tbs_bits=grant.tbs_bits, n_prb=4, n_symbols=12,
            mcs_index=10, harq_id=2, ndi=1, rv=0,
            is_retransmission=False, aggregation_level=2)
        assert record.n_regs == 4 * 12
        assert record.downlink

    def test_json_roundtrip(self):
        import json
        record = make_record()
        data = json.loads(record.to_json())
        assert data["v"] == TELEMETRY_SCHEMA_VERSION
        assert TelemetryRecord.from_dict(data) == record

    def test_from_dict_reads_v1_lines(self):
        # A v1 stream has no "v" marker: just the bare record fields.
        import json
        record = make_record()
        data = json.loads(record.to_json())
        del data["v"]
        assert TelemetryRecord.from_dict(data) == record

    def test_from_dict_ignores_future_fields(self):
        # A newer writer may add fields; this reader must skip them.
        import json
        record = make_record()
        data = json.loads(record.to_json())
        data["v"] = TELEMETRY_SCHEMA_VERSION + 1
        data["beam_index"] = 3
        assert TelemetryRecord.from_dict(data) == record

    def test_from_dict_missing_field_raises(self):
        import json
        data = json.loads(make_record().to_json())
        del data["rnti"]
        with pytest.raises(TelemetryError, match="rnti"):
            TelemetryRecord.from_dict(data)


class TestLogQueries:
    def make_log(self):
        log = TelemetryLog()
        for i in range(10):
            log.add(make_record(slot=i, time_s=i * 0.1, tbs=8000))
        for i in range(5):
            log.add(make_record(slot=i, time_s=i * 0.1, rnti=0x4602,
                                tbs=4000, retx=(i % 2 == 1)))
        log.add(make_record(slot=20, time_s=0.35, downlink=False,
                            tbs=2000))
        return log

    def test_counts(self):
        log = self.make_log()
        assert len(log) == 16
        assert log.rntis() == [0x4601, 0x4602]
        assert len(log.for_rnti(0x4601)) == 11
        assert len(log.for_rnti(0x4601, downlink=True)) == 10

    def test_bits_between_excludes_retx(self):
        log = self.make_log()
        with_retx = log.bits_between(0x4602, 0.0, 1.0,
                                     count_retransmissions=True)
        without = log.bits_between(0x4602, 0.0, 1.0)
        assert with_retx == 5 * 4000
        assert without == 3 * 4000

    def test_bitrate_series(self):
        log = self.make_log()
        series = log.bitrate_series(0x4601, window_s=0.5, end_time_s=1.0)
        assert len(series) == 2
        # Records at t = 0.0..0.4 land in the first window.
        assert series[0][1] == pytest.approx(5 * 8000 / 0.5)

    def test_bad_window(self):
        with pytest.raises(TelemetryError):
            self.make_log().bitrate_series(1, 0.0, 1.0)

    def test_mcs_distribution_skips_retx(self):
        log = self.make_log()
        assert len(log.mcs_distribution(0x4602)) == 3

    def test_retransmission_ratio(self):
        log = self.make_log()
        assert log.retransmission_ratio(0x4602) == pytest.approx(2 / 5)
        assert log.retransmission_ratio(0x4601) == 0.0

    def test_jsonl_roundtrip(self, tmp_path):
        log = self.make_log()
        path = tmp_path / "session.jsonl"
        count = log.write_jsonl(path)
        assert count == 16
        reloaded = TelemetryLog.read_jsonl(path)
        assert len(reloaded) == 16
        assert reloaded.records == log.records

    def test_read_jsonl_accepts_v1_file(self, tmp_path):
        # Strip the schema marker to fabricate a pre-versioning log.
        import json
        log = self.make_log()
        path = tmp_path / "v1.jsonl"
        log.write_jsonl(path)
        lines = []
        for line in path.read_text().splitlines():
            data = json.loads(line)
            data.pop("v")
            lines.append(json.dumps(data))
        path.write_text("\n".join(lines) + "\n")
        reloaded = TelemetryLog.read_jsonl(path)
        assert reloaded.records == log.records
