"""Tests for the columnar telemetry store.

The reference implementations here replicate the seed's per-record
loops (object list + Python accumulation) so every vectorized kernel
is checked for *exact* agreement — including hypothesis-generated
record batches and a seeded end-to-end sniff session.
"""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import TTI_DURATION_S
from repro.core.telemetry import TelemetryLog, TelemetryRecord
from repro.core.telemetry_store import DEFAULT_CHUNK_ROWS, \
    RECORD_DTYPE, RECORD_FIELDS, TelemetryStore, TelemetryStoreError, \
    window_count, window_edges

#: Slot duration at 30 kHz SCS, the simulated cells' numerology.
SLOT_S = TTI_DURATION_S[30]


def make_row(slot=0, time_s=0.0, rnti=0x4601, downlink=True, tbs=1000,
             n_prb=4, n_symbols=12, mcs=10, harq=0, ndi=0, rv=0,
             retx=False, level=2):
    return dict(slot_index=slot, time_s=time_s, rnti=rnti,
                downlink=downlink, tbs_bits=tbs, n_prb=n_prb,
                n_symbols=n_symbols, mcs_index=mcs, harq_id=harq,
                ndi=ndi, rv=rv, is_retransmission=retx,
                aggregation_level=level)


def fill(store: TelemetryStore, rows) -> TelemetryStore:
    for row in rows:
        store.append(**row)
    return store


# ------------------------------------------------ reference semantics
# The seed's loops, kept as executable documentation of the query
# semantics every kernel must reproduce exactly.

def ref_bits_between(rows, rnti, start_s, end_s, downlink=True,
                     count_retransmissions=False):
    total = 0
    for row in rows:
        if row["rnti"] != rnti or row["downlink"] != downlink:
            continue
        if not (start_s <= row["time_s"] < end_s):
            continue
        if row["is_retransmission"] and not count_retransmissions:
            continue
        total += row["tbs_bits"]
    return total


def ref_bitrate_series(rows, rnti, window_s, end_time_s):
    n = max(0, int(math.floor((end_time_s + 1e-9) / window_s)))
    return [((k + 1) * window_s,
             ref_bits_between(rows, rnti, k * window_s,
                              (k + 1) * window_s) / window_s)
            for k in range(n)]


def ref_mcs_distribution(rows, rnti=None, downlink=True):
    return [row["mcs_index"] for row in rows
            if row["downlink"] == downlink
            and not row["is_retransmission"]
            and (rnti is None or row["rnti"] == rnti)]


def ref_retransmission_ratio(rows, rnti=None, downlink=True):
    relevant = [row for row in rows if row["downlink"] == downlink
                and (rnti is None or row["rnti"] == rnti)]
    if not relevant:
        return 0.0
    return sum(bool(r["is_retransmission"])
               for r in relevant) / len(relevant)


row_strategy = st.builds(
    make_row,
    slot=st.integers(0, 10_000),
    time_s=st.floats(0.0, 8.0, allow_nan=False, width=32),
    rnti=st.sampled_from([0x4601, 0x4602, 0x4603, 0x9999]),
    downlink=st.booleans(),
    tbs=st.integers(0, 2_000_000),
    n_prb=st.integers(1, 51),
    n_symbols=st.sampled_from([4, 7, 12, 14]),
    mcs=st.integers(0, 27),
    harq=st.integers(0, 15),
    ndi=st.integers(0, 1),
    rv=st.integers(0, 3),
    retx=st.booleans(),
    level=st.sampled_from([1, 2, 4, 8, 16]))


class TestStoreBasics:
    def test_empty(self):
        store = TelemetryStore()
        assert len(store) == 0
        assert store.table().shape == (0,)
        assert store.rntis() == []
        assert store.bits_between(1, 0.0, 1.0) == 0
        assert store.mcs_distribution() == []
        assert store.retransmission_ratio() == 0.0

    def test_append_and_table_order(self):
        store = fill(TelemetryStore(), [
            make_row(slot=i, time_s=i * SLOT_S, tbs=100 + i)
            for i in range(10)])
        assert len(store) == 10
        assert store.table()["tbs_bits"].tolist() == \
            [100 + i for i in range(10)]

    def test_chunk_sealing_preserves_order(self):
        rows = [make_row(slot=i, time_s=i * 1e-3, tbs=i)
                for i in range(11)]
        small = fill(TelemetryStore(chunk_rows=4), rows)
        large = fill(TelemetryStore(), rows)
        assert small.table().tolist() == large.table().tolist()
        assert small.chunk_rows == 4
        assert large.chunk_rows == DEFAULT_CHUNK_ROWS

    def test_bad_chunk_rows(self):
        with pytest.raises(TelemetryStoreError):
            TelemetryStore(chunk_rows=0)

    def test_column_unknown_name(self):
        with pytest.raises(TelemetryStoreError):
            TelemetryStore().column("nope")

    def test_record_fields_match_dtype(self):
        assert RECORD_FIELDS == tuple(RECORD_DTYPE.names)

    def test_rows_for_rnti_tracks_appends(self):
        store = fill(TelemetryStore(), [make_row(rnti=1), make_row(rnti=2)])
        assert store.rows_for_rnti(1).tolist() == [0]
        store.append(**make_row(rnti=1, slot=2))
        # The index cache must refresh after the append.
        assert store.rows_for_rnti(1).tolist() == [0, 2]
        assert store.rntis() == [1, 2]

    def test_out_of_range_value_fails_loudly(self):
        store = TelemetryStore()
        with pytest.raises(OverflowError):
            store.append(**make_row(rnti=2**40))


class TestWindowing:
    def test_window_count_matches_seed_loop(self):
        # The seed's `while t < end: t += w` count, for drift-free
        # values of the accumulation.
        for end, w in [(1.0, 0.2), (0.9999, 0.2), (0.2, 0.2),
                       (0.0, 0.2), (10.0, 0.3), (2.5, 0.5)]:
            n = 0
            t = 0.0
            while t + w <= end + 1e-9:
                n += 1
                t = n * w  # drift-free accumulation
            assert window_count(end, w) == n, (end, w)

    def test_window_count_rejects_bad_window(self):
        with pytest.raises(TelemetryStoreError):
            window_count(1.0, 0.0)

    def test_edges_bitwise_match_python_multiplication(self):
        edges = window_edges(1000, 0.2)
        for k in (0, 1, 3, 7, 500, 999, 1000):
            assert edges[k] == k * 0.2

    def test_series_edges_are_exact_multiples(self):
        store = fill(TelemetryStore(), [
            make_row(slot=i, time_s=i * 0.05, tbs=100)
            for i in range(100)])
        series = store.bitrate_series(0x4601, 0.2, 5.0)
        assert len(series) == 25
        for k, (edge, _) in enumerate(series):
            assert edge == (k + 1) * 0.2  # exact, not approximate

    def test_edge_record_lands_in_right_window(self):
        # A record exactly on an edge belongs to the *later* window:
        # [k*w, (k+1)*w).
        store = fill(TelemetryStore(),
                     [make_row(time_s=0.2, tbs=800)])
        series = store.bitrate_series(0x4601, 0.2, 0.4)
        assert series[0][1] == 0.0
        assert series[1][1] == pytest.approx(800 / 0.2)


class TestKernelsAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(row_strategy, max_size=60),
           chunk_rows=st.sampled_from([3, 7, DEFAULT_CHUNK_ROWS]))
    def test_all_queries_match_reference(self, rows, chunk_rows):
        store = fill(TelemetryStore(chunk_rows=chunk_rows), rows)
        rntis = sorted({row["rnti"] for row in rows})
        assert store.rntis() == rntis
        for rnti in rntis + [0x1111]:
            for start, end in [(0.0, 9.0), (1.0, 3.0), (4.0, 4.0)]:
                for retx in (False, True):
                    assert store.bits_between(
                        rnti, start, end,
                        count_retransmissions=retx) == \
                        ref_bits_between(rows, rnti, start, end,
                                         count_retransmissions=retx)
            assert store.bitrate_series(rnti, 0.7, 8.0) == \
                ref_bitrate_series(rows, rnti, 0.7, 8.0)
            assert store.mcs_distribution(rnti) == \
                ref_mcs_distribution(rows, rnti)
            assert store.retransmission_ratio(rnti) == \
                ref_retransmission_ratio(rows, rnti)
        assert store.mcs_distribution() == ref_mcs_distribution(rows)
        assert store.retransmission_ratio() == \
            ref_retransmission_ratio(rows)

    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(row_strategy, max_size=40))
    def test_activity_matrix_matches_per_rnti_loop(self, rows):
        store = fill(TelemetryStore(), rows)
        rntis = sorted({row["rnti"] for row in rows}) + [0x1111]
        bin_s, end_s = 0.5, 8.0
        matrix = store.activity_matrix(rntis, bin_s, end_s)
        n_bins = max(1, int(round(end_s / bin_s)))
        assert matrix.shape == (len(rntis), n_bins)
        for i, rnti in enumerate(rntis):
            expected = np.zeros(n_bins)
            for row in rows:
                if row["rnti"] != rnti or not row["downlink"] \
                        or row["is_retransmission"]:
                    continue
                b = min(int(row["time_s"] / bin_s), n_bins - 1)
                expected[b] += row["tbs_bits"]
            assert np.array_equal(matrix[i], expected)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(row_strategy, max_size=40),
           chunk_rows=st.sampled_from([1, 3, 7, DEFAULT_CHUNK_ROWS]),
           after_s=st.sampled_from([-1.0, 0.0, 2.5, 4.0, 8.0]))
    def test_rows_after_matches_filter(self, rows, chunk_rows, after_s):
        # The sniffer appends in time order, which the scan relies on.
        rows = sorted(rows, key=lambda row: row["time_s"])
        store = fill(TelemetryStore(chunk_rows=chunk_rows), rows)
        tail = store.rows_after(after_s)
        assert tail.dtype == RECORD_DTYPE
        assert tail["time_s"].tolist() == \
            [row["time_s"] for row in rows if row["time_s"] > after_s]
        table = store.table()
        assert np.array_equal(tail, table[table["time_s"] > after_s])

    def test_time_extents(self):
        store = fill(TelemetryStore(), [
            make_row(rnti=7, time_s=0.25), make_row(rnti=7, time_s=1.5),
            make_row(rnti=9, time_s=0.5)])
        assert store.time_extents(7) == (0.25, 1.5)
        assert store.time_extents(9) == (0.5, 0.5)
        assert store.time_extents(1234) is None


class TestPersistence:
    def test_segments_roundtrip(self, tmp_path):
        rows = [make_row(slot=i, time_s=i * 1e-3, tbs=i, rnti=5 + i % 3)
                for i in range(11)]
        store = fill(TelemetryStore(chunk_rows=4), rows)
        store.write_segments(tmp_path / "seg")
        loaded = TelemetryStore.read_segments(tmp_path / "seg")
        assert loaded.table().tolist() == store.table().tolist()
        assert loaded.rntis() == store.rntis()

    def test_failed_write_keeps_previous_segments(self, tmp_path,
                                                  monkeypatch):
        old = fill(TelemetryStore(chunk_rows=4),
                   [make_row(slot=i, tbs=i) for i in range(6)])
        old.write_segments(tmp_path / "seg")
        new = fill(TelemetryStore(chunk_rows=4),
                   [make_row(slot=i, tbs=100 + i) for i in range(11)])
        real_save = np.save
        calls = []

        def failing_save(file, arr, *args, **kwargs):
            calls.append(file)
            if len(calls) == 2:
                raise OSError("disk full")
            real_save(file, arr, *args, **kwargs)

        monkeypatch.setattr(np, "save", failing_save)
        with pytest.raises(OSError):
            new.write_segments(tmp_path / "seg")
        monkeypatch.undo()
        loaded = TelemetryStore.read_segments(tmp_path / "seg")
        assert loaded.table().tolist() == old.table().tolist()
        assert not list((tmp_path / "seg").glob("*.tmp"))
        new.write_segments(tmp_path / "seg")
        loaded = TelemetryStore.read_segments(tmp_path / "seg")
        assert loaded.table().tolist() == new.table().tolist()

    def test_segments_reject_foreign_dtype(self, tmp_path):
        store = fill(TelemetryStore(chunk_rows=4),
                     [make_row() for _ in range(3)])
        store.write_segments(tmp_path / "seg")
        manifest = (tmp_path / "seg" / "manifest.json")
        text = manifest.read_text().replace("slot_index", "slot_xndex")
        manifest.write_text(text)
        with pytest.raises(TelemetryStoreError):
            TelemetryStore.read_segments(tmp_path / "seg")

    @staticmethod
    def _truncate_segment(seg):
        path = seg / "segment-00001.npy"
        path.write_bytes(path.read_bytes()[:20])
        return "segment-00001.npy"

    @staticmethod
    def _delete_segment(seg):
        (seg / "segment-00001.npy").unlink()
        return "segment-00001.npy"

    @staticmethod
    def _garble_manifest(seg):
        (seg / "manifest.json").write_text("{not json")
        return "manifest.json"

    @staticmethod
    def _segments_not_a_list(seg):
        manifest = seg / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["segments"] = 7
        manifest.write_text(json.dumps(doc))
        return "manifest.json"

    @staticmethod
    def _segment_outside_directory(seg):
        # A valid segment one level up: read, it would load rows from
        # outside the store's directory.
        (seg / "segment-00000.npy").rename(seg.parent / "x.npy")
        manifest = seg / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["segments"][0] = "../x.npy"
        manifest.write_text(json.dumps(doc))
        return "../x.npy"

    @pytest.mark.parametrize("damage", [
        "_truncate_segment", "_delete_segment", "_garble_manifest",
        "_segments_not_a_list", "_segment_outside_directory"])
    def test_damaged_segments_raise_typed_error(self, tmp_path, damage):
        """Every damaged segment directory ends in a TelemetryStoreError
        that names the file at fault."""
        store = fill(TelemetryStore(chunk_rows=4),
                     [make_row(slot=i, tbs=i) for i in range(11)])
        seg = tmp_path / "seg"
        store.write_segments(seg)
        culprit = getattr(self, damage)(seg)
        with pytest.raises(TelemetryStoreError) as excinfo:
            TelemetryStore.read_segments(seg)
        assert culprit in str(excinfo.value)

    def test_pickle_roundtrip_keeps_rows_and_queries(self):
        rows = [make_row(slot=i, time_s=i * 0.1, tbs=50 * i,
                         retx=i % 3 == 0) for i in range(10)]
        store = fill(TelemetryStore(chunk_rows=4), rows)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.table().tolist() == store.table().tolist()
        assert clone.bitrate_series(0x4601, 0.3, 1.0) == \
            store.bitrate_series(0x4601, 0.3, 1.0)
        # The clone must stay appendable (head chunk rebuilt).
        clone.append(**make_row(slot=99))
        assert len(clone) == len(store) + 1


class TestFacadeEquivalence:
    def test_jsonl_bytes_identical_to_record_loop(self, tmp_path):
        log = TelemetryLog()
        for i in range(25):
            log.add(TelemetryRecord(
                slot_index=i, time_s=i * SLOT_S, rnti=0x4601 + i % 3,
                downlink=i % 4 != 0, tbs_bits=999 + i, n_prb=4,
                n_symbols=12, mcs_index=i % 28, harq_id=i % 16,
                ndi=i % 2, rv=0, is_retransmission=i % 5 == 0,
                aggregation_level=2))
        path = tmp_path / "log.jsonl"
        log.write_jsonl(path)
        expected = "".join(r.to_json() + "\n" for r in log.records)
        assert path.read_text(encoding="utf-8") == expected
        reloaded = TelemetryLog.read_jsonl(path)
        assert reloaded.records == log.records

    def test_seeded_session_queries_match_record_loops(self):
        from repro.core.scope import NRScope
        from repro.gnb.cell_config import SRSRAN_PROFILE
        from repro.simulation import Simulation

        sim = Simulation.build(SRSRAN_PROFILE, n_ues=3, seed=7)
        scope = NRScope.attach(sim, snr_db=15.0)
        sim.run(seconds=1.0)
        telemetry = scope.telemetry
        rows = [dict(slot_index=r.slot_index, time_s=r.time_s,
                     rnti=r.rnti, downlink=r.downlink,
                     tbs_bits=r.tbs_bits,
                     is_retransmission=r.is_retransmission,
                     mcs_index=r.mcs_index)
                for r in telemetry.records]
        assert len(rows) > 100
        now = sim.now_s
        for rnti in telemetry.rntis():
            assert telemetry.bits_between(rnti, 0.0, now) == \
                ref_bits_between(rows, rnti, 0.0, now)
            assert telemetry.bitrate_series(rnti, 0.2, now) == \
                ref_bitrate_series(rows, rnti, 0.2, now)
            assert telemetry.mcs_distribution(rnti) == \
                ref_mcs_distribution(rows, rnti)
            assert telemetry.retransmission_ratio(rnti) == \
                ref_retransmission_ratio(rows, rnti)
