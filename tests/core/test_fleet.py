"""Tests for the checkpointable fleet supervisor."""

import pickle
import zlib

import pytest

from repro.analysis.summary import build_session_report
from repro.constants import TTI_DURATION_S
from repro.core.fleet import CHECKPOINT_HEADER, CHECKPOINT_MAGIC, \
    CHECKPOINT_VERSION, FleetConfig, FleetError, FleetSupervisor
from repro.obs import KNOWN_EVENTS, ObsContext, RingReporter, \
    validate_events

#: Slot duration at 30 kHz SCS, the simulated cells' numerology.
SLOT_S = TTI_DURATION_S[30]


def small_config(**overrides) -> FleetConfig:
    defaults = dict(n_cells=2, seed=3, arrivals_per_second=3.0,
                    holding_p90_s=4.0, horizon_s=1.2,
                    checkpoint_interval_s=0.6)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def spare_of(supervisor: FleetSupervisor) -> dict:
    """Per cell: every RNTI's spare PRB and bit-rate series, and the
    session report's PRB utilisation."""
    out = {}
    for name in supervisor.controller.cells:
        scope = supervisor.controller.stream(name).scope
        rntis = sorted(set(scope.telemetry.rntis())
                       | set(scope.tracked_rntis))
        out[name] = (
            {rnti: scope.spare.prb_series(rnti) for rnti in rntis},
            {rnti: scope.spare.spare_rate_series(rnti, SLOT_S)
             for rnti in rntis},
            build_session_report(scope, supervisor.now_s)
            .cell.mean_prb_utilisation)
    return out


def payload_of(path) -> bytes:
    """The pickled payload of a checkpoint file, header stripped."""
    return path.read_bytes()[CHECKPOINT_HEADER.size:]


def write_framed(path, payload: bytes, version: int) -> None:
    """Write ``payload`` behind a valid header claiming ``version``."""
    path.write_bytes(CHECKPOINT_HEADER.pack(
        CHECKPOINT_MAGIC, version, len(payload), zlib.crc32(payload))
        + payload)


def telemetry_of(supervisor: FleetSupervisor) -> dict:
    out = {}
    for name in supervisor.controller.cells:
        scope = supervisor.controller.stream(name).scope
        out[name] = scope.telemetry.records
    return out


class TestBuild:
    def test_build_names_and_populations(self):
        supervisor = FleetSupervisor.build(small_config())
        assert supervisor.controller.cells == ["srsran-0", "srsran-1"]
        for name in supervisor.controller.cells:
            sim = supervisor.controller.stream(name).sim
            assert sim._sessions, f"{name} has no come-and-go sessions"

    def test_cells_use_distinct_seeds_and_ue_ids(self):
        supervisor = FleetSupervisor.build(small_config())
        seeds = set()
        ue_ids = []
        for name in supervisor.controller.cells:
            sim = supervisor.controller.stream(name).sim
            seeds.add(sim.seed)
            ue_ids.extend(e.session.ue_id for e in sim._sessions)
        assert len(seeds) == 2
        assert len(ue_ids) == len(set(ue_ids))

    def test_rejects_bad_configs(self):
        with pytest.raises(FleetError):
            FleetSupervisor.build(small_config(n_cells=0))
        with pytest.raises(FleetError):
            FleetSupervisor.build(small_config(profile="nope"))
        with pytest.raises(FleetError):
            FleetSupervisor.build(small_config(horizon_s=0.0))
        with pytest.raises(FleetError):
            FleetSupervisor.build(
                small_config(checkpoint_interval_s=0.0))

    def test_negative_run_rejected(self):
        supervisor = FleetSupervisor.build(small_config())
        with pytest.raises(FleetError):
            supervisor.run(-1.0)


class TestCheckpointResume:
    def test_resumed_run_is_identical_to_uninterrupted(self, tmp_path):
        config = small_config()
        baseline = FleetSupervisor.build(config)
        baseline.run(1.2)

        path = tmp_path / "fleet.ckpt"
        interrupted = FleetSupervisor.build(config)
        interrupted.run(0.6, checkpoint_path=path)
        del interrupted  # the killed process
        resumed = FleetSupervisor.restore(path)
        assert resumed.now_s == pytest.approx(0.6)
        resumed.run(0.6)

        assert resumed.now_s == pytest.approx(baseline.now_s)
        want, got = telemetry_of(baseline), telemetry_of(resumed)
        assert want.keys() == got.keys()
        for name in want:
            assert want[name] == got[name], f"{name} diverged"
            a = baseline.controller.stream(name).scope
            b = resumed.controller.stream(name).scope
            assert a.counters == b.counters
            assert a.tracked_rntis == b.tracked_rntis
        want, got = spare_of(baseline), spare_of(resumed)
        for name in want:
            prbs, rates, utilisation = want[name]
            assert any(prbs.values()), f"{name} has no spare shares"
            assert utilisation > 0.0
            assert got[name] == want[name], f"{name} spare diverged"

    def test_resumed_jsonl_bytes_identical(self, tmp_path):
        config = small_config(n_cells=1)
        baseline = FleetSupervisor.build(config)
        baseline.run(1.2)
        path = tmp_path / "fleet.ckpt"
        interrupted = FleetSupervisor.build(config)
        interrupted.run(0.6, checkpoint_path=path)
        resumed = FleetSupervisor.restore(path)
        resumed.run(0.6)
        cell = baseline.controller.cells[0]
        a_path = tmp_path / "a.jsonl"
        b_path = tmp_path / "b.jsonl"
        baseline.controller.stream(cell).scope.telemetry \
            .write_jsonl(a_path)
        resumed.controller.stream(cell).scope.telemetry \
            .write_jsonl(b_path)
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_checkpoint_written_atomically(self, tmp_path):
        supervisor = FleetSupervisor.build(small_config(n_cells=1))
        path = tmp_path / "fleet.ckpt"
        supervisor.run(0.6, checkpoint_path=path)
        assert path.exists()
        assert not path.with_suffix(".ckpt.tmp").exists()

    def test_restore_missing_file_raises(self, tmp_path):
        with pytest.raises(FleetError):
            FleetSupervisor.restore(tmp_path / "absent.ckpt")

    def test_restore_rejects_foreign_version(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        write_framed(path, pickle.dumps({"cells": []}),
                     CHECKPOINT_VERSION + 1)
        with pytest.raises(FleetError,
                           match=f"version: {CHECKPOINT_VERSION + 1}"):
            FleetSupervisor.restore(path)

    @pytest.mark.parametrize("version", range(1, CHECKPOINT_VERSION))
    def test_restore_rejects_previous_version(self, tmp_path, version):
        # Why a blob of each earlier version cannot resume here:
        #   1: the spare estimator held an object history;
        #   2: the gNB stepped each UE's channel alone, with no UE table;
        #   3: the gNB called every traffic model each slot, with no due
        #      schedule;
        #   4: the config named an executor and the scope counters held
        #      dropped DCIs;
        #   5: the gNB held the generator of its iq grids' PDSCH REs;
        #   6: the spare estimator raised on an overbooked TTI and kept
        #      no count of them;
        #   7: the gNB log held one record object per DCI and UCI;
        #   8: the gNB kept HARQ payloads and geometries beside its
        #      processes, and each UE's capture held record objects;
        #   9: the scope kept per-UE throughput windows and a packets-
        #      per-TTI list beside its telemetry store.
        assert CHECKPOINT_VERSION == 10
        path = tmp_path / "fleet.ckpt"
        supervisor = FleetSupervisor.build(small_config(n_cells=1))
        supervisor.run(0.3, checkpoint_path=path)
        write_framed(path, payload_of(path), version)
        with pytest.raises(FleetError, match=(
                rf"version: {version} \(this build reads version 10\)")):
            FleetSupervisor.restore(path)

    def test_restore_rejects_garbage(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(FleetError):
            FleetSupervisor.restore(path)


    def test_write_segments_per_cell(self, tmp_path):
        supervisor = FleetSupervisor.build(small_config())
        supervisor.run(0.6)
        written = supervisor.write_segments(tmp_path / "segments")
        assert set(written) == set(supervisor.controller.cells)
        for name, rows in written.items():
            scope = supervisor.controller.stream(name).scope
            assert rows == len(scope.telemetry)
            assert (tmp_path / "segments" / name
                    / "manifest.json").exists()


class TestCheckpointFaults:
    """A damaged checkpoint is a FleetError naming the file, never a
    resumed run with different state."""

    @pytest.fixture
    def written(self, tmp_path):
        path = tmp_path / "fleet.ckpt"
        supervisor = FleetSupervisor.build(small_config(n_cells=1))
        supervisor.run(0.6, checkpoint_path=path)
        return supervisor, path

    def test_truncated_mid_file(self, written):
        _, path = written
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(FleetError, match=f"truncated.*{path.name}"):
            FleetSupervisor.restore(path)

    def test_truncated_inside_header(self, written):
        _, path = written
        path.write_bytes(path.read_bytes()[:CHECKPOINT_HEADER.size - 1])
        with pytest.raises(FleetError, match=f"truncated.*{path.name}"):
            FleetSupervisor.restore(path)

    def test_bit_flip_in_a_column_array(self, written):
        # The flip lands inside the gNB log's packed DCI rows: the
        # pickle still loads, and only the CRC tells the state apart.
        supervisor, path = written
        data = bytearray(path.read_bytes())
        log = supervisor.controller.stream(
            supervisor.controller.cells[0]).sim.gnb.log
        rows = bytes(log._dci_rows)
        at = data.find(rows)
        assert at > 0 and data.find(rows, at + 1) < 0
        data[at + len(rows) // 2] ^= 0x10
        flipped = bytes(data[CHECKPOINT_HEADER.size:])
        assert pickle.loads(flipped)  # unpickles cleanly
        path.write_bytes(bytes(data))
        with pytest.raises(FleetError, match=f"corrupt.*{path.name}"):
            FleetSupervisor.restore(path)

    def test_bad_magic(self, written):
        _, path = written
        data = bytearray(path.read_bytes())
        data[0] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(FleetError, match=f"not a fleet.*{path.name}"):
            FleetSupervisor.restore(path)

    def test_clean_round_trip_resumes(self, written, tmp_path):
        supervisor, path = written
        restored = FleetSupervisor.restore(path)
        supervisor.run(0.3)
        restored.run(0.3)
        assert telemetry_of(restored) == telemetry_of(supervisor)


class TestObsSpans:
    def test_checkpoint_and_restore_spans_on_the_bus(self, tmp_path):
        ring = RingReporter()
        obs = ObsContext.create([ring], run_id="fleet-test")
        supervisor = FleetSupervisor.build(
            small_config(n_cells=1), obs=obs)
        path = tmp_path / "fleet.ckpt"
        supervisor.run(0.6, checkpoint_path=path)
        FleetSupervisor.restore(path, obs=obs)
        events = ring.events
        checkpoints = [e for e in events
                       if e["name"] == "fleet.checkpoint"]
        restores = [e for e in events if e["name"] == "fleet.restore"]
        assert len(checkpoints) == 1
        assert len(restores) == 1
        for event in checkpoints + restores:
            assert event["kind"] == "span"
            assert event["cells"] == 1
            assert event["bytes"] > 0
            assert event["duration_us"] > 0
        assert validate_events(events, registry=KNOWN_EVENTS) == []
