"""Tests for the ObsContext / no-op singleton pair."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import OBS_NOOP, JsonlReporter, ObsContext, RingReporter, \
    validate_events
from repro.obs.context import _microseconds


class TestNoOp:
    def test_create_without_reporters_is_the_singleton(self):
        assert ObsContext.create() is OBS_NOOP
        assert ObsContext.create(()) is OBS_NOOP

    def test_falsy_and_disabled(self):
        assert not OBS_NOOP
        assert OBS_NOOP.enabled is False

    def test_bind_returns_self(self):
        assert OBS_NOOP.bind(cell="a") is OBS_NOOP

    def test_all_methods_are_no_ops(self):
        OBS_NOOP.emit("x", rnti=1)
        OBS_NOOP.count("x", value=2)
        OBS_NOOP.timing("x", 0.5)
        with OBS_NOOP.span("x"):
            pass
        OBS_NOOP.close()


class TestEnabled:
    def make(self, **kwargs):
        ring = RingReporter()
        obs = ObsContext.create([ring], run_id="r1", **kwargs)
        return obs, ring

    def test_truthy_and_enabled(self):
        obs, _ = self.make()
        assert obs
        assert obs.enabled
        assert obs.run_id == "r1"

    def test_envelope_fields(self):
        obs, ring = self.make()
        obs.emit("dci.miss", rnti=0x4601, slot=7)
        [event] = ring.events
        assert event["kind"] == "event"
        assert event["name"] == "dci.miss"
        assert event["run_id"] == "r1"
        assert event["seq"] == 0
        assert event["rnti"] == 0x4601

    def test_seq_is_strictly_increasing(self):
        obs, ring = self.make()
        for i in range(5):
            obs.emit("e", slot=i)
        assert [e["seq"] for e in ring.events] == list(range(5))
        assert validate_events(ring.events) == []

    def test_count_and_timing_kinds(self):
        obs, ring = self.make()
        obs.count("dci.decoded", value=3)
        obs.timing("stage.span", 0.001, stage="dci")
        counter, span = ring.events
        assert counter["kind"] == "counter" and counter["value"] == 3
        assert span["kind"] == "span"
        assert span["duration_us"] == pytest.approx(1000.0)

    def test_span_contextmanager_measures(self):
        obs, ring = self.make()
        with obs.span("stage.span", stage="x"):
            pass
        [event] = ring.events
        assert event["duration_us"] >= 0.0

    def test_bind_adds_constant_labels_shares_seq(self):
        obs, ring = self.make()
        child = obs.bind(cell="srsran")
        obs.emit("a")
        child.emit("b")
        first, second = ring.events
        assert "cell" not in first
        assert second["cell"] == "srsran"
        assert second["seq"] == first["seq"] + 1
        assert validate_events(ring.events) == []

    def test_explicit_fields_override_labels(self):
        obs, ring = self.make()
        child = obs.bind(cell="a")
        child.emit("x", cell="b")
        assert ring.events[0]["cell"] == "b"

    def test_reporter_exceptions_are_swallowed(self):
        class Broken:
            def emit(self, event):
                raise RuntimeError("boom")

            def close(self):
                pass

        ring = RingReporter()
        obs = ObsContext.create([Broken(), ring], run_id="r1")
        obs.emit("x")
        assert obs.reporter_errors == 1
        assert len(ring.events) == 1

    def test_default_run_id_is_generated(self):
        obs = ObsContext.create([RingReporter()])
        assert len(obs.run_id) == 12


#: The stream of :meth:`TestAssembly.test_lines_are_byte_exact`, as the
#: bus assembled it before events were copied from cached heads.
EXPECTED_LINES = [
    '{"v":1,"seq":0,"run_id":"r1","kind":"event","name":"session.start",'
    '"site":"lab","fidelity":"iq","seed":7}',
    '{"v":1,"seq":1,"run_id":"r1","kind":"event","name":"dci.miss",'
    '"site":"lab","cell":"a","rnti":17921,"slot":3}',
    '{"v":1,"seq":2,"run_id":"r1","kind":"event","name":"dci.miss",'
    '"site":"lab","cell":"z","slot":4}',
    '{"v":1,"seq":3,"run_id":"r1","kind":"counter","name":"dci.decoded",'
    '"site":"lab","cell":"b","stage":"dci","value":2}',
    '{"v":1,"seq":4,"run_id":"r1","kind":"counter","name":"dci.decoded",'
    '"site":"lab","cell":"a","value":1}',
    '{"v":1,"seq":5,"run_id":"r1","kind":"counter","name":"dci.decoded",'
    '"site":"lab","cell":"b","stage":"rach","value":3,"slot":5}',
    '{"v":1,"seq":6,"run_id":"r1","kind":"span","name":"stage.span",'
    '"site":"lab","cell":"b","stage":"dci","duration_us":1234.568,'
    '"slot":5,"outcome":"ok"}',
    '{"v":1,"seq":7,"run_id":"r1","kind":"span","name":"stage.span",'
    '"site":"lab","cell":"a","duration_us":25.0,"stage":"sync","slot":0,'
    '"outcome":"halt"}',
    '{"v":1,"seq":"fixed","run_id":"r1","kind":"span",'
    '"name":"fleet.checkpoint","site":"lab","duration_us":250000.0,'
    '"bytes":4096}',
    '{"v":1,"seq":9,"run_id":"r1","kind":"event","name":"session.end",'
    '"site":"lab","slots":6}',
]


class TestAssembly:
    """Every way of emitting, through ``JsonlReporter``, byte for byte."""

    def test_lines_are_byte_exact(self, tmp_path):
        path = tmp_path / "events.jsonl"
        obs = ObsContext.create([JsonlReporter(path)], run_id="r1",
                                site="lab")
        cell = obs.bind(cell="a")
        stage = cell.bind(stage="dci", cell="b")
        fixed = obs.bind(seq="fixed")
        obs.emit("session.start", fidelity="iq", seed=7)
        cell.emit("dci.miss", rnti=0x4601, slot=3)
        # A field overrides a label in the label's place.
        cell.emit("dci.miss", cell="z", slot=4)
        stage.emit("dci.decoded", _kind="counter", value=2)
        cell.count("dci.decoded")
        stage.count("dci.decoded", value=3, slot=5, stage="rach")
        stage.timing("stage.span", 0.0012345678, slot=5, outcome="ok")
        # The runtime's halted-slot span: the stage is a field.
        cell.timing("stage.span", 2.5e-05, stage="sync", slot=0,
                    outcome="halt")
        # A label named seq stands in for the counter, which still
        # advances.
        fixed.timing("fleet.checkpoint", 0.25, bytes=4096)
        obs.emit("session.end", slots=6)
        obs.close()
        assert path.read_text().splitlines() == EXPECTED_LINES

    @pytest.mark.parametrize("call", [
        lambda obs: obs.count("x", _kind="event"),
        lambda obs: obs.timing("x", 0.1, duration_us=1.0),
        lambda obs: obs.timing("x", 0.1, _kind="event"),
    ])
    def test_duplicate_keywords_raise_and_emit_nothing(self, call):
        ring = RingReporter()
        obs = ObsContext.create([ring], run_id="r1").bind(cell="a")
        with pytest.raises(TypeError, match="multiple values"):
            call(obs)
        obs.emit("after")
        assert [e["seq"] for e in ring.events] == [0]


def _bits(value):
    return struct.pack("<d", value)


class TestMicroseconds:
    """``timing`` stamps ``round(duration_s * 1e6, 3)``, bit for bit."""

    @given(st.floats(allow_nan=False))
    @settings(max_examples=400, deadline=None)
    def test_any_float(self, duration_s):
        assert _bits(_microseconds(duration_s)) == \
            _bits(round(duration_s * 1e6, 3))

    @given(st.integers(0, 10 ** 12), st.integers(-4, 4))
    @settings(max_examples=400, deadline=None)
    def test_near_ties(self, thousandths, ulps):
        # Durations whose nanosecond count lands on or next to x.5.
        duration_s = (thousandths + 0.5) / 1e9
        toward = math.inf if ulps > 0 else 0.0
        for _ in range(abs(ulps)):
            duration_s = math.nextafter(duration_s, toward)
        assert _bits(_microseconds(duration_s)) == \
            _bits(round(duration_s * 1e6, 3))

    @pytest.mark.parametrize("duration_s", [
        0.0, -0.0, 5e-324, 1e-12, 2.5e-9, -2.5e-9, 1e3, 1e6,
        float("inf"), float("-inf")])
    def test_edges(self, duration_s):
        assert _bits(_microseconds(duration_s)) == \
            _bits(round(duration_s * 1e6, 3))

    def test_nan(self):
        assert _microseconds(float("nan")) != _microseconds(float("nan"))
