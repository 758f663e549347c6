"""Registry-aware validation: KNOWN_EVENTS as an enforced contract."""

import pytest

from repro.obs import KNOWN_EVENTS, validate_event, validate_events
from repro.obs.context import ObsContext
from repro.obs.reporters import RingReporter


def event(name="sync.acquired", kind="event", **fields):
    base = {"v": 1, "seq": 0, "run_id": "r1", "kind": kind,
            "name": name, "slot": 3}
    base.update(fields)
    return base


class TestRegistryValidation:
    def test_known_event_is_clean(self):
        assert validate_event(event(), registry=KNOWN_EVENTS) == []

    def test_unknown_name_is_rejected(self):
        problems = validate_event(event(name="decode.wat"),
                                  registry=KNOWN_EVENTS)
        assert any("unknown event name" in p for p in problems)

    def test_without_registry_any_name_passes(self):
        assert validate_event(event(name="decode.wat")) == []

    def test_kind_mismatch_is_rejected(self):
        problems = validate_event(event(name="dci.decoded",
                                        kind="event", value=1),
                                  registry=KNOWN_EVENTS)
        assert any("must have kind 'counter'" in p for p in problems)

    def test_missing_required_field_is_rejected(self):
        bad = event(name="dci.miss")     # lacks rnti/stage/reason
        problems = validate_event(bad, registry=KNOWN_EVENTS)
        missing = {p for p in problems if "missing required" in p}
        assert len(missing) == 3

    def test_typed_spec_extra_is_checked(self):
        bad = event(name="session.start", fidelity="phy",
                    seed="not-an-int")
        problems = validate_event(bad, registry=KNOWN_EVENTS)
        assert any("field 'seed'" in p for p in problems)

    def test_registry_skipped_for_broken_envelope(self):
        """Envelope problems short-circuit: no confusing double report
        for an event that is malformed at a lower level."""
        problems = validate_event({"name": "decode.wat"},
                                  registry=KNOWN_EVENTS)
        assert all("unknown event name" not in p for p in problems)

    def test_stream_validation_forwards_registry(self):
        stream = [event(seq=0), event(name="decode.wat", seq=1)]
        problems = validate_events(stream, registry=KNOWN_EVENTS)
        assert [i for i, _ in problems] == [1]


class TestBusConformsToRegistry:
    def test_emitted_stream_validates_against_registry(self):
        """Events built through the real bus helpers satisfy their own
        declarations — the registry matches what the code emits."""
        ring = RingReporter(capacity=64)
        obs = ObsContext.create([ring], run_id="r1")
        obs.emit("sync.acquired", slot=1)
        obs.count("dci.decoded", slot=1)
        obs.timing("stage.span", 0.001, stage="decode", outcome="ok")
        obs.emit("msg4.tracked", slot=1, rnti=17, stage="msg4")
        obs.close()
        assert validate_events(ring.events,
                               registry=KNOWN_EVENTS) == []

    def test_every_spec_name_matches_its_key(self):
        for name, spec in KNOWN_EVENTS.items():
            assert spec.name == name
            assert spec.kind in ("event", "span", "counter")

    def test_required_fields_are_well_known_or_typed(self):
        """Every required field is either a well-known optional field
        or declared with types in the spec — nothing unspecified."""
        from repro.obs.events import OPTIONAL_FIELDS
        for spec in KNOWN_EVENTS.values():
            for name in spec.required:
                assert name in OPTIONAL_FIELDS or name in spec.fields


@pytest.mark.parametrize("name", sorted(KNOWN_EVENTS))
def test_minimal_conforming_event_exists(name):
    """Each declaration is satisfiable: a minimal event carrying the
    spec's own required fields (typed per OPTIONAL_FIELDS) passes."""
    from repro.obs.events import OPTIONAL_FIELDS
    spec = KNOWN_EVENTS[name]
    fields = {}
    for required in spec.required:
        allowed = OPTIONAL_FIELDS.get(required,
                                      spec.fields.get(required, (str,)))
        fields[required] = 1 if int in allowed else "x"
    base = {"v": 1, "seq": 0, "run_id": "r1", "kind": spec.kind,
            "name": name}
    base.update(fields)
    if spec.kind == "counter":
        base["value"] = 1
    if spec.kind == "span":
        base["duration_us"] = 10.0
    assert validate_event(base, registry=KNOWN_EVENTS) == []
