"""The observability event schema (version 1).

Every event the bus emits is one flat JSON object — one line of a
``JsonlReporter`` file — carrying a fixed envelope plus free-form
scalar fields:

========== ========= ====================================================
field      type      meaning
========== ========= ====================================================
``v``      int       schema version (this module's ``SCHEMA_VERSION``)
``seq``    int       monotonic per-context sequence number (commit order)
``run_id`` str       session identity shared by every event of a run
``kind``   str       ``event`` | ``span`` | ``counter``
``name``   str       dotted lowercase event name (``stage.span``, ...)
========== ========= ====================================================

Well-known optional fields (typed when present):

* ``cell`` (str) — cell label, bound once per scope;
* ``slot`` (int) — slot index the event describes;
* ``rnti`` (int) — UE identity, for failure clustering;
* ``stage`` (str) — slot-runtime stage name;
* ``reason`` (str) — failure cause (``bler``, ``msg4_decode``, ...);
* ``outcome`` (str) — span outcome (``ok`` | ``halt``);
* ``duration_us`` (number) — span duration in microseconds;
* ``value`` (number) — counter increment.

Unknown extra fields are allowed (forward compatibility) but must be
JSON scalars — events are flat by design so they stay greppable and
columnar-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

#: Version stamped into every event's ``v`` field.
SCHEMA_VERSION = 1

#: The three event kinds the bus knows.
EVENT_KINDS = ("event", "span", "counter")

#: Envelope fields every event must carry, with their required types.
REQUIRED_FIELDS: dict[str, type] = {
    "v": int,
    "seq": int,
    "run_id": str,
    "kind": str,
    "name": str,
}

#: Well-known optional fields and their allowed types.
OPTIONAL_FIELDS: dict[str, tuple[type, ...]] = {
    "cell": (str,),
    "slot": (int,),
    "rnti": (int,),
    "stage": (str,),
    "reason": (str,),
    "outcome": (str,),
    "duration_us": (int, float),
    "value": (int, float),
    "level": (int,),
    "fidelity": (str,),
}

#: JSON scalar types permitted for unknown extra fields.
_SCALAR_TYPES = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class EventSpec:
    """The declared contract of one event name.

    ``required`` lists fields every emission must carry (beyond the
    envelope); ``fields`` declares event-specific extras with their
    allowed types, beyond the well-known :data:`OPTIONAL_FIELDS`.
    Counters implicitly carry ``value`` and spans ``duration_us`` —
    the bus adds those, so specs do not repeat them.
    """

    name: str
    kind: str
    required: tuple[str, ...] = ()
    fields: dict[str, tuple[type, ...]] = field(default_factory=dict)


#: Every event name the system emits, with its declared contract.
#: ``obs validate`` (and lint rule R012, statically) reject emissions
#: that are not in this table — a typo'd name no longer passes
#: silently.  New events are *declared here first*, then emitted.
KNOWN_EVENTS: dict[str, EventSpec] = {spec.name: spec for spec in (
    EventSpec("session.start", "event",
              required=("fidelity",), fields={"seed": (int,)}),
    EventSpec("session.end", "event",
              fields={"slots": (int,), "dcis_decoded": (int,),
                      "msg4_missed": (int,)}),
    EventSpec("sync.acquired", "event", required=("slot",)),
    EventSpec("stage.span", "span", required=("stage", "outcome")),
    EventSpec("dci.miss", "event",
              required=("slot", "rnti", "stage", "reason")),
    EventSpec("dci.decoded", "counter", required=("slot",)),
    EventSpec("msg4.miss", "event",
              required=("slot", "rnti", "stage", "reason")),
    EventSpec("msg4.tracked", "event",
              required=("slot", "rnti", "stage")),
    EventSpec("fleet.checkpoint", "span", required=("cells",),
              fields={"cells": (int,), "bytes": (int,)}),
    EventSpec("fleet.restore", "span", required=("cells",),
              fields={"cells": (int,), "bytes": (int,)}),
)}


def _check_registry(event: Mapping[str, Any],
                    registry: Mapping[str, EventSpec]) -> list[str]:
    """Registry conformance of one envelope-valid event."""
    problems: list[str] = []
    spec = registry.get(event["name"])
    if spec is None:
        problems.append(f"unknown event name {event['name']!r} "
                        f"(not declared in KNOWN_EVENTS)")
        return problems
    if event["kind"] != spec.kind:
        problems.append(
            f"event {spec.name!r} must have kind {spec.kind!r}, "
            f"got {event['kind']!r}")
    for name in spec.required:
        if name not in event:
            problems.append(
                f"event {spec.name!r} missing required field {name!r}")
    for name, allowed in spec.fields.items():
        if name in event and (not isinstance(event[name], allowed)
                              or isinstance(event[name], bool)):
            names = "/".join(t.__name__ for t in allowed)
            problems.append(
                f"field {name!r} of {spec.name!r} must be {names}, "
                f"got {type(event[name]).__name__}")
    return problems


def validate_event(event: Mapping[str, Any],
                   registry: Mapping[str, EventSpec] | None = None) \
        -> list[str]:
    """Check one event against the schema; returns problem strings.

    An empty list means the event is valid.  The check is tolerant of
    unknown fields (they only need to be JSON scalars) so a newer
    writer's stream still validates under an older reader.  With a
    ``registry`` (normally :data:`KNOWN_EVENTS`), the event's name
    must additionally be declared and its kind/required fields must
    match the declaration.
    """
    problems: list[str] = []
    for field, expected in REQUIRED_FIELDS.items():
        if field not in event:
            problems.append(f"missing required field {field!r}")
        elif not isinstance(event[field], expected) \
                or isinstance(event[field], bool):
            problems.append(
                f"field {field!r} must be {expected.__name__}, "
                f"got {type(event[field]).__name__}")
    if not problems:
        if event["v"] != SCHEMA_VERSION:
            problems.append(
                f"unsupported schema version {event['v']!r} "
                f"(expected {SCHEMA_VERSION})")
        if event["kind"] not in EVENT_KINDS:
            problems.append(f"unknown kind {event['kind']!r}")
        if event["seq"] < 0:
            problems.append(f"negative seq {event['seq']!r}")
        if not event["name"]:
            problems.append("empty event name")
        elif registry is not None:
            problems.extend(_check_registry(event, registry))
    for field, value in event.items():
        if field in REQUIRED_FIELDS:
            continue
        allowed = OPTIONAL_FIELDS.get(field)
        if allowed is not None:
            if not isinstance(value, allowed) or isinstance(value, bool):
                names = "/".join(t.__name__ for t in allowed)
                problems.append(
                    f"field {field!r} must be {names}, "
                    f"got {type(value).__name__}")
        elif not isinstance(value, _SCALAR_TYPES):
            problems.append(
                f"extra field {field!r} must be a JSON scalar, "
                f"got {type(value).__name__}")
    return problems


def validate_events(events: Iterable[Mapping[str, Any]],
                    registry: Mapping[str, EventSpec] | None = None) \
        -> list[tuple[int, str]]:
    """Validate a whole stream; returns ``(index, problem)`` pairs.

    Also enforces the cross-event contract: ``seq`` strictly increases
    (the bus assigns sequence numbers in commit order) and ``run_id``
    is constant within one stream.  ``registry`` is forwarded to
    :func:`validate_event` for per-name conformance.
    """
    problems: list[tuple[int, str]] = []
    last_seq = -1
    run_id: str | None = None
    for index, event in enumerate(events):
        for problem in validate_event(event, registry):
            problems.append((index, problem))
        seq = event.get("seq")
        if isinstance(seq, int) and not isinstance(seq, bool):
            if seq <= last_seq:
                problems.append(
                    (index, f"seq {seq} not after previous {last_seq}"))
            last_seq = seq
        this_run = event.get("run_id")
        if isinstance(this_run, str):
            if run_id is None:
                run_id = this_run
            elif this_run != run_id:
                problems.append(
                    (index,
                     f"run_id {this_run!r} differs from {run_id!r}"))
    return problems
