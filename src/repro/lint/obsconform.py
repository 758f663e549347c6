"""Static conformance of obs emission sites against the event registry.

The observability bus (PR 8) validates *streams* at the edge — ``obs
validate`` checks envelopes, and now event names against
:data:`repro.obs.events.KNOWN_EVENTS` — but a conformance bug only
surfaces when the mis-emitting code path actually runs under ``--obs``.
This module closes the gap statically: it collects every emission call
site in a module and checks each against the declared registry, so a
typo'd name, a counter emitted as an event, or a high-cardinality
label value fails lint (rule R012) before it ever reaches a stream.

Two emission shapes are recognised:

* **direct calls** — ``<receiver>.emit/count/timing/span(name, ...)``
  where some segment of the receiver chain contains ``obs`` (matching
  ``self._obs``, a bare ``obs``, ``base_obs``...).  The method fixes
  the event kind (``emit`` → event, ``count`` → counter, ``timing`` /
  ``span`` → span) unless an explicit ``_kind=`` literal overrides it;
* **deferred queues** — ``events.append((name, {...}))``, the pattern
  the slot runtime drains at commit (``ctx.events``); entries replay
  through ``ObsContext.emit`` so they are events by construction.

A *relay* — a call that forwards an already-built event, spelled with
a dynamic name **and** a ``**fields`` expansion (the runtime's
commit-time drain) — is exempt: it emits someone else's declaration.
Any other dynamic name is flagged: names must be grep-able literals.

Per DESIGN.md §7, string label fields feed fixed-cardinality counter
labels; an f-string / ``str(...)`` / ``.format(...)`` value there is
unbounded cardinality and gets flagged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Mapping

from repro.lint.astutil import dotted_name
from repro.obs.events import OPTIONAL_FIELDS, EventSpec

#: Emission method -> the event kind it produces.
_METHOD_KINDS: dict[str, str] = {
    "emit": "event",
    "count": "counter",
    "timing": "span",
    "span": "span",
}

#: Fields the bus itself supplies per kind; specs never list them and
#: call sites need not pass them.
_IMPLICIT_FIELDS: dict[str, frozenset[str]] = {
    "event": frozenset(),
    "counter": frozenset(("value",)),
    "span": frozenset(("duration_us",)),
}

#: String fields used as counter labels: their value sets must stay
#: small and closed (DESIGN.md §7), so dynamically built strings are
#: cardinality bombs.
_LABEL_FIELDS = frozenset(("stage", "reason", "outcome", "cell",
                           "fidelity"))


@dataclass(frozen=True)
class ConformanceIssue:
    """One statically detected schema violation at an emission site."""

    kind: str       #: ``dynamic-name`` | ``unknown-name`` |
                    #: ``kind-mismatch`` | ``missing-field`` |
                    #: ``undeclared-field`` | ``label-cardinality``
    lineno: int
    col: int
    detail: str


@dataclass
class EmissionSite:
    """One collected obs emission call site."""

    name: str | None        #: literal event name; None = dynamic
    kind: str               #: event | counter | span
    method: str             #: emit | count | timing | span | append
    lineno: int
    col: int
    fields: tuple[str, ...] = ()
    #: a ``**`` expansion makes the field set statically unknowable
    has_splat: bool = False
    #: field name -> value node, for label-cardinality checks
    field_values: dict[str, ast.expr] = field(default_factory=dict)


def _receiver_is_obs(func: ast.Attribute) -> bool:
    name = dotted_name(func.value)
    if name is None:
        return False
    return any("obs" in segment.lower()
               for segment in name.split("."))


def _receiver_is_deferred_queue(func: ast.Attribute) -> bool:
    name = dotted_name(func.value)
    if name is None:
        return False
    return name.split(".")[-1] == "events"


def _is_dynamic_string(node: ast.expr) -> bool:
    """A string value built at runtime (unbounded label cardinality)."""
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "format":
            return True
        if isinstance(func, ast.Name) and func.id == "str":
            return True
        if isinstance(func, ast.Attribute) and func.attr == "join":
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return True      # "..." % (...)
    return False


def _collect_direct(call: ast.Call, func: ast.Attribute) \
        -> EmissionSite | None:
    method = func.attr
    kind = _METHOD_KINDS[method]
    name: str | None = None
    if call.args and isinstance(call.args[0], ast.Constant) \
            and isinstance(call.args[0].value, str):
        name = call.args[0].value
    has_splat = False
    fields: list[str] = []
    values: dict[str, ast.expr] = {}
    for kw in call.keywords:
        if kw.arg is None:
            has_splat = True
            continue
        if kw.arg == "_kind":
            if isinstance(kw.value, ast.Constant) \
                    and isinstance(kw.value.value, str):
                kind = kw.value.value
            continue
        fields.append(kw.arg)
        values[kw.arg] = kw.value
    return EmissionSite(
        name=name, kind=kind, method=method,
        lineno=call.lineno, col=call.col_offset,
        fields=tuple(fields), has_splat=has_splat,
        field_values=values)


def _collect_deferred(call: ast.Call) -> EmissionSite | None:
    """``events.append((name, {...}))`` — replayed as an event."""
    if len(call.args) != 1 or not isinstance(call.args[0], ast.Tuple) \
            or len(call.args[0].elts) != 2:
        return None
    name_node, payload = call.args[0].elts
    name: str | None = None
    if isinstance(name_node, ast.Constant) \
            and isinstance(name_node.value, str):
        name = name_node.value
    fields: list[str] = []
    values: dict[str, ast.expr] = {}
    has_splat = not isinstance(payload, ast.Dict)
    if isinstance(payload, ast.Dict):
        for key, value in zip(payload.keys, payload.values):
            if isinstance(key, ast.Constant) \
                    and isinstance(key.value, str):
                fields.append(key.value)
                values[key.value] = value
            else:
                has_splat = True       # dynamic key / ** merge
    return EmissionSite(
        name=name, kind="event", method="append",
        lineno=call.lineno, col=call.col_offset,
        fields=tuple(fields), has_splat=has_splat,
        field_values=values)


def collect_emissions(tree: ast.Module) -> list[EmissionSite]:
    """Every obs emission site of one module, in source order.

    Relays (dynamic name + ``**fields`` expansion) are *not* returned:
    they forward an event declared and checked at its true origin.
    """
    sites: list[EmissionSite] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) \
                or not isinstance(node.func, ast.Attribute):
            continue
        func = node.func
        site: EmissionSite | None = None
        if func.attr in _METHOD_KINDS and _receiver_is_obs(func):
            site = _collect_direct(node, func)
        elif func.attr == "append" \
                and _receiver_is_deferred_queue(func):
            site = _collect_deferred(node)
        if site is None:
            continue
        if site.name is None and site.has_splat:
            continue        # relay: forwards an already-built event
        sites.append(site)
    sites.sort(key=lambda s: (s.lineno, s.col))
    return sites


def check_site(site: EmissionSite,
               registry: Mapping[str, EventSpec]) \
        -> list[ConformanceIssue]:
    """Conformance of one emission site against the registry."""
    issues: list[ConformanceIssue] = []

    def issue(kind: str, detail: str) -> None:
        issues.append(ConformanceIssue(kind=kind, lineno=site.lineno,
                                       col=site.col, detail=detail))

    if site.name is None:
        issue("dynamic-name",
              "event name is built at runtime — emit literal names "
              "declared in KNOWN_EVENTS (repro/obs/events.py) so "
              "streams stay grep-able; forwarding relays must splat "
              "**fields")
        return issues
    spec = registry.get(site.name)
    if spec is None:
        issue("unknown-name",
              f"event {site.name!r} is not declared in KNOWN_EVENTS "
              f"(repro/obs/events.py) — declare it (name, kind, "
              f"required fields) before emitting")
        return issues
    if site.kind != spec.kind:
        issue("kind-mismatch",
              f"event {site.name!r} is declared kind {spec.kind!r} "
              f"but this site emits kind {site.kind!r} "
              f"(via .{site.method}())")
    implicit = _IMPLICIT_FIELDS.get(site.kind, frozenset())
    if not site.has_splat:
        present = set(site.fields) | set(implicit)
        for required in spec.required:
            if required not in present:
                issue("missing-field",
                      f"event {site.name!r} requires field "
                      f"{required!r} (KNOWN_EVENTS) but this site "
                      f"never passes it")
        declared = set(OPTIONAL_FIELDS) | set(spec.fields) \
            | set(spec.required) | implicit
        for name in site.fields:
            if name not in declared:
                issue("undeclared-field",
                      f"field {name!r} is not declared for event "
                      f"{site.name!r} — add it to the event's spec "
                      f"or OPTIONAL_FIELDS (repro/obs/events.py)")
    for name, value in site.field_values.items():
        if name in _LABEL_FIELDS and _is_dynamic_string(value):
            issue("label-cardinality",
                  f"label field {name!r} is built dynamically — "
                  f"label values feed fixed-cardinality counters "
                  f"(DESIGN.md §7); use a closed set of literals")
    return issues

