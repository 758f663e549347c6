"""The observability bus entry point.

``ObsContext.create(reporters, run_id=...)`` is the only constructor
call sites need:

* with no reporters it returns :data:`OBS_NOOP`, a stateless singleton
  whose methods do nothing and whose truthiness is ``False`` — hot
  paths guard emission with ``if obs:`` and pay one pointer comparison
  when the bus is disabled (zero allocations, no dict churn; asserted
  by ``tests/obs/test_noop_overhead.py``);
* with reporters it returns an enabled context that stamps every event
  with the schema version, a monotonic ``seq`` (the commit-order
  contract validated by :func:`repro.obs.events.validate_events`) and
  the session ``run_id``, then fans the event out to every reporter.

``bind(**labels)`` derives a child context sharing the sequence counter
and reporters but adding constant labels (a multi-cell controller binds
``cell=...`` per scope, so one bus serves a whole fleet with a single
globally-ordered stream).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Protocol, Union

from repro.obs.events import SCHEMA_VERSION
from repro.obs.reporters import Reporter


class Obs(Protocol):
    """What consumers may assume about either context flavour."""

    @property
    def enabled(self) -> bool: ...  # pragma: no cover - protocol

    def __bool__(self) -> bool: ...  # pragma: no cover - protocol

    def emit(self, name: str, _kind: str = "event",
             **fields: Any) -> None: ...  # pragma: no cover - protocol

    def count(self, name: str, value: float = 1,
              **fields: Any) -> None: ...  # pragma: no cover - protocol

    def timing(self, name: str, duration_s: float,
               **fields: Any) -> None: ...  # pragma: no cover - protocol

    def bind(self, **labels: Any) -> "Obs": ...  # pragma: no cover

    def close(self) -> None: ...  # pragma: no cover - protocol


class _NoOpObsContext:
    """The disabled bus: every method returns immediately.

    A single immutable instance (:data:`OBS_NOOP`) is shared by every
    disabled session.  ``__bool__`` is ``False`` so hot paths can guard
    with ``if obs:`` and skip even the argument packing of a call.
    """

    __slots__ = ()

    enabled = False
    run_id = ""

    def __bool__(self) -> bool:
        return False

    def emit(self, name: str, _kind: str = "event",
             **fields: Any) -> None:
        return None

    def count(self, name: str, value: float = 1,
              **fields: Any) -> None:
        return None

    def timing(self, name: str, duration_s: float,
               **fields: Any) -> None:
        return None

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[None]:
        yield

    def bind(self, **labels: Any) -> "_NoOpObsContext":
        return self

    def close(self) -> None:
        return None


#: The shared disabled-bus singleton.
OBS_NOOP = _NoOpObsContext()


class _Core:
    """State shared by a context and all its ``bind`` children."""

    __slots__ = ("reporters", "run_id", "seq", "errors")

    def __init__(self, reporters: tuple[Reporter, ...],
                 run_id: str) -> None:
        self.reporters = reporters
        self.run_id = run_id
        self.seq = 0
        #: Reporter exceptions swallowed so far (reporters must never
        #: abort a telemetry session).
        self.errors = 0


class ObsContext:
    """The enabled bus: builds events and fans them out.

    Do not construct directly — use :meth:`create`, which returns the
    no-op singleton when no reporters are configured.
    """

    __slots__ = ("_core", "_labels")

    enabled = True

    def __init__(self, core: _Core,
                 labels: tuple[tuple[str, Any], ...]) -> None:
        self._core = core
        self._labels = labels

    @classmethod
    def create(cls, reporters: Iterable[Reporter] = (),
               run_id: str | None = None,
               **labels: Any) -> "AnyObsContext":
        """Build a context, or the no-op singleton without reporters."""
        bundle = tuple(reporters)
        if not bundle:
            return OBS_NOOP
        if run_id is None:
            run_id = os.urandom(6).hex()
        return cls(_Core(bundle, run_id), tuple(labels.items()))

    # ------------------------------------------------------- properties
    def __bool__(self) -> bool:
        return True

    @property
    def run_id(self) -> str:
        return self._core.run_id

    @property
    def reporter_errors(self) -> int:
        return self._core.errors

    # ------------------------------------------------------- emission
    def emit(self, name: str, _kind: str = "event",
             **fields: Any) -> None:
        """Assemble one event and hand it to every reporter."""
        core = self._core
        seq = core.seq
        core.seq += 1
        event: dict[str, Any] = {
            "v": SCHEMA_VERSION, "seq": seq, "run_id": core.run_id,
            "kind": _kind, "name": name,
        }
        for key, value in self._labels:
            event[key] = value
        if fields:
            event.update(fields)
        for reporter in core.reporters:
            try:
                reporter.emit(event)
            except Exception:  # noqa: BLE001 - reporters must not abort
                core.errors += 1

    def count(self, name: str, value: float = 1,
              **fields: Any) -> None:
        """Emit a monotonic counter increment."""
        self.emit(name, _kind="counter", value=value, **fields)

    def timing(self, name: str, duration_s: float,
               **fields: Any) -> None:
        """Emit a span with an externally measured duration."""
        self.emit(name, _kind="span",
                  duration_us=round(duration_s * 1e6, 3), **fields)

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[None]:
        """Time a block and emit it as a span event."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timing(name, time.perf_counter() - start, **fields)

    # ------------------------------------------------------- lifecycle
    def bind(self, **labels: Any) -> "ObsContext":
        """Child context with extra constant labels on every event."""
        merged = dict(self._labels)
        merged.update(labels)
        return ObsContext(self._core, tuple(merged.items()))

    def close(self) -> None:
        """Close every reporter (idempotent per reporter contract)."""
        for reporter in self._core.reporters:
            reporter.close()


#: Either context flavour — the annotation consumers should use.
AnyObsContext = Union[ObsContext, _NoOpObsContext]
