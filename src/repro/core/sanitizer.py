"""nrsan: the runtime half of the stage-purity contract.

:mod:`repro.lint` proves *statically* (rules R006/R007) that the
parallel DCI-decode stage never mutates tracked state or draws stateful
RNG.  This module proves the same thing *dynamically*: an opt-in
instrumented mode that

* wraps the tracked-table snapshot handed to the parallel stage in a
  write-guard proxy (:class:`GuardedTrackedTable` /
  :class:`GuardedTrackedUe`) — the snapshot is frozen the moment it is
  taken, and per-UE mutators (``touch``, attribute stores) trip inside
  the parallel stage;
* wraps the session generator in an :class:`AuditedGenerator` that
  trips on any draw made while a parallel stage is on the call stack.

A trip raises :class:`SanitizerViolation` inside the stage; the
:class:`~repro.core.runtime.SlotRuntime` stores it as ``ctx.error`` and
re-raises it as ``SlotRuntimeError`` at commit, so the violating test
fails loudly in slot order.

Activation: pass an enabled :class:`Sanitizer` explicitly, set the
``NRSAN`` environment variable (``NRSAN=1``), or use the ``nrsan``
pytest fixture.  Disabled, every hook is a pass-through returning its
input unchanged — production runs pay nothing.

:func:`parallel_stage` is the static anchor: decorating a stage entry
point marks it as a purity root for lint rule R006 without importing
anything at analysis time (the rule matches the decorator name).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping, TypeVar

F = TypeVar("F", bound=Callable[..., Any])

#: Environment variable that switches the instrumented mode on.
NRSAN_ENV = "NRSAN"

#: Generator draw methods audited during the parallel stage.
AUDITED_DRAWS = frozenset({
    "random", "normal", "integers", "uniform", "choice", "shuffle",
    "permutation", "standard_normal", "exponential", "poisson",
    "binomial", "bytes",
})

#: TrackedUe methods that mutate the UE (illegal in the parallel stage).
UE_MUTATORS = frozenset({"touch"})


class SanitizerViolation(RuntimeError):
    """A stage-purity contract violation observed at runtime."""


def parallel_stage(fn: F) -> F:
    """Mark a function as a parallel (pure) stage entry point.

    Purely declarative: the function is returned unchanged.  The marker
    attribute is available to runtime introspection and the decorator
    *name* is what lint rule R006 keys its reachability analysis on.
    """
    fn.__nr_parallel_stage__ = True  # type: ignore[attr-defined]
    return fn


class Sanitizer:
    """The nrsan instrumentation switchboard.

    One instance is shared by the scope (which wraps its RNG and
    tracked snapshots through it) and the runtime (which brackets the
    parallel stage with :meth:`parallel_stage_scope`).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: Violation messages, in trip order (also raised at the site).
        self.violations: list[str] = []
        self._tls = threading.local()
        self._obs: Any = None

    def bind_obs(self, obs: Any) -> None:
        """Attach an observability bus; trips emit ``nrsan.violation``."""
        self._obs = obs if obs else None

    @classmethod
    def from_env(cls) -> "Sanitizer":
        """An instance enabled iff ``NRSAN`` is set to a truthy value."""
        raw = os.environ.get(NRSAN_ENV, "").strip().lower()
        return cls(enabled=raw not in ("", "0", "off", "false", "no"))

    # ------------------------------------------------------------ scope
    @property
    def in_parallel_stage(self) -> bool:
        """Whether this thread is currently inside a parallel stage."""
        return getattr(self._tls, "stage", None) is not None

    @property
    def current_stage(self) -> str | None:
        return getattr(self._tls, "stage", None)

    @contextmanager
    def parallel_stage_scope(self, stage_name: str) -> Iterator[None]:
        """Bracket one parallel-stage execution on this thread."""
        if not self.enabled:
            yield
            return
        previous = getattr(self._tls, "stage", None)
        self._tls.stage = stage_name
        try:
            yield
        finally:
            self._tls.stage = previous

    def _trip(self, message: str) -> None:
        where = self.current_stage or "outside any stage"
        full = f"nrsan: {message} (in {where})"
        self.violations.append(full)
        if self._obs is not None:
            self._obs.emit("nrsan.violation", stage=where,
                           reason=message.split(":", 1)[0])
        raise SanitizerViolation(full)

    # ------------------------------------------------------------ hooks
    def guard_tracked(self, table: dict[int, Any]) -> dict[int, Any]:
        """Freeze a tracked-table snapshot for the parallel stage."""
        if not self.enabled:
            return table
        return GuardedTrackedTable(self, table)

    def audit_rng(self, rng: Any) -> Any:
        """Wrap a Generator so parallel-stage draws trip the sanitizer."""
        if not self.enabled:
            return rng
        return AuditedGenerator(self, rng)


def unwrap_tracked(table: dict[int, Any]) -> dict[int, Any]:
    """Plain-dict copy of a (possibly guarded) tracked snapshot.

    Payload executors pickle the snapshot for worker processes; the
    guards hold a thread-local :class:`Sanitizer` and cannot travel, so
    they are stripped here.  The workers' copies are private, so the
    write-guard contract is preserved by construction: nothing a worker
    does to its copy can reach the parent's table.
    """
    plain: dict[int, Any] = {}
    for rnti, ue in table.items():
        if isinstance(ue, GuardedTrackedUe):
            ue = object.__getattribute__(ue, "_ue")
        plain[rnti] = ue
    return plain


class GuardedTrackedTable(dict):
    """A frozen tracked-table snapshot.

    Any mutation of the mapping itself trips the sanitizer regardless
    of stage — the snapshot's whole point is that it is immutable from
    the moment the backbone takes it.  Values are wrapped in
    :class:`GuardedTrackedUe` so per-UE mutation inside the parallel
    stage trips too (backbone code mutates UEs through the *live*
    table, never through a snapshot).
    """

    def __init__(self, sanitizer: Sanitizer,
                 table: Mapping[int, Any]) -> None:
        super().__init__({rnti: GuardedTrackedUe(sanitizer, ue)
                          for rnti, ue in table.items()})
        self._sanitizer = sanitizer

    def _frozen(self, op: str) -> None:
        self._sanitizer._trip(
            f"'{op}' on a frozen tracked-table snapshot: only backbone "
            f"stages may mutate tracked state, through the live table")

    def __setitem__(self, key: Any, value: Any) -> None:
        self._frozen("__setitem__")

    def __delitem__(self, key: Any) -> None:
        self._frozen("__delitem__")

    def pop(self, *args: Any) -> Any:
        self._frozen("pop")

    def popitem(self) -> Any:
        self._frozen("popitem")

    def clear(self) -> None:
        self._frozen("clear")

    def update(self, *args: Any, **kwargs: Any) -> None:
        self._frozen("update")

    def setdefault(self, *args: Any) -> Any:
        self._frozen("setdefault")


class GuardedTrackedUe:
    """Read-only view of one tracked UE during the parallel stage.

    Attribute reads delegate to the wrapped UE.  Attribute writes and
    mutator methods (``touch``) trip the sanitizer when the calling
    thread is inside a parallel stage; outside one they delegate, since
    the same UE objects are legitimately mutated by backbone and sink
    stages through the live table.
    """

    __slots__ = ("_ue", "_sanitizer")

    def __init__(self, sanitizer: Sanitizer, ue: Any) -> None:
        object.__setattr__(self, "_ue", ue)
        object.__setattr__(self, "_sanitizer", sanitizer)

    def __getattr__(self, name: str) -> Any:
        ue = object.__getattribute__(self, "_ue")
        value = getattr(ue, name)
        if name in UE_MUTATORS:
            sanitizer = object.__getattribute__(self, "_sanitizer")

            def guarded(*args: Any, **kwargs: Any) -> Any:
                if sanitizer.in_parallel_stage:
                    sanitizer._trip(
                        f"TrackedUe.{name}() mutates tracked state "
                        f"inside the parallel stage: defer it via "
                        f"ctx.touch_marks to the sink stage")
                return value(*args, **kwargs)

            return guarded
        return value

    def __setattr__(self, name: str, value: Any) -> None:
        sanitizer = object.__getattribute__(self, "_sanitizer")
        if sanitizer.in_parallel_stage:
            sanitizer._trip(
                f"attribute store 'TrackedUe.{name}' inside the "
                f"parallel stage: the decode stage must be pure")
        setattr(object.__getattribute__(self, "_ue"), name, value)

    def __repr__(self) -> str:
        return f"GuardedTrackedUe({object.__getattribute__(self, '_ue')!r})"


class AuditedGenerator:
    """RNG proxy that forbids draws during the parallel stage.

    Backbone draws delegate untouched, so the audited stream is
    bit-identical to the bare generator's.
    """

    __slots__ = ("_rng", "_sanitizer")

    def __init__(self, sanitizer: Sanitizer, rng: Any) -> None:
        object.__setattr__(self, "_rng", rng)
        object.__setattr__(self, "_sanitizer", sanitizer)

    def __getattr__(self, name: str) -> Any:
        rng = object.__getattribute__(self, "_rng")
        value = getattr(rng, name)
        if name in AUDITED_DRAWS:
            sanitizer = object.__getattribute__(self, "_sanitizer")

            def audited(*args: Any, **kwargs: Any) -> Any:
                if sanitizer.in_parallel_stage:
                    sanitizer._trip(
                        f"Generator.{name}() draw inside the parallel "
                        f"stage: use counter_uniform or draw on the "
                        f"backbone")
                return value(*args, **kwargs)

            return audited
        return value

    def __repr__(self) -> str:
        return f"AuditedGenerator({object.__getattribute__(self, '_rng')!r})"
