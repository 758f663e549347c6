"""nrsan: the runtime half of the stage-purity contract.

:mod:`repro.lint` proves *statically* (rules R006/R007) that the
parallel DCI-decode stage never mutates tracked state or draws stateful
RNG.  Tracked state needs no runtime guard: the stage only ever sees a
read-only snapshot of frozen search spaces
(:meth:`~repro.core.rach_sniffer.RachSniffer.space_snapshot`).  The
RNG needs one, and this module is it: an opt-in instrumented mode that
wraps the session generator in an :class:`AuditedGenerator` that trips
on any draw made while a parallel stage is on the call stack.

A trip raises :class:`SanitizerViolation` inside the stage; the
:class:`~repro.core.runtime.SlotRuntime` stores it as ``ctx.error`` and
re-raises it as ``SlotRuntimeError`` at commit, so the violating test
fails loudly in slot order.

Activation: pass an enabled :class:`Sanitizer` explicitly, set the
``NRSAN`` environment variable (``NRSAN=1``), or use the ``nrsan``
pytest fixture.  Disabled, the hook is a pass-through returning its
input unchanged — production runs pay nothing.

:func:`parallel_stage` is the static anchor: decorating a stage entry
point marks it as a purity root for lint rule R006 without importing
anything at analysis time (the rule matches the decorator name).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, TypeVar

F = TypeVar("F", bound=Callable[..., Any])

#: Environment variable that switches the instrumented mode on.
NRSAN_ENV = "NRSAN"

#: Generator draw methods audited during the parallel stage.
AUDITED_DRAWS = frozenset({
    "random", "normal", "integers", "uniform", "choice", "shuffle",
    "permutation", "standard_normal", "exponential", "poisson",
    "binomial", "bytes",
})


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

    One instance is shared by the scope (which wraps its RNG through
    it) and the runtime (which brackets the parallel stage with
    :meth:`parallel_stage_scope`).
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
    def audit_rng(self, rng: Any) -> Any:
        """Wrap a Generator so parallel-stage draws trip the sanitizer."""
        if not self.enabled:
            return rng
        return AuditedGenerator(self, rng)


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
