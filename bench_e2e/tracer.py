"""Span tracer for the benchmark's traced run.

:class:`Tracer` wraps public functions and methods of the program's
layers for the duration of a ``with`` block and restores every wrapped
attribute, by identity, on exit.  Each call of a wrapped function is a
span: a name, a start, an end and a parent (the span below it on the
stack).  A span's self time is its duration minus the time of the spans
it caused.  Spans are folded into per-name totals as they end, so the
trace costs constant memory however long the run.

A call into a layer that is already on the stack (a batched polar
decode delegating to another) is folded into the outer span, so busy
times never count the same interval twice.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class LayerStats:
    """Totals of one span name."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    #: Extra counts a target's ``observe`` hook adds (rows, codewords).
    counts: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` traced as span ``span``.

    ``observe(args, result, stats)`` runs after each outermost call and
    may add counts to ``stats``.
    """

    owner: Any
    attr: str
    span: str
    observe: Callable[[tuple, Any, LayerStats], None] | None = None


class Tracer:
    """Installs span wrappers on enter, restores the originals on exit."""

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.layers: dict[str, LayerStats] = {
            t.span: LayerStats() for t in targets}
        #: Open spans, innermost last: ``[name, start, child_s]``; each
        #: entry's parent is the one below it.
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        self._saved: list[tuple[Any, str, Any]] = []
        #: Summed duration of finished root spans: the wall time the
        #: trace attributes to some layer.
        self.attributed_s = 0.0

    # ------------------------------------------------------------ install
    def __enter__(self) -> "Tracer":
        for target in self.targets:
            owner, attr = target.owner, target.attr
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, target))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        self._open.clear()

    def _wrap(self, original: Any, target: Target) -> Any:
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._wrap_function(original.__func__,
                                                      target))
        return self._wrap_function(original, target)

    def _wrap_function(self, fn: Callable, target: Target) -> Callable:
        name = target.span
        stats = self.layers[name]
        observe = target.observe
        stack = self._stack
        active = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active.get(name):
                return fn(*args, **kwargs)
            active[name] = 1
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                active[name] = 0
                stats.calls += 1
                stats.busy_s += duration
                stats.self_s += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    self.attributed_s += duration
            if observe is not None:
                observe(args, result, stats)
            return result

        return traced


def add_count(stats: LayerStats, key: str, value: float) -> None:
    """Accumulate one ``observe`` count."""
    stats.counts[key] = stats.counts.get(key, 0.0) + value
