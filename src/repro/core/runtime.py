"""The staged slot runtime: NR-Scope's Fig 4 pipeline as one machine.

The paper's tool keeps up with 0.5 ms TTIs by structuring slot work as a
pipeline — scheduler, worker pool, per-slot SIB/RACH/DCI tasks — and by
*dropping* slots it cannot process in time rather than stalling the
radio.  This module is that pipeline's stage graph, run in one process
on the caller's thread, and shared by every consumer in the repository
(:class:`~repro.core.scope.NRScope`, the multi-cell controller, the
Fig 12 experiment):

* :class:`Stage` - one typed processing step.  *Backbone* stages run
  sequentially in slot order (cell sync, broadcast decode, RACH
  sniffing: they mutate session state and draw from the session RNG,
  so their order is the determinism contract).  *Sink* stages
  (telemetry consumers) are committed strictly in slot order.
* The *parallel* stage (at most one: per-UE DCI decode) is a
  module-level job plus two backbone hooks: ``pack(ctx)`` builds each
  slot's payload in the slot's own submit, and ``merge(ctx, result)``
  folds the slot's result back before the sinks see it.  The job runs
  on *windows* of consecutive slots: a window closes at the first slot
  with no parallel work of its own (a TDD uplink slot) or at
  :data:`WINDOW_SLOTS` slots.  A *window job* is a generator function
  of the window's payloads that does its shared work in one slice per
  slot, then yields each slot's result (the iq DCI search decodes the
  whole window in one polar traversal); a plain ``payload -> result``
  function runs as windows of one slot.  :class:`WindowRun` drives
  either.  The job never sees the context or the session, so it
  cannot reach backbone state.
* :class:`SlotRuntime` - queues each closed window and spreads it over
  the slots that follow: each submit runs one slice of the oldest
  window with work left and finishes, merges and commits at most one
  slot.
* :class:`RuntimeStats` - per-stage timing/counter snapshot, the Fig 12
  measurement surface, exposed by ``repro.cli sniff --runtime-stats``.
  The parallel stage's time per slot is amortized: a window job's
  ``pack`` (the slot's own share of its work), the slot's finish and
  an equal share of its window's shared work.
* Observability - an optional :mod:`repro.obs` context turns every
  stage run into a timed span event (stage, slot, duration, outcome).
  All of a slot's events are emitted at commit, on the backbone, so the
  stream does not depend on how the windows fell; disabled, the bus is
  a no-op singleton behind a truthiness guard (zero allocations).

Three deviations worth naming.  The paper's worker pool and its
drop-under-overload path have no counterpart: the job runs on the
caller's thread, so no slot is ever dropped (DESIGN.md §2 and §5).
The paper decodes each slot within its own TTI; here a windowed slot
commits up to about two TDD periods after its capture, and the slot
budget is checked against amortized decode time (DESIGN.md, "The
windowed DCI decode").  And the paper also splits one slot's UE table
across several DCI threads.  There is no counterpart here — CPython's
GIL serialises the pure-Python decode, and the batched search already
decodes each candidate position once for every tracked UE
(EXPERIMENTS.md discusses it).
"""

from __future__ import annotations

import inspect
import time
from collections import deque
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.constants import TTI_DURATION_S
from repro.core.dci_decoder import DecodedDci
from repro.obs.context import AnyObsContext, OBS_NOOP
from repro.phy.coreset import SearchSpace
from repro.phy.resource_grid import ResourceGrid


class SlotRuntimeError(ValueError):
    """Raised for invalid runtime configuration or a failed run."""


# --------------------------------------------------------------- context
@dataclass
class SlotContext:
    """One slot's journey through the stages.

    ``output`` is whatever the driving loop feeds the runtime (a
    :class:`~repro.gnb.gnb.SlotOutput` for a live scope, a synthetic
    workload for the Fig 12 bench); the remaining fields are scratch the
    stages fill in as the slot advances.
    """

    output: object
    seq: int = -1                 #: commit-order ticket (runtime-assigned)
    grid: ResourceGrid | None = None
    #: Read-only ``rnti -> search space`` snapshot for the parallel
    #: stage (see :meth:`~repro.core.rach_sniffer.RachSniffer.space_snapshot`).
    tracked: Mapping[int, SearchSpace] = field(default_factory=dict)
    decoded: list[DecodedDci] = field(default_factory=list)
    #: (rnti, time_s) activity marks deferred to the sink stage so that
    #: idle-pruning sees them in slot order.
    touch_marks: list[tuple[int, float]] = field(default_factory=list)
    skip_decode: bool = False     #: backbone decided no decode is needed
    #: Amortized parallel-stage time: a window job's ``pack``, then the
    #: slot's finish and its share of its window's shared work.
    decode_time_s: float = 0.0
    error: BaseException | None = None
    #: Per-stage backbone timings, captured when the bus is enabled and
    #: replayed as span events at commit, so the stream is in slot
    #: order however the windows fell.
    stage_times: list[tuple[str, float]] = field(default_factory=list)
    #: Deferred observability events (name, fields), appended by stages
    #: and by the parallel stage's merge hook, and emitted at commit in
    #: slot order.
    events: list[tuple[str, dict]] = field(default_factory=list)


@dataclass(frozen=True)
class Stage:
    """One typed step of the slot pipeline.

    A backbone or sink stage's ``fn`` receives the
    :class:`SlotContext`; a backbone stage may return ``False`` to halt
    the slot entirely (e.g. the sniffer is not synchronized yet).
    ``sink`` stages must come last and are committed in slot order.

    At most one stage is ``parallel``.  Its ``fn`` is the job: a
    module-level window job (a generator function of a window's
    payloads, see :class:`WindowRun`) or a ``payload -> result``
    function.  ``pack`` runs on the backbone and builds the
    slot's payload from the context; ``merge`` runs on the backbone and
    applies the slot's result to the context before the sinks see it.
    """

    name: str
    fn: Callable[..., Any]
    parallel: bool = False
    sink: bool = False
    pack: Callable[[SlotContext], object] | None = None
    merge: Callable[[SlotContext, Any], None] | None = None


# --------------------------------------------------------------- stats
@dataclass
class StageStats:
    """Timing/throughput counters of one stage."""

    name: str
    calls: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    def record(self, elapsed_s: float) -> None:
        self.calls += 1
        self.total_s += elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s

    @property
    def mean_us(self) -> float:
        """Average per-call time in microseconds (the Fig 12 quantity)."""
        if not self.calls:
            return 0.0
        return 1e6 * self.total_s / self.calls


@dataclass(frozen=True)
class RuntimeStats:
    """Immutable snapshot of a runtime's counters."""

    slots_submitted: int
    slots_completed: int
    #: Slots whose amortized decode time (a window job's ``pack``, the
    #: slot's own finish and its share of its window's shared work)
    #: exceeded ``slot_budget_s``.
    budget_overruns: int
    slot_budget_s: float
    stages: tuple[StageStats, ...]
    #: Always 0; read by bench_e2e's _gate_runtime and repeat_layers.
    slots_dropped: int = 0

    def stage(self, name: str) -> StageStats:
        """Look up one stage's counters by name."""
        for stats in self.stages:
            if stats.name == name:
                return stats
        raise SlotRuntimeError(f"unknown stage: {name!r}")


# ------------------------------------------------------------- windows
#: Most slots one window of a window job holds.  A window also closes at
#: the first slot with no parallel work of its own (a TDD uplink slot),
#: so on the TDD cells a window is one period's run of downlink slots
#: (7 on the lab cells) and the cap only bounds FDD windows.  A slot
#: commits at most about two windows after its capture.  On the
#: 15 kHz FDD cell with 16 UEs, caps of 4, 8 and 16 cost 0.74, 0.72
#: and 0.66 s of CPU per 0.3 s of air; 8 keeps the lag near two TDD
#: periods' worth of slots.
WINDOW_SLOTS = 8


@dataclass
class JobResult:
    """One slot's finished parallel job, matched to its context via
    ``seq``: the job's result (or the error it raised) and its compute
    time (its own finish plus an equal share of its window's shared
    work)."""

    seq: int
    result: object
    elapsed_s: float
    error: BaseException | None = None


@lru_cache(maxsize=None)
def _is_window_job(job: Callable[[Any], object]) -> bool:
    """Whether ``job`` is a window job (a generator function)."""
    return inspect.isgeneratorfunction(job)


class WindowRun:
    """One closed window of slots, driven a step at a time.

    The parallel stage's job is either a *window job*, a generator
    function of the window's payloads (in slot order) that yields once
    after each of ``len(payloads)`` slices of its shared work and then
    each slot's result in slot order, or a plain ``payload -> result``
    function, which runs as windows of one slot with no shared work.
    :meth:`slice` runs the next slice and :meth:`finish` the next
    slot's result.  An error the job raises is carried by the result of
    the slot it hit and, for a window job, of every slot it leaves
    unfinished; each is re-raised at that slot's commit.
    """

    def __init__(self, seqs: list[int], job: Callable[[Any], Any],
                 payloads: list[Any]) -> None:
        self.seqs = seqs
        self._job = job
        self._payloads = payloads
        self._steps: Iterator[object] | None = None
        #: Slices of the shared work not yet run.
        self.slices_left = 0
        if _is_window_job(job):
            self._steps = job(payloads)
            self.slices_left = len(seqs)
        self._finished = 0
        self._shared_s = 0.0
        self._error: BaseException | None = None

    @property
    def done(self) -> bool:
        """Every slot of the window is finished."""
        return self._finished == len(self.seqs)

    def slice(self) -> None:
        """Run the next slice of the window's shared work."""
        assert self._steps is not None and self.slices_left
        start = time.perf_counter()
        if self._error is None:
            try:
                next(self._steps)
            except Exception as exc:  # noqa: BLE001 - raised at commit
                self._error = exc
        self._shared_s += time.perf_counter() - start
        self.slices_left -= 1

    def finish(self) -> JobResult:
        """The next slot's result (every slice must have run)."""
        assert not self.slices_left
        index = self._finished
        self._finished += 1
        start = time.perf_counter()
        result: object = None
        error = self._error
        if error is None:
            try:
                result = self._job(self._payloads[index]) \
                    if self._steps is None else next(self._steps)
            except Exception as exc:  # noqa: BLE001 - raised at commit
                error = exc
                if self._steps is not None:
                    self._error = exc
        elapsed = time.perf_counter() - start \
            + self._shared_s / len(self.seqs)
        return JobResult(seq=self.seqs[index], result=result,
                         elapsed_s=elapsed, error=error)


def run_window(window: WindowRun) -> list[JobResult]:
    """Run the rest of a window: its remaining slices, then its
    unfinished slots."""
    while window.slices_left:
        window.slice()
    results: list[JobResult] = []
    while not window.done:
        results.append(window.finish())
    return results


# -------------------------------------------------------------- runtime
class SlotRuntime:
    """Drives slots through backbone stages, the parallel stage's
    windows, and sinks.

    The submitting thread is the *backbone*: it runs the sequential
    stages for each slot in arrival order, packs the parallel stage's
    payload into the open window, queues each closed window, steps the
    queued windows once per submit, and commits sink stages strictly in
    slot order from the head of the pending slots.  ``flush`` closes
    the open window, runs every queued window to the end and commits
    every pending slot; it is called at prune boundaries, checkpoints
    and end of session.
    """

    def __init__(self, stages: Sequence[Stage],
                 slot_budget_s: float = TTI_DURATION_S[30],
                 obs: AnyObsContext | None = None) -> None:
        if slot_budget_s <= 0:
            raise SlotRuntimeError(
                f"slot budget must be positive: {slot_budget_s}")
        stages = list(stages)
        parallel = [s for s in stages if s.parallel]
        if len(parallel) > 1:
            raise SlotRuntimeError(
                "at most one stage may be parallel: "
                + ", ".join(s.name for s in parallel))
        if any(s.parallel and s.sink for s in stages):
            raise SlotRuntimeError("a sink stage cannot be parallel")
        for stage in parallel:
            if stage.pack is None or stage.merge is None:
                raise SlotRuntimeError(
                    f"parallel stage {stage.name!r} needs pack and "
                    f"merge hooks")
        seen_tail = False
        for stage in stages:
            if stage.parallel or stage.sink:
                seen_tail = True
            elif seen_tail:
                raise SlotRuntimeError(
                    f"backbone stage {stage.name!r} after the parallel/"
                    f"sink tail; order stages backbone, parallel, sinks")
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise SlotRuntimeError(f"duplicate stage names: {names}")
        self.stages = stages
        self._backbone = [s for s in stages if not s.parallel and not s.sink]
        self._parallel = parallel[0] if parallel else None
        self._sinks = [s for s in stages if s.sink]
        self.slot_budget_s = slot_budget_s
        #: Observability bus.  When disabled this is the no-op
        #: singleton and every emission site is behind an ``if
        #: self._obs:`` guard — one pointer truthiness check, zero
        #: allocations on the hot path.  When enabled, all of a slot's
        #: span/failure events are emitted at *commit* in slot order,
        #: so the stream does not depend on how the windows fell.
        self._obs = obs if obs is not None else OBS_NOOP
        self._stage_stats = {s.name: StageStats(name=s.name)
                             for s in stages}
        self._submitted = 0
        self._completed = 0
        self._overruns = 0
        self._commit_seq = 0
        #: Every slot not yet committed, in slot order; the head
        #: commits once its parallel job, if any, has merged.
        self._pending: deque[SlotContext] = deque()
        #: The pending slots whose parallel job has not merged yet, in
        #: slot order (windows finish their slots in that order).
        self._inflight: deque[SlotContext] = deque()
        #: Closed windows, oldest first.
        self._windows: deque[WindowRun] = deque()
        #: The open window: packed slots (already in ``_inflight``)
        #: waiting for it to close.
        self._window_seqs: list[int] = []
        self._window_payloads: list[object] = []
        self._windowed = self._parallel is not None \
            and _is_window_job(self._parallel.fn)
        self._window_cap = WINDOW_SLOTS if self._windowed else 1

    # ---------------------------------------------------------- intake
    def submit(self, output: object) -> SlotContext:
        """Feed one slot; returns its context (fully processed only
        once it has committed, which for a windowed slot is at a later
        ``submit`` or ``flush``)."""
        ctx = output if isinstance(output, SlotContext) \
            else SlotContext(output=output)
        self._submitted += 1
        for stage in self._backbone:
            start = time.perf_counter()
            verdict = stage.fn(ctx)
            elapsed = time.perf_counter() - start
            self._record_stage(stage.name, elapsed)
            if self._obs:
                ctx.stage_times.append((stage.name, elapsed))
            if verdict is False:
                # Halted slots never reach the commit path.  They only
                # occur before the first committed slot (pre-sync), so
                # emitting here keeps the stream in slot order.
                if self._obs:
                    slot = self._slot_index(ctx)
                    for name, elapsed in ctx.stage_times:
                        self._obs.timing("stage.span", elapsed,
                                         stage=name, slot=slot,
                                         outcome="halt")
                return ctx
        ctx.seq = self._commit_seq
        self._commit_seq += 1
        stage = self._parallel
        if stage is not None and not ctx.skip_decode:
            assert stage.pack is not None
            if self._windowed:
                # A window job's pack is the slot's own share of its
                # work (the iq search's prepare): it counts as decode
                # time.  A per-slot job's pack only builds its payload.
                start = time.perf_counter()
                payload = stage.pack(ctx)
                ctx.decode_time_s = time.perf_counter() - start
            else:
                payload = stage.pack(ctx)
            self._pending.append(ctx)
            self._inflight.append(ctx)
            self._window_seqs.append(ctx.seq)
            self._window_payloads.append(payload)
            if len(self._window_seqs) >= self._window_cap:
                self._close_window()
        else:
            self._pending.append(ctx)
            self._close_window()
        self._step()
        return ctx

    def _close_window(self) -> None:
        """Queue the open window, if any."""
        seqs, payloads = self._window_seqs, self._window_payloads
        if not seqs:
            return
        self._window_seqs, self._window_payloads = [], []
        assert self._parallel is not None
        self._windows.append(WindowRun(seqs, self._parallel.fn, payloads))

    def _step(self) -> None:
        """Give the queued windows one slot's share of the backbone:
        one slice of the oldest window with shared work left, then at
        most one finished slot, the oldest, once its window's shared
        work is done.  So no slot carries a whole window, and a slot
        commits at most about two windows after it was captured."""
        windows = self._windows
        for window in windows:
            if window.slices_left:
                window.slice()
                break
        if windows and not windows[0].slices_left:
            head = windows[0]
            self._rejoin(head.finish())
            if head.done:
                windows.popleft()
        self._commit_ready()

    def _record_stage(self, name: str, elapsed_s: float) -> None:
        self._stage_stats[name].record(elapsed_s)

    @staticmethod
    def _slot_index(ctx: SlotContext) -> int:
        """Slot index for event labelling (commit ticket when the
        driving loop's output carries no slot)."""
        slot = getattr(getattr(ctx.output, "slot", None), "index", None)
        return int(slot) if slot is not None else ctx.seq

    # ---------------------------------------------------------- commit
    def _rejoin(self, result: JobResult) -> None:
        """Fold a finished job back into its context, the oldest slot
        still waiting for one (on the backbone)."""
        stage = self._parallel
        assert stage is not None and stage.merge is not None
        ctx = self._inflight.popleft()
        if result.error is not None:
            ctx.error = result.error
        else:
            try:
                stage.merge(ctx, result.result)
            except BaseException as exc:  # noqa: BLE001 - raised at commit
                ctx.error = exc
        ctx.decode_time_s += result.elapsed_s
        self._record_stage(stage.name, ctx.decode_time_s)

    def _commit_ready(self) -> None:
        """Commit pending slots from the head until one still waits for
        its parallel job."""
        pending, inflight = self._pending, self._inflight
        while pending and not (inflight and inflight[0] is pending[0]):
            self._commit(pending.popleft())

    def _commit(self, ctx: SlotContext) -> None:
        if ctx.error is not None:
            raise SlotRuntimeError(
                f"slot {ctx.seq} failed in stage "
                f"{self._parallel.name if self._parallel else '?'}: "
                f"{ctx.error!r}") from ctx.error
        if ctx.decode_time_s > self.slot_budget_s:
            self._overruns += 1
        obs = self._obs
        slot = self._slot_index(ctx) if obs else ctx.seq
        if obs:
            # All of the slot's deferred events flush here, on the
            # backbone, strictly in commit order: backbone stage spans,
            # the parallel stage's span, then whatever the stages and
            # the merge hook queued on the context (decode misses).
            for name, elapsed in ctx.stage_times:
                obs.timing("stage.span", elapsed, stage=name, slot=slot,
                           outcome="ok")
            if self._parallel is not None and not ctx.skip_decode:
                obs.timing("stage.span", ctx.decode_time_s,
                           stage=self._parallel.name, slot=slot,
                           outcome="ok")
            for name, fields in ctx.events:
                obs.emit(name, **fields)
        for stage in self._sinks:
            start = time.perf_counter()
            stage.fn(ctx)
            elapsed = time.perf_counter() - start
            self._record_stage(stage.name, elapsed)
            if obs:
                obs.timing("stage.span", elapsed, stage=stage.name,
                           slot=slot, outcome="ok")
        self._completed += 1

    def flush(self) -> None:
        """Barrier: close the open window, run every queued window to
        the end and commit every pending slot in order."""
        self._close_window()
        while self._windows:
            for result in run_window(self._windows.popleft()):
                self._rejoin(result)
        self._commit_ready()

    # ----------------------------------------------------------- stats
    def stats(self) -> RuntimeStats:
        """Consistent snapshot of every counter."""
        stages = tuple(replace(self._stage_stats[s.name])
                       for s in self.stages)
        return RuntimeStats(
            slots_submitted=self._submitted,
            slots_completed=self._completed,
            budget_overruns=self._overruns,
            slot_budget_s=self.slot_budget_s,
            stages=stages)

    def reset_stats(self) -> None:
        """Zero the counters (e.g. after a benchmark warm-up)."""
        for stats in self._stage_stats.values():
            stats.calls = 0
            stats.total_s = 0.0
            stats.max_s = 0.0
        self._submitted = self._completed = self._overruns = 0
