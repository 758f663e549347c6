"""The staged slot runtime: NR-Scope's Fig 4 pipeline as one machine.

The paper's tool keeps up with 0.5 ms TTIs by structuring slot work as a
pipeline — scheduler, worker pool, per-slot SIB/RACH/DCI tasks — and by
*dropping* slots it cannot process in time rather than stalling the
radio.  This module is that architecture, shared by every consumer in
the repository (:class:`~repro.core.scope.NRScope`, the multi-cell
controller, the Fig 12 experiment):

* :class:`Stage` - one typed processing step.  *Backbone* stages run
  sequentially in slot order on the submitting thread (cell sync,
  broadcast decode, RACH sniffing: they mutate session state and draw
  from the session RNG, so their order is the determinism contract).
  *Sink* stages (telemetry consumers) are committed strictly in slot
  order behind a reorder buffer.
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
  cannot reach backbone state, and every executor commits the same
  telemetry by construction.
* :class:`InlineExecutor` - runs windows on the caller's thread, with
  the payloads as built (nothing is pickled), spread over the slots
  that follow: each submit runs one slice of the oldest open window
  and finishes, merges and commits at most one slot.  The
  deterministic, test-friendly default.
* :class:`ProcessExecutor` - the paper's worker pool: N spawned worker
  processes.  Each closed window's ``(job, payloads)`` is pickled on
  the backbone at submit by a checked pickler that refuses backbone
  state (RNG streams, the obs bus, tracked UEs), so a bad payload
  fails at the slot that built it, and a worker runs the window to the
  end.
* Backpressure - the in-flight backlog is bounded; a window arriving
  while the pool is saturated is *dropped with accounting* (the
  paper's real-time constraint: an over-budget slot is a counted DCI
  miss, never a stall).
* :class:`RuntimeStats` - per-stage timing/counter snapshot, the Fig 12
  measurement surface, exposed by ``repro.cli sniff --runtime-stats``.
  The parallel stage's time per slot is amortized: a window job's
  ``pack`` (the slot's own share of its work), the slot's finish and
  an equal share of its window's shared work.
* Observability - an optional :mod:`repro.obs` context turns every
  stage run into a timed span event (stage, slot, duration,
  drop/backpressure outcome) and every backpressure drop into a
  ``stage.drop`` counter.  All of a slot's events are emitted at
  commit, on the backbone, so the stream is identical whichever
  executor ran the slot and however its windows fell; disabled, the
  bus is a no-op singleton behind a truthiness guard (zero
  allocations).

Two deviations worth naming.  The paper decodes each slot within its
own TTI; here a windowed slot commits up to about two TDD periods
after its capture, and the slot budget is checked against amortized
decode time (DESIGN.md, "The windowed DCI decode").  And the paper
also splits one slot's UE table across several DCI threads.  There is
no counterpart here — CPython's GIL serialises the pure-Python decode,
and the batched search already decodes each candidate position once
for every tracked UE (EXPERIMENTS.md discusses it).
"""

from __future__ import annotations

import inspect
import io
import multiprocessing
import pickle
import time
from collections import deque
from concurrent import futures
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.constants import TTI_DURATION_S
from repro.core.dci_decoder import DecodedDci
from repro.core.rach_sniffer import TrackedUe
from repro.obs.context import AnyObsContext, OBS_NOOP, ObsContext
from repro.obs.reporters import Reporter
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
    #: idle-pruning sees them in slot order under every executor.
    touch_marks: list[tuple[int, float]] = field(default_factory=list)
    skip_decode: bool = False     #: backbone decided no decode is needed
    dropped: bool = False         #: backpressure dropped the decode
    #: Amortized parallel-stage time: a window job's ``pack``, then the
    #: slot's finish and its share of its window's shared work.
    decode_time_s: float = 0.0
    error: BaseException | None = None
    #: Per-stage backbone timings, captured when the bus is enabled and
    #: replayed as span events at commit so every executor emits the
    #: identical slot-ordered stream.
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

    At most one stage is ``parallel``.  Its ``fn`` is the job, picklable
    by reference: a module-level window job (a generator function of a
    window's payloads, see :class:`WindowRun`) or a ``payload ->
    result`` function.  ``pack`` runs on the backbone and builds the
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
    #: Slots whose run of this stage was shed under backpressure (only
    #: the parallel stage can drop; mirrored on the bus as the
    #: ``stage.drop`` counter the CLI's drop column reads).
    drops: int = 0

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

    executor: str
    slots_submitted: int
    slots_completed: int
    slots_dropped: int
    dcis_dropped: int
    #: Slots whose amortized decode time (a window job's ``pack``, the
    #: slot's own finish and its share of its window's shared work)
    #: exceeded ``slot_budget_s``.
    budget_overruns: int
    slot_budget_s: float
    stages: tuple[StageStats, ...]

    def stage(self, name: str) -> StageStats:
        """Look up one stage's counters by name."""
        for stats in self.stages:
            if stats.name == name:
                return stats
        raise SlotRuntimeError(f"unknown stage: {name!r}")

    @property
    def drop_rate(self) -> float:
        """Dropped slots over submitted slots."""
        if not self.slots_submitted:
            return 0.0
        return self.slots_dropped / self.slots_submitted


# ------------------------------------------------------------ executors
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


class Executor:
    """Where the parallel stage's windows run.  Subclasses supply the
    concurrency."""

    name = "base"

    def start(self) -> None:
        """Bring up any workers (idempotent)."""

    def shutdown(self) -> None:
        """Stop workers after queued work finishes."""

    def try_submit(self, seqs: list[int], job: Callable[[Any], object],
                   payloads: list[Any]) -> bool:
        """Accept one closed window's job, or refuse (backpressure)."""
        raise NotImplementedError

    def step(self) -> None:
        """Give queued work one slot's share of the backbone (executors
        with workers of their own do nothing)."""

    def pop_ready(self) -> list[JobResult]:
        """Collect finished slots (any order; non-blocking)."""
        raise NotImplementedError

    def wait(self, timeout_s: float) -> None:
        """Block until all accepted work has finished."""
        raise NotImplementedError


class InlineExecutor(Executor):
    """Deterministic execution on the caller's thread, spread over the
    slots that follow a window.

    Each :meth:`step` runs one slice of the oldest window with shared
    work left, then finishes at most one slot, the oldest, once its
    window's shared work is done.  So no slot carries a whole window,
    and a slot commits at most about two windows after it was
    captured; :meth:`wait` runs everything queued to the end.
    """

    name = "inline"

    def __init__(self) -> None:
        self._windows: deque[WindowRun] = deque()
        self._ready: list[JobResult] = []

    def try_submit(self, seqs: list[int], job: Callable[[Any], object],
                   payloads: list[Any]) -> bool:
        self._windows.append(WindowRun(seqs, job, payloads))
        return True

    def step(self) -> None:
        for window in self._windows:
            if window.slices_left:
                window.slice()
                break
        if self._windows and not self._windows[0].slices_left:
            head = self._windows[0]
            self._ready.append(head.finish())
            if head.done:
                self._windows.popleft()

    def pop_ready(self) -> list[JobResult]:
        ready, self._ready = self._ready, []
        return ready

    def wait(self, timeout_s: float) -> None:
        while self._windows:
            self._ready.extend(run_window(self._windows.popleft()))


#: Worker processes of a bare ``"process"`` executor spec.
DEFAULT_WORKERS = 4

#: Types whose instances are backbone state: a worker holding a copy
#: would fork an RNG stream, emit outside commit order, or decode
#: against tracked state the backbone keeps mutating.
_BACKBONE_STATE = (np.random.Generator, np.random.BitGenerator,
                   ObsContext, type(OBS_NOOP), TrackedUe)


@lru_cache(maxsize=None)
def _is_backbone_state(cls: type) -> bool:
    return issubclass(cls, _BACKBONE_STATE) or issubclass(cls, Reporter)


class _PayloadPickler(pickle.Pickler):
    """Pickler that refuses backbone state anywhere in a payload."""

    def reducer_override(self, obj: object) -> object:
        if _is_backbone_state(type(obj)):
            raise pickle.PicklingError(
                f"{type(obj).__qualname__} is backbone state and must "
                f"not be shipped to a worker")
        return NotImplemented


def dumps_payload(seq: int, job: Callable[[object], object],
                  payload: object) -> bytes:
    """Pickle ``(job, payload)`` for a worker process: one window's
    job and payloads, from slot ``seq`` on.

    Runs on the backbone at submit, so the payload is captured in slot
    order, and a payload that cannot or must not cross the process
    boundary raises :class:`SlotRuntimeError` naming the slot.
    """
    buffer = io.BytesIO()
    try:
        _PayloadPickler(buffer, pickle.HIGHEST_PROTOCOL).dump(
            (job, payload))
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SlotRuntimeError(
            f"slot {seq}: payload cannot cross the process boundary: "
            f"{exc}") from exc
    return buffer.getvalue()


def _run_pickled(seqs: list[int], blob: bytes) -> list[JobResult]:
    """Worker-side entry: unpickle one window and run it to the end
    (its clocks exclude the pickle transport)."""
    job, payloads = pickle.loads(blob)
    return run_window(WindowRun(seqs, job, payloads))


class ProcessExecutor(Executor):
    """True multi-core decode: N spawned worker processes.

    Each closed window's ``(job, payloads)`` is pickled here at submit
    by :func:`dumps_payload`, and a worker runs the window to the end;
    results come back as :class:`JobResult` per slot and are merged on
    the backbone.  The pending slots play the bounded queue's role — a
    window that would take more than ``queue_depth`` slots in flight
    is refused, and the runtime turns the refusal into counted slot
    drops.
    Workers are *spawned* (never forked), so each holds only what the
    payloads carry; module-level kernel caches warm up per worker.
    """

    name = "process"

    def __init__(self, n_workers: int = DEFAULT_WORKERS,
                 queue_depth: int = 256) -> None:
        if n_workers < 1:
            raise SlotRuntimeError(f"need at least one worker: {n_workers}")
        if queue_depth < 1:
            raise SlotRuntimeError(f"queue depth must be >= 1: {queue_depth}")
        self.n_workers = n_workers
        self.queue_depth = queue_depth
        self._pool: futures.ProcessPoolExecutor | None = None
        self._pending: dict[tuple[int, ...],
                            futures.Future[list[JobResult]]] = {}
        self._in_flight = 0
        self._ready: list[JobResult] = []

    def start(self) -> None:
        if self._pool is None:
            self._pool = futures.ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=multiprocessing.get_context("spawn"))

    def try_submit(self, seqs: list[int], job: Callable[[Any], object],
                   payloads: list[Any]) -> bool:
        self.start()
        self._reap()
        if self._in_flight + len(seqs) > self.queue_depth:
            return False
        blob = dumps_payload(seqs[0], job, payloads)
        assert self._pool is not None
        self._pending[tuple(seqs)] = self._pool.submit(_run_pickled, seqs,
                                                       blob)
        self._in_flight += len(seqs)
        return True

    def _reap(self) -> None:
        done = [seqs for seqs, fut in self._pending.items() if fut.done()]
        for seqs in done:
            fut = self._pending.pop(seqs)
            self._in_flight -= len(seqs)
            try:
                self._ready.extend(fut.result())
            except BaseException as exc:  # noqa: BLE001 - surfaced at commit
                self._ready.extend(JobResult(seq=seq, result=None,
                                             elapsed_s=0.0, error=exc)
                                   for seq in seqs)

    def pop_ready(self) -> list[JobResult]:
        self._reap()
        ready, self._ready = self._ready, []
        return ready

    def wait(self, timeout_s: float) -> None:
        pending = list(self._pending.values())
        if not pending:
            return
        _, not_done = futures.wait(pending, timeout=timeout_s)
        if not_done:
            raise SlotRuntimeError(
                f"timed out with {len(not_done)} windows in flight")

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def build_executor(spec: str | Executor,
                   queue_depth: int = 256) -> Executor:
    """Resolve an executor from a name or pass an instance through.

    ``"inline"`` or ``"process"``; the latter accepts a worker-count
    suffix (``"process:2"``), else runs :data:`DEFAULT_WORKERS`
    workers.  An empty suffix (``"process:"``) is refused.
    """
    if isinstance(spec, Executor):
        return spec
    base, colon, suffix = spec.partition(":")
    n_workers = DEFAULT_WORKERS
    if colon:
        try:
            n_workers = int(suffix)
        except ValueError:
            raise SlotRuntimeError(
                f"bad worker count in executor spec: {spec!r}") from None
    if base == "inline":
        if colon:
            raise SlotRuntimeError(
                f"inline executor takes no worker count: {spec!r}")
        return InlineExecutor()
    if base == "process":
        return ProcessExecutor(n_workers=n_workers,
                               queue_depth=queue_depth)
    raise SlotRuntimeError(f"unknown executor: {spec!r}")


# -------------------------------------------------------------- runtime
class SlotRuntime:
    """Drives slots through backbone stages, the executor, and sinks.

    The submitting thread is the *backbone*: it runs the sequential
    stages for each slot in arrival order, packs the parallel stage's
    payload into the open window, hands each closed window to the
    executor, and commits sink stages strictly in slot order as
    results come back (a reorder buffer bridges windows and
    out-of-order workers).  ``flush`` closes the open window and
    barriers on everything in flight; it is called at prune
    boundaries, checkpoints and end of session, and is what makes a
    process run byte-identical to an inline one.
    """

    def __init__(self, stages: Sequence[Stage],
                 executor: Executor | None = None,
                 slot_budget_s: float = TTI_DURATION_S[30],
                 drop_cost: Callable[[SlotContext], int] | None = None,
                 flush_timeout_s: float = 30.0,
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
        self.executor = executor or InlineExecutor()
        self.slot_budget_s = slot_budget_s
        self.flush_timeout_s = flush_timeout_s
        #: Observability bus.  When disabled this is the no-op
        #: singleton and every emission site is behind an ``if
        #: self._obs:`` guard — one pointer truthiness check, zero
        #: allocations on the hot path.  When enabled, all of a slot's
        #: span/failure events are emitted at *commit* in slot order,
        #: so inline and process sessions produce the identical event
        #: sequence.
        self._obs = obs if obs is not None else OBS_NOOP
        self._drop_cost = drop_cost or (lambda ctx: 0)
        self._stage_stats = {s.name: StageStats(name=s.name)
                             for s in stages}
        self._submitted = 0
        self._completed = 0
        self._dropped = 0
        self._dcis_dropped = 0
        self._overruns = 0
        self._next_commit = 0
        self._commit_seq = 0
        self._reorder: dict[int, SlotContext] = {}
        #: Contexts whose parallel job the executor accepted; rejoined
        #: with their JobResult on drain.
        self._inflight: dict[int, SlotContext] = {}
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
        under the inline executor — process results land at a later
        ``submit``/``flush``)."""
        ctx = output if isinstance(output, SlotContext) \
            else SlotContext(output=output)
        self._submitted += 1
        halted = False
        for stage in self._backbone:
            start = time.perf_counter()
            verdict = stage.fn(ctx)
            elapsed = time.perf_counter() - start
            self._record_stage(stage.name, elapsed)
            if self._obs:
                ctx.stage_times.append((stage.name, elapsed))
            if verdict is False:
                halted = True
                break
        if halted:
            # Halted slots never reach the commit path.  They only
            # occur before the first committed slot (pre-sync), so
            # emitting here keeps the global stream in slot order
            # under every executor.
            if self._obs:
                slot = self._slot_index(ctx)
                for name, elapsed in ctx.stage_times:
                    self._obs.timing("stage.span", elapsed, stage=name,
                                     slot=slot, outcome="halt")
            self._drain_ready()
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
            self._inflight[ctx.seq] = ctx
            self._window_seqs.append(ctx.seq)
            self._window_payloads.append(payload)
            if len(self._window_seqs) >= self._window_cap:
                self._close_window()
        else:
            self._close_window()
            self._reorder[ctx.seq] = ctx
        self.executor.step()
        self._drain_ready()
        return ctx

    def _close_window(self) -> None:
        """Hand the open window, if any, to the executor; a refused
        window's slots are dropped with accounting."""
        seqs, payloads = self._window_seqs, self._window_payloads
        if not seqs:
            return
        self._window_seqs, self._window_payloads = [], []
        stage = self._parallel
        assert stage is not None
        if self.executor.try_submit(seqs, stage.fn, payloads):
            return
        for seq in seqs:
            ctx = self._inflight.pop(seq)
            ctx.dropped = True
            self._dropped += 1
            self._dcis_dropped += int(self._drop_cost(ctx))
            self._stage_stats[stage.name].drops += 1
            self._reorder[ctx.seq] = ctx

    def _record_stage(self, name: str, elapsed_s: float) -> None:
        self._stage_stats[name].record(elapsed_s)

    @staticmethod
    def _slot_index(ctx: SlotContext) -> int:
        """Slot index for event labelling (commit ticket when the
        driving loop's output carries no slot)."""
        slot = getattr(getattr(ctx.output, "slot", None), "index", None)
        return int(slot) if slot is not None else ctx.seq

    # ---------------------------------------------------------- commit
    def _drain_ready(self) -> None:
        for result in self.executor.pop_ready():
            self._reorder[result.seq] = self._rejoin(result)
        while self._next_commit in self._reorder:
            ctx = self._reorder.pop(self._next_commit)
            self._next_commit += 1
            self._commit(ctx)

    def _rejoin(self, result: JobResult) -> SlotContext:
        """Fold a finished job back into its context (on the
        backbone, in completion order; commit reorders)."""
        stage = self._parallel
        assert stage is not None and stage.merge is not None
        ctx = self._inflight.pop(result.seq)
        if result.error is not None:
            ctx.error = result.error
        else:
            try:
                stage.merge(ctx, result.result)
            except BaseException as exc:  # noqa: BLE001 - raised at commit
                ctx.error = exc
        ctx.decode_time_s += result.elapsed_s
        self._record_stage(stage.name, ctx.decode_time_s)
        return ctx

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
            # the parallel stage's span (with its drop/backpressure
            # outcome), then whatever the stages and the merge hook
            # queued on the context (decode misses).
            for name, elapsed in ctx.stage_times:
                obs.timing("stage.span", elapsed, stage=name, slot=slot,
                           outcome="ok")
            if self._parallel is not None and not ctx.skip_decode:
                outcome = "backpressure" if ctx.dropped else "ok"
                obs.timing("stage.span", ctx.decode_time_s,
                           stage=self._parallel.name, slot=slot,
                           outcome=outcome)
                if ctx.dropped:
                    obs.count("stage.drop", stage=self._parallel.name,
                              slot=slot, reason="backpressure")
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

    def flush(self, timeout_s: float | None = None) -> None:
        """Barrier: close the open window, wait for in-flight slots and
        commit them in order."""
        self._close_window()
        self.executor.wait(timeout_s if timeout_s is not None
                           else self.flush_timeout_s)
        self._drain_ready()
        if self._reorder:
            raise SlotRuntimeError(
                f"flush left {len(self._reorder)} slots uncommitted "
                f"(next commit seq {self._next_commit})")

    def close(self) -> None:
        """Flush and stop the executor's workers (also when the flush
        raises, so a failed session leaves no worker processes)."""
        try:
            self.flush()
        finally:
            self.executor.shutdown()

    # ----------------------------------------------------------- stats
    def stats(self) -> RuntimeStats:
        """Consistent snapshot of every counter."""
        stages = tuple(replace(self._stage_stats[s.name])
                       for s in self.stages)
        return RuntimeStats(
            executor=self.executor.name,
            slots_submitted=self._submitted,
            slots_completed=self._completed,
            slots_dropped=self._dropped,
            dcis_dropped=self._dcis_dropped,
            budget_overruns=self._overruns,
            slot_budget_s=self.slot_budget_s,
            stages=stages)

    def reset_stats(self) -> None:
        """Zero the counters (e.g. after a benchmark warm-up)."""
        for stats in self._stage_stats.values():
            stats.calls = 0
            stats.total_s = 0.0
            stats.max_s = 0.0
            stats.drops = 0
        self._submitted = self._completed = 0
        self._dropped = self._dcis_dropped = self._overruns = 0
