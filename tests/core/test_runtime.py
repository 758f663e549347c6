"""Tests for the staged slot runtime (executors, ordering, backpressure)."""

import pickle
import threading
import time

import numpy as np
import pytest

from repro import NRScope, Simulation
from repro.core import runtime as runtime_module
from repro.core.dci_decoder import grid_decode_job, record_decode_job
from repro.core.rach_sniffer import RachSniffer, SpaceSnapshot
from repro.core.runtime import DEFAULT_WORKERS, InlineExecutor, \
    ProcessExecutor, SlotRuntime, SlotRuntimeError, Stage, \
    build_executor, dumps_payload
from repro.gnb.cell_config import SRSRAN_PROFILE, TMOBILE_N25_PROFILE
from repro.obs import ObsContext, RingReporter
from repro.rrc.messages import RrcSetup


def square(n):
    return n ** 2


def job_stage(name, job=len, pack=lambda ctx: (),
              merge=lambda ctx, result: None):
    """A parallel stage running ``job(pack(ctx))``; the result is
    dropped unless ``merge`` says otherwise."""
    return Stage(name, job, parallel=True, pack=pack, merge=merge)


def make_runtime(executor=None, **kwargs):
    """A two-stage runtime: tag on the backbone, square in parallel,
    collect in the sink."""
    committed = []

    def backbone(ctx):
        ctx.output = dict(ctx.output)

    def merge(ctx, result):
        ctx.output["square"] = result

    def sink(ctx):
        committed.append(ctx)

    runtime = SlotRuntime(
        stages=[Stage("backbone", backbone),
                job_stage("work", square,
                          pack=lambda ctx: ctx.output["n"], merge=merge),
                Stage("sink", sink, sink=True)],
        executor=executor, **kwargs)
    return runtime, committed


def payload_runtime(payload, job=len, executor=None):
    """A runtime whose parallel stage ships ``job(payload)`` to a
    process executor."""
    return SlotRuntime(
        stages=[job_stage("decode", job, pack=lambda ctx: payload)],
        executor=executor or ProcessExecutor(n_workers=1))


def tracked_ue():
    sniffer = RachSniffer(bwp_n_prb=52)
    return sniffer.discover(0x4601, 0.0, RrcSetup(tc_rnti=0x4601))


class TestSlotRuntime:
    def test_inline_processes_synchronously(self):
        runtime, committed = make_runtime(InlineExecutor())
        for n in range(5):
            runtime.submit({"n": n})
        assert [c.output["square"] for c in committed] == \
            [n * n for n in range(5)]
        stats = runtime.stats()
        assert stats.slots_submitted == stats.slots_completed == 5
        assert stats.slots_dropped == 0
        assert stats.stage("work").calls == 5
        assert stats.stage("work").mean_us >= 0.0

    def test_out_of_order_completions_commit_in_slot_order(
            self, scripted_executor):
        runtime, committed = make_runtime(scripted_executor())
        for n in range(40):
            runtime.submit({"n": n})
        assert committed == []
        runtime.close()
        assert [c.output["n"] for c in committed] == list(range(40))
        assert [c.output["square"] for c in committed] == \
            [n * n for n in range(40)]
        assert runtime.stats().slots_completed == 40

    def test_halted_slot_skips_tail(self):
        hits = []
        runtime = SlotRuntime(stages=[
            Stage("gate", lambda ctx: False if ctx.output < 0 else None),
            Stage("tail", hits.append, sink=True)])
        runtime.submit(-1)
        runtime.submit(1)
        assert len(hits) == 1
        assert runtime.stats().slots_completed == 1

    def test_worker_error_raised_at_commit(self, scripted_executor):
        def boom(payload):
            raise RuntimeError("decode exploded")

        runtime = SlotRuntime(
            stages=[job_stage("work", boom)],
            executor=scripted_executor())
        with pytest.raises(SlotRuntimeError, match="decode exploded"):
            runtime.submit(object())
            runtime.flush()
        runtime.executor.shutdown()

    def test_reset_stats(self):
        runtime, _ = make_runtime(InlineExecutor())
        runtime.submit({"n": 2})
        runtime.reset_stats()
        stats = runtime.stats()
        assert stats.slots_submitted == 0
        assert stats.stage("work").calls == 0

    def test_rejects_two_parallel_stages(self):
        with pytest.raises(SlotRuntimeError):
            SlotRuntime(stages=[job_stage("a"), job_stage("b")])

    @pytest.mark.parametrize("hooks", [
        {}, {"pack": lambda ctx: ()},
        {"merge": lambda ctx, result: None}], ids=["none", "pack", "merge"])
    def test_parallel_stage_needs_pack_and_merge(self, hooks):
        """Every executor runs ``merge(ctx, job(pack(ctx)))``, so a
        parallel stage without both hooks is refused up front."""
        with pytest.raises(SlotRuntimeError, match="pack and merge"):
            SlotRuntime(stages=[Stage("a", len, parallel=True, **hooks)])

    def test_rejects_backbone_after_sink(self):
        with pytest.raises(SlotRuntimeError):
            SlotRuntime(stages=[Stage("sink", lambda c: None, sink=True),
                                Stage("late", lambda c: None)])

    def test_rejects_duplicate_stage_names(self):
        with pytest.raises(SlotRuntimeError):
            SlotRuntime(stages=[Stage("x", lambda c: None),
                                Stage("x", lambda c: None)])

    def test_unknown_stage_lookup(self):
        runtime, _ = make_runtime(InlineExecutor())
        with pytest.raises(SlotRuntimeError):
            runtime.stats().stage("nonexistent")


class TestBackpressure:
    def test_overload_drops_with_accounting_and_never_deadlocks(
            self, scripted_executor):
        """Feed slots to a pool that holds two and refuses the rest:
        the runtime must shed them with accounting, then flush cleanly
        — no stall, no deadlock."""
        runtime = SlotRuntime(
            stages=[job_stage("slow"),
                    Stage("sink", lambda ctx: None, sink=True)],
            executor=scripted_executor(refuse=lambda seq: seq >= 2),
            drop_cost=lambda ctx: 3)
        start = time.monotonic()
        for n in range(50):
            runtime.submit(n)
        assert time.monotonic() - start < 2.0, "submission must not stall"
        runtime.close()
        stats = runtime.stats()
        assert stats.slots_dropped > 0
        assert stats.slots_dropped == 48
        assert stats.dcis_dropped == 3 * stats.slots_dropped
        # Dropped slots still commit the sink, so every slot completes.
        assert stats.slots_completed == 50
        assert stats.drop_rate > 0.0

    def test_dropped_context_flagged(self, scripted_executor):
        dropped_flags = []
        runtime = SlotRuntime(
            stages=[job_stage("slow"),
                    Stage("sink",
                          lambda ctx: dropped_flags.append(ctx.dropped),
                          sink=True)],
            executor=scripted_executor(refuse=lambda seq: seq % 2 == 1))
        for n in range(20):
            runtime.submit(n)
        runtime.close()
        assert any(dropped_flags)
        assert not dropped_flags[0]
        assert dropped_flags == [n % 2 == 1 for n in range(20)]

    def test_flush_timeout_raises(self):
        runtime = SlotRuntime(
            stages=[job_stage("hang", time.sleep, pack=lambda ctx: 2.0)],
            executor=ProcessExecutor(n_workers=1))
        runtime.submit(object())
        with pytest.raises(SlotRuntimeError, match="timed out"):
            runtime.flush(timeout_s=0.05)
        runtime.close()


class TestScopeBackpressure:
    def test_scope_sheds_slots_as_counted_dci_misses(
            self, scripted_executor):
        """A scope whose executor cannot keep up reports the shed slots
        in both RuntimeStats and its own DCI-miss counters — and the
        session still terminates."""
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=11)
        scope = NRScope.attach(
            sim, snr_db=20.0,
            executor=scripted_executor(refuse=lambda seq: seq % 2 == 1))
        sim.run_slots(400)
        scope.close()
        stats = scope.runtime_stats
        assert stats.slots_dropped > 0
        assert scope.counters.slots_dropped == stats.slots_dropped
        assert scope.counters.dcis_dropped == stats.dcis_dropped
        assert scope.counters.dcis_dropped > 0


class TestExecutors:
    def test_build_executor_names(self):
        assert build_executor("inline").name == "inline"
        process = build_executor("process", queue_depth=7)
        assert process.n_workers == DEFAULT_WORKERS == 4
        assert process.queue_depth == 7
        passthrough = InlineExecutor()
        assert build_executor(passthrough) is passthrough
        with pytest.raises(SlotRuntimeError, match="unknown executor"):
            build_executor("quantum")

    def test_worker_count_suffix(self):
        process = build_executor("process:2")
        assert isinstance(process, ProcessExecutor)
        assert process.name == "process"
        assert process.n_workers == 2
        # The suffix is the only way to set the worker count.
        with pytest.raises(TypeError):
            build_executor("process", n_workers=2)
        with pytest.raises(SlotRuntimeError):
            build_executor("inline:2")
        with pytest.raises(SlotRuntimeError):
            build_executor("process:lots")
        # An empty suffix is an error, not the default.
        for spec in ("inline:", "process:"):
            with pytest.raises(SlotRuntimeError):
                build_executor(spec)

    def test_process_rejects_bad_config(self):
        for kwargs in ({"n_workers": 0}, {"queue_depth": 0}):
            with pytest.raises(SlotRuntimeError):
                ProcessExecutor(**kwargs)

    def test_threaded_rejects_bad_config(self):
        # The threaded executor is gone: its specs are unknown and its
        # DCI-thread option is no longer accepted.
        for spec in ("threaded", "threaded:4"):
            with pytest.raises(SlotRuntimeError, match="unknown executor"):
                build_executor(spec)
        with pytest.raises(TypeError):
            build_executor("process", n_dci_threads=2)

    def test_shutdown_idempotent(self):
        executor = ProcessExecutor(n_workers=1)
        executor.start()
        executor.shutdown()
        executor.shutdown()

    def test_close_stops_workers_when_flush_raises(self):
        """A worker error re-raised by close()'s final flush must not
        leave the spawned pool running."""
        executor = ProcessExecutor(n_workers=1)
        runtime = payload_runtime("not a number", job=int,
                                  executor=executor)
        runtime.submit(object())
        with pytest.raises(SlotRuntimeError, match="ValueError"):
            runtime.close()
        assert executor._pool is None


class TestCheckedPickling:
    """ProcessExecutor pickles every payload on the backbone at submit
    and refuses backbone state, so a bad payload fails at the slot that
    built it rather than later, or never, in a worker."""

    @pytest.mark.parametrize("make_value,type_name", [
        (lambda: np.random.default_rng(0), "Generator"),
        (lambda: np.random.PCG64(0), "PCG64"),
        (RingReporter, "RingReporter"),
        (lambda: ObsContext.create([RingReporter()], run_id="t"),
         "ObsContext"),
        (tracked_ue, "TrackedUe"),
    ], ids=["generator", "bit_generator", "reporter", "obs_context",
            "tracked_ue"])
    def test_backbone_state_raises_at_submit(self, make_value,
                                             type_name):
        runtime = payload_runtime({"grid": [0], "nested": [make_value()]})
        with pytest.raises(SlotRuntimeError) as excinfo:
            runtime.submit(object())
        message = str(excinfo.value)
        assert "slot 0" in message and type_name in message
        runtime.close()

    @pytest.mark.parametrize("make_value", [
        lambda: (lambda x: x), threading.Lock,
    ], ids=["lambda", "lock"])
    def test_unpicklable_payload_raises_at_submit_not_commit(
            self, make_value):
        runtime = payload_runtime({"value": make_value()})
        with pytest.raises(SlotRuntimeError, match="slot 0"):
            runtime.submit(object())
        runtime.close()

    @pytest.mark.parametrize("fidelity", ["message", "iq"])
    def test_scope_payloads_pass_the_check(self, fidelity):
        """Both branches of the scope's pack hook ship only plain
        projections (prepared searches, search-space snapshot, records,
        config scalars)."""
        packed = []

        class PackingScope(NRScope):
            def _pack_dci(self, ctx):
                payload = super()._pack_dci(ctx)
                packed.append(payload)
                return payload

        sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=5,
                               fidelity=fidelity)
        scope = PackingScope.attach(
            sim, snr_db=20.0,
            obs=ObsContext.create([RingReporter()], run_id="t"))
        sim.run(seconds=0.1)
        scope.close()
        assert packed
        job = grid_decode_job if fidelity == "iq" else record_decode_job
        for seq, payload in enumerate(packed):
            job_back, _ = pickle.loads(dumps_payload(seq, job, payload))
            assert job_back is job

    @pytest.mark.parametrize("fidelity", ["message", "iq"])
    def test_inline_session_pickles_nothing(self, fidelity, monkeypatch):
        """Inline, the job gets its payload as packed: no payload
        pickling and no wire form is ever built."""

        def refuse(*args):
            raise AssertionError("inline session pickled a payload")

        monkeypatch.setattr(runtime_module, "dumps_payload", refuse)
        monkeypatch.setattr(SpaceSnapshot, "__reduce__", refuse)
        sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=5,
                               fidelity=fidelity)
        scope = NRScope.attach(sim, snr_db=20.0)
        sim.run(seconds=0.1)
        scope.close()
        assert scope.counters.dcis_decoded > 0


class TestCrossExecutorDeterminism:
    @pytest.mark.parametrize("fidelity,seconds",
                             [("message", 0.5), ("iq", 0.1)])
    def test_process_executor_matches_inline(self, fidelity, seconds):
        """Same bar across the process boundary: the spawned-worker
        session (slim wire payloads, per-worker kernel caches) commits
        the identical TelemetryLog."""

        def session(executor, **kwargs):
            sim = Simulation.build(SRSRAN_PROFILE, n_ues=4, seed=42,
                                   fidelity=fidelity)
            scope = NRScope.attach(sim, snr_db=18.0, executor=executor,
                                   idle_timeout_s=5.0, **kwargs)
            sim.run(seconds=seconds)
            scope.close()
            return scope

        inline = session("inline")
        # A deep queue: the simulated clock outruns 1-CPU CI boxes, and
        # this comparison needs a drop-free run, not backpressure.
        process = session("process:2", queue_depth=8192)
        assert process.runtime_stats.slots_dropped == 0, \
            "determinism comparison needs a drop-free run"
        assert inline.telemetry.records == process.telemetry.records
        assert inline.counters == process.counters
        assert inline.tracked_rntis == process.tracked_rntis
        assert inline.uci.observations == process.uci.observations

    @pytest.mark.parametrize("profile", [SRSRAN_PROFILE,
                                         TMOBILE_N25_PROFILE],
                             ids=["srsran-tdd", "tmobile-n25-fdd"])
    def test_process_windows_match_inline_windows(self, profile):
        """iq windows (TDD: closed at the uplink slots; FDD: at the
        cap) shipped whole to the workers commit what the inline
        executor's spread-out windows commit: telemetry, counters,
        decode attempts and the obs stream (durations and the
        executor's name aside)."""

        def session(executor, **kwargs):
            ring = RingReporter()
            sim = Simulation.build(profile, n_ues=4, seed=42,
                                   fidelity="iq")
            scope = NRScope.attach(
                sim, snr_db=18.0, executor=executor, idle_timeout_s=5.0,
                obs=ObsContext.create([ring], run_id="x"), **kwargs)
            sim.run(seconds=0.1)
            scope.close()
            events = [{k: v for k, v in event.items()
                       if k not in ("duration_us", "executor")}
                      for event in ring.events]
            return scope, events

        inline, inline_events = session("inline")
        process, process_events = session("process:2", queue_depth=8192)
        assert process.runtime_stats.slots_dropped == 0
        assert inline.counters.dcis_decoded > 0
        assert inline.telemetry.records == process.telemetry.records
        assert inline.counters == process.counters
        assert inline._grid_decoder.attempts == \
            process._grid_decoder.attempts
        assert inline_events == process_events
