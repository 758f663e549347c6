"""Tests for the staged slot runtime (windows, ordering, errors)."""

import pytest

from repro.core.runtime import SlotRuntime, SlotRuntimeError, Stage


def square(n):
    return n ** 2


def job_stage(name, job=len, pack=lambda ctx: (),
              merge=lambda ctx, result: None):
    """A parallel stage running ``job(pack(ctx))``; the result is
    dropped unless ``merge`` says otherwise."""
    return Stage(name, job, parallel=True, pack=pack, merge=merge)


def make_runtime(job=None):
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
                job_stage("work", job or square,
                          pack=lambda ctx: ctx.output["n"], merge=merge),
                Stage("sink", sink, sink=True)])
    return runtime, committed


def window_squares(payloads):
    """A window job: one slice per slot, then each slot's square."""
    for _ in payloads:
        yield None
    for n in payloads:
        yield square(n)


class TestSlotRuntime:
    def test_inline_processes_synchronously(self):
        runtime, committed = make_runtime()
        for n in range(5):
            runtime.submit({"n": n})
        assert [c.output["square"] for c in committed] == \
            [n * n for n in range(5)]
        stats = runtime.stats()
        assert stats.slots_submitted == stats.slots_completed == 5
        assert stats.slots_dropped == 0
        assert stats.stage("work").calls == 5
        assert stats.stage("work").mean_us >= 0.0

    def test_window_job_commits_in_slot_order(self):
        """A window job's slots commit late, at most one per submit,
        and in slot order; the flush commits the rest."""
        runtime, committed = make_runtime(window_squares)
        for n in range(40):
            before = len(committed)
            runtime.submit({"n": n})
            assert len(committed) - before <= 1
        assert 0 < len(committed) < 40
        runtime.flush()
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

    def test_worker_error_raised_at_commit(self):
        """A job's error is raised at the commit of each slot it left
        unfinished: a plain job's slot, and every slot of a window
        whose shared work raised mid-slice."""
        def boom(payload):
            raise RuntimeError("decode exploded")

        runtime = SlotRuntime(stages=[job_stage("work", boom)])
        with pytest.raises(SlotRuntimeError, match="decode exploded"):
            runtime.submit(object())
            runtime.flush()

        def window_boom(payloads):
            yield None
            raise RuntimeError("decode exploded")

        runtime, committed = make_runtime(window_boom)
        for n in range(3):
            runtime.submit({"n": n})
        for seq in range(3):
            with pytest.raises(SlotRuntimeError,
                               match=f"slot {seq} .*decode exploded"):
                runtime.flush()
        runtime.flush()
        assert committed == []

    def test_reset_stats(self):
        runtime, _ = make_runtime()
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
        """The runtime runs ``merge(ctx, job(pack(ctx)))``, so a
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
        runtime, _ = make_runtime()
        with pytest.raises(SlotRuntimeError):
            runtime.stats().stage("nonexistent")
