"""The DCI stage's read-only view of the tracked UEs.

The parallel stage reads a :class:`~repro.core.rach_sniffer.SpaceSnapshot`
of frozen search spaces, so a tracked-UE write from it fails by
construction and surfaces as a ``SlotRuntimeError`` at commit.
"""

import dataclasses
import operator

import pytest

from repro import NRScope, Simulation, SRSRAN_PROFILE
from repro.core.rach_sniffer import RachSniffer
from repro.core.runtime import (
    SlotContext,
    SlotRuntime,
    SlotRuntimeError,
    Stage,
)
from repro.phy.coreset import SearchSpace
from repro.rrc.messages import RrcSetup


def make_sniffer(*rntis):
    sniffer = RachSniffer(bwp_n_prb=52)
    for rnti in rntis:
        sniffer.discover(rnti, 0.0, RrcSetup(tc_rnti=rnti))
    return sniffer


class TestTrackedGuard:
    """Tracked state is guarded by structure: the parallel stage reads
    a read-only snapshot of frozen search spaces, so writes fail."""

    def test_snapshot_is_frozen_everywhere(self):
        sniffer = make_sniffer(1)
        snapshot = sniffer.space_snapshot()
        for op in (lambda: snapshot.pop(1),
                   lambda: snapshot.popitem(),
                   lambda: snapshot.clear(),
                   lambda: snapshot.update({2: None}),
                   lambda: snapshot.setdefault(3, None)):
            with pytest.raises(AttributeError):
                op()
        for op in (lambda: operator.setitem(snapshot, 4, None),
                   lambda: operator.delitem(snapshot, 1)):
            with pytest.raises(TypeError):
                op()
        assert sorted(sniffer.tracked) == [1]

    def test_reads_pass_through(self):
        sniffer = make_sniffer(7)
        snapshot = sniffer.space_snapshot()
        assert 7 in snapshot
        assert snapshot[7] is sniffer.tracked[7].search_space
        assert sorted(snapshot) == [7]

    def test_ue_mutation_legal_outside_stage(self):
        """Backbone stages mutate UEs through the live table; the
        snapshot is a copy, so those changes never show in it."""
        sniffer = make_sniffer(1)
        snapshot = sniffer.space_snapshot()
        sniffer.tracked[1].touch(1.5)
        assert sniffer.tracked[1].last_seen_s == 1.5
        sniffer.discover(2, 1.5, None)
        sniffer.release(1)
        assert sorted(snapshot) == [1]

    def test_new_snapshot_follows_table_changes(self):
        sniffer = make_sniffer(1)
        assert sorted(sniffer.space_snapshot()) == [1]
        sniffer.discover(2, 5.0, None)
        assert sorted(sniffer.space_snapshot()) == [1, 2]
        sniffer.release(2)
        assert sorted(sniffer.space_snapshot()) == [1]
        assert sniffer.prune_idle(now_s=10.0, idle_timeout_s=1.0) == [1]
        assert dict(sniffer.space_snapshot()) == {}

    def test_ue_mutation_trips_inside_stage(self):
        """Snapshot values are frozen spaces, not TrackedUe objects:
        there is no mutator to call and attribute stores raise."""
        space = make_sniffer(1).space_snapshot()[1]
        assert isinstance(space, SearchSpace)
        with pytest.raises(dataclasses.FrozenInstanceError):
            space.is_common = True
        assert not hasattr(space, "touch")


class TestRuntimeIntegration:
    """An impure parallel stage fails at commit."""

    def _runtime(self, job):
        return SlotRuntime(
            stages=[Stage("decode", job, parallel=True,
                          pack=lambda ctx: ctx.tracked,
                          merge=lambda ctx, result: None)])

    def test_tracked_mutation_in_parallel_stage_is_caught(self):
        """A tracked-UE write from the parallel stage fails on
        structure alone: the snapshot holds no TrackedUe to touch and
        rejects item assignment."""
        sniffer = make_sniffer(0x4601)
        ue = sniffer.tracked[0x4601]

        def touch_ue(tracked):
            tracked[ue.rnti].touch(9.9)

        def replace_ue(tracked):
            tracked[ue.rnti] = ue

        for bad_stage, cause in ((touch_ue, AttributeError),
                                 (replace_ue, TypeError)):
            runtime = self._runtime(bad_stage)
            ctx = SlotContext(output=None)
            ctx.tracked = sniffer.space_snapshot()
            with pytest.raises(SlotRuntimeError) as excinfo:
                runtime.submit(ctx)
                runtime.flush()
            assert isinstance(excinfo.value.__cause__, cause)
        assert ue.last_seen_s == 0.0
        assert sniffer.tracked == {ue.rnti: ue}


class TestScopeIntegration:
    def test_scope_snapshot_is_read_only_without_nrsan(self):
        """What the scope hands its DCI stage: a mapping that rejects
        item assignment, holding the tracked UEs' frozen search
        spaces."""
        seen = []

        class SpyScope(NRScope):
            def _pack_dci(self, ctx):
                seen.append(ctx.tracked)
                return super()._pack_dci(ctx)

        sim = Simulation.build(SRSRAN_PROFILE, n_ues=2, seed=5)
        scope = SpyScope.attach(sim, snr_db=20.0)
        sim.run(seconds=0.5)
        scope.flush()
        snapshot = seen[-1]
        assert sorted(snapshot) == scope.tracked_rntis != []
        with pytest.raises(TypeError):
            snapshot[scope.tracked_rntis[0]] = None
        for rnti, space in snapshot.items():
            assert isinstance(space, SearchSpace)
            assert type(space).__dataclass_params__.frozen
            assert space is scope.rach.tracked[rnti].search_space
