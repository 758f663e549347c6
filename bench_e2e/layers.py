"""The layers the traced run times, and the per-layer metrics it reports.

Every target is a public function or method of one of the program's
modules; the span names (``gnb.step``, ``phy.polar_decode``, ...) are
the metric prefixes listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import pickle

from repro.analysis import summary
from repro.core import dci_decoder
from repro.core.dci_decoder import GridDciDecoder
from repro.core.fleet import FleetSupervisor
from repro.core.multicell import MultiCellController
from repro.core.scope import NRScope
from repro.core.telemetry import TelemetryLog
from repro.core.telemetry_store import TelemetryStore
from repro.gnb import gnb
from repro.gnb.gnb import GNodeB
from repro.gnb.scheduler import BaseScheduler
from repro.obs import ObsContext
from repro.phy import pdcch, polar, scrambling
from repro.phy.resource_grid import ResourceGrid
from repro.simulation import Simulation
from repro.ue.ue import UserEquipment

from tracer import LayerStats, Target, Tracer, add_count

#: Runtime stages of ``NRScope``, in slot order.
STAGES = ("sync", "prune", "uci", "capture", "rach", "dci", "sinks")

#: Read-side ``TelemetryLog`` methods, traced together as one layer.
QUERY_METHODS = ("rntis", "for_rnti", "bits_between", "bitrate_series",
                 "mcs_distribution", "retransmission_ratio")


class LayerProbe:
    """Builds the tracer targets and turns their totals into metrics."""

    def __init__(self) -> None:
        #: Grid decoders seen by the search span; their ``attempts``
        #: counters are read when the run is reported.
        self._decoders: dict[int, GridDciDecoder] = {}
        self._signs = scrambling.sign_cache_stats()

    def _observe_search(self, args: tuple, result, stats: LayerStats) \
            -> None:
        decoder, tracked = args[0], args[3]
        self._decoders[id(decoder)] = decoder
        add_count(stats, "tracked", len(tracked))
        add_count(stats, "decoded", len(result))

    def targets(self) -> list[Target]:
        def codewords(per_call):
            return lambda args, result, stats: add_count(
                stats, "codewords", per_call(args))

        query = [Target(TelemetryLog, name, "telemetry.query")
                 for name in QUERY_METHODS]
        return [
            Target(Simulation, "step", "simulation.step"),
            Target(NRScope, "observe_slot", "scope.observe_slot"),
            Target(GNodeB, "step", "gnb.step"),
            Target(BaseScheduler, "schedule", "gnb.schedule"),
            Target(gnb, "encode_pdcch", "gnb.encode_pdcch"),
            Target(UserEquipment, "advance_slot", "ue.advance_slot"),
            Target(GridDciDecoder, "decode_slot_batch",
                   "dci_decoder.search", self._observe_search),
            Target(GridDciDecoder, "blind_decode_common",
                   "dci_decoder.common"),
            Target(polar, "decode_batch_joint", "phy.polar_decode",
                   codewords(lambda a: a[0].shape[0] * len(a[1]))),
            Target(polar, "decode_batch", "phy.polar_decode",
                   codewords(lambda a: a[0].shape[0])),
            Target(polar, "decode", "phy.polar_decode",
                   codewords(lambda a: 1)),
            Target(dci_decoder, "demodulate_soft_batch", "phy.demod"),
            Target(pdcch, "demodulate_soft", "phy.demod"),
            Target(dci_decoder, "dci_crc_check_batch", "phy.crc_check"),
            Target(pdcch, "dci_recover_rnti", "phy.crc_check"),
            Target(ResourceGrid, "clone_with_noise", "phy.capture_noise"),
            Target(TelemetryStore, "append", "telemetry.append"),
            *query,
            Target(TelemetryStore, "write_segments",
                   "telemetry.segments_write"),
            Target(TelemetryStore, "read_segments",
                   "telemetry.segments_read"),
            Target(FleetSupervisor, "checkpoint", "fleet.checkpoint"),
            Target(FleetSupervisor, "restore", "fleet.restore"),
            Target(MultiCellController, "run", "multicell.run"),
            Target(ObsContext, "emit", "obs.emit"),
            Target(summary, "build_session_report", "analysis.report"),
        ]

    def metrics(self, tracer: Tracer, repeats: list[dict]) -> dict:
        """Per-layer metrics, per traced repeat (``repeats`` holds each
        traced repeat's summary from :func:`repeat_layers`)."""
        n = len(repeats)
        layer = tracer.layers

        def per_repeat(value: float) -> float:
            return value / n

        def mean(key: str) -> float:
            return sum(r[key] for r in repeats) / n

        out: dict[str, tuple[float, str]] = {
            "simulation.step.self_s": (
                per_repeat(layer["simulation.step"].self_s), "s"),
            "scope.observe_slot.busy_s": (
                per_repeat(layer["scope.observe_slot"].busy_s), "s"),
            "gnb.step.busy_s": (per_repeat(layer["gnb.step"].busy_s), "s"),
            "gnb.step.self_s": (per_repeat(layer["gnb.step"].self_s), "s"),
            "gnb.schedule.busy_s": (
                per_repeat(layer["gnb.schedule"].busy_s), "s"),
            "gnb.encode_pdcch.busy_s": (
                per_repeat(layer["gnb.encode_pdcch"].busy_s), "s"),
            "gnb.encode_pdcch.calls": (
                per_repeat(layer["gnb.encode_pdcch"].calls), "count"),
            "ue.advance_slot.busy_s": (
                per_repeat(layer["ue.advance_slot"].busy_s), "s"),
            "ue.advance_slot.calls": (
                per_repeat(layer["ue.advance_slot"].calls), "count"),
        }
        for stage in STAGES:
            out[f"runtime.{stage}.busy_s"] = (mean(f"stage.{stage}"), "s")
        out["runtime.slots_dropped"] = (mean("slots_dropped"), "count")
        out["runtime.budget_overruns"] = (mean("budget_overruns"), "count")

        search = layer["dci_decoder.search"]
        attempts = sum(d.attempts for d in self._decoders.values())
        decoded = search.counts.get("decoded", 0.0)
        calls = max(search.calls, 1)
        out.update({
            "dci_decoder.search.busy_s": (per_repeat(search.busy_s), "s"),
            "dci_decoder.common.busy_s": (
                per_repeat(layer["dci_decoder.common"].busy_s), "s"),
            "dci_decoder.attempts": (per_repeat(attempts), "count"),
            "dci_decoder.useful_ratio": (
                decoded / attempts if attempts else 0.0, "ratio"),
            "dci_decoder.tracked_mean": (
                search.counts.get("tracked", 0.0) / calls, "count"),
            "dci_decoder.decoded_per_slot": (decoded / calls, "count"),
        })

        signs = scrambling.sign_cache_stats()
        hits = signs["hits"] - self._signs["hits"]
        looked_up = hits + signs["misses"] - self._signs["misses"]
        polar_layer = layer["phy.polar_decode"]
        out.update({
            "phy.polar_decode.busy_s": (per_repeat(polar_layer.busy_s), "s"),
            "phy.polar_decode.codewords": (
                per_repeat(polar_layer.counts.get("codewords", 0.0)),
                "count"),
            "phy.demod.busy_s": (per_repeat(layer["phy.demod"].busy_s), "s"),
            "phy.crc_check.busy_s": (
                per_repeat(layer["phy.crc_check"].busy_s), "s"),
            "phy.capture_noise.busy_s": (
                per_repeat(layer["phy.capture_noise"].busy_s), "s"),
            "phy.descramble.hit_ratio": (
                hits / looked_up if looked_up else 0.0, "ratio"),
        })

        append = layer["telemetry.append"]
        out.update({
            "telemetry.append.busy_s": (per_repeat(append.busy_s), "s"),
            "telemetry.append.rows": (per_repeat(append.calls), "count"),
            "telemetry.query.busy_s": (
                per_repeat(layer["telemetry.query"].busy_s), "s"),
            "telemetry.segments_write.busy_s": (
                per_repeat(layer["telemetry.segments_write"].busy_s), "s"),
            "telemetry.segments_read.busy_s": (
                per_repeat(layer["telemetry.segments_read"].busy_s), "s"),
            "telemetry.segments_read.bytes": (mean("segment_bytes"), "B"),
        })

        out.update({
            "fleet.checkpoint.busy_s": (
                per_repeat(layer["fleet.checkpoint"].busy_s), "s"),
            "fleet.checkpoint.bytes_last": (mean("checkpoint_bytes"), "B"),
            "fleet.checkpoint.sim_bytes": (mean("sim_bytes"), "B"),
            "fleet.checkpoint.scope_bytes": (mean("scope_bytes"), "B"),
            "fleet.checkpoint.growth": (mean("checkpoint_growth"), "ratio"),
            "fleet.restore.busy_s": (
                per_repeat(layer["fleet.restore"].busy_s), "s"),
            "multicell.run.self_s": (
                per_repeat(layer["multicell.run"].self_s), "s"),
            "obs.events": (mean("obs_events"), "count"),
            "obs.emit.busy_s": (per_repeat(layer["obs.emit"].busy_s), "s"),
            "analysis.report.busy_s": (
                per_repeat(layer["analysis.report"].busy_s), "s"),
        })
        return out


def repeat_layers(result) -> dict:
    """What a traced repeat contributes besides the tracer's spans:
    runtime stage totals and checkpoint figures, read from the program's
    public state before the repeat's objects are released."""
    totals: dict[str, float] = {f"stage.{s}": 0.0 for s in STAGES}
    totals["slots_dropped"] = 0
    totals["budget_overruns"] = 0
    for scope in result.scopes:
        stats = scope.runtime_stats
        for stage in STAGES:
            totals[f"stage.{stage}"] += stats.stage(stage).total_s
        totals["slots_dropped"] += stats.slots_dropped
        totals["budget_overruns"] += stats.budget_overruns
    fleet = result.fleet
    totals["segment_bytes"] = result.segment_bytes
    totals["obs_events"] = result.obs_events
    totals["checkpoint_bytes"] = result.checkpoint_bytes[-1] \
        if fleet else 0
    totals["checkpoint_growth"] = result.checkpoint_span_s[-1] \
        / result.checkpoint_span_s[0] if fleet else 0.0
    sim_bytes = scope_bytes = 0
    if fleet:
        for sim, scope in zip(result.sims, result.scopes):
            sim_bytes += len(pickle.dumps(sim.checkpoint_state(),
                                          pickle.HIGHEST_PROTOCOL))
            scope_bytes += len(pickle.dumps(scope.checkpoint_state(),
                                            pickle.HIGHEST_PROTOCOL))
    totals["sim_bytes"] = sim_bytes
    totals["scope_bytes"] = scope_bytes
    return totals
