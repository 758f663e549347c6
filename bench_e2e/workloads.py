"""Seeded workloads of the end-to-end benchmark.

Each workload is a deterministic function of the benchmark seed.  The
benchmark generates the inputs here (staggered and come-and-go session
lists, simulation and fleet seeds) and hands them to the program through
its public API with default settings: inline executor, batched kernels,
no knobs set.

:func:`run_once` builds one workload, runs it, runs the query pass,
checkpoints, restores and verifies, and returns a :class:`RepeatResult`
holding every measurement and digest of that repeat.

Phases the benchmark times itself use the process CPU clock
(:data:`CPU_CLOCK`): every workload runs single-threaded in this
process, so CPU time is the program's own work, and time the host takes
the CPU away for (preemption, hypervisor steal) is left out.  The fleet's
checkpoints and slot times are the program's own spans on the obs bus.
A :class:`Gauge` scales every time to the reference speed of
:mod:`reference`.
"""

from __future__ import annotations

import gc
import hashlib
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis import summary
from repro.analysis.matching import match_dcis
from repro.core.fleet import CELL_UE_ID_STRIDE, FleetConfig, FleetSupervisor
from repro.core.scope import NRScope
from repro.core.telemetry_store import TelemetryStore
from repro.gnb.cell_config import SRSRAN_PROFILE
from repro.obs import CounterReporter, ObsContext
from repro.simulation import Simulation
from repro.ue.population import Session

import reference

#: Clock of every phase the benchmark times itself.
CPU_CLOCK = time.process_time
#: CPU time of the run phase between two reference runs.
CHUNK_CPU_S = 0.05
#: Sniffer SNR of every workload (the paper's section 5.2 lab bench).
SNIFFER_SNR_DB = 18.0
#: Window of the per-UE bitrate query in the query pass.
QUERY_WINDOW_S = 0.1
#: Samples per repeat of each short operation (checkpoint, restore and
#: the query pass of each restored copy): at least SHORT_OP_SAMPLES, and
#: more while fewer than SHORT_OP_CPU_S have been timed, up to
#: SHORT_OP_MAX (traced runs: exactly SHORT_OP_SAMPLES).
SHORT_OP_SAMPLES = 3
SHORT_OP_CPU_S = 0.4
SHORT_OP_MAX = 8


@dataclass(frozen=True)
class SessionSpec:
    """A single-cell session: ``n_ues`` arrive staggered over
    ``arrival_window_s`` and stay to the end of the run."""

    name: str
    fidelity: str
    n_ues: int
    air_s: float
    traffic: str
    arrival_window_s: float


@dataclass(frozen=True)
class FleetSpec:
    """A fleet: ``n_cells`` cells with ``ues_per_cell`` come-and-go UEs
    each, checkpointed every ``interval_s``."""

    name: str
    n_cells: int
    ues_per_cell: int
    air_s: float
    interval_s: float


SPECS: dict[str, SessionSpec | FleetSpec] = {
    "iq-session": SessionSpec(
        name="iq-session", fidelity="iq", n_ues=16, air_s=0.6,
        traffic="video", arrival_window_s=0.08),
    "message-session": SessionSpec(
        name="message-session", fidelity="message", n_ues=64, air_s=1.0,
        traffic="mixed", arrival_window_s=0.3),
    "fleet-churn": FleetSpec(
        name="fleet-churn", n_cells=2, ues_per_cell=12, air_s=1.2,
        interval_s=0.3),
}


def scaled(spec: SessionSpec | FleetSpec, factor: float) \
        -> SessionSpec | FleetSpec:
    """``spec`` with its timeline (air, arrivals, intervals) scaled."""
    if isinstance(spec, FleetSpec):
        return replace(spec, air_s=spec.air_s * factor,
                       interval_s=spec.interval_s * factor)
    return replace(spec, air_s=spec.air_s * factor,
                   arrival_window_s=spec.arrival_window_s * factor)


def staggered_sessions(seed: int, n_ues: int, window_s: float,
                       holding_s: float) -> list[Session]:
    """UE ``i`` arrives in the ``i``-th of ``n_ues`` equal slices of
    ``window_s``, at a seeded offset within the slice's first half, and
    stays ``holding_s``.  The spacing keeps MSG 4s from colliding in
    CORESET 0, so every admitted UE can be tracked."""
    rng = np.random.default_rng(seed)
    gap = window_s / n_ues
    return [Session(ue_id=i,
                    arrival_s=float(i * gap + rng.uniform(0.0, gap / 2)),
                    holding_s=holding_s)
            for i in range(n_ues)]


def churn_sessions(seed: int, spec: FleetSpec, cell: int) -> list[Session]:
    """One fleet cell's come-and-go population.

    Arrivals are staggered over the first 60% of the run and each UE
    holds for a seeded 40-50% of it, so UEs leave while others are still
    arriving.  A fixed UE count, narrow holding times and steady video
    traffic keep the load alike across seeds (a Poisson population with
    on/off traffic varies too much between seeds for a timing
    benchmark).
    """
    rng = np.random.default_rng([seed, cell])
    n = spec.ues_per_cell
    gap = 0.6 * spec.air_s / n
    first_id = CELL_UE_ID_STRIDE * (cell + 1)
    return [Session(ue_id=first_id + i,
                    arrival_s=float(i * gap + rng.uniform(0.0, gap / 2)),
                    holding_s=float(spec.air_s * rng.uniform(0.4, 0.5)))
            for i in range(n)]


@dataclass
class RepeatResult:
    """Everything one repeat of a workload measured."""

    cell_s: float = 0.0            # cell-seconds of air time simulated
    setup_s: float = 0.0
    #: CPU time of the run phase at the reference speed, and its wall
    #: time (reference runs included).
    run_s: float = 0.0
    run_wall_s: float = 0.0
    #: Wall time of the run phase attributed to traced layers.
    run_traced_s: float = 0.0
    query_s: list[float] = field(default_factory=list)
    #: Samples of the last checkpoint; on the fleet also each
    #: interval's ``fleet.checkpoint`` span, and the size of each.
    checkpoint_s: list[float] = field(default_factory=list)
    checkpoint_span_s: list[float] = field(default_factory=list)
    checkpoint_bytes: list[int] = field(default_factory=list)
    resume_s: list[float] = field(default_factory=list)
    slot_s: list[float] = field(default_factory=list)
    opportunities: int = 0
    misses: int = 0
    slots: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    checks: int = 0
    #: Failed verifications (restore and segment round trips).
    mismatches: list[str] = field(default_factory=list)
    #: Gate violations: dropped slots, admitted UEs never tracked.
    gate: list[str] = field(default_factory=list)
    scopes: list[NRScope] = field(default_factory=list)
    sims: list[Simulation] = field(default_factory=list)
    fleet: bool = False
    obs_events: int = 0
    segment_bytes: int = 0

    @property
    def hit_ratio(self) -> float:
        """Share of DCI opportunities the scope recorded (1 - Fig 7's
        miss ratio)."""
        return 1.0 - self.misses / self.opportunities \
            if self.opportunities else 0.0


def telemetry_digest(scope: NRScope) -> str:
    """sha256 of the scope's telemetry JSONL (the bytes ``write_jsonl``
    writes, hashed in memory)."""
    digest = hashlib.sha256()
    for record in scope.telemetry.records:
        digest.update((record.to_json() + "\n").encode("utf-8"))
    return digest.hexdigest()


def dci_misses(sim: Simulation, scope: NRScope) -> tuple[int, int]:
    """(opportunities, misses) of the Fig-7 DCI miss count: every
    UE-search-space DCI in the gNB log, matched against the telemetry by
    the program's Fig-7 matcher.  A miss covers failed decodes, dropped
    slots and untracked UEs."""
    truth = [r for r in sim.gnb.log.dci_records if r.search_space == "ue"]
    matched = match_dcis(truth, scope.telemetry.records)
    return matched.n_ground_truth, len(matched.missed)


class Gauge:
    """Scales CPU time to the reference speed by running the reference
    computation either side of the work (:mod:`reference`).  A disabled
    gauge, as in traced runs, runs nothing and scales nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled

    def read(self) -> float:
        return reference.gauge() if self.enabled else reference.NOMINAL_S

    def wants(self, times: list[float]) -> bool:
        """Whether a short operation timed ``times`` so far wants
        another sample."""
        if len(times) < SHORT_OP_SAMPLES:
            return True
        return self.enabled and len(times) < SHORT_OP_MAX \
            and sum(times) < SHORT_OP_CPU_S

    def time(self, fn: Callable, *args) -> tuple:
        """``(fn(*args), its CPU time at the reference speed)``.  The
        garbage of earlier work is collected first, so that every sample
        starts from the same heap."""
        gc.collect()
        before = self.read()
        started = CPU_CLOCK()
        out = fn(*args)
        cpu_s = CPU_CLOCK() - started
        return out, reference.scale(cpu_s, before, self.read())


class RunClock:
    """Times a run phase in chunks of about :data:`CHUNK_CPU_S`, each
    scaled by the reference runs at its two ends.  The reference runs
    fall between chunks and count in none."""

    def __init__(self, gauge: Gauge) -> None:
        self.gauge = gauge
        #: The run phase and each timed slot, at the reference speed.
        self.run_s = 0.0
        self.slot_s: list[float] = []
        self._pending: list[float] = []
        self._ref = 0.0
        self._start = 0.0

    def start(self) -> None:
        self._ref = self.gauge.read()
        self._start = CPU_CLOCK()

    def commit(self, slot_s: float | None = None) -> None:
        """A cell-slot committed, with its own time if it is timed."""
        if slot_s is not None:
            self._pending.append(slot_s)
        if CPU_CLOCK() - self._start >= CHUNK_CPU_S:
            self.close()

    def close(self) -> float:
        """End the current chunk; returns its scale factor."""
        cpu_s = CPU_CLOCK() - self._start
        ref = self.gauge.read()
        factor = reference.scale(1.0, self._ref, ref)
        self.run_s += cpu_s * factor
        self.slot_s.extend(x * factor for x in self._pending)
        self._pending.clear()
        self._ref = ref
        self._start = CPU_CLOCK()
        return factor


def query_pass(scope: NRScope, duration_s: float) -> int:
    """The operator's after-capture queries: the session report, then
    per-UE bitrate series, retransmission ratio and MCS distribution.
    Returns a checksum so that no result goes unconsumed."""
    report = summary.build_session_report(scope, duration_s)
    telemetry = scope.telemetry
    total = len(report.ues)
    for rnti in telemetry.rntis():
        total += len(telemetry.bitrate_series(rnti, QUERY_WINDOW_S,
                                              duration_s))
        total += int(telemetry.retransmission_ratio(rnti) >= 0.0)
        total += len(telemetry.mcs_distribution(rnti))
    return total


class FleetProbe:
    """Obs reporter of the fleet workload.

    It sums each committed slot's ``stage.span`` durations per cell (the
    per-slot scope time of a fleet, whose scopes are attached inside
    ``FleetSupervisor.build``) and commits them to the run clock, and
    keeps the duration and size of every ``fleet.checkpoint`` span.  A
    checkpoint ends the clock's chunk, whose scale it takes.  After
    :meth:`stop` it ignores every event.
    """

    def __init__(self, clock: "RunClock") -> None:
        self.clock: RunClock | None = clock
        self.checkpoint_s: list[float] = []
        self.checkpoint_bytes: list[int] = []
        self._key: tuple | None = None
        self._us = 0.0

    def emit(self, event) -> None:
        if self.clock is None:
            return
        name = event.get("name")
        if name == "fleet.checkpoint":
            self.close()
            factor = self.clock.close()
            self.checkpoint_s.append(event["duration_us"] * 1e-6 * factor)
            self.checkpoint_bytes.append(event["bytes"])
            return
        if name != "stage.span" or event.get("outcome") != "ok":
            return
        key = (event.get("cell"), event.get("slot"))
        if key != self._key:
            self.close()
            self._key = key
        self._us += event["duration_us"]

    def close(self) -> None:
        """Commit the slot whose events are being summed."""
        if self._key is not None:
            self.clock.commit(self._us * 1e-6)
        self._key = None
        self._us = 0.0

    def stop(self) -> None:
        self.close()
        self.clock = None


def _gate_runtime(result: RepeatResult, name: str, scope: NRScope) -> None:
    stats = scope.runtime_stats
    if stats.slots_dropped or scope.counters.slots_dropped:
        result.gate.append(f"{name}: {stats.slots_dropped} slots dropped")
    result.slots += scope.counters.slots_observed


def _check(result: RepeatResult, ok: bool, what: str) -> None:
    result.checks += 1
    if not ok:
        result.mismatches.append(what)


def build_session(spec: SessionSpec, seed: int,
                  before: Callable | None = None,
                  after: Callable | None = None) \
        -> tuple[Simulation, NRScope]:
    """Set up one session: the cell, its UE list and the sniffer, with
    optional observers registered either side of the scope's."""
    sessions = staggered_sessions(seed, spec.n_ues, spec.arrival_window_s,
                                  holding_s=4 * spec.air_s)
    sim = Simulation.build(SRSRAN_PROFILE, n_ues=0, seed=seed,
                           fidelity=spec.fidelity)
    sim.schedule_sessions(sessions, traffic=spec.traffic)
    if before is not None:
        sim.add_observer(before)
    scope = NRScope.attach(sim, snr_db=SNIFFER_SNR_DB)
    if after is not None:
        sim.add_observer(after)
    return sim, scope


def _checkpoint_cell(sim: Simulation, scope: NRScope, path: Path) -> int:
    """One fleet cell's snapshot: sim and scope state in one pickle,
    written to disk."""
    data = pickle.dumps({"sim": sim.checkpoint_state(),
                         "scope": scope.checkpoint_state()},
                        protocol=pickle.HIGHEST_PROTOCOL)
    path.write_bytes(data)
    return len(data)


def _resume_cell(path: Path) -> NRScope:
    blob = pickle.loads(path.read_bytes())
    resumed = NRScope.attach(Simulation.from_state(blob["sim"]),
                             snr_db=SNIFFER_SNR_DB)
    resumed.restore_state(blob["scope"])
    return resumed


def run_session(spec: SessionSpec, seed: int, tmp: Path,
                clock: Callable[[], float] | None = None,
                gauge: Gauge | None = None) -> RepeatResult:
    """One repeat of a single-cell session workload."""
    gauge = gauge or Gauge()
    result = RepeatResult()
    run_clock = RunClock(gauge)
    state: dict = {"start": 0.0, "steady": False, "scope": None}

    def before(_output) -> None:
        state["start"] = CPU_CLOCK()

    def after(_output) -> None:
        if state["steady"]:
            run_clock.commit(CPU_CLOCK() - state["start"])
            return
        state["steady"] = len(state["scope"].tracked_rntis) >= spec.n_ues
        run_clock.commit()

    (sim, scope), result.setup_s = gauge.time(build_session, spec, seed,
                                              before, after)
    state["scope"] = scope

    traced = clock() if clock else 0.0
    wall = time.perf_counter()
    run_clock.start()
    sim.run(spec.air_s)
    run_clock.close()
    result.run_wall_s = time.perf_counter() - wall
    result.run_traced_s = clock() - traced if clock else 0.0
    result.run_s, result.slot_s = run_clock.run_s, run_clock.slot_s
    result.cell_s = spec.air_s

    result.query_s.append(gauge.time(query_pass, scope, spec.air_s)[1])
    # A session's checkpoint is one fleet cell's snapshot.  The state no
    # longer changes, so each sample is the same checkpoint.
    path = tmp / f"{spec.name}.ckpt"
    while gauge.wants(result.checkpoint_s):
        size, elapsed = gauge.time(_checkpoint_cell, sim, scope, path)
        result.checkpoint_s.append(elapsed)
    result.checkpoint_bytes.append(size)

    _gate_runtime(result, spec.name, scope)
    tracked = scope.counters.msg4_seen
    if tracked < spec.n_ues or not state["steady"]:
        result.gate.append(f"{spec.name}: tracked {tracked} of "
                           f"{spec.n_ues} admitted UEs")
    digest = telemetry_digest(scope)
    result.digests[spec.name] = digest
    # Each restored copy starts with cold caches, so its query pass
    # costs what the live session's first one did.
    while gauge.wants(result.resume_s):
        resumed, elapsed = gauge.time(_resume_cell, path)
        result.resume_s.append(elapsed)
        result.query_s.append(gauge.time(query_pass, resumed,
                                         spec.air_s)[1])
        _check(result, telemetry_digest(resumed) == digest
               and resumed.counters == scope.counters,
               f"{spec.name}: restored session differs from the live one")
        del resumed
    result.opportunities, result.misses = dci_misses(sim, scope)
    result.scopes.append(scope)
    result.sims.append(sim)
    return result


def fleet_config(spec: FleetSpec) -> FleetConfig:
    """The fleet's config.  Its own Poisson population is switched off
    (a vanishing arrival rate) because the benchmark supplies each
    cell's population as a session list.

    The fleet seed stays at its default: it also seeds each cell's
    scope, whose calibrated decode model misses a modelled 0.2% of
    common-space DCIs.  At the default seed no such miss falls on one of
    this workload's MSG 4s, so every seed's populations are tracked in
    full, as in the sessions, whose scopes keep their default seed too.
    """
    return FleetConfig(n_cells=spec.n_cells, profile="srsran",
                       arrivals_per_second=1e-12, horizon_s=spec.air_s,
                       traffic="video",
                       checkpoint_interval_s=spec.interval_s,
                       fidelity="message")


def build_fleet(spec: FleetSpec, seed: int, obs=None) -> FleetSupervisor:
    """Set up the fleet and admit the benchmark's populations."""
    config = fleet_config(spec)
    fleet = FleetSupervisor.build(config, obs=obs)
    for index, name in enumerate(fleet.controller.cells):
        fleet.controller.stream(name).sim.schedule_sessions(
            churn_sessions(seed, spec, index), traffic=config.traffic,
            channel=config.channel, mean_snr_db=config.mean_snr_db,
            rate_bps=config.rate_bps)
    return fleet


def _fleet_query(supervisor: FleetSupervisor) -> None:
    for name in supervisor.controller.cells:
        query_pass(supervisor.controller.stream(name).scope,
                   supervisor.now_s)


def run_fleet(spec: FleetSpec, seed: int, tmp: Path,
              clock: Callable[[], float] | None = None,
              gauge: Gauge | None = None) -> RepeatResult:
    """One repeat of the fleet workload."""
    gauge = gauge or Gauge()
    result = RepeatResult()
    counters = CounterReporter()
    run_clock = RunClock(gauge)
    probe = FleetProbe(run_clock)

    obs = ObsContext.create([counters, probe])
    fleet, result.setup_s = gauge.time(build_fleet, spec, seed, obs)

    path = tmp / "fleet.ckpt"
    traced = clock() if clock else 0.0
    wall = time.perf_counter()
    run_clock.start()
    fleet.run(spec.air_s, path)
    probe.stop()
    run_clock.close()
    result.run_wall_s = time.perf_counter() - wall
    result.run_traced_s = clock() - traced if clock else 0.0
    result.run_s, result.slot_s = run_clock.run_s, run_clock.slot_s
    result.cell_s = fleet.now_s * spec.n_cells
    result.checkpoint_span_s = probe.checkpoint_s
    result.checkpoint_bytes = probe.checkpoint_bytes
    result.obs_events = counters.events_seen
    intervals = int(round(spec.air_s / spec.interval_s))
    if obs.reporter_errors or len(probe.checkpoint_s) != intervals:
        result.gate.append(f"{spec.name}: {obs.reporter_errors} reporter "
                           f"errors, {len(probe.checkpoint_s)} of "
                           f"{intervals} checkpoints seen on the bus")

    result.query_s.append(gauge.time(_fleet_query, fleet)[1])
    # The last interval's checkpoint is the largest; the state no longer
    # changes, so each sample re-takes it.
    while gauge.wants(result.checkpoint_s):
        result.checkpoint_s.append(gauge.time(fleet.checkpoint, path)[1])
    streams = [fleet.controller.stream(name)
               for name in fleet.controller.cells]
    segments = tmp / "segments"
    fleet.write_segments(segments)
    result.segment_bytes = sum(f.stat().st_size
                               for f in segments.rglob("*") if f.is_file())
    for stream in streams:
        _gate_runtime(result, stream.name, stream.scope)
        result.digests[stream.name] = telemetry_digest(stream.scope)
        live = stream.scope.telemetry.store
        reread = TelemetryStore.read_segments(segments / stream.name)
        _check(result, len(reread) == len(live)
               and reread.table().tobytes() == live.table().tobytes(),
               f"{stream.name}: segment round trip changed the rows")
        opportunities, misses = dci_misses(stream.sim, stream.scope)
        result.opportunities += opportunities
        result.misses += misses
        result.scopes.append(stream.scope)
        result.sims.append(stream.sim)
    shutil.rmtree(segments)
    # Each restored fleet starts with cold caches, so its query pass
    # costs what the live fleet's first one did.
    while gauge.wants(result.resume_s):
        resumed, elapsed = gauge.time(FleetSupervisor.restore, path)
        result.resume_s.append(elapsed)
        result.query_s.append(gauge.time(_fleet_query, resumed)[1])
        for stream in streams:
            back = resumed.controller.stream(stream.name).scope
            _check(result,
                   telemetry_digest(back) == result.digests[stream.name]
                   and back.counters == stream.scope.counters,
                   f"{stream.name}: restored cell differs from the live "
                   f"one")
        del resumed, back
    result.fleet = True
    return result


def run_once(spec: SessionSpec | FleetSpec, seed: int, tmp: Path,
             clock: Callable[[], float] | None = None,
             gauge: Gauge | None = None) -> RepeatResult:
    """One repeat of a workload.  ``clock`` reads the wall time the
    tracer has attributed so far (traced runs only); ``gauge`` scales
    its times (default: an enabled one)."""
    if isinstance(spec, FleetSpec):
        return run_fleet(spec, seed, tmp, clock, gauge)
    return run_session(spec, seed, tmp, clock, gauge)


def setup_once(spec: SessionSpec | FleetSpec, seed: int,
               gauge: Gauge) -> float:
    """CPU time of one set-up alone (no run), at the reference speed."""
    build = build_fleet if isinstance(spec, FleetSpec) else build_session
    return gauge.time(build, spec, seed)[1]


def scratch_dir(root: Path) -> Path:
    """A private temp directory inside the checkout."""
    base = root / ".bench_e2e_tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))
