"""Checkpointable fleet supervisor: N cells, come-and-go UEs, restarts.

The paper's commercial-cell deployments (section 5.3) run NR-Scope
against live cells for minutes to hours; a practical tool must survive
restarts without losing or forking its telemetry.  This module grows
:class:`~repro.core.multicell.MultiCellController` into a supervised
fleet:

* ``FleetSupervisor.build`` assembles N cells from one
  :class:`FleetConfig`, each with its own heavy-tailed come-and-go UE
  population (Poisson arrivals, log-normal holding times — the section
  5.3.1 statistics);
* ``run`` advances the fleet in checkpoint-interval chunks, atomically
  persisting a full snapshot after each: tracked-UE tables, HARQ/
  throughput state, RNG states and the columnar telemetry segments;
* ``restore`` rebuilds a mid-run fleet from the snapshot so the
  resumed run commits telemetry *identical* to an uninterrupted one.

Determinism argument: the run loop chunks by ``checkpoint_interval_s``
whether or not a checkpoint path is given, so interrupted and
uninterrupted runs execute the same sequence of ``controller.run``
targets; every stochastic consumer (gNB, UEs, scope, decoders) either
rides a restored RNG state or draws counter-based randomness, so the
slot streams after resume are bit-identical.

Checkpoint/restore durations are published on the shared observability
bus as ``fleet.checkpoint`` / ``fleet.restore`` spans.
"""

from __future__ import annotations

import os
import pickle
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.core.multicell import MultiCellController
from repro.gnb.cell_config import ALL_PROFILES
from repro.obs.context import AnyObsContext, OBS_NOOP
from repro.simulation import Simulation
from repro.ue.population import ComeAndGoProcess, PopulationProfile


class FleetError(ValueError):
    """Raised for invalid fleet configurations or broken checkpoints."""


#: Version stamped into every checkpoint blob; ``restore`` rejects
#: anything else rather than resuming from an incompatible layout.
#: Version 2: the spare-capacity estimator's history is columnar.
#: Version 3: the gNB holds its UEs' channel state in a column table.
#: Version 4: the gNB files traffic buffers in a due schedule, and the
#: table computes SNR and CQI when read.
#: Version 5: the config has no executor and the scope counters no
#: dropped DCIs.
#: Version 6: the gNB holds no PDSCH grid generator.
#: Version 7: the spare-capacity estimator counts overbooked TTIs.
#: Version 8: the gNB log keeps packed rows instead of record objects,
#: and the file starts with :data:`CHECKPOINT_HEADER`.
#: Version 9: each gNB HARQ process holds its block's payload and
#: geometry (no separate stash), and a UE's packet capture is columns.
#: Version 10: the scope keeps no throughput or aggregation sink (both
#: are reads over its telemetry store), and its HARQ trackers no
#: counters.
CHECKPOINT_VERSION = 10

#: A checkpoint file is this header, then the pickled payload: magic,
#: version, payload length and the payload's CRC-32.  ``restore`` checks
#: all four before unpickling, so a truncated file or a flipped bit is a
#: :class:`FleetError` instead of a resumed run with silently different
#: state.
CHECKPOINT_MAGIC = b"NRSCKPT\n"
CHECKPOINT_HEADER = struct.Struct("<8sIQI")

#: Per-cell spacing of derived seeds (cell i draws from seed-space
#: ``seed + stride * (i + 1)``) and of population UE ids, so no two
#: cells share an RNG stream or a UE identity.
CELL_SEED_STRIDE = 1_000
CELL_UE_ID_STRIDE = 100_000

#: Slack for float comparisons against accumulated simulated time.
_TIME_EPS_S = 1e-12


@dataclass(frozen=True)
class FleetConfig:
    """Everything that defines a fleet run (picklable, checkpointed).

    ``holding_p90_s`` defaults far below the paper's 35 s commercial
    calibration so test-scale horizons still see churn; pass the
    calibrated value for survey-scale runs.
    """

    n_cells: int = 2
    profile: str = "srsran"
    seed: int = 0
    snr_db: float = 18.0
    arrivals_per_second: float = 2.0
    holding_p90_s: float = 6.0
    holding_sigma: float = 1.0
    horizon_s: float = 10.0
    traffic: str = "onoff"
    channel: str = "pedestrian"
    mean_snr_db: float = 18.0
    rate_bps: float = 2e6
    fidelity: str = "message"
    checkpoint_interval_s: float = 1.0


class FleetSupervisor:
    """Runs a multi-cell fleet with periodic, resumable checkpoints."""

    def __init__(self, config: FleetConfig,
                 controller: MultiCellController,
                 obs: AnyObsContext) -> None:
        self.config = config
        self.controller = controller
        self._obs = obs

    # ------------------------------------------------------- assembly
    @classmethod
    def build(cls, config: FleetConfig,
              obs: AnyObsContext | None = None) -> "FleetSupervisor":
        """Assemble a fresh fleet: N cells, each with its population."""
        if config.n_cells < 1:
            raise FleetError(f"need at least one cell: {config.n_cells}")
        if config.profile not in ALL_PROFILES:
            raise FleetError(f"unknown cell profile: {config.profile!r}")
        if config.horizon_s <= 0:
            raise FleetError(
                f"population horizon must be positive: {config.horizon_s}")
        if config.checkpoint_interval_s <= 0:
            raise FleetError(f"checkpoint interval must be positive: "
                             f"{config.checkpoint_interval_s}")
        obs = obs if obs is not None else OBS_NOOP
        controller = MultiCellController(obs=obs)
        supervisor = cls(config, controller, obs)
        profile = ALL_PROFILES[config.profile]
        for index in range(config.n_cells):
            name = f"{config.profile}-{index}"
            cell_seed = config.seed + CELL_SEED_STRIDE * (index + 1)
            sim = Simulation.build(profile, n_ues=0, seed=cell_seed,
                                   fidelity=config.fidelity)
            population = PopulationProfile(
                name=f"fleet-{name}",
                arrivals_per_second=config.arrivals_per_second,
                holding_p90_s=config.holding_p90_s,
                holding_sigma=config.holding_sigma)
            sessions = ComeAndGoProcess(population, seed=cell_seed + 1) \
                .generate(config.horizon_s,
                          first_ue_id=CELL_UE_ID_STRIDE * (index + 1))
            sim.schedule_sessions(sessions, traffic=config.traffic,
                                  channel=config.channel,
                                  mean_snr_db=config.mean_snr_db,
                                  rate_bps=config.rate_bps)
            controller.add_cell(name, sim, snr_db=config.snr_db,
                                fidelity=config.fidelity, seed=cell_seed)
        return supervisor

    @property
    def now_s(self) -> float:
        """Fleet clock (every cell has reached this simulated time)."""
        return self.controller.now_s

    # ------------------------------------------------------ execution
    def run(self, seconds: float,
            checkpoint_path: str | Path | None = None) -> None:
        """Advance the fleet, checkpointing every interval.

        The loop *always* chunks by ``checkpoint_interval_s`` — with no
        checkpoint path the snapshot is simply skipped — so a killed
        and resumed run replays the identical sequence of controller
        targets an uninterrupted run executes.
        """
        if seconds < 0:
            raise FleetError(f"negative duration: {seconds}")
        end = self.controller.now_s + seconds
        while self.controller.now_s < end - _TIME_EPS_S:
            step = min(self.config.checkpoint_interval_s,
                       end - self.controller.now_s)
            self.controller.run(step)
            if checkpoint_path is not None:
                self.checkpoint(checkpoint_path)

    # -------------------------------------------------- checkpointing
    def checkpoint(self, path: str | Path) -> int:
        """Atomically persist the fleet; returns the snapshot size.

        One ``pickle.dumps`` covers the whole blob, so object identity
        shared between a cell's session list and its gNB's tracked
        tables survives the round trip; the file is
        :data:`CHECKPOINT_HEADER` and then that pickle.  The write lands
        via a temp file + ``os.replace`` — a crash mid-checkpoint leaves
        the previous snapshot intact.
        """
        started = time.perf_counter()
        cells = []
        for name in self.controller.cells:
            stream = self.controller.stream(name)
            cells.append({
                "name": name,
                "snr_db": stream.scope.link.snr_db,
                "sim": stream.sim.checkpoint_state(),
                "scope": stream.scope.checkpoint_state(),
            })
        blob = {"config": self.config,
                "controller": self.controller.fleet_state(),
                "cells": cells}
        data = pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL)
        header = CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                        len(data), zlib.crc32(data))
        target = Path(path)
        scratch = target.with_suffix(target.suffix + ".tmp")
        with open(scratch, "wb") as out:
            out.write(header)
            out.write(data)
        os.replace(scratch, target)
        size = len(header) + len(data)
        if self._obs:
            self._obs.timing("fleet.checkpoint",
                             time.perf_counter() - started,
                             cells=len(cells), bytes=size)
        return size

    @classmethod
    def restore(cls, path: str | Path,
                obs: AnyObsContext | None = None) -> "FleetSupervisor":
        """Rebuild a mid-run fleet from a :meth:`checkpoint` snapshot.

        Snapshots are pickles — restore only files this tool wrote.  A
        missing file, a wrong magic, version or length, and a payload
        whose CRC-32 differs from the header's raise :class:`FleetError`
        naming the file.
        """
        started = time.perf_counter()
        obs = obs if obs is not None else OBS_NOOP
        target = Path(path)
        if not target.exists():
            raise FleetError(f"no checkpoint at {target}")
        data = target.read_bytes()
        payload = _checked_payload(data, target)
        try:
            blob = pickle.loads(payload)
        except Exception as exc:
            raise FleetError(f"unreadable checkpoint {target}: "
                             f"{exc}") from exc
        config = blob["config"]
        controller = MultiCellController(obs=obs)
        supervisor = cls(config, controller, obs)
        for cell in blob["cells"]:
            sim = Simulation.from_state(cell["sim"])
            stream = controller.add_cell(cell["name"], sim,
                                         snr_db=cell["snr_db"],
                                         fidelity=config.fidelity,
                                         seed=config.seed)
            stream.scope.restore_state(cell["scope"])
        controller.restore_fleet_state(blob["controller"])
        if obs:
            obs.timing("fleet.restore", time.perf_counter() - started,
                       cells=len(blob["cells"]), bytes=len(data))
        return supervisor

    # ------------------------------------------------------ reporting
    def write_segments(self, directory: str | Path) -> dict[str, int]:
        """Dump every cell's columnar telemetry as on-disk segments.

        Returns rows written per cell; each cell gets
        ``<directory>/<cell>/`` with npy chunk files + manifest.
        """
        base = Path(directory)
        written: dict[str, int] = {}
        for name in self.controller.cells:
            stream = self.controller.stream(name)
            store = stream.scope.telemetry.store
            store.write_segments(base / name)
            written[name] = len(store)
        return written


def _checked_payload(data: bytes, target: Path) -> memoryview:
    """The pickled payload of a checkpoint file, once its header's
    magic, version, length and CRC-32 all hold."""
    if len(data) < CHECKPOINT_HEADER.size:
        raise FleetError(f"truncated checkpoint {target}: {len(data)} bytes"
                         f" is shorter than its header")
    magic, version, length, crc = CHECKPOINT_HEADER.unpack_from(data)
    if magic != CHECKPOINT_MAGIC:
        raise FleetError(f"not a fleet checkpoint: {target}")
    if version != CHECKPOINT_VERSION:
        raise FleetError(
            f"unsupported checkpoint version: {version} (this build reads"
            f" version {CHECKPOINT_VERSION}): {target}")
    payload = memoryview(data)[CHECKPOINT_HEADER.size:]
    if len(payload) != length:
        raise FleetError(f"truncated checkpoint {target}: payload of"
                         f" {len(payload)} bytes, header says {length}")
    if zlib.crc32(payload) != crc:
        raise FleetError(f"corrupt checkpoint {target}: payload CRC-32 does"
                         f" not match its header")
    return payload
