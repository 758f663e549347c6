"""Fig 12: per-slot processing time vs tracked UEs (paper section 5.3.2).

The paper measures signal processing (FFT/demodulation, O(n log n) in
the slot's samples) plus per-UE DCI decoding (O(m) in the UE count) with
one or four DCI threads, on the Amarisoft cell (20 MHz) and a T-Mobile
cell (10 MHz), and finds a linear trend in the UE count.

This module measures the same quantities on the *shared* slot runtime —
the same :class:`~repro.core.runtime.SlotRuntime` stages NR-Scope runs
in production, with the per-stage means read out of its
:class:`~repro.core.runtime.RuntimeStats` — not a private harness.  It
reports one inline series per cell: the paper's thread axis has no
counterpart here (EXPERIMENTS.md discusses the deviation); the
linear-in-m trend is the portable result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.dci_decoder import GridDciDecoder, SlotGather, \
    grid_decode_job
from repro.core.rach_sniffer import RachSniffer
from repro.core.runtime import SlotContext, SlotRuntime, Stage
from repro.experiments.common import ExperimentError, FigureResult
from repro.gnb.cell_config import AMARISOFT_PROFILE, CellProfile, \
    TMOBILE_N25_PROFILE
from repro.analysis.report import Table
from repro.phy.coreset import SearchSpace
from repro.phy.dci import Dci, DciFormat, riv_encode
from repro.phy.ofdm import OfdmConfig, demodulate_slot, modulate_slot
from repro.phy.pdcch import PdcchCandidate, encode_pdcch
from repro.phy.resource_grid import ResourceGrid
from repro.rrc.messages import RrcSetup

UE_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128)
#: Timed runs per point; the fastest one is reported.
REPEATS = 9


@dataclass
class Workload:
    """One slot's decode workload for a given tracked-UE count."""

    profile: CellProfile
    tracked: Mapping[int, SearchSpace]
    samples: object          # time-domain IQ for one slot
    ofdm: OfdmConfig
    slot_index: int
    n_encoded: int


@dataclass(frozen=True)
class TimingRow:
    """One point of Fig 12."""

    profile: str
    n_ues: int
    mean_us: float


def build_workload(profile: CellProfile, n_ues: int,
                   slot_index: int = 4,
                   active_ues: int = 8) -> Workload:
    """Tracked table of ``n_ues`` plus a slot with real encoded DCIs.

    Only up to ``active_ues`` UEs carry a DCI this slot (PDCCH capacity
    caps simultaneous scheduling), but the decoder must check every
    tracked UE's candidates — which is exactly the O(m) term.
    """
    if n_ues < 1:
        raise ExperimentError(f"need at least one UE: {n_ues}")
    sniffer = RachSniffer(bwp_n_prb=profile.n_prb)
    setup = RrcSetup(tc_rnti=0x4601,
                     search_space=profile.search_space_config(),
                     mcs_table=profile.mcs_table)
    sniffer.discover(0x4601, 0.0, setup)
    for i in range(1, n_ues):
        sniffer.discover(0x4601 + i, 0.0, None)

    grid = ResourceGrid(profile.n_prb)
    cfg = profile.dci_size_config()
    used: set[int] = set()
    encoded = 0
    for rnti, ue in list(sniffer.tracked.items()):
        if encoded >= active_ues:
            break
        for start in ue.search_space.candidate_cces(2, slot_index, rnti):
            cces = set(range(start, start + 2))
            if cces & used:
                continue
            dci = Dci(format=DciFormat.DL_1_1, rnti=rnti,
                      freq_alloc_riv=riv_encode(0, 4, profile.n_prb),
                      time_alloc=1, mcs=10, ndi=0, rv=0, harq_id=0)
            encode_pdcch([(dci, ue.search_space.coreset,
                           PdcchCandidate(start, 2))], cfg, grid,
                         n_id=profile.cell_id, slot_index=slot_index)
            used |= cces
            encoded += 1
            break
    ofdm = OfdmConfig.for_grid(grid.n_subcarriers)
    samples = modulate_slot(grid, ofdm)
    return Workload(profile=profile, tracked=sniffer.space_snapshot(),
                    samples=samples, ofdm=ofdm, slot_index=slot_index,
                    n_encoded=encoded)


def build_runtime(workload: Workload,
                  noise_var: float = 1e-3) -> SlotRuntime:
    """The production stage graph over a fixed workload: OFDM
    demodulation on the backbone, the candidate search on the parallel
    stage (gathered per slot, decoded per window), run inline."""
    decoder = GridDciDecoder(
        dci_cfg=workload.profile.dci_size_config(),
        n_id=workload.profile.cell_id, noise_var=noise_var)

    def demod(ctx: SlotContext) -> None:
        ctx.grid = demodulate_slot(workload.samples, workload.ofdm)
        ctx.tracked = workload.tracked

    def pack(ctx: SlotContext) -> SlotGather:
        return decoder.gather(ctx.grid, workload.slot_index, ctx.tracked)

    def merge(ctx: SlotContext, result) -> None:
        ctx.decoded = result[0]

    return SlotRuntime(stages=[
        Stage("demod", demod),
        Stage("dci", grid_decode_job, parallel=True, pack=pack,
              merge=merge)])


def _slot_us(runtime: SlotRuntime, n_slots: int) -> float:
    """One timed run: the mean per-slot time of ``n_slots`` slots.

    The DCI stage's time per slot is amortized (its gather and finish
    plus its share of the window's shared work), and the runtime
    is flushed before its stats are read, so slots still in their
    window count.
    """
    runtime.flush()
    runtime.reset_stats()
    for _ in range(n_slots):
        runtime.submit(None)
    runtime.flush()
    stats = runtime.stats()
    return stats.stage("demod").mean_us + stats.stage("dci").mean_us


def _sweep(points: list[tuple[CellProfile, int]],
           n_slots: int) -> list[TimingRow]:
    """Each (cell, UE count) point's best of :data:`REPEATS` timed
    runs.

    The repeats go in rounds over all points, so each point's runs are
    spread over the whole sweep: per-slot cost grows only about 1.5x
    from 1 to 128 UEs, and hardly at all from 8 UEs on, so on a shared
    host a burst of foreign load that covered every run of one point
    would reorder neighbouring UE counts.
    """
    runtimes = []
    for profile, n_ues in points:
        runtime = build_runtime(build_workload(profile, n_ues))
        runtime.submit(None)          # warm-up
        runtimes.append(runtime)
    best_us = [float("inf")] * len(points)
    for _ in range(REPEATS):
        for i, runtime in enumerate(runtimes):
            best_us[i] = min(best_us[i], _slot_us(runtime, n_slots))
    return [TimingRow(profile=profile.name, n_ues=n_ues, mean_us=us)
            for (profile, n_ues), us in zip(points, best_us)]


def measure(profile: CellProfile, n_ues: int,
            n_slots: int = 3) -> TimingRow:
    """Mean per-slot processing time over ``n_slots`` repetitions, the
    best of :data:`REPEATS` timed runs."""
    return _sweep([(profile, n_ues)], n_slots)[0]


def run(ue_counts: tuple[int, ...] = UE_COUNTS,
        n_slots: int = 3) -> list[TimingRow]:
    """The full sweep: both cells x UE counts."""
    return _sweep([(profile, n_ues)
                   for profile in (AMARISOFT_PROFILE, TMOBILE_N25_PROFILE)
                   for n_ues in ue_counts], n_slots)


def to_result(rows: list[TimingRow]) -> FigureResult:
    result = FigureResult(figure="fig12")
    for profile in sorted({r.profile for r in rows}):
        points = sorted((float(r.n_ues), r.mean_us) for r in rows
                        if r.profile == profile)
        result.add_series(profile, points)
        # Linearity check: time at the largest UE count over the
        # smallest should scale roughly with the count ratio, not
        # explode.
        if len(points) >= 2 and points[0][1] > 0:
            result.summary[f"{profile}_growth"] = \
                points[-1][1] / points[0][1]
    return result


def table(rows: list[TimingRow]) -> Table:
    return Table(
        title="Fig 12 - per-slot processing time",
        columns=("cell", "UEs", "mean us/slot"),
        rows=tuple((r.profile, r.n_ues, r.mean_us) for r in rows))
