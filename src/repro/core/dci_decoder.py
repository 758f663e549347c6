"""Per-slot DCI extraction for the tracked UE list (paper section 3.2.1).

Two backends share one interface:

* :class:`GridDciDecoder` (iq fidelity) - runs the real PDCCH decode
  chain over a captured resource grid: it enumerates every tracked
  RNTI's search-space candidates for the slot, polar-decodes each
  distinct candidate position once, and checks the CRC per UE and
  format.
* :class:`RecordDciDecoder` (message fidelity) - walks the slot's DCI
  records and applies the calibrated decode-failure model, producing the
  same outputs orders of magnitude faster.

Both return :class:`DecodedDci` lists; everything downstream (grants,
HARQ tracking, throughput) is backend-agnostic.  The per-UE search of
each slot is the slot runtime's parallel stage: :func:`grid_decode_job`
runs a window of prepared slots with one polar traversal, and
:func:`record_decode_job` runs one slot from its payload alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.constants import DCI_CRC_LEN, MAX_RNTI
from repro.core.decode_model import counter_uniform, decode_succeeds, \
    pdcch_bler
from repro.core.rach_sniffer import SpaceSnapshot
from repro.phy import pdcch, polar
from repro.phy.coreset import SearchSpace
from repro.phy.dci import Dci, DciError, DciFormat, DciSizeConfig, \
    dci_payload_size, unpack
from repro.phy.modulation import QPSK, demodulate_soft_batch
from repro.phy.numerology import slots_per_frame
# ``dci_crc_check_batch`` is no longer called here; bench_e2e/layers.py
# looks it up on this module by name to trace it.
from repro.phy.pdcch import BITS_PER_CCE, CandidateLayout, \
    PdcchCandidate, dci_crc_check_batch, dci_crc_syndromes, \
    estimate_channel, occupancy_threshold, read_only  # noqa: F401
from repro.phy.polar import Traversal
from repro.phy.resource_grid import ResourceGrid
from repro.phy.scrambling import pdcch_scrambling_init
from repro.gnb.gnb import DciRecord


class DciDecoderError(ValueError):
    """Raised for backend misuse."""


@dataclass(frozen=True)
class DecodedDci:
    """One successfully decoded DCI at the sniffer."""

    dci: Dci
    aggregation_level: int
    from_common_space: bool = False


@lru_cache(maxsize=65536)
def _ue_entry_plan(space: SearchSpace, rnti: int, reduced_slot: int) \
        -> tuple[tuple[int, int, bool, int], ...]:
    """One UE's candidate skeleton: ``(level, start, valid, cce_bits)``.

    The 38.213 hash repeats every frame, so the per-slot enumeration a
    batched decode performs for *every* tracked UE collapses to one
    cache hit per UE after the first frame.  Keyed on the search space
    itself (hashable, with an insertion-order-sensitive hash) so the
    plan preserves the per-candidate search's exact iteration order.
    """
    plan: list[tuple[int, int, bool, int]] = []
    n_cce = space.coreset.n_cces
    for level, count in space.candidates_per_level.items():
        if count == 0:
            continue
        for start in space.candidate_cces(level, reduced_slot, rnti):
            plan.append((level, start, start + level <= n_cce,
                         ((1 << level) - 1) << start))
    return tuple(plan)


#: The UE-space formats the search tries, in attempt order; tables
#: in :class:`PreparedSearch` are indexed by position in this tuple.
_FORMATS = (DciFormat.DL_1_1, DciFormat.UL_0_1)


@lru_cache(maxsize=16)
def _info_lens(dci_cfg: DciSizeConfig) -> tuple[int, ...]:
    """Payload plus CRC bits of each of :data:`_FORMATS`."""
    return tuple(dci_payload_size(fmt, dci_cfg) + DCI_CRC_LEN
                 for fmt in _FORMATS)


@lru_cache(maxsize=16)
def _common_layout(space: SearchSpace, dci_cfg: DciSizeConfig,
                   n_id: int) \
        -> tuple[CandidateLayout, tuple[polar.PolarCode, ...]]:
    """The common space's candidates for :meth:`blind_decode_common`,
    one group per level that can carry format 1_1, and each group's
    polar code."""
    if not space.is_common:
        raise DciDecoderError("the blind search needs a common space")
    k = dci_payload_size(DciFormat.DL_1_1, dci_cfg) + DCI_CRC_LEN
    levels = [level for level, count in space.candidates_per_level.items()
              if count and k <= level * BITS_PER_CCE]
    layout = CandidateLayout.build(
        [(space.coreset, level, space.candidate_cces(level, 0))
         for level in levels], pdcch_scrambling_init(n_id))
    return layout, tuple(polar.construct(k, level * BITS_PER_CCE)
                         for level in levels)


@dataclass(frozen=True, eq=False)
class SearchLayout:
    """Phases 1-2 of a slot's UE-space search: everything that depends
    only on the tracked spaces, the slot within its frame and the
    decoder's size config and cell ID.

    It is the same for every slot at that offset into the frame, so
    :meth:`GridDciDecoder.prepare` keeps it on the
    :class:`SpaceSnapshot` and builds it once per snapshot and slot of
    the frame.  Its arrays are shared and read-only.
    """

    #: ``(rnti, level, start, valid, cce_bits, pos)`` in per-candidate
    #: order; ``pos`` indexes the shared positions (-1 when invalid).
    entries: tuple[tuple[int, int, int, bool, int, int], ...]
    n_positions: int
    #: Each entry's position, RNTI, first CCE and level, and the
    #: entries with a position.
    entry_pos: np.ndarray
    entry_rnti: np.ndarray
    entry_start: np.ndarray
    entry_level: np.ndarray
    valid_rows: np.ndarray
    #: The positions the replay can reach, one group per (CORESET,
    #: level); ``row_pos`` is each row's position.
    candidates: CandidateLayout
    row_pos: np.ndarray
    #: Per group, the indices into :data:`_FORMATS` whose payload fits
    #: its level and their polar codes; ``row_fits`` marks the rows of
    #: groups where some format fits.
    group_codes: tuple[tuple[tuple[int, ...],
                             tuple[polar.PolarCode, ...]], ...]
    row_fits: np.ndarray

    @classmethod
    def build(cls, tracked: SpaceSnapshot, reduced_slot: int,
              dci_cfg: DciSizeConfig, n_id: int) -> "SearchLayout":
        """The layout of one slot.

        Phase 1 enumerates entries in exact per-candidate order and
        maps each valid one onto its shared position, keyed by the
        snapshot's interned CORESET index.  Each entry carries its CCE
        footprint as an int bitmask, so the replay's claim checks are
        single AND operations.  Phase 2 groups the positions per
        (CORESET, level).
        """
        order, coresets = tracked.search_order()
        positions: dict[tuple[int, int, int], int] = {}
        entries: list[tuple[int, int, int, bool, int, int]] = []
        for rnti, space, coreset_index in order:
            for level, start, valid, cce_bits in _ue_entry_plan(
                    space, rnti, reduced_slot):
                if valid:
                    key = (coreset_index, level, start)
                    pos = positions.get(key)
                    if pos is None:
                        pos = positions[key] = len(positions)
                else:
                    pos = -1
                entries.append((rnti, level, start, valid, cce_bits, pos))
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (coreset_index, level, start), pos in positions.items():
            groups.setdefault((coreset_index, level),
                              []).append((pos, start))
        info_lens = _info_lens(dci_cfg)
        group_codes: list[tuple[tuple[int, ...],
                                tuple[polar.PolarCode, ...]]] = []
        fits_rows: list[bool] = []
        for (_, level), members in groups.items():
            n_coded = level * BITS_PER_CCE
            fits = tuple(f for f, k in enumerate(info_lens) if k <= n_coded)
            group_codes.append((fits, tuple(
                polar.construct(info_lens[f], n_coded) for f in fits)))
            fits_rows.extend([bool(fits)] * len(members))
        entry_pos = np.array([entry[5] for entry in entries],
                             dtype=np.intp)
        return cls(
            entries=tuple(entries), n_positions=len(positions),
            entry_pos=read_only(entry_pos),
            entry_rnti=read_only(np.array([entry[0] for entry in entries],
                                           dtype=np.int64)),
            entry_start=read_only(np.array(
                [entry[2] for entry in entries], dtype=np.int64)),
            entry_level=read_only(np.array(
                [entry[1] for entry in entries], dtype=np.int64)),
            valid_rows=read_only(np.flatnonzero(entry_pos >= 0)),
            candidates=CandidateLayout.build(
                [(coresets[coreset_index], level,
                  [start for _, start in members])
                 for (coreset_index, level), members in groups.items()],
                pdcch_scrambling_init(n_id)),
            row_pos=read_only(np.array(
                [pos for members in groups.values() for pos, _ in members],
                dtype=np.intp)),
            group_codes=tuple(group_codes),
            row_fits=read_only(np.array(fits_rows, dtype=bool)))


@dataclass
class PreparedSearch:
    """One slot's UE-space search up to its polar decode.

    :meth:`GridDciDecoder.prepare` fills it; :attr:`blocks` are the
    slot's ``(llrs, codes)`` polar blocks, one per (CORESET, level)
    group, and :meth:`finish` turns their decoded, CRC-checked rows
    (:class:`WindowRows`) into the slot's DCIs.  It holds no grid and
    no decoder, only arrays, tuples, the slot's read-only
    :class:`SearchLayout` and the decoder's frozen settings, so a
    window of them can be decoded late without reaching the session.
    """

    dci_cfg: DciSizeConfig
    use_energy_gate: bool
    use_cce_claiming: bool
    layout: SearchLayout
    claimed_bits: int
    #: Per position, whether its REs passed the energy gate (all False
    #: when the gate is off).
    occupied: np.ndarray
    blocks: list[tuple[np.ndarray, tuple[polar.PolarCode, ...]]] = \
        field(default_factory=list)
    #: Per block, its rows' positions and the indices into
    #: :data:`_FORMATS` of its codes.
    block_rows: list[tuple[np.ndarray, tuple[int, ...]]] = \
        field(default_factory=list)

    def finish(self, rows: "WindowRows", places: Sequence[tuple[int, int]],
               claimed: set[int] | None = None) \
            -> tuple[list[DecodedDci], int]:
        """Phases 4-5: the slot's decoded DCIs and decode attempts.

        ``rows`` are the window's checked rows and ``places`` this
        slot's entry of :attr:`WindowBlocks.places`: where each of
        :attr:`blocks` landed among them.

        The per-candidate control flow (CCE claiming, energy gate,
        per-format attempt accounting, ``unpack``) is *replayed* over
        the shared rows, so decoded DCIs, claiming effects and the
        attempt count are bit-identical to the per-candidate reference
        in ``tests/core/test_batch_equivalence.py``.  The CCEs the
        slot's decodes claim are added to ``claimed`` when given.
        """
        decoded: list[DecodedDci] = []
        layout = self.layout
        entries = layout.entries
        if not entries:
            return decoded, 0
        # Each position's row among the window's rows, per format (-1,
        # whose syndrome is the sentinel, where it was not decoded).
        pos_rows = [np.full(layout.n_positions, -1, dtype=np.intp)
                    for _ in _FORMATS]
        for (pos_idx, fits), (block, first) in zip(self.block_rows, places):
            for f in fits:
                start = rows.firsts[f][block] + first
                pos_rows[f][pos_idx] = np.arange(start,
                                                 start + pos_idx.size)

        # The replay reaches an entry only when it has a position and,
        # with the gate on, that position passed the gate.  Without the
        # gate an entry with no position costs two attempts (both
        # formats tried, both fail early) and nothing else.
        entry_pos = layout.entry_pos
        live = layout.valid_rows
        if self.use_energy_gate:
            live = live[self.occupied[entry_pos[live]]]
            attempts = 0
        else:
            attempts = 2 * (len(entries) - live.size)

        # Phase 4: an entry's CRC passes under a format exactly when
        # its position's syndrome is the entry's masked RNTI (the
        # booleans of ``dci_crc_check_batch``).
        masked = layout.entry_rnti[live] & MAX_RNTI
        live_pos = entry_pos[live]
        live_rows = [table[live_pos] for table in pos_rows]
        passed = [syndromes[at] == masked
                  for syndromes, at in zip(rows.syndromes, live_rows)]
        hit = np.logical_or.reduce(passed)

        # Phase 5: replay the per-candidate control flow over the live
        # entries some CRC passed, in entry order.
        claiming = self.use_cce_claiming
        claimed_bits = self.claimed_bits
        # ``(entry, first CCE, end CCE)`` of every claim, in replay
        # order; each CCE claimed up front comes before every entry.
        claims = [(-1, cce, cce + 1) for cce in range(
            claimed_bits.bit_length()) if claimed_bits >> cce & 1] \
            if claiming else []
        for i in np.flatnonzero(hit).tolist():
            idx = int(live[i])
            rnti, level, start, _, cce_bits, _ = entries[idx]
            if claiming and cce_bits & claimed_bits:
                continue
            for f, fmt in enumerate(_FORMATS):
                attempts += 1
                if not passed[f][i]:
                    continue
                try:
                    dci = unpack(rows.bits[f][live_rows[f][i]]
                                 [:-DCI_CRC_LEN], fmt, self.dci_cfg, rnti)
                except DciError:
                    continue
                decoded.append(DecodedDci(dci=dci, aggregation_level=level))
                if claiming:
                    claimed_bits |= cce_bits
                    claims.append((idx, start, start + level))
                    if claimed is not None:
                        claimed.update(range(start, start + level))
                break

        # Every other live entry fails both CRCs: two attempts, or none
        # when a claim made before it covers one of its CCEs.  Claims
        # change only at a decode, so these counts are exact.
        misses = live[~hit]
        blocked = np.zeros(misses.size, dtype=bool)
        if claims:
            first_cce = layout.entry_start[misses]
            end_cce = first_cce + layout.entry_level[misses]
            for after, first, end in claims:
                blocked |= (misses > after) & (first_cce < end) \
                    & (first < end_cce)
        attempts += 2 * (misses.size - int(np.count_nonzero(blocked)))
        return decoded, attempts


@dataclass(frozen=True)
class WindowRows:
    """A window's decoded polar rows under each of :data:`_FORMATS`,
    CRC-checked once for every RNTI hypothesis.

    ``bits[f]`` stacks the window's decoded rows of format ``f`` (its
    merged blocks in order) and ``syndromes[f]`` holds their
    :func:`~repro.phy.pdcch.dci_crc_syndromes` and then ``-1``, which
    no masked RNTI equals, so row ``-1`` stands for "not decoded".
    ``firsts[f][m]`` is the first row of merged block ``m`` (-1 when
    it has no code of format ``f``).
    """

    bits: tuple[np.ndarray, ...]
    syndromes: tuple[np.ndarray, ...]
    firsts: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class WindowBlocks:
    """A window's polar blocks, merged: the blocks of every slot that
    share a code tuple (the same level, so the same ``E`` and the same
    formats) stacked into one, in slot order."""

    blocks: list[tuple[np.ndarray, tuple[polar.PolarCode, ...]]]
    #: Per merged block, the indices into :data:`_FORMATS` of its codes.
    fits: list[tuple[int, ...]]
    #: Per slot, per block of its :attr:`PreparedSearch.blocks`: the
    #: merged block it joined and its first row there.
    places: list[list[tuple[int, int]]]

    @classmethod
    def merge(cls, window: Sequence[PreparedSearch]) -> "WindowBlocks":
        """Merge the blocks of ``window``'s slots."""
        merged: dict[tuple[polar.PolarCode, ...], int] = {}
        parts: list[list[np.ndarray]] = []
        fits: list[tuple[int, ...]] = []
        sizes: list[int] = []
        places: list[list[tuple[int, int]]] = []
        for prepared in window:
            slot = []
            for (llrs, codes), (_, block_fits) in zip(prepared.blocks,
                                                      prepared.block_rows):
                block = merged.setdefault(codes, len(parts))
                if block == len(parts):
                    parts.append([])
                    fits.append(block_fits)
                    sizes.append(0)
                slot.append((block, sizes[block]))
                parts[block].append(llrs)
                sizes[block] += llrs.shape[0]
            places.append(slot)
        return cls(blocks=[(np.concatenate(part), codes)
                           for part, codes in zip(parts, merged)],
                   fits=fits, places=places)

    def check(self, outs: Sequence[Sequence[np.ndarray]]) -> WindowRows:
        """The checked rows of ``outs``, the decoded bits of
        :attr:`blocks` (per block, one matrix per code, as
        :meth:`~repro.phy.polar.Traversal.result` returns them): one
        syndrome pass per format over the whole window."""
        bits, syndromes, firsts = [], [], []
        for f in range(len(_FORMATS)):
            mats: list[np.ndarray] = []
            starts: list[int] = []
            n_rows = 0
            for block_fits, block_outs in zip(self.fits, outs):
                if f in block_fits:
                    out = block_outs[block_fits.index(f)]
                    starts.append(n_rows)
                    mats.append(out)
                    n_rows += out.shape[0]
                else:
                    starts.append(-1)
            stacked = np.concatenate(mats) if mats \
                else np.zeros((0, 0), dtype=np.uint8)
            bits.append(stacked)
            syndromes.append(np.append(dci_crc_syndromes(stacked), -1))
            firsts.append(tuple(starts))
        return WindowRows(bits=tuple(bits), syndromes=tuple(syndromes),
                          firsts=tuple(firsts))


class RecordDciDecoder:
    """Message-fidelity backend driven by the calibrated BLER model.

    It decodes the common space on the backbone with its own seeded
    generator; the per-UE search is :func:`record_decode_job`, whose
    counters the scope merges into ``attempts`` and ``misses``.
    """

    def __init__(self, sniffer_snr_db: float, seed: int = 0) -> None:
        self.sniffer_snr_db = sniffer_snr_db
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.attempts = 0
        self.misses = 0

    def decode_common(self, records: list[DciRecord]) \
            -> list[tuple[DciRecord, bool]]:
        """Attempt every common-search-space DCI (SIB1/MSG 4 scheduling).

        Returns (record, decoded?) pairs; the caller turns successful
        non-SI decodes into RNTI discoveries.
        """
        results = []
        for record in records:
            if record.search_space != "common":
                continue
            level = record.candidate.aggregation_level
            ok = decode_succeeds(self.sniffer_snr_db, level, self._rng)
            results.append((record, ok))
        return results

    def checkpoint_state(self) -> dict:
        """Picklable snapshot (the generator travels as its state)."""
        return {"sniffer_snr_db": self.sniffer_snr_db,
                "seed": self.seed,
                "rng_state": self._rng.bit_generator.state,
                "attempts": self.attempts, "misses": self.misses}

    @classmethod
    def from_state(cls, state: dict) -> "RecordDciDecoder":
        """Rebuild a decoder mid-stream from :meth:`checkpoint_state`."""
        decoder = cls(sniffer_snr_db=state["sniffer_snr_db"],
                      seed=state["seed"])
        decoder._rng.bit_generator.state = state["rng_state"]
        decoder.attempts = state["attempts"]
        decoder.misses = state["misses"]
        return decoder


class GridDciDecoder:
    """IQ-fidelity backend: real polar decodes over a captured grid.

    Two receiver-side optimisations (both absent from the paper's tool,
    both ablatable, see ``benchmarks/test_ablations.py``):

    * ``use_energy_gate`` skips candidates whose REs carry only noise.
    * CCE claiming: CCEs carry at most one DCI, so a decoded DCI
      disqualifies every other candidate touching its CCEs.
    """

    def __init__(self, dci_cfg: DciSizeConfig, n_id: int,
                 noise_var: float, use_energy_gate: bool = True,
                 use_cce_claiming: bool = True,
                 equalize: bool = False, scs_khz: int = 30) -> None:
        if noise_var <= 0:
            raise DciDecoderError(
                f"noise variance must be positive: {noise_var}")
        self.dci_cfg = dci_cfg
        self.n_id = n_id
        self.noise_var = noise_var
        self.use_energy_gate = use_energy_gate
        self.use_cce_claiming = use_cce_claiming
        self.equalize = equalize
        self.scs_khz = scs_khz
        self.attempts = 0

    def config(self) -> dict:
        """Constructor arguments: ``GridDciDecoder(**d.config())`` is a
        fresh decoder that decodes exactly like ``d``."""
        return {"dci_cfg": self.dci_cfg, "n_id": self.n_id,
                "noise_var": self.noise_var,
                "use_energy_gate": self.use_energy_gate,
                "use_cce_claiming": self.use_cce_claiming,
                "equalize": self.equalize, "scs_khz": self.scs_khz}

    def decode_slot_batch(self, grid: ResourceGrid, slot_index: int,
                          tracked: Mapping[int, SearchSpace],
                          claimed: set[int] | None = None) \
            -> list[DecodedDci]:
        """Search every tracked UE's candidates in the captured grid.

        ``tracked`` maps each tracked RNTI to its UE search space.

        The decisions are those of the per-candidate search: for each
        tracked RNTI in ascending order and each of its candidates,
        skip the candidate if a decoded DCI already claimed one of its
        CCEs or if its REs carry only noise, else try DL 1_1 then
        UL 0_1 (one attempt each) until one passes the RNTI-masked CRC.

        This is the search's window decode (:func:`grid_decode_job`)
        for a window of one slot: :meth:`prepare`, one
        :func:`~repro.phy.polar.decode_blocks` traversal of its merged
        blocks, one :meth:`WindowBlocks.check` and
        :meth:`PreparedSearch.finish`.

        ``claimed`` optionally pre-claims CCEs; the CCEs this slot's
        decodes claim are added to it.
        """
        prepared = self.prepare(grid, slot_index, tracked, claimed)
        merged = WindowBlocks.merge([prepared])
        decoded, attempts = prepared.finish(
            merged.check(polar.decode_blocks(merged.blocks)),
            merged.places[0], claimed)
        self.attempts += attempts
        return decoded

    def prepare(self, grid: ResourceGrid, slot_index: int,
                tracked: Mapping[int, SearchSpace],
                claimed: set[int] | None = None) -> "PreparedSearch":
        """Phases 1-3 of the search: everything but the polar decode
        and what follows it.

        PDCCH scrambling is seeded from the cell ID alone
        (``pdcch_scrambling_init(n_id)``, ``n_rnti = 0``), so a
        candidate's LLRs and polar output depend only on its *position*
        (CORESET, level, first CCE), never on which UE's search space
        hashed onto it.  Each distinct eligible position is therefore
        gathered, demodulated and descrambled once per slot, and every
        tracked UE's entry reads its block from that shared table.

        Phases 1-2 are the slot's :class:`SearchLayout`, built once per
        snapshot and slot of the frame.  CCEs claimed up front do not
        change it: :meth:`PreparedSearch.finish` skips their entries
        before counting an attempt, as the per-candidate search does.
        Phase 3 is one gather of every position, the energy
        gate (per group, one row reduction) and one demod of the rows
        that pass, descrambled per group.
        """
        if not isinstance(tracked, SpaceSnapshot):
            tracked = SpaceSnapshot(tracked)
        claimed_bits = 0
        for cce in claimed or ():
            claimed_bits |= 1 << cce
        reduced_slot = slot_index % slots_per_frame(self.scs_khz)
        layout = tracked.layout(
            (reduced_slot, self.dci_cfg, self.n_id),
            lambda: SearchLayout.build(tracked, reduced_slot,
                                       self.dci_cfg, self.n_id))
        prepared = PreparedSearch(
            dci_cfg=self.dci_cfg, use_energy_gate=self.use_energy_gate,
            use_cce_claiming=self.use_cce_claiming, layout=layout,
            claimed_bits=claimed_bits,
            occupied=np.zeros(layout.n_positions, dtype=bool))
        candidates = layout.candidates
        if not candidates.n_rows:
            return prepared

        # Phase 3: one gather and energy gate, then one demod of the
        # rows that pass; every group's descrambled LLR block goes out
        # with the DCI formats that fit its level.
        values = candidates.gather(grid)
        keep = layout.row_fits
        if self.use_energy_gate:
            passed = candidates.energies(values) \
                > occupancy_threshold(self.noise_var)
            prepared.occupied[layout.row_pos] = passed
            keep = keep & passed
        if not keep.any():
            return prepared
        symbols = candidates.select(values, keep)
        if self.equalize:
            positions = [(coreset, level, start)
                         for coreset, level, starts in candidates.groups
                         for start in starts]
            gains = np.array(
                [estimate_channel(grid, coreset,
                                  PdcchCandidate(first_cce=start,
                                                 aggregation_level=level),
                                  self.n_id, slot_index, self.scs_khz)
                 for (coreset, level, start), kept in zip(positions, keep)
                 if kept],
                dtype=np.complex128)
            widths = candidates.row_widths[keep]
            # Demodulating at unit noise then dividing per candidate is
            # the per-candidate (d1-d0)/noise_var to the last bit: x/1.0
            # is exact, so each LLR still sees one division by its
            # effective noise variance.
            nv_eff = np.maximum(
                self.noise_var / np.maximum(np.abs(gains) ** 2, 1e-9),
                1e-12)
            llrs = demodulate_soft_batch(
                (symbols / np.repeat(gains, widths))[None, :], QPSK, 1.0)[0]
            llrs = llrs / np.repeat(nv_eff, QPSK.bits_per_symbol * widths)
        else:
            llrs = demodulate_soft_batch(
                symbols[None, :], QPSK, max(self.noise_var, 1e-12))[0]
        bounds = candidates.row_bounds
        for g, ((fits, codes), block) in enumerate(zip(
                layout.group_codes, candidates.split(llrs, keep))):
            if block.shape[0]:
                rows = slice(bounds[g], bounds[g + 1])
                prepared.blocks.append((block, codes))
                prepared.block_rows.append(
                    (layout.row_pos[rows][keep[rows]], fits))
        return prepared

    def blind_decode_common(self, grid: ResourceGrid, slot_index: int,
                            common_space: SearchSpace) -> list[DecodedDci]:
        """Blind-search the common space, recovering RNTIs via CRC XOR.

        Used for MSG 4 discovery: the payload length of format 1_1 under
        the cell's size config is known from SIB 1, so each candidate is
        decoded without an RNTI hypothesis and the CRC mask yields the
        TC-RNTI (paper section 3.1.2).

        Common spaces hash from ``Y = 0``, so the candidates are the
        same every slot and their layout is built once.  All
        candidates ride one gather, the occupied ones one demod, then
        one descramble and polar decode per level; the RNTI recovery
        then runs per row in
        candidate order, so the result equals the per-candidate
        ``decode_candidate_bits`` search.
        """
        layout, codes = _common_layout(common_space, self.dci_cfg,
                                       self.n_id)
        values = layout.gather(grid)
        keep = layout.energies(values) > occupancy_threshold(self.noise_var)
        if not keep.any():
            return []
        llrs = demodulate_soft_batch(
            layout.select(values, keep)[None, :], QPSK,
            max(self.noise_var, 1e-12))[0]
        decoded: list[DecodedDci] = []
        for group, code, block in zip(layout.groups, codes,
                                      layout.split(llrs, keep)):
            level = group[1]
            if block.shape[0] == 0:
                continue
            for bits in polar.decode_batch(block, code):
                rnti = pdcch.dci_recover_rnti(bits)
                if rnti is None or rnti == 0:
                    continue
                try:
                    dci = unpack(bits[:-DCI_CRC_LEN], DciFormat.DL_1_1,
                                 self.dci_cfg, rnti)
                except DciError:
                    continue
                decoded.append(DecodedDci(dci=dci, aggregation_level=level,
                                          from_common_space=True))
        return decoded

    def checkpoint_state(self) -> dict:
        """Picklable snapshot: the configuration and the counter."""
        return {**self.config(), "attempts": self.attempts}

    @classmethod
    def from_state(cls, state: dict) -> "GridDciDecoder":
        """Rebuild a decoder mid-stream from :meth:`checkpoint_state`."""
        config = dict(state)
        attempts = config.pop("attempts")
        decoder = cls(**config)
        decoder.attempts = attempts
        return decoder


# ------------------------------------------------- the parallel DCI stage
# The slot runtime runs one of the two jobs below, window by window on
# the backbone.  Each is a module-level function of its payloads alone,
# so it cannot reach the session: the scope packs each slot's payload
# on the backbone and merges the returned counters and decodes back.

def grid_decode_job(window: list[PreparedSearch]) \
        -> Iterator[tuple[list[DecodedDci], int] | None]:
    """A window of slots' iq-fidelity searches, past their
    :meth:`~GridDciDecoder.prepare`, decoded and checked as a whole:
    the slots' blocks merged per code tuple, one polar traversal, one
    CRC-syndrome pass, then each slot's :meth:`~PreparedSearch.finish`.

    A window job (see :class:`~repro.core.runtime.SlotRuntime`): it
    yields ``None`` after each of ``len(window)`` equal slices of the
    traversal's ops, then each slot's ``(decoded DCIs, attempts)`` in
    slot order.  A row's bits and syndrome do not depend on the rows
    it shares a traversal with, so every slot's result equals its own
    :meth:`~GridDciDecoder.decode_slot_batch`.
    """
    merged = WindowBlocks.merge(window)
    traversal = Traversal(merged.blocks)
    share = -(-traversal.n_ops // len(window))
    for _ in window:
        traversal.step(share)
        yield None
    rows = merged.check(traversal.result())
    for prepared, places in zip(window, merged.places):
        yield prepared.finish(rows, places)


def record_decode_job(payload: dict) \
        -> tuple[list[DecodedDci], int, int, list[tuple[int, int, int]]]:
    """One slot's message-fidelity search: decode the UE-search-space
    records (``payload["records"]``) of tracked RNTIs.

    ``payload["tracked"]`` only answers RNTI membership.  Each decision
    is a counter-based draw keyed on (seed, slot, rnti, CCE, level,
    direction) rather than a generator advance, so the outcome is the
    same whatever order the slots run in.

    Returns the decoded DCIs, the attempts, the misses and, when
    ``payload["collect_misses"]`` is set, one ``(slot_index, rnti,
    level)`` entry per miss in record order, which the scope turns into
    ``dci.miss`` events at commit.
    """
    snr_db, seed = payload["snr_db"], payload["seed"]
    tracked = payload["tracked"]
    collect_misses = payload["collect_misses"]
    decoded: list[DecodedDci] = []
    miss_log: list[tuple[int, int, int]] = []
    attempts = misses = 0
    for record in payload["records"]:
        if record.search_space != "ue" or record.rnti not in tracked:
            continue
        attempts += 1
        level = record.candidate.aggregation_level
        draw = counter_uniform(
            seed, record.slot_index, record.rnti,
            record.candidate.first_cce, level,
            int(record.dci.format == DciFormat.DL_1_1))
        if draw >= pdcch_bler(snr_db, level):
            decoded.append(DecodedDci(dci=record.dci,
                                      aggregation_level=level))
        else:
            misses += 1
            if collect_misses:
                miss_log.append((record.slot_index, record.rnti, level))
    return decoded, attempts, misses, miss_log
