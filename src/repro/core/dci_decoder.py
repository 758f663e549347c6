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
HARQ tracking, throughput) is backend-agnostic.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Container, Mapping

import numpy as np

from repro.constants import DCI_CRC_LEN
from repro.core.decode_model import counter_uniform, decode_succeeds, \
    pdcch_bler
from repro.phy import pdcch, polar
from repro.phy.coreset import SearchSpace
from repro.phy.dci import Dci, DciError, DciFormat, DciSizeConfig, \
    dci_payload_size, unpack
from repro.phy.modulation import QPSK, demodulate_soft_batch
from repro.phy.numerology import slots_per_frame
from repro.phy.pdcch import BITS_PER_CCE, PdcchCandidate, \
    candidate_energies_batch, dci_crc_check_batch, estimate_channel, \
    gather_candidates_batch, occupancy_threshold
from repro.phy.resource_grid import ResourceGrid
from repro.phy.scrambling import descramble_llrs, pdcch_scrambling_init
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


class RecordDciDecoder:
    """Message-fidelity backend driven by the calibrated BLER model."""

    def __init__(self, sniffer_snr_db: float, seed: int = 0) -> None:
        self.sniffer_snr_db = sniffer_snr_db
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self.attempts = 0
        self.misses = 0

    def decode_slot(self, records: list[DciRecord],
                    tracked: Container[int],
                    miss_log: list[tuple[int, int, int]] | None = None) \
            -> list[DecodedDci]:
        """Decode this slot's UE-search-space DCIs for tracked RNTIs.

        ``tracked`` only ever answers RNTI membership here, so it may
        be the scope's search-space snapshot (inline) or the
        ``frozenset`` of RNTIs a process payload ships.

        Runs on the slot runtime's parallel stage, so each decision is a
        counter-based draw keyed on (seed, slot, rnti, CCE, level,
        direction) rather than a shared-RNG state advance: the outcome
        is identical whatever order and process the slots run on.

        ``miss_log``, when given, receives one ``(slot_index, rnti,
        level)`` tuple per missed decode in record order — the
        observability bus turns these into ``dci.miss`` events, and a
        payload executor ships them back over the wire.
        """
        decoded: list[DecodedDci] = []
        attempts = misses = 0
        for record in records:
            if record.search_space != "ue":
                continue
            if record.rnti not in tracked:
                continue
            attempts += 1
            level = record.candidate.aggregation_level
            draw = counter_uniform(
                self.seed, record.slot_index, record.rnti,
                record.candidate.first_cce, level,
                int(record.dci.format == DciFormat.DL_1_1))
            if draw >= pdcch_bler(self.sniffer_snr_db, level):
                decoded.append(DecodedDci(dci=record.dci,
                                          aggregation_level=level))
            else:
                misses += 1
                if miss_log is not None:
                    miss_log.append((record.slot_index, record.rnti,
                                     level))
        with self._lock:
            self.attempts += attempts
            self.misses += misses
        return decoded

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
        """Picklable snapshot (the lock is rebuilt on restore)."""
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
                 equalize: bool = False) -> None:
        if noise_var <= 0:
            raise DciDecoderError(
                f"noise variance must be positive: {noise_var}")
        self.dci_cfg = dci_cfg
        self.n_id = n_id
        self.noise_var = noise_var
        self.use_energy_gate = use_energy_gate
        self.use_cce_claiming = use_cce_claiming
        self.equalize = equalize
        self._lock = threading.Lock()
        self.attempts = 0

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

        The PHY work behind them is shared.  PDCCH scrambling is seeded
        from the cell ID alone (``pdcch_scrambling_init(n_id)``,
        ``n_rnti = 0``), so a candidate's LLRs and polar output depend
        only on its *position* (CORESET, level, first CCE, scrambling
        ``c_init``), never on which UE's search space hashed onto it.
        Each distinct eligible position is therefore gathered,
        demodulated, descrambled and polar-decoded once per slot — all
        of the slot's (CORESET, level) groups in one polar traversal,
        :func:`~repro.phy.polar.decode_blocks` — and every tracked UE's
        entry reads its block from that shared table.  The per-candidate
        control flow (CCE claiming, energy gate, per-format attempt
        accounting, ``unpack``) is then *replayed* over the shared
        blocks, so decoded DCIs, claiming effects and the ``attempts``
        counter are bit-identical to the per-candidate reference in
        ``tests/core/test_batch_equivalence.py``.

        ``claimed`` optionally pre-claims CCEs; the CCEs this slot's
        decodes claim are added to it.
        """
        decoded: list[DecodedDci] = []
        attempts = 0
        if claimed is None:
            claimed = set()

        # Phase 1: enumerate entries in exact per-candidate order and
        # map each valid one onto its shared position.  Each entry
        # carries its CCE footprint as an int bitmask so the replay's
        # claim checks are single AND operations; the ``claimed`` set
        # stays the caller-facing interface.  Per-UE skeletons come
        # from the frame-periodic plan cache (the hash only depends on
        # the slot within its frame).
        reduced_slot = slot_index % slots_per_frame(30)
        c_init = pdcch_scrambling_init(self.n_id)
        positions: dict[tuple[object, int, int, int], int] = {}
        entries: list[tuple[int, int, int, bool, int, int]] = []
        for rnti in sorted(tracked):
            space = tracked[rnti]
            for level, start, valid, cce_bits in _ue_entry_plan(
                    space, rnti, reduced_slot):
                pos = positions.setdefault(
                    (space.coreset, level, start, c_init),
                    len(positions)) if valid else -1
                entries.append((rnti, level, start, valid, cce_bits, pos))
        if not entries:
            return decoded
        claimed_bits = 0
        for cce in claimed:
            claimed_bits |= 1 << cce

        # Phase 2: group the positions the replay can reach per
        # (CORESET, level, c_init).  Claims only grow during the replay,
        # so a position claimed up front is never read and is never
        # gathered (the per-candidate search checks claims before
        # touching the grid).
        groups: dict[tuple[object, int, int], list[tuple[int, int]]] = {}
        for (coreset, level, start, key_c_init), pos in positions.items():
            if self.use_cce_claiming \
                    and ((1 << level) - 1) << start & claimed_bits:
                continue
            groups.setdefault((coreset, level, key_c_init),
                              []).append((pos, start))

        # Phase 3: per group, one gather + energy gate, then batched
        # demod + descramble; every group's LLR block, with the DCI
        # formats that fit its level, then rides ONE polar traversal.
        # Decoded blocks land in a per-format position table; payload
        # sizes do not depend on the level, so one table spans every
        # group.
        threshold = occupancy_threshold(self.noise_var)
        energies = np.zeros(len(positions), dtype=np.float64)
        formats = (DciFormat.DL_1_1, DciFormat.UL_0_1)
        info_lens = {fmt: dci_payload_size(fmt, self.dci_cfg)
                     + DCI_CRC_LEN for fmt in formats}
        tables = {fmt: np.zeros((len(positions), info_lens[fmt]),
                                dtype=np.uint8) for fmt in formats}
        decoded_pos = {fmt: np.zeros(len(positions), dtype=bool)
                       for fmt in formats}
        blocks: list[tuple[np.ndarray, tuple[polar.PolarCode, ...]]] = []
        block_rows: list[tuple[np.ndarray, list[DciFormat]]] = []
        for (coreset, level, key_c_init), members in groups.items():
            pos_idx = np.array([pos for pos, _ in members], dtype=np.intp)
            starts = np.array([start for _, start in members],
                              dtype=np.intp)
            values = gather_candidates_batch(grid, coreset, level, starts)
            if self.use_energy_gate:
                energies[pos_idx] = candidate_energies_batch(values)
                keep = energies[pos_idx] > threshold
                values = values[keep]
                pos_idx = pos_idx[keep]
                starts = starts[keep]
            n_coded = level * BITS_PER_CCE
            fits = [fmt for fmt in formats if info_lens[fmt] <= n_coded]
            if not fits or pos_idx.size == 0:
                continue
            if self.equalize:
                gains = np.array(
                    [estimate_channel(
                        grid, coreset,
                        PdcchCandidate(first_cce=int(start),
                                       aggregation_level=level),
                        self.n_id, slot_index) for start in starts],
                    dtype=np.complex128)
                values = values / gains[:, None]
                # Demodulating at unit noise then dividing per row is
                # the per-candidate (d1-d0)/noise_var to the last bit:
                # x/1.0 is exact, so each LLR still sees one division by
                # its effective noise variance.
                nv_eff = np.maximum(
                    self.noise_var / np.maximum(np.abs(gains) ** 2,
                                                1e-9), 1e-12)
                llrs = demodulate_soft_batch(values, QPSK, 1.0)
                llrs = llrs / nv_eff[:, None]
            else:
                llrs = demodulate_soft_batch(
                    values, QPSK, max(self.noise_var, 1e-12))
            blocks.append((descramble_llrs(llrs, key_c_init), tuple(
                polar.construct(info_lens[fmt], n_coded) for fmt in fits)))
            block_rows.append((pos_idx, fits))
        for (pos_idx, fits), outs in zip(block_rows,
                                         polar.decode_blocks(blocks)):
            for fmt, out in zip(fits, outs):
                tables[fmt][pos_idx] = out
                decoded_pos[fmt][pos_idx] = True

        # Phase 4: CRC verdicts for every (shared block, entry RNTI) row,
        # one GF(2) matrix product per format (identical booleans to a
        # per-attempt check).
        entry_pos = np.array([entry[5] for entry in entries],
                             dtype=np.intp)
        entry_rnti = np.array([entry[0] for entry in entries],
                              dtype=np.int64)
        valid_rows = np.flatnonzero(entry_pos >= 0)
        crc_ok: dict[DciFormat, np.ndarray] = {}
        for fmt in formats:
            rows = valid_rows[decoded_pos[fmt][entry_pos[valid_rows]]]
            crc_ok[fmt] = np.zeros(len(entries), dtype=bool)
            if rows.size:
                crc_ok[fmt][rows] = dci_crc_check_batch(
                    tables[fmt][entry_pos[rows]], entry_rnti[rows])

        # Phase 5: replay the per-candidate control flow over the shared
        # blocks.
        for idx, (rnti, level, start, valid, cce_bits, pos) \
                in enumerate(entries):
            if not valid:
                if not self.use_energy_gate:
                    attempts += 2  # both formats tried, both fail early
                continue
            if self.use_cce_claiming and cce_bits & claimed_bits:
                continue
            if self.use_energy_gate and not energies[pos] > threshold:
                continue
            for fmt in formats:
                attempts += 1
                dci = None
                if crc_ok[fmt][idx]:
                    try:
                        dci = unpack(tables[fmt][pos][:-DCI_CRC_LEN], fmt,
                                     self.dci_cfg, rnti)
                    except DciError:
                        dci = None
                if dci is not None:
                    decoded.append(DecodedDci(dci=dci,
                                              aggregation_level=level))
                    if self.use_cce_claiming:
                        claimed_bits |= cce_bits
                        claimed.update(range(start, start + level))
                    break
        with self._lock:
            self.attempts += attempts
        return decoded

    def blind_decode_common(self, grid: ResourceGrid, slot_index: int,
                            common_space) -> list[DecodedDci]:
        """Blind-search the common space, recovering RNTIs via CRC XOR.

        Used for MSG 4 discovery: the payload length of format 1_1 under
        the cell's size config is known from SIB 1, so each candidate is
        decoded without an RNTI hypothesis and the CRC mask yields the
        TC-RNTI (paper section 3.1.2).

        Each level's occupied candidates ride one batched gather, demod
        and polar decode; the RNTI recovery then runs per row in
        candidate order, so the result equals the per-candidate
        ``decode_candidate_bits`` search.
        """
        decoded: list[DecodedDci] = []
        coreset = common_space.coreset
        k = dci_payload_size(DciFormat.DL_1_1, self.dci_cfg) + DCI_CRC_LEN
        threshold = occupancy_threshold(self.noise_var)
        c_init = pdcch_scrambling_init(self.n_id)
        for level, count in common_space.candidates_per_level.items():
            n_coded = level * BITS_PER_CCE
            if count == 0 or k > n_coded:
                continue
            starts = np.array(common_space.candidate_cces(level, slot_index),
                              dtype=np.intp)
            values = gather_candidates_batch(grid, coreset, level, starts)
            values = values[candidate_energies_batch(values) > threshold]
            if values.shape[0] == 0:
                continue
            llrs = descramble_llrs(demodulate_soft_batch(
                values, QPSK, max(self.noise_var, 1e-12)), c_init)
            blocks = polar.decode_batch(llrs, polar.construct(k, n_coded))
            for bits in blocks:
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
        """Picklable snapshot (the lock is rebuilt on restore)."""
        return {"dci_cfg": self.dci_cfg, "n_id": self.n_id,
                "noise_var": self.noise_var,
                "use_energy_gate": self.use_energy_gate,
                "use_cce_claiming": self.use_cce_claiming,
                "equalize": self.equalize, "attempts": self.attempts}

    @classmethod
    def from_state(cls, state: dict) -> "GridDciDecoder":
        """Rebuild a decoder mid-stream from :meth:`checkpoint_state`."""
        decoder = cls(dci_cfg=state["dci_cfg"], n_id=state["n_id"],
                      noise_var=state["noise_var"],
                      use_energy_gate=state["use_energy_gate"],
                      use_cce_claiming=state["use_cce_claiming"],
                      equalize=state["equalize"])
        decoder.attempts = state["attempts"]
        return decoder


# ---------------------------------------------------- process-pool jobs
# Module-level so spawned ProcessExecutor workers can unpickle them.
# Each job rebuilds its decoder from plain config (the module-level
# kernel caches stay warm per worker process) and ships the counters
# back for the parent to merge — worker-side decoder state is discarded.

def pack_grid_for_decode(grid: ResourceGrid,
                         tracked: Mapping[int, SearchSpace]) -> dict:
    """Slim picklable snapshot of the grid's PDCCH control region.

    The decode job only ever reads CORESET resource elements, and every
    tracked CORESET sits in the slot's first few symbols — so the
    payload ships just those columns (2 of 14 symbols for the lab
    cells) instead of the whole carrier grid.  The worker rebuilds a
    full-size grid with zeros elsewhere; those REs are never read, so
    the decode stays byte-identical.
    """
    n_symbols = 0
    for space in tracked.values():
        coreset = space.coreset
        n_symbols = max(n_symbols,
                        coreset.first_symbol + coreset.n_symbols)
    n_symbols = min(grid.data.shape[1], n_symbols)
    return {"n_prb": grid.n_prb, "n_control_symbols": n_symbols,
            "data": np.ascontiguousarray(grid.data[:, :n_symbols]),
            "occupancy": np.ascontiguousarray(
                grid.occupancy[:, :n_symbols])}


def unpack_grid_for_decode(packed: dict) -> ResourceGrid:
    """Worker-side inverse of :func:`pack_grid_for_decode`."""
    grid = ResourceGrid(n_prb=packed["n_prb"])
    n_symbols = packed["n_control_symbols"]
    grid.data[:, :n_symbols] = packed["data"]
    grid.occupancy[:, :n_symbols] = packed["occupancy"]
    return grid


@lru_cache(maxsize=8)
def _packed_spaces(items: tuple) -> bytes:
    """Pickle an ``(rnti, search_space)`` tuple once per tracked-table
    generation — the table only changes when a UE joins or leaves, so
    steady-state packs are one hash lookup (spaces are hashable)."""
    return pickle.dumps(dict(items), protocol=pickle.HIGHEST_PROTOCOL)


def pack_tracked_for_decode(tracked: Mapping[int, SearchSpace]) -> bytes:
    """Content-addressed search-space blob for the decode payload."""
    return _packed_spaces(tuple(sorted(tracked.items())))


#: Worker-side blob -> decode table cache, content-addressed by the
#: pickled bytes so a stale entry is impossible by construction.
_SPACES_CACHE: dict[bytes, dict[int, SearchSpace]] = {}


def _tracked_from_blob(blob: bytes) -> dict[int, SearchSpace]:
    cached = _SPACES_CACHE.get(blob)
    if cached is None:
        cached = pickle.loads(blob)
        while len(_SPACES_CACHE) >= 8:
            _SPACES_CACHE.pop(next(iter(_SPACES_CACHE)))
        _SPACES_CACHE[blob] = cached
    return cached


def grid_decode_job(payload: dict) -> tuple[list[DecodedDci], int]:
    """One slot's iq-fidelity decode, picklable for a worker process.

    Runs the same :meth:`GridDciDecoder.decode_slot_batch` call as the
    inline stage, so the decoded-DCI list matches it byte for byte.
    ``grid`` and ``tracked`` may arrive in their slim wire forms (see
    :func:`pack_grid_for_decode` / :func:`pack_tracked_for_decode`) or
    as the full in-process objects.
    """
    grid = payload["grid"]
    if not isinstance(grid, ResourceGrid):
        grid = unpack_grid_for_decode(grid)
    tracked = payload["tracked"]
    if isinstance(tracked, bytes):
        tracked = _tracked_from_blob(tracked)
    decoder = GridDciDecoder(
        dci_cfg=payload["dci_cfg"], n_id=payload["n_id"],
        noise_var=payload["noise_var"],
        use_energy_gate=payload["use_energy_gate"],
        use_cce_claiming=payload["use_cce_claiming"],
        equalize=payload["equalize"])
    decoded = decoder.decode_slot_batch(grid, payload["slot_index"],
                                        tracked)
    return decoded, decoder.attempts


def record_decode_job(payload: dict) \
        -> tuple[list[DecodedDci], int, int, list[tuple[int, int, int]]]:
    """One slot's message-fidelity decode, picklable for a worker.

    The decode decisions are counter-keyed on (seed, slot, rnti, CCE,
    level, direction), so a fresh decoder with the session seed draws
    the identical stream in any process.  ``payload["tracked"]`` is
    the slim ``frozenset`` of tracked RNTIs (membership is all the
    record decode needs — see :meth:`RecordDciDecoder.decode_slot`).

    When ``payload["collect_misses"]`` is set, the fourth element
    carries the per-miss ``(slot, rnti, level)`` log back over the wire
    so the parent emits the same ``dci.miss`` events an inline session
    would, in the same commit order.
    """
    decoder = RecordDciDecoder(sniffer_snr_db=payload["snr_db"],
                               seed=payload["seed"])
    miss_log: list[tuple[int, int, int]] = []
    decoded = decoder.decode_slot(
        payload["records"], payload["tracked"],
        miss_log if payload.get("collect_misses") else None)
    return decoded, decoder.attempts, decoder.misses, miss_log
