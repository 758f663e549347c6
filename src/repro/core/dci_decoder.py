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
runs a window of gathered slots as one array program
(:class:`WindowSearch`), and :func:`record_decode_job` runs one slot
from its payload alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.constants import DCI_CRC_LEN, MAX_RNTI
from repro.core.decode_model import counter_fold, counter_uniform_at, \
    decode_succeeds, pdcch_bler
from repro.core.rach_sniffer import SpaceSnapshot
from repro.phy import pdcch, polar
from repro.phy.coreset import Coreset, SearchSpace
from repro.phy.dci import Dci, DciError, DciFormat, DciSizeConfig, \
    dci_payload_size, unpack, unpack_rows
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
def _ue_entry_plan(space: SearchSpace, rnti: int, slot_in_frame: int) \
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
        for start in space.candidate_cces(level, slot_in_frame, rnti):
            plan.append((level, start, start + level <= n_cce,
                         ((1 << level) - 1) << start))
    return tuple(plan)


#: The UE-space formats the search tries, in attempt order; the
#: search's per-format tables are indexed by position in this tuple.
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
    only on the tracked spaces, the slot within its frame and the cell
    ID.

    It is the same for every slot at that offset into the frame, so
    :meth:`GridDciDecoder.gather` keeps it on the :class:`SpaceSnapshot`
    and builds it once per snapshot and slot of the frame.  Its arrays
    are shared and read-only.
    """

    #: ``(rnti, level, start, cce_bits)`` in per-candidate order;
    #: ``cce_bits`` is the entry's CCE footprint as an int bitmask, so
    #: the replay's claim checks are single AND operations.
    entries: tuple[tuple[int, int, int, int], ...]
    #: Each entry's row of :attr:`candidates` (-1 when the candidate
    #: does not fit its CORESET).  Entries at one position share a row.
    entry_row: np.ndarray
    #: The positions the search can reach, one group per (CORESET,
    #: level), and each row's ``(coreset, level, first CCE)``.
    candidates: CandidateLayout
    positions: tuple[tuple[Coreset, int, int], ...]

    @classmethod
    def build(cls, tracked: SpaceSnapshot, slot_in_frame: int,
              n_id: int) -> "SearchLayout":
        """The layout of one slot.

        Phase 1 enumerates entries in exact per-candidate order and
        maps each valid one onto its shared position, keyed by the
        snapshot's interned CORESET index.  Phase 2 groups the
        positions per (CORESET, level), one row each.
        """
        order, coresets = tracked.search_order()
        groups: dict[tuple[int, int], dict[int, int]] = {}
        entries: list[tuple[int, int, int, int]] = []
        places: list[tuple[tuple[int, int], int] | None] = []
        for rnti, space, coreset_index in order:
            for level, start, valid, cce_bits in _ue_entry_plan(
                    space, rnti, slot_in_frame):
                entries.append((rnti, level, start, cce_bits))
                if valid:
                    starts = groups.setdefault((coreset_index, level), {})
                    places.append(((coreset_index, level),
                                   starts.setdefault(start, len(starts))))
                else:
                    places.append(None)
        first_rows: dict[tuple[int, int], int] = {}
        n_rows = 0
        for key, starts in groups.items():
            first_rows[key] = n_rows
            n_rows += len(starts)
        entry_row = np.array([first_rows[place[0]] + place[1]
                              if place else -1 for place in places],
                             dtype=np.intp)
        return cls(
            entries=tuple(entries), entry_row=read_only(entry_row),
            candidates=CandidateLayout.build(
                [(coresets[coreset_index], level, list(starts))
                 for (coreset_index, level), starts in groups.items()],
                pdcch_scrambling_init(n_id)),
            positions=tuple((coresets[coreset_index], level, start)
                            for (coreset_index, level), starts
                            in groups.items() for start in starts))


@dataclass(frozen=True, eq=False)
class WindowLayout:
    """The :class:`SearchLayout` of every slot of a window, as one.

    :attr:`candidates` stacks the slots' rows one group per level
    (:meth:`~repro.phy.pdcch.CandidateLayout.stack`), so the window's
    gate reduces once per level and each level is one polar block.
    The entries are the slots' entries back to back, slot by slot, with
    their rows renumbered into the stack.  It depends only on the
    slots' layouts and the size config, so :func:`_window_layout` keeps
    it on the snapshot when the slots share one.  Its arrays are shared
    and read-only.
    """

    slots: tuple[SearchLayout, ...]
    candidates: CandidateLayout
    #: Each stacked row's index among the slots' rows, back to back.
    rows: np.ndarray
    #: Per group, the indices into :data:`_FORMATS` whose payload fits
    #: its level and their polar codes.
    group_codes: tuple[tuple[tuple[int, ...],
                             tuple[polar.PolarCode, ...]], ...]
    #: Per format, whether each row decodes under it; and whether each
    #: row decodes under some format.
    format_rows: tuple[np.ndarray, ...]
    row_fits: np.ndarray
    #: Per entry: its stacked row (-1 for none), its masked RNTI, its
    #: first and end CCE and its slot.
    entry_row: np.ndarray
    entry_masked: np.ndarray
    entry_start: np.ndarray
    entry_end: np.ndarray
    entry_slot: np.ndarray
    #: Each slot's first entry, and the entry count last.
    entry_bounds: tuple[int, ...]
    #: Per slot, its entries with no row.
    unplaced: tuple[int, ...]

    @classmethod
    def build(cls, slots: Sequence[SearchLayout],
              dci_cfg: DciSizeConfig) -> "WindowLayout":
        candidates, rows = CandidateLayout.stack(
            [slot.candidates for slot in slots])
        # Each slot row's stacked row, then -1 for "no row".
        stacked = np.empty(rows.size + 1, dtype=np.intp)
        stacked[rows] = np.arange(rows.size, dtype=np.intp)
        stacked[-1] = -1
        info_lens = _info_lens(dci_cfg)
        group_codes = []
        for level in candidates.levels:
            n_coded = level * BITS_PER_CCE
            fits = tuple(f for f, k in enumerate(info_lens) if k <= n_coded)
            group_codes.append((fits, tuple(
                polar.construct(info_lens[f], n_coded) for f in fits)))
        sizes = np.diff(np.array(candidates.row_bounds, dtype=np.intp))
        format_rows = tuple(read_only(np.repeat(
            np.array([f in fits for fits, _ in group_codes], dtype=bool),
            sizes)) for f in range(len(_FORMATS)))
        entry_rows, bounds, unplaced = [], [0], []
        first_row = 0
        for slot in slots:
            row = slot.entry_row
            entry_rows.append(stacked[np.where(row >= 0, row + first_row,
                                               -1)])
            bounds.append(bounds[-1] + row.size)
            unplaced.append(int(np.count_nonzero(row < 0)))
            first_row += slot.candidates.n_rows
        entries = [entry for slot in slots for entry in slot.entries]
        start = np.array([entry[2] for entry in entries], dtype=np.int64)
        return cls(
            slots=tuple(slots), candidates=candidates, rows=rows,
            group_codes=tuple(group_codes), format_rows=format_rows,
            row_fits=read_only(np.logical_or.reduce(format_rows)),
            entry_row=read_only(np.concatenate(
                entry_rows or [np.zeros(0, dtype=np.intp)])),
            entry_masked=read_only(np.array(
                [entry[0] for entry in entries], dtype=np.int64)
                & MAX_RNTI),
            entry_start=read_only(start),
            entry_end=read_only(start + np.array(
                [entry[1] for entry in entries], dtype=np.int64)),
            entry_slot=read_only(np.repeat(
                np.arange(len(slots), dtype=np.intp),
                np.diff(np.array(bounds, dtype=np.intp)))),
            entry_bounds=tuple(bounds), unplaced=tuple(unplaced))


@dataclass(eq=False)
class SlotGather:
    """One slot's share of the UE-space search, the payload
    :meth:`GridDciDecoder.gather` packs: the slot's gathered candidate
    REs, its :class:`SearchLayout` and the snapshot it came from, the
    CCEs claimed up front and, with ``equalize``, each row's channel
    gain (its estimate needs the grid).  It holds no grid and no
    decoder, only arrays, the read-only layout and the decoder's
    settings, so a window of them can be decoded late without reaching
    the session.
    """

    layout: SearchLayout
    tracked: SpaceSnapshot
    values: np.ndarray
    claimed_bits: int
    gains: np.ndarray | None
    dci_cfg: DciSizeConfig
    noise_var: float
    use_energy_gate: bool
    use_cce_claiming: bool


def _window_layout(window: Sequence[SlotGather]) -> WindowLayout:
    """The window's :class:`WindowLayout`, kept on the snapshot when
    every slot shares one (keyed by the slots' layouts, so by each
    slot's place in the frame).  A window whose snapshot changes (a UE
    joined mid-window) builds one of its own."""
    first = window[0]
    layouts = tuple(slot.layout for slot in window)
    if any(slot.tracked is not first.tracked for slot in window):
        return WindowLayout.build(layouts, first.dci_cfg)
    return first.tracked.layout(
        ("window", layouts, first.dci_cfg),
        lambda: WindowLayout.build(layouts, first.dci_cfg))


#: Estimated set-up and check costs of a window in ns, in the units of
#: :data:`~repro.phy.polar.OP_DISPATCH_NS`, from their element counts.
#: The set-up (gate, demod, descramble, the traversal's construction)
#: costs a fixed part plus a part per LLR the traversal loads (a tree's
#: worth per replica row); the check (syndromes, lookups, unpack, the
#: bulk count) a fixed part plus a part per entry.  Least-squares fits
#: to 24 windows cut from captured srsRAN ``iq-session`` slots (1, 2, 4
#: and 7 slots; median of 30 runs each, each part timed against the
#: same run's traversal and scaled to its estimated op cost, shared
#: 2-CPU host), within about 10% on the 7-slot windows; then scaled to
#: the windows of ``iq-session`` runs, where cold caches slow the
#: set-up and the check more than the traversal's middle slices: by
#: 1.24 (set-up) and 1.2 (check's fixed part), their median ratios
#: to those estimates over a run's 120 windows.
_SETUP_NS = 170_000.0
_SETUP_NS_PER_LLR = 9.7
_CHECK_NS = 125_000.0
_CHECK_NS_PER_ENTRY = 270.0


class WindowSearch:
    """The UE-space search of a window of :class:`SlotGather`: one
    array program from the slots' gathered REs to each slot's DCIs.

    Its three parts run in order.  Construction is the front end: one
    gate reduction per level over the window's stacked rows, one demod
    of every row that passes, one descramble per code tuple, and one
    :class:`~repro.phy.polar.Traversal` of the blocks.  The caller runs
    the traversal, then :meth:`check`, the back end: one syndrome
    lookup over every live entry, one unpack per format of the rows
    whose CRC passed, and one bulk count of each slot's misses.
    :meth:`finish` is each slot's own replay over its CRC hits.

    PDCCH scrambling is seeded from the cell ID alone
    (``pdcch_scrambling_init(n_id)``, ``n_rnti = 0``), so a candidate's
    LLRs and polar output depend only on its *position* (CORESET,
    level, first CCE), never on which UE's search space hashed onto
    it: each distinct position of a slot is decoded once, and every
    tracked UE's entry reads its row.  A row's bits and syndrome do not
    depend on the rows it shares the window with, so each slot's result
    is that of a window of that slot alone.
    """

    def __init__(self, window: Sequence[SlotGather]) -> None:
        first = window[0]
        self.window = window
        self.layout = layout = _window_layout(window)
        candidates = layout.candidates
        self._occupied = np.zeros(candidates.n_rows + 1, dtype=bool)
        self._keep = layout.row_fits
        self._codes: list[tuple[int, ...]] = []
        blocks: list[tuple[np.ndarray, tuple[polar.PolarCode, ...]]] = []
        values = candidates.take(np.concatenate(
            [slot.values for slot in window]))
        if first.use_energy_gate:
            self._occupied[:-1] = candidates.energies(values) \
                > occupancy_threshold(first.noise_var)
            self._keep = self._keep & self._occupied[:-1]
        if self._keep.any():
            symbols = candidates.select(values, self._keep)
            if first.gains is not None:
                gains = np.concatenate([slot.gains for slot in window])[
                    layout.rows][self._keep]
                widths = candidates.row_widths[self._keep]
                # Demodulating at unit noise then dividing per
                # candidate is the per-candidate (d1-d0)/noise_var to
                # the last bit: x/1.0 is exact, so each LLR still sees
                # one division by its effective noise variance.
                nv_eff = np.maximum(
                    first.noise_var
                    / np.maximum(np.abs(gains) ** 2, 1e-9), 1e-12)
                llrs = demodulate_soft_batch(
                    (symbols / np.repeat(gains, widths))[None, :], QPSK,
                    1.0)[0]
                llrs = llrs / np.repeat(nv_eff,
                                        QPSK.bits_per_symbol * widths)
            else:
                llrs = demodulate_soft_batch(
                    symbols[None, :], QPSK, max(first.noise_var, 1e-12))[0]
            for (fits, codes), block in zip(
                    layout.group_codes, candidates.split(llrs, self._keep)):
                if block.shape[0]:
                    blocks.append((block, codes))
                    self._codes.append(fits)
        self.traversal = Traversal(blocks)
        #: Estimated ns of the set-up and of the check.
        self.setup_cost = _SETUP_NS \
            + _SETUP_NS_PER_LLR * self.traversal.n_llrs
        self.check_cost = _CHECK_NS \
            + _CHECK_NS_PER_ENTRY * layout.entry_row.size
        self._hits: list[list[tuple[int, int, tuple]]] = []
        self._misses: list[int] = []
        self._covers: list[int] = []

    def slice_ends(self) -> list[int]:
        """Where each of ``len(window)`` slices of the shared work ends,
        as a count of traversal ops, cutting the window's estimated cost
        into equal slices: slice ``k`` ends at ``k / n`` of it.  The
        set-up is in the first slice and the check in the last; when
        the set-up alone is more than a slice, the slices after it
        share the rest equally."""
        traversal = self.traversal
        n = len(self.window)
        total = self.setup_cost + traversal.cost + self.check_cost
        ends: list[int] = []
        done = 0.0
        for k in range(n - 1):
            ends.append(traversal.ops_within(
                done + (total - done) / (n - k) - self.setup_cost))
            done = self.setup_cost + traversal.cost_of(ends[-1])
        return ends + [traversal.n_ops]

    def check(self) -> None:
        """Phase 4, for the whole window once the traversal has run:
        the CRC verdict of every live entry, the field values of every
        CRC-passing row, and each slot's CRC hits and bulk misses.

        An entry's CRC passes under a format exactly when its row's
        syndrome (:func:`~repro.phy.pdcch.dci_crc_syndromes`) is the
        entry's masked RNTI; a row that was not decoded reads ``-1``,
        which no masked RNTI equals.
        """
        layout = self.layout
        n_slots = len(self.window)
        outs = self.traversal.result()
        entry_row = layout.entry_row
        passed: list[np.ndarray] = []
        decoded: list[tuple[np.ndarray, np.ndarray]] = []
        for f, info_len in enumerate(_info_lens(self.window[0].dci_cfg)):
            mats = [out[fits.index(f)]
                    for fits, out in zip(self._codes, outs) if f in fits]
            bits = np.concatenate(mats) if mats \
                else np.zeros((0, info_len), dtype=np.uint8)
            rows = np.flatnonzero(self._keep & layout.format_rows[f])
            syndromes = np.full(self._occupied.size, -1, dtype=np.int64)
            syndromes[rows] = dci_crc_syndromes(bits)
            passed.append(syndromes[entry_row] == layout.entry_masked)
            decoded.append((rows, bits))
        hit = passed[0] | passed[1]

        # The replay reaches an entry only when it has a row and, with
        # the gate on, that row passed the gate.  Every such entry no
        # CRC passed is a miss: two attempts, unless a claim covers one
        # of its CCEs (counted off in ``finish``).  Without the gate an
        # entry with no row costs two attempts and nothing else.
        first = self.window[0]
        live = self._occupied[entry_row] if first.use_energy_gate \
            else entry_row >= 0
        miss = live & ~hit
        claiming = first.use_cce_claiming
        if claiming:
            for k, slot in enumerate(self.window):
                if slot.claimed_bits:
                    lo, hi = layout.entry_bounds[k:k + 2]
                    miss[lo:hi] &= ~np.array(
                        [bool(entry[3] & slot.claimed_bits)
                         for entry in layout.slots[k].entries],
                        dtype=bool)
        counts = np.bincount(layout.entry_slot, weights=miss,
                             minlength=n_slots)
        self._misses = [2 * int(count) + (
            0 if first.use_energy_gate else 2 * unplaced)
            for count, unplaced in zip(counts.tolist(), layout.unplaced)]

        # Field values of the CRC-passing rows, one unpack per format.
        hits = np.flatnonzero(hit)
        fields: list[list[dict[str, int] | None]] = [
            [None] * hits.size for _ in _FORMATS]
        for f, (fmt, (rows, bits)) in enumerate(zip(_FORMATS, decoded)):
            at = np.flatnonzero(passed[f][hits])
            if at.size:
                picked = np.searchsorted(rows, entry_row[hits[at]])
                for i, values in zip(at.tolist(), unpack_rows(
                        bits[picked, :-DCI_CRC_LEN], fmt,
                        first.dci_cfg)):
                    fields[f][i] = values
        self._hits = [[] for _ in range(n_slots)]
        for i, (entry, k) in enumerate(zip(
                hits.tolist(), layout.entry_slot[hits].tolist())):
            self._hits[k].append((i, entry, tuple(per[i] for per in fields)))

        # Which misses each hit would block by claiming, as a bitmask
        # over the window's misses: the later misses of its slot whose
        # CCEs overlap its own.
        misses = np.flatnonzero(miss)
        self._covers = [0] * hits.size
        if claiming and hits.size and misses.size:
            start, end = layout.entry_start, layout.entry_end
            slot_of = layout.entry_slot
            covers = (hits[:, None] < misses) \
                & (slot_of[hits][:, None] == slot_of[misses]) \
                & (start[hits][:, None] < end[misses]) \
                & (start[misses] < end[hits][:, None])
            self._covers = [int.from_bytes(row, "little") for row in
                            np.packbits(covers, axis=1,
                                        bitorder="little").tolist()]

    def finish(self, k: int, claimed: set[int] | None = None) \
            -> tuple[list[DecodedDci], int]:
        """Phase 5 for slot ``k`` once :meth:`check` has run: its
        decoded DCIs and decode attempts.

        The per-candidate control flow (CCE claiming, per-format
        attempt accounting, the format-identifier check of ``unpack``)
        is *replayed* over the slot's CRC hits in entry order, and
        every other live entry counts in bulk, so decoded DCIs,
        claiming effects and the attempt count are bit-identical to the
        per-candidate reference in
        ``tests/core/test_batch_equivalence.py``.  Claims change only
        at a decode, so the bulk count is exact once the misses a claim
        covers are taken off.  The CCEs the slot's decodes claim are
        added to ``claimed`` when given.
        """
        slot = self.window[k]
        entries = slot.layout.entries
        first_entry = self.layout.entry_bounds[k]
        claiming = slot.use_cce_claiming
        claimed_bits = slot.claimed_bits
        covered = 0
        attempts = self._misses[k]
        decoded: list[DecodedDci] = []
        for i, entry, fields in self._hits[k]:
            rnti, level, start, cce_bits = entries[entry - first_entry]
            if claiming and cce_bits & claimed_bits:
                continue
            for fmt, values in zip(_FORMATS, fields):
                attempts += 1
                if values is None:
                    continue
                decoded.append(DecodedDci(
                    dci=Dci(format=fmt, rnti=rnti, **values),
                    aggregation_level=level))
                if claiming:
                    claimed_bits |= cce_bits
                    covered |= self._covers[i]
                    if claimed is not None:
                        claimed.update(range(start, start + level))
                break
        return decoded, attempts - 2 * covered.bit_count()


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
        for a window of one slot: :meth:`gather`, then a
        :class:`WindowSearch` run to the end.

        ``claimed`` optionally pre-claims CCEs; the CCEs this slot's
        decodes claim are added to it.
        """
        search = WindowSearch([self.gather(grid, slot_index, tracked,
                                           claimed)])
        search.traversal.step(search.traversal.n_ops)
        search.check()
        decoded, attempts = search.finish(0, claimed)
        self.attempts += attempts
        return decoded

    def gather(self, grid: ResourceGrid, slot_index: int,
               tracked: Mapping[int, SearchSpace],
               claimed: set[int] | None = None) -> SlotGather:
        """The slot's own part of the search: its :class:`SearchLayout`
        and one gather of every candidate position it reaches.

        The layout is built once per snapshot and slot of the frame.
        CCEs claimed up front do not change it: the replay skips their
        entries before counting an attempt, as the per-candidate search
        does.  With ``equalize`` each position's DMRS channel estimate
        is taken here too, since it reads the grid.
        """
        if not isinstance(tracked, SpaceSnapshot):
            tracked = SpaceSnapshot(tracked)
        claimed_bits = 0
        for cce in claimed or ():
            claimed_bits |= 1 << cce
        slot_in_frame = slot_index % slots_per_frame(self.scs_khz)
        layout = tracked.layout(
            (slot_in_frame, self.n_id),
            lambda: SearchLayout.build(tracked, slot_in_frame, self.n_id))
        gains = None
        if self.equalize:
            gains = np.array(
                [estimate_channel(grid, coreset,
                                  PdcchCandidate(first_cce=start,
                                                 aggregation_level=level),
                                  self.n_id, slot_index, self.scs_khz)
                 for coreset, level, start in layout.positions],
                dtype=np.complex128)
        return SlotGather(
            layout=layout, tracked=tracked,
            values=layout.candidates.gather(grid),
            claimed_bits=claimed_bits, gains=gains, dci_cfg=self.dci_cfg,
            noise_var=self.noise_var,
            use_energy_gate=self.use_energy_gate,
            use_cce_claiming=self.use_cce_claiming)

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
        for level, code, block in zip(layout.levels, codes,
                                      layout.split(llrs, keep)):
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

def grid_decode_job(window: list[SlotGather]) \
        -> Iterator[tuple[list[DecodedDci], int] | None]:
    """A window of slots' iq-fidelity searches, from their
    :meth:`~GridDciDecoder.gather`, as one :class:`WindowSearch`.

    A window job (see :class:`~repro.core.runtime.SlotRuntime`): it
    yields ``None`` after each of ``len(window)`` slices of the shared
    work, cut at equal estimated cost
    (:meth:`WindowSearch.slice_ends`; the set-up runs in the first
    slice, the check in the last), then each slot's ``(decoded DCIs,
    attempts)`` in slot order, which equals its own
    :meth:`~GridDciDecoder.decode_slot_batch`.
    """
    search = WindowSearch(window)
    traversal = search.traversal
    ends = search.slice_ends()
    for k, end in enumerate(ends, 1):
        traversal.step(end - traversal.n_ops + traversal.remaining)
        if k == len(ends):
            search.check()
        yield None
    for k in range(len(window)):
        yield search.finish(k)


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
    # The (seed, slot) part of every key is folded once per slot.
    slot_index: int | None = None
    prefix = 0
    for record in payload["records"]:
        if record.search_space != "ue" or record.rnti not in tracked:
            continue
        attempts += 1
        if record.slot_index != slot_index:
            slot_index = record.slot_index
            prefix = counter_fold(0, seed, slot_index)
        candidate = record.candidate
        level = candidate.aggregation_level
        draw = counter_uniform_at(counter_fold(
            prefix, record.rnti, candidate.first_cce, level,
            record.dci.format is DciFormat.DL_1_1))
        if draw >= pdcch_bler(snr_db, level):
            decoded.append(DecodedDci(dci=record.dci,
                                      aggregation_level=level))
        else:
            misses += 1
            if collect_misses:
                miss_log.append((record.slot_index, record.rnti, level))
    return decoded, attempts, misses, miss_log
