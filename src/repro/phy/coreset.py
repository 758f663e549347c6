"""CORESETs, CCE-to-REG mapping and PDCCH search spaces.

(TS 38.211 section 7.3.2.2 and TS 38.213 section 10.1.)

A CORESET is the time-frequency region that carries PDCCH; a search space
tells a UE — and therefore a sniffer — which control channel element (CCE)
candidates may hold its DCI at each aggregation level.  NR-Scope learns
CORESET 0 from the MIB and each UE's dedicated CORESET/search space from
MSG 4 (paper section 3.1), after which it only has to check a handful of
candidate positions per slot instead of blind-searching the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.constants import AGGREGATION_LEVELS, N_REG_PER_CCE, \
    SUPPORTED_SCS_KHZ
from repro.phy.numerology import slots_per_frame


class CoresetError(ValueError):
    """Raised for inconsistent CORESET or search-space configuration."""


@dataclass(frozen=True)
class Coreset:
    """A control resource set: frequency span x 1-3 OFDM symbols."""

    coreset_id: int
    first_prb: int
    n_prb: int
    n_symbols: int = 1
    first_symbol: int = 0
    interleaved: bool = True
    reg_bundle_size: int = 6
    interleaver_size: int = 2
    shift_index: int = 0

    def __post_init__(self) -> None:
        if self.n_prb < N_REG_PER_CCE:
            raise CoresetError(
                f"CORESET narrower than one CCE: {self.n_prb} PRB")
        if not 1 <= self.n_symbols <= 3:
            raise CoresetError(
                f"CORESET duration must be 1-3 symbols: {self.n_symbols}")
        if not 0 <= self.first_symbol <= 3:
            raise CoresetError(
                f"CORESET must sit in the control region: first symbol"
                f" {self.first_symbol}")
        if self.n_regs % N_REG_PER_CCE:
            raise CoresetError(
                f"REG count {self.n_regs} not a multiple of {N_REG_PER_CCE}")
        if self.interleaved:
            bundles = self.n_regs // self.reg_bundle_size
            if bundles % self.interleaver_size:
                raise CoresetError(
                    "interleaver size must divide the REG bundle count")

    @property
    def n_regs(self) -> int:
        """Total resource element groups in the CORESET."""
        return self.n_prb * self.n_symbols

    @property
    def n_cces(self) -> int:
        """Control channel elements available per slot."""
        return self.n_regs // N_REG_PER_CCE

    def cce_to_regs(self, cce_index: int) -> list[int]:
        """REG indices (time-first numbering) composing one CCE.

        Non-interleaved mapping assigns consecutive REG bundles; the
        interleaved mapping applies the 38.211 block interleaver
        ``f(x) = (R * c + r + n_shift) mod (N_regs / L)`` over bundles.
        """
        if not 0 <= cce_index < self.n_cces:
            raise CoresetError(
                f"CCE {cce_index} out of range (0..{self.n_cces - 1})")
        bundle = self.reg_bundle_size
        bundles_per_cce = max(1, N_REG_PER_CCE // bundle)
        n_bundles = self.n_regs // bundle
        regs: list[int] = []
        for j in range(bundles_per_cce):
            x = cce_index * bundles_per_cce + j
            if self.interleaved:
                rows = self.interleaver_size
                cols = n_bundles // rows
                r, c = x % rows, x // rows
                mapped = (c + r * cols + self.shift_index) % n_bundles
            else:
                mapped = x
            regs.extend(range(mapped * bundle, (mapped + 1) * bundle))
        return regs

    def reg_to_position(self, reg_index: int) -> tuple[int, int]:
        """Map a REG index to ``(prb, symbol)`` within the carrier grid.

        REGs are numbered time-first (symbol varies fastest), per 38.211
        section 7.3.2.2.
        """
        if not 0 <= reg_index < self.n_regs:
            raise CoresetError(f"REG {reg_index} out of range")
        prb_offset, symbol = divmod(reg_index, self.n_symbols)
        return self.first_prb + prb_offset, self.first_symbol + symbol


@dataclass(frozen=True)
class SearchSpace:
    """A PDCCH search space: candidate counts per aggregation level."""

    search_space_id: int
    coreset: Coreset
    is_common: bool
    candidates_per_level: dict[int, int]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for level in self.candidates_per_level:
            if level not in AGGREGATION_LEVELS:
                raise CoresetError(f"invalid aggregation level {level}")
        # The candidate dict makes the generated hash unusable; a
        # precomputed one keyed on the *insertion-ordered* level table
        # lets decoders memoize per-space candidate plans.  Two spaces
        # that enumerate levels in different orders hash apart on
        # purpose: plan caches must never merge entries whose scalar
        # iteration order differs.
        object.__setattr__(self, "_hash", hash(
            (self.search_space_id, self.coreset, self.is_common,
             tuple(self.candidates_per_level.items()))))

    def __hash__(self) -> int:
        return self._hash

    def candidate_cces(self, level: int, slot_index: int,
                       rnti: int = 0) -> list[int]:
        """First-CCE indices of each candidate (38.213 section 10.1).

        Common search spaces hash from ``Y = 0``; UE-specific ones derive a
        per-slot ``Y`` from the C-RNTI so that different UEs' candidates
        spread across the CORESET.  The sniffer reruns this exact hash for
        every tracked RNTI to know where to attempt decodes.
        ``slot_index`` is the slot number within its frame,
        ``n^mu_{s,f}`` (the caller knows the cell's numerology).
        """
        if level not in AGGREGATION_LEVELS:
            raise CoresetError(f"invalid aggregation level {level}")
        n_candidates = self.candidates_per_level.get(level, 0)
        n_cce = self.coreset.n_cces
        if level > n_cce:
            return []
        y = 0 if self.is_common else _yp(rnti, self.coreset.coreset_id,
                                         slot_index)
        return list(_candidate_starts(level, n_candidates, n_cce, y))


@lru_cache(maxsize=65536)
def _candidate_starts(level: int, n_candidates: int, n_cce: int,
                      y: int) -> tuple[int, ...]:
    """The 38.213 candidate hash, memoized on its scalar inputs.

    The sniffer reruns the hash for every tracked RNTI every slot; the
    blind-decode loop calls this hundreds of times per slot at scale,
    so the pure arithmetic is cached (``Y`` already folds in the RNTI
    and slot, keeping the key small and the hit rate high).
    """
    starts = []
    for m in range(n_candidates):
        base = (y + (m * n_cce) // (level * max(n_candidates, 1))) \
            % (n_cce // level)
        starts.append(level * base)
    return tuple(starts)


# Coefficients A_p from 38.213 Table 10.1-1, selected by coreset_id mod 3.
_YP_COEFFICIENTS = (39827, 39829, 39839)
_YP_MODULUS = 65537


#: Slots in a frame at the widest supported subcarrier spacing: no
#: slot number within a frame reaches it.
_MAX_SLOTS_PER_FRAME = max(slots_per_frame(scs) for scs in SUPPORTED_SCS_KHZ)


def _yp(rnti: int, coreset_id: int, slot_in_frame: int) -> int:
    """Per-slot UE-specific search-space hash Y_{p,n} (38.213 10.1).

    The recursion depth follows the slot number within its frame,
    which the caller reduces with its own numerology.
    """
    if rnti <= 0:
        raise CoresetError("UE-specific search space needs a positive RNTI")
    if not 0 <= slot_in_frame < _MAX_SLOTS_PER_FRAME:
        raise CoresetError(
            f"slot {slot_in_frame} is not a slot number within a frame")
    return _yp_chain(rnti, coreset_id, slot_in_frame)


@lru_cache(maxsize=65536)
def _yp_chain(rnti: int, coreset_id: int, slot_in_frame: int) -> int:
    """The modular-multiplication chain of :func:`_yp`, memoized: the
    value only depends on the slot *within* its frame."""
    a_p = _YP_COEFFICIENTS[coreset_id % 3]
    y = rnti
    for _ in range(slot_in_frame + 1):
        y = (a_p * y) % _YP_MODULUS
    return y


def coreset0_for_bandwidth(n_prb_carrier: int) -> Coreset:
    """A CORESET 0 covering the initial BWP, as MIB-configured cells use.

    Mirrors the common 38.213 Table 13-* configurations: CORESET 0 spans
    24/48 PRBs over 1-2 symbols depending on carrier width.
    """
    if n_prb_carrier >= 48:
        return Coreset(coreset_id=0, first_prb=0, n_prb=48, n_symbols=1,
                       interleaved=True)
    if n_prb_carrier >= 24:
        return Coreset(coreset_id=0, first_prb=0, n_prb=24, n_symbols=2,
                       interleaved=True)
    raise CoresetError(
        f"carrier too narrow for CORESET 0: {n_prb_carrier} PRB")
