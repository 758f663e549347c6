"""RACH sniffing: C-RNTI and per-UE parameter discovery (section 3.1.2).

The sniffer watches the common search space for MSG 4 DCIs.  A decoded
MSG 4 yields, via the CRC XOR trick, the TC-RNTI about to become the
UE's C-RNTI, plus (from the scheduled PDSCH) the RRC Setup body with the
UE-dedicated configuration.  Two paper behaviours are modelled exactly:

* *RRC Setup caching*: decoding the Setup PDSCH costs 1-2 ms, so after
  the first UE the sniffer skips it and reuses the cached configuration
  ("the RRC Setup is identical among UEs").
* *Missed RACH = lost UE*: each UE gets exactly one MSG 4; if its decode
  fails, that RNTI can never be tracked in this session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, ItemsView, Iterator, Mapping, \
    ValuesView

from repro.phy.coreset import Coreset, SearchSpace
from repro.phy.grant import GrantConfig
from repro.rrc.messages import RrcSetup, SearchSpaceConfig


class RachSnifferError(ValueError):
    """Raised for inconsistent tracking operations."""


@dataclass
class TrackedUe:
    """Sniffer-side state for one discovered UE."""

    rnti: int
    first_seen_s: float
    grant_config: GrantConfig
    search_space: SearchSpace
    dci_format_dl: str = "1_1"
    last_seen_s: float = 0.0
    decoded_dcis: int = 0

    def touch(self, time_s: float) -> None:
        """Record activity for idle-pruning purposes."""
        self.last_seen_s = max(self.last_seen_s, time_s)


class SpaceSnapshot(Mapping[int, SearchSpace]):
    """Read-only ``rnti -> search space`` table: all the parallel DCI
    stage reads of the tracked UEs.

    It has no mutators, rejects item assignment, and its values are
    frozen :class:`SearchSpace` dataclasses, so the stage cannot write
    tracked state through it.  What it memoizes (the search order and
    the search layouts) is derived from the table alone.
    """

    __slots__ = ("_spaces", "rntis", "_order", "_layouts")

    def __init__(self, spaces: Mapping[int, SearchSpace]) -> None:
        self._spaces = dict(spaces)
        #: The tracked RNTIs, ascending.
        self.rntis = tuple(sorted(self._spaces))
        self._order: tuple | None = None
        self._layouts: dict[Hashable, Any] = {}

    def __getitem__(self, rnti: int) -> SearchSpace:
        return self._spaces[rnti]

    def __iter__(self) -> Iterator[int]:
        return iter(self._spaces)

    def __len__(self) -> int:
        return len(self._spaces)

    def __contains__(self, rnti: object) -> bool:
        return rnti in self._spaces

    def values(self) -> ValuesView[SearchSpace]:
        return self._spaces.values()

    def items(self) -> ItemsView[int, SearchSpace]:
        return self._spaces.items()

    def search_order(self) -> tuple[
            tuple[tuple[int, SearchSpace, int], ...], tuple[Coreset, ...]]:
        """``(rnti, space, coreset index)`` rows in ascending RNTI
        order, and the distinct CORESETs the indices point into.

        Equal CORESETs share one index, so a per-slot search keys its
        candidate positions by small ints instead of comparing frozen
        dataclasses.  Built once per snapshot.
        """
        if self._order is None:
            interned: dict[Coreset, int] = {}
            rows = tuple(
                (rnti, space,
                 interned.setdefault(space.coreset, len(interned)))
                for rnti, space in sorted(self._spaces.items()))
            self._order = (rows, tuple(interned))
        return self._order

    def layout(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, memoized on the snapshot under ``key``.

        A searcher keeps its per-slot search layouts here (keyed on the
        slot within its frame, among others), so they live exactly as
        long as the tracked table they were built from.
        """
        if key not in self._layouts:
            self._layouts[key] = build()
        return self._layouts[key]


def search_space_from_config(config: SearchSpaceConfig) -> SearchSpace:
    """Materialise the PHY search space from the MSG 4 RRC element."""
    coreset = Coreset(coreset_id=config.coreset_id,
                      first_prb=config.coreset_first_prb,
                      n_prb=config.coreset_n_prb,
                      n_symbols=config.coreset_n_symbols,
                      first_symbol=config.coreset_first_symbol,
                      interleaved=config.interleaved)
    return SearchSpace(search_space_id=1, coreset=coreset, is_common=False,
                       candidates_per_level=config.candidates_per_level())


def grant_config_from_setup(setup: RrcSetup,
                            bwp_n_prb: int) -> GrantConfig:
    """The TBS-relevant parameters MSG 4 carries (paper Appendix A)."""
    return GrantConfig(bwp_n_prb=bwp_n_prb, mcs_table=setup.mcs_table,
                       n_layers=setup.max_mimo_layers,
                       n_dmrs_per_prb=setup.n_dmrs_res_per_prb,
                       xoverhead_res=setup.xoverhead_res)


@dataclass
class RachSniffer:
    """Tracks the UE table NR-Scope builds from sniffed MSG 4s."""

    bwp_n_prb: int
    tracked: dict[int, TrackedUe] = field(default_factory=dict)
    missed_rach_rntis: set[int] = field(default_factory=set)
    cached_setup: RrcSetup | None = None
    setup_pdsch_decodes: int = 0
    #: The table's current :meth:`space_snapshot`, dropped whenever the
    #: table changes (and from checkpoints: it is derived state).
    _snapshot: SpaceSnapshot | None = field(
        default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_snapshot"] = None
        return state

    def discover(self, rnti: int, time_s: float,
                 setup: RrcSetup | None) -> TrackedUe:
        """Register a UE whose MSG 4 DCI was decoded.

        ``setup`` is the RRC Setup body when the sniffer decoded the
        PDSCH; None means "reuse the cache" (the paper's skip
        optimisation).  The very first UE must carry a setup.
        """
        if rnti in self.tracked:
            raise RachSnifferError(f"RNTI 0x{rnti:04x} already tracked")
        if setup is not None:
            self.cached_setup = setup
            self.setup_pdsch_decodes += 1
        if self.cached_setup is None:
            raise RachSnifferError(
                "first MSG 4 must include a decoded RRC Setup")
        config = self.cached_setup
        ue = TrackedUe(
            rnti=rnti, first_seen_s=time_s, last_seen_s=time_s,
            grant_config=grant_config_from_setup(config, self.bwp_n_prb),
            search_space=search_space_from_config(config.search_space),
            dci_format_dl=config.dci_format_dl)
        self.tracked[rnti] = ue
        self._snapshot = None
        return ue

    def miss(self, rnti: int) -> None:
        """Record a missed MSG 4: this UE is untrackable this session."""
        if rnti not in self.tracked:
            self.missed_rach_rntis.add(rnti)

    def space_snapshot(self) -> SpaceSnapshot:
        """Read-only :class:`SpaceSnapshot` copy of the tracked table.

        Later changes to the table do not show in it.  It is rebuilt
        only when the table changes, so steady-state slots share one
        snapshot.
        """
        if self._snapshot is None:
            self._snapshot = SpaceSnapshot(
                {rnti: ue.search_space for rnti, ue in self.tracked.items()})
        return self._snapshot

    def is_tracked(self, rnti: int) -> bool:
        """True when DCIs for this RNTI can be decoded."""
        return rnti in self.tracked

    def release(self, rnti: int) -> None:
        """Forget a UE (departed or RNTI reused)."""
        self.tracked.pop(rnti, None)
        self._snapshot = None

    def prune_idle(self, now_s: float, idle_timeout_s: float) -> list[int]:
        """Drop UEs silent for longer than the timeout; returns RNTIs.

        RNTIs are 16-bit and reused by the cell, so a sniffer must age
        entries out or a recycled RNTI would inherit a stale config.
        """
        if idle_timeout_s <= 0:
            raise RachSnifferError("idle timeout must be positive")
        stale = [rnti for rnti, ue in self.tracked.items()
                 if now_s - ue.last_seen_s > idle_timeout_s]
        for rnti in stale:
            del self.tracked[rnti]
        if stale:
            self._snapshot = None
        return stale
