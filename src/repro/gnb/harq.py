"""gNB-side HARQ entities (TS 38.321 section 5.4.1/5.3.2).

Each UE gets up to 16 HARQ processes.  The protocol detail NR-Scope
exploits (paper section 3.2.2): when the gNB sends *new* data on a
process it toggles that process's new-data indicator (NDI); a
retransmission keeps the NDI and bumps the redundancy version.  A sniffer
tracking per-process NDIs therefore sees every retransmission.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import N_HARQ_PROCESSES


class HarqError(ValueError):
    """Raised for protocol violations (e.g. retransmitting an idle process)."""


#: Redundancy version sequence for successive retransmissions (38.214).
RV_SEQUENCE = (0, 2, 3, 1)


#: The geometry of a process that holds no block.
NO_GEOMETRY = (0, 0, 0)


@dataclass
class HarqProcess:
    """One stop-and-wait process.

    While active it holds its transport block as the gNB sent it: the
    payload (bytes, packets) a retransmission resends and a decode
    delivers, and the geometry (PRBs, TDRA row, data symbols) a
    retransmission repeats.
    """

    process_id: int
    ndi: int = 0
    active: bool = False
    tbs_bits: int = 0
    retx_count: int = 0
    payload_bytes: int = 0
    n_packets: int = 0
    geometry: tuple[int, int, int] = NO_GEOMETRY

    def __reduce__(self):
        # A gNB holds 32 processes per UE: pickle the values alone.
        return (HarqProcess, (self.process_id, self.ndi, self.active,
                              self.tbs_bits, self.retx_count,
                              self.payload_bytes, self.n_packets,
                              self.geometry))

    def start_new(self, tbs_bits: int) -> int:
        """Load new data; toggles and returns the NDI to signal."""
        if tbs_bits <= 0:
            raise HarqError(f"TBS must be positive: {tbs_bits}")
        self.ndi ^= 1
        self.active = True
        self.tbs_bits = tbs_bits
        self.retx_count = 0
        return self.ndi

    def hold(self, payload_bytes: int, n_packets: int,
             geometry: tuple[int, int, int]) -> None:
        """Keep the new block's payload and geometry until it is acked
        or dropped."""
        self.payload_bytes = payload_bytes
        self.n_packets = n_packets
        self.geometry = geometry

    def retransmit(self) -> tuple[int, int]:
        """Signal a retransmission; returns (ndi, rv)."""
        if not self.active:
            raise HarqError(
                f"process {self.process_id} has nothing to retransmit")
        self.retx_count += 1
        rv = RV_SEQUENCE[min(self.retx_count, len(RV_SEQUENCE) - 1)]
        return self.ndi, rv

    def ack(self) -> None:
        """The UE decoded the block (or it was dropped): the process
        frees up and lets go of the block."""
        self.active = False
        self.tbs_bits = 0
        self.payload_bytes = self.n_packets = 0
        self.geometry = NO_GEOMETRY


@dataclass
class HarqEntity:
    """All HARQ processes of one UE plus retransmission bookkeeping."""

    n_processes: int = N_HARQ_PROCESSES
    max_retx: int = 4
    processes: list[HarqProcess] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 1 <= self.n_processes <= N_HARQ_PROCESSES:
            raise HarqError(
                f"process count out of range: {self.n_processes}")
        if not self.processes:
            self.processes = [HarqProcess(i) for i in range(self.n_processes)]
        self.total_transmissions = 0
        self.total_retransmissions = 0
        self.dropped_blocks = 0

    def free_process(self, exclude: set[int] | None = None) \
            -> HarqProcess | None:
        """An idle process, or None when all await feedback.

        ``exclude`` holds process ids already used this TTI: feedback
        takes several slots on the air, so a process cannot carry two
        transport blocks in one slot even if the simulator's feedback
        model has already freed it.
        """
        for process in self.processes:
            if process.active:
                continue
            if exclude and process.process_id in exclude:
                continue
            return process
        return None

    def pending_retransmissions(self) -> list[HarqProcess]:
        """Processes holding NACKed data, oldest failures first."""
        return [p for p in self.processes if p.active and p.retx_count > 0]

    def transmit_new(self, tbs_bits: int,
                     exclude: set[int] | None = None) \
            -> tuple[int, int, int] | None:
        """Schedule new data; returns (harq_id, ndi, rv) or None if full."""
        process = self.free_process(exclude)
        if process is None:
            return None
        ndi = process.start_new(tbs_bits)
        self.total_transmissions += 1
        return process.process_id, ndi, 0

    def handle_feedback(self, harq_id: int, ack: bool) -> str:
        """Apply the UE's ACK/NACK; returns the action taken.

        Returns ``"acked"``, ``"retransmit"`` (data stays pending) or
        ``"dropped"`` (max retransmissions exhausted).
        """
        process = self._process(harq_id)
        if ack:
            process.ack()
            return "acked"
        if process.retx_count >= self.max_retx:
            process.ack()
            self.dropped_blocks += 1
            return "dropped"
        return "retransmit"

    def transmit_retx(self, harq_id: int) -> tuple[int, int, int]:
        """Emit the retransmission for a NACKed process."""
        process = self._process(harq_id)
        ndi, rv = process.retransmit()
        self.total_transmissions += 1
        self.total_retransmissions += 1
        return process.process_id, ndi, rv

    def _process(self, harq_id: int) -> HarqProcess:
        if not 0 <= harq_id < len(self.processes):
            raise HarqError(f"HARQ id out of range: {harq_id}")
        return self.processes[harq_id]

    @property
    def retransmission_ratio(self) -> float:
        """Fraction of transmissions that were retransmissions (Fig 15)."""
        if self.total_transmissions == 0:
            return 0.0
        return self.total_retransmissions / self.total_transmissions
