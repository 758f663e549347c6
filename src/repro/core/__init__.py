"""NR-Scope itself: cell search, RACH sniffing, DCI decoding, telemetry."""

from repro.core.cell_search import CellKnowledge, CellSearcher
from repro.core.dci_decoder import DecodedDci, GridDciDecoder, \
    RecordDciDecoder
from repro.core.decode_model import decode_succeeds, pdcch_bler, uci_bler
from repro.core.feedback import FeedbackMessage, FeedbackService
from repro.core.fingerprint import FingerprintLibrary, RanFingerprint, \
    anomaly_score, classify_scheduler, fingerprint_session
from repro.core.harq_tracker import HarqTrackerBank, UeHarqTracker
from repro.core.multicell import CellStream, FusedStream, HandoverEvent, \
    MultiCellController, correlate_streams, detect_handovers
from repro.core.rach_sniffer import RachSniffer, TrackedUe
from repro.core.runtime import RuntimeStats, SlotContext, SlotRuntime, \
    Stage, StageStats
from repro.core.scope import NRScope, ScopeCounters
from repro.core.spare_capacity import SpareCapacityEstimator, TtiUsage
from repro.core.telemetry import TelemetryLog, TelemetryRecord
from repro.core.uci_telemetry import UciObservation, UciTelemetry

__all__ = [
    "CellKnowledge", "CellSearcher", "CellStream", "DecodedDci",
    "FeedbackMessage", "FeedbackService",
    "FingerprintLibrary", "FusedStream", "GridDciDecoder",
    "HandoverEvent", "HarqTrackerBank",
    "MultiCellController", "NRScope",
    "RachSniffer", "RecordDciDecoder",
    "RuntimeStats", "ScopeCounters",
    "SlotContext", "SlotRuntime", "SpareCapacityEstimator",
    "Stage", "StageStats", "TelemetryLog",
    "TelemetryRecord",
    "TrackedUe", "TtiUsage",
    "RanFingerprint", "UciObservation", "UciTelemetry", "UeHarqTracker",
    "anomaly_score", "classify_scheduler",
    "correlate_streams", "decode_succeeds", "detect_handovers",
    "fingerprint_session", "pdcch_bler", "uci_bler",
]
