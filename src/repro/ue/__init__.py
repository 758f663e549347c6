"""Simulated user equipment: traffic, channels, mobility, populations."""

from repro.ue.channel import FadingChannel, PROFILES, \
    block_error_probability, cqi_to_efficiency, snr_to_cqi, \
    transport_block_survives
from repro.ue.mobility import BlockedUe, MobilityModel, MovingUe, StaticUe, \
    scenario
from repro.ue.population import ComeAndGoProcess, PopulationProfile, \
    Session, TMOBILE_CELL1_PROFILES, TMOBILE_CELL2_PROFILES, active_counts, \
    holding_time_ccdf
from repro.ue.table import UeTable
from repro.ue.traffic import BulkDownload, ConstantBitRate, OnOffTraffic, \
    PoissonPackets, TrafficBuffer, TrafficModel, VideoStream
from repro.ue.ue import PacketCapture, PacketRecord, UserEquipment

__all__ = [
    "BlockedUe", "BulkDownload", "ComeAndGoProcess", "ConstantBitRate",
    "FadingChannel", "MobilityModel", "MovingUe", "OnOffTraffic",
    "PROFILES", "PacketCapture", "PacketRecord", "PoissonPackets",
    "PopulationProfile", "Session", "StaticUe", "TMOBILE_CELL1_PROFILES",
    "TMOBILE_CELL2_PROFILES", "TrafficBuffer", "TrafficModel",
    "UeTable", "UserEquipment", "VideoStream", "active_counts",
    "block_error_probability", "cqi_to_efficiency", "holding_time_ccdf",
    "scenario", "snr_to_cqi", "transport_block_survives",
]
