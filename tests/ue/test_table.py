"""The gNB's UE table and the block-drawn streams against scalar oracles.

The oracles are the scalar per-UE code the columns replaced: one
``Generator.normal()`` pair, Python complex arithmetic and a linear CQI
scan per UE per slot, and one ``poisson``/``normal`` draw per slot.
Every comparison is exact.
"""

import math
import pickle

import numpy as np
import pytest

from repro.constants import TTI_DURATION_S
from repro.core.scope import NRScope
from repro.gnb.cell_config import SRSRAN_PROFILE
from repro.radio.medium import Position
from repro.simulation import Simulation
from repro.ue.channel import BLOCK_SLOTS, CQI_THRESHOLDS_DB, PROFILES, \
    ChannelColumns, ChannelError, ChannelProfile, FadingChannel, snr_to_cqi
from repro.ue.mobility import BlockedUe, MovingUe, StaticUe
from repro.ue.population import Session
from repro.ue.table import UeTable
from repro.ue.traffic import BLOCK_DRAWS, ConstantBitRate, PoissonPackets, \
    TrafficBuffer, VideoStream
from repro.ue.ue import UeError, UserEquipment

SLOT_S = TTI_DURATION_S[30]


class OracleChannel:
    """The scalar fading channel the table replaced, verbatim."""

    def __init__(self, profile: str, mean_snr_db: float,
                 slot_duration_s: float, seed: int = 0) -> None:
        self.profile = PROFILES[profile]
        self.mean_snr_db = mean_snr_db
        self._rho = self.profile.correlation(slot_duration_s)
        self._rng = np.random.default_rng(seed)
        self._gain = (self._rng.normal() + 1j * self._rng.normal()) \
            / math.sqrt(2.0)

    def step(self) -> float:
        if self.profile.fading_sigma_db == 0.0:
            return self.mean_snr_db - self.profile.mean_offset_db
        rho = self._rho
        innovation = (self._rng.normal() + 1j * self._rng.normal()) \
            / math.sqrt(2.0)
        self._gain = rho * self._gain + math.sqrt(1.0 - rho * rho) \
            * innovation
        fade_db = 10.0 * math.log10(max(abs(self._gain) ** 2, 1e-6))
        fade_db *= self.profile.fading_sigma_db / 5.57
        return self.mean_snr_db - self.profile.mean_offset_db + fade_db


def oracle_cqi(snr_db: float) -> int:
    """The linear CQI scan the table replaced, verbatim."""
    cqi = 0
    for index, threshold in enumerate(CQI_THRESHOLDS_DB):
        if snr_db >= threshold:
            cqi = index + 1
    return cqi


def mobility_for(kind: str, seed: int):
    if kind == "moving":
        return MovingUe(start=Position(10.0, 0.0), gnb=Position(0.0, 0.0),
                        speed_mps=30.0, slot_duration_s=SLOT_S, range_m=2.0)
    if kind == "blocked":
        return BlockedUe(slot_duration_s=SLOT_S, mean_blocked_s=0.01,
                         mean_clear_s=0.02, seed=seed)
    return StaticUe()


class Pair:
    """One UE in the table and its scalar oracle, stepped in lockstep."""

    def __init__(self, ue_id: int, profile: str, mobility: str) -> None:
        snr = 4.0 + 3.0 * ue_id
        seed = 1000 + ue_id
        traffic = TrafficBuffer(ConstantBitRate(1e5, SLOT_S))
        self.ue = UserEquipment(
            ue_id=ue_id, dl_buffer=traffic, ul_buffer=traffic,
            channel=FadingChannel(profile, snr, SLOT_S, seed=seed),
            mobility=mobility_for(mobility, seed))
        self.channel = OracleChannel(profile, snr, SLOT_S, seed=seed)
        self.mobility = mobility_for(mobility, seed)

    def expect(self, slot_index: int) -> tuple[float, int]:
        snr = self.channel.step() + self.mobility.step(slot_index)
        return snr, oracle_cqi(snr)


KINDS = [(profile, mobility) for mobility in ("static", "moving", "blocked")
         for profile in PROFILES]


class TestTableAgainstScalarOracle:
    def check_slot(self, table: UeTable, pairs: list[Pair],
                   slot: int) -> None:
        table.advance(slot)
        for pair in pairs:
            snr, cqi = pair.expect(slot)
            got_snr = table.snr_db(pair.ue.ue_id)
            got_cqi = table.cqi(pair.ue.ue_id)
            assert (got_snr, got_cqi) == (snr, cqi), \
                f"UE {pair.ue.ue_id} slot {slot}"
            assert type(got_snr) is float and type(got_cqi) is int

    def test_rows_join_leave_and_pickle_mid_block(self):
        pairs = [Pair(ue_id, *kind) for ue_id, kind in enumerate(KINDS)]
        early, late = pairs[:9], pairs[9:]
        table = UeTable()
        live = []
        for pair in early:
            table.add(pair.ue)
            live.append(pair)
        slot = 0
        while slot < 3 * BLOCK_SLOTS + 20:
            if slot == 37:                      # join mid-block
                for pair in late:
                    table.add(pair.ue)
                    live.append(pair)
            if slot == BLOCK_SLOTS + 11:        # leave mid-block
                for pair in live[2:8]:
                    table.remove(pair.ue.ue_id)
                gone, live = live[2:8], live[:2] + live[8:]
            if slot == 2 * BLOCK_SLOTS + 5:     # rejoin, other phase
                for pair in gone[:3]:
                    table.add(pair.ue)
                    live.append(pair)
            if slot == 2 * BLOCK_SLOTS + 29:    # checkpoint mid-block
                blob = pickle.dumps((table, live))
                table, live = pickle.loads(blob)
            self.check_slot(table, live, slot)
            slot += 1
        assert len(table) == len(live) == 12

    def test_standalone_step_is_the_one_row_kernel(self):
        # A channel stepped alone, handed to a table mid-block and handed
        # back, follows the scalar stream throughout.
        for profile in PROFILES:
            pair = Pair(3, profile, "static")
            channel = pair.ue.channel
            for slot in range(BLOCK_SLOTS // 2):
                assert channel.step() == pair.expect(slot)[0]
            table = UeTable()
            table.add(pair.ue)
            with pytest.raises(ChannelError):
                channel.step()      # the table owns the state now
            for slot in range(BLOCK_SLOTS // 2, BLOCK_SLOTS + 7):
                self.check_slot(table, [pair], slot)
            table.remove(pair.ue.ue_id)
            for slot in range(BLOCK_SLOTS + 7, 2 * BLOCK_SLOTS + 40):
                assert channel.step() == pair.expect(slot)[0]

    def test_flat_profile_never_draws(self):
        flat = ChannelProfile("flat", doppler_hz=70.0, fading_sigma_db=0.0,
                              mean_offset_db=2.0)
        channel = FadingChannel(flat, 11.0, SLOT_S, seed=5)
        assert {channel.step() for _ in range(3 * BLOCK_SLOTS)} == {9.0}
        # Only the initial gain was drawn.
        oracle = np.random.default_rng(5)
        oracle.normal(size=2)
        assert channel.state.rngs[0].bit_generator.state == \
            oracle.bit_generator.state

    def test_cqi_equals_the_scan_at_every_threshold(self):
        snrs = np.array(CQI_THRESHOLDS_DB)
        below = np.nextafter(snrs, -np.inf)
        for values in (snrs, below, np.linspace(-12.0, 30.0, 4001)):
            assert snr_to_cqi(values).tolist() == \
                [oracle_cqi(v) for v in values.tolist()]

    def test_rows_are_unique(self):
        pair = Pair(0, "urban", "static")
        table = UeTable()
        table.add(pair.ue)
        with pytest.raises(UeError):
            table.add(pair.ue)
        table.remove(0)
        with pytest.raises(UeError):
            table.remove(0)
        other = UeTable()
        table.add(pair.ue)
        twin = UserEquipment(ue_id=1, dl_buffer=pair.ue.dl_buffer,
                             ul_buffer=pair.ue.ul_buffer,
                             channel=pair.ue.channel)
        with pytest.raises(ChannelError):
            other.add(twin)     # its channel already lives in ``table``


class EagerTable:
    """The table as it was before SNR and CQI moved to the read: every
    row's SNR and CQI computed each slot, verbatim."""

    def __init__(self) -> None:
        self._fading = ChannelColumns()
        self._ues: list[UserEquipment] = []
        self._snr_db: list[float] = []
        self._cqi: list[int] = []

    def add(self, ue: UserEquipment) -> None:
        self._fading.extend(ue.channel.take_state())
        self._ues.append(ue)
        self._snr_db.append(ue.channel.mean_snr_db)
        self._cqi.append(int(snr_to_cqi(ue.channel.mean_snr_db)))

    def remove(self, ue_id: int) -> None:
        row = [ue.ue_id for ue in self._ues].index(ue_id)
        ue = self._ues.pop(row)
        ue.channel.state = self._fading.pop(row)
        del self._snr_db[row]
        del self._cqi[row]

    def advance(self, slot_index: int) -> None:
        if not self._ues:
            return
        offsets = np.zeros(len(self._ues))
        self._fading.advance()
        fading = self._fading
        fade_db = np.array([10.0 * math.log10(max(h ** 2, 1e-6))
                            for h in np.hypot(fading.re,
                                              fading.im).tolist()])
        snr = fading.base + fade_db * fading.scale
        for row, ue in enumerate(self._ues):
            if type(ue.mobility) is not StaticUe:
                offsets[row] = ue.mobility.step(slot_index)
        snr = snr + offsets
        self._snr_db = snr.tolist()
        self._cqi = snr_to_cqi(snr).tolist()

    def read(self, ue_id: int) -> tuple[float, int]:
        row = [ue.ue_id for ue in self._ues].index(ue_id)
        return self._snr_db[row], self._cqi[row]


class TestReadEqualsEagerTable:
    def test_sparse_reads_equal_every_row_computed(self):
        # Static, moving and blocked rows; a few read each slot, some
        # twice, some before their first advance; rows join and leave.
        rng = np.random.default_rng(12)
        pairs = {}
        for ue_id, kind in enumerate(KINDS * 2):
            pairs[ue_id] = (Pair(ue_id, *kind), Pair(ue_id, *kind))
        lazy, eager = UeTable(), EagerTable()
        admitted: list[int] = []
        next_id = 0
        for slot in range(3 * BLOCK_SLOTS + 30):
            if slot % 9 == 0 and next_id < len(pairs):
                ue_id = next_id
                next_id += 1
                lazy.add(pairs[ue_id][0].ue)
                eager.add(pairs[ue_id][1].ue)
                admitted.append(ue_id)
                assert (lazy.snr_db(ue_id), lazy.cqi(ue_id)) == \
                    eager.read(ue_id)               # before any advance
            if slot % 41 == 40:
                gone = admitted.pop(int(rng.integers(len(admitted))))
                lazy.remove(gone)
                eager.remove(gone)
            if slot == 2 * BLOCK_SLOTS + 3:
                lazy = pickle.loads(pickle.dumps(lazy))
            lazy.advance(slot)
            eager.advance(slot)
            for ue_id in rng.choice(admitted, size=min(3, len(admitted)),
                                    replace=False).tolist() * 2:
                got = (lazy.snr_db(ue_id), lazy.cqi(ue_id))
                assert got == eager.read(ue_id), f"UE {ue_id} slot {slot}"
                assert type(got[0]) is float and type(got[1]) is int
        moving = [ue_id for ue_id in admitted
                  if type(pairs[ue_id][0].ue.mobility) is not StaticUe]
        assert moving and len(admitted) > 10

    def test_pickle_keeps_only_unread_innovations(self):
        pairs = [Pair(ue_id, "pedestrian", "static") for ue_id in range(16)]
        table = UeTable()
        for pair in pairs:
            table.add(pair.ue)
        for slot in range(BLOCK_SLOTS // 2 + 3):
            table.advance(slot)
        blob = pickle.dumps(table._fading)
        # 70 of each row's 128 innovations are read: 16 * 70 * 8 bytes.
        whole = pickle.dumps(vars(table._fading))
        assert len(blob) < len(whole) - 16 * 64 * 8
        back = pickle.loads(blob)
        for slot in range(BLOCK_SLOTS):
            table._fading.advance()
            back.advance()
            assert back.re.tolist() == table._fading.re.tolist()
            assert back.im.tolist() == table._fading.im.tolist()


class TestBlockDrawnStreams:
    @pytest.mark.parametrize("mean", [0.018, 0.036, 0.5, 3.0, 40.0])
    def test_poisson_counts_equal_scalar_draws(self, mean):
        model = PoissonPackets(packets_per_second=mean / SLOT_S,
                               packet_bytes=1400, slot_duration_s=SLOT_S,
                               seed=9)
        oracle = np.random.default_rng(9)
        for slot in range(3 * BLOCK_DRAWS + 17):
            if slot == BLOCK_DRAWS + 5:
                model = pickle.loads(pickle.dumps(model))
            want = int(oracle.poisson(
                model.packets_per_second * model.slot_duration_s)) * 1400
            assert model.bytes_in_slot(slot) == want
        # Whole blocks leave the generator where scalar draws leave it.
        for slot in range(BLOCK_DRAWS - 17):
            model.bytes_in_slot(slot)
            oracle.poisson(model.packets_per_second * SLOT_S)
        assert model._rng.bit_generator.state == oracle.bit_generator.state

    def test_video_jitter_equals_scalar_draws(self):
        model = VideoStream(rate_bps=4e6, slot_duration_s=SLOT_S, seed=4)
        oracle = np.random.default_rng(4)
        period = model._slots_per_frame
        frame_bytes = 4e6 / 30.0 / 8.0
        frames = 0
        slot = 0
        while frames < 3 * BLOCK_DRAWS + 9:
            if frames == BLOCK_DRAWS + 3 and slot % period == 1:
                model = pickle.loads(pickle.dumps(model))
            want = 0
            if slot % period == 0:
                jitter = 1.0 + 0.3 * float(oracle.normal())
                want = max(0, int(frame_bytes * jitter))
                frames += 1
            assert model.bytes_in_slot(slot) == want
            slot += 1


def staggered(n_ues: int, window_s: float, seed: int) -> list[Session]:
    rng = np.random.default_rng(seed)
    gap = window_s / n_ues
    return [Session(ue_id=i,
                    arrival_s=float(i * gap + rng.uniform(0.0, gap / 2)),
                    holding_s=10.0)
            for i in range(n_ues)]


def message_session(seed: int) -> tuple[Simulation, NRScope]:
    sim = Simulation.build(SRSRAN_PROFILE, n_ues=0, seed=seed,
                           fidelity="message")
    sim.schedule_sessions(staggered(64, 0.3, seed), traffic="mixed")
    return sim, NRScope.attach(sim, snr_db=18.0)


def resume(blob: bytes) -> tuple[Simulation, NRScope]:
    state = pickle.loads(blob)
    sim = Simulation.from_state(state["sim"])
    scope = NRScope.attach(sim, snr_db=18.0)
    scope.restore_state(state["scope"])
    return sim, scope


class TestMessageSessionResume:
    def test_checkpoint_mid_block_resumes_identically(self):
        baseline_sim, baseline = message_session(seed=11)
        baseline_sim.run_slots(1100)
        baseline.flush()

        sim, scope = message_session(seed=11)
        sim.run_slots(653)
        cursors = sim.gnb._table._fading.cursor
        assert len(cursors) == 64
        assert ((cursors % (2 * BLOCK_SLOTS)) != 0).any()   # mid-block
        blob = pickle.dumps({"sim": sim.checkpoint_state(),
                             "scope": scope.checkpoint_state()})
        del sim, scope                                    # the killed run
        sim, scope = resume(blob)
        sim.run_slots(1100 - 653)
        scope.flush()

        assert scope.telemetry.records == baseline.telemetry.records
        assert len(scope.telemetry.records) > 500
        assert scope.counters == baseline.counters
        assert [repr(r) for r in sim.gnb.log.dci_records] == \
            [repr(r) for r in baseline_sim.gnb.log.dci_records]
