"""Property-based tests over the full PDCCH chain.

Hypothesis drives randomized DCIs through encode -> (optional noise) ->
decode and checks the invariants the telemetry pipeline relies on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.coreset import Coreset
from repro.phy.dci import Dci, DciFormat, DciSizeConfig, riv_encode
from repro.phy.grant import GrantConfig, dci_to_grant
from repro.phy.pdcch import PdcchCandidate, encode_pdcch, \
    try_decode_pdcch
from repro.phy.resource_grid import ResourceGrid

CFG = DciSizeConfig(n_prb_bwp=51)
CORESET = Coreset(coreset_id=1, first_prb=0, n_prb=48, n_symbols=1)
N_ID = 500


def random_dci(data) -> Dci:
    fmt = data.draw(st.sampled_from(list(DciFormat)))
    n_prb = data.draw(st.integers(1, 51))
    start = data.draw(st.integers(0, 51 - n_prb))
    return Dci(
        format=fmt,
        rnti=data.draw(st.integers(1, 0xFFEF)),
        freq_alloc_riv=riv_encode(start, n_prb, 51),
        time_alloc=data.draw(st.integers(0, 15)),
        mcs=data.draw(st.integers(0, 27)),
        ndi=data.draw(st.integers(0, 1)),
        rv=data.draw(st.integers(0, 3)),
        harq_id=data.draw(st.integers(0, 15)),
        dai=data.draw(st.integers(0, 3 if fmt is DciFormat.DL_1_1
                                  else 1)),
        tpc=data.draw(st.integers(0, 3)),
    )


class TestChainProperties:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_clean_roundtrip_any_dci(self, data):
        """Any well-formed DCI survives encode -> decode bit-exactly."""
        dci = random_dci(data)
        level = data.draw(st.sampled_from([1, 2, 4, 8]))
        start = data.draw(st.integers(0, CORESET.n_cces // level - 1))
        candidate = PdcchCandidate(first_cce=start * level,
                                   aggregation_level=level)
        grid = ResourceGrid(51)
        slot = data.draw(st.integers(0, 1000))
        encode_pdcch([(dci, CORESET, candidate)], CFG, grid, N_ID, slot)
        decoded = try_decode_pdcch(grid, CFG, CORESET, candidate,
                                   dci.format, dci.rnti, N_ID, 1e-4)
        assert decoded == dci

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_wrong_rnti_never_decodes(self, data):
        """The CRC gate rejects every wrong-RNTI hypothesis."""
        dci = random_dci(data)
        wrong = data.draw(st.integers(1, 0xFFEF)
                          .filter(lambda r: r != dci.rnti))
        grid = ResourceGrid(51)
        candidate = PdcchCandidate(0, 2)
        encode_pdcch([(dci, CORESET, candidate)], CFG, grid, N_ID, 0)
        assert try_decode_pdcch(grid, CFG, CORESET, candidate,
                                dci.format, wrong, N_ID, 1e-4) is None

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_decoded_grant_matches_encoded_intent(self, data):
        """encode -> decode -> grant equals the encoder's own grant."""
        dci = random_dci(data)
        config = GrantConfig(bwp_n_prb=51, mcs_table="qam64",
                             n_layers=data.draw(st.integers(1, 2)))
        grid = ResourceGrid(51)
        candidate = PdcchCandidate(0, 4)
        encode_pdcch([(dci, CORESET, candidate)], CFG, grid, N_ID, 0)
        decoded = try_decode_pdcch(grid, CFG, CORESET, candidate,
                                   dci.format, dci.rnti, N_ID, 1e-4)
        assert decoded is not None
        assert dci_to_grant(decoded, config) == dci_to_grant(dci, config)

    @given(st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_noisy_decode_never_corrupts_silently(self, seed):
        """Under heavy noise the decode either fails or is exact:
        the CRC makes silently-wrong DCIs (the 4G-tool failure mode)
        vanishingly unlikely."""
        rng = np.random.default_rng(seed)
        dci = Dci(format=DciFormat.DL_1_1, rnti=0x4601,
                  freq_alloc_riv=riv_encode(0, 8, 51), time_alloc=1,
                  mcs=10, ndi=0, rv=0, harq_id=3)
        grid = ResourceGrid(51)
        candidate = PdcchCandidate(0, 2)
        encode_pdcch([(dci, CORESET, candidate)], CFG, grid, N_ID, 0)
        snr_db = float(rng.uniform(-6.0, 4.0))
        noisy = grid.clone_with_noise(snr_db, rng)
        decoded = try_decode_pdcch(noisy, CFG, CORESET, candidate,
                                   DciFormat.DL_1_1, 0x4601, N_ID,
                                   10 ** (-snr_db / 10))
        assert decoded is None or decoded == dci
