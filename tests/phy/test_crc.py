"""Tests for repro.phy.crc: 38.212 CRCs and RNTI scrambling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.crc import (
    CrcError,
    POLYNOMIALS,
    bits_to_rnti,
    crc_attach,
    crc_check,
    crc_parity,
    crc_remainder,
    recover_rnti,
    rnti_to_bits,
    scramble_crc_with_rnti,
)

ALL_CRCS = sorted(POLYNOMIALS)


def _bits(values):
    return np.array(values, dtype=np.uint8)


class TestCrcRemainder:
    def test_zero_input_gives_zero_crc(self):
        for name in ALL_CRCS:
            remainder = crc_remainder(np.zeros(40, dtype=np.uint8), name)
            assert remainder.sum() == 0, name

    def test_known_length(self):
        for name, (length, _) in POLYNOMIALS.items():
            assert crc_remainder(_bits([1, 0, 1]), name).size == length

    def test_single_one_is_polynomial_shift(self):
        # A single 1 followed by L zeros leaves the polynomial itself.
        length, poly = POLYNOMIALS["crc16"]
        remainder = crc_remainder(_bits([1] + [0] * 0), "crc16")
        # x^16 mod g(x) = g(x) - x^16, i.e. the low 16 bits of the poly.
        expected = [(poly >> (length - 1 - i)) & 1 for i in range(length)]
        assert list(remainder) == expected

    def test_rejects_non_binary(self):
        with pytest.raises(CrcError):
            crc_remainder(np.array([0, 2, 1], dtype=np.uint8), "crc16")

    def test_rejects_unknown_name(self):
        with pytest.raises(CrcError):
            crc_remainder(_bits([1]), "crc32")

    def test_rejects_2d_input(self):
        with pytest.raises(CrcError):
            crc_remainder(np.zeros((2, 2), dtype=np.uint8), "crc16")


    @given(st.sampled_from(ALL_CRCS), st.integers(0, 200),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_property_matrix_parity_equals_lfsr(self, name, n_bits, seed):
        """The cached generator-matrix product is the LFSR, bit for bit,
        at every block length and under every polynomial."""
        bits = np.random.default_rng(seed).integers(
            0, 2, n_bits).astype(np.uint8)
        parity = crc_parity(bits, name)
        assert parity.dtype == np.uint8
        assert np.array_equal(parity, crc_remainder(bits, name))

    def test_matrix_parity_rejects_what_the_lfsr_rejects(self):
        with pytest.raises(CrcError):
            crc_parity(_bits([0, 2, 1]), "crc16")
        with pytest.raises(CrcError):
            crc_parity(_bits([0, 1]), "crc99")


class TestAttachCheck:
    @pytest.mark.parametrize("name", ALL_CRCS)
    def test_roundtrip(self, name, rng):
        payload = rng.integers(0, 2, 50).astype(np.uint8)
        assert crc_check(crc_attach(payload, name), name)

    @pytest.mark.parametrize("name", ALL_CRCS)
    def test_detects_any_single_bit_flip(self, name, rng):
        payload = rng.integers(0, 2, 30).astype(np.uint8)
        block = crc_attach(payload, name)
        for pos in range(block.size):
            corrupted = block.copy()
            corrupted[pos] ^= 1
            assert not crc_check(corrupted, name), f"flip at {pos}"

    def test_check_rejects_short_block(self):
        with pytest.raises(CrcError):
            crc_check(_bits([1, 0, 1]), "crc24a")

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=120))
    @settings(max_examples=30, deadline=None)
    def test_property_roundtrip_crc24c(self, payload):
        assert crc_check(crc_attach(_bits(payload), "crc24c"), "crc24c")

    @given(st.lists(st.integers(0, 1), min_size=12, max_size=60),
           st.integers(0, 11))
    @settings(max_examples=30, deadline=None)
    def test_property_burst_error_detected(self, payload, start):
        block = crc_attach(_bits(payload), "crc16")
        corrupted = block.copy()
        corrupted[start:start + 3] ^= 1
        assert not crc_check(corrupted, "crc16")


class TestRntiBits:
    def test_roundtrip_extremes(self):
        for rnti in (0, 1, 0x4296, 0xFFFF):
            assert bits_to_rnti(rnti_to_bits(rnti)) == rnti

    def test_msb_first(self):
        bits = rnti_to_bits(0x8000)
        assert bits[0] == 1 and bits[1:].sum() == 0

    def test_out_of_range(self):
        with pytest.raises(CrcError):
            rnti_to_bits(0x10000)
        with pytest.raises(CrcError):
            rnti_to_bits(-1)

    def test_wrong_width(self):
        with pytest.raises(CrcError):
            bits_to_rnti(_bits([1, 0, 1]))


class TestRntiScrambling:
    def test_scramble_is_involution(self, rng):
        block = crc_attach(rng.integers(0, 2, 40).astype(np.uint8), "crc24c")
        once = scramble_crc_with_rnti(block, 0x1234)
        twice = scramble_crc_with_rnti(once, 0x1234)
        assert np.array_equal(twice, block)

    def test_scrambled_block_fails_plain_check(self, rng):
        block = crc_attach(rng.integers(0, 2, 40).astype(np.uint8), "crc24c")
        masked = scramble_crc_with_rnti(block, 0x1234)
        assert not crc_check(masked, "crc24c")

    def test_rnti_zero_is_identity(self, rng):
        block = crc_attach(rng.integers(0, 2, 40).astype(np.uint8), "crc24c")
        assert np.array_equal(scramble_crc_with_rnti(block, 0), block)

    @given(st.integers(1, 0xFFFF))
    @settings(max_examples=40, deadline=None)
    def test_property_recover_any_rnti(self, rnti):
        payload = _bits([1, 0, 1, 1, 0, 0, 1, 0] * 5)
        masked = scramble_crc_with_rnti(crc_attach(payload, "crc24c"), rnti)
        assert recover_rnti(masked) == rnti

    def test_recover_rejects_corruption_in_unmasked_bits(self, rng):
        block = crc_attach(rng.integers(0, 2, 40).astype(np.uint8), "crc24c")
        masked = scramble_crc_with_rnti(block, 0x4296)
        corrupted = masked.copy()
        corrupted[-20] ^= 1  # inside the 8 unmasked CRC bits
        assert recover_rnti(corrupted) is None

    def test_recover_on_unscrambled_block_returns_zero(self, rng):
        # An unscrambled (broadcast-style) block recovers RNTI 0.
        block = crc_attach(rng.integers(0, 2, 40).astype(np.uint8), "crc24c")
        assert recover_rnti(block) == 0
