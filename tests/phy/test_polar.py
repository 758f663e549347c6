"""Tests for repro.phy.polar: construction, encode/decode, rate matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import polar


class TestReliabilityOrder:
    def test_is_permutation(self):
        for n in range(1, 10):
            order = polar.reliability_order(n)
            assert sorted(order) == list(range(1 << n))

    def test_extremes(self):
        # Index 0 (all-zero weight) is always least reliable; the all-ones
        # index is always most reliable.
        for n in range(2, 10):
            order = polar.reliability_order(n)
            assert order[0] == 0
            assert order[-1] == (1 << n) - 1

    def test_out_of_range(self):
        with pytest.raises(polar.PolarError):
            polar.reliability_order(11)


class TestConstruct:
    def test_basic_dimensions(self):
        code = polar.construct(70, 216)
        assert code.block_len == 256
        assert code.info_len == 70
        assert code.rate_matched_len == 216
        assert len(code.info_indices) == 70
        assert len(code.shortened_outputs) == 256 - 216

    def test_repetition_regime(self):
        code = polar.construct(40, 600)
        assert code.block_len == 512
        assert code.shortened_outputs == ()

    def test_info_avoids_shortened(self):
        code = polar.construct(30, 100)
        assert not set(code.info_indices) & set(code.shortened_outputs)

    def test_rejects_k_greater_than_e(self):
        with pytest.raises(polar.PolarError):
            polar.construct(100, 50)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(polar.PolarError):
            polar.construct(0, 100)

    def test_code_rate(self):
        code = polar.construct(54, 108)
        assert code.code_rate == pytest.approx(0.5)


class TestTransform:
    def test_involution(self, rng):
        # The Arikan transform is its own inverse over GF(2).
        u = rng.integers(0, 2, 64).astype(np.uint8)
        assert np.array_equal(polar._transform(polar._transform(u)), u)

    def test_linear(self, rng):
        a = rng.integers(0, 2, 32).astype(np.uint8)
        b = rng.integers(0, 2, 32).astype(np.uint8)
        lhs = polar._transform(a ^ b)
        rhs = polar._transform(a) ^ polar._transform(b)
        assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize("size", [32, 64, 128, 256, 512])
    def test_matches_butterfly_loop(self, rng, size):
        def loop_form(u):
            x = u.copy()
            stride = 1
            while stride < size:
                for start in range(0, size, 2 * stride):
                    x[start:start + stride] ^= \
                        x[start + stride:start + 2 * stride]
                stride *= 2
            return x

        for _ in range(4):
            u = rng.integers(0, 2, size).astype(np.uint8)
            assert np.array_equal(polar._transform(u), loop_form(u))


class TestEncodeDecode:
    def test_noiseless_roundtrip(self, rng):
        code = polar.construct(46 + 24, 108 * 2)
        info = rng.integers(0, 2, code.info_len).astype(np.uint8)
        coded = polar.encode(info, code)
        assert coded.size == code.rate_matched_len
        llrs = (1.0 - 2.0 * coded.astype(float)) * 8.0
        assert np.array_equal(polar.decode(llrs, code), info)

    def test_noiseless_roundtrip_repetition(self, rng):
        code = polar.construct(30, 540)
        info = rng.integers(0, 2, 30).astype(np.uint8)
        coded = polar.encode(info, code)
        llrs = (1.0 - 2.0 * coded.astype(float)) * 8.0
        assert np.array_equal(polar.decode(llrs, code), info)

    def test_noiseless_roundtrip_multi_wrap_repetition(self, rng):
        """Aggregation level 16 (E = 1728 > 2N): cyclic repetition
        wraps the N = 512 mother block three times over."""
        code = polar.construct(70, 1728)
        assert code.block_len == 512
        info = rng.integers(0, 2, 70).astype(np.uint8)
        coded = polar.encode(info, code)
        assert coded.size == 1728
        mother = coded[:code.block_len]
        assert np.array_equal(coded, mother[np.arange(1728) % 512])
        llrs = (1.0 - 2.0 * coded.astype(float)) * 8.0
        assert np.array_equal(polar.decode(llrs, code), info)
        other = rng.integers(0, 2, 70).astype(np.uint8)
        batch = np.stack([
            llrs, (1.0 - 2.0 * polar.encode(other, code)) * 8.0])
        assert np.array_equal(polar.decode_batch(batch, code),
                              np.stack([info, other]))

    def test_encode_rejects_wrong_size(self):
        code = polar.construct(40, 108)
        with pytest.raises(polar.PolarError):
            polar.encode(np.zeros(39, dtype=np.uint8), code)

    def test_decode_rejects_wrong_size(self):
        code = polar.construct(40, 108)
        with pytest.raises(polar.PolarError):
            polar.decode(np.zeros(100, dtype=np.float64), code)

    def test_shortened_outputs_transmit_zero(self, rng):
        code = polar.construct(40, 100)
        info = rng.integers(0, 2, 40).astype(np.uint8)
        u = np.zeros(code.block_len, dtype=np.uint8)
        u[list(code.info_indices)] = info
        x = polar._transform(u)
        assert x[list(code.shortened_outputs)].sum() == 0

    @given(st.integers(0, 2**20 - 1))
    @settings(max_examples=40, deadline=None)
    def test_property_noiseless_roundtrip(self, seed):
        local = np.random.default_rng(seed)
        k = int(local.integers(12, 80))
        e = int(local.integers(k + 4, 400))
        code = polar.construct(k, e)
        info = local.integers(0, 2, k).astype(np.uint8)
        llrs = (1.0 - 2.0 * polar.encode(info, code).astype(float)) * 6.0
        assert np.array_equal(polar.decode(llrs, code), info)

    def test_bler_improves_with_snr(self, rng):
        """Decoding must succeed more often at higher SNR (waterfall)."""
        code = polar.construct(64, 216)
        successes = {}
        for snr_db in (-4.0, 2.0):
            noise_var = 10 ** (-snr_db / 10)
            ok = 0
            for _ in range(40):
                info = rng.integers(0, 2, 64).astype(np.uint8)
                coded = polar.encode(info, code).astype(float)
                tx = 1.0 - 2.0 * coded
                noisy = tx + rng.normal(0, np.sqrt(noise_var), tx.size)
                llrs = 2.0 * noisy / noise_var
                ok += np.array_equal(polar.decode(llrs, code), info)
            successes[snr_db] = ok
        assert successes[2.0] > successes[-4.0]
        assert successes[2.0] >= 38  # near-certain at 2 dB Eb/N0-ish


class TestDecodeErrorBehaviour:
    def test_all_zero_llrs_decode_to_something(self):
        # Zero LLRs (pure noise) must not crash; output is arbitrary bits.
        code = polar.construct(40, 108)
        out = polar.decode(np.zeros(108, dtype=np.float64), code)
        assert out.size == 40
        assert set(np.unique(out)) <= {0, 1}
