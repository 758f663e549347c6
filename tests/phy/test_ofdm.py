"""Tests for repro.phy.ofdm: slot modulation/demodulation."""

import numpy as np
import pytest

from repro.phy.ofdm import OfdmConfig, OfdmError, demodulate_slot, \
    fft_size_for, modulate_slot
from repro.phy.resource_grid import ResourceGrid


class TestGeometry:
    def test_fft_size(self):
        assert fft_size_for(612) == 1024
        assert fft_size_for(300) == 512
        assert fft_size_for(64) == 64
        assert fft_size_for(1) == 64

    def test_rejects_zero(self):
        with pytest.raises(OfdmError):
            fft_size_for(0)

    def test_config_for_grid(self):
        config = OfdmConfig.for_grid(612)
        assert config.fft_size == 1024
        assert config.cp_len == 72
        assert config.samples_per_symbol == 1096
        assert config.samples_per_slot == 1096 * 14


class TestRoundtrip:
    def test_empty_grid(self):
        grid = ResourceGrid(n_prb=4)
        config = OfdmConfig.for_grid(grid.n_subcarriers)
        out = demodulate_slot(modulate_slot(grid, config), config)
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_random_grid_roundtrip(self, rng):
        grid = ResourceGrid(n_prb=20)
        grid.data[:] = rng.normal(size=grid.data.shape) + \
            1j * rng.normal(size=grid.data.shape)
        config = OfdmConfig.for_grid(grid.n_subcarriers)
        out = demodulate_slot(modulate_slot(grid, config), config)
        assert np.allclose(out.data, grid.data, atol=1e-9)

    def test_power_preserved(self, rng):
        grid = ResourceGrid(n_prb=10)
        grid.data[:] = rng.normal(size=grid.data.shape)
        config = OfdmConfig.for_grid(grid.n_subcarriers)
        samples = modulate_slot(grid, config)
        grid_power = np.sum(np.abs(grid.data) ** 2)
        sample_power = np.sum(np.abs(samples) ** 2)
        # CP adds a deterministic fraction of extra energy.
        overhead = config.samples_per_symbol / config.fft_size
        assert sample_power == pytest.approx(grid_power * overhead, rel=0.05)

    def test_wrong_geometry_rejected(self):
        grid = ResourceGrid(n_prb=4)
        config = OfdmConfig.for_grid(612)
        with pytest.raises(OfdmError):
            modulate_slot(grid, config)
        with pytest.raises(OfdmError):
            demodulate_slot(np.zeros(10, dtype=complex), config)

    def test_single_subcarrier_tone(self):
        # One RE on one symbol becomes a complex tone in that symbol only.
        grid = ResourceGrid(n_prb=4)
        grid.data[0, 3] = 1.0
        config = OfdmConfig.for_grid(grid.n_subcarriers)
        samples = modulate_slot(grid, config)
        sps = config.samples_per_symbol
        sym3 = samples[3 * sps:4 * sps]
        other = np.concatenate([samples[:3 * sps], samples[4 * sps:]])
        assert np.sum(np.abs(sym3) ** 2) > 0.9
        assert np.allclose(other, 0.0, atol=1e-12)
