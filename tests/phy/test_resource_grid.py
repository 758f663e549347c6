"""Tests for repro.phy.resource_grid: geometry and the control-slab
capture noise."""

import numpy as np
import pytest

from repro.phy.resource_grid import GridError, ResourceGrid


class TestGridBasics:
    def test_shape(self):
        grid = ResourceGrid(n_prb=51)
        assert grid.data.shape == (612, 14)
        assert grid.n_subcarriers == 612
        assert grid.n_ctrl == 14
        # A control region keeps the whole slot's shape, so flat RE
        # indices mean the same in every grid.
        assert ResourceGrid(n_prb=51, n_ctrl=2).data.shape == (612, 14)

    def test_starts_empty(self):
        grid = ResourceGrid(n_prb=4)
        assert not grid.data.any()

    def test_rejects_bad_size(self):
        with pytest.raises(GridError):
            ResourceGrid(n_prb=0)

    @pytest.mark.parametrize("n_ctrl", [0, 15])
    def test_rejects_bad_control_region(self, n_ctrl):
        with pytest.raises(GridError):
            ResourceGrid(n_prb=4, n_ctrl=n_ctrl)


class TestNoise:
    def test_noise_preserves_signal_at_high_snr(self, rng):
        grid = ResourceGrid(n_prb=4)
        grid.data[:12, 0] = 1.0
        noisy = grid.clone_with_noise(40.0, rng)
        assert np.allclose(noisy.data[:12, 0], 1.0, atol=0.1)

    def test_noise_power_matches_snr(self, rng):
        """Noise lands on the control slab only, at the SNR's variance;
        the REs past the slab equal the transmitted grid."""
        for snr_db in (0.0, 10.0):
            grid = ResourceGrid(n_prb=51, n_ctrl=2)
            grid.data[:] = rng.normal(size=grid.data.shape) \
                + 1j * rng.normal(size=grid.data.shape)
            noisy = grid.clone_with_noise(snr_db, rng)
            noise = noisy.data[:, :2] - grid.data[:, :2]
            variance = 10 ** (-snr_db / 10)
            # 1,224 complex REs: the mean power is within 10% of the
            # variance, and real and imaginary parts share it evenly.
            assert np.mean(np.abs(noise) ** 2) == \
                pytest.approx(variance, rel=0.1)
            assert np.mean(noise.real ** 2) == \
                pytest.approx(variance / 2, rel=0.15)
            assert np.mean(noise.imag ** 2) == \
                pytest.approx(variance / 2, rel=0.15)
            assert np.all(noise != 0)
            assert noisy.data[:, 2:].tobytes() == \
                grid.data[:, 2:].tobytes()
            assert noisy.n_ctrl == 2

    def test_whole_slot_by_default(self, rng):
        noisy = ResourceGrid(n_prb=51).clone_with_noise(0.0, rng)
        assert np.mean(np.abs(noisy.data) ** 2) == \
            pytest.approx(1.0, rel=0.05)

    def test_original_untouched(self, rng):
        grid = ResourceGrid(n_prb=4)
        grid.clone_with_noise(0.0, rng)
        assert np.all(grid.data == 0)
