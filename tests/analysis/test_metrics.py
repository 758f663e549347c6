"""Tests for the statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import (
    MetricsError,
    ccdf_points,
    cdf_points,
    coefficient_of_determination,
    percentile,
    relative_error,
    summarize_errors,
    throughput_error_series,
)


class TestDistributionPoints:
    def test_ccdf_shape(self):
        points = ccdf_points([1.0, 2.0, 3.0, 4.0])
        assert points[0] == (1.0, 0.75)
        assert points[-1] == (4.0, 0.0)

    def test_cdf_shape(self):
        points = cdf_points([1.0, 2.0, 3.0, 4.0])
        assert points[0] == (1.0, 0.25)
        assert points[-1] == (4.0, 1.0)

    def test_cdf_monotone(self):
        points = cdf_points(np.random.default_rng(0).normal(size=100))
        probs = [p for _, p in points]
        assert probs == sorted(probs)

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            ccdf_points([])
        with pytest.raises(MetricsError):
            cdf_points([])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_property_ccdf_cdf_complementary(self, values):
        ccdf = dict(ccdf_points(values))
        cdf = dict(cdf_points(values))
        for value in set(values):
            assert ccdf[value] + cdf[value] == pytest.approx(1.0)


class TestSummaries:
    def test_percentiles(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 95) == pytest.approx(95.05)

    def test_summary_fields(self):
        summary = summarize_errors([1.0, 2.0, 3.0, 4.0])
        assert summary.n_samples == 4
        assert summary.median == pytest.approx(2.5)
        assert summary.mean == pytest.approx(2.5)
        assert "median=2.50kbps" in summary.describe()

    def test_validation(self):
        with pytest.raises(MetricsError):
            summarize_errors([])
        with pytest.raises(MetricsError):
            percentile([1.0], 101)


class TestThroughputErrors:
    def test_aligned_windows(self):
        est = [(1.0, 1e6), (2.0, 2e6)]
        truth = [(1.0, 1.1e6), (2.0, 2e6)]
        errors = throughput_error_series(est, truth)
        assert errors == [pytest.approx(100.0), pytest.approx(0.0)]

    def test_unaligned_skipped(self):
        est = [(1.0, 1e6), (1.5, 9e9)]
        truth = [(1.0, 1e6)]
        assert len(throughput_error_series(est, truth)) == 1

    def test_no_overlap_rejected(self):
        with pytest.raises(MetricsError):
            throughput_error_series([(1.0, 1.0)], [(2.0, 1.0)])

    def test_relative_error(self):
        assert relative_error(99.0, 100.0) == pytest.approx(0.01)
        with pytest.raises(MetricsError):
            relative_error(1.0, 0.0)


class TestJainFairness:
    def test_equal_shares_perfect(self):
        from repro.analysis.metrics import jain_fairness
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_monopoly_is_one_over_n(self):
        from repro.analysis.metrics import jain_fairness
        assert jain_fairness([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_bounds(self):
        from repro.analysis.metrics import jain_fairness
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = rng.exponential(1.0, size=8)
            index = jain_fairness(values)
            assert 1 / 8 <= index <= 1.0 + 1e-12

    def test_validation(self):
        from repro.analysis.metrics import jain_fairness
        with pytest.raises(MetricsError):
            jain_fairness([])
        with pytest.raises(MetricsError):
            jain_fairness([-1.0, 1.0])


class TestR2:
    def test_perfect_fit(self):
        assert coefficient_of_determination([1, 2, 3], [1, 2, 3]) == 1.0

    def test_good_fit_near_one(self):
        truth = np.linspace(0, 30, 50)
        est = truth + np.random.default_rng(1).normal(0, 0.2, 50)
        assert coefficient_of_determination(est, truth) > 0.99

    def test_bad_fit_low(self):
        rng = np.random.default_rng(2)
        truth = np.linspace(0, 30, 50)
        assert coefficient_of_determination(rng.normal(15, 10, 50),
                                            truth) < 0.5

    def test_validation(self):
        with pytest.raises(MetricsError):
            coefficient_of_determination([1.0], [1.0, 2.0])
        with pytest.raises(MetricsError):
            coefficient_of_determination([], [])

    def test_constant_truth(self):
        assert coefficient_of_determination([2.0, 2.0], [2.0, 2.0]) == 1.0
        assert coefficient_of_determination([1.0, 3.0], [2.0, 2.0]) == 0.0
