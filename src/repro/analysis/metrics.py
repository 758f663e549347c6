"""Statistical helpers behind the paper's figures.

CCDF/CDF construction, percentile summaries, throughput-error series and
the coefficient of determination used in Fig 15's comparison against
ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricsError(ValueError):
    """Raised for empty or malformed inputs."""


def ccdf_points(values: list[float] | np.ndarray) \
        -> list[tuple[float, float]]:
    """(value, P(X > value)) points, the axes of Figs 8, 9, 10 and 16."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise MetricsError("cannot build a CCDF from no samples")
    ordered = np.sort(arr)
    n = ordered.size
    return [(float(v), float(1.0 - (i + 1) / n))
            for i, v in enumerate(ordered)]


def cdf_points(values: list[float] | np.ndarray) \
        -> list[tuple[float, float]]:
    """(value, P(X <= value)) points, the axes of Figs 11 and 15."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise MetricsError("cannot build a CDF from no samples")
    ordered = np.sort(arr)
    n = ordered.size
    return [(float(v), float((i + 1) / n)) for i, v in enumerate(ordered)]


def percentile(values: list[float] | np.ndarray, q: float) -> float:
    """Percentile with the paper's inclusive convention."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise MetricsError("cannot take a percentile of no samples")
    if not 0 <= q <= 100:
        raise MetricsError(f"percentile out of range: {q}")
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class ErrorSummary:
    """The numbers the paper quotes for an error distribution."""

    n_samples: int
    median: float
    p75: float
    p95: float
    mean: float

    def describe(self, unit: str = "kbps") -> str:
        """One line in the style of section 5.2.2's summaries."""
        return (f"n={self.n_samples} median={self.median:.2f}{unit} "
                f"p75={self.p75:.2f}{unit} p95={self.p95:.2f}{unit} "
                f"mean={self.mean:.2f}{unit}")


def summarize_errors(errors: list[float] | np.ndarray) -> ErrorSummary:
    """Median/p75/p95/mean of an error sample set."""
    arr = np.asarray(errors, dtype=float)
    if arr.size == 0:
        raise MetricsError("cannot summarise no samples")
    return ErrorSummary(n_samples=int(arr.size),
                        median=percentile(arr, 50),
                        p75=percentile(arr, 75),
                        p95=percentile(arr, 95),
                        mean=float(arr.mean()))


def throughput_error_series(estimated: list[tuple[float, float]],
                            truth: list[tuple[float, float]],
                            unit: float = 1e3) -> list[float]:
    """|estimate - truth| per aligned window, in ``unit`` (default kbps).

    Both series are (window end time, bits/s) as produced by the
    telemetry log and the packet capture; windows are matched by time.
    """
    truth_by_time = {round(t, 9): v for t, v in truth}
    errors = []
    for t, estimate in estimated:
        key = round(t, 9)
        if key not in truth_by_time:
            continue
        errors.append(abs(estimate - truth_by_time[key]) / unit)
    if not errors:
        raise MetricsError("no aligned windows between the two series")
    return errors


def relative_error(estimated_total: float, true_total: float) -> float:
    """|est - true| / true, the paper's overall-percentage metric."""
    if true_total <= 0:
        raise MetricsError(f"true total must be positive: {true_total}")
    return abs(estimated_total - true_total) / true_total


def jain_fairness(allocations: list[float] | np.ndarray) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1].

    1.0 means perfectly equal shares; 1/n means one UE got everything.
    Used by the scheduler-policy ablation.
    """
    arr = np.asarray(allocations, dtype=float)
    if arr.size == 0:
        raise MetricsError("fairness of an empty allocation is undefined")
    if np.any(arr < 0):
        raise MetricsError("allocations must be non-negative")
    total_sq = float(arr.sum()) ** 2
    sq_total = float((arr ** 2).sum())
    if sq_total == 0.0:
        return 1.0
    return total_sq / (arr.size * sq_total)


def coefficient_of_determination(estimates: list[float] | np.ndarray,
                                 truth: list[float] | np.ndarray) -> float:
    """R^2 between paired samples (Fig 15: 0.9970 MCS, 0.9862 retx)."""
    est = np.asarray(estimates, dtype=float)
    true = np.asarray(truth, dtype=float)
    if est.size != true.size or est.size == 0:
        raise MetricsError("R^2 needs equal-length non-empty samples")
    residual = float(np.sum((true - est) ** 2))
    total = float(np.sum((true - true.mean()) ** 2))
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / total
