"""Fig 12: per-slot processing time vs the number of tracked UEs.

Paper result: processing time grows linearly with the number of tracked
UEs (O(n log n) signal processing + O(m) DCI decoding); four threads
keep larger cells within the TTI budget.  This reproduction runs the
same pipeline inline in Python with no thread axis — the linear trend
in m is the portable observation (see EXPERIMENTS.md).
"""

from repro.analysis.report import print_tables
from repro.experiments import fig12_processing as fig12

UE_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128)


def test_fig12_processing_time(once):
    rows = once(fig12.run, ue_counts=UE_COUNTS, n_slots=3)
    result = fig12.to_result(rows)
    print()
    print_tables([fig12.table(rows)])
    print("summary:", {k: round(v, 2) for k, v in result.summary.items()})

    amarisoft = sorted(
        (r.n_ues, r.mean_us) for r in rows if r.profile == "amarisoft")

    # Shape: monotone growth with the UE count (allowing timer noise).
    times = [t for _, t in amarisoft]
    assert times[-1] > times[0], "more UEs must cost more"
    grew = sum(b >= a * 0.9 for a, b in zip(times, times[1:]))
    assert grew >= len(times) - 2, f"trend not monotone: {times}"

    # Shape: linear-ish, not quadratic — 128x the UEs costs far less
    # than 128^2 the time.
    assert times[-1] / times[0] < 128, \
        "per-UE cost must stay sub-linear in total (shared FFT amortised)"
