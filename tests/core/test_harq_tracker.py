"""Tests for the sniffer-side NDI/HARQ tracker."""

import pytest

from repro.core.harq_tracker import HarqTrackerBank, HarqTrackerError, \
    UeHarqTracker


class TestUeHarqTracker:
    def test_first_observation_is_new_data(self):
        tracker = UeHarqTracker()
        assert not tracker.observe(0, ndi=1, downlink=True)

    def test_toggle_means_new_data(self):
        tracker = UeHarqTracker()
        tracker.observe(0, 0, True)
        assert not tracker.observe(0, 1, True)
        assert not tracker.observe(0, 0, True)

    def test_repeat_means_retransmission(self):
        tracker = UeHarqTracker()
        tracker.observe(3, 1, True)
        assert tracker.observe(3, 1, True)
        assert tracker.observe(3, 1, True)  # still unacknowledged

    def test_processes_independent(self):
        tracker = UeHarqTracker()
        tracker.observe(0, 1, True)
        assert not tracker.observe(1, 1, True)  # different process

    def test_directions_independent(self):
        tracker = UeHarqTracker()
        tracker.observe(0, 1, downlink=True)
        assert not tracker.observe(0, 1, downlink=False)

    def test_bad_harq_id(self):
        with pytest.raises(HarqTrackerError):
            UeHarqTracker().observe(16, 0, True)

    def test_missed_dci_aliases_as_retx(self):
        """A known failure mode the paper inherits: if the sniffer
        misses one DCI on a process, the next new-data DCI (toggled
        twice in between... i.e. appearing with an equal NDI) is
        misclassified. Two toggles look like a repeat."""
        tracker = UeHarqTracker()
        tracker.observe(0, 1, True)         # seen
        # missed: ndi 0 (new data)          # not observed
        assert tracker.observe(0, 1, True)  # new data, but looks repeated


class TestBank:
    def test_lazily_creates_trackers(self):
        bank = HarqTrackerBank()
        assert not bank.observe(0x4601, 0, 1, True)
        assert bank.rntis() == [0x4601]

    def test_ues_independent(self):
        bank = HarqTrackerBank()
        bank.observe(0x4601, 0, 1, True)
        assert not bank.observe(0x4602, 0, 1, True)

    def test_forget(self):
        bank = HarqTrackerBank()
        bank.observe(0x4601, 0, 1, True)
        bank.forget(0x4601)
        assert bank.rntis() == []
        # After forgetting, the same NDI is new data again.
        assert not bank.observe(0x4601, 0, 1, True)
