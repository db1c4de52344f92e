"""Tests for the n-round candidate filter."""

import numpy as np
import pytest

from repro.core.candidates import CandidateFilter
from repro.core.slots import SlotTable
from tests.conftest import make_process

THRESHOLD = 1_000_000  # 1 ms


@pytest.fixture
def process():
    return make_process(n_pages=64)


class TestTwoRoundFilter:
    def test_first_pass_creates_candidate(self, process):
        filt = CandidateFilter(n_rounds=2)
        result = filt.observe(
            process, np.array([3]), np.array([100]), THRESHOLD
        )
        assert result.ready_vpns.size == 0
        assert result.new_candidates == 1
        assert process.pages.candidate[3]
        assert filt.candidate_count(process) == 1

    def test_second_pass_promotes(self, process):
        filt = CandidateFilter(n_rounds=2)
        filt.observe(process, np.array([3]), np.array([100]), THRESHOLD)
        result = filt.observe(
            process, np.array([3]), np.array([200]), THRESHOLD
        )
        np.testing.assert_array_equal(result.ready_vpns, [3])
        assert not process.pages.candidate[3]
        assert filt.candidate_count(process) == 0

    def test_over_threshold_second_round_evicts(self, process):
        filt = CandidateFilter(n_rounds=2)
        filt.observe(process, np.array([3]), np.array([100]), THRESHOLD)
        result = filt.observe(
            process, np.array([3]), np.array([THRESHOLD + 1]), THRESHOLD
        )
        assert result.ready_vpns.size == 0
        assert result.rejected == 1
        assert filt.candidate_count(process) == 0

    def test_max_of_two_semantics(self, process):
        """Passing requires BOTH samples below threshold -- thresholding
        the max (Appendix B.1's estimator)."""
        filt = CandidateFilter(n_rounds=2)
        filt.observe(
            process, np.array([1, 2]), np.array([100, 100]), THRESHOLD
        )
        result = filt.observe(
            process,
            np.array([1, 2]),
            np.array([500, THRESHOLD + 5]),
            THRESHOLD,
        )
        np.testing.assert_array_equal(result.ready_vpns, [1])

    def test_candidate_cit_records_max(self, process):
        filt = CandidateFilter(n_rounds=2)
        filt.observe(process, np.array([7]), np.array([900]), THRESHOLD)
        assert process.pages.candidate_cit_ns[7] == 900

    def test_over_threshold_first_round_is_noop(self, process):
        filt = CandidateFilter(n_rounds=2)
        result = filt.observe(
            process, np.array([3]), np.array([THRESHOLD + 1]), THRESHOLD
        )
        assert result.new_candidates == 0
        assert result.rejected == 0
        assert filt.candidate_count(process) == 0


class TestRoundCounts:
    def test_one_round_promotes_immediately(self, process):
        filt = CandidateFilter(n_rounds=1)
        result = filt.observe(
            process, np.array([5]), np.array([10]), THRESHOLD
        )
        np.testing.assert_array_equal(result.ready_vpns, [5])

    def test_three_rounds(self, process):
        filt = CandidateFilter(n_rounds=3)
        for _ in range(2):
            result = filt.observe(
                process, np.array([5]), np.array([10]), THRESHOLD
            )
            assert result.ready_vpns.size == 0
        result = filt.observe(
            process, np.array([5]), np.array([10]), THRESHOLD
        )
        np.testing.assert_array_equal(result.ready_vpns, [5])

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            CandidateFilter(n_rounds=0)


class TestGranularity:
    def test_group_slots(self, process):
        filt = CandidateFilter(n_rounds=2, granularity_pages=16)
        # 64 pages / 16 per group = 4 slots.
        filt.observe(process, np.array([0]), np.array([10]), THRESHOLD)
        assert filt.candidate_count(process) == 1
        # Page flags untouched in group mode.
        assert not process.pages.candidate.any()

    def test_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            CandidateFilter(granularity_pages=0)


class TestHousekeeping:
    def test_drop(self, process):
        filt = CandidateFilter(n_rounds=2)
        filt.observe(
            process, np.array([1, 2]), np.array([10, 10]), THRESHOLD
        )
        filt.drop(process, np.array([1]))
        assert filt.candidate_count(process) == 1
        assert not process.pages.candidate[1]

    def test_footprint_bounded(self, process):
        filt = CandidateFilter(n_rounds=2)
        vpns = np.arange(10)
        filt.observe(process, vpns, np.full(10, 10), THRESHOLD)
        assert filt.footprint_bytes(process) == 10 * 16

    def test_parallel_array_validation(self, process):
        filt = CandidateFilter()
        with pytest.raises(ValueError):
            filt.observe(
                process, np.array([1, 2]), np.array([10]), THRESHOLD
            )

    def test_threshold_validation(self, process):
        filt = CandidateFilter()
        with pytest.raises(ValueError):
            filt.observe(process, np.array([1]), np.array([10]), 0)


class TestSlotTable:
    def test_growth_keeps_every_process_range(self):
        table = SlotTable(passes=np.int8, max_cit=np.int64)
        written = {}
        for pid in range(1, 40):
            passes, max_cit = table.views(pid, 3 + pid % 5)
            passes[:] = pid % 7
            max_cit[:] = pid * 1000
            written[pid] = (3 + pid % 5, pid % 7, pid * 1000)
        for pid, (n, rounds, cit) in written.items():
            passes, max_cit = table.views(pid, n)
            assert (passes == rounds).all() and (max_cit == cit).all()
        assert table.used == sum(n for n, _, _ in written.values())

    def test_ids_offset_each_process_range(self):
        table = SlotTable(round=np.int8)
        table.reserve([(7, 4), (3, 10)])
        ids = table.ids(
            [3, 7], [10, 4], np.array([0, 2, 3]), np.array([0, 9, 1])
        )
        np.testing.assert_array_equal(ids, [4, 13, 1])
