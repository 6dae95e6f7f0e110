"""Unit tests of the shard job protocol shared by every sharded run.

``chunk_ranges`` must partition the start candidates exactly, and
:class:`ParallelStats` must report the load-balance figures Figure 16
plots: total work, the measured work speed-up and the simulated
dynamic-schedule speed-up.
"""

import pytest

from repro.matching.shard_protocol import ParallelStats, chunk_ranges


def stats(per_worker=(), per_chunk=(), workers=2):
    return ParallelStats(
        workers=workers,
        chunk_size=1,
        elapsed_ms=0.0,
        solutions=0,
        per_worker_work=list(per_worker),
        per_chunk_work=list(per_chunk),
    )


class TestChunkRanges:
    @pytest.mark.parametrize("total,chunk_size", [(0, 4), (1, 4), (10, 3), (12, 4), (5, 0)])
    def test_ranges_partition_exactly(self, total, chunk_size):
        ranges = chunk_ranges(total, chunk_size)
        covered = [index for lo, hi in ranges for index in range(lo, hi)]
        assert covered == list(range(total))
        assert all(0 < hi - lo <= max(1, chunk_size) for lo, hi in ranges)


class TestParallelStats:
    def test_total_work_sums_workers(self):
        assert stats(per_worker=[3, 5, 2]).total_work == 10

    def test_work_speedup_is_total_over_busiest(self):
        assert stats(per_worker=[6, 2]).work_speedup == pytest.approx(8 / 6)
        assert stats(per_worker=[4, 4]).work_speedup == pytest.approx(2.0)

    def test_work_speedup_without_work_counts_workers(self):
        assert stats(per_worker=[0, 0, 0]).work_speedup == 3.0
        assert stats(per_worker=[]).work_speedup == 1.0

    def test_simulated_speedup_replays_a_greedy_schedule(self):
        # Longest-first onto the least-loaded worker: 5 | 4 -> 5 | 4+3 ->
        # 5+2 | 7 -> busiest 7 of total 14.
        assert stats(per_chunk=[2, 5, 3, 4]).simulated_speedup(2) == pytest.approx(2.0)
        # One dominant chunk caps the speed-up however many workers run.
        assert stats(per_chunk=[9, 1, 1, 1]).simulated_speedup(4) == pytest.approx(12 / 9)

    def test_simulated_speedup_degenerate_cases(self):
        assert stats(per_chunk=[3, 3], workers=1).simulated_speedup() == 1.0
        assert stats(per_chunk=[]).simulated_speedup(4) == 1.0
        assert stats(per_chunk=[0, 0]).simulated_speedup(3) == 3.0
