"""Percentiles, the sample-count rule, the FIFO replay and the search helpers."""

import math

import pytest

import benchstats
from benchstats import (
    end_backlog,
    highest_passing,
    percentile,
    replay_fifo,
    required_samples,
    slo_met,
)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 0.5) == 50
    assert percentile(samples, 0.99) == 99
    assert percentile(samples, 1.0) == 100
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([3, 1, 2], 0.0) == 1
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_p99_needs_ten_samples_beyond_it():
    assert required_samples(0.99) == 1000
    assert required_samples(0.5) == 20
    # At the threshold, exactly ten samples lie beyond the reported value.
    samples = list(range(1000))
    p99 = percentile(samples, 0.99)
    assert sum(1 for s in samples if s > p99) == 10


def test_replay_fifo_queues_behind_slow_requests():
    # 10 requests/s; the first takes 0.35 s and delays the next three.
    latencies = replay_fifo([0.35, 0.05, 0.05, 0.05, 0.05], rate=10.0)
    assert latencies == pytest.approx([0.35, 0.30, 0.25, 0.20, 0.15])
    # Below saturation with short services nothing queues.
    assert replay_fifo([0.01] * 4, rate=10.0) == pytest.approx([0.01] * 4)


def test_slo_counts_failures_and_checks_the_second_half():
    fast = [0.010] * 200
    assert slo_met(fast, failed=0, limit=0.05)
    assert not slo_met(fast, failed=3, limit=0.05)  # 3/203 > 1% missing
    # A backlog growing through the run: the tail sits in the second half.
    growing = [0.010] * 180 + [0.010 * k for k in range(1, 21)]
    assert percentile(growing, 0.99) > 0.05
    assert not slo_met(growing, failed=0, limit=0.05)


def test_highest_passing_bisects_a_monotone_predicate():
    probed = []

    def passes(index):
        probed.append(index)
        return index <= 37

    assert highest_passing(passes, 0, 100) == 37
    assert len(probed) <= 8
    assert highest_passing(lambda index: False, 0, 10) is None
    assert highest_passing(lambda index: True, 0, 10) == 10


def test_end_backlog_counts_requests_sent_after_the_last_due_time():
    dues = [0.0, 0.1, 0.2, 0.3]
    assert end_backlog(dues, [0.0, 0.1, 0.2, 0.3]) == 0
    assert end_backlog(dues, [0.0, 0.25, 0.35, 0.45]) == 2


def test_rate_grid_steps_are_five_percent():
    assert benchstats.rate_grid(0, 1.0, 0.05) == 1.0
    assert benchstats.rate_grid(10, 1.0, 0.05) / benchstats.rate_grid(9, 1.0, 0.05) == pytest.approx(1.05)
    assert math.isclose(benchstats.rate_grid(2, 10.0, 0.01), 10.0 * 1.01 ** 2)


def test_replay_capacity_is_the_median_window():
    import workload

    steady = [0.002] * 5000
    stalled = list(steady)
    stalled[2500] = 0.6
    capacity = workload.replay_capacity(steady, 0, 0.25)
    assert 480 < capacity <= 500
    assert workload.replay_capacity(stalled, 0, 0.25) == capacity
