"""The estimators: tail rule, per-call medians, plain throughput."""

import statistics

import pytest

from perfbench import stats


def test_tail_needs_ten_samples_beyond():
    assert stats.supported_tail(19) is None
    assert stats.supported_tail(20) == 500
    assert stats.supported_tail(199) == 900
    assert stats.supported_tail(200) == 950
    assert stats.supported_tail(999) == 950
    assert stats.supported_tail(1000) == 990
    assert stats.supported_tail(10_000) == 999
    # every committed stream reports p90; a --quick one what it supports
    assert stats.reported_tail(100) == stats.reported_tail(1200) == stats.TAIL
    assert stats.reported_tail(64) == 750
    assert stats.reported_tail(8) == 500


@pytest.mark.parametrize("n", [200, 201, 240, 1000, 1200])
def test_percentile_leaves_the_samples_it_claims(n):
    values = list(range(n))
    p95 = stats.percentile(values, 950)
    beyond = sum(v > p95 for v in values)
    assert beyond == stats.samples_beyond(950, n) >= stats.MIN_BEYOND
    # nearest rank: at least 95% of the samples are at or below it
    assert sum(v <= p95 for v in values) >= 0.95 * n


def test_percentile_is_a_measured_sample_and_order_free():
    values = [5.0, 1.0, 9.0, 3.0, 7.0]
    assert stats.percentile(values, 500) == 5.0
    assert stats.percentile(values, 999) == 9.0
    with pytest.raises(ValueError):
        stats.percentile([], 500)


def test_per_call_median_takes_each_call_across_its_replays():
    replays = [[1.0, 10.0, 5.0], [2.0, 30.0, 5.0], [9.0, 20.0, 5.0]]
    assert stats.per_call_median(replays) == [2.0, 20.0, 5.0]
    with pytest.raises(ValueError):
        stats.per_call_median([[1.0, 2.0], [1.0]])


def test_throughput_is_plain_and_counts_the_heaviest_call_in_full():
    light, heavy = [1.0, 1.0, 2.0], [1.0, 1.0, 98.0]
    assert stats.throughput(300, [light]) == 75.0
    assert stats.throughput(300, [heavy]) == 3.0
    # the run's number is the median replay, not the best one
    assert stats.throughput(300, [light, heavy, heavy]) == 3.0


def test_spread_is_interquartile_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([4.2]) == 0.0
