import statistics

import pytest

from stackbench.benchstats import (
    TooFewSamplesError,
    min_samples,
    percentile,
    samples_beyond,
    summarize,
    tail_percentile,
)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.99) == 7.0


def test_percentile_rejects_empty_and_bad_quantiles():
    with pytest.raises(TooFewSamplesError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_samples_beyond_counts_the_tail():
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(999, 0.99) == 9
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(0, 0.5) == 0


def test_tail_needs_ten_samples_beyond():
    values = [float(i) for i in range(1000)]
    assert tail_percentile(values, 0.99) == 989.0
    with pytest.raises(TooFewSamplesError, match="9 beyond"):
        tail_percentile(values[:999], 0.99)
    with pytest.raises(TooFewSamplesError):
        tail_percentile(values[:99], 0.9)
    assert tail_percentile(values[:100], 0.9) == 89.0


def test_min_samples_is_the_smallest_supported_sample():
    for q in (0.5, 0.9, 0.99, 0.999):
        n = min_samples(q)
        assert samples_beyond(n, q) >= 10
        assert samples_beyond(n - 1, q) < 10
    assert min_samples(0.9) == 100
    assert min_samples(0.99) == 1000
    assert min_samples(0.99, min_beyond=1) == 100


def test_summarize_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 10.8, 9.9, 10.1]
    q1, median, q3 = statistics.quantiles(values, n=4)
    summary = summarize(values)
    assert summary == {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    with pytest.raises(TooFewSamplesError):
        summarize([1.0])
