"""Property test: the one bounded histogram against exact nearest-rank.

:class:`repro.analysis.metrics.Histogram` keeps ``[count, sum]`` per
log-spaced bucket and answers a percentile with the mean of the bucket
that holds the nearest rank. The reference is the definition itself —
sort the raw list, take the nearest rank — and the bucket rule is
restated here (``bucket_of``) rather than imported, so a change to
either side shows.
"""

import random
from math import floor, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import Histogram

PERCENTILES = (0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0)

#: Latencies a simulated cluster produces: a microsecond to minutes.
latencies = st.floats(min_value=1e-6, max_value=200.0)


def bucket_of(seconds):
    """32 buckets per octave from 2**-30 s; the last takes 256 s and up."""
    return min(floor(32.0 * log2(seconds + 2.0 ** -30) + 960.0), 32 * 38 - 1)


def nearest_rank(samples, p):
    ordered = sorted(samples)
    rank = max(1, int(round(p / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def histogram_of(samples):
    histogram = Histogram()
    for seconds in samples:
        histogram.observe(seconds)
    return histogram


@settings(max_examples=300)
@given(st.lists(latencies, min_size=1, max_size=200))
def test_a_percentile_lies_in_the_bucket_of_the_exact_one(samples):
    histogram = histogram_of(samples)
    assert histogram.count == len(samples)
    assert histogram.mean == pytest.approx(sum(samples) / len(samples))
    for p in PERCENTILES:
        exact = nearest_rank(samples, p)
        sharing = [s for s in samples if bucket_of(s) == bucket_of(exact)]
        estimate = histogram.percentile(p)
        # The mean of the samples that share the bucket: between the
        # smallest and the largest of them, so less than one bucket
        # width — 2**(1/32) - 1 = 2.19 % — from the exact answer.
        assert min(sharing) * (1 - 1e-12) <= estimate
        assert estimate <= max(sharing) * (1 + 1e-12)
        assert estimate == pytest.approx(exact, rel=2.0 ** (1 / 32) - 1)


def test_smooth_distributions_are_within_one_and_a_half_percent():
    """The bucket-width bound is for adversarial data; on log-normal
    latencies the bucket mean sits near the bucket's middle."""
    rng = random.Random(23)
    worst = 0.0
    for _ in range(50):
        samples = [rng.lognormvariate(rng.uniform(-7.0, 0.0),
                                      rng.uniform(0.1, 1.5))
                   for _ in range(rng.randrange(200, 5000))]
        histogram = histogram_of(samples)
        for p in (50.0, 95.0, 99.0):
            exact = nearest_rank(samples, p)
            worst = max(worst, abs(histogram.percentile(p) - exact) / exact)
    assert worst <= 0.015


@given(latencies, st.integers(min_value=1, max_value=500))
def test_equal_samples_are_exact(seconds, n):
    summary = histogram_of([seconds] * n).summary()
    assert summary["count"] == n
    for key in ("mean", "p50", "p95", "p99"):
        assert summary[key] == pytest.approx(seconds, rel=1e-12)


@given(st.lists(latencies, max_size=100), st.lists(latencies, max_size=100))
def test_minus_the_copy_at_a_mark_is_the_suffix(before, after):
    histogram = histogram_of(before)
    mark = histogram.copy()
    for seconds in after:
        histogram.observe(seconds)
    window, suffix = histogram.minus(mark), histogram_of(after)
    assert mark.summary() == histogram_of(before).summary()
    assert {index: held for index, (held, _) in window.buckets.items()} == {
        index: held for index, (held, _) in suffix.buckets.items()}
    for key, value in suffix.summary().items():
        # The sums are differences of running totals: equal to rounding.
        assert window.summary()[key] == pytest.approx(value, rel=1e-9)


@given(st.lists(st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=1e-9),
    st.floats(min_value=256.0, max_value=1e9), latencies), max_size=50))
def test_every_sample_lands_in_one_of_the_fixed_buckets(samples):
    histogram = histogram_of(samples)
    assert histogram.count == len(samples)
    assert all(0 <= index < 32 * 38 for index in histogram.buckets)
    assert set(histogram.buckets) == {bucket_of(s) for s in samples}
    if not samples:
        assert histogram.summary() == {"count": 0.0, "mean": 0.0, "p50": 0.0,
                                       "p95": 0.0, "p99": 0.0}
