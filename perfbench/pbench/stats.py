"""Percentiles and the tail-rank rule used for every reported latency."""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, its value is set by a handful of outliers.
MIN_BEYOND = 10


def _rank_index(count, rank):
    """1-based nearest rank; the small slack keeps 99.9 % of 10000 at 9990
    despite binary rounding."""
    return math.ceil(rank / 100.0 * count - 1e-9)


def percentile(values, rank):
    """Nearest-rank percentile: the smallest sample with at least `rank` % of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < rank <= 100:
        raise ValueError("rank must be in (0, 100]")
    ordered = sorted(values)
    return ordered[max(0, _rank_index(len(ordered), rank) - 1)]


def beyond(count, rank):
    """Number of samples strictly above the nearest-rank percentile."""
    return count - _rank_index(count, rank)


def tail_rank_ok(count, rank):
    """True when `rank` leaves at least MIN_BEYOND samples beyond it."""
    return beyond(count, rank) >= MIN_BEYOND


def low(values):
    """10th percentile: the minimum when there are fewer than ten values."""
    return percentile(values, 10)


def best_per_position(samples, repeats):
    """`samples` holds `repeats` passes over the same positions, pass after
    pass; returns each position's fastest (smallest) sample."""
    if repeats < 1 or len(samples) % repeats:
        raise ValueError("samples do not split into equal passes")
    width = len(samples) // repeats
    return [min(samples[k * width + i] for k in range(repeats)) for i in range(width)]


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
