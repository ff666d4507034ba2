"""Reduction of pass records to a run's metrics."""

from __future__ import annotations

import statistics

# Candidate tail percentiles in tenths of a percent, highest first.
_TAILS = (999, 990, 900)


def tail_percentile(samples):
    """(p, value) for the highest candidate percentile that has at least ten
    samples beyond it (nearest rank), or None if there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in _TAILS:
        rank = -(-p * n // 1000)  # nearest rank, ceil(p/1000 * n) in integers
        if n - rank >= 10:
            return p / 10, xs[rank - 1]
    return None


def timing(samples):
    """Median, tail percentile and sample count of a list of times."""
    return {
        "median": statistics.median(samples) if samples else None,
        "tail": tail_percentile(samples),
        "n": len(samples),
    }


def failed_share(records):
    return sum(not r["ok"] for r in records) / len(records)


def worst(values):
    """Largest value; None when any value is missing."""
    values = list(values)
    if not values or any(v is None for v in values):
        return None
    return max(values)
