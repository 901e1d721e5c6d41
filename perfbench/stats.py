"""Median and quartile summaries of repeated measurements."""

from __future__ import annotations

import statistics


def summary(values):
    """Median, first and third quartile and sample count of ``values``.

    Quartiles are ``statistics.quantiles(values, n=4)`` (exclusive method);
    a single value is its own quartiles.
    """
    values = list(values)
    if not values:
        raise ValueError("summary of no values")
    median = statistics.median(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values):
    """Interquartile distance as a share of the median (0 for a zero median)."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
