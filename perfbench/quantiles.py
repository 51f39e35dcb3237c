"""Percentile rules and output digests shared by the benchmark's reports."""

from __future__ import annotations

import hashlib

# Tail percentiles tried from the highest down, in tenths of a percent.
TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def tail(values):
    """The highest ladder percentile with at least ten samples beyond it.

    Percentiles are nearest-rank: the value at rank ``ceil(p * n)``.

    Returns ``(percentile, value, samples)``, or ``None`` when even the
    median has fewer than ten samples above it (fewer than 20 values).
    """
    ordered = sorted(values)
    n = len(ordered)
    for permille in TAIL_LADDER_PERMILLE:
        k = -(-permille * n // 1000)
        if k >= 1 and n - k >= MIN_BEYOND:
            return permille / 10, ordered[k - 1], n
    return None


def weighted_median(pairs):
    """The median of ``(value, weight)`` pairs: the value at half the weight.

    Where half the weight falls between two values, their mean, so equal
    weights give ``statistics.median``.
    """
    ordered = sorted(pairs)
    half = sum(weight for _, weight in ordered) / 2
    below = 0
    for i, (value, weight) in enumerate(ordered):
        below += weight
        if below > half:
            return value
        if below == half:
            return (value + ordered[i + 1][0]) / 2
    raise ValueError("weighted_median of no weight")


def digest(texts) -> str:
    """Short stable fingerprint of a sequence of texts, order included."""
    h = hashlib.sha256()
    for text in texts:
        h.update(len(text).to_bytes(8, "little"))
        h.update(text.encode("utf-8"))
    return h.hexdigest()[:16]
