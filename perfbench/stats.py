"""Nearest-rank percentiles and the tail rule used for every timing.

A timing is reported as its median and the highest percentile on LADDER
that still has at least MIN_BEYOND samples above it, with the sample count.
"""

from __future__ import annotations

LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile q among n samples."""
    tenths = round(q * 10)
    return max(1, -(-tenths * n // 1000))


def percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(q, len(sorted_values)) - 1]


def tail_percentile(n: int, ladder=LADDER) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND of n samples beyond it."""
    best = None
    for q in ladder:
        if n - _rank(q, n) >= MIN_BEYOND:
            best = q if best is None else max(best, q)
    return best


def min_samples(q: float) -> int:
    """Fewest samples for which percentile q has MIN_BEYOND samples beyond it."""
    n = MIN_BEYOND + 1
    while n - _rank(q, n) < MIN_BEYOND:
        n += 1
    return n


def median(values) -> float:
    return percentile(sorted(values), 50.0)


def summary(values) -> dict:
    """count, p50, and every ladder percentile up to the highest that the
    count supports."""
    s = sorted(values)
    out = {"count": len(s)}
    if s:
        out["p50"] = percentile(s, 50.0)
        top = tail_percentile(len(s)) or 50.0
        for q in LADDER:
            if 50.0 < q <= top:
                out[f"p{q:g}"] = percentile(s, q)
    return out
