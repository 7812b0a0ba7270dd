"""Order statistics for benchmark samples.

A percentile is reported only when enough samples lie beyond it: a p90
read from 12 samples is one sample, not a tail.  The rule used
throughout is "at least MIN_BEYOND samples strictly above the value".
"""

from __future__ import annotations

import statistics

MIN_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)


def percentile(samples, p: float) -> float:
    """Linearly interpolated p-th percentile (numpy's default method)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(samples, value: float) -> int:
    """Number of samples strictly above value."""
    return sum(1 for s in samples if s > value)


def reportable(samples, p: float, min_beyond: int = MIN_BEYOND) -> float | None:
    """The p-th percentile, or None when fewer than min_beyond samples exceed it."""
    if not samples:
        return None
    value = percentile(samples, p)
    return value if beyond(samples, value) >= min_beyond else None


def highest_tail(samples, ladder=TAIL_LADDER, min_beyond: int = MIN_BEYOND):
    """(p, value) for the highest percentile in ladder that is reportable, else None."""
    for p in ladder:
        value = reportable(samples, p, min_beyond)
        if value is not None:
            return p, value
    return None


def fastest_per_input(slots, walls, cpus) -> dict:
    """slot -> (wall, cpu) of the fastest of that input's runs (best of k).

    A shared machine has slow phases lasting seconds; an input timed k
    times across a run has its best time hit by a slow phase only when all
    k runs are.
    """
    best: dict = {}
    for slot, wall, cpu in zip(slots, walls, cpus):
        if slot not in best or wall < best[slot][0]:
            best[slot] = (wall, cpu)
    return best


def ratio_per_input(slots, walls, refs) -> float:
    """Mean over inputs of the median of (op wall / reference wall just before it).

    The host's speed drift slows an op and the reference run next to it
    alike, so the ratio keeps the op's cost and drops the drift.
    """
    ratios: dict = {}
    for slot, wall, ref in zip(slots, walls, refs):
        ratios.setdefault(slot, []).append(wall / ref)
    return statistics.fmean(statistics.median(r) for r in ratios.values())


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with statistics.quantiles(n=4) quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
