"""Order statistics of per-call wall times.

An unsolved call counts as +inf: it misses any latency limit.  The tail is the
highest nearest-rank percentile that still has at least ten samples above it.
Rates and shares weigh every grid cell equally (`per_pass`), whatever the
number of instances a workload gives it.
"""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def median(samples: list[float]) -> float:
    """Median; +inf when at least half of the samples are +inf."""
    s = sorted(samples)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    if n % 2:
        return s[n // 2]
    lo, hi = s[n // 2 - 1], s[n // 2]
    return hi if math.isinf(hi) else (lo + hi) / 2


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile) at rank N-10 of N sorted samples, or None when N <= 10.

    The value at rank k has N-k samples beyond it, so rank N-10 is the highest
    one with ten beyond; its percentile is 100*(N-10)/N.
    """
    n = len(samples)
    k = n - TAIL_BEYOND
    if k < 1:
        return None
    return sorted(samples)[k - 1], 100 * k / n


def per_pass(cells: list[str], solved: list[bool], seconds: list[float]) -> tuple[float, float, int]:
    """Solved count and seconds expected of one pass calling every cell once:
    the sums over cells of each cell's mean.  Returns (solved, seconds, cells)."""
    by_cell: dict[str, list[tuple[bool, float]]] = {}
    for cell, ok, s in zip(cells, solved, seconds, strict=True):
        by_cell.setdefault(cell, []).append((ok, s))
    return (sum(sum(ok for ok, _ in v) / len(v) for v in by_cell.values()),
            sum(sum(s for _, s in v) / len(v) for v in by_cell.values()),
            len(by_cell))


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (statistics.quantiles, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
