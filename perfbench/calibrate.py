"""How fast the host runs plain Python right now, from a fixed reference kernel.

The host is shared: the speed of identical calls drifts by up to a factor of
two over minutes and by about 15 % from one call to the next, in wall and CPU
time alike, so raw seconds measure the neighbours as much as the program.
The benchmark therefore runs a fixed kernel between its timed calls (never
inside one) and scales every time it reports by

    factor = mean kernel time in the same phase / REF_NOMINAL_S

so a reported second is a second at the host speed the kernel took
REF_NOMINAL_S at.  The kernel does not import `hampow`, so no change to the
program moves it; it mixes the operations the program spends its time on:
exact rational elimination (the LP), set-intersection clique search (clique
enumeration, the oracle), JSON parsing (graph load) and dict/list work.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

# median kernel time on an idle 2-vCPU Intel Xeon at 2.0 GHz, Python 3.11.7
REF_NOMINAL_S = 0.0150
SAMPLE_EVERY_S = 0.25  # at most one kernel run per this much measuring time

_RNG = random.Random(20210621)
_MATRIX = [[_RNG.randrange(-9, 10) for _ in range(11)] for _ in range(10)]
_ADJ = [set() for _ in range(56)]
for _u in range(56):
    for _v in range(_u + 1, 56):
        if _RNG.random() < 0.5:
            _ADJ[_u].add(_v)
            _ADJ[_v].add(_u)
_DOC = json.dumps({"parts": [list(range(i, 300, 3)) for i in range(3)],
                   "edges": [[u, v] for u in range(300) for v in range(u + 1, u + 30, 3)]})


def kernel() -> tuple[Fraction, int, int]:
    """A fixed amount of work; returns its results so nothing is skipped."""
    m = [[Fraction(a) for a in row] for row in _MATRIX]
    n = len(m)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    cliques = 0

    def rec(start: int, common: set[int], depth: int) -> None:
        nonlocal cliques
        if depth == 4:
            cliques += 1
            return
        for v in sorted(common):
            if v >= start:
                rec(v + 1, common & _ADJ[v], depth + 1)

    rec(0, set(range(len(_ADJ))), 0)
    doc = json.loads(_DOC)
    degree: dict[int, int] = {}
    for u, v in doc["edges"]:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return m[0][n], cliques, max(degree.values())


class Calibrator:
    """Kernel samples of one phase of a run; `factor` scales that phase's times."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def maybe(self) -> None:
        """Sample when SAMPLE_EVERY_S has passed since the last sample."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Mean kernel time over REF_NOMINAL_S: above 1 means a slow host.

        The mean, not the median, because the times it scales are summed too.
        """
        if not self.samples:
            self.sample()
        return sum(self.samples) / len(self.samples) / REF_NOMINAL_S
