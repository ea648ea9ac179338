"""Reference values the benchmark checks results against.

Nothing here imports combinatoria or repeats its formulas: factorials and
binomials are plain products, p(n) comes from the parts-by-parts counting
DP (the library uses Euler's pentagonal recurrence), and D(m) from
D(m) = m*D(m-1) + (-1)^m (the library uses (m-1)*(D(m-1) + D(m-2))).
"""
from __future__ import annotations

import math


def factorial(n: int) -> int:
    return math.prod(range(2, n + 1))


def binom(n: int, k: int) -> int:
    if not 0 <= k <= n:
        return 0
    k = min(k, n - k)
    return math.prod(range(n - k + 1, n + 1)) // math.prod(range(2, k + 1))


def personae(gradus: int) -> int:
    return (gradus + 1) << gradus


def two_parts(m: int) -> int:
    """Partitions of m into two parts, by listing the pairs (a, m - a)."""
    return sum(1 for a in range(1, m) if a >= m - a)


class Tables:
    """Growing tables of p(n) and D(m), filled on demand."""

    def __init__(self) -> None:
        self._p = [1]
        self._d = [1]

    def partitions(self, n: int) -> int:
        if n >= len(self._p):
            top = max(n, 2 * len(self._p))
            p = [1] + [0] * top
            for part in range(1, top + 1):
                for total in range(part, top + 1):
                    p[total] += p[total - part]
            self._p = p
        return self._p[n]

    def derangements(self, m: int) -> int:
        d = self._d
        while len(d) <= m:
            k = len(d)
            d.append(k * d[-1] + (-1 if k % 2 else 1))
        return d[m]

    def caput(self, n: int, k: int, mode: str) -> int:
        if mode == "loose":
            return factorial(n - k)
        if mode == "exact":
            return self.derangements(n - k)
        return factorial(k) * factorial(n - k)


def cycle_lengths(image) -> list[int]:
    """Cycle lengths of a one-line image (1-based), in order of first point."""
    seen = [False] * (len(image) + 1)
    out = []
    for start in range(1, len(image) + 1):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            length += 1
            x = image[x - 1]
        if length:
            out.append(length)
    return out
