"""A fixed pure-Python kernel that measures how fast this machine runs
interpreted code right now.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes.  A pass times this kernel in its own process before
each request and after the last, and every end-to-end time is reported
scaled to a machine on which the kernel takes NOMINAL_S: drift cancels,
and a change to `iasi` does not, because the kernel uses no `iasi` code.
"""

from __future__ import annotations

import time
from statistics import median

NOMINAL_S = 0.025


def kernel() -> int:
    """Set, dict, tuple and integer work of the kind the library does: a
    greedy Sidon search, then sorting and indexing the pairwise sums."""
    terms: list[int] = []
    sums: set[int] = set()
    candidate = 0
    while len(terms) < 48:
        fresh = {candidate + t for t in terms} | {2 * candidate}
        if not fresh & sums:
            terms.append(candidate)
            sums |= fresh
        candidate += 1
    pairs = sorted(((a + b) % 1009, a, b) for a in terms for b in terms)
    index = {key: i for i, key in enumerate(pairs)}
    return len(index) + candidate


def seconds(repeats: int = 1) -> float:
    """Median time of `repeats` kernel runs."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return median(times)
