"""Markov destabilization of a positive braid word, one index at a time.

This is the loop the package used before the one-pass trim replaced it,
kept here as an independent oracle: while the highest index used occurs
once it is removed, else while the lowest does it is removed and every index
above it moves down by one.  It shares no code with
``lorenzlinks.jones._destabilize``.  Each removal costs O(c), so O(c^2) in all.
"""

from __future__ import annotations

from collections import Counter


def loop_destabilize(positions: list[int], n: int) -> tuple[list[int], int, int]:
    """The reduced word, its strand count and the number of crossings removed."""
    counts = Counter(positions)
    removed = 0
    while counts:
        high, low = max(counts), min(counts)
        if counts[high] == 1:
            positions = [p for p in positions if p != high]
            del counts[high]
        elif counts[low] == 1:
            positions = [p - (p > low) for p in positions if p != low]
            counts = {p - (p > low): k for p, k in counts.items() if p != low}
        else:
            break
        removed += 1
    return positions, n - removed, removed
