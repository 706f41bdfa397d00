"""The least rotation of a string in linear time, kept as test code.

Two candidate starts i < j are compared letter by letter; at the first
mismatch after k equal letters the larger side, and the k letters after it,
cannot start the least rotation, so that start jumps past them.  Each step
moves i, j or k forward and none passes 2n, so the cost is O(n): words of
tens of thousands of letters are checked where the min over every slice of
the doubled word would take quadratic time.  It shares no code with
``lorenzlinks.words.least_rotation``, which compares only the starts of the
longest L runs, and ``tests/test_words.py`` holds it to the min over slices.
"""

from __future__ import annotations


def least_rotation_oracle(text: str) -> str:
    n = len(text)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = text[(i + k) % n], text[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    start = min(i, j)
    return text[start:] + text[:start]
