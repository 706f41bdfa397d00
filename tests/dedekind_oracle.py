"""The Dedekind sum by its defining sawtooth sum over k - 1 terms.

This is the evaluator the package used before the reciprocity algorithm
replaced it, kept here as an independent oracle: it adds up every term
((i/k)) ((h i/k)) and shares no code with ``lorenzlinks.modular.dedekind_sum``.
For 0 < i < k, ((i/k)) = (2i - k) / 2k, and ((h i/k)) = (2r - k) / 2k with
r = h i mod k, or 0 when r = 0; so 4k^2 s(h, k) is an integer sum and one
``Fraction`` is built at the end.  Its cost is O(k), so tests keep k at or
below 10^4.
"""

from __future__ import annotations

from fractions import Fraction

from lorenzlinks.errors import ValidationError


def direct_dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) = sum_{i=1}^{k-1} ((i/k)) ((h i / k)) with the sawtooth ((x))."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    total = 0
    for i in range(1, k):
        r = h * i % k
        if r:
            total += (2 * i - k) * (2 * r - k)
    return Fraction(total, 4 * k * k)
