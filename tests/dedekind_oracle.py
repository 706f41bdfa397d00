"""The Dedekind sum by its defining sawtooth sum over k - 1 terms.

This is the evaluator the package used before the reciprocity algorithm
replaced it, kept here unchanged as an independent oracle: it adds up every
term ((i/k)) ((h i/k)) in exact ``Fraction`` arithmetic and shares no code
with ``lorenzlinks.modular.dedekind_sum``.  Its cost is O(k), so tests keep
k at or below 10^4.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from lorenzlinks.errors import ValidationError


def _sawtooth(x: Fraction) -> Fraction:
    if x.denominator == 1:
        return Fraction(0)
    return x - floor(x) - Fraction(1, 2)


def direct_dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) = sum_{i=1}^{k-1} ((i/k)) ((h i / k)) with the sawtooth ((x))."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    return sum(
        (_sawtooth(Fraction(i, k)) * _sawtooth(Fraction(h * i, k)) for i in range(1, k)),
        Fraction(0),
    )
