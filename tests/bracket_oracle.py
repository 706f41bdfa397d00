"""The Kauffman bracket by the state sum over all 2^c smoothings.

This is the bracket evaluator the package used before the Temperley-Lieb
transfer evaluation replaced it, kept here as an independent oracle: it
enumerates every smoothing, counts loops by union-find and expands the loop
factors with its own dict product.  It shares no code with
``lorenzlinks.jones`` beyond the errors and ``LaurentPoly``, which it uses
only as the read-only type of the value it returns, so results compare with
``==``.  Its cost is 2^c, so tests keep c small.
"""

from __future__ import annotations

from typing import Sequence

from lorenzlinks.errors import ResourceCapError, ValidationError
from lorenzlinks.jones import DEFAULT_MAX_CROSSINGS, LaurentPoly


def _crossing_positions(crossings: Sequence) -> list[int]:
    positions = []
    for crossing in crossings:
        positions.append(int(getattr(crossing, "position", crossing)))
    return positions


def state_sum_bracket(
    crossings: Sequence,
    n: int,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> LaurentPoly:
    """Bracket polynomial (in A) of the closure of a positive braid word.

    ``crossings`` is a braid word as generator positions, either bare ints or
    crossing records with a ``position`` attribute.  States are enumerated in
    binary-counter order (bit j set = B-smoothing at crossing j); a type-B
    smoothing merges the two incoming arcs at a cap and opens one fresh arc
    at the cup, so loop counting is union-find over the arc endpoints, with
    the braid closure identifying bottom and top positions.
    """
    if n < 1:
        raise ValidationError("strand count must be >= 1")
    positions = _crossing_positions(crossings)
    for p in positions:
        if not 1 <= p <= n - 1:
            raise ValidationError(f"generator index {p} outside 1..{n - 1}")
    c = len(positions)
    if c > max_crossings:
        raise ResourceCapError(f"{c} crossings exceeds the limit of {max_crossings}")
    pos0 = [p - 1 for p in positions]

    # multiplicity of each (a_count - b_count, loop_count) pair over all states
    counts: dict[tuple[int, int], int] = {}
    base = list(range(n))
    for state in range(1 << c):
        parent = base.copy()
        arc = base.copy()
        fresh = n
        bits = state
        for p in pos0:
            if bits & 1:
                x = arc[p]
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                y = arc[p + 1]
                while parent[y] != y:
                    parent[y] = parent[parent[y]]
                    y = parent[y]
                if x != y:
                    parent[x] = y
                parent.append(fresh)
                arc[p] = arc[p + 1] = fresh
                fresh += 1
            bits >>= 1
        for i in range(n):
            x = arc[i]
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            y = i
            while parent[y] != y:
                parent[y] = parent[parent[y]]
                y = parent[y]
            if x != y:
                parent[x] = y
        loops = 0
        for i in range(fresh):
            if parent[i] == i:
                loops += 1
        key = (c - 2 * state.bit_count(), loops)
        counts[key] = counts.get(key, 0) + 1

    # d^k for d = -A^2 - A^-2, as {quarter exponent: coefficient}
    max_loops = max(loops for _, loops in counts)
    delta_powers: list[dict[int, int]] = [{0: 1}]
    for _ in range(max_loops - 1):
        power: dict[int, int] = {}
        for e, coeff in delta_powers[-1].items():
            for shift in (8, -8):
                power[e + shift] = power.get(e + shift, 0) - coeff
        delta_powers.append(power)
    total: dict[int, int] = {}
    for (net_a, loops), multiplicity in counts.items():
        for e, coeff in delta_powers[loops - 1].items():
            exponent = e + 4 * net_a
            total[exponent] = total.get(exponent, 0) + multiplicity * coeff
    return LaurentPoly(total)
