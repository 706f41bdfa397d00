"""Closed-form invariants of Lorenz links, read off the braid by counting.

Seifert's algorithm applied to the closure of a positive braid on n strands
with c crossings yields a minimal-genus surface built from n disks and c
bands, so chi = n - c and, for knots, 2g = c - n + 1.  The braid index is
min(|LR|, |RL|), the number of strands passing between the two lobes, and
the minimum crossing number of a knotted closure is realized at that braid
index: c_min = 2g + n_min - 1.  All three are invariant under the order-2
symmetry that rotates the template half a turn (swapping the lobes).

`compute_record` is the one reader: it returns every invariant as a plain
dict under the atlas record's own keys and in its key order, so the atlas,
`word info` and library callers read one schema, by key.
"""

from __future__ import annotations

from .braid import LorenzBraid
from .errors import InternalInconsistencyError


def compute_record(braid: LorenzBraid) -> dict:
    """Every invariant of one braid closure, from the braid's trip, crossing
    and ear counts: the atlas record of a word, less its word, length and
    Jones fields, under the atlas keys and in the atlas order.

    ``n`` and ``c`` count strands and crossings, ``trip`` lists the
    (displacement p_i, multiplicity q_i) blocks of the rightward strands and
    ``LL``, ``LR``, ``RL``, ``RR`` count strands by ear type.  ``genus``,
    ``c_min`` (the minimum crossing number) and ``torus`` are None for
    multi-component links; ``chi`` is always the Euler characteristic n - c
    of the fiber surface.  For knots with braid_index >= 2,
    c_min == 2 * genus + braid_index - 1.

    A closure confined to a single lobe is an unlink of lobe-boundary
    circles, of braid index 1 per circle, so c_min is 0 for the degenerate
    unknots (g = 0, n_min = 1).  A knot whose rightward strands share one
    displacement (a single trip block: q strands of displacement p) is the
    (p, q) torus knot.  That detection is sufficient, not complete: a braid
    with several trip blocks may still close to a torus knot.
    """
    ll, lr, rl, rr = braid.ear_counts
    crossings = braid.crossings
    trip = braid.trip
    components = braid.component_count
    index = min(lr, rl) or 1
    g = c_min = torus = None
    if components == 1:
        two_g = crossings - braid.n + 1
        if two_g % 2:
            raise InternalInconsistencyError(f"c - n + 1 = {two_g} is odd")
        if two_g < 0:
            raise InternalInconsistencyError(f"c - n + 1 = {two_g} is negative")
        g = two_g // 2
        c_min = two_g + index - 1
        torus = trip[0] if len(trip) == 1 else None
    return {
        "components": components,
        "n": braid.n,
        "c": crossings,
        "trip": trip,
        "LL": ll,
        "LR": lr,
        "RL": rl,
        "RR": rr,
        "genus": g,
        "chi": braid.n - crossings,
        "braid_index": index,
        "c_min": c_min,
        "torus": torus,
    }

