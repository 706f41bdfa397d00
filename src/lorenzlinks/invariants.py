"""Closed-form invariants of Lorenz links, read off the braid by counting.

Seifert's algorithm applied to the closure of a positive braid on n strands
with c crossings yields a minimal-genus surface built from n disks and c
bands, so chi = n - c and, for knots, 2g = c - n + 1.  The braid index is
min(|LR|, |RL|), the number of strands passing between the two lobes; a
LorenzBraid's two counts are equal by construction, so |LR| is read.  The
field c_min = 2g + b - 1, for braid index b, counts the crossings of any
positive braid on b strands that closes to the knot, since the same count
2g = c - n + 1 holds on it with n = b.  So it is an upper bound on the
crossing number.  The Jones span certifies it only at braid index 2, where
the knot is T(2, 2g + 1) with 2g + 1 crossings.  Genus, braid index and
c_min are invariant under the order-2 symmetry that rotates the template
half a turn (swapping the lobes).

`record_values` is the one implementation: it returns every invariant as a
tuple in the order of `RECORD_KEYS`, the atlas record's own keys in its key
order.  The atlas builder writes a line straight from that tuple, and
`compute_record` pairs it with the keys, so `word info` and library callers
read the same schema, by key.
"""

from __future__ import annotations

from .braid import LorenzBraid
from .errors import InternalInconsistencyError

# the invariant keys of an atlas record, in its key order; the record puts
# "word" and "length" before them and "jones" after
RECORD_KEYS = (
    "components", "n", "c", "trip", "LL", "LR", "RL", "RR",
    "genus", "chi", "braid_index", "c_min", "torus",
)


def record_values(braid: LorenzBraid) -> tuple:
    """Every invariant of one braid closure, from the braid's trip, crossing
    and ear counts, in the order of ``RECORD_KEYS``: the atlas record of a
    word, less its word, length and Jones fields.

    ``n`` and ``c`` count strands and crossings, ``trip`` lists the
    (displacement p_i, multiplicity q_i) blocks of the rightward strands and
    ``LL``, ``LR``, ``RL``, ``RR`` count strands by ear type.  ``genus``,
    ``c_min`` (an upper bound on the crossing number) and ``torus`` are None
    for multi-component links; ``chi`` is always the Euler characteristic
    n - c of the fiber surface.  For knots with braid_index >= 2,
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
    n = braid.n
    trip = braid.trip
    components = braid.component_count
    index = lr or 1  # LR = RL on every LorenzBraid
    g = c_min = torus = None
    if components == 1:
        two_g = crossings - n + 1
        if two_g % 2:
            raise InternalInconsistencyError(f"c - n + 1 = {two_g} is odd")
        if two_g < 0:
            raise InternalInconsistencyError(f"c - n + 1 = {two_g} is negative")
        g = two_g // 2
        c_min = two_g + index - 1
        torus = trip[0] if len(trip) == 1 else None
    return (components, n, crossings, trip, ll, lr, rl, rr,
            g, n - crossings, index, c_min, torus)


def compute_record(braid: LorenzBraid) -> dict:
    """``record_values`` under ``RECORD_KEYS``: every invariant of one braid
    closure as a plain dict, in the atlas key order."""
    return dict(zip(RECORD_KEYS, record_values(braid)))
