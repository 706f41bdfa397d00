"""Closed-form invariants of Lorenz links, read off the braid by counting.

Seifert's algorithm applied to the closure of a positive braid on n strands
with c crossings yields a minimal-genus surface built from n disks and c
bands, so chi = n - c and, for knots, 2g = c - n + 1.  The braid index is
min(|LR|, |RL|), the number of strands passing between the two lobes, and
the minimum crossing number of a knotted closure is realized at that braid
index: c_min = 2g + n_min - 1.  All three are invariant under the order-2
symmetry that rotates the template half a turn (swapping the lobes).
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import LorenzBraid, strand_profile
from .errors import NotAKnotError, ParityError


@dataclass(frozen=True)
class InvariantRecord:
    """Invariants of one closed Lorenz braid.

    ``genus``, ``min_crossings`` and ``torus`` are None for multi-component
    links; ``chi`` is always the Euler characteristic n - c of the fiber
    surface.  For knots with braid_index >= 2,
    min_crossings == 2 * genus + braid_index - 1.
    """

    components: int
    strands: int
    crossings: int
    genus: int | None
    chi: int
    braid_index: int
    min_crossings: int | None
    torus: tuple[int, int] | None


def euler_characteristic(braid: LorenzBraid) -> int:
    """chi of the fiber surface of the closure: strands minus crossings."""
    return braid.n - braid.crossings


def genus(braid: LorenzBraid) -> int:
    """Genus of the closure, defined for knots only: g = (c - n + 1) / 2."""
    if braid.component_count != 1:
        raise NotAKnotError(f"closure has {braid.component_count} components")
    two_g = braid.crossings - braid.n + 1
    if two_g % 2:
        raise ParityError(f"c - n + 1 = {two_g} is odd")
    if two_g < 0:
        raise ParityError(f"c - n + 1 = {two_g} is negative")
    return two_g // 2


def braid_index(braid: LorenzBraid) -> int:
    """Minimal strand count over all closed-braid presentations.

    Equals min(|LR|, |RL|), except that a closure confined to a single lobe
    is an unlink of lobe-boundary circles and has braid index 1 per circle.
    """
    _, lr, rl, _ = braid.ear_counts
    return min(lr, rl) if min(lr, rl) > 0 else 1


def min_crossings(braid: LorenzBraid) -> int:
    """Minimum crossing number of a knotted closure: 2g + n_min - 1.

    The minimum is realized at minimal braid index for these links; the
    formula also returns 0 for the degenerate unknots (g = 0, n_min = 1).
    """
    if braid.component_count != 1:
        raise NotAKnotError(f"closure has {braid.component_count} components")
    return 2 * genus(braid) + braid_index(braid) - 1


def is_torus(braid: LorenzBraid) -> tuple[int, int] | None:
    """(p, q) when every rightward strand shares one displacement, else None.

    A single trip group (q strands of displacement p) closes to the (p, q)
    torus knot.  Detection is sufficient, not complete: a braid with several
    trip groups may still close to a torus knot.
    """
    if braid.component_count != 1:
        raise NotAKnotError(f"closure has {braid.component_count} components")
    trip = strand_profile(braid).trip
    if len(trip) == 1:
        return trip[0]
    return None


def compute_record(braid: LorenzBraid) -> InvariantRecord:
    """Bundle every invariant of one braid closure."""
    mu = braid.component_count
    knot = mu == 1
    return InvariantRecord(
        components=mu,
        strands=braid.n,
        crossings=braid.crossings,
        genus=genus(braid) if knot else None,
        chi=euler_characteristic(braid),
        braid_index=braid_index(braid),
        min_crossings=min_crossings(braid) if knot else None,
        torus=is_torus(braid) if knot else None,
    )
