"""T-links: concatenated torus-braid blocks, and their Lorenz counterparts.

A T-braid with parameters ((p_1, q_1), ..., (p_k, q_k)), p_1 < ... < p_k, is
the braid on p_k strands

    (s_1 s_2 ... s_{p_1 - 1})^{q_1} ... (s_1 s_2 ... s_{p_k - 1})^{q_k}

and its closure is a T-link.  T-links coincide with Lorenz links, with the
trip parameters of the Lorenz braid equal to the T-link parameters; both
directions of that correspondence are implemented here, and the package's
test suite certifies it by comparing Jones polynomials of the two closures
rather than by isotopy.

Blocks with p_i = 1 contribute no letters to the braid word (a full twist on
one strand).  They still arise as trip parameters of Lorenz braids whose
words contain consecutive L's, so parameter lists admit p_1 = 1 and an empty
list (the degenerate unknot).
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import LorenzBraid
from .errors import InternalInconsistencyError, ResourceCapError, ValidationError
from .words import MAX_LETTERS


@dataclass(frozen=True)
class TLinkParams:
    """Ordered torus-block parameters ((p_1, q_1), ..., (p_k, q_k))."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        previous = 0
        for p, q in self.pairs:
            if p < 1 or q < 1:
                raise ValidationError(f"block ({p}, {q}) must be positive")
            if p <= previous:
                raise ValidationError("block widths p_i must strictly increase")
            previous = p

    @property
    def strands(self) -> int:
        """Strand count of the T-braid: the widest block (1 when empty)."""
        return self.pairs[-1][0] if self.pairs else 1

    def to_json_list(self) -> list[list[int]]:
        return [list(pq) for pq in self.pairs]

    @classmethod
    def from_pairs(cls, pairs) -> "TLinkParams":
        """Parameters from a list or tuple of [p, q] pairs of ints, each pair
        a 2-element list or tuple; bools and other numbers are rejected
        rather than converted."""
        if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(pq, (list, tuple)) and len(pq) == 2 for pq in pairs
        ):
            raise ValidationError("parameters must be a JSON array of [p, q] pairs")
        blocks = tuple(tuple(pair) for pair in pairs)
        for block in blocks:
            if not all(type(value) is int for value in block):
                raise ValidationError(f"block {list(block)!r} must be a pair of integers")
        return cls(blocks)


def t_braid_word(params: TLinkParams) -> list[int]:
    """Generator indices of the T-braid: each (p, q) block contributes
    (s_1 ... s_{p-1}) repeated q times, for a total of sum q_i (p_i - 1)."""
    word: list[int] = []
    for p, q in params.pairs:
        word.extend(list(range(1, p)) * q)
    return word


def to_lorenz(params: TLinkParams) -> LorenzBraid:
    """The unique Lorenz braid whose trip parameters equal ``params``.

    For each block (p_i, q_i) there are q_i rightward strands of
    displacement p_i, the number of R's before each one's L in the lobe
    string, so the string is q_i L's after the p_i-th of p_k R's.  The braid
    has n = sum q_i + p_k strands, one per letter of its words; above
    words.MAX_LETTERS it raises ResourceCapError before building anything.
    Its components are its cycles, numbered by least strand as in
    words_of_braid.
    """
    if not params.pairs:
        return LorenzBraid("L")
    m = sum(q for _, q in params.pairs)
    n = m + params.pairs[-1][0]
    if n > MAX_LETTERS:
        # an n of at most 64 bits is printed; a longer one is named by its bit length
        size = n if n.bit_length() <= 64 else f"at least 2^{n.bit_length() - 1}"
        raise ResourceCapError(
            f"T-link parameters need {size} strands, over the cap of {MAX_LETTERS}"
        )
    runs = dict(params.pairs)
    braid = LorenzBraid("R".join(["L" * runs.get(p, 0) for p in range(params.pairs[-1][0] + 1)]))
    if braid.trip != params.pairs:
        raise InternalInconsistencyError("constructed braid does not reproduce the parameters")
    return braid


def from_lorenz(braid: LorenzBraid) -> TLinkParams:
    """T-link parameters of a Lorenz braid: exactly its trip parameters."""
    return TLinkParams(braid.trip)
