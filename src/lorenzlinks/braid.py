"""Lorenz braids: the positive permutation braids carried by the template.

Cutting the template open along its branch line turns a family of closed
orbits into a braid whose strands each cross any other strand at most once.
Strands that round the left lobe move rightward and pass in front; strands
that round the right lobe move leftward behind them.  Every crossing is
positive, the dynamics sign convention used throughout this package.

Construction from words: every rotation of every component word is one
strand.  Rotations are ranked by their infinite periodic extensions (a
tie-free order for valid word families), and the strand starting at the rank
of rotation r ends at the rank of r shifted by one letter.  A single
canonical word of at most SEED letters, as every census word is, is a Lyndon
word, so its rotations rank as its suffixes do: one sort of the suffixes
orders them, and the word sorting first among them certifies it canonical.
Links, longer words and any other rotation sort bounded prefixes of the
extensions, then ranks double until no two tie, so no rotation is spelled
and memory is linear in the letter count.  A tie left at the end names a
proper power or a repeated word, refused as caller input (ValidationError).

A braid is its permutation and its left-strand count: the first ``left``
strands round the left lobe.  Left strand i passes over the right strands
left + 1 .. left + (t_i - i), its displacement being the number of right
targets merged before its own, and no other strands cross (Birman-Williams
1983; Birman-Kofman 2009), so generators, linking numbers and words are
read off the targets.  One merge of the two lobe blocks into 1..n, when the
braid is built, checks it and reads its crossings and trip: the
(displacement p, multiplicity q) blocks of the rightward strands, which are
the T-link parameters of the closure, summing to sum p * q crossings.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .errors import InternalInconsistencyError, ValidationError
from .words import ALPHABET, MAX_LETTERS, _check_word

EAR_TYPES = ("LL", "LR", "RL", "RR")

# letters in each rotation's first sort key: the keys hold N * SEED letters
# for N letters in all.  A single word of at most SEED letters, every atlas
# word among them, is ranked by its suffixes instead, whose n(n + 1)/2
# letters stay inside the same N * SEED bound
SEED = 64


@dataclass(frozen=True)
class LorenzBraid:
    """A positive permutation braid whose first ``left`` strands round the
    left lobe and the rest the right lobe.

    ``targets[i - 1]`` is the end position of the strand starting at position
    i (1-based), and ``n`` is their count.  Each lobe block of start
    positions has strictly increasing targets.  Fixed strands (target ==
    start) occur only for the two degenerate lobe-boundary unknots named by
    the words L and R.  The components are its cycles, numbered by least
    strand as in words_of_braid.
    """

    targets: tuple[int, ...]
    left: int

    def __post_init__(self) -> None:
        targets, l_count = self.targets, self.left
        n = len(targets)
        if not n or not 0 <= l_count <= n:
            raise InternalInconsistencyError(
                f"a braid needs at least one strand and 0..n left strands, not {l_count} of {n}"
            )
        # merge the two lobe blocks into 1..n; a left strand's displacement is
        # the number of right targets merged before it, so runs of equal
        # displacement are the trip blocks and their sum is the crossing count
        trip: list[list[int]] = []
        crossings = left = 0
        right = l_count
        for value in range(1, n + 1):
            if right < n and targets[right] == value:
                right += 1
            elif left < l_count and targets[left] == value:
                left += 1
                p = right - l_count
                crossings += p
                if trip and trip[-1][0] == p:
                    trip[-1][1] += 1
                elif p:
                    trip.append([p, 1])
            else:
                raise InternalInconsistencyError(
                    "targets are not two increasing lobe blocks merging into 1..n"
                )
        # a strand's next pass rounds the left lobe exactly when it ends in the
        # left block; the l_count targets there make LL + RL = l_count, so
        # RL = l_count - LL equals LR
        ll = bisect_right(targets, l_count, 0, l_count)
        lr = l_count - ll
        object.__setattr__(self, "_ear_counts", (ll, lr, lr, n - l_count - lr))
        object.__setattr__(self, "_trip", tuple(map(tuple, trip)))
        object.__setattr__(self, "_crossings", crossings)
        object.__setattr__(self, "_cycles", tuple(permutation_cycles(targets)))

    @property
    def n(self) -> int:
        """Strand count: one strand per letter of the closure's words."""
        return len(self.targets)

    # -- derived structure ------------------------------------------------

    @property
    def component_count(self) -> int:
        return len(self._cycles)

    @property
    def components(self) -> tuple[int, ...]:
        """Per strand, the index of its cycle in ``cycles()``."""
        label_of = {pos: k for k, cycle in enumerate(self._cycles) for pos in cycle}
        return tuple(label_of[i] for i in range(1, self.n + 1))

    @property
    def over_positions(self) -> tuple[int, ...]:
        """Start positions of strands that move right (displacement > 0)."""
        return tuple(i for i, target in enumerate(self.targets, start=1) if target > i)

    @property
    def under_positions(self) -> tuple[int, ...]:
        return tuple(i for i, target in enumerate(self.targets, start=1) if target < i)

    def ear_type(self, start: int) -> str:
        """Lobe pair (this pass, next pass) of the strand starting at ``start``."""
        return "LR"[start > self.left] + "LR"[self.targets[start - 1] > self.left]

    @property
    def ear_counts(self) -> tuple[int, int, int, int]:
        """Strand counts by ear type, ordered (LL, LR, RL, RR); counted once,
        when the braid is built."""
        return self._ear_counts

    @property
    def trip(self) -> tuple[tuple[int, int], ...]:
        """(displacement p_i, multiplicity q_i) over the rightward strands,
        p_1 < p_2 < ...; grouped once, when the braid is built."""
        return self._trip

    @property
    def crossings(self) -> int:
        """Crossing count of the diagram, the inversion number of the
        permutation; summed once, as sum p * q, when the braid is built."""
        return self._crossings

    def cycles(self) -> list[tuple[int, ...]]:
        """Permutation cycles in orbit order, each from its least position,
        in order of that position; walked once, when the braid is built."""
        return list(self._cycles)

    # -- wire form ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "targets": list(self.targets),
            "components": list(self.components),
            "types": [self.ear_type(i) for i in range(1, self.n + 1)],
            "trip": [list(pq) for pq in self.trip],
        }


def permutation_cycles(targets: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycles of the permutation i -> targets[i - 1] of 1..n, in orbit order,
    each starting at its least position, ordered by that position."""
    seen = [False] * (len(targets) + 1)
    out: list[tuple[int, ...]] = []
    for start in range(1, len(targets) + 1):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        pos = targets[start - 1]
        while pos != start:
            cycle.append(pos)
            seen[pos] = True
            pos = targets[pos - 1]
        out.append(tuple(cycle))
    return out


def _rotation_ranks(texts: Sequence[str]) -> list[list[int]]:
    """Per word, the 0-based rank of each rotation among all rotations of
    all the words, by periodic extension.

    Prefixes of min(SEED, 2 * max|w|) letters are sorted first.  Then ranks
    double: the 2s-prefix from rotation k is the s-prefix from k followed by
    the s-prefix from k + s, so the pair of their ranks orders it.  Any
    rotation of each word may be given.  Rotations still tied at 2 * max|w|
    letters have equal extensions, so the word family is not valid: one word
    is a proper power, or two are powers of one word, and ValidationError
    names them.
    """
    key_len = 2 * max(len(text) for text in texts)
    span = min(key_len, SEED)
    starts = [0, *accumulate(len(text) for text in texts)]
    first: list = []
    for text in texts:
        extension = text * (span // len(text) + 2)
        first.extend(extension[k : k + span] for k in range(len(text)))
    second = first
    indices = list(range(len(first)))  # ints made once, not once per round
    order = sorted(indices, key=first.__getitem__)
    while True:
        rank = [0] * len(order)
        tied = prev = -1
        for pos, at in zip(indices, order):
            if pos and first[at] == first[prev] and second[at] == second[prev]:
                rank[at] = rank[prev]
                if tied < 0:
                    tied, tied_with = prev, at
            else:
                rank[at] = pos
            prev = at
        if tied < 0 or span >= key_len:
            break
        first, second = rank, []
        for text, start in zip(texts, starts):
            mid = start + span % len(text)
            second.extend(rank[mid : start + len(text)] + rank[start:mid])
        # two stable sorts order by (first, second) without building pairs
        order = sorted(indices, key=second.__getitem__)
        order.sort(key=first.__getitem__)
        span *= 2
    if tied >= 0:
        i, j = (bisect_right(starts, at) - 1 for at in (tied, tied_with))
        if i == j:
            raise ValidationError(f"{texts[i]!r} is a proper power")
        raise ValidationError(f"{texts[i]!r} and {texts[j]!r} are powers of one word")
    return [rank[start : start + len(text)] for text, start in zip(texts, starts)]


def braid_of_words(texts: Sequence[str]) -> LorenzBraid:
    """The Lorenz braid whose closure is the link named by ``texts``, in any
    rotations: it accepts exactly the families validate_link accepts and
    gives the braid of their canonical spellings, without rotating a word.
    An empty family, an empty word, another letter or an over-cap word is
    refused by string checks alone, with canonicalize's message.  A single
    text of at most SEED letters goes to _suffix_braid, which takes it when
    it is its own aperiodic least rotation, as every census word is.  Any
    other text and every link go to _rotation_ranks, where a tie refuses a
    proper power or a repeated word with ValidationError.

    The strand at the rank of a rotation ends at the rank of the rotation
    one letter on, and rounds the left lobe exactly when the rotation begins
    with L; those rotations rank first, so the braid's left-strand count is
    the family's count of L.  Either way the ranks take memory linear in the
    letter count, so words.MAX_LETTERS is the one cap on a word's size.
    Components are numbered by least strand, as in words_of_braid, not in
    the order of ``texts``.
    """
    if not texts:
        raise ValidationError("a link needs at least one component word")
    for text in texts:
        if not text or len(text) > MAX_LETTERS or text.strip(ALPHABET):
            _check_word(text)  # refuses it with canonicalize's message
    if len(texts) == 1 and len(texts[0]) <= SEED:
        braid = _suffix_braid(texts[0])
        if braid is not None:
            return braid
    targets = [0] * sum(len(text) for text in texts)
    for block in _rotation_ranks(texts):
        for pos, next_pos in zip(block, block[1:] + block[:1]):
            targets[pos] = next_pos + 1
    return LorenzBraid(tuple(targets), sum(text.count("L") for text in texts))


def _suffix_braid(text: str) -> LorenzBraid | None:
    """The braid of one word, its rotations ranked by one sort of its
    suffixes, or None when ``text`` is not its own aperiodic least rotation.

    A word is its own aperiodic least rotation, a Lyndon word, exactly when
    it is less than each of its proper suffixes (Duval), so it must sort
    first; the suffixes differ in length, so they never tie.  A Lyndon
    word's rotations sort as its suffixes do: where a shorter suffix is a
    prefix of a longer one, its rotation goes on with the word itself, which
    is less than every proper suffix and differs from each within its length.
    """
    n = len(text)
    suffixes = sorted([text[k:] for k in range(n)])
    if len(suffixes[0]) != n:
        return None
    # a suffix's length names its offset, and the next rotation's suffix is
    # one letter shorter; the empty one wraps round to the word, at position 1
    position_of_length = [1] * (n + 1)
    for pos, suffix in enumerate(suffixes, 1):
        position_of_length[len(suffix)] = pos
    targets = tuple([position_of_length[len(suffix) - 1] for suffix in suffixes])
    # sorted suffixes put every one that begins with L first
    return LorenzBraid(targets, text.count("L"))


def words_of_braid(braid: LorenzBraid) -> list[str]:
    """The canonical word of each cycle, by least strand: word k is component k.

    Targets increase within each lobe block, so strand order is itinerary
    order: two strands with the same letter keep their order one step on.
    A strand and a later one on its own cycle can then never share an
    itinerary, so each cycle, read from its least strand, spells its own
    aperiodic least rotation.  Components built by
    :func:`lorenzlinks.tlink.to_lorenz` may repeat a word (parallel orbits),
    so the result is a list, not a validated link.
    """
    left = braid.left
    return ["".join(["LR"[pos > left] for pos in cycle]) for cycle in braid.cycles()]


def braid_generators(braid: LorenzBraid) -> list[int]:
    """A positive braid word realizing the permutation, one crossing per pair,
    as 1-based generator indices: i crosses positions i and i + 1.

    Left strands are slid to their targets one at a time, rightmost first,
    so strand s passes over the right strands between position s and its
    target and emits s, s + 1, ..., t_s - 1.  The word length is the
    inversion count of the permutation.  Any other single-crossing
    realization presents the same braid element, so downstream consumers may
    treat the result as a crossing multiset.
    """
    targets = braid.targets
    return [i for s in range(braid.left, 0, -1) for i in range(s, targets[s - 1])]


def linking_matrix(braid: LorenzBraid) -> list[list[int]]:
    """Pairwise linking numbers of the closure's components.

    With every crossing positive, the linking number of components A and B is
    the number of crossings with the overstrand in A, and equally the number
    with it in B; both counts are taken and must agree.  Left strand i
    passes over the right strands left + 1 .. left + (t_i - i), so the
    counts are read off the targets.  The diagonal is left zero; row k is
    component k of words_of_braid.
    """
    mu, left, targets = braid.component_count, braid.left, braid.targets
    components = braid.components
    matrix = [[0] * mu for _ in range(mu)]
    for s in range(1, left + 1):
        row = matrix[components[s - 1]]
        for b in components[left : left + targets[s - 1] - s]:
            row[b] += 1
    for a in range(mu):
        matrix[a][a] = 0
        for b in range(a):
            if matrix[a][b] != matrix[b][a]:
                raise InternalInconsistencyError(
                    f"asymmetric over-counts for components {b} and {a}"
                )
    return matrix
