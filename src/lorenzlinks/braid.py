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
Links and longer words sort bounded prefixes of the extensions, then ranks
double until no two tie, so no rotation is spelled and memory is linear in
the letter count.

A braid's crossing count, ear-type counts and trip are computed once, when
it is built.  The trip groups the rightward strands into (displacement p,
multiplicity q) blocks; these are the T-link parameters of the closure.  One
merge of the two lobe blocks into 1..n checks the braid and reads the trip
and crossings: a left strand's displacement is the number of right targets
merged before it, and the crossings are the trip sum, sum p * q.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .errors import InternalInconsistencyError, ValidationError
from .words import ALPHABET, MAX_LETTERS, _check_word, canonicalize

EAR_TYPES = ("LL", "LR", "RL", "RR")

# letters in each rotation's first sort key: the keys hold N * SEED letters
# for N letters in all.  A single word of at most SEED letters, every atlas
# word among them, is ranked by its suffixes instead, whose n(n + 1)/2
# letters stay inside the same N * SEED bound
SEED = 64


@dataclass(frozen=True)
class LorenzBraid:
    """A positive permutation braid with a lobe letter per strand.

    ``targets[i - 1]`` is the end position of the strand starting at position
    i (1-based), and ``letters[i - 1]`` records which lobe the strand rounds.
    Left-lobe strands occupy an initial block of start positions and have
    strictly increasing targets; right-lobe strands fill the rest, also with
    increasing targets.  Fixed strands (target == start) occur only for the
    two degenerate lobe-boundary unknots named by the words L and R.  The
    components are its cycles, numbered by least strand as in words_of_braid.
    """

    n: int
    targets: tuple[int, ...]
    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        n, targets, letters = self.n, self.targets, self.letters
        if n < 1 or len(targets) != n or len(letters) != n:
            raise InternalInconsistencyError("field lengths disagree with strand count")
        l_count = letters.count("L")
        if l_count + letters.count("R") != n:
            raise InternalInconsistencyError("strand letters must be L or R")
        if "R" in letters[:l_count]:
            raise InternalInconsistencyError("left-lobe strands must form an initial block")
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
        return self.letters[start - 1] + self.letters[self.targets[start - 1] - 1]

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
    the s-prefix from k + s, so the pair of their ranks orders it.  Rotations
    still tied at 2 * max|w| letters have equal extensions, which no valid
    word family has.
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
                    tied = prev
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
        i = bisect_right(starts, tied) - 1
        k, text = tied - starts[i], texts[i]
        raise InternalInconsistencyError(f"rotation order tied on {text[k:] + text[:k]!r}")
    return [rank[start : start + len(text)] for text, start in zip(texts, starts)]


def braid_of_words(texts: Sequence[str]) -> LorenzBraid:
    """The Lorenz braid whose closure is the link named by ``texts``, the
    canonical spellings validate_link returns and lyndon_words yields, which
    are not rotated again.  An empty family, an empty word, another letter
    or an over-cap word is refused, by string checks alone, as canonicalize
    refuses it.  A single text of at most SEED letters goes to _suffix_braid,
    which refuses it unless it is its own aperiodic least rotation; links and
    longer words go to _rotation_ranks, which refuses tied rotations.

    The strand at the rank of a rotation ends at the rank of the rotation
    one letter on, and is overcrossing exactly when the rotation begins with
    L (fixed strands of the degenerate one-letter words excepted).  Either
    way the ranks take memory linear in the letter count, so
    words.MAX_LETTERS is the one cap on a word's size.  Components are
    numbered by least strand, as in words_of_braid, not in the order of
    ``texts``.
    """
    if not texts:
        raise ValidationError("a link needs at least one component word")
    for text in texts:
        if not text or len(text) > MAX_LETTERS or text.strip(ALPHABET):
            _check_word(text)  # refuses it with canonicalize's message
    if len(texts) == 1 and len(texts[0]) <= SEED:
        return _suffix_braid(texts[0])
    n = sum(len(text) for text in texts)
    targets, letters = [0] * n, [""] * n
    for text, block in zip(texts, _rotation_ranks(texts)):
        for pos, next_pos, letter in zip(block, block[1:] + block[:1], text):
            targets[pos] = next_pos + 1
            letters[pos] = letter
    return LorenzBraid(n, tuple(targets), tuple(letters))


def _suffix_braid(text: str) -> LorenzBraid:
    """The braid of one word, its rotations ranked by one sort of its suffixes.

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
        raise InternalInconsistencyError(f"{text!r} is not its own aperiodic least rotation")
    # a suffix's length names its offset, and the next rotation's suffix is
    # one letter shorter; the empty one wraps round to the word, at position 1
    position_of_length = [1] * (n + 1)
    for pos, suffix in enumerate(suffixes, 1):
        position_of_length[len(suffix)] = pos
    targets = tuple([position_of_length[len(suffix) - 1] for suffix in suffixes])
    # sorted suffixes put every one that begins with L first
    l_count = text.count("L")
    return LorenzBraid(n, targets, ("L",) * l_count + ("R",) * (n - l_count))


def words_of_braid(braid: LorenzBraid) -> list[str]:
    """The canonical word of each cycle, by least strand: word k is component k.

    Components built by :func:`lorenzlinks.tlink.to_lorenz` may repeat a word
    (parallel orbits), so the result is a list, not a validated link.
    """
    return [
        canonicalize("".join(braid.letters[i - 1] for i in cycle)) for cycle in braid.cycles()
    ]


def braid_generators(braid: LorenzBraid) -> list[int]:
    """A positive braid word realizing the permutation, one crossing per pair,
    as 1-based generator indices: i crosses positions i and i + 1.

    Rightward strands are slid to their targets one at a time, rightmost
    first, so each slide passes only leftward strands.  The word length is
    the inversion count of the permutation.  Any other single-crossing
    realization presents the same braid element, so downstream consumers may
    treat the result as a crossing multiset.
    """
    arrangement = list(range(1, braid.n + 1))
    out: list[int] = []
    for over in reversed(braid.over_positions):
        target = braid.targets[over - 1]
        if arrangement[over - 1] != over:
            raise InternalInconsistencyError("slide order corrupted the prefix")
        for idx in range(over - 1, target - 1):
            under = arrangement[idx + 1]
            if braid.letters[under - 1] != "R":
                raise InternalInconsistencyError("two left-lobe strands crossed")
            out.append(idx + 1)
            arrangement[idx], arrangement[idx + 1] = arrangement[idx + 1], arrangement[idx]
    inverse = [0] * braid.n
    for start, target in enumerate(braid.targets, start=1):
        inverse[target - 1] = start
    if arrangement != inverse:
        raise InternalInconsistencyError("generator sweep does not realize the permutation")
    if len(out) != braid.crossings:
        raise InternalInconsistencyError("generator count differs from inversion count")
    return out


def linking_matrix(braid: LorenzBraid) -> list[list[int]]:
    """Pairwise linking numbers of the closure's components.

    With every crossing positive, the linking number of components A and B is
    half their total crossing count, equivalently the number of crossings
    with the overstrand in A; both counts are computed and must agree.  The
    generator word is replayed on the strands' arrangement: at generator i
    the strand at position i passes over the one at position i + 1, and the
    two swap.  The diagonal is left zero; row k is component k of words_of_braid.
    """
    mu = braid.component_count
    over_counts = [[0] * mu for _ in range(mu)]
    arrangement = list(braid.components)
    for i in braid_generators(braid):
        a, b = arrangement[i - 1], arrangement[i]
        over_counts[a][b] += 1
        arrangement[i - 1], arrangement[i] = b, a
    matrix = [[0] * mu for _ in range(mu)]
    for a in range(mu):
        for b in range(a + 1, mu):
            total = over_counts[a][b] + over_counts[b][a]
            if total % 2:
                raise InternalInconsistencyError(
                    f"components {a} and {b} cross {total} times"
                )
            if over_counts[a][b] != over_counts[b][a]:
                raise InternalInconsistencyError(
                    f"asymmetric over-counts for components {a} and {b}"
                )
            matrix[a][b] = matrix[b][a] = total // 2
    return matrix
