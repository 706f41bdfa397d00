"""Lorenz braids: the positive permutation braids carried by the template.

Cutting the template open along its branch line turns a family of closed
orbits into a braid whose strands each cross any other strand at most once.
Strands that round the left lobe move rightward and pass in front; strands
that round the right lobe move leftward behind them.  Every crossing is
positive, the dynamics sign convention used throughout this package.

Construction from words: every rotation of every component word is one
strand.  Rotations are ranked by their infinite periodic extensions (a
tie-free order for valid word families), and the strand starting at the rank
of rotation k ends at the rank of rotation k + 1, one letter on.  A single
canonical word of at most SEED letters, as every census word is, is a Lyndon
word, so its rotations rank as its suffixes do: one sort of the suffixes
orders them, and the word sorting first among them certifies it canonical.
Links, longer words and any other rotation sort bounded prefixes of the
extensions, then ranks double until no two tie, so no rotation is spelled
and memory is linear in the letter count.  A tie left at the end names a
proper power or a repeated word, refused as caller input (ValidationError).

A braid is the Burrows-Wheeler transform of its words: the strand ending at
rank r comes from the rotation one letter back, so its lobe is the last
letter of the r-th least rotation (for a link, the extended BWT of Mantaci,
Restivo, Rosone and Sciortino 2007).  A LorenzBraid stores that string, and
every string over {L, R} is one.  Targets increase within each lobe block,
so the left strands end at its L's and the right strands at its R's; the
cycles of that standard permutation, the components, invert the transform
(Gessel-Reutenauer 1993).  Left strand i passes over the right strands
left + 1 .. left + (t_i - i) and no other strands cross (Birman-Williams
1983; Birman-Kofman 2009), so generators, linking numbers and words are read
off the targets.  Its displacement t_i - i counts the R's before its L, so
the run of L's after the p-th R is a trip block: q strands of displacement
p, the T-link parameters of the closure, summing to sum p * q crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    """A positive permutation braid stored as its lobe string, the BWT of its
    words: ``lobes[r - 1]`` is the lobe of the strand ending at position r.

    Its first ``left`` strands, one per L, round the left lobe and the rest
    the right lobe.  ``targets[i - 1]``, the end of the strand starting at
    position i, runs over the positions of the L's, then those of the R's.
    Trip, crossings and ear counts are read when the braid is built;
    ``targets`` and the cycles, its components numbered by least strand, on
    first use, as the census reads neither.  ``crossings`` and
    ``ear_counts`` stay plain properties: the benchmark tracer wraps their
    ``fget`` on the class.
    """

    lobes: str

    def __post_init__(self) -> None:
        lobes = self.lobes
        if not lobes:
            raise ValidationError("a braid needs at least one strand")
        if lobes.strip(ALPHABET):
            bad = sorted(set(lobes) - set(ALPHABET))
            raise ValidationError(f"lobe letters outside {{L, R}}: {bad}")
        # runs[p] is the run of L's after the p-th R: q strands of displacement p
        runs = lobes.split("R")
        trip = tuple([(p, len(run)) for p, run in enumerate(runs) if p and run])
        left = len(lobes) - len(runs) + 1
        # a strand's next pass rounds the left lobe exactly when it ends in the
        # left block; the left L's there make LL + RL = left, so RL = left - LL
        # equals LR
        ll = lobes.count("L", 0, left)
        lr = left - ll
        vars(self).update(
            left=left,
            _trip=trip,
            _crossings=sum([p * q for p, q in trip]),
            _ear_counts=(ll, lr, lr, len(lobes) - left - lr),
        )

    @property
    def n(self) -> int:
        """Strand count: one strand per letter of the closure's words."""
        return len(self.lobes)

    # -- derived structure ------------------------------------------------

    @cached_property
    def targets(self) -> tuple[int, ...]:
        """End position of the strand starting at each position: the
        string's standard permutation, derived on first use."""
        ends = {"L": [], "R": []}
        for r, lobe in enumerate(self.lobes, 1):
            ends[lobe].append(r)
        return tuple(ends["L"] + ends["R"])

    @cached_property
    def _cycles(self) -> tuple[tuple[int, ...], ...]:
        return tuple(permutation_cycles(self.targets))

    @cached_property
    def component_count(self) -> int:
        return len(self._cycles)

    @property
    def components(self) -> tuple[int, ...]:
        """Per strand, the index of its cycle in ``cycles()``."""
        label_of = {pos: k for k, cycle in enumerate(self._cycles) for pos in cycle}
        return tuple(label_of[i] for i in range(1, self.n + 1))

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
        p_1 < p_2 < ...; read once, when the braid is built."""
        return self._trip

    @property
    def crossings(self) -> int:
        """Crossing count of the diagram, the inversion number of the
        permutation; summed once, as sum p * q, when the braid is built."""
        return self._crossings

    def cycles(self) -> list[tuple[int, ...]]:
        """Permutation cycles in orbit order, each from its least position,
        in order of that position; walked on first use."""
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
        # the word holding a rotation is the count of words ending at or before it
        i, j = (sum(end <= at for end in starts[1:]) for at in (tied, tied_with))
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

    The braid is the family's BWT: the letter at the rank of rotation k is
    rotation k's last letter.  Either way the ranks take memory linear in the
    letter count, so words.MAX_LETTERS is the one cap on a word's size.  Each
    word's rotations make one cycle, so the braid records len(texts)
    components without a walk, numbered by least strand as in words_of_braid,
    not in the order of ``texts``.
    """
    if not texts:
        raise ValidationError("a link needs at least one component word")
    for text in texts:
        if not text or len(text) > MAX_LETTERS or text.strip(ALPHABET):
            _check_word(text)  # refuses it with canonicalize's message
    lobes = _suffix_braid(texts[0]) if len(texts) == 1 and len(texts[0]) <= SEED else None
    if lobes is None:
        letters = [""] * sum(len(text) for text in texts)
        for text, ranks in zip(texts, _rotation_ranks(texts)):
            for rank, letter in zip(ranks, text[-1] + text[:-1]):
                letters[rank] = letter
        lobes = "".join(letters)
    braid = LorenzBraid(lobes)
    vars(braid)["component_count"] = len(texts)  # fills the cached_property
    return braid


def _suffix_braid(text: str) -> str | None:
    """The lobe string of one word's braid, its rotations ranked by one sort
    of its suffixes, or None when ``text`` is not its own aperiodic least
    rotation.

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
    # the letter before each suffix, the word itself wrapping round to its last
    return "".join([text[n - len(suffix) - 1] for suffix in suffixes])


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
