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
word of at most SEED letters, as every census word is, sorts its rotations,
slices of the doubled word that one itemgetter call, made once per length,
cuts out.  Links and longer words sort bounded prefixes of the extensions,
then ranks double until no two tie, so no rotation is spelled and memory is
linear in the letter count.  A tie names a family validate_link refuses, and
its message is validate_link's.

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
from operator import itemgetter
from typing import Sequence

from .errors import InternalInconsistencyError, ValidationError
from .words import ALPHABET, MAX_LETTERS, validate_link

# letters in each rotation's first sort key: the keys hold N * SEED letters
# for N letters in all.  A single word of at most SEED letters, every atlas
# word among them, sorts its n rotations of n letters, inside the same bound
SEED = 64

# _ROTATIONS[n] slices the n rotations of an n-letter word out of the doubled
# word in one call; at n = 1 it returns the one rotation itself, not a tuple,
# and sorting its one letter gives the same list
_ROTATIONS = {n: itemgetter(*[slice(k, k + n) for k in range(n)]) for n in range(1, SEED + 1)}


@dataclass(frozen=True, init=False)
class LorenzBraid:
    """A positive permutation braid stored as its lobe string, the BWT of its
    words: ``lobes[r - 1]`` is the lobe of the strand ending at position r.

    Its first ``left`` of its ``n`` strands, one per L, round the left lobe
    and the rest the right lobe.  ``targets[i - 1]``, the end of the strand
    starting at position i, runs over the positions of the L's, then those
    of the R's.  ``n``, ``left``, ``trip``, the crossings and the ear counts
    are set when the braid is built; ``targets``, its ``cycles`` and the
    ``components`` they label on first use, each once, as the census reads
    none of them.

    The constructor is one frame: it checks the string and writes every
    field set at build time straight into the instance dict, past the
    frozen ``__setattr__``.  ``lobes`` stays the one dataclass field, so
    equality, hashing, ``repr`` and ``dataclasses.replace`` see only it.
    """

    lobes: str

    def __init__(self, lobes: str) -> None:
        if not lobes:
            raise ValidationError("a braid needs at least one strand")
        if lobes.strip(ALPHABET):
            bad = sorted(set(lobes) - set(ALPHABET))
            raise ValidationError(f"lobe letters outside {{L, R}}: {bad}")
        # runs[p] is the run of L's after the p-th R: q strands of displacement p
        runs = lobes.split("R")
        trip = tuple([(p, len(run)) for p, run in enumerate(runs) if p and run])
        n = len(lobes)  # one strand per letter of the closure's words
        left = n - len(runs) + 1
        # a strand's next pass rounds the left lobe exactly when it ends in the
        # left block; the left L's there make LL + RL = left, so RL = left - LL
        # equals LR
        ll = lobes.count("L", 0, left)
        lr = left - ll
        fields = self.__dict__
        fields["lobes"] = lobes
        fields["n"] = n
        fields["left"] = left
        fields["trip"] = trip  # (displacement p_i, multiplicity q_i), p_1 < p_2 < ...
        fields["_crossings"] = sum([p * q for p, q in trip])
        fields["_ear_counts"] = (ll, lr, lr, n - left - lr)

    # -- derived structure ------------------------------------------------

    @cached_property
    def targets(self) -> tuple[int, ...]:
        """End position of the strand starting at each position: the
        string's standard permutation."""
        ends = {"L": [], "R": []}
        for r, lobe in enumerate(self.lobes, 1):
            ends[lobe].append(r)
        return tuple(ends["L"] + ends["R"])

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """The permutation's cycles in orbit order, each from its least
        position, in order of that position: the closure's components."""
        targets, seen, cycles = self.targets, [False] * (self.n + 1), []
        for start in range(1, self.n + 1):
            if not seen[start]:
                cycle, pos = [], start
                while not seen[pos]:
                    seen[pos] = True
                    cycle.append(pos)
                    pos = targets[pos - 1]
                cycles.append(tuple(cycle))
        return tuple(cycles)

    @cached_property
    def component_count(self) -> int:
        return len(self.cycles)

    @cached_property
    def components(self) -> tuple[int, ...]:
        """Per strand, the index of its cycle in ``cycles``."""
        labels = [0] * self.n
        for k, cycle in enumerate(self.cycles):
            for pos in cycle:
                labels[pos - 1] = k
        return tuple(labels)

    # plain properties over values set when the braid is built, not cached
    # ones: the benchmark tracer times these two by wrapping their ``fget``

    @property
    def ear_counts(self) -> tuple[int, int, int, int]:
        """Strand counts by ear type, the lobe pair (this pass, next pass),
        ordered (LL, LR, RL, RR)."""
        return self._ear_counts

    @property
    def crossings(self) -> int:
        """Crossing count of the diagram, the inversion number of the
        permutation, summed as sum p * q over the trip."""
        return self._crossings

    # -- wire form ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        left, targets = self.left, self.targets
        return {
            "n": self.n,
            "targets": list(targets),
            "components": list(self.components),
            # each strand's ear type: the lobe pair (this pass, next pass)
            "types": ["LR"[i > left] + "LR"[t > left] for i, t in enumerate(targets, 1)],
            "trip": [list(pq) for pq in self.trip],
        }


def _rotation_order(texts: Sequence[str]) -> list[int] | None:
    """The rotations of all the words in order of their periodic extensions,
    each as the index where it starts in the concatenation of ``texts``, or
    None when two tie.

    Prefixes of min(SEED, 2 * max|w|) letters are sorted first.  Then ranks
    double: the 2s-prefix from rotation k is the s-prefix from k followed by
    the s-prefix from k + s, so the pair of their ranks orders it.  Any
    rotation of each word may be given.  Rotations still tied at 2 * max|w|
    letters have equal extensions, so one word is a proper power or two are
    rotations of one word.
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
        tied, prev = False, -1
        for pos, at in zip(indices, order):
            if pos and first[at] == first[prev] and second[at] == second[prev]:
                rank[at] = rank[prev]
                tied = True
            else:
                rank[at] = pos
            prev = at
        if not tied:
            return order
        if span >= key_len:
            return None
        first, second = rank, []
        for text, start in zip(texts, starts):
            mid = start + span % len(text)
            second.extend(rank[mid : start + len(text)] + rank[start:mid])
        # two stable sorts order by (first, second) without building pairs
        order = sorted(indices, key=second.__getitem__)
        order.sort(key=first.__getitem__)
        span *= 2


def braid_of_words(texts: Sequence[str]) -> LorenzBraid:
    """The Lorenz braid whose closure is the link named by ``texts``, in any
    rotations: the family's BWT, the last letters of its rotations in sorted
    order, without rotating a word to its canonical spelling.

    A single text of at most SEED letters, checked once, sorts its
    rotations, sliced out of the doubled text by one _ROTATIONS call; a
    proper power repeats its least rotation, so the first two tie.  Links
    and longer words are ordered by _rotation_order, in memory linear in the
    letter count, so words.MAX_LETTERS is the one cap on a word's size.  An
    empty family, a bad or over-cap string and a tie are handed to
    validate_link, so braid_of_words accepts exactly the families
    validate_link accepts and refuses the rest as it does.  Each word's
    rotations make one cycle, so the braid records len(texts) components
    without a walk, numbered by least strand as in words_of_braid, not in
    the order of ``texts``.
    """
    lobes = None
    if len(texts) == 1 and 0 < len(texts[0]) <= SEED and not texts[0].strip(ALPHABET):
        text = texts[0]
        n = len(text)
        rotations = sorted(_ROTATIONS[n](text + text))
        if n == 1 or rotations[0] != rotations[1]:
            lobes = "".join(rotations)[n - 1 :: n]  # each rotation's last letter
    elif texts and all(0 < len(text) <= MAX_LETTERS and not text.strip(ALPHABET) for text in texts):
        order = _rotation_order(texts)
        if order is not None:
            last = "".join([text[-1] + text[:-1] for text in texts])
            lobes = "".join([last[i] for i in order])
    if lobes is None:
        validate_link(texts)  # refuses the family with its own message
        raise InternalInconsistencyError("rotations of a valid word family tie")
    braid = LorenzBraid(lobes)
    vars(braid)["component_count"] = len(texts)  # fills the cached_property
    return braid


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
    return ["".join(["LR"[pos > left] for pos in cycle]) for cycle in braid.cycles]


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
