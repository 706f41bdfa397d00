"""Cyclic words over the {L, R} template alphabet.

A closed orbit on the Lorenz template is named by the cyclic sequence of its
passes around the left and right lobes.  An orbit has no preferred starting
point, so the name is a cyclic word.  ``CyclicWord`` accepts any rotation and
stores the lexicographically least one under L < R, the canonical spelling
and the wire form.  Periodic words are rejected (a proper power retraces the
same orbit), words over MAX_LETTERS letters are refused before any work, and
a multi-component link is a family of pairwise-distinct canonical words.

Rotations of different words are compared through their infinite periodic
extensions.  For aperiodic words that are not rotations of one another this
comparison never ties, which is what makes the braid construction in
:mod:`lorenzlinks.braid` well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ResourceCapError, ValidationError

ALPHABET = "LR"
_SWAP = str.maketrans("LR", "RL")
# the one cap on a word's length (the braid's rotation ranks take memory
# linear in it); at the cap the O(n^2) least rotation takes about 1 s (2-vCPU
# VM, Python 3.11); a braid strand is a letter, so it also caps the strands
# tlink.to_lorenz builds, where the slowest parameter shapes take about 1 s
# at the cap in `convert --to word` and 57 s at a million
MAX_LETTERS = 100_000


def smallest_period(letters: str) -> int:
    """Smallest k > 0 with rotate(letters, k) == letters (== len iff aperiodic)."""
    return (letters + letters).find(letters, 1)


def least_rotation(letters: str) -> str:
    """Lexicographically least rotation under L < R."""
    doubled = letters + letters
    n = len(letters)
    return min(doubled[i : i + n] for i in range(n))


@dataclass(frozen=True)
class CyclicWord:
    """An aperiodic cyclic word over {L, R}.  Any rotation goes in, and its
    least rotation is stored, so ``letters`` is always canonical."""

    letters: str

    def __post_init__(self) -> None:
        raw = self.letters
        if len(raw) > MAX_LETTERS:
            raise ResourceCapError(
                f"a word of {len(raw)} letters is over the cap of {MAX_LETTERS}"
            )
        if not raw:
            raise ValidationError("a cyclic word needs at least one letter")
        bad = set(raw) - set(ALPHABET)
        if bad:
            raise ValidationError(f"letters outside {{L, R}}: {sorted(bad)}")
        if smallest_period(raw) != len(raw):
            raise ValidationError(f"{raw!r} is a proper power")
        object.__setattr__(self, "letters", least_rotation(raw))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters


def canonicalize(raw: str | CyclicWord) -> CyclicWord:
    """Canonical form of a cyclic word; rejects empty and periodic input."""
    return raw if isinstance(raw, CyclicWord) else CyclicWord(raw)


def involute(word: CyclicWord | str) -> CyclicWord:
    """Swap the two template lobes: exchange L with R, then re-canonicalize.

    Applying it twice is the identity, and it is a bijection on the set of
    canonical words of each length.
    """
    return CyclicWord(canonicalize(word).letters.translate(_SWAP))


@dataclass(frozen=True)
class LinkWords:
    """An ordered family of pairwise-distinct cyclic words, one per component.

    Distinctness of canonical aperiodic words is exactly the condition under
    which the family names a realizable link of template orbits (no word may
    be a power of another, and none may be periodic).
    """

    words: tuple[CyclicWord, ...]

    def __post_init__(self) -> None:
        if not self.words:
            raise ValidationError("a link needs at least one component word")
        seen: dict[str, int] = {}
        for idx, w in enumerate(self.words):
            if w.letters in seen:
                raise ValidationError(
                    f"components {seen[w.letters]} and {idx} share the word {w.letters!r}"
                )
            seen[w.letters] = idx


def validate_link(words: Iterable[str | CyclicWord]) -> LinkWords:
    """Canonicalize every entry and reject duplicates."""
    return LinkWords(tuple(canonicalize(w) for w in words))


def lyndon_words(max_len: int) -> Iterator[str]:
    """Every canonical aperiodic cyclic word of length <= max_len as a plain
    string, in (length, spelling) order, holding nothing but the current one.

    Canonical forms are Lyndon words, and each length n is one walk of
    Duval's successor over the Lyndon words of length <= n, keeping those of
    length n (FKM; Ruskey, Savage and Wang 1992): repeat the word out to n
    letters, drop the trailing R's and turn the last L into R.  The words
    are canonical by construction, so none is re-checked.
    """
    if max_len < 1:
        raise ValidationError("max_len must be >= 1")
    for n in range(1, max_len + 1):
        head = "L"
        while head:
            if len(head) == n:
                yield head
            prefix = (head * (n // len(head) + 1))[:n].rstrip("R")
            head = prefix and prefix[:-1] + "R"


def enumerate_words(max_len: int) -> list[CyclicWord]:
    """The words of :func:`lyndon_words` as CyclicWords, aperiodic_count(n) of each length n."""
    return [CyclicWord(text) for text in lyndon_words(max_len)]


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def aperiodic_count(n: int) -> int:
    """Number of aperiodic binary necklaces of length n (Mobius inversion)."""
    if n < 1:
        raise ValidationError("length must be >= 1")
    total = sum(_mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n
