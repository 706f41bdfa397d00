"""Cyclic words over the {L, R} template alphabet.

A closed orbit on the Lorenz template is named by the cyclic sequence of its
passes around the left and right lobes.  An orbit has no preferred starting
point, so the name is a cyclic word.  A word is its canonical string, the
lexicographically least rotation under L < R.  ``canonicalize`` takes any
rotation, checks it and returns that spelling: periodic words are rejected
(a proper power retraces the same orbit) and words over MAX_LETTERS letters
are refused before any work.  A multi-component link is
a tuple of pairwise-distinct canonical words, and a string these functions
return is passed on, never rotated again.

Rotations of different words are compared through their infinite periodic
extensions.  For aperiodic words that are not rotations of one another this
comparison never ties, which is what makes the braid construction in
:mod:`lorenzlinks.braid` well defined.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import ResourceCapError, ValidationError

ALPHABET = "LR"
_SWAP = str.maketrans("LR", "RL")
# the one cap on a word's length (the braid's rotation ranks take memory
# linear in it); at the cap the least rotation of a random word takes about
# 0.006 s, and of the worst shapes, tens of thousands of tied longest L runs
# as in (LR)^49999 RR, about 0.3 s (2-vCPU VM, Python 3.11); a braid
# strand is a letter, so it also caps the strands
# tlink.to_lorenz builds, where the slowest parameter shapes take about 1 s
# at the cap in `convert --to word` and 57 s at a million
MAX_LETTERS = 100_000


def smallest_period(letters: str) -> int:
    """Smallest k > 0 with rotate(letters, k) == letters (== len iff aperiodic)."""
    return (letters + letters).find(letters, 1)


def least_rotation(letters: str) -> str:
    """Lexicographically least rotation under L < R.

    A rotation that opens with a longer run of L's is the smaller, so the
    least rotation of a mixed word starts one of its longest L runs, and only
    those starts are compared.  Rotated to begin just after an R, the word
    opens an L run and ends in R, so no run is cut at its ends: one ``split``
    reads the longest length m, and ``find`` of R L^m in the doubled rotation,
    from the first copy's closing R on, meets each longest run once.  The n
    letters ending at that R are, by periodicity, the rotation the run opens.
    A string with no "RL" is L^a R^b, its own least rotation.
    """
    start = letters.find("RL") + 1
    if not start:
        return letters
    n = len(letters)
    doubled = letters[start:] + letters + letters[:start]
    run = "R" + "L" * max(map(len, doubled[:n].split("R")))
    at = doubled.find(run, n - 1)
    least = doubled[at + 1 - n : at + 1]
    at = doubled.find(run, at + len(run))
    while at >= 0:
        least = min(least, doubled[at + 1 - n : at + 1])
        at = doubled.find(run, at + len(run))
    return least


def check_word(raw: str) -> None:
    """Refuse a spelling, in any rotation, that names no aperiodic cyclic
    word over {L, R}: over MAX_LETTERS letters (before a letter is read),
    empty, with another letter, or a proper power.  Each check is invariant
    under rotation and under the lobe swap, and none rotates the word."""
    if len(raw) > MAX_LETTERS:
        raise ResourceCapError(f"a word of {len(raw)} letters is over the cap of {MAX_LETTERS}")
    if not raw:
        raise ValidationError("a cyclic word needs at least one letter")
    bad = set(raw) - set(ALPHABET)
    if bad:
        raise ValidationError(f"letters outside {{L, R}}: {sorted(bad)}")
    if smallest_period(raw) != len(raw):
        raise ValidationError(f"{raw!r} is a proper power")


def canonicalize(raw: str) -> str:
    """The canonical spelling of the aperiodic cyclic word ``raw`` spells in
    any rotation: its least rotation, once ``raw`` passes the checks above."""
    check_word(raw)
    return least_rotation(raw)


def involute(word: str) -> str:
    """Swap the two template lobes: exchange L with R, then canonicalize.

    Any rotation goes in, checked as given, and one least rotation is taken.
    Applying it twice is the identity on canonical words, and it is a
    bijection on the set of canonical words of each length.
    """
    check_word(word)
    return least_rotation(word.translate(_SWAP))


def validate_link(words: Iterable[str]) -> tuple[str, ...]:
    """Canonicalize every entry, one word per component, and refuse an empty
    family or two entries naming one cyclic word.

    Distinctness of canonical aperiodic words is exactly the condition under
    which the family names a realizable link of template orbits (no word may
    be a power of another, and none may be periodic).
    """
    link = tuple(map(canonicalize, words))
    if not link:
        raise ValidationError("a link needs at least one component word")
    seen: dict[str, int] = {}
    for idx, text in enumerate(link):
        if text in seen:
            raise ValidationError(f"components {seen[text]} and {idx} share the word {text!r}")
        seen[text] = idx
    return link


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


def aperiodic_count(n: int) -> int:
    """Number of aperiodic binary necklaces of length n: the census words of
    length n.  The full shift on {L, R} has 2^n points of period dividing n,
    and an orbit of least period d holds d of them, so the counts a(d) solve
    sum over d | n of d * a(d) = 2^n.  Each a(d) follows from the a(e) of the
    divisors e < d of d, so one walk up the divisors of n reaches a(n)."""
    if n < 1:
        raise ValidationError("length must be >= 1")
    count: dict[int, int] = {}  # a(d) for each divisor d of n walked so far
    for d in range(1, n + 1):
        if n % d == 0:
            count[d] = (2**d - sum(e * a for e, a in count.items() if d % e == 0)) // d
    return count[n]
