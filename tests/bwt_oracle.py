"""The Burrows-Wheeler transform of a word family by sorting its spelled
rotations, kept as test code.

Every rotation of every word is spelled out and keyed by its periodic
extension to twice the longest word's length, where two rotations of a
valid family always differ; the lobe string of the family's braid is the
last letters of the rotations in key order (the extended BWT of Mantaci,
Restivo, Rosone and Sciortino 2007).  This is the key sort
``lorenzlinks.braid.braid_of_words`` ran before it sorted short words'
rotations and ranked the rest by prefix doubling.  It shares no code with
``braid_of_words``, and its memory is quadratic in the longest word, so
tests keep words short.
"""

from __future__ import annotations


def sorted_rotations(link) -> list[tuple[str, int, int]]:
    """Every rotation as (spelling, component, offset), in key order."""
    key_len = 2 * max(len(word) for word in link)
    keyed = []
    for ci, word in enumerate(link):
        for k in range(len(word)):
            spelling = word[k:] + word[:k]
            keyed.append(((spelling * key_len)[:key_len], spelling, ci, k))
    keyed.sort(key=lambda entry: entry[0])
    assert len({key for key, _, _, _ in keyed}) == len(keyed)  # a tie-free order
    return [(spelling, ci, k) for _, spelling, ci, k in keyed]


def bwt(link) -> str:
    """The lobe string of the braid of ``link``: last letters in rotation order."""
    return "".join(spelling[-1] for spelling, _, _ in sorted_rotations(link))
