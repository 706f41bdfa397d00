"""Every field and read of a Lorenz braid from its lobe string alone, kept as
test code.

``lobes[r - 1]`` is the lobe of the strand that ends at position r.  Each
quantity is computed by its definition, in quadratic time, from nothing but
the string: the targets by a stable sort, the crossings and the linking
numbers by counting inverted pairs, the cycles by walking every start, each
word by a min over its rotations, and the generator word is replayed strand
by strand.  It reads no ``LorenzBraid`` field and calls no ``lorenzlinks``
function, and ``tests/test_braid.py`` holds the library's braid to it.
"""

from __future__ import annotations

from collections import Counter

EAR_TYPES = ("LL", "LR", "RL", "RR")


def standard_permutation(lobes: str) -> tuple[int, ...]:
    """The end of the strand starting at each position: a stable sort of the
    end positions by lobe letter, so the L's are the first strands."""
    return tuple(sorted(range(1, len(lobes) + 1), key=lambda r: lobes[r - 1]))


def lobe_reads(lobes: str) -> dict:
    """Each field and read of the braid of ``lobes``, keyed by its name."""
    n = len(lobes)
    targets = standard_permutation(lobes)
    # this pass of the strand starting at each position; its next pass is
    # that of the strand starting where it ends
    lobe = [lobes[t - 1] for t in targets]
    types = [lobe[i] + lobe[t - 1] for i, t in enumerate(targets)]
    # a position starts a cycle exactly when its orbit comes back to it
    # before it reaches a smaller position
    cycles = []
    for start in range(1, n + 1):
        orbit = [start]
        while start < targets[orbit[-1] - 1]:
            orbit.append(targets[orbit[-1] - 1])
        if targets[orbit[-1] - 1] == start:
            cycles.append(tuple(orbit))
    component_of = {pos: k for k, cycle in enumerate(cycles) for pos in cycle}
    components = tuple(component_of[pos] for pos in range(1, n + 1))
    words = []
    for cycle in cycles:
        word = "".join(lobe[pos - 1] for pos in cycle)
        words.append(min(word[k:] + word[:k] for k in range(len(word))))
    # each crossing is an inverted pair of strands; a closed pair of
    # components crosses an even number of times, twice its linking number
    between = Counter(
        (components[i], components[j])
        for i in range(n)
        for j in range(i + 1, n)
        if targets[i] > targets[j]
    )
    mu = len(cycles)
    linking = [[0] * mu for _ in range(mu)]
    for a in range(mu):
        for b in range(mu):
            if a != b:
                crossed = between[a, b] + between[b, a]
                assert crossed % 2 == 0, (lobes, a, b)
                linking[a][b] = crossed // 2
    trip = tuple(sorted(Counter(t - s for s, t in enumerate(targets, 1) if t > s).items()))
    return {
        "n": n,
        "left": lobes.count("L"),
        "targets": targets,
        "trip": trip,
        "crossings": sum(between.values()),
        "ear_counts": tuple(types.count(ear) for ear in EAR_TYPES),
        "cycles": tuple(cycles),
        "components": components,
        "component_count": mu,
        "words": words,
        "linking_matrix": linking,
        "to_json_dict": {
            "n": n,
            "targets": list(targets),
            "components": list(components),
            "types": types,
            "trip": [list(pq) for pq in trip],
        },
    }


def replay_generators(lobes: str, generators: list[int]) -> None:
    """AssertionError unless ``generators`` realizes the braid of ``lobes``:
    generator i takes the strand at position i over the one at i + 1, a
    left-lobe strand over a right-lobe one, and each inverted pair crosses
    exactly once.

    Once the strands end where the targets say, a pair has crossed an odd
    number of times exactly when it is inverted, so no pair crossing twice
    leaves each inverted pair crossed once and no other pair crossed."""
    targets = standard_permutation(lobes)
    lobe = [lobes[t - 1] for t in targets]
    n = len(lobes)
    arrangement = list(range(1, n + 1))  # the strand now at each position
    crossed = []
    for i in generators:
        assert 1 <= i < n, (lobes, i)
        over, under = arrangement[i - 1], arrangement[i]
        assert lobe[over - 1] + lobe[under - 1] == "LR", (lobes, i)
        crossed.append((over, under))
        arrangement[i - 1], arrangement[i] = under, over
    assert all(arrangement[t - 1] == s for s, t in enumerate(targets, 1)), lobes
    assert len(set(crossed)) == len(crossed), lobes
