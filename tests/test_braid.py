"""Braid construction, strand classification and the linking matrix."""

import dataclasses
import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorenzlinks import braid as braid_mod
from lorenzlinks import cli
from lorenzlinks.braid import (
    LorenzBraid,
    braid_generators,
    braid_of_words,
    linking_matrix,
    words_of_braid,
)
from lorenzlinks.errors import (
    InternalInconsistencyError,
    LorenzError,
    ResourceCapError,
    ValidationError,
)
from lorenzlinks.invariants import compute_record
from lorenzlinks.tlink import TLinkParams, to_lorenz
from lorenzlinks.words import (
    MAX_LETTERS,
    aperiodic_count,
    least_rotation,
    lyndon_words,
    validate_link,
)


def strand_letters(braid):
    """The lobe letter of each strand, the first ``left`` of them L."""
    return "L" * braid.left + "R" * (braid.n - braid.left)


def inversion_oracle(targets):
    n = len(targets)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if targets[i] > targets[j]
    )


def cycles_oracle(targets):
    """The cycles of i -> targets[i - 1], each walked from its least
    position, in order of that position: a position starts a cycle exactly
    when no position on its orbit is smaller."""
    cycles = []
    for start in range(1, len(targets) + 1):
        orbit = [start]
        while targets[orbit[-1] - 1] != start:
            orbit.append(targets[orbit[-1] - 1])
        if min(orbit) == start:
            cycles.append(tuple(orbit))
    return tuple(cycles)


def ear_types(braid):
    """Each strand's lobe pair (this pass, next pass), as the wire form writes it."""
    return braid.to_json_dict()["types"]


def standard_permutation(lobes):
    """Targets of a lobe string by a stable sort of its end positions by
    lobe letter: the L's in order, then the R's."""
    return tuple(sorted(range(1, len(lobes) + 1), key=lambda r: lobes[r - 1]))


def merge_oracle(targets, l_count):
    """(trip, crossings, ear_counts) of the braid whose first ``l_count``
    strands round the left lobe, from one merge of the two lobe blocks into
    1..n, or InternalInconsistencyError when they do not merge: the
    constructor of a braid stored as its targets and left-strand count."""
    n = len(targets)
    if not n or not 0 <= l_count <= n:
        raise InternalInconsistencyError(
            f"a braid needs at least one strand and 0..n left strands, not {l_count} of {n}"
        )
    # a left strand's displacement is the number of right targets merged
    # before it, so runs of equal displacement are the trip blocks and their
    # sum is the crossing count
    trip = []
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
    ll = sum(1 for target in targets[:l_count] if target <= l_count)
    lr = l_count - ll
    return tuple(map(tuple, trip)), crossings, (ll, lr, lr, n - l_count - lr)


def trip_oracle(targets):
    """Rightward strands of every start position grouped by displacement and
    sorted: no use of the lobe blocks or of their order."""
    groups = Counter(
        target - start for start, target in enumerate(targets, start=1) if target > start
    )
    return tuple(sorted(groups.items()))


def lorenz_braid_oracle(n, targets, letters):
    """A Lorenz braid given by its strand count, targets and a lobe letter
    per strand, checked one condition at a time with its own message, and
    its fields computed from the letters: returns
    (crossings, ear_counts, trip, cycles) or raises InternalInconsistencyError."""
    if n < 1 or len(targets) != n or len(letters) != n:
        raise InternalInconsistencyError("field lengths disagree with strand count")
    if sorted(targets) != list(range(1, n + 1)):
        raise InternalInconsistencyError("targets is not a permutation of 1..n")
    if any(letter not in "LR" for letter in letters):
        raise InternalInconsistencyError("strand letters must be L or R")
    l_count = sum(1 for letter in letters if letter == "L")
    if any(letter == "R" for letter in letters[:l_count]):
        raise InternalInconsistencyError("left-lobe strands must form an initial block")
    for i, (letter, target) in enumerate(zip(letters, targets), start=1):
        if letter == "L" and target < i:
            raise InternalInconsistencyError(f"left-lobe strand {i} moves left")
        if letter == "R" and target > i:
            raise InternalInconsistencyError(f"right-lobe strand {i} moves right")
    left, right = targets[:l_count], targets[l_count:]
    for block in (left, right):
        if any(a > b for a, b in zip(block, block[1:])):
            raise InternalInconsistencyError("targets must increase within each lobe block")
    ll = sum(1 for target in left if target <= l_count)
    rl = sum(1 for target in right if target <= l_count)
    displacements = (target - start for start, target in enumerate(left, start=1))
    trip = tuple((p, len(list(run))) for p, run in itertools.groupby(displacements) if p > 0)
    inversions = below = 0
    for target in left:
        while below < len(right) and right[below] < target:
            below += 1
        inversions += below
    trip_sum = sum(p * q for p, q in trip)
    if inversions != trip_sum:
        raise InternalInconsistencyError(
            f"inversion count {inversions} but sum q_i p_i = {trip_sum}"
        )
    cycles = cycles_oracle(targets)
    return inversions, (ll, l_count - ll, rl, n - l_count - rl), trip, cycles


def slide_generators_oracle(braid):
    """The generator word of a slide: each rightward strand, rightmost
    first, is swapped along a replayed arrangement of the strands to its
    target, and the slide checks that it passes only right-lobe strands,
    realizes the permutation and emits one generator per inversion."""
    letters = strand_letters(braid)
    arrangement = list(range(1, braid.n + 1))
    out = []
    overs = [i for i, target in enumerate(braid.targets, start=1) if target > i]
    for over in reversed(overs):
        assert arrangement[over - 1] == over, "slide order corrupted the prefix"
        for idx in range(over - 1, braid.targets[over - 1] - 1):
            under = arrangement[idx + 1]
            assert letters[under - 1] == "R", "two left-lobe strands crossed"
            out.append(idx + 1)
            arrangement[idx], arrangement[idx + 1] = arrangement[idx + 1], arrangement[idx]
    inverse = [0] * braid.n
    for start, target in enumerate(braid.targets, start=1):
        inverse[target - 1] = start
    assert arrangement == inverse, "generator sweep does not realize the permutation"
    assert len(out) == inversion_oracle(braid.targets), "generator count is not the inversions"
    return out


def words_oracle(braid):
    """Each cycle's lobe letters, rotated to their least rotation."""
    letters = strand_letters(braid)
    return [least_rotation("".join(letters[i - 1] for i in cycle)) for cycle in braid.cycles]


def linking_oracle(braid):
    """Inter-component inverted pairs, halved: no generator emission involved."""
    mu, components = braid.component_count, braid.components
    counts = [[0] * mu for _ in range(mu)]
    for i in range(braid.n):
        for j in range(i + 1, braid.n):
            if braid.targets[i] > braid.targets[j]:
                a, b = components[i], components[j]
                if a != b:
                    counts[a][b] += 1
                    counts[b][a] += 1
    return [[counts[a][b] // 2 for b in range(mu)] for a in range(mu)]


def sorted_rotations_oracle(link):
    """Every rotation as (spelling, component, offset), sorted by its periodic
    extension to twice the longest word: the key sort braid_of_words ran
    before it ranked rotations by prefix doubling."""
    key_len = 2 * max(len(w) for w in link)
    keyed = []
    for ci, text in enumerate(link):
        for k in range(len(text)):
            spelling = text[k:] + text[:k]
            keyed.append(((spelling * key_len)[:key_len], spelling, ci, k))
    keyed.sort(key=lambda entry: entry[0])
    assert len({key for key, _, _, _ in keyed}) == len(keyed)  # a tie-free order
    return [(spelling, ci, k) for _, spelling, ci, k in keyed]


def position_sequences_oracle(link):
    """Each word's rotation ranks in rotation order, read off the key sort:
    the cycle the braid's strands make through each component."""
    rank = {(ci, k): pos for pos, (_, ci, k) in enumerate(sorted_rotations_oracle(link), start=1)}
    return [tuple(rank[ci, k] for k in range(len(word))) for ci, word in enumerate(link)]


def braid_oracle(link):
    """The whole braid built from the key sort: the last letters of the
    sorted rotations, whose targets are the ranks one rotation on."""
    rotations = sorted_rotations_oracle(link)
    rank = {(ci, k): pos for pos, (_, ci, k) in enumerate(rotations, start=1)}
    targets = tuple(rank[ci, (k + 1) % len(link[ci])] for _, ci, k in rotations)
    letters = "".join(spelling[0] for spelling, _, _ in rotations)
    left = letters.count("L")
    assert letters == "L" * left + "R" * (len(letters) - left)  # L rotations rank first
    braid = LorenzBraid("".join(spelling[-1] for spelling, _, _ in rotations))
    assert braid.targets == targets and braid.left == left
    return braid


def word_sets_up_to(total):
    """Every set of distinct canonical words with combined length <= total."""
    pool = list(lyndon_words(total))
    sets = []

    def extend(start, remaining, chosen):
        if chosen:
            sets.append(tuple(chosen))
        for idx in range(start, len(pool)):
            word = pool[idx]
            if len(word) > remaining:
                break  # pool is sorted by length
            chosen.append(word)
            extend(idx + 1, remaining - len(word), chosen)
            chosen.pop()

    extend(0, total, [])
    return sets


class TestBraidOfWords:
    def test_ten_strand_word(self):
        link = validate_link(["LRLRRRLRRR"])
        braid = braid_of_words(link)
        assert braid.cycles[0] == (1, 6, 3, 10, 8, 5, 2, 9, 7, 4)
        assert braid.targets == (6, 9, 10, 1, 2, 3, 4, 5, 7, 8)
        assert braid.lobes == "RRRRRLRRLL" and braid.left == 3

    def test_trefoil_word(self):
        braid = braid_of_words(validate_link(["LRLRL"]))
        assert braid.targets == (3, 4, 5, 1, 2)
        assert braid.lobes == "RRLLL"
        assert all(braid.targets[i - 1] - i == 2 for i in (1, 2, 3))

    def test_degenerate_single_letter(self):
        braid = braid_of_words(validate_link(["L"]))
        assert braid.n == 1
        assert braid.targets == (1,)
        assert braid.crossings == 0

    def test_full_roundtrip_over_word_sets(self):
        for words in word_sets_up_to(12):
            braid = braid_of_words(words)
            assert sorted(words_of_braid(braid)) == sorted(words)
            assert len(braid.cycles) == len(words)

    def test_over_strand_criterion(self):
        for word in lyndon_words(12):
            braid = braid_of_words([word])
            for i in range(1, braid.n + 1):
                starts_left = i <= braid.left
                if len(word) == 1:
                    assert braid.targets[i - 1] == i
                else:
                    assert starts_left == (braid.targets[i - 1] > i)

    def test_lr_equals_rl_everywhere(self):
        for word in lyndon_words(10):
            _, lr, rl, _ = braid_of_words([word]).ear_counts
            assert lr == rl

    def test_position_sequences_chain_through_targets(self):
        link = validate_link(["LRLRL", "LRLRLRL", "LRLRRRLRRR"])
        braid = braid_of_words(link)
        for sequence in position_sequences_oracle(link):
            for k, rank in enumerate(sequence):
                assert braid.targets[rank - 1] == sequence[(k + 1) % len(sequence)]

    def test_strand_meta(self):
        # the per-strand labels, read off the braid itself
        braid = braid_of_words(validate_link(["LRLRRRLRRR"]))
        assert braid.components[0] == 0
        assert ear_types(braid)[0] == "LR"
        assert braid.targets[0] - 1 == 5
        assert braid.targets[9] - 10 == -2 and ear_types(braid)[9] == "RR"
        fixed = braid_of_words(validate_link(["L"]))
        assert ear_types(fixed) == ["LL"] and fixed.lobes == "L"
        assert fixed.targets[0] - 1 == 0

    def test_components_are_numbered_by_least_strand(self):
        # LR is named first, but the cycle of LLLRR holds strand 1: it is
        # component 0, word 0 of words_of_braid and row 0 of the linking matrix
        braid = braid_of_words(validate_link(["LR", "LLR", "LLLRR"]))
        assert braid.components == (0, 1, 0, 1, 2, 0, 0, 1, 2, 0)
        assert words_of_braid(braid) == ["LLLRR", "LLR", "LR"]
        assert linking_matrix(braid) == [[0, 3, 2], [3, 0, 1], [2, 1, 0]]


class TestEntryPointGuards:
    """braid_of_words takes strings from any caller.  It does not
    canonicalize them again, but refuses what no canonical family holds."""

    @pytest.mark.parametrize(
        "texts, error, message",
        [
            ([], ValidationError, "a link needs at least one component word"),
            ([""], ValidationError, "a cyclic word needs at least one letter"),
            (["LR", ""], ValidationError, "a cyclic word needs at least one letter"),
            (["LX"], ValidationError, "letters outside {L, R}: ['X']"),
            (["LR", "lr"], ValidationError, "letters outside {L, R}: ['l', 'r']"),
            (
                ["L" * (MAX_LETTERS + 1)],
                ResourceCapError,
                f"a word of {MAX_LETTERS + 1} letters is over the cap of {MAX_LETTERS}",
            ),
        ],
    )
    def test_refuses_as_canonicalize_does(self, texts, error, message):
        with pytest.raises(error) as caught:
            braid_of_words(texts)
        assert str(caught.value) == message

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.text(alphabet="LRX", max_size=6), max_size=4))
    @example([])
    @example([""])
    @example(["LX"])
    @example(["RL"])
    @example(["LL"])
    @example(["LRLR"])
    @example(["LR", "RL"])
    @example(["RLL", "LR"])
    @example(["L", "LL"])
    def test_any_strings_give_the_braid_of_their_link_or_an_error(self, texts):
        # braid_of_words accepts exactly what validate_link accepts, gives
        # the braid of the canonical spellings, and refuses the rest as
        # caller input, never as a failed internal check
        try:
            link = validate_link(texts)
        except LorenzError as exc:
            assert isinstance(exc, (ValidationError, ResourceCapError)), texts
            with pytest.raises((ValidationError, ResourceCapError)):
                braid_of_words(texts)
            return
        assert braid_of_words(texts) == braid_oracle(link), texts

    def test_refuses_what_validate_link_refuses_with_its_message(self):
        # every family of 1-3 strings of 0-3 characters over {L, R, X}, the
        # empty family and an over-cap text: built as the braid of the
        # validated family, or refused as validate_link refuses it
        def outcome(build):
            try:
                return build()
            except LorenzError as exc:
                return type(exc), str(exc)

        texts = ["".join(p) for n in range(4) for p in itertools.product("LRX", repeat=n)]
        families = [[], ["L" * (MAX_LETTERS + 1)], ["LR", "L" * (MAX_LETTERS + 1)]]
        for size in range(1, 4):
            families.extend(map(list, itertools.product(texts, repeat=size)))
        for family in families:
            expected = outcome(lambda: braid_of_words(validate_link(family)))
            assert outcome(lambda: braid_of_words(family)) == expected, family


def seeded_links(count, seed=1729, max_len=12):
    rng = random.Random(seed)
    pool = list(lyndon_words(max_len))
    return [tuple(rng.sample(pool, rng.randint(2, 5))) for _ in range(count)]


class TestRotationRanks:
    """The braid's rotation order against the key sort.  At the default seed
    single words take the rotation sort and links the prefix doubling; a one-
    or two-letter seed forces the doubling on every word longer than it, so
    single words exercise it too."""

    @pytest.fixture(params=[None, 1, 2], ids=["seed-default", "seed-1", "seed-2"])
    def seed(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(braid_mod, "SEED", request.param)

    def test_every_word_to_length_12(self, seed):
        for word in lyndon_words(12):
            link = (word,)
            assert braid_of_words(link) == braid_oracle(link), word

    def test_every_word_set_to_12_letters(self, seed):
        for words in word_sets_up_to(12):
            assert braid_of_words(words) == braid_oracle(words), words

    def test_seeded_links(self, seed):
        for link in seeded_links(3000):
            assert braid_of_words(link) == braid_oracle(link), link

    def test_forged_equal_words_tie(self):
        # validate_link refuses two equal words; a plain tuple bypasses it,
        # and the tie refuses it as caller input, with validate_link's message
        with pytest.raises(ValidationError, match="^components 0 and 1 share the word 'LLR'$"):
            braid_of_words(validate_link(["LLR"]) * 2)
        for length in range(1, 13):
            for letters in itertools.product("LR", repeat=length):
                text = "".join(letters)
                with pytest.raises(ValidationError) as refused:
                    validate_link([text, text])
                with pytest.raises(ValidationError, match=f"^{re.escape(str(refused.value))}$"):
                    braid_of_words([text, text])


class TestRotationSort:
    """A single word of at most SEED letters, in any rotation, is built by one
    sort of its rotations, or refused as validate_link refuses it, without
    reaching the prefix doubling; longer words and links reach it."""

    @pytest.fixture
    def ordered(self, monkeypatch):
        ordered = []
        rotation_order = braid_mod._rotation_order
        monkeypatch.setattr(
            braid_mod, "_rotation_order", lambda texts: ordered.append(texts) or rotation_order(texts)
        )
        return ordered

    @pytest.fixture
    def no_doubling(self, monkeypatch):
        def refuse(texts):
            raise AssertionError(f"{texts} reached the prefix doubling")

        monkeypatch.setattr(braid_mod, "_rotation_order", refuse)

    def test_every_word_to_length_16(self):
        for word in lyndon_words(16):
            link = (word,)
            assert braid_of_words(link) == braid_oracle(link), word

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["seed-minus-1", "seed", "seed-plus-1"])
    def test_seeded_words_on_both_sides_of_the_seed(self, offset, ordered):
        length = braid_mod.SEED + offset
        rng = random.Random(length)
        for _ in range(300):
            text = "".join(rng.choices("LR", k=length))
            assert braid_of_words([text]) == braid_oracle(validate_link([text])), text
        # words of at most SEED letters never reach the prefix doubling
        assert len(ordered) == (300 if offset > 0 else 0)

    @pytest.mark.parametrize("text", ["RL", "RLL", "LRL", "LRLR"])
    def test_sorts_a_text_that_is_not_canonical(self, text, no_doubling):
        if text == "LRLR":
            with pytest.raises(ValidationError, match="^'LRLR' is a proper power$"):
                braid_of_words([text])
        else:
            assert braid_of_words([text]) == braid_oracle(validate_link([text]))

    def test_every_string_to_12_letters_without_the_doubling(self, no_doubling):
        # every rotation of every word, and every proper power
        for length in range(1, 13):
            for letters in itertools.product("LR", repeat=length):
                text = "".join(letters)
                try:
                    braid = braid_of_words([text])
                except ValidationError as exc:
                    assert str(exc) == f"{text!r} is a proper power", text
                    assert (text + text).find(text, 1) < length, text
                else:
                    assert braid == braid_oracle(validate_link([text])), text


class TestLongWords:
    """Words far beyond the atlas lengths, once refused by a rotation-key cap."""

    WORDS = {
        "random": "L" + "".join(random.Random(20_000).choices("LR", k=19_998)) + "R",
        "one-R": "L" * 19_999 + "R",
        "one-L": "L" + "R" * 19_999,
    }

    @pytest.mark.parametrize("name", WORDS)
    def test_strand_order_is_rotation_order(self, name):
        # distinct rotations of one aperiodic word differ within their length,
        # so their order as plain strings is their periodic-extension order
        link = validate_link([self.WORDS[name]])
        (text,) = link
        offset_at = [0] * len(text)
        for k, pos in enumerate(braid_of_words(link).cycles[0]):
            offset_at[pos - 1] = k
        prev = None
        for k in offset_at:
            rotation = text[k:] + text[:k]
            assert prev is None or prev < rotation
            prev = rotation


class TestPositionSequences:
    """Each word's rotation ranks, in rotation order, are one of the braid's
    cycles, and component k, walked along the targets from its least strand,
    spells word k of words_of_braid."""

    @staticmethod
    def check(link):
        braid = braid_of_words(link)
        # a rank sequence starts at the least rotation, the least strand of
        # its cycle, so sorting orders the sequences as cycles does
        assert sorted(position_sequences_oracle(link)) == list(braid.cycles), link
        components, letters = braid.components, strand_letters(braid)
        for k, word in enumerate(words_of_braid(braid)):
            start = pos = components.index(k)
            spelled, walked = [], set()
            while not spelled or pos != start:
                spelled.append(letters[pos])
                walked.add(pos)
                pos = braid.targets[pos] - 1
            assert "".join(spelled) == word, link
            assert walked == {i for i, label in enumerate(components) if label == k}

    def test_equal_the_sort_oracle_on_every_word_set_to_12_letters(self):
        for words in word_sets_up_to(12):
            self.check(words)

    def test_equal_the_sort_oracle_on_seeded_links(self):
        for link in seeded_links(3000):
            self.check(link)


class TestStrandProfile:
    """Trip, crossing and ear counts: the braid's strand profile."""

    def test_ten_strand_profile(self):
        braid = braid_of_words(validate_link(["LRLRRRLRRR"]))
        assert braid.trip == ((5, 1), (7, 2))
        assert braid.crossings == 19
        assert braid.ear_counts == (0, 3, 3, 4)

    def test_trefoil_profile(self):
        braid = braid_of_words(validate_link(["LRLRL"]))
        assert braid.trip == ((2, 3),)
        assert braid.crossings == 6
        assert braid.ear_counts == (1, 2, 2, 0)

    def test_two_strand_crossing(self):
        braid = braid_of_words(validate_link(["LR"]))
        assert braid.trip == ((1, 1),)
        assert braid.crossings == 1
        assert braid.ear_counts == (0, 1, 1, 0)

    def test_fixed_strand_has_no_trip(self):
        for letter in "LR":
            braid = braid_of_words(validate_link([letter]))
            assert braid.trip == ()
            assert braid.crossings == 0

    def test_crossings_equal_inversions(self):
        for word in lyndon_words(11):
            braid = braid_of_words([word])
            assert braid.crossings == inversion_oracle(braid.targets)

    def test_trip_equals_the_oracle_on_every_word_to_length_12(self):
        for word in lyndon_words(12):
            braid = braid_of_words([word])
            assert braid.trip == trip_oracle(braid.targets)


# one hand-built lettered braid (n, targets, letters) per malformation,
# named for the check of lorenz_braid_oracle that refuses it
BAD_BRAIDS = [
    ("field lengths disagree", (2, (1, 2), ("L",))),
    ("field lengths disagree", (0, (), ())),
    ("not a permutation", (2, (1, 1), ("L", "R"))),
    ("letters must be L or R", (1, (1,), ("X",))),
    ("must form an initial block", (2, (1, 2), ("R", "L"))),
    ("left-lobe strand 2 moves left", (3, (2, 1, 3), ("L", "L", "R"))),
    ("right-lobe strand 2 moves right", (3, (1, 3, 2), ("L", "R", "R"))),
    ("must increase", (4, (4, 3, 1, 2), ("L", "L", "R", "R"))),
]
# the malformations a (targets, left) pair can still spell, and the merge
# oracle's refusal: one merge into 1..n refuses every permutation that is
# not two increasing lobe blocks
NOT_MERGED = "targets are not two increasing lobe blocks merging into 1..n"
BAD_FIELDS = [
    ("no strands", ((), 0), "at least one strand and 0..n left strands, not 0 of 0"),
    ("left past n", ((1,), 2), "at least one strand and 0..n left strands, not 2 of 1"),
    ("left negative", ((1,), -1), "at least one strand and 0..n left strands, not -1 of 1"),
    ("not a permutation", ((1, 1), 1), NOT_MERGED),
    ("left-lobe strand 2 moves left", ((2, 1, 3), 2), NOT_MERGED),
    ("right-lobe strand 2 moves right", ((1, 3, 2), 1), NOT_MERGED),
    ("must increase", ((4, 3, 1, 2), 2), NOT_MERGED),
]
# the only strings LorenzBraid refuses, as caller input
BAD_LOBES = [
    ("", "a braid needs at least one strand"),
    ("X", "lobe letters outside {L, R}: ['X']"),
    ("LRx", "lobe letters outside {L, R}: ['x']"),
    ("lr", "lobe letters outside {L, R}: ['l', 'r']"),
    ("L R", "lobe letters outside {L, R}: [' ']"),
]


def every_lobe_string(max_len):
    for length in range(1, max_len + 1):
        for letters in itertools.product("LR", repeat=length):
            yield "".join(letters)


class TestLorenzBraidRejections:
    @pytest.mark.parametrize("lobes, message", BAD_LOBES)
    def test_lobes_refused(self, lobes, message):
        with pytest.raises(ValidationError) as caught:
            LorenzBraid(lobes)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "fields, message", [row[1:] for row in BAD_FIELDS], ids=[row[0] for row in BAD_FIELDS]
    )
    def test_refused(self, fields, message):
        # the merge that once built a braid from its targets, now the oracle
        with pytest.raises(InternalInconsistencyError, match=re.escape(message)):
            merge_oracle(*fields)

    @pytest.mark.parametrize("name, fields", BAD_BRAIDS)
    def test_oracle_refuses_with_the_name(self, name, fields):
        with pytest.raises(InternalInconsistencyError, match=re.escape(name)):
            lorenz_braid_oracle(*fields)

    def test_one_field(self):
        # a braid is its lobe string; targets, left and n are read off
        braid = LorenzBraid("RRLLL")
        assert [field.name for field in dataclasses.fields(braid)] == ["lobes"]
        assert (braid.targets, braid.left, braid.n) == ((3, 4, 5, 1, 2), 3, 5)
        assert braid == braid_of_words(["LRLRL"])

    def test_merge_accepts_exactly_what_the_oracle_accepts(self):
        # every permutation of n <= 6 strands, every lobe split: the merge
        # and the letter oracle accept the same pairs, exactly the standard
        # permutations of the lobe strings, and the reads off each braid are
        # held to the replays
        lobe_braids = {}
        for lobes in every_lobe_string(6):
            braid = LorenzBraid(lobes)
            lobe_braids[braid.targets, braid.left] = braid
        cases = 0
        accepted = {}
        for n in range(1, 7):
            for targets in itertools.permutations(range(1, n + 1)):
                for l_count in range(n + 1):
                    cases += 1
                    letters = ("L",) * l_count + ("R",) * (n - l_count)
                    try:
                        expected = lorenz_braid_oracle(n, targets, letters)
                    except InternalInconsistencyError:
                        with pytest.raises(InternalInconsistencyError):
                            merge_oracle(targets, l_count)
                        continue
                    trip, crossings, ear_counts = merge_oracle(targets, l_count)
                    assert (crossings, ear_counts, trip) == expected[:3]
                    accepted[targets, l_count] = expected
        assert (cases, len(accepted)) == (5_912, 126)
        assert accepted.keys() == lobe_braids.keys()
        for key, expected in accepted.items():
            braid = lobe_braids[key]
            read = (braid.crossings, braid.ear_counts, braid.trip, braid.cycles)
            assert read == expected, braid
            assert braid_generators(braid) == slide_generators_oracle(braid), braid
            assert linking_matrix(braid) == linking_oracle(braid), braid
            assert words_of_braid(braid) == words_oracle(braid), braid


class TestLobeString:
    """A braid stored as its lobe string reads, off one split, what the merge
    of its two lobe blocks read off its targets."""

    def test_every_string_to_12_letters_against_the_merge(self):
        count = 0
        for lobes in every_lobe_string(12):
            braid = LorenzBraid(lobes)
            targets, left = standard_permutation(lobes), lobes.count("L")
            assert (braid.targets, braid.left, braid.n) == (targets, left, len(lobes)), lobes
            trip, crossings, ear_counts = merge_oracle(targets, left)
            assert (braid.trip, braid.crossings, braid.ear_counts) == (trip, crossings, ear_counts)
            cycles = cycles_oracle(targets)
            assert braid.cycles == cycles and braid.component_count == len(cycles), lobes
            count += 1
        assert count == 8_190

    def test_targets_and_cycles_wait_for_first_use(self):
        # the census reads neither: a braid derives them when first asked,
        # once, and every later read returns the same object
        braid = LorenzBraid("RRRRRLRRLL")
        assert not {"targets", "cycles", "components"} & vars(braid).keys()
        assert braid.component_count == 1 and "cycles" in vars(braid)
        cycles, components = braid.cycles, braid.components
        assert braid.cycles is cycles and braid.components is components
        assert vars(braid)["targets"] is braid.targets
        assert cycles == cycles_oracle(braid.targets)

    def test_the_census_builds_no_targets_and_walks_no_cycle(self, monkeypatch):
        for word in lyndon_words(10):
            braid = braid_of_words([word])
            compute_record(braid)
            assert not {"targets", "cycles"} & vars(braid).keys(), word
        targets_read = []
        targets = vars(LorenzBraid)["targets"].func
        monkeypatch.setattr(
            LorenzBraid, "targets", property(lambda braid: targets_read.append(1) or targets(braid))
        )
        lines = list(cli.build_atlas(10))
        assert len(lines) == sum(aperiodic_count(n) for n in range(1, 11))
        assert targets_read == []


LINK_WORD_POOL = list(lyndon_words(12))


class TestDerivedFields:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(LINK_WORD_POOL), min_size=1, max_size=3, unique=True))
    def test_against_oracles_on_link_families(self, words):
        braid = braid_of_words(words)
        assert braid.crossings == inversion_oracle(braid.targets)
        counter = Counter(ear_types(braid))
        assert braid.ear_counts == tuple(counter[t] for t in ("LL", "LR", "RL", "RR"))
        assert braid.trip == trip_oracle(braid.targets)
        assert sum(p * q for p, q in braid.trip) == braid.crossings
        # recorded by braid_of_words, one per word, without a walk
        assert braid.component_count == len(cycles_oracle(braid.targets)) == len(words)

    def test_fields_stay_plain_properties(self):
        # perfbench/tracer.py times these two by wrapping
        # vars(LorenzBraid)[name].fget; a cached_property or a dataclass
        # field in their place would break every traced benchmark run.
        for name in ("crossings", "ear_counts"):
            assert isinstance(vars(LorenzBraid)[name], property)


class TestBraidGenerators:
    def test_trefoil_word_length_and_closure(self):
        braid = braid_of_words(validate_link(["LRLRL"]))
        gens = braid_generators(braid)
        assert len(gens) == 6
        assert len(braid.cycles) == 1

    def test_identity_braid_is_empty(self):
        assert braid_generators(braid_of_words(validate_link(["L"]))) == []

    def test_ten_strand_generator_count(self):
        braid = braid_of_words(validate_link(["LRLRRRLRRR"]))
        assert len(braid_generators(braid)) == 19

    def test_each_pair_crosses_at_most_once(self):
        for word in lyndon_words(9):
            braid = braid_of_words([word])
            # replay the word: generator i takes the strand at position i
            # over the one at position i + 1, and the two swap
            arrangement = list(range(1, braid.n + 1))
            pairs = []
            for i in braid_generators(braid):
                assert 1 <= i <= braid.n - 1
                over, under = arrangement[i - 1], arrangement[i]
                assert over <= braid.left < under
                pairs.append((over, under))
                arrangement[i - 1], arrangement[i] = under, over
            assert len(pairs) == len(set(pairs))


class TestLinkingMatrix:
    def test_two_four_torus_link(self):
        braid = to_lorenz(TLinkParams(((2, 4),)))
        assert linking_matrix(braid) == [[0, 2], [2, 0]]

    def test_knot_is_trivial(self):
        braid = braid_of_words(validate_link(["LRLRL"]))
        assert linking_matrix(braid) == [[0]]

    def test_three_component_link_against_oracle(self):
        braid = braid_of_words(validate_link(["L", "R", "LR"]))
        assert linking_matrix(braid) == linking_oracle(braid)

    def test_various_links_against_oracle(self):
        pool = list(lyndon_words(5))
        for pair in itertools.combinations(pool, 2):
            braid = braid_of_words(pair)
            assert linking_matrix(braid) == linking_oracle(braid)


def t_link_params_up_to(budget):
    """Every T-link parameter list, the empty one included, with
    p_k + sum q <= budget: the strand count of its Lorenz braid."""
    out = [()]

    def extend(prev_p, q_sum, chosen):
        for p in range(prev_p + 1, budget):
            for q in range(1, budget - p - q_sum + 1):
                chosen.append((p, q))
                out.append(tuple(chosen))
                extend(p, q_sum + q, chosen)
                chosen.pop()

    extend(0, 0, [])
    return out


class TestReadOffThePermutation:
    """Left strand i passes over right strands left + 1 .. left + (t_i - i)
    and no other strands cross, so the generators, the linking numbers and
    the words are read off the targets.  Each read is held to an oracle that
    replays the strands instead; every braid of at most six strands is held
    to them in test_merge_accepts_exactly_what_the_oracle_accepts."""

    def test_generators_and_linking_on_seeded_links(self):
        for link in seeded_links(1500, seed=11, max_len=11):
            braid = braid_of_words(link)
            assert braid_generators(braid) == slide_generators_oracle(braid), link
            assert linking_matrix(braid) == linking_oracle(braid), link

    def test_words_on_every_small_t_link(self):
        params = t_link_params_up_to(14)
        assert len(params) == 8_192
        repeated = 0
        for pairs in params:
            braid = to_lorenz(TLinkParams(pairs))
            words = words_of_braid(braid)
            assert words == words_oracle(braid), pairs
            repeated += len(set(words)) < len(words)
        assert repeated  # parallel orbits repeat a word

    def test_words_on_seeded_links(self):
        for link in seeded_links(4000, seed=12):
            braid = braid_of_words(link)
            words = words_of_braid(braid)
            assert words == words_oracle(braid), link
            assert sorted(words) == sorted(link), link


class TestSerialization:
    def test_json_roundtrip(self):
        braid = braid_of_words(validate_link(["LRLRRRLRRR", "LR"]))
        data = braid.to_json_dict()
        # the wire form carries the whole braid: each type's first letter is
        # its strand's letter, and the L's are the left strands
        letters = "".join(t[0] for t in data["types"])
        lobes = [""] * data["n"]
        for letter, target in zip(letters, data["targets"]):
            lobes[target - 1] = letter  # the strand ending there
        rebuilt = LorenzBraid("".join(lobes))
        assert rebuilt == braid and data["n"] == rebuilt.n
        assert list(rebuilt.targets) == data["targets"]
        assert letters == strand_letters(rebuilt)
        assert list(rebuilt.components) == data["components"]
        assert data["trip"] == [list(pq) for pq in braid.trip]
