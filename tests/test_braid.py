"""Braid construction, strand classification and the linking matrix.

Two sweeps check the library, each quantity once.  The field sweep holds
every field and read of a braid to ``lobe_oracle``, which computes each from
the lobe string alone; its inputs, every lobe string of at most 12 letters,
the T-links and the seeded links, are built once, and each test of it reads
its own fields.  The construction sweep holds ``braid_of_words`` to
``bwt_oracle``, which sorts spelled rotations.  The other tests are worked
examples, refusals and laziness checks.
"""

import dataclasses
import functools
import itertools
import operator
import random
import re
from collections import Counter

import pytest
from bwt_oracle import bwt, sorted_rotations
from hypothesis import example, given, settings
from hypothesis import strategies as st
from link_families import every_lobe_string, seeded_links, t_link_params_up_to, word_sets_up_to
from lobe_oracle import lobe_reads, replay_generators

from lorenzlinks import braid as braid_mod
from lorenzlinks import cli
from lorenzlinks.braid import (
    LorenzBraid,
    braid_generators,
    braid_of_words,
    linking_matrix,
    words_of_braid,
)
from lorenzlinks.errors import LorenzError, ResourceCapError, ValidationError
from lorenzlinks.invariants import compute_record
from lorenzlinks.tlink import TLinkParams, to_lorenz
from lorenzlinks.words import MAX_LETTERS, aperiodic_count, lyndon_words, validate_link

# every LorenzBraid field but the lobe string it is built from
FIELDS = (
    "n",
    "left",
    "targets",
    "trip",
    "crossings",
    "ear_counts",
    "cycles",
    "components",
    "component_count",
)
# every field and read of a braid, keyed as lobe_oracle.lobe_reads keys it
READS = {name: operator.attrgetter(name) for name in FIELDS}
READS.update(
    words=words_of_braid,
    linking_matrix=linking_matrix,
    to_json_dict=operator.methodcaller("to_json_dict"),
)


@functools.cache
def lobe_string_sweep():
    """The braid of every lobe string of at most 12 letters, each with the
    lobe oracle's reads, built once for the tests that share them."""
    return [(LorenzBraid(lobes), lobe_reads(lobes)) for lobes in every_lobe_string(12)]


@functools.cache
def seeded_link_sweep():
    """3,000 seeded links, each with its braid and the lobe oracle's reads."""
    out = []
    for link in seeded_links(3000):
        braid = braid_of_words(link)
        out.append((link, braid, lobe_reads(braid.lobes)))
    return out


def assert_reads(braid, expected, names):
    """The named reads of ``braid`` equal the lobe oracle's ``expected``."""
    read = {name: READS[name](braid) for name in names}
    assert read == {name: expected[name] for name in names}, braid.lobes


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
        # with the Gessel-Reutenauer bijection: the strings whose words are
        # pairwise distinct are the braids of the word sets, 2^(n - 1) of
        # n >= 2 letters, and aperiodic_count(n) strings spell one word
        word_sets, distinct, knots = set(), Counter(), Counter()
        for braid, _ in lobe_string_sweep():
            words = words_of_braid(braid)
            if len(set(words)) == len(words):
                distinct[braid.n] += 1
                word_sets.add(tuple(sorted(words)))
                assert braid_of_words(words) == braid, braid.lobes
            knots[braid.n] += len(words) == 1
        assert word_sets == {tuple(sorted(words)) for words in word_sets_up_to(12)}
        for n in range(2, 13):
            assert (distinct[n], knots[n]) == (2 ** (n - 1), aperiodic_count(n)), n

    def test_over_strand_criterion(self):
        # a left-lobe strand never ends left of its start, a right-lobe
        # strand never right of it
        for braid, _ in lobe_string_sweep():
            moves = [t - s for s, t in enumerate(braid.targets, start=1)]
            assert min(moves[: braid.left], default=0) >= 0, braid.lobes
            assert max(moves[braid.left :], default=0) <= 0, braid.lobes

    def test_lr_equals_rl_everywhere(self):
        for braid, expected in lobe_string_sweep():
            assert_reads(braid, expected, ["ear_counts"])
            _, lr, rl, _ = braid.ear_counts
            assert lr == rl, braid.lobes

    def test_position_sequences_chain_through_targets(self):
        # the strand starting at the rank of rotation k ends at the rank of
        # rotation k + 1, one letter on
        link = validate_link(["LRLRL", "LRLRLRL", "LRLRRRLRRR"])
        braid = braid_of_words(link)
        rank = {(ci, k): pos for pos, (_, ci, k) in enumerate(sorted_rotations(link), start=1)}
        for (ci, k), pos in rank.items():
            assert braid.targets[pos - 1] == rank[ci, (k + 1) % len(link[ci])]

    def test_strand_meta(self):
        # the per-strand labels, read off the braid itself
        braid = braid_of_words(validate_link(["LRLRRRLRRR"]))
        types = braid.to_json_dict()["types"]
        assert braid.components[0] == 0
        assert types[0] == "LR"
        assert braid.targets[0] - 1 == 5
        assert braid.targets[9] - 10 == -2 and types[9] == "RR"
        fixed = braid_of_words(validate_link(["L"]))
        assert fixed.to_json_dict()["types"] == ["LL"] and fixed.lobes == "L"
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
        assert braid_of_words(texts).lobes == bwt(link), texts

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


class TestRotationRanks:
    """The construction sweep over links: the braid's lobe string against
    the BWT oracle's.  At the default seed single words take the rotation
    sort and links the prefix doubling; a one- or two-letter seed forces the
    doubling on every word longer than it, so single words exercise it too."""

    @pytest.fixture(params=[None, 1, 2], ids=["seed-default", "seed-1", "seed-2"])
    def seed(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(braid_mod, "SEED", request.param)

    def test_every_word_to_length_12(self, seed):
        for word in lyndon_words(12):
            link = (word,)
            assert braid_of_words(link).lobes == bwt(link), word

    def test_every_word_set_to_12_letters(self, seed):
        for words in word_sets_up_to(12):
            assert braid_of_words(words).lobes == bwt(words), words

    def test_seeded_links(self, seed):
        for link in seeded_links(3000):
            assert braid_of_words(link).lobes == bwt(link), link

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
    """The construction sweep over single words.  A word of at most SEED
    letters, in any rotation, is built by one sort of its rotations, or
    refused as validate_link refuses it, without reaching the prefix
    doubling; longer words and links reach it."""

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
            assert braid_of_words(link).lobes == bwt(link), word

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["seed-minus-1", "seed", "seed-plus-1"])
    def test_seeded_words_on_both_sides_of_the_seed(self, offset, ordered):
        length = braid_mod.SEED + offset
        rng = random.Random(length)
        for _ in range(300):
            text = "".join(rng.choices("LR", k=length))
            assert braid_of_words([text]).lobes == bwt(validate_link([text])), text
        # words of at most SEED letters never reach the prefix doubling
        assert len(ordered) == (300 if offset > 0 else 0)

    @pytest.mark.parametrize("text", ["RL", "RLL", "LRL", "LRLR"])
    def test_sorts_a_text_that_is_not_canonical(self, text, no_doubling):
        if text == "LRLR":
            with pytest.raises(ValidationError, match="^'LRLR' is a proper power$"):
                braid_of_words([text])
        else:
            assert braid_of_words([text]).lobes == bwt(validate_link([text]))

    def test_seeded_words_of_every_length_to_the_seed(self, no_doubling):
        # every entry of the rotation table, each word given in a rotation
        # other than its least one (a one-letter word has no other)
        rng = random.Random(braid_mod.SEED)
        for length in range(1, braid_mod.SEED + 1):
            built = 0
            while built < 3:
                text = "".join(rng.choices("LR", k=length))
                rotations = {text[k:] + text[:k] for k in range(length)}
                if len(rotations) < length:
                    continue  # a proper power
                if length > 1 and text == min(rotations):
                    text = text[1:] + text[0]
                assert braid_of_words([text]).lobes == bwt(validate_link([text])), text
                built += 1

    def test_every_string_to_12_letters_without_the_doubling(self, no_doubling):
        # every rotation of every word, and every proper power
        for text in every_lobe_string(12):
            try:
                braid = braid_of_words([text])
            except ValidationError as exc:
                assert str(exc) == f"{text!r} is a proper power", text
                assert (text + text).find(text, 1) < len(text), text
            else:
                assert braid.lobes == bwt(validate_link([text])), text


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
    """The cycles, their component labels and the words they spell."""

    def test_equal_the_sort_oracle_on_every_word_set_to_12_letters(self):
        # every word set of at most 12 letters is the word set of one of
        # these strings (test_full_roundtrip_over_word_sets)
        for braid, expected in lobe_string_sweep():
            assert_reads(braid, expected, ["cycles", "components", "component_count", "words"])

    def test_equal_the_sort_oracle_on_seeded_links(self):
        for _, braid, expected in seeded_link_sweep():
            assert_reads(braid, expected, ["cycles", "components", "component_count"])


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
        for braid, expected in lobe_string_sweep():
            assert_reads(braid, expected, ["crossings"])

    def test_trip_equals_the_oracle_on_every_word_to_length_12(self):
        for braid, expected in lobe_string_sweep():
            assert_reads(braid, expected, ["trip"])
            # each block is a run of L's after an R: the atlas line table's bound
            assert len(braid.trip) <= min(braid.lobes.count("L"), braid.lobes.count("R"))

    def test_ear_counts_are_the_words_cyclic_two_letter_factors(self):
        # a second method from the word alone: strand k leaves the letter of
        # rotation k for the letter of rotation k + 1
        for text in lyndon_words(14):
            factors = Counter(map("".join, zip(text, text[1:] + text[0])))
            expected = tuple(factors[pair] for pair in ("LL", "LR", "RL", "RR"))
            assert braid_of_words([text]).ear_counts == expected, text

    def test_crossings_are_the_rotation_pairs_one_shift_flips(self):
        # a second method from the word alone: two strands cross once when
        # the order of their rotations flips under one shift
        for text in lyndon_words(12):
            n = len(text)
            rotations = [text[k:] + text[:k] for k in range(n)]
            flips = sum(
                rotations[i] < rotations[j] and rotations[(i + 1) % n] > rotations[(j + 1) % n]
                for i in range(n)
                for j in range(n)
            )
            assert braid_of_words([text]).crossings == flips, text

    def test_trip_reaches_half_the_letters(self):
        # the one atlas-18 word with 18 // 2 blocks, the atlas line table's last entry
        assert len(braid_of_words(["LLLLRRLRLRRRRLLRLR"]).trip) == 9


# the only strings LorenzBraid refuses, as caller input
BAD_LOBES = [
    ("", "a braid needs at least one strand"),
    ("X", "lobe letters outside {L, R}: ['X']"),
    ("LRx", "lobe letters outside {L, R}: ['x']"),
    ("lr", "lobe letters outside {L, R}: ['l', 'r']"),
    ("L R", "lobe letters outside {L, R}: [' ']"),
]


class TestLorenzBraidRejections:
    @pytest.mark.parametrize("lobes, message", BAD_LOBES)
    def test_lobes_refused(self, lobes, message):
        with pytest.raises(ValidationError) as caught:
            LorenzBraid(lobes)
        assert str(caught.value) == message

    def test_one_field(self):
        # a braid is its lobe string; targets, left and n are read off
        braid = LorenzBraid("RRLLL")
        assert [field.name for field in dataclasses.fields(braid)] == ["lobes"]
        assert (braid.targets, braid.left, braid.n) == ((3, 4, 5, 1, 2), 3, 5)
        assert braid == braid_of_words(["LRLRL"])

    def test_frozen(self):
        braid = LorenzBraid("RRLLL")
        for name in ("lobes", "n"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(braid, name, "LR")
        assert braid.lobes == "RRLLL"

    def test_equality_and_hash_read_the_lobes_alone(self):
        # a braid from words carries a component count the plain one has not
        # yet computed; neither changes equality or the hash
        built, plain = braid_of_words(["LRLRL"]), LorenzBraid("RRLLL")
        assert "component_count" in vars(built) and "component_count" not in vars(plain)
        assert built == plain and hash(built) == hash(plain)
        assert len({built, plain, LorenzBraid("RRLLR")}) == 2
        assert LorenzBraid("RRLLL") != LorenzBraid("RLRLL")

    def test_replace_rederives_every_field(self):
        braid = dataclasses.replace(LorenzBraid("RRLLL"), lobes="LRRLRLLR")
        reads = lobe_reads("LRRLRLLR")
        for name in ("n", "left", "trip", "crossings", "ear_counts"):
            assert getattr(braid, name) == reads[name], name
        with pytest.raises(ValidationError, match="^a braid needs at least one strand$"):
            dataclasses.replace(braid, lobes="")

    def test_repr(self):
        assert repr(LorenzBraid("RRLLL")) == "LorenzBraid(lobes='RRLLL')"

    def test_merge_accepts_exactly_what_the_oracle_accepts(self):
        # every permutation of n <= 6 strands, every lobe split: the pairs
        # whose left and right blocks of targets each increase, merging into
        # 1..n, are exactly the (targets, left) of the 126 lobe strings
        cases, merged = 0, set()
        for n in range(1, 7):
            for targets in itertools.permutations(range(1, n + 1)):
                for left in range(n + 1):
                    cases += 1
                    blocks = targets[:left], targets[left:]
                    if all(list(block) == sorted(block) for block in blocks):
                        merged.add((targets, left))
        assert (cases, len(merged)) == (5_912, 126)
        braids = map(LorenzBraid, every_lobe_string(6))
        assert {(braid.targets, braid.left) for braid in braids} == merged


class TestLobeString:
    def test_every_string_to_12_letters_against_the_merge(self):
        # the targets are the merge of the L and R blocks of end positions:
        # a stable sort of them by letter
        sweep = lobe_string_sweep()
        assert len(sweep) == 8_190
        for braid, expected in sweep:
            assert_reads(braid, expected, ["n", "left", "targets", "to_json_dict"])

    def test_targets_and_cycles_wait_for_first_use(self):
        # the census reads neither: a braid derives them when first asked,
        # once, and every later read returns the same object
        braid = LorenzBraid("RRRRRLRRLL")
        assert not {"targets", "cycles", "components"} & vars(braid).keys()
        assert braid.component_count == 1 and "cycles" in vars(braid)
        cycles, components = braid.cycles, braid.components
        assert braid.cycles is cycles and braid.components is components
        assert vars(braid)["targets"] is braid.targets

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


class TestDerivedFields:
    def test_against_oracles_on_link_families(self):
        for _, braid, expected in seeded_link_sweep():
            fields = ["n", "left", "targets", "trip", "crossings", "ear_counts", "to_json_dict"]
            assert_reads(braid, expected, fields)

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
        for braid, _ in lobe_string_sweep():
            replay_generators(braid.lobes, braid_generators(braid))


class TestLinkingMatrix:
    def test_two_four_torus_link(self):
        braid = to_lorenz(TLinkParams(((2, 4),)))
        assert linking_matrix(braid) == [[0, 2], [2, 0]]

    def test_knot_is_trivial(self):
        braid = braid_of_words(validate_link(["LRLRL"]))
        assert linking_matrix(braid) == [[0]]

    def test_three_component_link_against_oracle(self):
        # the LR orbit passes between the two fixed strands and links neither
        braid = braid_of_words(validate_link(["L", "R", "LR"]))
        assert_reads(braid, lobe_reads(braid.lobes), ["linking_matrix"])
        assert linking_matrix(braid) == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]

    def test_various_links_against_oracle(self):
        for braid, expected in lobe_string_sweep():
            assert_reads(braid, expected, ["linking_matrix"])


class TestReadOffThePermutation:
    """The generators, the linking numbers and the words on seeded links, and
    every field and read on the T-links."""

    def test_words_on_every_small_t_link(self):
        params = t_link_params_up_to(14)
        assert len(params) == 8_192
        repeated = 0
        for pairs in params:
            braid = to_lorenz(TLinkParams(pairs))
            expected = lobe_reads(braid.lobes)
            assert_reads(braid, expected, READS)
            replay_generators(braid.lobes, braid_generators(braid))
            repeated += len(set(expected["words"])) < len(expected["words"])
        assert repeated  # parallel orbits repeat a word

    def test_generators_and_linking_on_seeded_links(self):
        for _, braid, expected in seeded_link_sweep():
            replay_generators(braid.lobes, braid_generators(braid))
            assert_reads(braid, expected, ["linking_matrix"])

    def test_words_on_seeded_links(self):
        for link, braid, expected in seeded_link_sweep():
            assert_reads(braid, expected, ["words"])
            words = words_of_braid(braid)
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
        assert letters == "L" * rebuilt.left + "R" * (rebuilt.n - rebuilt.left)
        assert list(rebuilt.components) == data["components"]
        assert data["trip"] == [list(pq) for pq in braid.trip]
