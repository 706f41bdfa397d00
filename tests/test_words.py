"""Canonical form, enumeration and symmetry of cyclic words."""

import pytest

from lorenzlinks import words as words_mod
from lorenzlinks.errors import (
    CapExceededError,
    DuplicateComponentError,
    EmptyWordError,
    PeriodicWordError,
    ValidationError,
)
from lorenzlinks.modular import matrix_of_word, rademacher_psi, word_of_matrix
from lorenzlinks.tlink import MAX_STRANDS
from lorenzlinks.words import (
    MAX_LETTERS,
    CyclicWord,
    aperiodic_count,
    canonicalize,
    enumerate_words,
    extend_periodic,
    involute,
    least_rotation,
    validate_link,
)


def brute_least_rotation(s: str) -> str:
    return min(s[i:] + s[:i] for i in range(len(s)))


def brute_is_aperiodic(s: str) -> bool:
    n = len(s)
    return all(s[i:] + s[:i] != s for i in range(1, n))


def brute_canonical_words(n: int) -> set[str]:
    found = set()
    for bits in range(2**n):
        s = "".join("LR"[(bits >> i) & 1] for i in range(n))
        if brute_is_aperiodic(s):
            found.add(brute_least_rotation(s))
    return found


class TestCanonicalize:
    def test_example_rlrll(self):
        # oracle: least of the 5 rotations
        assert brute_least_rotation("RLRLL") == "LLRLR"
        assert canonicalize("RLRLL").letters == "LLRLR"

    def test_single_letter(self):
        assert canonicalize("L").letters == "L"
        assert canonicalize("R").letters == "R"

    def test_periodic_rejected(self):
        with pytest.raises(PeriodicWordError):
            canonicalize("LRLR")
        with pytest.raises(PeriodicWordError):
            canonicalize("LLL")

    def test_empty_rejected(self):
        with pytest.raises(EmptyWordError):
            canonicalize("")

    def test_bad_letters_rejected(self):
        with pytest.raises(ValidationError):
            canonicalize("LRX")

    def test_idempotent_and_rotation_invariant(self):
        for word in enumerate_words(7):
            s = word.letters
            for k in range(len(s)):
                rotated = s[k:] + s[:k]
                assert canonicalize(rotated) == word
            assert canonicalize(word) is word

    def test_matches_brute_force_on_all_strings(self):
        for n in range(1, 9):
            for bits in range(2**n):
                s = "".join("LR"[(bits >> i) & 1] for i in range(n))
                if brute_is_aperiodic(s):
                    assert canonicalize(s).letters == brute_least_rotation(s)
                else:
                    with pytest.raises(PeriodicWordError):
                        canonicalize(s)

    def test_direct_construction_canonicalizes(self):
        assert CyclicWord("RL").letters == "LR"
        for n in range(1, 9):
            for bits in range(2**n):
                s = "".join("LR"[(bits >> i) & 1] for i in range(n))
                if brute_is_aperiodic(s):
                    assert CyclicWord(s) == canonicalize(s)
                    assert CyclicWord(s).letters == brute_least_rotation(s)
                else:
                    with pytest.raises(PeriodicWordError) as caught:
                        CyclicWord(s)
                    assert str(caught.value) == f"{s!r} is a proper power"


class TestLeastRotationOnce:
    """Each canonical word is made by exactly one least rotation."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []

        def counting(letters):
            counted.append(letters)
            return least_rotation(letters)

        monkeypatch.setattr(words_mod, "least_rotation", counting)
        return counted

    def test_canonicalize_a_string(self, calls):
        assert canonicalize("RLRLL").letters == "LLRLR"
        assert calls == ["RLRLL"]

    def test_involute_a_word(self, calls):
        word = canonicalize("LLRLR")
        calls.clear()
        assert involute(word).letters == "LRLRR"
        assert calls == ["RRLRL"]

    def test_modular_unit(self, calls):
        matrix = matrix_of_word("RLRLLRRL")
        decoded = word_of_matrix(matrix)
        assert rademacher_psi(matrix) == 0
        assert decoded.letters == "LLRRLRLR"
        assert len(calls) == 2


class TestLetterCap:
    @pytest.fixture
    def cap(self, monkeypatch):
        monkeypatch.setattr(words_mod, "MAX_LETTERS", 12)
        return 12

    def test_cap_covers_every_t_link_the_strand_cap_admits(self):
        assert MAX_LETTERS >= MAX_STRANDS

    def test_cap_is_inclusive(self, cap):
        assert len(CyclicWord("R" + "L" * (cap - 1))) == cap
        with pytest.raises(CapExceededError) as caught:
            CyclicWord("R" + "L" * cap)
        assert str(caught.value) == f"a word of {cap + 1} letters is over the cap of {cap}"

    def test_cap_is_checked_before_the_letters(self, cap, monkeypatch):
        def refuse(letters):
            raise AssertionError("the word was read")

        monkeypatch.setattr(words_mod, "smallest_period", refuse)
        monkeypatch.setattr(words_mod, "least_rotation", refuse)
        with pytest.raises(CapExceededError):
            CyclicWord("X" * (cap + 1))
        with pytest.raises(CapExceededError):
            canonicalize("LR" * cap)


class TestValidateLink:
    def test_three_component_example(self):
        link = validate_link(["LRLRL", "LRLRLRL", "LRLRRRLRRR"])
        assert link.component_count == 3
        assert link.total_letters == 22

    def test_duplicate_cyclic_words(self):
        with pytest.raises(DuplicateComponentError):
            validate_link(["LR", "RL"])

    def test_periodic_component(self):
        with pytest.raises(PeriodicWordError):
            validate_link(["LRLR"])

    def test_empty_link(self):
        with pytest.raises(EmptyWordError):
            validate_link([])


class TestEnumerate:
    def test_small_cases(self):
        assert [w.letters for w in enumerate_words(2)] == ["L", "R", "LR"]
        assert [w.letters for w in enumerate_words(1)] == ["L", "R"]

    def test_counts_match_necklace_formula(self):
        words = enumerate_words(20)
        by_length = {}
        for w in words:
            by_length[len(w)] = by_length.get(len(w), 0) + 1
        for n in range(1, 21):
            assert by_length[n] == aperiodic_count(n)
        assert aperiodic_count(5) == 6  # (2^5 - 2) / 5

    def test_matches_brute_force(self):
        words = enumerate_words(12)
        for n in range(1, 13):
            ours = {w.letters for w in words if len(w) == n}
            assert ours == brute_canonical_words(n)

    def test_sorted_by_length_then_spelling(self):
        words = enumerate_words(9)
        keys = [(len(w), w.letters) for w in words]
        assert keys == sorted(keys)

    def test_max_len_validation(self):
        with pytest.raises(ValidationError):
            enumerate_words(0)


class TestInvolute:
    def test_examples(self):
        # canonical trefoil spelling is LLRLR; its lobe swap canonicalizes to LRLRR
        assert involute("LRLRL").letters == "LRLRR"
        assert involute("LR").letters == "LR"

    def test_involution_property(self):
        for w in enumerate_words(10):
            assert involute(involute(w)) == w

    def test_bijection_per_length(self):
        for n in range(1, 11):
            words = [w for w in enumerate_words(n) if len(w) == n]
            images = {involute(w) for w in words}
            assert images == set(words)


class TestExtensionOrder:
    def test_rotation_comparisons_never_tie(self):
        words = enumerate_words(8)
        keys = set()
        for w in words:
            for rotation in w.rotations():
                key = extend_periodic(rotation, 16)
                assert key not in keys
                keys.add(key)

    def test_extension_prefix(self):
        assert extend_periodic("LR", 5) == "LRLRL"
        assert extend_periodic("L", 3) == "LLL"

    def test_least_rotation_agrees_with_brute_force(self):
        for s in ("LRRLRL", "RRRL", "LRLLRR"):
            assert least_rotation(s) == brute_least_rotation(s)
