"""Canonical form, enumeration and symmetry of cyclic words."""

import pytest
from rotation_oracle import least_rotation_oracle

from lorenzlinks import modular as modular_mod
from lorenzlinks import words as words_mod
from lorenzlinks.errors import ResourceCapError, ValidationError
from lorenzlinks.modular import matrix_of_word, rademacher_psi, word_of_matrix
from lorenzlinks.words import (
    aperiodic_count,
    canonicalize,
    involute,
    least_rotation,
    lyndon_words,
    smallest_period,
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
        assert canonicalize("RLRLL") == "LLRLR"

    def test_single_letter(self):
        assert canonicalize("L") == "L"
        assert canonicalize("R") == "R"

    def test_periodic_rejected(self):
        with pytest.raises(ValidationError, match="^'LRLR' is a proper power$"):
            canonicalize("LRLR")
        with pytest.raises(ValidationError, match="^'LLL' is a proper power$"):
            canonicalize("LLL")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="^a cyclic word needs at least one letter$"):
            canonicalize("")

    def test_bad_letters_rejected(self):
        with pytest.raises(ValidationError):
            canonicalize("LRX")

    def test_idempotent_and_rotation_invariant(self):
        for word in lyndon_words(7):
            for k in range(len(word)):
                rotated = word[k:] + word[:k]
                assert canonicalize(rotated) == word
            assert canonicalize(word) == word

    def test_matches_brute_force_on_all_strings(self):
        for n in range(1, 9):
            for bits in range(2**n):
                s = "".join("LR"[(bits >> i) & 1] for i in range(n))
                if brute_is_aperiodic(s):
                    assert canonicalize(s) == brute_least_rotation(s)
                else:
                    with pytest.raises(ValidationError) as caught:
                        canonicalize(s)
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
        monkeypatch.setattr(modular_mod, "least_rotation", counting)
        return counted

    def test_canonicalize_a_string(self, calls):
        assert canonicalize("RLRLL") == "LLRLR"
        assert calls == ["RLRLL"]

    def test_involute_a_word(self, calls):
        word = canonicalize("LLRLR")
        calls.clear()
        assert involute(word) == "LRLRR"
        assert calls == ["RRLRL"]

    def test_modular_unit(self, calls):
        matrix = matrix_of_word("RLRLLRRL")
        decoded = word_of_matrix(matrix)
        assert rademacher_psi(matrix) == 0
        assert decoded == "LLRRLRLR"
        # encoding rotates the typed word once; decoding rotates the spelling
        # of its run period once
        assert calls == ["RLRLLRRL", "LLRRLRLR"]


class TestLetterCap:
    @pytest.fixture
    def cap(self, monkeypatch):
        monkeypatch.setattr(words_mod, "MAX_LETTERS", 12)
        return 12

    def test_cap_is_inclusive(self, cap):
        assert len(canonicalize("R" + "L" * (cap - 1))) == cap
        with pytest.raises(ResourceCapError) as caught:
            canonicalize("R" + "L" * cap)
        assert str(caught.value) == f"a word of {cap + 1} letters is over the cap of {cap}"

    def test_cap_is_checked_before_the_letters(self, cap, monkeypatch):
        def refuse(letters):
            raise AssertionError("the word was read")

        monkeypatch.setattr(words_mod, "smallest_period", refuse)
        monkeypatch.setattr(words_mod, "least_rotation", refuse)
        with pytest.raises(ResourceCapError, match=f"^a word of {cap + 1} letters is over"):
            canonicalize("X" * (cap + 1))
        with pytest.raises(ResourceCapError, match=f"^a word of {2 * cap} letters is over"):
            canonicalize("LR" * cap)


class TestValidateLink:
    def test_three_component_example(self):
        link = validate_link(["LRLRL", "LRLRLRL", "LRLRRRLRRR"])
        assert link == ("LLRLR", "LLRLRLR", "LRLRRRLRRR")
        assert sum(len(w) for w in link) == 22

    def test_duplicate_cyclic_words(self):
        with pytest.raises(ValidationError, match="^components 0 and 1 share the word 'LR'$"):
            validate_link(["LR", "RL"])

    def test_periodic_component(self):
        with pytest.raises(ValidationError, match="^'LRLR' is a proper power$"):
            validate_link(["LRLR"])

    def test_empty_link(self):
        with pytest.raises(ValidationError, match="^a link needs at least one component word$"):
            validate_link([])


class TestEnumerate:
    def test_small_cases(self):
        assert list(lyndon_words(2)) == ["L", "R", "LR"]
        assert list(lyndon_words(1)) == ["L", "R"]

    def test_counts_match_necklace_formula(self):
        words = lyndon_words(20)
        by_length = {}
        for w in words:
            by_length[len(w)] = by_length.get(len(w), 0) + 1
        for n in range(1, 21):
            assert by_length[n] == aperiodic_count(n)

    # counts read off by hand, with no walk over divisors: the points of least
    # period n are those of period dividing n less those of a smaller period,
    # and those are 2 fixed points at a prime p and, at n = 2^k, the points
    # of period dividing 2^(k-1)
    @pytest.mark.parametrize(
        "n, expected",
        [pytest.param(p, (2**p - 2) // p, id=f"prime-{p}") for p in (2, 61, 127, 1009)]
        + [
            pytest.param(2**k, (2 ** 2**k - 2 ** 2 ** (k - 1)) // 2**k, id=f"two-to-the-{k}")
            for k in range(1, 11)
        ],
    )
    def test_count_equals_its_closed_form(self, n, expected):
        assert aperiodic_count(n) == expected

    def test_count_refuses_an_empty_length(self):
        with pytest.raises(ValidationError, match="^length must be >= 1$"):
            aperiodic_count(0)

    def test_matches_brute_force(self):
        words = list(lyndon_words(12))
        for n in range(1, 13):
            ours = {w for w in words if len(w) == n}
            assert ours == brute_canonical_words(n)

    def test_sorted_by_length_then_spelling(self):
        keys = [(len(w), w) for w in lyndon_words(9)]
        assert keys == sorted(keys)

    def test_max_len_validation(self):
        with pytest.raises(ValidationError):
            next(lyndon_words(0))


def duval_and_sort(max_len: int) -> list[str]:
    """The census word list as it was built before lyndon_words streamed it:
    Duval's generator over every length up to max_len at once, then a
    stable sort by length."""
    out: list[str] = []
    buf = [-1]
    while buf:
        buf[-1] += 1
        out.append("".join("LR"[i] for i in buf))
        m = len(buf)
        while len(buf) < max_len:
            buf.append(buf[-m])
        while buf and buf[-1] == 1:
            buf.pop()
    out.sort(key=len)
    return out


class TestLyndonWords:
    """The census words are canonical by construction, so nothing re-checks
    them on the way into the atlas; these tests are that check."""

    def test_each_length_is_its_canonical_words_in_spelling_order(self):
        by_length: dict[int, list[str]] = {}
        for text in lyndon_words(16):
            by_length.setdefault(len(text), []).append(text)
        assert sorted(by_length) == list(range(1, 17))
        for n, texts in by_length.items():
            assert len(texts) == aperiodic_count(n)
            for text in texts:
                assert least_rotation(text) == text
                assert smallest_period(text) == n
            assert all(a < b for a, b in zip(texts, texts[1:])), n

    def test_lyndon_words_is_the_old_word_list(self):
        assert list(lyndon_words(14)) == duval_and_sort(14)


class TestInvolute:
    def test_examples(self):
        # canonical trefoil spelling is LLRLR; its lobe swap canonicalizes to LRLRR
        assert involute("LRLRL") == "LRLRR"
        assert involute("LR") == "LR"

    def test_involution_property(self):
        for w in lyndon_words(10):
            assert involute(involute(w)) == w

    def test_bijection_per_length(self):
        for n in range(1, 11):
            words = [w for w in lyndon_words(n) if len(w) == n]
            images = {involute(w) for w in words}
            assert images == set(words)


class TestExtensionOrder:
    def test_rotation_comparisons_never_tie(self):
        keys = set()
        for w in lyndon_words(8):
            for k in range(len(w)):
                key = ((w[k:] + w[:k]) * 16)[:16]
                assert key not in keys
                keys.add(key)

    def test_least_rotation_agrees_with_brute_force(self):
        for s in ("LRRLRL", "RRRL", "LRLLRR"):
            assert least_rotation(s) == brute_least_rotation(s)


class TestLeastRotation:
    """least_rotation compares only the starts of the longest L runs; the
    oracle is the min over every rotation."""

    def test_every_string_of_at_most_14_letters(self):
        # periodic strings, one-letter strings and the empty string included;
        # the linear-time test oracle is held to the min over rotations too
        assert least_rotation("") == least_rotation_oracle("") == ""
        for n in range(1, 15):
            for bits in range(2**n):
                s = "".join("LR"[(bits >> i) & 1] for i in range(n))
                assert least_rotation(s) == brute_least_rotation(s) == least_rotation_oracle(s), s

    @pytest.mark.parametrize(
        "shape",
        [
            "LR" * 999 + "RR",
            "L" + "LR" * 999 + "R",
            "LLR" * 666 + "LR",
            "LLR" * 665 + "LRLRLLR" + "R",
            "LR" * 1000,
            "LLR" * 666 + "LL",
        ],
        ids=[
            "(LR)^999 RR",
            "L (LR)^999 R",
            "(LLR)^666 LR",
            "(LLR)^665 LRLRLLR R",
            "(LR)^1000",
            "(LLR)^666 LL",
        ],
    )
    def test_many_tied_longest_runs(self, shape):
        n = len(shape)
        for k in (0, 1, 2, 777, n - 2, n - 1):
            s = shape[k:] + shape[:k]
            assert least_rotation(s) == brute_least_rotation(s), k

    @pytest.mark.parametrize(
        "s, least",
        [
            ("LLRLRLLL", "LLLLLRLR"),
            ("LRRLLRLL", "LLLRRLLR"),
            ("LLRLRRLLL", "LLLLLRLRR"),
            ("LRLLRLRRL", "LLRLLRLRR"),
            ("L" * 40 + "R" + "L" * 60 + "RR" + "L" * 60, "L" * 100 + "R" + "L" * 60 + "RR"),
        ],
    )
    def test_longest_run_wraps_around(self, s, least):
        # the longest L run crosses the end of the spelling
        assert least_rotation(s) == brute_least_rotation(s) == least
