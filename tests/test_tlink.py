"""T-braid words and the Lorenz <-> T-link parameter correspondence."""

import pytest
from rotation_oracle import least_rotation_oracle

from lorenzlinks.braid import braid_generators, braid_of_words, words_of_braid
from lorenzlinks.errors import ResourceCapError, ValidationError
from lorenzlinks.jones import jones_of_braid
from lorenzlinks.tlink import TLinkParams, from_lorenz, t_braid_word, to_lorenz
from lorenzlinks.words import MAX_LETTERS, lyndon_words, validate_link


class TestParams:
    def test_ordering_and_positivity(self):
        increasing = r"^block widths p_i must strictly increase$"
        with pytest.raises(ValidationError, match=increasing):
            TLinkParams(((3, 2), (2, 1)))
        with pytest.raises(ValidationError, match=r"^block \(2, 0\) must be positive$"):
            TLinkParams(((2, 0),))
        with pytest.raises(ValidationError, match=r"^block \(0, 3\) must be positive$"):
            TLinkParams(((0, 3),))
        with pytest.raises(ValidationError, match=increasing):
            TLinkParams(((2, 2), (2, 3)))

    @pytest.mark.parametrize("pair", [[True, 3], [2, False], [2.0, 3], [2, "3"], [None, 1]])
    def test_from_pairs_takes_only_ints(self, pair):
        with pytest.raises(ValidationError, match="must be a pair of integers"):
            TLinkParams.from_pairs([[2, 1], pair])

    def test_from_pairs(self):
        assert TLinkParams.from_pairs([[2, 3], [4, 1]]).pairs == ((2, 3), (4, 1))
        assert TLinkParams.from_pairs(((2, 3), [4, 1])).pairs == ((2, 3), (4, 1))
        assert TLinkParams.from_pairs([]).pairs == ()

    @pytest.mark.parametrize(
        "pairs", [[[1, 2, 3]], [[1]], [[]], [5], "ab", [[2, 3], "ab"], {(2, 3): 1}, None, 7]
    )
    def test_from_pairs_checks_the_shape(self, pairs):
        shape = r"^parameters must be a JSON array of \[p, q\] pairs$"
        with pytest.raises(ValidationError, match=shape):
            TLinkParams.from_pairs(pairs)

    def test_strand_count(self):
        assert TLinkParams(((2, 3), (4, 4), (5, 3))).strands == 5
        assert TLinkParams(()).strands == 1


class TestTBraidWord:
    def test_figure_example(self):
        word = t_braid_word(TLinkParams(((2, 3), (4, 4), (5, 3))))
        expected = [1] * 3 + [1, 2, 3] * 4 + [1, 2, 3, 4] * 3
        assert word == expected
        assert len(word) == 3 * 1 + 4 * 3 + 3 * 4

    def test_single_blocks(self):
        assert t_braid_word(TLinkParams(((2, 3),))) == [1, 1, 1]
        assert t_braid_word(TLinkParams(((2, 1),))) == [1]
        assert t_braid_word(TLinkParams(((1, 2),))) == []

    def test_total_length(self):
        for pairs in [((2, 2), (5, 3)), ((3, 1), (4, 1), (6, 2))]:
            params = TLinkParams(pairs)
            assert len(t_braid_word(params)) == sum(q * (p - 1) for p, q in pairs)


class TestToLorenz:
    def test_figure_eight_strand_counts(self):
        braid = to_lorenz(TLinkParams(((2, 4), (3, 2), (6, 1), (8, 2))))
        assert braid.ear_counts == (6, 3, 3, 5)
        assert braid.n == 17

    def test_trefoil(self):
        braid = to_lorenz(TLinkParams(((2, 3),)))
        assert braid.targets == (3, 4, 5, 1, 2)
        assert braid == braid_of_words(validate_link(["LRLRL"]))

    def test_two_component_parallel_words(self):
        braid = to_lorenz(TLinkParams(((2, 4),)))
        assert braid.n == 6
        assert braid.component_count == 2
        assert [str(w) for w in words_of_braid(braid)] == ["LLR", "LLR"]

    def test_structural_invariants_hold(self):
        # the trip read off the built lobe string is the parameters given
        for pairs in [((2, 2),), ((1, 3), (4, 2)), ((2, 1), (3, 1), (5, 2))]:
            braid = to_lorenz(TLinkParams(pairs))
            assert braid.trip == pairs

    def test_strand_cap_fires_before_any_allocation(self):
        # 10^30 strands could never be allocated: the cap has to fire first
        with pytest.raises(ResourceCapError, match=f"over the cap of {MAX_LETTERS}"):
            to_lorenz(TLinkParams(((2, 10**30),)))
        with pytest.raises(ResourceCapError, match=f"need {MAX_LETTERS + 1} strands"):
            to_lorenz(TLinkParams(((2, 1), (3, MAX_LETTERS - 3))))

    def test_strand_cap_is_inclusive(self):
        braid = to_lorenz(TLinkParams(((2, 1), (3, MAX_LETTERS - 4))))
        assert braid.n == MAX_LETTERS
        # each word is read off its cycle from the least strand, which is
        # already its least rotation
        words = words_of_braid(braid)
        assert [len(word) for word in words] == [66_667, 33_333]
        assert all(word == least_rotation_oracle(word) for word in words)


class TestFromLorenz:
    def test_examples(self):
        assert from_lorenz(braid_of_words(validate_link(["LRLRL"]))).pairs == ((2, 3),)
        braid = braid_of_words(validate_link(["LRLRRRLRRR"]))
        assert from_lorenz(braid).pairs == ((5, 1), (7, 2))

    def test_roundtrip_on_trip_parameters(self):
        for word in lyndon_words(12):
            braid = braid_of_words([word])
            params = from_lorenz(braid)
            assert to_lorenz(params).trip == params.pairs


class TestCrossParametrization:
    def test_genus_agrees_between_presentations(self):
        # same fiber surface count from either braid: c - n + 1 must match
        for word in lyndon_words(12):
            braid = braid_of_words([word])
            params = from_lorenz(braid)
            t_crossings = len(t_braid_word(params))
            assert t_crossings - params.strands + 1 == braid.crossings - braid.n + 1

    def test_jones_agrees_on_small_words(self):
        # the decisive correspondence check; the full sweep runs in acceptance
        for word in lyndon_words(9):
            braid = braid_of_words([word])
            if braid.crossings > 12:
                continue
            params = from_lorenz(braid)
            lorenz_jones = jones_of_braid(braid_generators(braid), braid.n)
            t_jones = jones_of_braid(t_braid_word(params), params.strands)
            assert lorenz_jones == t_jones, str(word)
