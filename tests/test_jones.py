"""Temperley-Lieb bracket against the state-sum oracle, Jones normalization,
and the torus closed form."""

import math

import pytest
from bracket_oracle import state_sum_bracket
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorenzlinks import jones as jones_mod
from lorenzlinks.braid import braid_generators, braid_of_words
from lorenzlinks.errors import (
    CapExceededError,
    DivisionRemainderError,
    InternalInconsistencyError,
    NotCoprimeError,
    TooManyCrossingsError,
    ValidationError,
)
from lorenzlinks.jones import (
    LaurentPoly,
    _unpack,
    divide_exact,
    jones_of_braid,
    jones_torus,
    kauffman_bracket,
)
from lorenzlinks.tlink import TLinkParams, from_lorenz, t_braid_word
from lorenzlinks.words import LinkWords, enumerate_words, involute, validate_link


def poly(pairs) -> LaurentPoly:
    return LaurentPoly(dict(pairs))


def t_power(exponent_quarters: int, coeff: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial(coeff, exponent_quarters)


def knot_braids(max_crossings: int):
    """Lorenz braids of every knot word of length <= 12 with at most
    ``max_crossings`` crossings, with their words."""
    for word in enumerate_words(12):
        braid = braid_of_words(LinkWords((word,)))
        if braid.crossings <= max_crossings:
            yield word, braid


@st.composite
def positive_braids(draw):
    n = draw(st.integers(1, 7))
    if n == 1:
        return [], 1
    return draw(st.lists(st.integers(1, n - 1), max_size=12)), n


class TestLaurentPoly:
    def test_arithmetic(self):
        a = poly({0: 1, 4: 2})
        b = poly({4: -2, 8: 3})
        assert (a + b).pairs() == ((0, 1), (8, 3))
        assert (a * b).pairs() == ((4, -2), (8, -1), (12, 6))
        assert (a - a).pairs() == ()
        assert poly({0: 1}) ** 5 == LaurentPoly.one()

    def test_no_zero_coefficients_stored(self):
        assert poly({4: 0, 8: 1}).pairs() == ((8, 1),)

    def test_format(self):
        assert poly({4: 1, 12: 1, 16: -1}).format() == "t + t^3 - t^4"
        assert poly({2: -1}).format() == "-t^(1/2)"
        assert LaurentPoly.zero().format() == "0"

    def test_division_exact(self):
        num = LaurentPoly.one() - LaurentPoly.var_power(4)
        den = LaurentPoly.one() - LaurentPoly.var_power(2)
        assert divide_exact(num, den) == LaurentPoly.one() + LaurentPoly.var_power(2)

    def test_division_remainder_detected(self):
        num = LaurentPoly.one() - LaurentPoly.var_power(3)
        den = LaurentPoly.one() - LaurentPoly.var_power(2)
        with pytest.raises(DivisionRemainderError):
            divide_exact(num, den)


class TestKauffmanBracket:
    def test_zero_crossing_unknot(self):
        assert kauffman_bracket([], 1) == LaurentPoly.one()

    def test_single_positive_crossing(self):
        # hand state sum: A * delta + A^-1 = -A^3
        assert kauffman_bracket([1], 2) == t_power(12, -1)

    def test_hopf_link(self):
        # hand state sum over 4 states: -A^4 - A^-4
        assert kauffman_bracket([1, 1], 2) == poly({16: -1, -16: -1})

    def test_crossing_limit(self):
        with pytest.raises(TooManyCrossingsError):
            kauffman_bracket([1] * 21, 2)
        with pytest.raises(TooManyCrossingsError):
            kauffman_bracket([1] * 9, 2, max_crossings=8)
        assert kauffman_bracket([1] * 9, 2, max_crossings=9)

    def test_generator_positions_validated(self):
        with pytest.raises(ValidationError):
            kauffman_bracket([2], 2)


class TestBracketAgainstStateSum:
    """The transfer evaluation equals the 2^c state sum of bracket_oracle."""

    def test_t_braids_of_small_knots(self):
        checked = 0
        for _, braid in knot_braids(16):
            params = from_lorenz(braid)
            word = t_braid_word(params)
            assert kauffman_bracket(word, params.strands) == state_sum_bracket(
                word, params.strands
            ), params
            checked += 1
        assert checked == 310

    def test_lorenz_braids_up_to_fourteen_crossings(self):
        for word, braid in knot_braids(14):
            generators = braid_generators(braid)
            assert kauffman_bracket(generators, braid.n) == state_sum_bracket(
                generators, braid.n
            ), word

    @settings(max_examples=200, deadline=None)
    @given(positive_braids())
    @example(([], 1))
    @example(([], 4))
    @example(([1, 4, 1, 4], 6))  # positions 3 and 6 untouched
    def test_random_positive_braids(self, braid):
        word, n = braid
        assert kauffman_bracket(word, n) == state_sum_bracket(word, n)

    def test_more_strands_than_a_byte_key_holds(self):
        n = 300
        word = [1, 299, 150, 151, 150, 1, 299, 2, 151]
        assert kauffman_bracket(word, n) == state_sum_bracket(word, n)


class TestPackedSlots:
    """Edge cases of the packed evaluation: a slot of W = c + closures + 2
    bits per power of u = A^-2, negative digits that borrow from the slot
    above, and closure offsets that move every exponent."""

    @pytest.mark.parametrize("width", [2, 3, 9, 64])
    def test_unpack_digits_at_the_slot_edges(self, width):
        half = 1 << (width - 1)
        digits = [-half, half - 1, 0, -1, 1, -half, half - 1, -half]
        packed = sum(digit << (width * k) for k, digit in enumerate(digits))
        assert _unpack(packed, width, len(digits)) == digits
        assert _unpack(packed, width, len(digits) + 2) == digits + [0, 0]

    @pytest.mark.parametrize("width", [2, 9])
    def test_unpack_refuses_digits_beyond_its_slots(self, width):
        with pytest.raises(InternalInconsistencyError):
            _unpack(1 << (3 * width), width, 3)
        # +2^(W-1) is not a balanced digit: it borrows from a fourth slot
        with pytest.raises(InternalInconsistencyError):
            _unpack(1 << (3 * width - 1), width, 3)

    @pytest.mark.parametrize("c", range(1, 15))
    def test_powers_of_one_generator(self, c):
        # the (2, c) torus links: signs alternate, so most digits borrow
        assert kauffman_bracket([1] * c, 2) == state_sum_bracket([1] * c, 2)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_full_twists(self, n):
        # (s_1 ... s_{n-1})^n has c = n(n - 1) and the largest coefficients
        # here; n = 5 is 20 crossings, about 7 s of state sum
        word = list(range(1, n)) * n
        assert kauffman_bracket(word, n) == state_sum_bracket(word, n)

    @pytest.mark.parametrize(
        "word, n",
        [
            ([1], 40),
            ([20, 20, 20], 40),
            ([39, 38, 39], 40),
            ([7, 9, 7, 9], 16),
            ([1, 1, 15, 15, 15], 16),
        ],
    )
    def test_mostly_untouched_strands(self, word, n):
        assert kauffman_bracket(word, n) == state_sum_bracket(word, n)


class TestJonesOfBraid:
    def test_unknot_normalizations(self):
        assert jones_of_braid([], 1) == LaurentPoly.one()
        assert jones_of_braid([1], 2) == LaurentPoly.one()

    def test_trefoil_value(self):
        expected = poly({4: 1, 12: 1, 16: -1})  # t + t^3 - t^4
        assert jones_of_braid([1, 1, 1], 2) == expected

    def test_both_trefoil_presentations_agree(self):
        braid = braid_of_words(validate_link(["LRLRL"]))
        lorenz = jones_of_braid(braid_generators(braid), braid.n)
        assert lorenz == jones_of_braid([1, 1, 1], 2)

    def test_hopf_link_half_integer_exponents(self):
        # positive Hopf link: -t^(1/2) - t^(5/2)
        assert jones_of_braid([1, 1], 2) == poly({2: -1, 10: -1})

    def test_unchanged_under_involute(self):
        checked = 0
        for word, braid in knot_braids(20):
            mirror = braid_of_words(LinkWords((involute(word),)))
            assert jones_of_braid(braid_generators(braid), braid.n) == jones_of_braid(
                braid_generators(mirror), mirror.n
            ), word
            checked += 1
        assert checked == 488

    def test_crossing_records_accepted(self):
        braid = braid_of_words(validate_link(["LRLRL"]))
        records = braid_generators(braid)
        positions = [r.position for r in records]
        assert jones_of_braid(records, braid.n) == jones_of_braid(positions, braid.n)


class TestJonesTorus:
    def test_trefoil_closed_form(self):
        assert jones_torus(2, 3) == poly({4: 1, 12: 1, 16: -1})

    def test_two_five(self):
        # t^2 + t^4 - t^5 + t^6 - t^7
        assert jones_torus(2, 5) == poly({8: 1, 16: 1, 20: -1, 24: 1, 28: -1})

    def test_further_hand_divided_values(self):
        # quotients of the closed form worked out by long division
        assert jones_torus(3, 4) == poly({12: 1, 20: 1, 32: -1})  # t^3 + t^5 - t^8
        assert jones_torus(2, 7) == poly(
            {12: 1, 20: 1, 24: -1, 28: 1, 32: -1, 36: 1, 40: -1}
        )

    def test_symmetric_in_p_q(self):
        for p in range(2, 12):
            for q in range(p + 1, 12):
                if p + q <= 13 and math.gcd(p, q) == 1:
                    assert jones_torus(p, q) == jones_torus(q, p)

    def test_agrees_with_bracket_oracle(self):
        for p in range(2, 6):
            for q in range(p + 1, 13):
                if math.gcd(p, q) != 1:
                    continue
                params = TLinkParams(((p, q),))
                from_braid = jones_of_braid(
                    t_braid_word(params), params.strands, max_crossings=(p - 1) * q
                )
                assert from_braid == jones_torus(p, q), (p, q)

    def test_seven_letter_word_is_the_three_four_torus_knot(self):
        # adjudicates the (3,4)-vs-(3,5) labelling by the bracket itself
        braid = braid_of_words(validate_link(["LRLRLRL"]))
        value = jones_of_braid(braid_generators(braid), braid.n)
        assert value == jones_torus(3, 4)
        assert value != jones_torus(3, 5)

    def test_rejects_non_coprime(self):
        with pytest.raises(NotCoprimeError):
            jones_torus(2, 4)

    def test_rejects_small_parameters(self):
        with pytest.raises(ValidationError):
            jones_torus(1, 5)

    def test_strand_cap_is_inclusive(self, monkeypatch):
        # p + q is the strand count of the Lorenz braid of [[p, q]]
        monkeypatch.setattr(jones_mod, "MAX_STRANDS", 7)
        assert jones_torus(3, 4) == poly({12: 1, 20: 1, 32: -1})
        with pytest.raises(CapExceededError) as caught:
            jones_torus(3, 5)
        assert str(caught.value) == (
            "torus knot (3, 5) needs p + q strands, over the cap of 7"
        )

    def test_huge_pair_is_refused_before_any_polynomial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a polynomial was built")

        monkeypatch.setattr(LaurentPoly, "var_power", staticmethod(refuse))
        p = 10**30
        with pytest.raises(CapExceededError, match="over the cap of 100000"):
            jones_torus(p, p + 1)

    def test_alternative_numerator_is_not_divisible(self):
        # 1 - t^(p-1) - t^(q-1) - t^(p+q) at (p, q) = (2, 3) fails the guard
        p, q = 2, 3
        numerator = (
            LaurentPoly.one()
            - LaurentPoly.var_power(p - 1)
            - LaurentPoly.var_power(q - 1)
            - LaurentPoly.var_power(p + q)
        )
        denominator = LaurentPoly.one() - LaurentPoly.var_power(2)
        with pytest.raises(DivisionRemainderError):
            divide_exact(numerator, denominator)
