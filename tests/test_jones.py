"""Temperley-Lieb bracket against the state-sum oracle, Jones normalization,
and the torus closed form."""

import functools
import itertools
import math
import random
import sys
import tracemalloc

import pytest
from bracket_oracle import state_sum_bracket
from destabilize_oracle import loop_destabilize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from link_families import seeded_links, t_link_params_up_to

from lorenzlinks import jones as jones_mod
from lorenzlinks.braid import braid_generators, braid_of_words
from lorenzlinks.errors import InternalInconsistencyError, ResourceCapError, ValidationError
from lorenzlinks.jones import (
    LaurentPoly,
    _cheapest_start,
    _destabilize,
    _divide_by_one_minus_t_squared,
    _unpack,
    jones_of_braid,
    jones_of_lorenz_braid,
    jones_torus,
    kauffman_bracket,
)
from lorenzlinks.tlink import TLinkParams, from_lorenz, t_braid_word
from lorenzlinks.words import involute, lyndon_words, validate_link


def poly(pairs) -> LaurentPoly:
    return LaurentPoly(dict(pairs))


ONE = LaurentPoly({0: 1})


def jones_of_bracket(bracket: LaurentPoly, c: int) -> LaurentPoly:
    """V(t) = (-A)^(-3c) <K> at t = A^-4, read off the bracket term by term:
    (-A)^(-3c) a A^(e/4) = (-1)^c a A^((e - 12c)/4), and A^(k/4) = t^(-k/16)
    is quarter exponent -k/4 in t, so the term lands at (12c - e)/4.  A
    bracket exponent that is not a whole power of A raises."""
    out = {}
    for e, a in bracket.pairs():
        if e % 4:
            raise InternalInconsistencyError("bracket exponent not a multiple of 4")
        out[(12 * c - e) // 4] = (-1) ** c * a
    return LaurentPoly(out)


@functools.lru_cache(maxsize=1024)
def shared_state_sum(word: tuple, n: int) -> LaurentPoly:
    """The 2^c state-sum bracket of one braid, computed once per session:
    the bracket test and the Jones test of the same braid both read it."""
    return state_sum_bracket(list(word), n)


def jones_by_definition(word, n) -> LaurentPoly:
    """Jones from the state-sum bracket."""
    return jones_of_bracket(shared_state_sum(tuple(word), n), len(word))


def least_open_start(word) -> int:
    """The start of the rotation of ``word`` whose strand positions stay open
    for the fewest steps in all, each position from its first use to its
    last, generator p using positions p - 1 and p; the least start on ties.
    Every rotation is scored afresh, O(c^2)."""
    spans = []
    for start in range(len(word) or 1):
        first, last = {}, {}
        for j, p in enumerate(word[start:] + word[:start]):
            for q in (p - 1, p):
                first.setdefault(q, j)
                last[q] = j
        spans.append(sum(last[q] - first[q] for q in first))
    return spans.index(min(spans))


def seeded_braids(count, seed, max_strands=12, max_crossings=14):
    """Positive braid words with their strand counts; sparse index draws
    leave strands no crossing touches."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_strands)
        used = rng.sample(range(1, n), rng.randint(1, n - 1)) if n > 1 else []
        c = rng.randint(0, max_crossings) if used else 0
        out.append(([rng.choice(used) for _ in range(c)], n))
    return out


def knot_braids(max_crossings: int):
    """Lorenz braids of every knot word of length <= 12 with at most
    ``max_crossings`` crossings, with their words."""
    for word in lyndon_words(12):
        braid = braid_of_words([word])
        if braid.crossings <= max_crossings:
            yield word, braid


@st.composite
def positive_braids(draw, max_strands=7):
    n = draw(st.integers(1, max_strands))
    if n == 1:
        return [], 1
    return draw(st.lists(st.integers(1, n - 1), max_size=12)), n


# braids that kauffman_bracket Markov-destabilizes before its state sum
DESTABILIZING = [
    ([1, 2, 3, 2, 3, 4], 5),  # 4 goes from the top, then 1 from the bottom
    ([1, 2, 1, 2, 3, 4], 5),  # 4, then 3, go from the top
    ([1], 2),  # to nothing
    ([1, 3], 4),
    ([2, 4], 5),
    ([1, 1, 4, 5], 6),  # position 3 untouched, below the crossings that go
    ([1, 4, 4, 6], 7),  # position 3 untouched; 6 and 1 go around it
    ([2, 1, 1, 3], 4),  # to the Hopf link
    ([1, 1, 2, 2, 3, 4, 3], 5),  # a four-component link
]


def destabilizing_examples(test):
    for braid in DESTABILIZING:
        test = example(braid)(test)
    return test


class TestLaurentPoly:
    def test_no_zero_coefficients_stored(self):
        assert poly({4: 0, 8: 1}).pairs() == ((8, 1),)

    def test_format(self):
        assert poly({4: 1, 12: 1, 16: -1}).format() == "t + t^3 - t^4"
        assert poly({2: -1}).format() == "-t^(1/2)"
        assert LaurentPoly().format() == "0"
        assert poly({1: 1, -3: 2, 6: -1}).format() == "2*t^(-3/4) + t^(1/4) - t^(3/2)"

    def test_repr(self):
        assert repr(poly({4: 1, 12: 1, 16: -1})) == "LaurentPoly('t + t^3 - t^4')"
        assert repr(LaurentPoly()) == "LaurentPoly('0')"

    def test_equal_values_hash_alike(self):
        # a zero coefficient is dropped, so it changes neither value nor hash
        left, right = poly({4: 1, 12: -1}), poly({12: -1, 8: 0, 4: 1})
        assert left == right and hash(left) == hash(right)
        assert len({left, right, poly({4: 1})}) == 2

    def test_never_equals_a_non_polynomial(self):
        # not even the value it was built from, or zero for the zero polynomial
        for other in [0, 1, "t", ((4, 1),), {4: 1}, None]:
            assert poly({4: 1}).__eq__(other) is NotImplemented
            assert poly({4: 1}) != other and LaurentPoly() != other


class TestDivideByOneMinusTSquared:
    """The exact division of the torus closed form; coefficient lists run
    from the lowest power of t up."""

    def test_division_exact(self):
        # (1 - t^4) / (1 - t^2) = 1 + t^2
        assert _divide_by_one_minus_t_squared([1, 0, 0, 0, -1]) == [1, 0, 1]

    def test_division_remainder_detected(self):
        # 1 - t^3 leaves a remainder
        with pytest.raises(InternalInconsistencyError, match="^division left a nonzero remainder$"):
            _divide_by_one_minus_t_squared([1, 0, 0, -1])

    @given(st.lists(st.integers(-50, 50), max_size=30))
    def test_multiplied_out_product_divides_back(self, quotient):
        # (1 - t^2) Q multiplied out: N_i = Q_i - Q_(i-2)
        padded = [0, 0, *quotient, 0, 0]
        numerator = [padded[i + 2] - padded[i] for i in range(len(quotient) + 2)]
        assert _divide_by_one_minus_t_squared(numerator) == quotient


class TestKauffmanBracket:
    def test_zero_crossing_unknot(self):
        assert kauffman_bracket([], 1) == ONE

    def test_single_positive_crossing(self):
        # hand state sum: A * delta + A^-1 = -A^3
        assert kauffman_bracket([1], 2) == poly({12: -1})

    def test_hopf_link(self):
        # hand state sum over 4 states: -A^4 - A^-4
        assert kauffman_bracket([1, 1], 2) == poly({16: -1, -16: -1})

    def test_crossing_limit(self):
        with pytest.raises(ResourceCapError, match="^21 crossings exceeds the limit of 20$"):
            kauffman_bracket([1] * 21, 2)
        with pytest.raises(ResourceCapError, match="^9 crossings exceeds the limit of 8$"):
            kauffman_bracket([1] * 9, 2, max_crossings=8)
        assert kauffman_bracket([1] * 9, 2, max_crossings=9) == state_sum_bracket(
            [1] * 9, 2, max_crossings=9
        )

    def test_generator_positions_validated(self):
        with pytest.raises(ValidationError):
            kauffman_bracket([2], 2)
        # the first bad index in word order is named, low or high
        with pytest.raises(ValidationError, match=r"^generator index 5 outside 1\.\.2$"):
            kauffman_bracket([5, 0], 3)
        with pytest.raises(ValidationError, match=r"^generator index 0 outside 1\.\.2$"):
            jones_of_braid([1, 2, 0, 5], 3)

    @pytest.mark.parametrize("cap", [-1, -20])
    def test_negative_cap_is_refused_before_any_work(self, cap):
        with pytest.raises(ValidationError, match=f"max_crossings must be >= 0, got {cap}"):
            jones_of_braid([1, 1, 1], 2, max_crossings=cap)
        # refused before the word is read: an out-of-range index is not reached
        with pytest.raises(ValidationError, match="max_crossings"):
            kauffman_bracket([99], 2, max_crossings=cap)
        # the Lorenz-braid entry point refuses it the same way, before the
        # crossing count is compared with it
        braid = braid_of_words(["LRLRL"])
        with pytest.raises(ValidationError, match=f"^max_crossings must be >= 0, got {cap}$"):
            jones_of_lorenz_braid(braid, cap)

    def test_loose_strand_cap_refuses_before_allocating(self):
        cap = jones_mod.MAX_LOOSE_STRANDS
        # one crossing on cap + 3 strands: the kink goes, cap + 1 strands stay loose
        for n in (cap + 3, 10**12):
            tracemalloc.start()
            try:
                with pytest.raises(ResourceCapError) as caught:
                    kauffman_bracket([1], n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            loose = n - 2
            assert str(caught.value) == f"{loose} loose strands are over the cap of {cap}"
            assert peak < 64 * 1024, peak
        with pytest.raises(ResourceCapError, match=f"^{cap + 1} loose strands are over"):
            kauffman_bracket([], cap + 2)

    def test_loose_strand_cap_is_inclusive(self):
        # cap + 1 split unknots: d^cap = (-1)^cap sum_j C(cap, j) A^(2 cap - 4 j)
        cap = jones_mod.MAX_LOOSE_STRANDS
        expected = {4 * (2 * cap - 4 * j): (-1) ** cap * math.comb(cap, j) for j in range(cap + 1)}
        assert kauffman_bracket([], cap + 1) == LaurentPoly(expected)

    def test_crossing_cap_counts_the_word_as_given(self):
        # every crossing would be destabilized away, but the cap comes first
        with pytest.raises(ResourceCapError, match="21 crossings"):
            kauffman_bracket(list(range(1, 22)), 22)

    def test_generator_positions_validated_before_destabilizing(self):
        # a once-used top index that is out of range is refused, not removed
        with pytest.raises(ValidationError, match="generator index 3"):
            kauffman_bracket([3], 3)

    def test_destabilizing_narrows_a_lorenz_braid(self):
        braid = braid_of_words(validate_link(["LLLLLRRRRRLR"]))
        positions = braid_generators(braid)
        assert (braid.n, len(positions)) == (12, 13)
        assert _destabilize(positions, braid.n) == ([2, 1, 2, 1], 3, 9)

    @settings(max_examples=300, deadline=None)
    @given(positive_braids(max_strands=10))
    @destabilizing_examples
    @example(([3, 1, 2, 4, 6, 5, 8, 7, 9], 10))  # every index used once: the whole word goes
    def test_destabilize_agrees_with_the_removal_loop(self, braid):
        positions, n = braid
        assert _destabilize(positions, n) == loop_destabilize(positions, n)


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
    @destabilizing_examples
    def test_random_positive_braids(self, braid):
        word, n = braid
        assert kauffman_bracket(word, n) == shared_state_sum(tuple(word), n)

    def test_more_strands_than_a_byte_key_holds(self):
        n = 300
        word = [1, 299, 150, 151, 150, 1, 299, 2, 151]
        assert kauffman_bracket(word, n) == state_sum_bracket(word, n)


class TestCheapestStart:
    """The kernel starts the closure at the rotation `_cheapest_start` picks,
    held here to the O(c^2) scorer `least_open_start`."""

    def test_every_word_on_five_strands_to_seven_crossings(self):
        # the start does not depend on n, so words over 1..4 cover n <= 5
        checked = 0
        for c in range(8):
            for word in itertools.product(range(1, 5), repeat=c):
                word = list(word)
                assert _cheapest_start(word) == least_open_start(word), word
                checked += 1
        assert checked == sum(4**c for c in range(8))

    def test_seeded_words(self):
        rng = random.Random(28)
        for _ in range(2_000):
            n = rng.randint(2, 12)
            word = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 30))]
            assert _cheapest_start(word) == least_open_start(word), word

    def test_t_braids_keep_their_start(self):
        for pairs in t_link_params_up_to(14):
            params = TLinkParams(pairs)
            word = t_braid_word(params)
            assert _cheapest_start(word) == 0, pairs
            assert _cheapest_start(_destabilize(word, params.strands)[0]) == 0, pairs

    def test_every_rotation_has_the_state_sum_bracket(self):
        # rotating a closed braid word is a planar isotopy of its closure
        braids = seeded_braids(120, seed=29, max_strands=9, max_crossings=10)
        braids += DESTABILIZING
        components = []
        for link in seeded_links(300, seed=30, max_len=5):
            link = link[: 2 + len(link) % 2]
            braid = braid_of_words(link)
            if braid.crossings <= 10:
                braids.append((braid_generators(braid), braid.n))
                components.append(len(link))
        assert components.count(2) > 20 and components.count(3) > 20
        for word, n in braids:
            expected = state_sum_bracket(word, n)
            for start in range(len(word)):
                rotated = word[start:] + word[:start]
                assert kauffman_bracket(rotated, n) == expected, (rotated, n)


def slot_cases(*widths):
    """(slots, width) for 8 and 197 slots; an id names the width, and the
    slot count too when it is not 8."""
    return [pytest.param(8, w, id=f"{w}") for w in widths] + [
        pytest.param(197, w, id=f"197-{w}") for w in widths
    ]


MOSTLY_UNTOUCHED = [
    ([1], 40),
    ([20, 20, 20], 40),
    ([39, 38, 39], 40),
    ([7, 9, 7, 9], 16),
    ([1, 1, 15, 15, 15], 16),
]


class TestPackedSlots:
    """Edge cases of the packed evaluation: a slot of W = c + n + 1 bits per
    power of u = A^-2 over the touched strands only, negative digits that
    borrow from the slot above, loose strands taken out and put back as
    d^m on the decoded digits, and the n - 1 closure offsets that move
    every exponent."""

    @pytest.mark.parametrize("slots, width", slot_cases(2, 3, 9, 64))
    def test_unpack_digits_at_the_slot_edges(self, slots, width):
        # each negative digit borrows from the slot above it
        half = 1 << (width - 1)
        edges = [-half, half - 1, 0, -1, 1, -half, half - 1, -half]
        digits = (edges * 25)[:slots]
        packed = sum(digit << (width * k) for k, digit in enumerate(digits))
        assert _unpack(packed, width, slots) == digits
        assert _unpack(packed, width, slots + 2) == digits + [0, 0]

    @pytest.mark.parametrize("slots, width", slot_cases(2, 9))
    def test_unpack_refuses_digits_beyond_its_slots(self, slots, width):
        with pytest.raises(InternalInconsistencyError):
            _unpack(1 << (slots * width), width, slots)
        # +2^(W-1) is not a balanced digit: it borrows from a slot past the last
        with pytest.raises(InternalInconsistencyError):
            _unpack(1 << (slots * width - 1), width, slots)
        # +2^(W-1) in the lowest slot under the top digit 2^(W-1) - 1 in
        # every slot above it: the borrow runs through every slot and leaves
        top = sum(((1 << (width - 1)) - 1) << (width * k) for k in range(1, slots))
        with pytest.raises(InternalInconsistencyError):
            _unpack(top + (1 << (width - 1)), width, slots)

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

    @pytest.mark.parametrize("word, n", MOSTLY_UNTOUCHED)
    def test_mostly_untouched_strands(self, word, n):
        assert kauffman_bracket(word, n) == shared_state_sum(tuple(word), n)

    def test_one_crossing_on_six_hundred_strands(self):
        # a kinked unknot and m loose ones: (-A^3) d^m, d = -A^2 - A^-2,
        # expanded as (-1)^(m + 1) sum_k C(m, k) A^(2m - 4k + 3)
        m = 598
        sign = (-1) ** (m + 1)
        expected = {4 * (2 * m - 4 * k + 3): sign * math.comb(m, k) for k in range(m + 1)}
        assert kauffman_bracket([1], m + 2) == LaurentPoly(expected)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_loose_strands_multiply_by_d(self, data):
        # k strands that no generator crosses, added at either end or in a
        # gap of the word, are k split unknots: the bracket times d^k
        n = data.draw(st.integers(1, 12))
        word = data.draw(st.lists(st.integers(1, n - 1), max_size=20)) if n > 1 else []
        k = data.draw(st.integers(1, 60 - n))
        # gap g lies between positions g - 1 and g, and generator g crosses it
        gaps = [g for g in range(n + 1) if g not in word]
        added = data.draw(st.lists(st.sampled_from(gaps), min_size=k, max_size=k))
        longer = [p + sum(g < p for g in added) for p in word]
        expected: dict[int, int] = {}
        for e, a in kauffman_bracket(word, n).pairs():
            # d^k = (-1)^k sum_j C(k, j) A^(2k - 4j)
            for j in range(k + 1):
                key = e + 4 * (2 * k - 4 * j)
                expected[key] = expected.get(key, 0) + (-1) ** k * math.comb(k, j) * a
        assert kauffman_bracket(longer, n + k) == LaurentPoly(expected)


class TestJonesOfBraid:
    def test_unknot_normalizations(self):
        assert jones_of_braid([], 1) == ONE
        assert jones_of_braid([1], 2) == ONE

    @pytest.mark.parametrize("evaluate", [jones_of_braid, kauffman_bracket])
    def test_refuses_a_braid_without_strands(self, evaluate):
        with pytest.raises(ValidationError, match="^strand count must be >= 1$"):
            evaluate([], 0)

    @settings(max_examples=200, deadline=None)
    @given(positive_braids())
    @example(([], 1))
    @example(([], 4))
    @example(([1, 4, 1, 4], 6))  # positions 3 and 6 untouched
    @destabilizing_examples
    def test_random_positive_braids_against_the_state_sum(self, braid):
        word, n = braid
        assert jones_of_braid(word, n) == jones_by_definition(word, n)

    @pytest.mark.parametrize("word, n", MOSTLY_UNTOUCHED)
    def test_mostly_untouched_strands_against_the_state_sum(self, word, n):
        assert jones_of_braid(word, n) == jones_by_definition(word, n)

    def test_read_off_the_bracket_term_by_term(self):
        # jones_of_braid reads Jones off the packed digits; the conversion
        # from the finished bracket is kept here as its oracle
        half_integer = loose = 0
        for word, n in seeded_braids(5_000, seed=31):
            jones = jones_of_braid(word, n)
            assert jones == jones_of_bracket(kauffman_bracket(word, n), len(word)), (word, n)
            half_integer += any(e % 4 for e, _ in jones.pairs())
            loose += len(set(word) | {p + 1 for p in word}) < n
        assert half_integer > 1_000 and loose > 1_000

    def test_bracket_conversion_refuses_a_fractional_power(self):
        with pytest.raises(InternalInconsistencyError, match="not a multiple of 4"):
            jones_of_bracket(poly({2: 1}), 1)

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
            mirror = braid_of_words([involute(word)])
            assert jones_of_braid(braid_generators(braid), braid.n) == jones_of_braid(
                braid_generators(mirror), mirror.n
            ), word
            checked += 1
        assert checked == 488


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
        with pytest.raises(ValidationError, match=r"^\(2, 4\) is a torus link, not a knot$"):
            jones_torus(2, 4)

    def test_rejects_small_parameters(self):
        with pytest.raises(ValidationError):
            jones_torus(1, 5)

    def test_strand_cap_is_inclusive(self, monkeypatch):
        # p + q is the strand count of the Lorenz braid of [[p, q]]
        monkeypatch.setattr(jones_mod, "MAX_LETTERS", 7)
        assert jones_torus(3, 4) == poly({12: 1, 20: 1, 32: -1})
        with pytest.raises(ResourceCapError) as caught:
            jones_torus(3, 5)
        assert str(caught.value) == (
            "torus knot (3, 5) needs p + q strands, over the cap of 7"
        )

    def test_huge_pair_is_refused_before_any_polynomial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a polynomial was built")

        monkeypatch.setattr(jones_mod, "_divide_by_one_minus_t_squared", refuse)
        p = 10**30
        with pytest.raises(ResourceCapError, match="over the cap of 100000"):
            jones_torus(p, p + 1)

    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
        reason="this interpreter converts integers of any length",
    )
    def test_integers_past_the_digit_limit_are_named_by_bit_length(self):
        # the first integer of each pair is too long to format as digits
        with pytest.raises(
            ValidationError, match=r"^\(at least 2\^16610, 4\) is a torus link, not a knot$"
        ):
            jones_torus(2 * 10**5000, 4)
        with pytest.raises(ResourceCapError) as caught:
            jones_torus(10**5000 + 1, 3)
        assert str(caught.value) == (
            "torus knot (at least 2^16609, 3) needs p + q strands, over the cap of 100000"
        )

    def test_alternative_numerator_is_not_divisible(self):
        # 1 - t^(p-1) - t^(q-1) - t^(p+q) at (p, q) = (2, 3) fails the guard
        p, q = 2, 3
        numerator = [0] * (p + q + 1)
        numerator[0] += 1
        numerator[p - 1] -= 1
        numerator[q - 1] -= 1
        numerator[p + q] -= 1
        with pytest.raises(InternalInconsistencyError, match="^division left a nonzero remainder$"):
            _divide_by_one_minus_t_squared(numerator)
