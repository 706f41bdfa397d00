"""Matrix dictionary, Dedekind sums, and the Rademacher invariant."""

import random
import tracemalloc
from fractions import Fraction
from math import floor

import pytest
from dedekind_oracle import direct_dedekind_sum
from hypothesis import given, settings
from hypothesis import strategies as st
from matrix_oracle import IDENTITY, L_MATRIX, R_MATRIX, conjugate, inverse, product

from lorenzlinks import modular as modular_mod
from lorenzlinks import words as words_mod
from lorenzlinks.errors import InternalInconsistencyError, ResourceCapError, ValidationError
from lorenzlinks.modular import (
    Mat2Z,
    dedekind_sum,
    matrix_of_word,
    rademacher,
    rademacher_phi,
    rademacher_psi,
    word_of_matrix,
)
from lorenzlinks.words import canonicalize, involute, lyndon_words, smallest_period


def mixed_words(max_len):
    return [w for w in lyndon_words(max_len) if len(set(w)) == 2]


def random_mixed_word(rng, length):
    """A random aperiodic word of the given length (>= 2) using both letters."""
    while True:
        letters = "".join(rng.choice("LR") for _ in range(length))
        if len(set(letters)) == 2 and smallest_period(letters) == length:
            return canonicalize(letters)


def benchmark_style_words(rng, count=50, c_low=64, c_high=8192, band=1.05):
    """Mixed words of length 16-24 whose lower-left matrix entry c lies within
    5% above each of ``count`` targets spaced geometrically from c_low to
    c_high: the sizes at which the direct Dedekind sum used to set the cost of
    ``rademacher_psi``."""
    ratio = (c_high / c_low) ** (1 / (count - 1))
    words = []
    for j in range(count):
        low = round(c_low * ratio**j)
        while True:
            word = random_mixed_word(rng, rng.randrange(16, 25))
            if low <= matrix_of_word(word).c <= low * band:
                words.append(word)
                break
    return words


def random_conjugator(rng, max_entry=50):
    """A random SL(2, Z) element with entries bounded by max_entry."""
    gens = [L_MATRIX, R_MATRIX, inverse(L_MATRIX), inverse(R_MATRIX)]
    while True:
        m = IDENTITY
        for _ in range(rng.randrange(1, 9)):
            m = product(m, rng.choice(gens))
        if max(abs(v) for v in (m.a, m.b, m.c, m.d)) <= max_entry:
            return m


def product_oracle(letters):
    """The word's matrix as the per-letter product of generator ``Mat2Z``s."""
    return product(*(L_MATRIX if letter == "L" else R_MATRIX for letter in letters))


def _sawtooth(x):
    if x.denominator == 1:
        return Fraction(0)
    return x - floor(x) - Fraction(1, 2)


def fraction_dedekind_sum(h, k):
    """The oracle's earlier form: every sawtooth term in ``Fraction``s."""
    return sum(
        (_sawtooth(Fraction(i, k)) * _sawtooth(Fraction(h * i, k)) for i in range(1, k)),
        Fraction(0),
    )


def _sign(value):
    return (value > 0) - (value < 0)


def phi_oracle(matrix):
    """Phi composed in ``Fraction`` arithmetic, term by term as defined."""
    m = matrix.normalized()
    if m.c == 0:
        return Fraction(m.b, m.d)
    return Fraction(m.a + m.d, m.c) - 12 * _sign(m.c) * dedekind_sum(m.d, abs(m.c))


def random_sl2z(rng):
    """A random SL(2, Z) element, either global sign, entries up to about 10^6."""
    gens = [L_MATRIX, R_MATRIX, inverse(L_MATRIX), inverse(R_MATRIX)]
    m = IDENTITY
    for _ in range(rng.randrange(1, 30)):
        m = product(m, rng.choice(gens) if rng.random() < 0.5 else Mat2Z(0, -1, 1, 0))
    if rng.random() < 0.5:
        m = Mat2Z(-m.a, -m.b, -m.c, -m.d)
    return m


mixed_letters = st.text(alphabet="LR", min_size=2, max_size=300).filter(
    lambda letters: len(set(letters)) == 2 and smallest_period(letters) == len(letters)
)


class TestMat2Z:
    def test_determinant_enforced(self):
        with pytest.raises(ValidationError):
            Mat2Z(1, 0, 0, 2)

    def test_normalized_representative(self):
        m = Mat2Z(-2, -1, -1, -1)
        assert m.normalized() == Mat2Z(2, 1, 1, 1)

    def test_inverse(self):
        m = Mat2Z(2, 1, 1, 1)
        assert product(m, inverse(m)) == product(inverse(m), m) == IDENTITY


class TestMatrixOfWord:
    def test_examples(self):
        assert matrix_of_word("LR").to_rows() == [[2, 1], [1, 1]]
        assert matrix_of_word("LLR").to_rows() == [[3, 2], [1, 1]]
        assert matrix_of_word("LR").trace == 3

    def test_trace_is_rotation_invariant(self):
        for text in mixed_words(8):
            traces = {product_oracle(text[k:] + text[:k]).trace for k in range(len(text))}
            assert traces == {matrix_of_word(text).trace}

    def test_single_letter_is_parabolic(self):
        with pytest.raises(ValidationError, match="^'L' uses one letter only$"):
            matrix_of_word("L")

    def test_equals_per_letter_product_on_all_short_words(self):
        for word in mixed_words(12):
            assert matrix_of_word(word) == product_oracle(word), word

    @settings(max_examples=60, deadline=None)
    @given(mixed_letters)
    def test_equals_per_letter_product_on_drawn_words(self, letters):
        word = canonicalize(letters)
        m = matrix_of_word(letters)
        assert m == product_oracle(word)
        assert rademacher_phi(m) == phi_oracle(m)


class TestWordOfMatrix:
    def test_example(self):
        assert word_of_matrix(Mat2Z(2, 1, 1, 1)) == "LR"

    def test_parabolic_rejected(self):
        with pytest.raises(ValidationError, match="^trace 2 <= 2 carries no closed geodesic$"):
            word_of_matrix(Mat2Z(1, 1, 0, 1))
        with pytest.raises(ValidationError, match="^trace 0 <= 2 carries no closed geodesic$"):
            word_of_matrix(Mat2Z(0, -1, 1, 0))

    def test_roundtrip_on_all_mixed_words(self):
        for word in mixed_words(10):
            assert word_of_matrix(matrix_of_word(word)) == word

    def test_roundtrip_survives_conjugation(self):
        rng = random.Random(20110628)
        for word in mixed_words(6):
            matrix = matrix_of_word(word)
            for _ in range(3):
                p = random_conjugator(rng)
                assert word_of_matrix(conjugate(p, matrix)) == word

    def test_tied_longest_l_runs_decode_to_the_least_rotation(self):
        # a word with two or more longest L runs leaves least_rotation more
        # than one start to compare; each rotation's own product goes in
        tied = 0
        for word in mixed_words(12):
            runs = list(map(len, word.split("R")))  # canonical: opens in L, ends in R
            if runs.count(max(runs)) < 2:
                continue
            tied += 1
            for k in range(len(word)):
                rotation = word[k:] + word[:k]
                assert word_of_matrix(product_oracle(rotation)) == word, rotation
        assert tied == 172, tied

    def test_proper_powers_are_detected(self):
        square = product(matrix_of_word("LR"), matrix_of_word("LR"))
        with pytest.raises(
            ValidationError, match="^trace 7 is a proper power of the class of 'LR'$"
        ):
            word_of_matrix(square)

    def test_proper_powers_name_the_canonical_word(self):
        # the trace check reads the product of the period's runs; the oracle
        # here is the word itself, its powers and its conjugates
        rng = random.Random(1836)
        for word in mixed_words(8):
            matrix = matrix_of_word(word)
            p = random_conjugator(rng)
            assert word_of_matrix(conjugate(p, matrix)) == word
            power = matrix
            for _ in (2, 3):
                power = product(power, matrix)
                for conjugated in (power, conjugate(p, power)):
                    with pytest.raises(ValidationError) as caught:
                        word_of_matrix(conjugated)
                    assert str(caught.value) == (
                        f"trace {power.trace} is a proper power of the class of {word!r}"
                    )

    def test_decoded_word_has_the_given_trace(self):
        rng = random.Random(3571)
        decoded = 0
        for _ in range(3000):
            m = random_sl2z(rng)
            try:
                word = word_of_matrix(m)
            except ValidationError:
                continue
            assert product_oracle(word).trace == m.normalized().trace, m
            decoded += 1
        assert decoded >= 500, decoded

    def test_decode_does_not_multiply_the_word_out(self, monkeypatch):
        def refuse(word):
            raise AssertionError("matrix_of_word was called")

        word = canonicalize("LLRLRRLR")
        matrix = matrix_of_word(word)
        monkeypatch.setattr(modular_mod, "matrix_of_word", refuse)
        assert word_of_matrix(matrix) == word
        with pytest.raises(ValidationError, match="proper power of the class of 'LLRLRRLR'"):
            word_of_matrix(product(matrix, matrix))

    def test_roundtrip_on_long_words(self):
        # c has 340 to 860 digits, so every surd state is a large integer
        rng = random.Random(31415)
        for _ in range(10):
            word = random_mixed_word(rng, rng.randrange(2000, 5001))
            assert word_of_matrix(matrix_of_word(word)) == word

    def test_decode_keeps_no_state_history(self):
        # c has 1,726 digits: keeping every surd state of the expansion peaked
        # at 8.8 MB, keeping only the first reduced one peaks at 0.3 MB
        word = random_mixed_word(random.Random(2718), 10_000)
        matrix = matrix_of_word(word)
        tracemalloc.start()
        try:
            decoded = word_of_matrix(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decoded == word
        assert peak < 2_000_000

    def test_negated_representative_is_projectively_equal(self):
        m = matrix_of_word("LLR")
        negated = Mat2Z(-m.a, -m.b, -m.c, -m.d)
        assert word_of_matrix(negated) == "LLR"


class TestDecodeLetterCap:
    @pytest.fixture
    def cap(self, monkeypatch):
        monkeypatch.setattr(words_mod, "MAX_LETTERS", 10)
        monkeypatch.setattr(modular_mod, "MAX_LETTERS", 10)
        return 10

    @pytest.fixture
    def no_runs(self, monkeypatch):
        def refuse(period):
            raise AssertionError("runs were built")

        monkeypatch.setattr(modular_mod, "_spell_runs", refuse)

    def test_running_count_is_inclusive(self, cap):
        # L^n R is [[n + 1, n], [1, 1]]; its period is the runs (n, 1)
        assert word_of_matrix(Mat2Z(10, 9, 1, 1)) == "L" * 9 + "R"
        with pytest.raises(ResourceCapError) as caught:
            word_of_matrix(Mat2Z(11, 10, 1, 1))
        assert str(caught.value) == (
            "the decoded word has at least 11 letters, over the cap of 10"
        )

    def test_doubled_period_is_counted(self, cap, no_runs):
        # L^n R^n has the one-quotient period (n), doubled: n letters, then 2n
        with pytest.raises(ResourceCapError, match="at least 12 letters"):
            word_of_matrix(Mat2Z(37, 6, 6, 1))  # L^6 R^6

    def test_doubled_period_at_the_cap_decodes(self, cap):
        word = canonicalize("LLLLLRRRRR")
        assert word_of_matrix(matrix_of_word(word)) == word

    def test_huge_run_is_refused_before_any_run(self, no_runs):
        n = 10**30
        with pytest.raises(ResourceCapError) as caught:
            word_of_matrix(Mat2Z(n + 1, n, 1, 1))
        assert str(caught.value) == (
            "the decoded word has at least 2^99 letters, over the cap of 100000"
        )

    def test_pre_period_quotients_are_not_counted(self):
        # conjugating by L^k or R^k puts a quotient near k before the period
        word = canonicalize("LLRLRRLR")
        k = 10**50
        for conjugator in (Mat2Z(1, k, 0, 1), Mat2Z(1, 0, k, 1)):
            conjugated = conjugate(conjugator, matrix_of_word(word))
            assert word_of_matrix(conjugated) == word


class TestDedekindSum:
    def test_integer_oracle_equals_the_fraction_form(self):
        for k in range(1, 31):
            for h in range(-2 * k, 2 * k + 1):
                assert direct_dedekind_sum(h, k) == fraction_dedekind_sum(h, k), (h, k)

    def test_small_values(self):
        assert dedekind_sum(1, 1) == 0
        assert dedekind_sum(1, 2) == 0
        assert dedekind_sum(1, 3) == Fraction(1, 18)

    def test_reciprocity(self):
        # s(h,k) + s(k,h) = -1/4 + (h/k + k/h + 1/(h k)) / 12 for coprime h, k
        import math

        for h in range(1, 16):
            for k in range(1, 16):
                if math.gcd(h, k) != 1:
                    continue
                lhs = dedekind_sum(h, k) + dedekind_sum(k, h)
                rhs = Fraction(-1, 4) + (
                    Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)
                ) / 12
                assert lhs == rhs, (h, k)

    def test_validation(self):
        with pytest.raises(ValidationError):
            dedekind_sum(1, 0)
        with pytest.raises(ValidationError):
            dedekind_sum(1, -3)

    def test_matches_direct_sum_exhaustively(self):
        # Every h in [-2k, 2k], negative and non-coprime h included.  The direct
        # sum sees h only through ((h i / k)), which has period k in h, so it
        # is evaluated once per residue.
        for k in range(1, 151):
            direct = [direct_dedekind_sum(h, k) for h in range(k)]
            for h in range(-2 * k, 2 * k + 1):
                assert dedekind_sum(h, k) == direct[h % k], (h, k)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-(10**6), 10**6), st.integers(1, 10**4))
    def test_matches_direct_sum_on_drawn_pairs(self, h, k):
        assert dedekind_sum(h, k) == direct_dedekind_sum(h, k)

    def test_matches_direct_sum_on_benchmark_sized_matrices(self):
        for word in benchmark_style_words(random.Random(5407)):
            m = matrix_of_word(word)
            assert dedekind_sum(m.d, m.c) == direct_dedekind_sum(m.d, m.c), word

    def test_huge_arguments_stay_exact(self):
        # 6 k s(h, k) is an integer, s(-h, k) = -s(h, k), and reciprocity
        # holds for coprime pairs far beyond the reach of the direct sum.
        import math

        rng = random.Random(8080)
        for _ in range(200):
            k = rng.randrange(2, 10**80)
            h = rng.randrange(-(10**90), 10**90)
            value = dedekind_sum(h, k)
            assert (6 * k * value).denominator == 1
            assert dedekind_sum(-h, k) == -value
            h = abs(h) % k or 1
            if math.gcd(h, k) == 1:
                assert dedekind_sum(h, k) + dedekind_sum(k, h) == Fraction(-1, 4) + (
                    Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)
                ) / 12


class TestRademacher:
    def test_examples(self):
        assert rademacher("LR") == 0
        assert rademacher("LLR") == 1
        assert rademacher("LRR") == -1

    def test_oracle_values_on_examples(self):
        assert rademacher_phi(matrix_of_word("LR")) == 3
        assert rademacher_psi(matrix_of_word("LR")) == 0
        assert rademacher_phi(matrix_of_word("LLR")) == 4
        assert rademacher_psi(matrix_of_word("LLR")) == 1
        assert rademacher_phi(matrix_of_word("LRR")) == 2
        assert rademacher_psi(matrix_of_word("LRR")) == -1

    def test_letter_count_equals_dedekind_oracle(self):
        for word in mixed_words(10):
            assert rademacher(word) == rademacher_psi(matrix_of_word(word)), word

    def test_antisymmetric_under_involution(self):
        for word in mixed_words(10):
            assert rademacher(involute(word)) == -rademacher(word)

    def test_conjugation_invariance_of_psi(self):
        rng = random.Random(1963)
        for word in mixed_words(7):
            matrix = matrix_of_word(word)
            expected = rademacher_psi(matrix)
            for _ in range(4):
                p = random_conjugator(rng)
                assert rademacher_psi(conjugate(p, matrix)) == expected

    def test_long_words_letter_count_and_conjugation_invariance(self):
        # Words of 100-400 letters put c between about 10^17 and 10^70, far
        # beyond any summation over k terms.
        rng = random.Random(4096)
        for _ in range(30):
            word = random_mixed_word(rng, rng.randrange(100, 401))
            matrix = matrix_of_word(word)
            assert matrix.c > 10**15
            expected = word.count("L") - word.count("R")
            assert rademacher_psi(matrix) == expected == rademacher(word), word
            for _ in range(3):
                p = random_conjugator(rng)
                assert rademacher_psi(conjugate(p, matrix)) == expected

    def test_phi_equals_term_by_term_composition_on_word_matrices(self):
        for word in mixed_words(12):
            m = matrix_of_word(word)
            assert rademacher_phi(m) == phi_oracle(m), word

    def test_phi_and_psi_equal_composition_on_random_sl2z(self):
        # Each class of representative must show up: c < 0 and c = 0 after
        # normalization, and a negative trace before it.
        rng = random.Random(1729)
        seen = {"c<0": 0, "c=0": 0, "trace<0": 0}
        for _ in range(3000):
            m = random_sl2z(rng)
            n = m.normalized()
            seen["c<0"] += n.c < 0
            seen["c=0"] += n.c == 0
            seen["trace<0"] += m.trace < 0
            phi = phi_oracle(m)
            assert rademacher_phi(m) == phi and type(rademacher_phi(m)) is int, m
            psi = rademacher_psi(m)
            assert type(psi) is int, m
            assert psi == phi - 3 * _sign(n.c * (n.a + n.d)), m
        assert min(seen.values()) >= 20, seen

    def test_psi_is_the_composition_on_benchmark_sized_matrices(self):
        for word in benchmark_style_words(random.Random(6053)):
            m = matrix_of_word(word)
            psi = rademacher_psi(m)
            assert type(psi) is int
            assert psi == phi_oracle(m) - 3 == rademacher(word), word

    def test_non_integral_psi_is_refused(self, monkeypatch):
        # with N off by one, Phi = (a + d - N - 1) / c misses an integer by 1/c
        core = modular_mod._dedekind_twelfths
        monkeypatch.setattr(
            modular_mod, "_dedekind_twelfths", lambda h, k: (core(h, k)[0] + 1, core(h, k)[1])
        )
        m = matrix_of_word("LLRLR")
        assert m.c > 1
        expected = rademacher("LLRLR") - Fraction(1, m.c)
        with pytest.raises(InternalInconsistencyError) as caught:
            rademacher_psi(m)
        assert str(caught.value) == f"Psi came out non-integral: {expected}"

    def test_parabolic_rejected(self):
        with pytest.raises(ValidationError, match="^'R' uses one letter only$"):
            rademacher("R")

    def test_canonical_input_accepted_in_any_rotation(self):
        assert rademacher(canonicalize("RLL")) == rademacher("LLR") == 1
