"""Hyperbolic matrix classes in PSL(2, Z) and their cyclic LR words.

The generators are realized as the unipotent pair

    L = [[1, 1], [0, 1]],   R = [[1, 0], [1, 1]],

so a cyclic word with both letters multiplies out to a hyperbolic matrix
with non-negative entries, and conversely every hyperbolic conjugacy class
with trace > 2 is that of exactly one aperiodic cyclic word.  Encoding keeps
the product in four integers and spends two integer additions per letter.
Decoding runs the continued-fraction expansion of the attracting fixed
point in exact integer surd arithmetic, with a division-free recurrence for
the surd denominators: the expansion is eventually periodic, the periodic
part (doubled when odd) gives alternating L/R run lengths, and the run
letter is fixed by the global parity of the quotient's position, since each
expansion step conjugates by a determinant -1 element that swaps the lobes.
The period is spelled once and its least rotation is the canonical word.

The Rademacher value of a word is its letter-count imbalance #L - #R.  The
independent cross-check is Dedekind-sum arithmetic on the matrix: with
A = [[a, b], [c, d]] and c != 0,

    Phi(A) = (a + d)/c - 12 sign(c) s(d, |c|),
    Psi(A) = Phi(A) - 3 sign(c (a + d)),

where s(h, k) is the classical Dedekind sum.  Psi is a conjugacy invariant
and must equal the letter count on every mixed word.  The entry c grows
exponentially with word length, so s(h, k) is not summed over its k - 1
sawtooth terms: Dedekind reciprocity reduces it along the Euclidean algorithm
on (h, k), in exact integer arithmetic and O(log k) steps.  That loop is an
integer core returning 12 s(h, k) as N / k; det 1 makes d and c coprime, so
Phi = (a + d - N) / c, an integer on SL(2, Z) (Rademacher-Grosswald), and
Phi and Psi are read by integer division, with no ``Fraction`` built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import InternalInconsistencyError, ResourceCapError, ValidationError
from .words import MAX_LETTERS, canonicalize, check_word, least_rotation


@dataclass(frozen=True)
class Mat2Z:
    """A 2x2 integer matrix of determinant 1, equal up to global sign."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c != 1:
            raise ValidationError(
                f"determinant {self.a * self.d - self.b * self.c} != 1"
            )

    @classmethod
    def from_rows(cls, rows) -> "Mat2Z":
        """The matrix [[a, b], [c, d]]; only a 2x2 list of ints is accepted."""
        if not (
            isinstance(rows, list)
            and len(rows) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in rows)
            and all(type(value) is int for row in rows for value in row)
        ):
            raise ValidationError(f"matrix must be [[a, b], [c, d]] of integers: {rows!r}")
        (a, b), (c, d) = rows
        return cls(a, b, c, d)

    def to_rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    @property
    def trace(self) -> int:
        return self.a + self.d

    def normalized(self) -> "Mat2Z":
        """The projective representative with trace > 0 (sign of (c, b) breaks
        the tie for trace 0)."""
        t = self.trace
        if t < 0 or (t == 0 and (self.c < 0 or (self.c == 0 and self.b < 0))):
            return Mat2Z(-self.a, -self.b, -self.c, -self.d)
        return self


def matrix_of_word(word: str) -> Mat2Z:
    """Product of the generator matrices in the order of the word's
    canonical spelling; any rotation goes in.

    Requires both letters (a single-letter word is parabolic).  The result is
    hyperbolic with non-negative entries; its trace, hence its conjugacy
    class, does not depend on the rotation chosen.

    The product is kept in four integer entries: right-multiplying by L adds
    the first column to the second, and by R the second to the first, so a
    letter costs two integer additions.  Only the final ``Mat2Z`` checks its
    determinant, which covers every step: each generator has determinant 1
    and the determinant is multiplicative.
    """
    return _word_product(canonicalize(word))


def _word_product(text: str) -> Mat2Z:
    """matrix_of_word of a canonical spelling, which is not rotated again."""
    if len(set(text)) < 2:
        raise ValidationError(f"{text!r} uses one letter only")
    a, b, c, d = 1, 0, 0, 1
    for letter in text:
        if letter == "L":
            b, d = a + b, c + d
        else:
            a, c = a + b, c + d
    result = Mat2Z(a, b, c, d)
    if min(a, b, c, d) < 0 or result.trace <= 2:
        raise InternalInconsistencyError("word matrix left the positive monoid")
    return result


def _letter_cap_error(letters: int) -> ResourceCapError:
    # a count of at most 64 bits is printed; a longer one is named by its bit length
    size = letters if letters.bit_length() <= 64 else f"2^{letters.bit_length() - 1}"
    return ResourceCapError(
        f"the decoded word has at least {size} letters, over the cap of {MAX_LETTERS}"
    )


def _spell_runs(period: list[int]) -> tuple[str, int]:
    """The letters of alternating runs, L runs at even positions and R at odd
    ones, and the trace of their product: an L-run of length n adds n times
    column 1 to column 2, an R-run n times column 2 to column 1."""
    runs: list[str] = []
    a, b, c, d = 1, 0, 0, 1
    for offset, count in enumerate(period):
        if count < 1:
            raise InternalInconsistencyError("periodic quotient < 1")
        if offset % 2 == 0:
            runs.append("L" * count)
            b, d = b + count * a, d + count * c
        else:
            runs.append("R" * count)
            a, c = a + count * b, c + count * d
    return "".join(runs), a + d


def word_of_matrix(matrix: Mat2Z) -> str:
    """The canonical word whose matrix is conjugate to ``matrix``.

    Runs the integer continued-fraction expansion of the attracting fixed
    point ((a - d) + sqrt(trace^2 - 4)) / (2c).  A surd state
    (P_k + sqrt(D)) / Q_k with Q_k | D - P_k^2 steps by a_k = floor of it,
    P_{k+1} = a_k Q_k - P_k and, since Q_{k+1} Q_k = D - P_{k+1}^2 and
    P_k + P_{k+1} = a_k Q_k, by the division-free

        Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}),

    seeded with Q_{-1} = (D - P_0^2) / Q_0 = 2b, as P_0 = a - d, Q_0 = 2c and,
    by det 1, D - P_0^2 = (a + d)^2 - 4 - (a - d)^2 = 4bc: one small-by-large
    product per step instead of a square and a long division.  A first loop
    walks the pre-period to the first reduced state, 0 < P <= isqrt(D) < P + Q
    and Q - P <= isqrt(D) (Galois), keeping only the number of its quotients:
    however large, they name no letter and are not counted.  A second loop
    walks the period from there until that state, the only one kept, comes
    back.  Both loops take the floor (P + isqrt(D) + [Q < 0]) // Q, which is
    floor((P + sqrt(D)) / Q) for either sign of Q as sqrt(D) is irrational.
    The period's quotients are alternating run lengths, the letter of each
    run fixed by the parity of its position in the full expansion (L at even
    positions).  They are counted as they arrive, and again once the period
    is doubled; over MAX_LETTERS they raise ResourceCapError before any run
    is built.

    The period, rotated to open with an L run, is spelled once, and
    ``words.least_rotation`` of that spelling is the canonical word.  A proper
    power of a shorter class has the same fixed points, so it decodes to the
    primitive word, and is refused when the product of the period's runs has
    another trace.
    """
    m = matrix.normalized()
    t = m.trace
    if t <= 2:
        raise ValidationError(f"trace {t} <= 2 carries no closed geodesic")
    disc = t * t - 4
    p, q, q_prev = m.a - m.d, 2 * m.c, 2 * m.b  # c != 0: det 1 with c = 0 forces |trace| = 2
    root = isqrt(disc)
    if root * root == disc:
        raise InternalInconsistencyError("trace^2 - 4 cannot be a perfect square")

    start = 0
    while not (0 < p <= root < p + q and q - p <= root):
        digit = (p + root + (q < 0)) // q
        p_next = digit * q - p
        p, q, q_prev = p_next, q_prev + digit * (p - p_next), q
        start += 1
    cycle_p, cycle_q = p, q
    period: list[int] = []
    letters = 0
    while True:
        digit = (p + root + (q < 0)) // q
        period.append(digit)
        letters += digit
        if letters > MAX_LETTERS:
            raise _letter_cap_error(letters)
        p_next = digit * q - p
        p, q, q_prev = p_next, q_prev + digit * (p - p_next), q
        if p == cycle_p and q == cycle_q:
            break
    if len(period) % 2:
        period, letters = period + period, 2 * letters
        if letters > MAX_LETTERS:
            raise _letter_cap_error(letters)

    if start % 2:  # L runs sit at even positions of the full expansion
        period = period[1:] + period[:1]
    spelled, trace = _spell_runs(period)
    word = least_rotation(spelled)
    if trace != t:
        raise ValidationError(
            f"trace {t} is a proper power of the class of {word!r}"
        )
    return word


def _dedekind_twelfths(h: int, k: int) -> tuple[int, int]:
    """(N, k') with 12 s(h, k) = N / k', for k' = k / gcd(h, k).

    Evaluated by Dedekind reciprocity (Rademacher-Grosswald, *Dedekind Sums*,
    1972) in O(log k) integer steps.  s depends only on h mod k and
    s(g h, g k) = s(h, k), so (h, k) is first reduced to a coprime pair with
    0 <= h < k.  For 0 < h < k reciprocity reads

        s(h, k) = -s(k mod h, h) + (h^2 + k^2 + 1) / (12 h k) - 1/4,

    and repeating it walks the Euclidean remainders r_0 = k, r_1 = h,
    r_{i-1} = q_i r_i + r_{i+1} down to r_n = 1, where s(0, 1) = 0.  The
    alternating sum of the terms telescopes: r_{i-1}/r_i = q_i + r_{i+1}/r_i,
    and 1/(r_{i-1} r_i) = (-1)^{i+1} (v_i/r_i - v_{i-1}/r_{i-1}) / k for the
    Bezout coefficients v_0 = 0, v_1 = 1, v_{i+1} = v_{i-1} - q_i v_i of h.
    Hence

        12 s(h, k) = sum_i (-1)^{i+1} q_i + (h + v_n) / k - 3 [n odd],

    so the loop runs on integers, and N = k (sum_i (-1)^{i+1} q_i - 3 [n odd])
    + h + v_n.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    g = gcd(h, k)
    k //= g
    h = (h // g) % k
    if h == 0:
        return 0, k
    r_prev, r, v_prev, v, sign, alternating_q = k, h, 0, 1, 1, 0
    while True:
        q, r_next = divmod(r_prev, r)
        alternating_q += sign * q
        if r_next == 0:  # r == 1: this was step n, and sign is (-1)^{n+1}
            break
        r_prev, r, v_prev, v, sign = r, r_next, v, v_prev - q * v, -sign
    return k * (alternating_q - 3 * (sign > 0)) + h + v, k


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) = sum_{i=1}^{k-1} ((i/k)) ((h i / k)) with the sawtooth ((x)),
    built as one ``Fraction`` from the integer reciprocity core."""
    n, k = _dedekind_twelfths(h, k)
    return Fraction(n, 12 * k)


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


def _phi_psi(m: Mat2Z) -> tuple[int, int]:
    """(Phi, Psi) of the trace-positive representative m, both integers on
    SL(2, Z) (Rademacher-Grosswald), from one reciprocity walk.  det 1 makes
    d and |c| coprime: 12 s(d, |c|) = N / |c|, so Phi = (a + d - N) / c; an
    upper-triangular m has Phi = b / d."""
    if m.c == 0:
        numerator, denominator = m.b, m.d
    else:
        numerator, denominator = m.a + m.d - _dedekind_twelfths(m.d, abs(m.c))[0], m.c
    phi, remainder = divmod(numerator, denominator)
    psi = phi - 3 * _sign(m.c * (m.a + m.d))
    if remainder:  # Psi + remainder / denominator, in lowest terms
        g = gcd(remainder, denominator)
        den = abs(denominator) // g
        raise InternalInconsistencyError(
            f"Psi came out non-integral: {psi * den + abs(remainder) // g}/{den}"
        )
    return phi, psi


def rademacher_phi(matrix: Mat2Z) -> int:
    """Phi on the trace-positive representative; (a+d)/c - 12 sign(c) s(d, |c|),
    or b/d for upper-triangular matrices."""
    return _phi_psi(matrix.normalized())[0]


def rademacher_psi(matrix: Mat2Z) -> int:
    """The conjugacy-invariant Psi = Phi - 3 sign(c (a + d))."""
    return _phi_psi(matrix.normalized())[1]


def rademacher(word: str) -> int:
    """Rademacher value of a mixed word: #L - #R.

    Agrees with the Dedekind-sum invariant of the word's matrix under this
    module's generator realization; that equality is enforced by the test
    suite rather than recomputed here.  The counts need no rotation, so the
    word is checked as canonicalize checks it but not rotated.
    """
    check_word(word)
    if len(set(word)) < 2:
        raise ValidationError(f"{word!r} uses one letter only")
    return word.count("L") - word.count("R")


def rademacher_record(word: str) -> dict:
    """The row `modular rademacher` prints for a mixed word in any rotation:
    its canonical spelling, ``rademacher``, Phi as a string and Psi of its
    matrix.  The word is checked and canonicalized once, multiplied out
    once, and Phi and Psi come from one reciprocity walk.  A mixed word's
    product has positive trace, so it is its own representative."""
    text = canonicalize(word)
    phi, psi = _phi_psi(_word_product(text))  # refuses a one-letter word
    return {
        "word": text,
        "rademacher": text.count("L") - text.count("R"),
        "phi": str(phi),
        "psi": psi,
    }
