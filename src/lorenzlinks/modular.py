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

The Rademacher value of a word is its letter-count imbalance #L - #R.  The
independent cross-check is Dedekind-sum arithmetic on the matrix: with
A = [[a, b], [c, d]] and c != 0,

    Phi(A) = (a + d)/c - 12 sign(c) s(d, |c|),
    Psi(A) = Phi(A) - 3 sign(c (a + d)),

where s(h, k) is the classical Dedekind sum.  Psi is a conjugacy invariant
and must equal the letter count on every mixed word.  The entry c grows
exponentially with word length, so s(h, k) is not summed over its k - 1
sawtooth terms: Dedekind reciprocity reduces it along the Euclidean algorithm
on (h, k), in exact integer arithmetic and O(log k) steps.  Phi is then
assembled from the numerator and denominator of s(d, |c|) as one
``Fraction``, and Psi is read off its integer numerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import (
    CapExceededError,
    InternalInconsistencyError,
    NotHyperbolicError,
    NotPrimitiveError,
    ParabolicError,
    ValidationError,
)
from .words import MAX_LETTERS, CyclicWord, canonicalize


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
    def identity(cls) -> "Mat2Z":
        return cls(1, 0, 0, 1)

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

    @property
    def is_hyperbolic(self) -> bool:
        return abs(self.trace) > 2

    def __mul__(self, other: "Mat2Z") -> "Mat2Z":
        return Mat2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2Z":
        return Mat2Z(self.d, -self.b, -self.c, self.a)

    def normalized(self) -> "Mat2Z":
        """The projective representative with trace > 0 (sign of (c, b) breaks
        the tie for trace 0)."""
        t = self.trace
        if t < 0 or (t == 0 and (self.c < 0 or (self.c == 0 and self.b < 0))):
            return Mat2Z(-self.a, -self.b, -self.c, -self.d)
        return self


L_MATRIX = Mat2Z(1, 1, 0, 1)
R_MATRIX = Mat2Z(1, 0, 1, 1)


def matrix_of_word(word: CyclicWord | str) -> Mat2Z:
    """Product of the generator matrices in word order.

    Requires both letters (a single-letter word is parabolic).  The result is
    hyperbolic with non-negative entries; its trace, hence its conjugacy
    class, does not depend on the rotation chosen.

    The product is kept in four integer entries: right-multiplying by L adds
    the first column to the second, and by R the second to the first, so a
    letter costs two integer additions.  Only the final ``Mat2Z`` checks its
    determinant, which covers every step: each generator has determinant 1
    and the determinant is multiplicative.
    """
    w = canonicalize(word)
    if len(set(w.letters)) < 2:
        raise ParabolicError(f"{w.letters!r} uses one letter only")
    a, b, c, d = 1, 0, 0, 1
    for letter in w.letters:
        if letter == "L":
            b, d = a + b, c + d
        else:
            a, c = a + b, c + d
    result = Mat2Z(a, b, c, d)
    if min(a, b, c, d) < 0 or result.trace <= 2:
        raise InternalInconsistencyError("word matrix left the positive monoid")
    return result


def _floor_surd(p: int, root: int, q: int) -> int:
    """floor((p + sqrt(disc)) / q) given root = isqrt(disc), disc irrational."""
    if q > 0:
        return (p + root) // q
    return -((p + root) // -q) - 1


def _letter_cap_error(letters: int) -> CapExceededError:
    # a count over Python's int-to-str digit limit is named by its bit length
    size = letters if letters.bit_length() <= 64 else f"2^{letters.bit_length() - 1}"
    return CapExceededError(
        f"the decoded word has at least {size} letters, over the cap of {MAX_LETTERS}"
    )


def _spell_runs(period: list[int], start: int) -> str:
    """The letters of alternating runs whose first length is quotient number
    ``start`` of the expansion: L runs at even positions, R at odd ones."""
    runs: list[str] = []
    for offset, count in enumerate(period, start=start):
        if count < 1:
            raise InternalInconsistencyError("periodic quotient < 1")
        runs.append(("L" if offset % 2 == 0 else "R") * count)
    return "".join(runs)


def word_of_matrix(matrix: Mat2Z) -> CyclicWord:
    """The canonical cyclic word whose matrix is conjugate to ``matrix``.

    Runs the integer continued-fraction expansion of the attracting fixed
    point ((a - d) + sqrt(trace^2 - 4)) / (2c).  A surd state
    (P_k + sqrt(D)) / Q_k with Q_k | D - P_k^2 steps by a_k = floor of it,
    P_{k+1} = a_k Q_k - P_k and, since Q_{k+1} Q_k = D - P_{k+1}^2 and
    P_k + P_{k+1} = a_k Q_k, by the division-free

        Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}),

    seeded with Q_{-1} = (D - P_0^2) / Q_0: one small-by-large product per
    step instead of a square and a long division.  The states become
    periodic exactly at the first reduced one, 0 < P <= isqrt(D) < P + Q and
    Q - P <= isqrt(D) (Galois), so only that state is kept to close the
    cycle.  The cycle's quotients are alternating run lengths, with
    the letter of each run decided by the parity of its position in the full
    expansion (L at even positions).  A proper power of a shorter class has
    the same fixed points, so it decodes to the primitive word and is
    reported as an error via the trace check.  The period's letters are
    counted as its quotients arrive, and again once it is doubled; over
    MAX_LETTERS they raise CapExceededError before any run is built.  The
    pre-period quotients, however large, name no letter and are not counted.
    """
    m = matrix.normalized()
    t = m.trace
    if t <= 2:
        raise NotHyperbolicError(f"trace {t} <= 2 carries no closed geodesic")
    disc = t * t - 4
    p, q = m.a - m.d, 2 * m.c
    if q == 0:
        raise NotHyperbolicError("lower-left entry 0 is impossible for hyperbolic")
    if (disc - p * p) % q:
        scale = abs(q)
        p, disc, q = p * scale, disc * scale * scale, q * scale
    root = isqrt(disc)
    if root * root == disc:
        raise InternalInconsistencyError("trace^2 - 4 cannot be a perfect square")

    quotients: list[int] = []
    start = cycle = None
    letters = 0
    q_prev = (disc - p * p) // q
    while start is None or (p, q) != cycle:
        if start is None and 0 < p <= root < p + q and q - p <= root:
            start, cycle = len(quotients), (p, q)
        digit = _floor_surd(p, root, q)
        quotients.append(digit)
        if start is not None:
            letters += digit
            if letters > MAX_LETTERS:
                raise _letter_cap_error(letters)
        p_next = digit * q - p
        p, q, q_prev = p_next, q_prev + digit * (p - p_next), q
    period = quotients[start:]
    if len(period) % 2:
        period, letters = period + period, 2 * letters
        if letters > MAX_LETTERS:
            raise _letter_cap_error(letters)

    word = canonicalize(_spell_runs(period, start))
    if matrix_of_word(word).trace != t:
        raise NotPrimitiveError(
            f"trace {t} is a proper power of the class of {word.letters!r}"
        )
    return word


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) = sum_{i=1}^{k-1} ((i/k)) ((h i / k)) with the sawtooth ((x)).

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

    so the loop runs on integers and one ``Fraction`` is built at the end.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    g = gcd(h, k)
    k //= g
    h = (h // g) % k
    if h == 0:
        return Fraction(0)
    r_prev, r, v_prev, v, sign, alternating_q = k, h, 0, 1, 1, 0
    while True:
        q, r_next = divmod(r_prev, r)
        alternating_q += sign * q
        if r_next == 0:  # r == 1: this was step n, and sign is (-1)^{n+1}
            break
        r_prev, r, v_prev, v, sign = r, r_next, v, v_prev - q * v, -sign
    return Fraction(k * (alternating_q - 3 * (sign > 0)) + h + v, 12 * k)


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


def rademacher_phi(matrix: Mat2Z) -> Fraction:
    """Phi on the trace-positive representative; (a+d)/c - 12 sign(c) s(d, |c|),
    or b/d for upper-triangular matrices.

    With s(d, |c|) = N / S in lowest terms this is the single fraction
    ((a + d) S - 12 |c| N) / (c S), reduced once.
    """
    m = matrix.normalized()
    if m.c == 0:
        return Fraction(m.b, m.d)
    s = dedekind_sum(m.d, abs(m.c))
    return Fraction(
        (m.a + m.d) * s.denominator - 12 * abs(m.c) * s.numerator, m.c * s.denominator
    )


def rademacher_psi(matrix: Mat2Z) -> int:
    """The conjugacy-invariant Psi = Phi - 3 sign(c (a + d)); always an integer."""
    m = matrix.normalized()
    phi = rademacher_phi(m)
    shift = 3 * _sign(m.c * (m.a + m.d))
    if phi.denominator != 1:
        raise InternalInconsistencyError(f"Psi came out non-integral: {phi - shift}")
    return phi.numerator - shift


def rademacher(word: CyclicWord | str) -> int:
    """Rademacher value of a mixed word: #L - #R.

    Agrees with the Dedekind-sum invariant of the word's matrix under this
    module's generator realization; that equality is enforced by the test
    suite rather than recomputed here.
    """
    w = canonicalize(word)
    if len(set(w.letters)) < 2:
        raise ParabolicError(f"{w.letters!r} uses one letter only")
    return w.letters.count("L") - w.letters.count("R")
