"""Jones polynomials: a Temperley-Lieb bracket evaluator and the torus closed form.

The Kauffman bracket of a closed positive braid is the closure trace of the
braid's image in the Temperley-Lieb algebra, each crossing mapping to
sigma_i = A * 1 + A^-1 * e_i and each closed loop to d = -A^2 - A^-2
(Kauffman 1987; Jones 1985).  The evaluator carries the partial diagrams
reached so far with their polynomials and closes each strand position as
soon as its last generator has been applied, so its cost follows the number
of live partial diagrams instead of the 2^c smoothings of the state sum.
Before it runs, the word is Markov-destabilized: while the highest or the
lowest generator index occurs once, that crossing and one strand go, a
positive Reidemeister I move that divides the bracket by -A^3, so the
evaluator sees k fewer crossings and strands and the result is multiplied
back by (-A^3)^k.  Strands that no crossing touches then leave too, each a
split unknot whose factor d is put back once on the result.  On the touched
strands, each diagram's polynomial in u = A^-2 is packed into one integer,
one slot of W = c + n + 1 bits per power of u, and every strand position but
one is closed inside that integer, from the rotation of the word that keeps
strand positions open the fewest steps (an isotopy; see `kauffman_bracket`).

Multiplying by (-A)^(-3w) (writhe w = c, every crossing positive) and
substituting t = A^-4 gives the Jones polynomial under the dynamics
chirality convention, which fixes V(trefoil) = t + t^3 - t^4; the mirror is
t -> 1/t and is never applied implicitly.  Both steps together map each
bracket term to one Jones term, so `jones_of_braid` reads every coefficient
straight off the bracket's packed digits.

Torus knots additionally have the closed form

    V(p, q) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)

whose division is performed exactly and guarded: a numerator not divisible by
1 - t^2 raises instead of rounding.  Jones polynomials for multi-component
links are only available through the bracket.

A Lorenz braid's Jones polynomial goes through `jones_of_lorenz_braid`,
which checks the crossing cap on the braid before its word is built.
`LaurentPoly` is the read-only value both evaluators return; it carries no
arithmetic.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Mapping, Sequence

from . import braid as braid_mod  # a substitute set on braid.braid_generators is seen here
from .errors import InternalInconsistencyError, ResourceCapError, ValidationError
from .words import MAX_LETTERS

DEFAULT_MAX_CROSSINGS = 20
# d^m for m loose strands takes m^2 bits: under tracemalloc, one crossing and
# m loose strands peaked at 8.6 MB at m = 5,000 and 121 MB at 20,000
MAX_LOOSE_STRANDS = 5_000


class LaurentPoly:
    """Integer Laurent polynomial with exponents in quarter-integer units.

    The key e stands for var**(e/4).  Quarter units let one exact type carry
    both the bracket variable (integer exponents, stored as multiples of 4)
    and the Jones variable, whose exponents for links live in (1/2)Z.  Zero
    coefficients are never stored.  The value is read-only: it is built once
    from a mapping of quarter exponents to coefficients and then read through
    `pairs` and `format`.  ``LaurentPoly()`` is the zero polynomial.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Sorted (quarter_exponent, coefficient) pairs; the wire form."""
        return tuple(sorted(self._coeffs.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self.pairs())

    def __repr__(self) -> str:
        return f"LaurentPoly({self.format()!r})"

    def format(self) -> str:
        """Human-readable form in t, fractional exponents rendered as e/4 or e/2."""
        if not self._coeffs:
            return "0"
        chunks: list[str] = []
        for e, c in sorted(self._coeffs.items()):
            if e == 0:
                body = str(abs(c))
            else:
                if e % 4 == 0:
                    exp = str(e // 4)
                elif e % 2 == 0:
                    exp = f"({e // 2}/2)"
                else:
                    exp = f"({e}/4)"
                power = "t" if exp == "1" else f"t^{exp}"
                body = power if abs(c) == 1 else f"{abs(c)}*{power}"
            sign = "-" if c < 0 else "+"
            chunks.append(f"{sign} {body}")
        joined = " ".join(chunks)
        return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]


def _check_cap(cap: int) -> None:
    """The one refusal of a negative crossing cap, before any other check."""
    if cap < 0:
        raise ValidationError(f"max_crossings must be >= 0, got {cap}")


def _check_crossings(c: int, cap: int) -> None:
    """The one wording of the crossing-cap refusal."""
    if c > cap:
        raise ResourceCapError(f"{c} crossings exceeds the limit of {cap}")


def kauffman_bracket(
    crossings: Sequence[int],
    n: int,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> LaurentPoly:
    """Bracket polynomial (in A) of the closure of a positive braid word.

    ``crossings`` is a braid word as 1-based generator indices, the form
    `braid_generators` and `t_braid_word` return.  After the indices are
    validated and the crossing cap is checked on the word as given,
    `_destabilize` removes k crossings and k strands by positive
    Reidemeister I moves.  The evaluation below runs on the reduced word, so
    c and n from here on are its counts, and the result is multiplied by
    (-A^3)^k: 12k is added to every quarter exponent and every coefficient
    is multiplied by (-1)^k.

    Each crossing is sigma_i = A * (1 + u e_i) in the Temperley-Lieb
    algebra, u = A^-2, and the factor A^c is pulled out once.  The state
    maps each partial diagram (the partner map over the bottom and top
    endpoints of the strand positions) to its polynomial in u; e_i joins tops
    i and i+1 and opens a fresh cup there, and a loop it closes turns
    1 + u e_i into the scalar 1 + u d = -u^2, where d = -A^2 - A^-2 =
    -u^-1 - u.

    Strands that no generator of the reduced word touches are split unknots,
    a factor d each; the m of them leave before the evaluation (all but one
    strand when no crossing is left, since that loop is the one the
    normalization <unknot> = 1 removes), the touched positions are ranked
    0..n-1, n from here on counting them, and d^m is put back on the decoded
    result.  Knots have no loose strands, so their word is never renumbered.
    More than MAX_LOOSE_STRANDS of them raise ResourceCapError first.

    Positions are closed early: right after the last generator that touches
    position q, top q is joined to bottom q (the braid closure, applied as a
    partial trace) and both points leave the diagram.  A closure that closes
    a loop multiplies by d = u^-1 * -(1 + u^2); one that does not multiplies
    by 1 = u^-1 * u.  The factor u^-1 is pulled out once per closure, so
    every factor applied to a polynomial is a polynomial in u.  The last
    position closed is never joined: its loop is the one <unknot> = 1
    removes.  So closures = n - 1.  The cost is c times the number of live
    partial diagrams, which early closure bounds by the matchings of the
    positions that are open at once.  So the word is rotated to the least
    of the starts that keep its positions open the fewest steps in all, a
    planar isotopy of the closed diagram that leaves the bracket unchanged.
    From a start in a cyclic gap of g steps between two uses, a position is
    open c - g steps; `_cheapest_start` adds each gap over its starts, O(c + n).

    Each polynomial is packed into one integer, sum_k a_k 2^(W k) for
    sum_k a_k u^k (Kronecker substitution u = 2^W), so multiplying by u is a
    shift by W bits and every accumulation is one integer addition.  Packing
    is a ring map from Z[u] to Z, so the integer arithmetic is exact whatever
    W is; W only has to make the final value decode uniquely into balanced
    digits in [-2^(W-1), 2^(W-1)).  The state starts at 1, and every factor
    applied (1 + u, -u^2 at a crossing; -(1 + u^2), u at a closure) has
    absolute coefficient sum at most 2; adding the polynomials of merged
    diagrams does not increase the total, so the absolute coefficient sum
    over the whole state at most doubles per crossing and per closure.
    Every final coefficient therefore has |a_k| <= 2^(c + n - 1) < 2^(W-1)
    for W = c + n + 1.  Each factor raises the degree in u by at most 2, so
    the result has at most 2 (c + n - 1) + 1 slots.  Each crossing touches
    two positions, so n <= max(2c, 1), and W and the slot count are bounded
    by the crossing count alone.  The loose factor d^m = (-u^-1)^m
    (1 + u^2)^m is applied to the decoded digits, as one binomial row spread
    over every second power of u.
    """
    digits, top, sign = _bracket_digits(crossings, n, max_crossings)
    return LaurentPoly({top - 8 * k: sign * digit for k, digit in enumerate(digits) if digit})


def _bracket_digits(crossings: Sequence[int], n: int, cap: int) -> tuple[list[int], int, int]:
    """`kauffman_bracket` as (digits, top, sign): sign * digits[k] A^((top - 8k) / 4)."""
    _check_cap(cap)
    if n < 1:
        raise ValidationError("strand count must be >= 1")
    positions = list(crossings)
    if positions and not 1 <= min(positions) <= max(positions) < n:
        bad = next(p for p in positions if not 1 <= p < n)
        raise ValidationError(f"generator index {bad} outside 1..{n - 1}")
    _check_crossings(len(positions), cap)
    positions, n, removed = _destabilize(positions, n)
    c = len(positions)
    start = _cheapest_start(positions)
    positions = positions[start:] + positions[:start]

    # strand positions are 0-based: generator p acts on positions p - 1 and p
    last_use: dict[int, int] = {}
    for j, p in enumerate(positions):
        last_use[p - 1] = last_use[p] = j
    loose = n - (len(last_use) or 1)  # with no crossings, one loop stays open
    if loose > MAX_LOOSE_STRANDS:
        raise ResourceCapError(f"{loose} loose strands are over the cap of {MAX_LOOSE_STRANDS}")
    if loose:
        # generator p's positions p - 1 and p stay adjacent when ranked
        rank = {q: i for i, q in enumerate(sorted(last_use))}
        positions = [rank[p] for p in positions]
        last_use = {rank[q]: j for q, j in last_use.items()}
        n -= loose
    closing: list[tuple[int, ...]] = [()] * c
    for q, j in last_use.items():
        closing[j] += (q,)
    if closing:
        closing[-1] = closing[-1][:-1]  # stays open: its loop is the one <unknot> = 1 removes
    width = c + n + 1
    two_slots = 2 * width

    # point 2q is the bottom of position q, 2q + 1 its top; closed points hold -1
    state: dict[tuple[int, ...], int] = {tuple(i ^ 1 for i in range(2 * n)): 1}
    for p, closes in zip(positions, closing):
        a, b = 2 * p - 1, 2 * p + 1  # the tops of positions p - 1 and p
        # 1 maps each diagram to itself; where tops p - 1 and p are joined,
        # e_i closes a loop and 1 + u e_i is the scalar -u^2
        after = state.copy()
        for key, poly in state.items():
            x = key[a]
            if x == b:
                after[key] -= poly + (poly << two_slots)
                continue
            y = key[b]
            joined = list(key)
            joined[x], joined[y], joined[a], joined[b] = y, x, b, a
            joined_key = tuple(joined)
            after[joined_key] = after.get(joined_key, 0) + (poly << width)
        for q in closes:
            bottom, top = 2 * q, 2 * q + 1
            closed: dict[tuple[int, ...], int] = {}
            for key, poly in after.items():
                joined = list(key)
                joined[bottom] = joined[top] = -1
                x = key[top]
                if x == bottom:
                    poly = -(poly + (poly << two_slots))
                else:
                    y = key[bottom]
                    joined[x], joined[y] = y, x
                    poly <<= width
                new_key = tuple(joined)
                closed[new_key] = closed.get(new_key, 0) + poly
            after = closed
        state = after

    (packed,) = state.values()
    digits = _unpack(packed, width, 2 * (c + n - 1) + 1)
    if loose:
        # times (1 + u^2)^loose; its sign and u^-loose go into the exponents below
        row = [1]
        for j in range(loose):
            row.append(row[-1] * (loose - j) // (j + 1))
        spread = [0] * (len(digits) + 2 * loose)
        for k, digit in enumerate(digits):
            if digit:
                for j, binomial in enumerate(row):
                    spread[k + 2 * j] += digit * binomial
        digits = spread
    # a_k u^k * A^c u^-(n - 1) * (-u^-1)^loose * (-A^3)^removed is
    # (-1)^(loose + removed) a_k A^(c + 2 (n + loose - 1) + 3 removed - 2k)
    top_exponent = 4 * (c + 2 * (n + loose - 1)) + 12 * removed
    return digits, top_exponent, -1 if (loose + removed) % 2 else 1


def _cheapest_start(positions: list[int]) -> int:
    """The least of the cheapest starts of ``positions``; see `kauffman_bracket`."""
    c = len(positions)
    last: dict[int, int] = {}
    for j, p in enumerate(positions):
        last[p - 1] = last[p] = j - c  # each position's last use, one lap back
    cover = [0] * c  # the scores are its prefix sums, up to a constant; index -m is c - m
    for j, p in enumerate(positions):
        i, k = last[p - 1], last[p]  # the gaps from i and k cover starts i + 1 .. j, k + 1 .. j
        cover[i + 1] += j - i
        cover[k + 1] += j - k
        cover[j + 1 - c] -= 2 * j - i - k
        last[p - 1] = last[p] = j
    scores = list(accumulate(cover))
    return scores.index(max(scores)) if scores else 0


def _destabilize(positions: list[int], n: int) -> tuple[list[int], int, int]:
    """Markov-destabilize a positive braid word at both ends of its index
    range; returns the reduced word, its strand count and the number k of
    crossings removed, which is also the number of strands removed.

    While the highest index used, h, occurs once, the word is A sigma_h B
    with A and B on the strands up to h.  Its closure is that of the
    conjugate B A sigma_h, where closing strand h + 1 around sigma_h is a
    positive Reidemeister I move, which multiplies the bracket by -A^3; so
    the crossing and strand h + 1 go, leaving B A, whose closure is that of
    A B.  The lowest index used, l, goes the same way with strand l, and
    every index above it moves down by one.  Strands no crossing touches
    stay; the caller takes them out as split unknots.  No removal changes
    another index's count, so one pass trims the runs of once-used indices
    off both ends of the sorted distinct indices, and every kept index moves
    down by the length of the low run.
    """
    counts: dict[int, int] = {}
    for p in positions:
        counts[p] = counts.get(p, 0) + 1
    used = sorted(counts)
    low, high = 0, len(used)
    while high and counts[used[high - 1]] == 1:
        high -= 1
    while low < high and counts[used[low]] == 1:
        low += 1
    if high - low == len(used):
        return positions, n, 0
    kept = set(used[low:high])
    removed = len(used) - len(kept)
    return [p - low for p in positions if p in kept], n - removed, removed


def _unpack(packed: int, width: int, slots: int) -> list[int]:
    """The ``slots`` lowest balanced base-2^width digits of ``packed``, lowest
    first, each in [-2^(width - 1), 2^(width - 1)); a value with digits
    beyond them raises."""
    half, modulus = 1 << (width - 1), 1 << width
    digits = []
    for _ in range(slots):
        digit = packed & (modulus - 1)
        if digit >= half:
            digit -= modulus
        digits.append(digit)
        packed = (packed - digit) >> width
    if packed:
        raise InternalInconsistencyError(f"packed polynomial has more than {slots} slots")
    return digits


def jones_of_braid(
    crossings: Sequence[int],
    n: int,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> LaurentPoly:
    """Jones polynomial (in t) of the closure of a positive braid word.

    Normalizes the bracket by (-A)^(-3w) with writhe w equal to the crossing
    count c (all crossings positive), then substitutes t = A^-4: the bracket
    term a A^(e/4) becomes (-1)^c a t^((12c - e)/16), stored at quarter
    exponent (12c - e)/4, read straight off the packed bracket digits.
    """
    digits, top, sign = _bracket_digits(crossings, n, max_crossings)
    low, sign = 3 * len(crossings) - top // 4, sign * (-1) ** len(crossings)
    return LaurentPoly({low + 2 * k: sign * digit for k, digit in enumerate(digits) if digit})


def jones_of_lorenz_braid(
    braid: braid_mod.LorenzBraid,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> LaurentPoly:
    """Jones polynomial of the closure of a Lorenz braid.  Over
    ``max_crossings`` crossings it raises ResourceCapError from the braid's
    crossing count, before a generator is built; a negative cap raises
    ValidationError first, as in `jones_of_braid`."""
    _check_cap(max_crossings)
    _check_crossings(braid.crossings, max_crossings)
    generators = braid_mod.braid_generators(braid)
    return jones_of_braid(generators, braid.n, max_crossings=max_crossings)


def _divide_by_one_minus_t_squared(numerator: list[int]) -> list[int]:
    """Coefficients of N / (1 - t^2), lowest power first, for the polynomial
    N with coefficients ``numerator``, lowest power first.

    N = (1 - t^2) Q gives N_i = Q_i - Q_(i-2), so Q_i = N_i + Q_(i-2) is a
    running sum over each parity.  Run to the top of N, the two highest sums
    are the remainder; either one nonzero raises InternalInconsistencyError.
    """
    sums = list(numerator)
    for i in range(2, len(sums)):
        sums[i] += sums[i - 2]
    if any(sums[-2:]):
        raise InternalInconsistencyError("division left a nonzero remainder")
    return sums[:-2]


def _integer_text(value: int) -> str:
    try:
        return str(value)
    except ValueError:  # over Python's int-to-str digit limit: name its bit length
        return f"at least 2^{value.bit_length() - 1}"


def jones_torus(p: int, q: int) -> LaurentPoly:
    """Closed-form Jones polynomial of the (p, q) torus knot.

    V = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2); the
    division must be exact, and the guard raising otherwise is what certifies
    the numerator.  Symmetric in p and q.  The polynomials have O(p + q)
    terms, so p + q over words.MAX_LETTERS (the strand count of the Lorenz
    braid of [[p, q]], which ``to_lorenz`` refuses) raises ResourceCapError
    before any is built.
    """
    if p < 2 or q < 2:
        raise ValidationError("torus parameters must both be >= 2")
    pair = f"({_integer_text(p)}, {_integer_text(q)})"
    if math.gcd(p, q) != 1:
        raise ValidationError(f"{pair} is a torus link, not a knot")
    if p + q > MAX_LETTERS:
        raise ResourceCapError(
            f"torus knot {pair} needs p + q strands, over the cap of {MAX_LETTERS}"
        )
    # the four exponents differ, since p != q and both are >= 2
    numerator = [0] * (p + q + 1)
    numerator[0] = numerator[p + q] = 1
    numerator[p + 1] = numerator[q + 1] = -1
    quotient = _divide_by_one_minus_t_squared(numerator)
    # (p-1)(q-1) is even for coprime p, q, so the prefactor exponent is integral
    low = 2 * (p - 1) * (q - 1)
    return LaurentPoly({low + 4 * i: coefficient for i, coefficient in enumerate(quotient)})
