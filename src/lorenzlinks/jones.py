"""Jones polynomials: a Temperley-Lieb bracket evaluator and the torus closed form.

The Kauffman bracket of a closed positive braid is the closure trace of the
braid's image in the Temperley-Lieb algebra, each crossing mapping to
sigma_i = A * 1 + A^-1 * e_i and each closed loop to d = -A^2 - A^-2
(Kauffman 1987; Jones 1985).  The evaluator carries the partial diagrams
reached so far with their polynomials and closes each strand position as
soon as its last generator has been applied, so its cost follows the number
of live partial diagrams instead of the 2^c smoothings of the state sum.
Each diagram's polynomial in u = A^-2 is packed into one integer, one slot
of W bits per power of u, with W derived from the braid so that the single
surviving value decodes uniquely; see `kauffman_bracket`.

Multiplying by (-A)^(-3w) (writhe w = c, every crossing positive) and
substituting t = A^-4 gives the Jones polynomial under the dynamics
chirality convention, which fixes V(trefoil) = t + t^3 - t^4; the mirror is
t -> 1/t and is never applied implicitly.

Torus knots additionally have the closed form

    V(p, q) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)

whose division is performed exactly and guarded: a numerator not divisible by
1 - t^2 raises instead of rounding.  Jones polynomials for multi-component
links are only available through the bracket.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from .errors import (
    CapExceededError,
    DivisionRemainderError,
    InternalInconsistencyError,
    NotCoprimeError,
    TooManyCrossingsError,
    ValidationError,
)
from .tlink import MAX_STRANDS

DEFAULT_MAX_CROSSINGS = 20


class LaurentPoly:
    """Integer Laurent polynomial with exponents in quarter-integer units.

    The key e stands for var**(e/4).  Quarter units let one exact type carry
    both the bracket variable (integer exponents, stored as multiples of 4)
    and the Jones variable, whose exponents for links live in (1/2)Z.  Zero
    coefficients are never stored; all arithmetic is exact over the integers.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        # told apart by items(): far cheaper than isinstance(coeffs, Mapping)
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        cleaned: dict[int, int] = {}
        for exponent, coefficient in items:
            if coefficient:
                cleaned[int(exponent)] = cleaned.get(int(exponent), 0) + int(coefficient)
        self._coeffs = {e: c for e, c in cleaned.items() if c}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, coefficient: int, quarter_exponent: int) -> "LaurentPoly":
        return cls({quarter_exponent: coefficient})

    @classmethod
    def var_power(cls, exponent: int) -> "LaurentPoly":
        """var**exponent for integer ``exponent`` (stored as 4 * exponent)."""
        return cls({4 * exponent: 1})

    def items(self):
        return self._coeffs.items()

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Sorted (quarter_exponent, coefficient) pairs; the wire form."""
        return tuple(sorted(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self.pairs())

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def __pow__(self, power: int) -> "LaurentPoly":
        if power < 0:
            raise ValidationError("negative powers are not defined for polynomials")
        result, base = LaurentPoly.one(), self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def map_exponents(self, fn) -> "LaurentPoly":
        out: dict[int, int] = {}
        for e, c in self._coeffs.items():
            new = fn(e)
            if new in out:
                raise InternalInconsistencyError("exponent map is not injective")
            out[new] = c
        return LaurentPoly(out)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.format()!r})"

    def format(self, var: str = "t") -> str:
        """Human-readable form, fractional exponents rendered as e/4 or e/2."""
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
                power = var if exp == "1" else f"{var}^{exp}"
                body = power if abs(c) == 1 else f"{abs(c)}*{power}"
            sign = "-" if c < 0 else "+"
            chunks.append(f"{sign} {body}")
        joined = " ".join(chunks)
        return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]


def divide_exact(numerator: LaurentPoly, denominator: LaurentPoly) -> LaurentPoly:
    """Exact Laurent division; raises DivisionRemainderError if inexact."""
    if not denominator:
        raise ValidationError("division by the zero polynomial")
    if not numerator:
        return LaurentPoly.zero()
    remainder = dict(numerator.items())
    den = sorted(denominator.items())
    den_lead_exp, den_lead_coeff = den[-1]
    den_min_exp = den[0][0]
    min_quotient_exp = min(remainder) - den_min_exp
    quotient: dict[int, int] = {}
    while remainder:
        lead_exp = max(remainder)
        lead_coeff = remainder[lead_exp]
        shift = lead_exp - den_lead_exp
        if lead_coeff % den_lead_coeff or shift < min_quotient_exp:
            raise DivisionRemainderError("division left a nonzero remainder")
        q = lead_coeff // den_lead_coeff
        quotient[shift] = quotient.get(shift, 0) + q
        for e, c in den:
            target = e + shift
            value = remainder.get(target, 0) - q * c
            if value:
                remainder[target] = value
            else:
                remainder.pop(target, None)
    return LaurentPoly(quotient)


def _crossing_positions(crossings: Sequence) -> list[int]:
    positions = []
    for crossing in crossings:
        positions.append(int(getattr(crossing, "position", crossing)))
    return positions


def kauffman_bracket(
    crossings: Sequence,
    n: int,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> LaurentPoly:
    """Bracket polynomial (in A) of the closure of a positive braid word.

    ``crossings`` is a braid word as generator positions, either bare ints or
    crossing records with a ``position`` attribute.  Each crossing is
    sigma_i = A * (1 + u e_i) in the Temperley-Lieb algebra, u = A^-2, and the
    factor A^c is pulled out once.  The state maps each partial diagram (the
    partner map over the bottom and top endpoints of the strand positions) to
    its polynomial in u; e_i joins tops i and i+1 and opens a fresh cup there,
    and a loop it closes turns 1 + u e_i into the scalar 1 + u d = -u^2, where
    d = -A^2 - A^-2 = -u^-1 - u.

    Positions are closed early: right after the last generator that touches
    position q, top q is joined to bottom q (the braid closure, applied as a
    partial trace) and both points leave the diagram.  A closure that closes
    a loop multiplies by d = u^-1 * -(1 + u^2); one that does not multiplies
    by 1 = u^-1 * u.  The factor u^-1 is pulled out once per closure, so
    every factor applied to a polynomial is a polynomial in u.  Positions
    that no generator touches are one loop d each.  The last position closed
    is never joined: its loop is the one the normalization <unknot> = 1
    removes.  The cost is c times the number of live partial diagrams, which
    early closure bounds by the matchings of the positions that are open at
    once.

    Each polynomial is packed into one integer, sum_k a_k 2^(W k) for
    sum_k a_k u^k (Kronecker substitution u = 2^W), so multiplying by u is a
    shift by W bits and every accumulation is one integer addition.  Packing
    is a ring map from Z[u] to Z, so the integer arithmetic is exact whatever
    W is; W only has to make the final value decode uniquely into balanced
    digits in [-2^(W-1), 2^(W-1)).  Every factor applied (1 + u, -u^2 at a
    crossing; -(1 + u^2), u at a closure) has absolute coefficient sum at
    most 2, and adding the polynomials of merged diagrams does not increase
    the total, so the absolute coefficient sum over the whole state starts
    at 1 and at most doubles per crossing and per closure.  Every final
    coefficient therefore has |a_k| <= 2^(c + closures) < 2^(W-1) for
    W = c + closures + 2, closures being the number of positions joined.
    Each crossing and each closure raises the degree in u by at most 2, so
    the result has at most 2 (c + closures) + 1 slots.
    """
    if n < 1:
        raise ValidationError("strand count must be >= 1")
    positions = _crossing_positions(crossings)
    for p in positions:
        if not 1 <= p <= n - 1:
            raise ValidationError(f"generator index {p} outside 1..{n - 1}")
    c = len(positions)
    if c > max_crossings:
        raise TooManyCrossingsError(f"{c} crossings exceeds the limit of {max_crossings}")
    delta = LaurentPoly({8: -1, -8: -1})  # -A^2 - A^-2 in quarter units
    if not positions:
        return delta ** (n - 1)

    # strand positions are 0-based: generator p acts on positions p - 1 and p
    last_use: dict[int, int] = {}
    for j, p in enumerate(positions):
        last_use[p - 1] = last_use[p] = j
    closing: list[list[int]] = [[] for _ in positions]
    for q, j in last_use.items():
        closing[j].append(q)
    closing[-1].pop()  # stays open: its loop is the one <unknot> = 1 removes
    closures = len(last_use) - 1
    width = c + closures + 2
    two_slots = 2 * width

    # point 2q is the bottom of position q, 2q + 1 its top; closed points hold -1
    state: dict[tuple[int, ...], int] = {tuple(i ^ 1 for i in range(2 * n)): 1}
    for j, p in enumerate(positions):
        a, b = 2 * p - 1, 2 * p + 1  # the tops of positions p - 1 and p
        # 1 maps each diagram to itself; where tops p - 1 and p are joined,
        # e_i closes a loop and 1 + u e_i is the scalar -u^2
        after = {
            key: -(poly << two_slots) if key[a] == b else poly
            for key, poly in state.items()
        }
        for key, poly in state.items():
            x = key[a]
            if x == b:
                continue
            y = key[b]
            joined = list(key)
            joined[x], joined[y], joined[a], joined[b] = y, x, b, a
            joined_key = tuple(joined)
            after[joined_key] = after.get(joined_key, 0) + (poly << width)
        for q in closing[j]:
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
    digits = _unpack(packed, width, 2 * (c + closures) + 1)
    # a_k u^k * A^c u^-closures is a_k A^(c + 2 closures - 2k)
    top_exponent = 4 * (c + 2 * closures)
    coeffs = {top_exponent - 8 * k: digit for k, digit in enumerate(digits)}
    untouched = n - len(last_use)
    return LaurentPoly(coeffs) * delta ** untouched


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
    crossings: Sequence,
    n: int,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> LaurentPoly:
    """Jones polynomial (in t) of the closure of a positive braid word.

    Normalizes the bracket by (-A)^(-3w) with writhe w equal to the crossing
    count (all crossings positive), then substitutes t = A^-4.
    """
    bracket = kauffman_bracket(crossings, n, max_crossings=max_crossings)
    w = len(_crossing_positions(crossings))
    sign = -1 if w % 2 else 1
    normalized = bracket * LaurentPoly.monomial(sign, -12 * w)

    def to_jones(e: int) -> int:
        if e % 4:
            raise InternalInconsistencyError("bracket exponent not a multiple of 4")
        return -e // 4

    return normalized.map_exponents(to_jones)


def jones_torus(p: int, q: int) -> LaurentPoly:
    """Closed-form Jones polynomial of the (p, q) torus knot.

    V = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2); the
    division must be exact, and the guard raising otherwise is what certifies
    the numerator.  Symmetric in p and q.  The polynomials have O(p + q)
    terms, so p + q over tlink.MAX_STRANDS (the strand count of the Lorenz
    braid of [[p, q]], which ``to_lorenz`` refuses) raises CapExceededError
    before any is built.
    """
    if p < 2 or q < 2:
        raise ValidationError("torus parameters must both be >= 2")
    if math.gcd(p, q) != 1:
        raise NotCoprimeError(f"({p}, {q}) is a torus link, not a knot")
    if p + q > MAX_STRANDS:
        raise CapExceededError(
            f"torus knot ({p}, {q}) needs p + q strands, over the cap of {MAX_STRANDS}"
        )
    numerator = (
        LaurentPoly.one()
        - LaurentPoly.var_power(p + 1)
        - LaurentPoly.var_power(q + 1)
        + LaurentPoly.var_power(p + q)
    )
    denominator = LaurentPoly.one() - LaurentPoly.var_power(2)
    quotient = divide_exact(numerator, denominator)
    # (p-1)(q-1) is even for coprime p, q, so the prefactor exponent is integral
    return LaurentPoly.monomial(1, 2 * (p - 1) * (q - 1)) * quotient
