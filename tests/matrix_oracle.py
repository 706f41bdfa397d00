"""Products in SL(2, Z), kept as test code.

The library multiplies a word out in four integers and decodes a matrix by
its continued fraction, so it never multiplies two ``Mat2Z``s.  The tests
do: the per-letter product of the generator matrices is the oracle for
``matrix_of_word``, and conjugates and powers of a word's matrix must decode
to the same word.
"""

from __future__ import annotations

from lorenzlinks.modular import Mat2Z

L_MATRIX = Mat2Z(1, 1, 0, 1)
R_MATRIX = Mat2Z(1, 0, 1, 1)
IDENTITY = Mat2Z(1, 0, 0, 1)


def product(*matrices: Mat2Z) -> Mat2Z:
    """The matrices multiplied left to right; the identity for none."""
    a, b, c, d = 1, 0, 0, 1
    for m in matrices:
        a, b, c, d = a * m.a + b * m.c, a * m.b + b * m.d, c * m.a + d * m.c, c * m.b + d * m.d
    return Mat2Z(a, b, c, d)


def inverse(m: Mat2Z) -> Mat2Z:
    return Mat2Z(m.d, -m.b, -m.c, m.a)


def conjugate(p: Mat2Z, m: Mat2Z) -> Mat2Z:
    """p m p^-1."""
    return product(p, m, inverse(p))
