"""Exact-arithmetic toolkit for Lorenz links.

Three equivalent parametrizations (cyclic LR words, Lorenz braids, T-links),
their closed-form invariants, a Temperley-Lieb Kauffman-bracket Jones
evaluator, the modular matrix dictionary with its Rademacher invariant, and an
ODE itinerary reader, plus a census-building CLI (`lorenzlinks`).
"""

from .braid import (
    LorenzBraid,
    braid_generators,
    braid_of_words,
    linking_matrix,
    words_of_braid,
)
from .invariants import compute_record
from .jones import (
    LaurentPoly,
    jones_of_braid,
    jones_of_lorenz_braid,
    jones_torus,
    kauffman_bracket,
)
from .modular import (
    Mat2Z,
    dedekind_sum,
    matrix_of_word,
    rademacher,
    rademacher_phi,
    rademacher_psi,
    rademacher_record,
    word_of_matrix,
)
from .flow import Trajectory, integrate, itinerary
from .tlink import TLinkParams, from_lorenz, t_braid_word, to_lorenz
from .words import aperiodic_count, canonicalize, involute, lyndon_words, validate_link

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "LorenzBraid",
    "Mat2Z",
    "TLinkParams",
    "Trajectory",
    "aperiodic_count",
    "braid_generators",
    "braid_of_words",
    "canonicalize",
    "compute_record",
    "dedekind_sum",
    "from_lorenz",
    "integrate",
    "involute",
    "itinerary",
    "jones_of_braid",
    "jones_of_lorenz_braid",
    "jones_torus",
    "kauffman_bracket",
    "linking_matrix",
    "lyndon_words",
    "matrix_of_word",
    "rademacher",
    "rademacher_phi",
    "rademacher_psi",
    "rademacher_record",
    "t_braid_word",
    "to_lorenz",
    "validate_link",
    "word_of_matrix",
    "words_of_braid",
]
