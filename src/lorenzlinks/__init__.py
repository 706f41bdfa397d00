"""Exact-arithmetic toolkit for Lorenz links.

Three equivalent parametrizations (cyclic LR words, Lorenz braids, T-links),
their closed-form invariants, a Temperley-Lieb Kauffman-bracket Jones
evaluator, the modular matrix dictionary with its Rademacher invariant, and an
ODE itinerary reader, plus a census-building CLI (`lorenzlinks`).
"""

from .braid import (
    Crossing,
    LorenzBraid,
    braid_generators,
    braid_of_words,
    linking_matrix,
    position_sequences,
    words_of_braid,
)
from .invariants import (
    braid_index,
    compute_record,
    euler_characteristic,
    genus,
    is_torus,
    min_crossings,
)
from .jones import (
    LaurentPoly,
    jones_of_braid,
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
    word_of_matrix,
)
from .flow import FlowParams, Trajectory, equilibria, integrate, itinerary, vector_field
from .tlink import TLinkParams, from_lorenz, t_braid_word, to_lorenz
from .words import (
    CyclicWord,
    LinkWords,
    aperiodic_count,
    canonicalize,
    enumerate_words,
    involute,
    validate_link,
)

__version__ = "0.1.0"

__all__ = [
    "Crossing",
    "CyclicWord",
    "FlowParams",
    "LaurentPoly",
    "LinkWords",
    "LorenzBraid",
    "Mat2Z",
    "TLinkParams",
    "Trajectory",
    "aperiodic_count",
    "braid_generators",
    "braid_index",
    "braid_of_words",
    "canonicalize",
    "compute_record",
    "dedekind_sum",
    "enumerate_words",
    "equilibria",
    "euler_characteristic",
    "from_lorenz",
    "genus",
    "integrate",
    "involute",
    "is_torus",
    "itinerary",
    "jones_of_braid",
    "jones_torus",
    "kauffman_bracket",
    "linking_matrix",
    "matrix_of_word",
    "min_crossings",
    "position_sequences",
    "rademacher",
    "rademacher_phi",
    "rademacher_psi",
    "t_braid_word",
    "to_lorenz",
    "validate_link",
    "vector_field",
    "word_of_matrix",
    "words_of_braid",
]
