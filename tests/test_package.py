"""The package's public surface."""

import lorenzlinks
from lorenzlinks import errors


def test_every_export_resolves():
    missing = [name for name in lorenzlinks.__all__ if not hasattr(lorenzlinks, name)]
    assert missing == []
    assert len(set(lorenzlinks.__all__)) == len(lorenzlinks.__all__)


def test_public_names_are_pinned():
    # adding or removing a public name is a visible diff here
    assert sorted(lorenzlinks.__all__) == [
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
        "equilibria",
        "from_lorenz",
        "integrate",
        "involute",
        "itinerary",
        "jones_of_braid",
        "jones_torus",
        "kauffman_bracket",
        "linking_matrix",
        "lyndon_words",
        "matrix_of_word",
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


def test_error_classes_are_pinned():
    # one class per exit code: adding or removing one is a visible diff here
    defined = {
        name: value.__bases__
        for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    }
    assert defined == {
        "LorenzError": (Exception,),
        "ValidationError": (errors.LorenzError, ValueError),
        "ResourceCapError": (errors.LorenzError,),
        "InternalInconsistencyError": (errors.LorenzError,),
    }
