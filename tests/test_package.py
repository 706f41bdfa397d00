"""The package's public surface, and what the test oracles may take from it."""

import ast
import importlib
import signal
import types
from pathlib import Path

import pytest

import lorenzlinks
from lorenzlinks import LaurentPoly, Mat2Z, errors

PACKAGE_DIR = Path(lorenzlinks.__file__).parent
TESTS_DIR = Path(__file__).parent


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


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_reach_ins(path):
    """``module.name`` for each ``_``-prefixed name of a sibling module that
    the module at ``path`` imports or reads as an attribute of that module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = {module.stem for module in PACKAGE_DIR.glob("*.py")} - {path.stem}
    aliases = {}  # local name -> sibling module it binds
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:  # an absolute import counts only inside the package
                if module != "lorenzlinks" and not module.startswith("lorenzlinks."):
                    continue
                module = module.removeprefix("lorenzlinks").removeprefix(".")
            for alias in node.names:
                if module in siblings and _is_private(alias.name):
                    found.append(f"{module}.{alias.name}")
                elif not module and alias.name in siblings:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                short = alias.name.removeprefix("lorenzlinks.")
                if short in siblings and alias.asname:
                    aliases[alias.asname] = short
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _is_private(node.attr)
        ):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    # each module's private names are its own; another module goes through
    # the public entry point
    reach_ins = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (names := _private_reach_ins(path))
    }
    assert reach_ins == {}


def _package_bindings(path):
    """Each name the oracle module at ``path`` binds from the package, by an
    import anywhere in its source or as a module global, with its object."""
    bound = {}
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "lorenzlinks":
                    bound[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "lorenzlinks":
            module = importlib.import_module(node.module)
            for alias in node.names:
                star = alias.name == "*"
                bound[alias.asname or alias.name] = module if star else getattr(module, alias.name)
    for name, value in vars(importlib.import_module(path.stem)).items():
        owner = value.__name__ if isinstance(value, types.ModuleType) else getattr(value, "__module__", "")
        if isinstance(owner, str) and owner.partition(".")[0] == "lorenzlinks":
            bound.setdefault(name, value)
    return bound


def _oracle_may_use(value):
    if isinstance(value, type):
        return issubclass(value, Exception) or value in (LaurentPoly, Mat2Z)
    return not callable(value) and not isinstance(value, types.ModuleType)


def test_oracles_bind_no_code_they_check():
    # an oracle is an independent method: from the package it takes only
    # exception classes, constants and the value types LaurentPoly and Mat2Z,
    # never a function, a module or LorenzBraid
    paths = sorted(TESTS_DIR.glob("*_oracle.py"))
    assert [path.stem for path in paths] == [
        "bracket_oracle",
        "bwt_oracle",
        "dedekind_oracle",
        "destabilize_oracle",
        "lobe_oracle",
        "matrix_oracle",
        "rotation_oracle",
    ]
    found = [
        f"{path.stem}.{name}"
        for path in paths
        for name, value in _package_bindings(path).items()
        if not _oracle_may_use(value)
    ]
    assert found == []


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM, so no time limit")
def test_every_test_runs_under_the_time_limit():
    # conftest.py arms the timer around each test; firing fails the test
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= 120
    with pytest.raises(pytest.fail.Exception, match="ran over 120 s$"):
        signal.getsignal(signal.SIGALRM)(signal.SIGALRM, None)
