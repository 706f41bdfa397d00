"""Exception hierarchy shared across the toolkit.

Errors are grouped by the command-line exit code they map to: rejected input
exits 2, exceeded resource caps exit 3, and internal-consistency failures
(which should never fire on valid data) exit 1 like any other crash.  A
failed structural check raises InternalInconsistencyError itself, with a
message naming the check; a subclass exists only where a caller catches it
or a test names it.
"""

from __future__ import annotations


class LorenzError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(LorenzError, ValueError):
    """Rejected input (CLI exit code 2)."""


class ResourceCapError(LorenzError):
    """A configured resource limit was exceeded (CLI exit code 3)."""


class InternalInconsistencyError(LorenzError):
    """A structural invariant failed; indicates a bug, not bad input."""


# words
class EmptyWordError(ValidationError):
    """A cyclic word must contain at least one letter."""


class PeriodicWordError(ValidationError):
    """The word is a proper power of a shorter word and names no new orbit."""


class DuplicateComponentError(ValidationError):
    """Two link components share the same cyclic word."""


# tlink
class InvalidParamsError(ValidationError):
    """Torus-block parameters violate ordering or positivity."""


# jones
class TooManyCrossingsError(ResourceCapError):
    """The braid word has more crossings than the configured limit."""


class NotCoprimeError(ValidationError):
    """The closed form applies to coprime parameters only."""


class DivisionRemainderError(InternalInconsistencyError):
    """Polynomial division left a remainder where exactness was required."""


# modular
class ParabolicError(ValidationError):
    """Words using a single letter map to parabolic matrix classes."""


class NotHyperbolicError(ValidationError):
    """|trace| <= 2: elliptic and parabolic classes carry no closed geodesic."""


class NotPrimitiveError(ValidationError):
    """The matrix is a proper power; no aperiodic word matches its class."""


# flow
class NonFiniteError(LorenzError):
    """Integration diverged (bad parameters or step size)."""


class NoEventsError(ValidationError):
    """The trajectory contains no section events after the transient."""


class AmbiguousSymbolError(LorenzError):
    """|x| fell inside the dead band at a section event."""


# cli / atlas
class CapExceededError(ResourceCapError):
    """The requested census size exceeds the configured cap."""


class BadFilterError(ValidationError):
    """An atlas query filter could not be parsed or names no field."""
