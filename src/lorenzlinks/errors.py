"""Exception hierarchy shared across the toolkit.

One class per exit code; the message names what went wrong.  Rejected input
raises ValidationError (exit 2), an exceeded resource cap ResourceCapError
(exit 3), and a failed structural check, which should never fire on valid
data, InternalInconsistencyError (exit 1, like any other crash).
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
