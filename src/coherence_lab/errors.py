"""Error types shared across the library and CLI.

Each error family maps to a fixed process exit code so batch drivers can
triage failures without parsing messages.
"""

from __future__ import annotations


class CoherenceLabError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class ValidationError(CoherenceLabError):
    """Malformed or inconsistent input data."""

    exit_code = 1


class ConvergenceError(CoherenceLabError):
    """Iterative solver failed to converge.

    Carries the residual history so callers can report the trajectory.
    """

    exit_code = 2

    def __init__(self, message: str, residual_history: list[float] | None = None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class PipelineError(CoherenceLabError):
    """A pipeline stage precondition or internal consistency check failed."""

    exit_code = 3


class InputOutputError(CoherenceLabError):
    """Filesystem or serialization failure."""

    exit_code = 4


_REQUIRED = object()


def read_field(entry, key: str, cast, where: str, default=_REQUIRED):
    """cast(entry[key]) of one input-file object, or default when the field is
    absent or null; anything malformed raises ValidationError naming both."""
    if not isinstance(entry, dict):
        raise ValidationError(f"{where}: expected an object, got {type(entry).__name__}")
    if entry.get(key) is None:
        if default is _REQUIRED:
            raise ValidationError(f"{where}: missing field '{key}'")
        return default
    try:
        return cast(entry[key])
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: bad value {entry[key]!r} for field '{key}'") from None
