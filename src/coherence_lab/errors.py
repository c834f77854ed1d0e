"""Error types shared across the library and CLI.

Each error family maps to a fixed process exit code so batch drivers can
triage failures without parsing messages.
"""

from __future__ import annotations

import json
import math
from numbers import Integral
from pathlib import Path


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
    absent or null; anything malformed, a NaN or an infinity among them,
    raises ValidationError naming both."""
    if not isinstance(entry, dict):
        raise ValidationError(f"{where}: expected an object, got {type(entry).__name__}")
    if entry.get(key) is None:
        if default is _REQUIRED:
            raise ValidationError(f"{where}: missing field '{key}'")
        return default
    try:
        value = cast(entry[key])
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        raise ValidationError(f"{where}: bad value {entry[key]!r} for field '{key}'") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(
            f"{where}: bad value {entry[key]!r} for field '{key}': numbers must be finite")
    return value


def read_json(path: str | Path, what: str) -> dict:
    """The top-level object of a JSON file. A file that cannot be read
    raises InputOutputError; one that is not JSON, or whose top level is
    not an object, raises ValidationError."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputOutputError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} {path}: expected an object, got {type(raw).__name__}")
    return raw


def as_int(value) -> int:
    """The cast for read_field of an integer field: an integer, or a float
    with no fractional part; a bool, a string or 2.9 is refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def as_list(value) -> list:
    """The cast for read_field of a list field: the value itself when it is
    a JSON array."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value
