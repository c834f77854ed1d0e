"""Error types shared across the library and CLI.

Each error family maps to a fixed process exit code so batch drivers can
triage failures without parsing messages.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
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
    # an int first: the Integral check below is the slow part of a file load
    if type(value) is int or isinstance(value, float) and value.is_integer():
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


def check(rules: list[tuple[bool, str]]) -> None:
    """Raise ValidationError naming every broken rule of (ok, rule) pairs."""
    broken = [rule for ok, rule in rules if not ok]
    if broken:
        raise ValidationError("; ".join(broken))


def check_keys(entry, known, where: str) -> None:
    """Refuse an entry that is not an object or holds a key outside known."""
    if not isinstance(entry, dict):
        raise ValidationError(f"{where}: expected an object, got {type(entry).__name__}")
    if not entry.keys() <= known:
        raise ValidationError(f"{where}: unknown fields {sorted(entry.keys() - known)}")


def read_record(cls, entry, where: str, **given):
    """Dataclass cls read from one input-file object: an undeclared key is
    refused, each field not given is read under its key by its declared
    type and default, and cls's own ValidationError is prefixed with where."""
    table, declared = _field_table(cls)
    check_keys(entry, declared, where)
    for name, key, cast, default in table:
        if name not in given:
            if cast is None:
                raise TypeError(f"{cls.__name__}.{name} has no cast and must be given")
            given[name] = read_field(entry, key, cast, where, default)
    try:
        return cls(**given)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


@functools.cache  # uncached, get_type_hints makes loading a ring grid ~15x slower
def _field_table(cls):
    """(name, key, cast, default) of each field of cls set at construction,
    and the set of keys. A field's key is its name unless its metadata
    names one; a field whose type has no cast must be given."""
    hints = typing.get_type_hints(cls)
    casts = {int: as_int, float: float, float | None: float, str: str}
    table = tuple((f.name, f.metadata.get("key", f.name), casts.get(hints[f.name]),
                   _REQUIRED if f.default is dataclasses.MISSING else f.default)
                  for f in dataclasses.fields(cls) if f.init)
    return table, frozenset(key for _, key, _, _ in table)
