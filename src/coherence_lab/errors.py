"""Error types shared across the library and CLI.

Each error family maps to a fixed process exit code so batch drivers can
triage failures without parsing messages.
"""

from __future__ import annotations

import functools
import json
import sys
import typing
from dataclasses import MISSING, fields
from numbers import Integral, Real
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


def check(record, rules=lambda: ()) -> None:
    """Raise ValidationError for a dataclass record, naming each field whose
    value does not fit its declared type and, when every value is at least
    of the right kind, each broken rule of the (ok, message, *args) tuples
    of rules(). A NaN or an infinity is of the right kind, so rules() still
    runs. The message is a str.format template filled with args only when
    its rule is broken, so a record that holds every rule formats nothing."""
    broken, typed = [], True
    for name, key, fault, _, _ in _field_table(type(record))[0]:
        value = getattr(record, name)
        if why := fault(value):
            broken.append(f"bad value {value!r} for field '{key}': {why}")
            typed = typed and why is _NOT_FINITE
    if typed:
        broken += [rule[1].format(*rule[2:]) for rule in rules() if not rule[0]]
    if broken:
        raise ValidationError("; ".join(broken))


def store_tuples(record, *names: str) -> None:
    """Store each named list field of a frozen record that passed check as a
    tuple, so code may pass a list and the record holds what was checked."""
    for name in names:
        if isinstance(value := getattr(record, name), list):
            object.__setattr__(record, name, tuple(value))


def read_record(cls, entry, where: str, **given):
    """Dataclass cls read from one input-file object: an undeclared key is
    refused, each field not given is read under its key by its reader, an
    absent or null one left to its default, and cls checks itself; its
    ValidationError is prefixed with where."""
    table, declared = _field_table(cls)
    if not isinstance(entry, dict):
        raise ValidationError(f"{where}: expected an object, got {type(entry).__name__}")
    if not entry.keys() <= declared:
        raise ValidationError(f"{where}: unknown fields {sorted(entry.keys() - declared)}")
    for name, key, _, read, required in table:
        if name in given:
            continue
        if (value := entry.get(key)) is not None:
            given[name] = read(value)
        elif required:
            raise ValidationError(f"{where}: missing field '{key}'")
    try:
        return cls(**given)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


_NOT_FINITE = "numbers must be finite"


def _real_fault(value):
    if type(value) is float and value - value == 0.0:  # a finite float, the common case
        return None
    if isinstance(value, bool) or not isinstance(value, Real):
        return "expected a number"
    return None if abs(value) <= sys.float_info.max else _NOT_FINITE  # NaN too


def _pair_fault(value):
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        return "expected a pair of numbers"
    whys = {_real_fault(v) for v in value} - {None}
    return min(whys, key=lambda why: why is _NOT_FINITE, default=None)  # a non-number first


def _as_float(value):  # an int read into a float field becomes a float, the value kept
    return float(value) if type(value) is int and abs(value) <= sys.float_info.max else value


# (fault, read) of each kind of value a file holds: fault(value) says why value
# does not fit, nothing when it does; read is the lossless reading of a file value
_KINDS = {
    int: (lambda v: None if type(v) is int or isinstance(v, Integral) and not isinstance(v, bool)
          else "expected an integer",
          lambda v: int(v) if isinstance(v, float) and v.is_integer() else v),
    float: (_real_fault, _as_float),
    float | None: (lambda v: v is not None and _real_fault(v), _as_float),
    str: (lambda v: None if isinstance(v, str) else "expected a string", lambda v: v),
    dict | str: (lambda v: None if isinstance(v, (dict, str)) else "expected dict | str",
                 lambda v: v),
}


def _rule(hint, key: str):
    """(fault, read) of a field of no file kind. A tuple of records is read
    entry by entry as key[i]; a pair of numbers or a record has no reader
    here, so its field names one in its metadata."""
    args = typing.get_args(hint)
    if args == (float, float):
        return _pair_fault, None
    if not args:
        return (lambda v: None if isinstance(v, hint) else f"expected {hint.__name__}"), None
    item = args[0]  # tuple[item, ...]
    return ((lambda v: None if isinstance(v, (tuple, list)) and all(isinstance(e, item) for e in v)
             else f"expected a list of {item.__name__}"),
            # a value that is not a list is left for the type rule to refuse
            lambda v: tuple(read_record(item, e, f"{key}[{i}]") for i, e in enumerate(v))
            if isinstance(v, list) else v)


@functools.cache  # uncached, get_type_hints makes loading a ring grid ~15x slower
def _field_table(cls):
    """(name, key, fault, read, required) of each field of cls set at
    construction, and the set of keys. A field's key is its name and its
    reader that of its kind, unless its metadata names a "key" or a "read"."""
    hints, table = typing.get_type_hints(cls), []
    for f in fields(cls):
        if f.init:
            key, hint = f.metadata.get("key", f.name), hints[f.name]
            fault, read = _KINDS.get(hint) or _rule(hint, key)
            table.append((f.name, key, fault, f.metadata.get("read", read),
                          f.default is MISSING and f.default_factory is MISSING))
    return tuple(table), frozenset(row[1] for row in table)
