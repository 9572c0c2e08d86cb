"""Declared document keys, and the one function that reads values by them.

Each reader of a document's keys declares them next to itself: a `Key`
has a name, a `Type` and a default, and a key without one is required.
`read_keys` checks values against a declaration and converts them once,
where the reader is built, into every declared key with defaults filled in.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from typing import Any, Callable, NamedTuple

from .errors import ScenarioParseError
from .paths import TOKEN_RE


class Type(NamedTuple):
    wants: str  # what a value it refuses is not
    read: Callable[[Any], Any] = lambda value: value  # what the reader takes; may raise ValueError
    ok: Callable[[Any], bool] = lambda value: True


class Key(NamedTuple):
    name: str
    type: Type
    default: Any = MISSING  # MISSING: the key is required


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


INTEGER = Type("an integer", ok=lambda value: isinstance(value, int))
NUMBER = Type("a finite number", float, _finite)
WHOLE = Type("a finite number", int, _finite)  # read truncated to an integer
TOKEN = Type("a token", str, lambda value: TOKEN_RE.fullmatch(str(value)) is not None)
TEXT = Type("text", str)
NAMES = Type("comma-separated text", lambda value: frozenset(str(value).split(",")))
FLAG = Type("0 or 1", bool, lambda value: isinstance(value, int) and value in (0, 1))


def keys_of(cls) -> tuple[Key, ...]:
    """The keys that the `int` and `float` fields of dataclass `cls` declare."""
    types = {"int": INTEGER, "float": NUMBER}
    return tuple(Key(f.name, types[f.type], f.default) for f in fields(cls))


def read_keys(declared, values, unknown: str, prefix: str = "") -> dict:
    """Every key of `declared`, as its type reads it from `values`, else its
    default. Raises `ScenarioParseError` naming the key, after `prefix`:
    for one not declared (saying `unknown`), a required one not set, or a
    value its type refuses."""
    by_name = {key.name: key for key in declared}
    for name in values:
        if name not in by_name:
            raise ScenarioParseError(f"key {prefix}{name}: {unknown}")
    out = {}
    for name, (_, kind, default) in by_name.items():
        if name not in values:
            if default is MISSING:
                raise ScenarioParseError(f"key {prefix}{name}: required, and not set")
            out[name] = default
            continue
        value = values[name]
        try:
            if kind.ok(value):
                out[name] = kind.read(value)
                continue
        except (ValueError, OverflowError):
            pass
        raise ScenarioParseError(f"key {prefix}{name}: {value!r} is not {kind.wants}")
    return out
