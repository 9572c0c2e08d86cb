r"""Deterministic run trace.

Every observable occurrence (events, decisions, scenarios, transactions,
agent hops, faults, audit findings, application traffic) is appended as
one line, encoded once when it is recorded:

    t=<time> s=<seq> <kind> <key>=<value> ...

Lines are totally ordered by (time, sequence) so a trace replays
byte-identically for a fixed seed and scenario. The log is built on the
run's clock and stamps every line with the clock's time: no caller
passes a time, so no line goes back in time. Callers pass a field's
value itself: `encode_value` is the one encoder of values, scalars and
collections alike, and `decode_set` reads a set back. Kinds and keys are
tokens (`paths.TOKEN_RE`), checked once per name: `record` appends a
line of any shape and checks a name the first time it sees it;
`recorder` prepares a shape of any number of fields, such as an
application hop's or an event's, checks its names once for its many
lines and takes the values positionally. The log holds its lines only
as text: every `_BLOCK` finished lines are joined by `\n` into one
`str`, so a run keeps one string per block, not one per line, plus the
few lines not yet joined and a count per kind. `blocks` hands the text
to a report, which renders it as it is; `lines` splits it again on
demand.
`LINE` is the one grammar that reads lines back, `parse_error` the one
error for a line outside it, and `read_field` the reader of their fields.
`TraceEntry` parses one line into an object; replay
(`report.verify_report`) applies the grammar inline.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable

from .errors import ParseError
from .paths import check_token

_FIELD_SEP = " "
# The one trace line grammar: `t=<time> s=<seq> <kind>` and fields
# separated by single spaces, each anchored on its first `=`, so matching
# stays linear in the line length. A line it matches is well formed when
# its time and sequence number are integers.
LINE = re.compile(r"t=([^ ]*) s=([^ ]*) ([^ ]*)((?: [^ =]*=[^ ]*)*)")


def format_scalar(value) -> str:
    """Canonical scalar rendering shared by traces and documents."""
    cls = type(value)  # the exact types first; a subclass keeps its text below
    if cls is str or cls is int:
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def parse_error(line: str, lineno: int) -> ParseError:
    """The error for a line outside the grammar, naming the first fault
    that splitting the line on spaces finds."""
    parts = line.split(_FIELD_SEP)
    if len(parts) < 3 or not parts[0].startswith("t=") or not parts[1].startswith("s="):
        return ParseError(f"malformed trace line: {line!r}", line=lineno)
    try:
        int(parts[0][2:])
        int(parts[1][2:])
    except ValueError:
        return ParseError(f"bad time/seq in trace line: {line!r}", line=lineno)
    for part in parts[3:]:
        if "=" not in part:
            return ParseError(f"bad field {part!r} in trace line", line=lineno)
    return ParseError(f"malformed trace line: {line!r}", line=lineno)


def read_field(field_text: str, key: str, default: str | None = None) -> str | None:
    """The value of the first field named `key` in a line's field text."""
    if "=" in key or _FIELD_SEP in key:
        return default
    needle = f" {key}="
    at = field_text.find(needle)
    if at < 0:
        return default
    start = at + len(needle)
    end = field_text.find(_FIELD_SEP, start)
    return field_text[start:] if end < 0 else field_text[start:end]


@dataclass(slots=True)
class TraceEntry:
    """One parsed trace line. The fields stay as their line text, a space
    before each `key=value`, and are split only when read."""

    time: int
    seq: int
    kind: str
    field_text: str

    @property
    def fields(self) -> tuple[tuple[str, str], ...]:
        return tuple(part.partition("=")[::2] for part in self.field_text.split(_FIELD_SEP)[1:])

    def get(self, key: str, default: str | None = None) -> str | None:
        """The value of the first field named `key`."""
        return read_field(self.field_text, key, default)

    @classmethod
    def parse(cls, line: str, lineno: int = 0) -> "TraceEntry":
        found = LINE.fullmatch(line)
        if found is not None:
            time, seq, kind, field_text = found.groups()
            try:
                return cls(int(time), int(seq), kind, field_text)
            except ValueError:
                pass
        raise parse_error(line, lineno)


# Lines per block of a `TraceLog`'s text.
_BLOCK = 2048

# Spaces and every character `str.splitlines` breaks on, each encoded as `_`.
_BREAKS = str.maketrans(dict.fromkeys(" \n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", "_"))


def _join(items) -> str:
    return "|".join(map(format_scalar, items))


# The text of each collection a field value may be, by its exact type.
_JOINS = {
    tuple: _join, list: _join,
    frozenset: lambda items: _join(sorted(items)), set: lambda items: _join(sorted(items)),
    dict: lambda pairs: ",".join(f"{k}:{format_scalar(v)}" for k, v in sorted(pairs.items())),
}


def encode_value(value) -> str:
    """The one encoder of field values. A tuple's or list's items are
    joined by `|`, a set's sorted items by `|`, and a dict's `key:value`
    pairs, sorted by key, by `,`; each item is rendered by `format_scalar`.
    In that text or a string, spaces and line breaks become `_`, and an
    empty one is `-`. Any other value is `format_scalar(value)`."""
    if isinstance(value, str):  # first: traffic hops record component ids
        if not value:
            return "-"
        # Line breaks are unprintable, and rare.
        return value.replace(" ", "_") if value.isprintable() else value.translate(_BREAKS)
    join = _JOINS.get(type(value))
    return format_scalar(value) if join is None else encode_value(join(value))


def decode_set(text: str) -> frozenset[str]:
    """The items of a set `encode_value` wrote; `-` is the empty set."""
    return frozenset() if text == "-" else frozenset(text.split("|"))


class TraceLog:
    """Append-only ordered log of encoded lines with a global sequence
    counter and a count per kind, held as blocks of text. Each line is
    stamped with `clock.now`, an integer that never decreases."""

    def __init__(self, clock):
        self._clock = clock
        self._blocks: list[str] = []
        self._pending: list[str] = []  # the lines not yet joined into a block
        self._counts: dict[str, int] = {}
        self._seq = itertools.count()  # the next line's sequence number
        self._tokens: set[str] = set()  # the kinds and keys already checked

    def _check(self, *names: str) -> None:
        """Raise BadToken for the first of `names` that is not a token;
        remember the ones before it."""
        for name in names:
            self._tokens.add(check_token(name))

    def record(self, kind: str, **fields) -> None:
        """Append one line, each value encoded by `encode_value`."""
        if kind not in self._tokens or not self._tokens.issuperset(fields):
            self._check(kind, *fields)
        text = ""
        for key, value in fields.items():
            if type(value) is not int:  # an exact int formats as itself
                value = encode_value(value)
            text += f" {key}={value}"
        self._append(kind, text)

    def recorder(self, kind: str, *keys: str) -> Callable[..., None]:
        """A prepared `record` of one line shape: `rec(*values)` appends the
        line `record(kind, **dict(zip(keys, values)))` would. As in `record`,
        an exact int formats as itself."""
        self._check(kind, *keys)
        append = self._append
        # An application hop's shape, once per traffic step, without a loop:
        # the `%` template below costs a hop more lines (tests/test_cost.py) and time.
        if len(keys) == 2:
            head_a, head_b = (f" {key}=" for key in keys)

            def rec(a, b):
                a = a if type(a) is int else encode_value(a)
                b = b if type(b) is int else encode_value(b)
                append(kind, f"{head_a}{a}{head_b}{b}")
            return rec
        template = "".join(f" {key}=%s" for key in keys)

        def rec(*values):
            append(kind, template % tuple(
                [value if type(value) is int else encode_value(value) for value in values]))
        return rec

    def _append(self, kind: str, fields: str) -> None:
        """The one place that stamps, numbers and counts lines and fills blocks."""
        pending = self._pending
        pending.append(f"t={self._clock.now} s={next(self._seq)} {kind}{fields}")
        if len(pending) >= _BLOCK:
            self._join()
        self._counts[kind] = self._counts.get(kind, 0) + 1

    def _join(self) -> None:
        """Join the pending lines into one block."""
        self._blocks.append("\n".join(self._pending))
        self._pending = []

    def blocks(self) -> list[str]:
        r"""The log's text so far: blocks of one or more lines joined by
        `\n`, in order. Their `\n`-join is the lines' `\n`-join."""
        if self._pending:
            self._join()
        return list(self._blocks)

    def lines(self) -> list[str]:
        return [line for block in self.blocks() for line in block.split("\n")]

    def count(self, kind: str) -> int:
        return self._counts.get(kind, 0)
