"""Deterministic run trace.

Every observable occurrence (events, decisions, scenarios, transactions,
agent hops, faults, audit findings, application traffic) is appended as
one line, encoded once when it is recorded:

    t=<time> s=<seq> <kind> <key>=<value> ...

Lines are totally ordered by (time, sequence) so a trace replays
byte-identically for a fixed seed and scenario. The log keeps only the
encoded lines and a count per kind. `LINE` is the one grammar that reads
lines back, `parse_error` the one error for a line outside it, and
`read_field` the reader of their fields. `TraceEntry` parses one line into
an object; replay (`report.verify_report`) applies the grammar inline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError

_FIELD_SEP = " "
# The one trace line grammar: `t=<time> s=<seq> <kind>` and fields
# separated by single spaces, each anchored on its first `=`, so matching
# stays linear in the line length. A line it matches is well formed when
# its time and sequence number are integers.
LINE = re.compile(r"t=([^ ]*) s=([^ ]*) ([^ ]*)((?: [^ =]*=[^ ]*)*)")


def format_scalar(value) -> str:
    """Canonical scalar rendering shared by traces and documents."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
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


class TraceLog:
    """Append-only ordered log of encoded lines with a global sequence
    counter and a count per kind."""

    def __init__(self):
        self._lines: list[str] = []
        self._counts: dict[str, int] = {}
        self._next_seq = 0

    def record(self, time: int, kind: str, **fields) -> None:
        """Append one line. This is the one place values are encoded:
        spaces separate fields, so a space inside a string becomes `_`."""
        line = f"t={time} s={self._next_seq} {kind}"
        for key, value in fields.items():
            if type(value) is not int:  # an exact int formats as itself
                value = value.replace(" ", "_") if isinstance(value, str) else format_scalar(value)
            line += f" {key}={value}"
        self._next_seq += 1
        self._lines.append(line)
        self._counts[kind] = self._counts.get(kind, 0) + 1

    def lines(self) -> list[str]:
        return list(self._lines)

    def count(self, kind: str) -> int:
        return self._counts.get(kind, 0)
