"""Deterministic run trace.

Every observable occurrence (events, decisions, scenarios, transactions,
agent hops, faults, audit findings, application traffic) is appended as
one entry and rendered as one line. Entries are totally ordered by
(time, sequence) so a trace replays byte-identically for a fixed seed
and scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError

_FIELD_SEP = " "


def format_scalar(value) -> str:
    """Canonical scalar rendering shared by traces and documents."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class TraceEntry:
    time: int
    seq: int
    kind: str
    fields: tuple[tuple[str, str], ...]

    def render(self) -> str:
        parts = [f"t={self.time}", f"s={self.seq}", self.kind]
        parts.extend(f"{k}={v}" for k, v in self.fields)
        return _FIELD_SEP.join(parts)

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    @classmethod
    def parse(cls, line: str, lineno: int = 0) -> "TraceEntry":
        parts = line.split(_FIELD_SEP)
        if len(parts) < 3 or not parts[0].startswith("t=") or not parts[1].startswith("s="):
            raise ParseError(f"malformed trace line: {line!r}", line=lineno)
        try:
            time = int(parts[0][2:])
            seq = int(parts[1][2:])
        except ValueError:
            raise ParseError(f"bad time/seq in trace line: {line!r}", line=lineno)
        kind = parts[2]
        fields = []
        for part in parts[3:]:
            if "=" not in part:
                raise ParseError(f"bad field {part!r} in trace line", line=lineno)
            k, _, v = part.partition("=")
            fields.append((k, v))
        return cls(time, seq, kind, tuple(fields))


class TraceLog:
    """Append-only ordered log with a global sequence counter."""

    def __init__(self):
        self.entries: list[TraceEntry] = []
        self._next_seq = 0

    def record(self, time: int, kind: str, **fields) -> TraceEntry:
        """Append one entry. This is the one place values are encoded:
        spaces separate fields, so a space inside a string becomes `_`."""
        rendered = tuple(
            (key, value.replace(" ", "_") if isinstance(value, str) else format_scalar(value))
            for key, value in fields.items()
        )
        entry = TraceEntry(time, self._next_seq, kind, rendered)
        self._next_seq += 1
        self.entries.append(entry)
        return entry

    def lines(self) -> list[str]:
        return [entry.render() for entry in self.entries]

    def of_kind(self, kind: str) -> list[TraceEntry]:
        return [entry for entry in self.entries if entry.kind == kind]
