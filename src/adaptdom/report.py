"""Run reports: the second bit-exact on-disk contract.

A report carries the full trace, the final component graph, and run
metrics, all line-oriented and canonically ordered, plus a checksum over
the body so any corrupted line is detectable. `verify_report` re-checks
the recorded invariants: time/sequence ordering, event-id monotonicity,
quiescence (no application hop through a blocked component), overlap of
transaction block intervals only when block sets were disjoint, and
final-graph consistency. It reads the report in one pass: the one
section reader walks its lines, hands the trace section to a scan that
checks each line as it arrives, and the graph section to the graph
decoder, so it is linear in report length. A valid trace is in (time,
sequence) order, so the text order of its lines is the order in which
intervals open and close; a misordered trace gets its ordering problems
and no quiescence or overlap check.

A run's report holds its trace as the `TraceLog`'s blocks of text, so
no line of it is a `str` of its own. `render` hashes the body a slice at
a time and joins it once, so the rendered text is the report's one full
copy; `trace_lines` splits the blocks again as it is read.

What replay keeps does not grow with the hops. It splits lines from, and
hashes, one slice of about 64k characters at a time. The trace scan
holds the open block intervals, indexed by transaction id and by
component, and the problems found so far; a hop costs one lookup of its
component, and a closed interval is dropped unless a problem names it.
`confgraph.structural_violations` checks the final graph from the
decoder's set of component ids and set of connection lines, which are
the report's own strings.

The graph section holds `confgraph.encode_graph` lines and is read back
with `confgraph.decode_graph`, so replay reports a line outside that
grammar (a bad shape, a name that is not a token, an unknown state or a
repeated component id or connection) as a graph problem naming the
section's line.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from .confgraph import decode_graph, structural_violations
from .errors import ParseError, UnknownVersion
from .trace import LINE, decode_set, format_scalar, parse_error, read_field

REPORT_HEADER = "adaptdom-report 1"
_MARKERS = ("begin-", "end-", "checksum sha256=")


@dataclass
class RunReport:
    r"""A run's report. `trace_blocks` holds the trace as text: blocks of
    one or more lines joined by `\n`, as `TraceLog.blocks` gives them. A
    plain list of lines is a list of one-line blocks."""

    scenario: str
    seed: int
    until: int
    trace_blocks: list[str]
    graph_lines: list[str]
    metrics: dict[str, float | int] = field(default_factory=dict)

    @property
    def trace_lines(self) -> "TraceLines":
        return TraceLines(self.trace_blocks)

    def render(self) -> str:
        parts = [
            REPORT_HEADER,
            f"scenario {self.scenario} seed={self.seed} until={self.until}",
            "begin-trace",
            *self.trace_blocks,
            "end-trace",
            "begin-graph",
            *self.graph_lines,
            "end-graph",
            "begin-metrics",
            *(f"metric {k} = {format_scalar(self.metrics[k])}" for k in sorted(self.metrics)),
            "end-metrics",
        ]
        # The body is `"\n".join(parts) + "\n"`: it is hashed a slice of
        # parts at a time, and the one join below is the only copy of it.
        digest = hashlib.sha256()
        start = size = 0
        for end, part in enumerate(parts, 1):
            size += len(part)
            if size >= _CHUNK or end == len(parts):
                digest.update("\n".join(parts[start:end]).encode("utf-8"))
                digest.update(b"\n")
                start, size = end, 0
        parts += (f"checksum sha256={digest.hexdigest()}", "")
        return "\n".join(parts)

    @classmethod
    def parse(cls, text: str) -> "RunReport":
        scenario, seed, until, sections = _read_sections(text, {})
        return cls(scenario, seed, until, sections["trace"], sections["graph"],
                   sections["metrics"])


class TraceLines:
    """The lines of a report's trace blocks, split one block at a time as
    they are iterated. It can be counted."""

    __slots__ = ("_blocks",)

    def __init__(self, blocks: list[str]):
        self._blocks = blocks

    def __iter__(self) -> Iterator[str]:
        for block in self._blocks:
            yield from block.split("\n")

    def __len__(self) -> int:
        return len(self._blocks) + sum(block.count("\n") for block in self._blocks)


# Characters per slice of a report's text: the lines and bytes replay
# holds at once.
_CHUNK = 1 << 16


def _lines(text: str, chunk: int = _CHUNK) -> Iterator[str]:
    r"""The lines of `text.splitlines()`, split from one slice of at least
    `chunk` characters at a time. Each slice ends right after a `\n` or at
    the end of the text, so no `\r\n` is cut and the line boundaries are
    those of the whole text."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + chunk - 1) + 1 or size
        yield from text[start:end].splitlines()
        start = end


# A section reader takes the report's numbered lines, positioned after a
# section's begin marker, and that marker's line number. It consumes the
# section's lines and the marker line that ends them, and returns its value
# for the section, then that marker's line number and text; at the end of
# the text, the last line's number and None.
_Numbered = Iterator[tuple[int, str]]
_Reader = Callable[[_Numbered, int], tuple[Any, int, Optional[str]]]


def _collect(numbered: _Numbered, lineno: int) -> tuple[list[str], int, Optional[str]]:
    """The section reader that keeps the section's lines."""
    lines: list[str] = []
    for lineno, line in numbered:
        if line.startswith(_MARKERS):
            return lines, lineno, line
        lines.append(line)
    return lines, lineno, None


def _skip(numbered: _Numbered, lineno: int) -> tuple[int, Optional[str]]:
    """The rest of a section, read and dropped: the marker that ends it."""
    for lineno, line in numbered:
        if line.startswith(_MARKERS):
            return lineno, line
    return lineno, None


def _read_sections(text: str, readers: dict[str, _Reader]):
    """The one section reader: `(scenario, seed, until, sections)`, where
    `sections` maps a section's name to the value its reader returned
    (`_collect` for a name `readers` lacks) and the metrics section to its
    metrics. The last section of a name wins. Raises `ParseError` naming
    the first structural fault, in text order, then a missing checksum or
    section, then a bad metric line."""
    numbered = enumerate(_lines(text), 1)
    head = next(numbered, (1, ""))[1]
    if head != REPORT_HEADER:
        if head.startswith("adaptdom-report"):
            raise UnknownVersion(f"unsupported report version: {head!r}")
        raise ParseError("missing report header", line=1)
    lineno, line = next(numbered, (1, ""))
    if not line.startswith("scenario "):
        raise ParseError("missing scenario line", line=2)
    parts = line.split()
    scenario = parts[1] if len(parts) > 1 else ""
    attrs = {}
    for part in parts[2:]:
        k, _, v = part.partition("=")
        attrs[k] = v
    try:
        seed = int(attrs.get("seed", "0"))
        until = int(attrs.get("until", "0"))
    except ValueError:
        raise ParseError("bad scenario attributes", line=2)
    sections: dict[str, Any] = {}
    current = None
    checksum = None
    # Section readers consume every line inside a section, so each line
    # seen here is a marker or lies outside any section.
    lineno, line = next(numbered, (lineno, None))
    while line is not None:
        if line.startswith("begin-"):
            if current is not None:
                raise ParseError(f"nested section {line!r}", line=lineno)
            current = line[len("begin-"):]
            sections[current], lineno, line = readers.get(current, _collect)(numbered, lineno)
            continue
        if line.startswith("end-"):
            if current != line[len("end-"):]:
                raise ParseError(f"mismatched section end {line!r}", line=lineno)
            current = None
        elif line.startswith("checksum sha256="):
            if current is not None:
                raise ParseError("checksum inside a section", line=lineno)
            checksum = line[len("checksum sha256="):]
        else:
            raise ParseError(f"unexpected line {line!r}", line=lineno)
        lineno, line = next(numbered, (lineno, None))
    if current is not None:
        raise ParseError(f"unterminated section {current!r}", line=lineno)
    if checksum is None:
        raise ParseError("missing checksum line", line=lineno)
    for name in ("trace", "graph", "metrics"):
        if name not in sections:
            raise ParseError(f"missing section {name!r}", line=lineno)
    metrics: dict[str, float | int] = {}
    for line in sections["metrics"]:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "metric" or parts[2] != "=":
            raise ParseError(f"bad metric line {line!r}")
        raw = parts[3]
        try:
            metrics[parts[1]] = float(raw) if "." in raw or "e" in raw else int(raw)
        except ValueError:
            raise ParseError(f"bad metric value {raw!r}")
    sections["metrics"] = metrics
    return scenario, seed, until, sections


def _checksum_ok(text: str) -> bool:
    marker = "checksum sha256="
    # The marker is ASCII, so its last occurrence in the text is its last
    # occurrence in the encoding; the body before it is hashed one encoded
    # slice at a time.
    idx = text.rfind(marker)
    if idx < 0:
        return False
    digest = hashlib.sha256()
    for start in range(0, idx, _CHUNK):
        digest.update(text[start:min(start + _CHUNK, idx)].encode("utf-8"))
    return digest.hexdigest() == text[idx + len(marker):].strip()


def verify_report(text: str) -> list[str]:
    """Re-check every recorded invariant; returns human-readable problems."""
    problems: list[str] = []
    if not _checksum_ok(text):
        problems.append("checksum mismatch or missing")
    try:
        sections = _read_sections(text, {"trace": _scan_trace, "graph": _check_graph})[3]
    except (ParseError, UnknownVersion) as exc:
        problems.append(f"parse: {exc}")
        return problems
    trace, graph = sections["trace"], sections["graph"]
    if isinstance(trace, ParseError):
        problems.append(f"trace: {trace}")
        return problems
    problems.extend(trace)
    if isinstance(graph, ParseError):
        problems.append(f"graph: {graph}")
    else:
        problems.extend(f"final graph: {violation}" for violation in graph)
    return problems


def _scan_trace(numbered: _Numbered, lineno: int):
    """The section reader of a trace: one pass over its lines, up to the
    first marker line, checking each line as it arrives. Its value is the
    `ParseError` of the first bad line, or the problems: ordering, event
    ids, then (on a trace in (time, sequence) order, which defines
    "during") quiescence violations in hop order and overlapping block
    sets. An interval is `[txn, components, index]`; its index (closing
    order, then the still-open ones in dict order) is set when it closes.
    A `txn_block` that repeats an open id voids the earlier interval,
    which never gets an index, and drops the problems that name it."""
    start = lineno
    ordering: list[str] = []
    event_ids: list[str] = []
    open_blocks: dict[str | None, list] = {}
    open_by_comp: dict[str, set[str | None]] = {}  # component -> txn ids
    blocked_hops: list[tuple[int, list, str]] = []  # (line, open interval, component)
    overlaps: list[tuple[list, list]] = []
    closed = 0
    last_t, last_s = -1, -1
    last_event_id = 0
    match = LINE.fullmatch

    def shut(interval: list) -> None:
        for comp in interval[1]:
            txns = open_by_comp[comp]
            txns.discard(interval[0])
            if not txns:
                del open_by_comp[comp]

    for lineno, line in numbered:
        found = match(line)
        if found is None:
            if line.startswith(_MARKERS):
                break
            return (parse_error(line, lineno - start), *_skip(numbered, lineno))
        time, seq, kind, fields = found.groups()
        try:
            time, seq = int(time), int(seq)
        except ValueError:
            return (parse_error(line, lineno - start), *_skip(numbered, lineno))
        if time < last_t:
            ordering.append(f"time regression at seq {seq}")
        if seq <= last_s:
            ordering.append(f"sequence not strictly increasing at seq {seq}")
        last_t, last_s = time, seq

        if kind == "app_hop":
            if open_by_comp:
                # `read_field(fields, "comp")`, inlined: this runs once a hop.
                at = fields.find(" comp=")
                if at >= 0:
                    end = fields.find(" ", at + 6)
                    comp = fields[at + 6:] if end < 0 else fields[at + 6:end]
                    blocked_hops.extend((lineno, open_blocks[txn], comp)
                                        for txn in open_by_comp.get(comp, ()))
        elif kind == "event":
            try:
                eid = int(read_field(fields, "id", "0"))
            except ValueError:
                event_ids.append(f"unparseable event id at seq {seq}")
                continue
            if eid <= last_event_id:
                event_ids.append(f"event id {eid} not strictly increasing")
            last_event_id = eid
        elif kind == "txn_block":
            txn = read_field(fields, "id")
            block = decode_set(read_field(fields, "components", "-"))
            if txn in open_blocks:
                shut(open_blocks[txn])
            interval = [txn, block, None]
            others = set().union(*(open_by_comp.get(comp, ()) for comp in block))
            overlaps.extend((open_blocks[other], interval) for other in others)
            # A repeated id keeps its place in the dict: the order it opened.
            open_blocks[txn] = interval
            for comp in block:
                open_by_comp.setdefault(comp, set()).add(txn)
        elif kind in ("txn_commit", "txn_abort"):
            interval = open_blocks.pop(read_field(fields, "id"), None)
            if interval is not None:
                shut(interval)
                interval[2] = closed
                closed += 1
    else:
        line = None
    if ordering:
        return ordering + event_ids, lineno, line
    for interval in open_blocks.values():
        interval[2] = closed
        closed += 1
    violations = sorted((hop, interval[2], comp, interval[0])
                        for hop, interval, comp in blocked_hops if interval[2] is not None)
    pairs = sorted(sorted(((a[2], a[0]), (b[2], b[0]))) for a, b in overlaps
                   if a[2] is not None and b[2] is not None)
    problems = [*event_ids]
    problems += (f"quiescence violation: hop through {comp} during {txn}"
                 for _, _, comp, txn in violations)
    problems += (f"concurrent transactions {a}/{b} had overlapping block sets"
                 for (_, a), (_, b) in pairs)
    return problems, lineno, line


def _check_graph(numbered: _Numbered, lineno: int):
    """The section reader of the final graph: its structural violations,
    decoded and checked without building a graph."""
    start = lineno
    end: list = [lineno, None]  # the marker that ends the section

    def section() -> Iterator[tuple[int, str]]:
        for lineno, line in numbered:
            end[0] = lineno
            if line.startswith(_MARKERS):
                end[1] = line
                return
            yield lineno - start, line

    try:
        ids, edges = decode_graph(section(), rows=False)
    except ParseError as exc:
        return (exc, *_skip(numbered, end[0]))
    names = (line[len("connection "):] for line in edges)
    return structural_violations(ids, names), end[0], end[1]
