"""Run reports: the second bit-exact on-disk contract.

A report carries the full trace, the final component graph, and run
metrics, all line-oriented and canonically ordered, plus a checksum over
the body so any corrupted line is detectable. `verify_report` re-checks
the recorded invariants: time/sequence ordering, event-id monotonicity,
quiescence (no application hop through a blocked component), overlap of
transaction block intervals only when block sets were disjoint, and
final-graph consistency. It reads the trace in one pass that keeps no
list of entries, then checks quiescence and overlap in one sweep over
(time, sequence), so it is linear in report length.

What replay keeps is sized to the report, not to objects per line. The
checksum hashes one encoded copy of the text in place. The trace pass
keeps nothing per line but the line's text from the section split; per
`app_hop` it keeps three machine words (time, sequence and an index into
a table of component names) and per `txn_block` one interval. Only hops
through a component in some block set enter the sweep, and the trace
lines and hop columns are released before the final graph is built. On
a traffic-heavy report the peak is about three times the report's size.

The graph section holds `confgraph.encode_graph` lines and is read back
with `confgraph.decode_graph`, so replay reports a line outside that
grammar (a bad shape, a name that is not a token, an unknown state or a
repeated component id or connection) as a graph problem naming the
section's line.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field

from .confgraph import Component, ComponentState, ConfigGraph, Connection, decode_graph
from .errors import ParseError, UnknownVersion
from .trace import format_scalar, parse_lines, read_field

REPORT_HEADER = "adaptdom-report 1"
_MARKERS = ("begin-", "end-", "checksum sha256=")


@dataclass
class RunReport:
    scenario: str
    seed: int
    until: int
    trace_lines: list[str]
    graph_lines: list[str]
    metrics: dict[str, float | int] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            REPORT_HEADER,
            f"scenario {self.scenario} seed={self.seed} until={self.until}",
            "begin-trace",
            *self.trace_lines,
            "end-trace",
            "begin-graph",
            *self.graph_lines,
            "end-graph",
            "begin-metrics",
            *(f"metric {k} = {format_scalar(self.metrics[k])}" for k in sorted(self.metrics)),
            "end-metrics",
        ]
        body = "\n".join(lines) + "\n"
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return body + f"checksum sha256={digest}\n"

    @classmethod
    def parse(cls, text: str) -> "RunReport":
        lines = text.splitlines()
        if not lines or lines[0] != REPORT_HEADER:
            head = lines[0] if lines else ""
            if head.startswith("adaptdom-report"):
                raise UnknownVersion(f"unsupported report version: {head!r}")
            raise ParseError("missing report header", line=1)
        if len(lines) < 2 or not lines[1].startswith("scenario "):
            raise ParseError("missing scenario line", line=2)
        parts = lines[1].split()
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
        sections: dict[str, list[str]] = {}
        current = None
        checksum = None
        # Each marker line, then the lines up to the next one as one slice.
        markers = [at for at, line in enumerate(lines) if line.startswith(_MARKERS)]
        if len(lines) > 2 and markers[:1] != [2]:
            raise ParseError(f"unexpected line {lines[2]!r}", line=3)
        for at, stop in zip(markers, markers[1:] + [len(lines)]):
            line, lineno = lines[at], at + 1
            if line.startswith("begin-"):
                if current is not None:
                    raise ParseError(f"nested section {line!r}", line=lineno)
                current = line[len("begin-"):]
                sections[current] = []
            elif line.startswith("end-"):
                if current != line[len("end-"):]:
                    raise ParseError(f"mismatched section end {line!r}", line=lineno)
                current = None
            else:
                if current is not None:
                    raise ParseError("checksum inside a section", line=lineno)
                checksum = line[len("checksum sha256="):]
            if stop > lineno:
                if current is None:
                    raise ParseError(f"unexpected line {lines[lineno]!r}", line=lineno + 1)
                sections[current].extend(lines[lineno:stop])
        if current is not None:
            raise ParseError(f"unterminated section {current!r}", line=len(lines))
        if checksum is None:
            raise ParseError("missing checksum line", line=len(lines))
        for name in ("trace", "graph", "metrics"):
            if name not in sections:
                raise ParseError(f"missing section {name!r}", line=len(lines))
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
        return cls(scenario, seed, until, sections["trace"], sections["graph"], metrics)


def _checksum_ok(text: str) -> bool:
    marker = b"checksum sha256="
    data = text.encode("utf-8")
    # The marker is ASCII, so its last occurrence in the encoding is its
    # last occurrence in the text; the body before it is hashed uncopied.
    idx = data.rfind(marker)
    if idx < 0:
        return False
    expected = data[idx + len(marker):].decode("utf-8").strip()
    return hashlib.sha256(memoryview(data)[:idx]).hexdigest() == expected


def verify_report(text: str) -> list[str]:
    """Re-check every recorded invariant; returns human-readable problems."""
    problems: list[str] = []
    if not _checksum_ok(text):
        problems.append("checksum mismatch or missing")
    try:
        report = RunReport.parse(text)
    except (ParseError, UnknownVersion) as exc:
        problems.append(f"parse: {exc}")
        return problems
    try:
        try:
            found, hops, intervals = _scan_trace(report.trace_lines, lambda: array("q"))
        except OverflowError:
            # A time or sequence number beyond 64 bits: hold the hop
            # columns as lists of ints instead.
            found, hops, intervals = _scan_trace(report.trace_lines, list)
    except ParseError as exc:
        problems.append(f"trace: {exc}")
        return problems
    graph_lines = report.graph_lines
    del report  # frees the trace lines
    problems.extend(found)
    problems.extend(_block_problems(hops, intervals))
    del hops
    try:
        final = _final_graph(graph_lines)
    except ParseError as exc:
        problems.append(f"graph: {exc}")
    else:
        for violation in final.structural_violations():
            problems.append(f"final graph: {violation}")
    return problems


def _scan_trace(lines: list[str], column):
    """One pass over the trace lines. Returns the ordering problems, then
    the event-id ones; the hops, as `(times, seqs, comps, names)` where the
    first three are `column()` columns and a hop's `comps` entry indexes
    `names`; and the block intervals (txn, begin, end, components)."""
    ordering: list[str] = []
    event_ids: list[str] = []
    times, seqs, comps = column(), column(), column()
    comp_index: dict[str, int] = {}
    intervals: list[tuple[str | None, tuple[int, int], tuple[int, int], frozenset[str]]] = []
    # Open block intervals by transaction id.
    open_blocks: dict[str | None, tuple[tuple[int, int], frozenset[str]]] = {}
    last_t, last_s = -1, -1
    last_event_id = 0
    for time, seq, kind, fields in parse_lines(lines):
        if time < last_t:
            ordering.append(f"time regression at seq {seq}")
        if seq <= last_s:
            ordering.append(f"sequence not strictly increasing at seq {seq}")
        last_t, last_s = time, seq

        if kind == "app_hop":
            comp = read_field(fields, "comp")
            if comp is not None:
                times.append(time)
                seqs.append(seq)
                comps.append(comp_index.setdefault(comp, len(comp_index)))
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
            block = read_field(fields, "components", "-")
            block = frozenset() if block == "-" else frozenset(block.split("|"))
            open_blocks[read_field(fields, "id")] = ((time, seq), block)
        elif kind in ("txn_commit", "txn_abort"):
            txn = read_field(fields, "id")
            if txn in open_blocks:
                begin, block = open_blocks.pop(txn)
                intervals.append((txn, begin, (time, seq), block))
    for txn, (begin, block) in open_blocks.items():
        intervals.append((txn, begin, (last_t + 1, last_s + 1), block))
    return ordering + event_ids, (times, seqs, comps, list(comp_index)), intervals


def _final_graph(lines: list[str]) -> ConfigGraph:
    """The graph the section's lines describe. The decoded rows are freed
    on return, before the structural check builds the graph's indexes."""
    components, connections = decode_graph(enumerate(lines, 1))
    return ConfigGraph(
        {cid: Component(kind, host, ComponentState(state))
         for cid, kind, host, state in components},
        {Connection(*row) for row in connections},
    )


# Sweep phases at one stamp. Ends go first and begins last, so an interval
# holds only the stamps strictly between its begin and its end.
_END, _HOP, _PROBE, _BEGIN = range(4)


def _block_problems(hops: tuple, intervals: list[tuple]) -> list[str]:
    """Quiescence violations (a hop through a component while a transaction
    blocked it) and overlapping block sets of concurrent transactions, from
    one sweep over (time, seq) with an index of the open intervals by
    component. Only the hops through a component in some block set enter
    the sweep. Problems come in hop order, then interval order."""
    times, seqs, comps, names = hops
    blocked = frozenset().union(*(block for _, _, _, block in intervals))
    wanted = {index for index, name in enumerate(names) if name in blocked}
    sweep = [
        ((times[hop], seqs[hop]), _HOP, hop)
        for hop, comp in enumerate(comps)
        if comp in wanted
    ]
    for index, (_, begin, end, block) in enumerate(intervals):
        if not block:
            continue
        if begin < end:
            sweep.append((begin, _BEGIN, index))
            sweep.append((end, _END, index))
        else:
            # Only a misordered trace ends a block before it begins. Such an
            # interval holds no stamp, and it overlaps exactly the open
            # intervals that span it, from its end to its begin.
            sweep.append((end, _PROBE, index))
    sweep.sort()

    open_by_comp: dict[str, set[int]] = {}
    violations: list[tuple[int, int]] = []
    overlaps: set[tuple[int, int]] = set()
    for _, phase, index in sweep:
        if phase == _HOP:
            violations.extend((index, other) for other in open_by_comp.get(names[comps[index]], ()))
            continue
        _, begin, _, block = intervals[index]
        for comp in block:
            if phase == _END:
                open_by_comp[comp].remove(index)
            elif phase == _BEGIN:
                slot = open_by_comp.setdefault(comp, set())
                overlaps.update((min(index, other), max(index, other)) for other in slot)
                slot.add(index)
            else:
                overlaps.update(
                    (min(index, other), max(index, other))
                    for other in open_by_comp.get(comp, ())
                    if intervals[other][2] > begin
                )

    problems = [
        f"quiescence violation: hop through {names[comps[hop]]} during {intervals[other][0]}"
        for hop, other in sorted(violations)
    ]
    problems.extend(
        f"concurrent transactions {intervals[i][0]}/{intervals[j][0]} had overlapping block sets"
        for i, j in sorted(overlaps)
    )
    return problems
