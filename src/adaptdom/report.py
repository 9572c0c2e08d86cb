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
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .confgraph import Component, ComponentState, ConfigGraph, Connection
from .errors import ParseError, UnknownVersion
from .trace import TraceEntry, format_scalar

REPORT_HEADER = "adaptdom-report 1"


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
        for lineno, line in enumerate(lines[2:], start=3):
            if line.startswith("begin-"):
                if current is not None:
                    raise ParseError(f"nested section {line!r}", line=lineno)
                current = line[len("begin-"):]
                sections[current] = []
            elif line.startswith("end-"):
                if current != line[len("end-"):]:
                    raise ParseError(f"mismatched section end {line!r}", line=lineno)
                current = None
            elif line.startswith("checksum sha256="):
                if current is not None:
                    raise ParseError("checksum inside a section", line=lineno)
                checksum = line[len("checksum sha256="):]
            elif current is not None:
                sections[current].append(line)
            else:
                raise ParseError(f"unexpected line {line!r}", line=lineno)
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


def parse_graph_lines(lines: list[str]) -> ConfigGraph:
    components: dict[str, Component] = {}
    connections: set[Connection] = set()
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if parts and parts[0] == "component":
            attrs = dict(p.partition("=")[::2] for p in parts[2:])
            try:
                cid = parts[1]
                component = Component(attrs["kind"], attrs["host"], ComponentState(attrs["state"]))
            except (IndexError, KeyError, ValueError):
                raise ParseError(f"bad component line {line!r}", line=lineno) from None
            components[cid] = component
        elif parts and parts[0] == "connection":
            if len(parts) != 6 or parts[3] != "->":
                raise ParseError(f"bad connection line {line!r}", line=lineno)
            connections.add(Connection(parts[1], parts[2], parts[4], parts[5]))
        else:
            raise ParseError(f"bad graph line {line!r}", line=lineno)
    return ConfigGraph(components, connections)


def _checksum_ok(text: str) -> bool:
    marker = "checksum sha256="
    idx = text.rfind(marker)
    if idx < 0:
        return False
    body, tail = text[:idx], text[idx:]
    expected = tail[len(marker):].strip()
    return hashlib.sha256(body.encode("utf-8")).hexdigest() == expected


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

    ordering: list[str] = []
    event_ids: list[str] = []
    hops: list[tuple[tuple[int, int], str]] = []  # (stamp, component)
    # Block intervals (txn, begin, end, components), opened by transaction id.
    intervals: list[tuple[str | None, tuple[int, int], tuple[int, int], frozenset[str]]] = []
    open_blocks: dict[str | None, tuple[tuple[int, int], frozenset[str]]] = {}
    last_t, last_s = -1, -1
    last_event_id = 0
    for lineno, line in enumerate(report.trace_lines, start=1):
        try:
            entry = TraceEntry.parse(line, lineno)
        except ParseError as exc:
            problems.append(f"trace: {exc}")
            return problems
        time, seq, kind = entry.time, entry.seq, entry.kind
        if time < last_t:
            ordering.append(f"time regression at seq {seq}")
        if seq <= last_s:
            ordering.append(f"sequence not strictly increasing at seq {seq}")
        last_t, last_s = time, seq

        if kind == "app_hop":
            comp = entry.get("comp")
            if comp is not None:
                hops.append(((time, seq), comp))
        elif kind == "event":
            try:
                eid = int(entry.get("id", "0"))
            except ValueError:
                event_ids.append(f"unparseable event id at seq {seq}")
                continue
            if eid <= last_event_id:
                event_ids.append(f"event id {eid} not strictly increasing")
            last_event_id = eid
        elif kind == "txn_block":
            comps = entry.get("components", "-")
            block = frozenset() if comps == "-" else frozenset(comps.split("|"))
            open_blocks[entry.get("id")] = ((time, seq), block)
        elif kind in ("txn_commit", "txn_abort"):
            txn = entry.get("id")
            if txn in open_blocks:
                begin, block = open_blocks.pop(txn)
                intervals.append((txn, begin, (time, seq), block))
    for txn, (begin, block) in open_blocks.items():
        intervals.append((txn, begin, (last_t + 1, last_s + 1), block))

    problems.extend(ordering)
    problems.extend(event_ids)
    problems.extend(_block_problems(hops, intervals))
    try:
        final = parse_graph_lines(report.graph_lines)
    except ParseError as exc:
        problems.append(f"graph: {exc}")
    else:
        for violation in final.structural_violations():
            problems.append(f"final graph: {violation}")
    return problems


# Sweep phases at one stamp. Ends go first and begins last, so an interval
# holds only the stamps strictly between its begin and its end.
_END, _HOP, _PROBE, _BEGIN = range(4)


def _block_problems(hops: list[tuple[tuple[int, int], str]], intervals: list[tuple]) -> list[str]:
    """Quiescence violations (a hop through a component while a transaction
    blocked it) and overlapping block sets of concurrent transactions, from
    one sweep over (time, seq) with an index of the open intervals by
    component. Problems come in hop order, then interval order."""
    blocked = frozenset().union(*(block for _, _, _, block in intervals))
    sweep = [
        (stamp, _HOP, index)
        for index, (stamp, comp) in enumerate(hops)
        if comp in blocked
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
            violations.extend((index, other) for other in open_by_comp.get(hops[index][1], ()))
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
        f"quiescence violation: hop through {hops[hop][1]} during {intervals[other][0]}"
        for hop, other in sorted(violations)
    ]
    problems.extend(
        f"concurrent transactions {intervals[i][0]}/{intervals[j][0]} had overlapping block sets"
        for i, j in sorted(overlaps)
    )
    return problems
