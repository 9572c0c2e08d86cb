"""Trace encoding and report verification against kept references.

`ReferenceEntry`, `reference_verify_report` and `reference_report_parse`
are the line-splitting parser, the pairwise verifier and the line-by-line
section reader that the streaming `TraceEntry.parse`, the one-pass
`verify_report` and the streaming section reader behind `RunReport.parse`
replaced; `reference_checksum_ok` hashes one encoded copy of the whole
text; and `reference_record_line` encodes values apart from
`trace.encode_value`: it joins a collection's items by `isinstance`,
turns the spaces and line breaks of a string or a joined text into `_`
one character at a time, and writes an empty one as `-`. The reference verifier shares no reading code
with `verify_report`. The properties below require the replacements to
give the same values, errors, problem lists and lines, order included. `reference_render` is the render that joined
a list of lines, hashed one encoded copy of the whole body and appended
the checksum, before reports carried the trace as blocks of text.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from dataclasses import dataclass
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptdom import report as report_module
from adaptdom import trace as trace_module
from adaptdom.errors import BadToken, ParseError, UnknownVersion
from adaptdom.paths import PathName
from adaptdom.persistence import load_config
from adaptdom.report import (
    REPORT_HEADER,
    RunReport,
    _lines,
    verify_report,
)
from adaptdom.registry import Kind, ObjectId
from adaptdom.simharness import Simulator
from adaptdom.trace import TraceEntry, TraceLog, decode_set, encode_value, format_scalar

from conftest import SCENARIOS, of_kind, violations_of
from test_graph_grammar import reference_parse_graph_lines


@dataclass(frozen=True)
class ReferenceEntry:
    time: int
    seq: int
    kind: str
    fields: tuple[tuple[str, str], ...]

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    @classmethod
    def parse(cls, line: str, lineno: int = 0) -> "ReferenceEntry":
        parts = line.split(" ")
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


def reference_report_parse(text: str) -> RunReport:
    cls = RunReport
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


def reference_checksum_ok(text: str) -> bool:
    data = text.encode("utf-8")
    idx = data.rfind(b"checksum sha256=")
    if idx < 0:
        return False
    expected = data[idx + len(b"checksum sha256="):].decode("utf-8").strip()
    return hashlib.sha256(data[:idx]).hexdigest() == expected


def reference_verify_report(text: str) -> list[str]:
    """Re-check every recorded invariant; returns human-readable problems."""
    problems: list[str] = []
    if not reference_checksum_ok(text):
        problems.append("checksum mismatch or missing")
    try:
        report = reference_report_parse(text)
    except (ParseError, UnknownVersion) as exc:
        problems.append(f"parse: {exc}")
        return problems
    entries: list[ReferenceEntry] = []
    for lineno, line in enumerate(report.trace_lines, start=1):
        try:
            entries.append(ReferenceEntry.parse(line, lineno))
        except ParseError as exc:
            problems.append(f"trace: {exc}")
            return problems

    last_t, last_s = -1, -1
    checked = len(problems)
    for entry in entries:
        if entry.time < last_t:
            problems.append(f"time regression at seq {entry.seq}")
        if entry.seq <= last_s:
            problems.append(f"sequence not strictly increasing at seq {entry.seq}")
        last_t, last_s = entry.time, entry.seq
    ordered = len(problems) == checked

    last_event_id = 0
    for entry in entries:
        if entry.kind == "event":
            try:
                eid = int(entry.get("id", "0"))
            except ValueError:
                problems.append(f"unparseable event id at seq {entry.seq}")
                continue
            if eid <= last_event_id:
                problems.append(f"event id {eid} not strictly increasing")
            last_event_id = eid

    # Reconstruct block intervals keyed by transaction id.
    intervals = []  # (txn, begin(t,s), end(t,s), components)
    open_blocks: dict[str, tuple[tuple[int, int], frozenset[str]]] = {}
    for entry in entries:
        stamp = (entry.time, entry.seq)
        if entry.kind == "txn_block":
            comps = entry.get("components", "-")
            block = frozenset() if comps == "-" else frozenset(comps.split("|"))
            open_blocks[entry.get("id")] = (stamp, block)
        elif entry.kind in ("txn_commit", "txn_abort"):
            txn = entry.get("id")
            if txn in open_blocks:
                begin, block = open_blocks.pop(txn)
                intervals.append((txn, begin, stamp, block, entry.kind))
    for txn, (begin, block) in open_blocks.items():
        intervals.append((txn, begin, (last_t + 1, last_s + 1), block, "open"))
    if not ordered:  # "during an interval" needs (time, seq) order
        intervals = []

    for entry in entries:
        if entry.kind != "app_hop":
            continue
        stamp = (entry.time, entry.seq)
        comp = entry.get("comp")
        for txn, begin, end, block, _ in intervals:
            if comp in block and begin < stamp < end:
                problems.append(
                    f"quiescence violation: hop through {comp} during {txn}"
                )

    for i in range(len(intervals)):
        for j in range(i + 1, len(intervals)):
            txn_a, begin_a, end_a, block_a, _ = intervals[i]
            txn_b, begin_b, end_b, block_b, _ = intervals[j]
            overlap = begin_a < end_b and begin_b < end_a
            if overlap and (block_a & block_b):
                problems.append(
                    f"concurrent transactions {txn_a}/{txn_b} had overlapping block sets"
                )

    try:
        final = reference_parse_graph_lines(report.graph_lines)
    except ParseError as exc:
        problems.append(f"graph: {exc}")
    else:
        for violation in violations_of(final):
            problems.append(f"final graph: {violation}")
    return problems


# --- report generation ---

TXNS = ("t1", "t2", "t3")
COMPS = ("a", "b", "c", "d")
BAD_LINES = (
    "t=1 s=2 kind nofield",
    "t=1 s=2 kind a=1 =2 b",
    "t=x s=1 kind",
    "t=1 s=y kind a=1",
    "t= s=1 kind",
    "t=1 kind a=1",
    "x=1 s=2 kind",
    "t=1 s=2",
    "",
)
GOOD_GRAPH = (
    "component a kind=web host=h1 state=active",
    "component b kind=db host=h2 state=blocked",
    "connection a out -> b in",
)
BAD_GRAPH = (
    "component c kind=web state=active",
    "component c kind=web host=h1 state=bogus",
    "component",
    "connection a out -> ghost in",
    "connection a out b in",
    "junk",
)


@st.composite
def trace_fields(draw, kind: str, event_ids) -> list[str]:
    fields: list[str] = []
    if kind == "txn_block":
        if draw(st.integers(0, 9)):
            fields.append(f"id={draw(st.sampled_from(TXNS))}")
        if draw(st.integers(0, 9)):
            comps = draw(st.lists(st.sampled_from(COMPS), max_size=3))
            fields.append(f"components={'|'.join(comps) or '-'}")
        if draw(st.integers(0, 3)) == 0:  # a key inside another field's value
            fields.append(f"note=components={draw(st.sampled_from(COMPS))}")
    elif kind in ("txn_commit", "txn_abort"):
        if draw(st.integers(0, 9)):
            fields.append(f"id={draw(st.sampled_from(TXNS + ('t9',)))}")
    elif kind == "app_hop":
        fields.append("flow=1")
        if draw(st.integers(0, 9)):
            fields.append(f"comp={draw(st.sampled_from(COMPS + ('z',)))}")
        if draw(st.integers(0, 3)) == 0:
            fields.append(f"note=comp={draw(st.sampled_from(COMPS))}")
    elif kind == "event":
        choice = draw(st.integers(0, 9))
        if choice < 6:
            event_ids[0] += draw(st.integers(0, 2))
            fields.append(f"id={event_ids[0]}")
        elif choice < 8:
            fields.append(f"id={draw(st.integers(-3, 9))}")
        elif choice == 8:
            fields.append(f"id={draw(st.sampled_from(('x', '', '1.5', '=')))}")
    else:
        fields.append(f"note={draw(st.sampled_from(('x', 'id=t1', '')))}")
    if draw(st.integers(0, 5)) == 0:
        fields.append(f"id={draw(st.sampled_from(TXNS))}")  # a repeated key
    return draw(st.permutations(fields))


@st.composite
def trace_lines(draw) -> list[str]:
    # "tied" draws blocks, ends and hops on a grid of six stamps, so that
    # they often share a stamp: a misordered trace that must report its
    # ordering problems and no quiescence or overlap problem.
    mode = draw(st.sampled_from(("ordered", "perturbed", "random", "tied")))
    kinds = st.sampled_from(("txn_block", "txn_commit", "txn_abort", "app_hop")
                            + (() if mode == "tied" else ("event", "decision")))
    event_ids = [0]
    lines = []
    t = s = 0
    for _ in range(draw(st.integers(0, 30))):
        if mode == "tied":
            t, s = draw(st.integers(0, 1)), draw(st.integers(0, 2))
        elif mode == "random":
            t, s = draw(st.integers(0, 6)), draw(st.integers(0, 12))
        else:
            t += draw(st.integers(0, 2))
            s += 1
            if mode == "perturbed" and draw(st.integers(0, 4)) == 0:
                t, s = t - draw(st.integers(0, 3)), s - draw(st.integers(0, 3))
        kind = draw(kinds)
        fields = draw(trace_fields(kind, event_ids))
        lines.append(" ".join([f"t={t}", f"s={s}", kind, *fields]))
    if lines and draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    return lines


@st.composite
def reports(draw) -> str:
    graph = list(GOOD_GRAPH)
    if draw(st.integers(0, 3)) == 0:
        graph.append(draw(st.sampled_from(BAD_GRAPH)))
    text = RunReport("gen", 0, 10, draw(trace_lines()), graph, {"m": 1}).render()
    if draw(st.integers(0, 9)) == 0:
        text = text.replace("metric m = 1", "metric m = 2")
    return text


@settings(max_examples=400, deadline=None)
@given(reports())
def test_verify_report_equals_reference(text):
    assert verify_report(text) == reference_verify_report(text)


def test_a_misordered_trace_reports_only_its_ordering_problems():
    # The hop through `a` lies between the block and the commit in the
    # text, but the time regression leaves "during" undefined.
    lines = [
        "t=5 s=1 txn_block id=t1 components=a",
        "t=6 s=2 txn_block id=t2 components=a",
        "t=4 s=3 app_hop flow=1 comp=a",
        "t=7 s=4 txn_commit id=t1",
    ]
    text = RunReport("late", 0, 10, lines, list(GOOD_GRAPH), {"m": 1}).render()
    assert verify_report(text) == ["time regression at seq 3"]
    assert verify_report(text) == reference_verify_report(text)


def test_stamps_beyond_64_bits_verify_like_the_reference():
    big = 2 ** 70
    lines = [
        "t=1 s=1 txn_block id=t1 components=a",
        f"t={big} s={big} app_hop flow=1 comp=a",
        f"t={big} s={big + 1} app_hop flow=1 comp=b",
        f"t={big} s={big + 2} txn_commit id=t1",
        f"t={big} s={big + 3} app_hop flow=1 comp=a",
    ]
    text = RunReport("big", 0, 10, lines, list(GOOD_GRAPH), {"m": 1}).render()
    problems = verify_report(text)
    assert problems == reference_verify_report(text)
    assert "quiescence violation: hop through a during t1" in problems


def _hop_report(hops: int) -> str:
    """A clean report of `hops` application hops over ten components, with
    one transaction blocking two of them between two hops."""
    lines = []
    seq = 0
    for hop in range(hops):
        if hop == hops // 2:
            lines.append(f"t={seq // 4} s={seq} txn_block id=t1 components=c1|c2")
            lines.append(f"t={seq // 4} s={seq + 1} txn_commit id=t1")
            seq += 2
        lines.append(f"t={seq // 4} s={seq} app_hop flow={hop % 7} comp=c{hop % 10}")
        seq += 1
    graph = [f"component c{i} kind=web host=h1 state=active" for i in range(10)]
    return RunReport("hops", 0, seq, lines, graph, {"m": 1}).render()


def test_verify_report_memory_stays_within_four_times_the_report():
    # Replay keeps the open block intervals, not the hops. Holding a tuple
    # and a string per hop took about nine times the report's text.
    text = _hop_report(20_000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        problems = verify_report(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert problems == []
    assert peak < 4 * len(text)


def _peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_verify_report_memory_stays_within_one_and_a_half_times_the_report():
    # Replay reads the text in bounded slices and keeps the open block
    # intervals; no list of the report's lines exists. Splitting the text
    # into lines took about 3.2 times the text.
    text = _hop_report(20_000)
    problems, peak = _peak(verify_report, text)
    assert problems == []
    assert peak < 1.5 * len(text)


def test_verify_report_memory_does_not_grow_with_the_hops():
    # About 0.24 MB at 20k, 80k and 320k hops: a slice of the text and the
    # open intervals. Three machine words a hop took 0.81 MB at 20k hops
    # and 3.15 MB at 80k.
    problems, small = _peak(verify_report, _hop_report(20_000))
    assert problems == []
    problems, large = _peak(verify_report, _hop_report(80_000))
    assert problems == []
    assert large < 1.1 * small


def test_verify_report_memory_on_a_graph_heavy_report():
    # The final graph is checked from the component ids and the connection
    # lines: no row, component, connection or graph index is built. This
    # measures about 5.0 times the text; keeping every component and
    # connection row took 8.6, and building the graph about 13.7.
    kinds = ("web", "app", "db")
    hops = [f"t={i} s={i} app_hop flow=1 comp=c{i:05d}" for i in range(100)]
    graph = [f"component c{i:05d} kind={kinds[i % 3]} host=h{i // 40:03d} state=active"
             for i in range(8000)]
    graph += [f"connection c{i:05d} out -> c{i + 1:05d} in" for i in range(7999)]
    text = RunReport("graph", 0, 100, hops, graph, {"m": 1}).render()
    problems, peak = _peak(verify_report, text)
    assert problems == []
    assert peak < 5.5 * len(text)


class HandClock:
    """A clock that a test sets by hand before recording a line at a time."""

    now = 0


def stamped(clock: HandClock, log: TraceLog, time: int, kind: str, /, **fields) -> None:
    """Record a line at `time`."""
    clock.now = time
    log.record(kind, **fields)


def _hop_log(hops: int) -> TraceLog:
    clock = HandClock()
    log = TraceLog(clock)
    for hop in range(hops):
        stamped(clock, log, hop // 4, "app_hop", flow=hop % 7, comp=f"c{hop % 10}")
    return log


def test_render_memory_stays_within_one_and_three_tenths_of_the_text():
    # The trace renders from its blocks and the body is hashed a slice at
    # a time, so the one join is the only copy of the report: about 1.0
    # times the text. Joining a list of lines, encoding the whole body and
    # appending the checksum took 2.2.
    graph = [f"component c{i} kind=web host=h1 state=active" for i in range(10)]
    report = RunReport("hops", 0, 5000, _hop_log(20_000).blocks(), graph, {"m": 1})
    text, peak = _peak(report.render)
    assert verify_report(text) == []
    assert peak < 1.3 * len(text)


def test_trace_log_holds_its_lines_as_text():
    # About 1.05 times the lines' text, the lines not yet joined into a
    # block included. One string per line took 2.2 to 2.6.
    tracemalloc.start()
    try:
        log = _hop_log(50_000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lines = log.lines()
    assert len(lines) == 50_000
    assert held < 1.5 * sum(map(len, lines))


def test_generated_reports_reach_every_problem_kind():
    """The generator is only useful if the reference finds each kind of
    problem on some of its reports."""
    seen: set[str] = set()

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(reports())
    def collect(text):
        for problem in reference_verify_report(text):
            seen.add(problem.split(" ")[0])

    collect()
    assert {"checksum", "trace:", "time", "sequence", "unparseable", "event", "quiescence",
            "concurrent", "graph:", "final"} <= seen


def _body(*lines: str) -> str:
    """A report of `lines` after the header and scenario line, with the
    checksum of its body."""
    body = "\n".join((REPORT_HEADER, "scenario s seed=1 until=5", *lines)) + "\n"
    return body + f"checksum sha256={hashlib.sha256(body.encode()).hexdigest()}\n"


def test_a_bad_trace_line_then_a_missing_checksum_is_a_parse_problem_only():
    text = _body("begin-trace", "t=1 s=1 event id=1", "not a trace line", "end-trace",
                 "begin-graph", "end-graph", "begin-metrics", "end-metrics")
    text = text[:text.rindex("checksum")]
    problems = verify_report(text)
    assert problems == ["checksum mismatch or missing", "parse: line 10: missing checksum line"]
    assert problems == reference_verify_report(text)


def test_the_last_of_two_trace_sections_is_checked():
    first = ("begin-trace", "t=5 s=5 event id=1", "t=1 s=1 event id=1", "end-trace")
    last = ("begin-trace", "t=1 s=1 txn_block id=t1 components=a",
            "t=2 s=2 app_hop flow=1 comp=a", "t=3 s=3 txn_commit id=t1", "end-trace")
    rest = ("begin-graph", *GOOD_GRAPH, "end-graph", "begin-metrics", "end-metrics")
    text = _body(*first, *last, *rest)
    assert verify_report(text) == ["quiescence violation: hop through a during t1"]
    assert verify_report(text) == reference_verify_report(text)
    text = _body(*last, *first, *rest)
    assert verify_report(text) == [
        "time regression at seq 1", "sequence not strictly increasing at seq 1",
        "event id 1 not strictly increasing",
    ]
    assert verify_report(text) == reference_verify_report(text)


def test_a_graph_section_before_the_trace_section():
    text = _body("begin-graph", *GOOD_GRAPH, "connection b out -> ghost in", "end-graph",
                 "begin-trace", "t=1 s=1 event id=1", "t=2 s=2 event id=1", "end-trace",
                 "begin-metrics", "metric m = 1", "end-metrics")
    assert verify_report(text) == [
        "event id 1 not strictly increasing",
        "final graph: DanglingConnection: b out -> ghost in",
    ]
    assert verify_report(text) == reference_verify_report(text)


# Every separator `report_texts` draws.
SEPARATORS = ("\n", "\r\n", "\r", "\x0b", "\u2028", "\x1c")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.text(alphabet="ab \r", max_size=5), st.sampled_from(SEPARATORS)),
                min_size=3, max_size=12),
       st.text(alphabet="ab", max_size=3), st.integers(1, 6))
@example([("abc", "\r\n"), ("d", "\n"), ("e", "\n")], "", 4)  # a naive cut splits "\r\n"
def test_lines_in_slices_equal_splitlines(pieces, tail, chunk):
    text = "".join(line + sep for line, sep in pieces) + tail
    assert list(_lines(text, chunk)) == text.splitlines()


# --- report sections ---

SECTION_LINES = (
    "begin-trace", "end-trace", "begin-graph", "end-graph", "begin-metrics", "end-metrics",
    "begin-", "end-", "begin-other", "end-other", "checksum sha256=ab12", "checksum sha256=",
    "t=1 s=2 event id=3", "component a kind=web host=h1 state=active", "metric m = 1",
    "metric m = 1.5", "metric m = x", "metric m", "metric m = 2e3", "", "junk", " begin-trace",
    "xend-trace",
    "checksum", "scenario s seed=1", REPORT_HEADER,
)
GOOD_BODY = (
    "begin-trace", "t=1 s=2 event id=3", "end-trace", "begin-graph", "end-graph",
    "begin-metrics", "metric m = 1", "end-metrics", "checksum sha256=ab12",
)


@st.composite
def report_texts(draw) -> str:
    head = [draw(st.sampled_from((REPORT_HEADER,) * 18 + ("adaptdom-report 2", "junk")))]
    head.append(draw(st.sampled_from(("scenario s seed=1 until=5",) * 16 + (
        "scenario", "scenario x seed=z", "scenario  y", ""))))
    if draw(st.integers(0, 3)):
        body = list(GOOD_BODY)
        body[6] = draw(st.sampled_from(("metric m = 1", "metric m = 2e3", "metric m = 1.5",
                                        "metric m = x", "metric m", "metric m = 1 2")))
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(0, len(body)))
            if body and draw(st.booleans()):
                del body[min(at, len(body) - 1)]
            else:
                body.insert(at, draw(st.sampled_from(SECTION_LINES)))
    else:
        body = draw(st.lists(st.sampled_from(SECTION_LINES), max_size=14))
    lines = draw(st.sampled_from(((),) * 19 + (("",),))) + tuple(head + body)
    # splitlines() breaks at more than "\n"; the sections must split alike.
    seps = st.sampled_from(("\n",) * 6 + ("\r\n", "\r", "\x0b", "\u2028", "\x1c"))
    text = "".join(line + draw(seps) for line in lines[:-1]) + (lines[-1] if lines else "")
    return text + draw(st.sampled_from(("\n", "", "\n\n")))


def _parsed(parse, text):
    try:
        report = parse(text)
    except (ParseError, UnknownVersion) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return (report.scenario, report.seed, report.until, list(report.trace_lines),
            report.graph_lines, report.metrics)


@settings(max_examples=600, deadline=None)
@given(report_texts())
def test_report_parse_equals_reference(text):
    assert _parsed(RunReport.parse, text) == _parsed(reference_report_parse, text)


@settings(max_examples=600, deadline=None)
@given(report_texts())
def test_verify_report_equals_reference_on_report_texts(text):
    assert verify_report(text) == reference_verify_report(text)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_parse_equals_reference_on_runs(name):
    text = Simulator(load_config(SCENARIOS[name]), seed=13).run(600).render()
    assert _parsed(RunReport.parse, text) == _parsed(reference_report_parse, text)
    assert RunReport.parse(text).render() == text


# --- the trace line grammar ---

line_texts = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from(("", "t=", "t=1 ", "t=1 s=", "t=1 s=2 ", "t=-3 s=+4 k ")),
    st.text(alphabet=" =ts1x-_|\t", max_size=25),
)


@settings(max_examples=500, deadline=None)
@given(line_texts)
def test_parse_equals_reference(line):
    try:
        expected = ReferenceEntry.parse(line, 7)
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            TraceEntry.parse(line, 7)
        assert str(raised.value) == str(exc)
        return
    entry = TraceEntry.parse(line, 7)
    assert (entry.time, entry.seq, entry.kind, entry.fields) == (
        expected.time, expected.seq, expected.kind, expected.fields)
    for key in {k for k, _ in expected.fields} | {"missing", "", "a=b", "a b"}:
        assert entry.get(key, "default") == expected.get(key, "default")


field_keys = st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda key: key not in ("time", "kind"))
field_values = st.one_of(st.text(alphabet=" ab=_.é", max_size=8), st.text(max_size=8),
                         st.integers(), st.floats(), st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.from_regex(r"[a-z_]{1,10}", fullmatch=True),
       st.dictionaries(field_keys, field_values, max_size=6))
def test_recorded_values_parse_back(time, kind, fields):
    clock = HandClock()
    log = TraceLog(clock)
    log.record("first")
    clock.now = time
    assert log.record(kind, **fields) is None
    encoded = tuple((key, reference_encode(value)) for key, value in fields.items())
    entry = TraceEntry.parse(log.lines()[-1])
    assert (entry.time, entry.seq, entry.kind, entry.fields) == (time, 1, kind, encoded)
    for key, value in encoded:
        assert entry.get(key) == value
    assert entry.get("absent key") is None
    assert log.count(kind) == 1 + (kind == "first")
    assert [e.kind for e in of_kind(log, kind)] == [kind] * log.count(kind)


def reference_encode(value) -> str:
    """A tuple's or list's `format_scalar` items joined by `|`, a set's
    sorted ones joined by `|`, or a dict's `key:value` pairs sorted by key
    and joined by `,`. In that text or a string, spaces and the characters
    `splitlines` breaks on become `_`, one character at a time, and an
    empty one is `-`; any other value is `format_scalar`'s."""
    if isinstance(value, (tuple, list)):
        value = "|".join(format_scalar(item) for item in value)
    elif isinstance(value, (set, frozenset)):
        value = "|".join(format_scalar(item) for item in sorted(value))
    elif isinstance(value, dict):
        value = ",".join(f"{key}:{format_scalar(item)}" for key, item in sorted(value.items()))
    elif not isinstance(value, str):
        return format_scalar(value)
    return "".join("_" if ch == " " or len(f"a{ch}b".splitlines()) > 1 else ch
                   for ch in value) or "-"


def reference_record_line(time: int, seq: int, kind: str, /, **fields) -> str:
    line = f"t={time} s={seq} {kind}"
    for key, value in fields.items():
        line += f" {key}={reference_encode(value)}"
    return line


class Level(IntEnum):
    LOW = 1
    HIGH = 20


class Label(str):
    pass


record_values = st.one_of(
    st.text(alphabet=" ab=_.é", max_size=8), st.text(max_size=8),
    st.text(alphabet=" ab", max_size=6).map(Label),
    st.integers(), st.booleans(), st.sampled_from(Level),
    st.floats(), st.sampled_from((-0.0, 0.0, float("inf"), float("-inf"), float("nan"))),
    st.builds(ObjectId, st.integers(0, 10**6), st.sampled_from(Kind)),
    st.lists(st.sampled_from(("a", "b1", "x_y")), max_size=3).map(
        lambda segments: PathName(tuple(segments))),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.from_regex(r"[a-z_]{1,10}", fullmatch=True),
                          st.dictionaries(field_keys, record_values, max_size=5)),
                min_size=1, max_size=4))
def test_record_equals_reference(records):
    clock = HandClock()
    log = TraceLog(clock)
    for time, kind, fields in records:
        stamped(clock, log, time, kind, **fields)
    assert log.lines() == [
        reference_record_line(time, seq, kind, **fields)
        for seq, (time, kind, fields) in enumerate(records)
    ]


collection_items = st.one_of(st.text(alphabet=" ab|:,\n", max_size=4), st.text(max_size=4),
                             st.integers(), st.booleans(), st.floats())
collection_values = st.one_of(
    st.tuples(collection_items, collection_items), st.lists(collection_items, max_size=4),
    st.frozensets(st.text(alphabet=" ab\n", max_size=4), max_size=4),
    st.sets(st.integers(-20, 20), max_size=4),
    st.dictionaries(st.text(alphabet=" ab\n", max_size=4), collection_items, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.dictionaries(
    field_keys, st.one_of(collection_values, record_values), max_size=4)), min_size=1, max_size=4),
    collection_values, collection_values)
def test_record_of_collections_equals_reference(records, a, b):
    clock = HandClock()
    log = TraceLog(clock)
    for time, fields in records:
        stamped(clock, log, time, "k", **fields)
    log.recorder("pair", "a", "b")(a, b)
    assert log.lines() == [
        *(reference_record_line(time, seq, "k", **fields)
          for seq, (time, fields) in enumerate(records)),
        reference_record_line(records[-1][0], len(records), "pair", a=a, b=b),
    ]


@given(st.frozensets(st.from_regex(r"[A-Za-z0-9_-]{1,8}", fullmatch=True), max_size=5))
def test_a_set_of_tokens_decodes_back(items):
    # `-` is a token, and the set of it alone is written as the empty set is.
    assert decode_set(encode_value(items)) == (frozenset() if items == {"-"} else items)


def test_an_empty_text_or_collection_is_a_dash():
    log = TraceLog(HandClock())
    log.record("k", a="", b=(), c=[], d=frozenset(), e=set(), f={})
    log.recorder("pair", "a", "b")("", ())
    assert log.lines() == ["t=0 s=0 k a=- b=- c=- d=- e=- f=-", "t=0 s=1 pair a=- b=-"]


_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("value", ["x\ny", "x\r\ny", *(f"{ch}x{ch}" for ch in _BREAKS[1:])])
def test_a_value_holding_a_line_break_stays_on_its_line(value):
    log = TraceLog(HandClock())
    log.record("k", a=value)
    text = RunReport("s", 1, 5, log.blocks(), [], {}).render()
    assert verify_report(text) == []
    assert list(RunReport.parse(text).trace_lines) == [f"t=0 s=0 k a={reference_encode(value)}"]


def test_a_tab_in_a_value_is_kept():
    log = TraceLog(HandClock())
    log.record("k", a="x\ty z")
    assert log.lines() == ["t=0 s=0 k a=x\ty_z"]


@pytest.mark.parametrize("kind, key", [("k\nx", "a"), ("k", "a b"), ("k", "a=b"),
                                       ("", "a"), ("k", "é")])
def test_a_kind_or_key_outside_the_token_grammar_is_refused(kind, key):
    # `record("k\nx", **{"a b": 1})` wrote the two lines `t=5 s=0 k` and
    # `x a b=1`. A refused name is refused again: only tokens are kept.
    log = TraceLog(HandClock())
    for _ in range(2):
        with pytest.raises(BadToken):
            log.record(kind, **{key: 1})
        with pytest.raises(BadToken):
            log.recorder(kind, key, "b")
    assert log.lines() == []
    log.record("k", a=1)
    assert log.lines() == ["t=0 s=0 k a=1"]


kinds = st.from_regex(r"[a-z_]{1,10}", fullmatch=True)
line_shapes = st.tuples(kinds, st.lists(field_keys, min_size=1, max_size=5, unique=True))
recorded_values = st.one_of(record_values, st.text(alphabet=" ab\t" + _BREAKS, max_size=6),
                            collection_values)


@settings(max_examples=200, deadline=None)
@given(st.lists(line_shapes, min_size=1, max_size=3), st.integers(1, 5), st.data())
def test_recorder_equals_record(shapes, block, data):
    # Prepared lines of 1 to 5 fields (an application hop has two, an event
    # five) interleaved with `record` calls, across blocks of 1 to 5 lines,
    # give the lines, blocks and counts that `record` alone does. Values
    # include bools, `IntEnum` members and `str` subclasses, which an
    # exact-type test must not take for ints or text.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace_module, "_BLOCK", block)
        clock = HandClock()
        prepared, plain = TraceLog(clock), TraceLog(clock)
        recorders = [prepared.recorder(kind, *keys) for kind, keys in shapes]
        for _ in range(data.draw(st.integers(0, 12))):
            index = data.draw(st.integers(0, len(shapes) - 1))
            clock.now = data.draw(st.integers(0, 10**6))
            kind, keys = shapes[index]
            values = data.draw(st.lists(recorded_values, min_size=len(keys), max_size=len(keys)))
            plain.record(kind, **dict(zip(keys, values)))
            if data.draw(st.booleans()):
                recorders[index](*values)
            else:
                prepared.record(kind, **dict(zip(keys, values)))
        assert prepared.lines() == plain.lines()
        assert prepared.blocks() == plain.blocks()
        for kind, _ in shapes:
            assert prepared.count(kind) == plain.count(kind)


def reference_render(report: RunReport, trace_lines: list[str]) -> str:
    lines = [
        REPORT_HEADER,
        f"scenario {report.scenario} seed={report.seed} until={report.until}",
        "begin-trace", *trace_lines, "end-trace",
        "begin-graph", *report.graph_lines, "end-graph",
        "begin-metrics",
        *(f"metric {k} = {format_scalar(report.metrics[k])}" for k in sorted(report.metrics)),
        "end-metrics",
    ]
    body = "\n".join(lines) + "\n"
    return body + f"checksum sha256={hashlib.sha256(body.encode('utf-8')).hexdigest()}\n"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.from_regex(r"[a-z_]{1,10}", fullmatch=True),
                          st.dictionaries(field_keys, record_values, max_size=3),
                          st.booleans()),
                max_size=20),
       st.lists(st.text(max_size=12), max_size=8), st.integers(1, 6), st.integers(1, 40))
@example([(1, "k", {"a": "x\ny"}, False), (2, "k", {}, False), (3, "k", {"b": "\n"}, True)],
         ["é\n"], 2, 3)  # values that hold a newline, in a full block and a cut one
def test_blocks_render_and_split_like_the_lines(records, lines, block, chunk):
    # Blocks of 1 to 6 lines and hash slices of a few characters, so that
    # their boundaries fall everywhere; `blocks()` between two records
    # joins a short block.
    expected = [
        reference_record_line(time, seq, kind, **fields)
        for seq, (time, kind, fields, _) in enumerate(records)
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace_module, "_BLOCK", block)
        patch.setattr(report_module, "_CHUNK", chunk)
        clock = HandClock()
        log = TraceLog(clock)
        for time, kind, fields, cut in records:
            stamped(clock, log, time, kind, **fields)
            if cut:
                log.blocks()
        assert log.lines() == expected
        report = RunReport("s", 1, 5, log.blocks(), lines, {"m": 1, "x": 0.5})
        assert report.render() == reference_render(report, expected)
        # A plain list of lines renders alike.
        plain = RunReport("s", 1, 5, lines, expected, {})
        assert plain.render() == reference_render(plain, lines)
    split = "\n".join(expected).split("\n") if expected else []
    assert list(report.trace_lines) == split
    assert len(report.trace_lines) == len(split)


def test_lines_returns_a_copy():
    clock = HandClock()
    log = TraceLog(clock)
    stamped(clock, log, 1, "k", a="x y")
    lines = log.lines()
    lines.append("junk")
    assert log.lines() == ["t=1 s=0 k a=x_y"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_metrics_count_the_trace(name):
    sim = Simulator(load_config(SCENARIOS[name]), seed=13)
    metrics = sim.run(1200).metrics
    for metric, kind in (("adaptations_executed", "scenario"),
                         ("events_emitted", "event"),
                         ("txns_committed", "txn_commit")):
        assert metrics[metric] == len(of_kind(sim.trace, kind))
    assert metrics["events_emitted"] > 0
