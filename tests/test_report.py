"""Trace encoding and report verification against kept references.

`ReferenceEntry` and `reference_verify_report` are the line-splitting
parser and the pairwise verifier that the streaming `TraceEntry.parse`
and the one-pass `verify_report` replaced. The properties below require
the replacements to give the same values, errors and problem lists,
order included.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptdom.errors import ParseError, UnknownVersion
from adaptdom.persistence import load_config
from adaptdom.report import RunReport, _checksum_ok, parse_graph_lines, verify_report
from adaptdom.simharness import Simulator
from adaptdom.trace import TraceEntry, TraceLog, format_scalar

from conftest import SCENARIOS


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


def reference_verify_report(text: str) -> list[str]:
    """Re-check every recorded invariant; returns human-readable problems."""
    problems: list[str] = []
    if not _checksum_ok(text):
        problems.append("checksum mismatch or missing")
    try:
        report = RunReport.parse(text)
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
    for entry in entries:
        if entry.time < last_t:
            problems.append(f"time regression at seq {entry.seq}")
        if entry.seq <= last_s:
            problems.append(f"sequence not strictly increasing at seq {entry.seq}")
        last_t, last_s = entry.time, entry.seq

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
        final = parse_graph_lines(report.graph_lines)
    except ParseError as exc:
        problems.append(f"graph: {exc}")
    else:
        for violation in final.structural_violations():
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
    elif kind in ("txn_commit", "txn_abort"):
        if draw(st.integers(0, 9)):
            fields.append(f"id={draw(st.sampled_from(TXNS + ('t9',)))}")
    elif kind == "app_hop":
        fields.append("flow=1")
        if draw(st.integers(0, 9)):
            fields.append(f"comp={draw(st.sampled_from(COMPS + ('z',)))}")
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
    # they often share a stamp and the order of a sweep at one stamp shows.
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


def test_generated_reports_reach_every_problem_kind():
    """The generator is only useful if the reference finds each kind of
    problem on some of its reports."""
    seen: set[str] = set()

    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(reports())
    def collect(text):
        for problem in reference_verify_report(text):
            seen.add(problem.split(" ")[0])

    collect()
    assert {"checksum", "trace:", "time", "sequence", "unparseable", "event", "quiescence",
            "concurrent", "graph:", "final"} <= seen


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
    log = TraceLog()
    log.record(0, "first")
    assert log.record(time, kind, **fields) is None
    encoded = tuple(
        (key, value.replace(" ", "_") if isinstance(value, str) else format_scalar(value))
        for key, value in fields.items()
    )
    entry = TraceEntry.parse(log.lines()[-1])
    assert (entry.time, entry.seq, entry.kind, entry.fields) == (time, 1, kind, encoded)
    for key, value in encoded:
        assert entry.get(key) == value
    assert entry.get("absent key") is None
    assert log.count(kind) == 1 + (kind == "first")
    assert [e.kind for e in log.of_kind(kind)] == [kind] * log.count(kind)


def test_lines_returns_a_copy():
    log = TraceLog()
    log.record(1, "k", a="x y")
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
        assert metrics[metric] == len(sim.trace.of_kind(kind))
    assert metrics["events_emitted"] > 0
