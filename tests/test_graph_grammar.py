"""The graph-line grammar against the encoders and the decoder it replaced.

`reference_canonical_lines` is the body `ConfigGraph.canonical_lines` had,
`reference_render_graph` the `[graph]` loop of `render_document`, and
`reference_parse_graph_lines` the report's graph decoder; `encode_graph`
and `decode_graph` replaced all three. On token-valid graphs the new pair
must give the same lines and the same graph; the decoder must also reject
every line that leaves the encoder's shape, and a repeated component id
or connection, naming that line.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptdom.confgraph import (
    Component,
    ComponentState,
    ConfigGraph,
    Connection,
    decode_graph,
    encode_graph,
)
from adaptdom.errors import ParseError
from adaptdom.paths import TOKEN_RE
from adaptdom.persistence import build_system, parse_document

from conftest import SCENARIOS


def reference_canonical_lines(self: ConfigGraph) -> list[str]:
    lines = [
        f"component {cid} kind={comp.kind} host={comp.host} state={comp.state.value}"
        for cid, comp in sorted(self.components.items())
    ]
    lines.extend(
        f"connection {conn.render()}"
        for conn in sorted(self.connections, key=lambda c: c.render())
    )
    return lines


def reference_render_graph(components, connections) -> list[str]:
    lines = []
    for cid, kind, host, state in sorted(components):
        lines.append(f"component {cid} kind={kind} host={host} state={state}")
    for src, sport, dst, dport in sorted(connections):
        lines.append(f"connection {src} {sport} -> {dst} {dport}")
    return lines


def reference_parse_graph_lines(lines: list[str]) -> ConfigGraph:
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


# Few characters, so that one name is often a prefix of another and names
# differ in case, digits, `_` and `-`: the places where sorting rows and
# sorting lines could part.
names = st.text(alphabet="aZ09_-", min_size=1, max_size=4)
states = st.sampled_from([state.value for state in ComponentState])


@st.composite
def graph_rows(draw):
    comps = draw(st.dictionaries(names, st.tuples(names, names, states), max_size=8))
    conns = draw(st.sets(st.tuples(names, names, names, names), max_size=8))
    return ([(cid, *rest) for cid, rest in comps.items()], sorted(conns, reverse=True))


def graph_of(components, connections) -> ConfigGraph:
    return ConfigGraph(
        {cid: Component(kind, host, ComponentState(state))
         for cid, kind, host, state in components},
        {Connection(*row) for row in connections},
    )


@settings(max_examples=300, deadline=None)
@given(graph_rows())
def test_encode_equals_both_old_encoders(rows):
    components, connections = rows
    lines = encode_graph(components, connections)
    assert lines == reference_render_graph(components, connections)
    graph = graph_of(components, connections)
    assert lines == reference_canonical_lines(graph)
    assert graph.canonical_lines() == lines


@settings(max_examples=300, deadline=None)
@given(graph_rows())
def test_decode_inverts_encode_and_equals_the_old_decoder(rows):
    components, connections = rows
    lines = encode_graph(components, connections)
    decoded = decode_graph(enumerate(lines, 1))
    assert decoded == (sorted(components), sorted(connections))
    old = reference_parse_graph_lines(lines)
    new = graph_of(*decoded)
    assert (new.components, new.connections) == (old.components, old.connections)


# Characters outside the token grammar, the space and the grammar's own
# `=`, `-` and `>` among them.
non_token_chars = st.sampled_from(" =>.|:,!@$#/\t\\\"'é\x00").filter(
    lambda c: not TOKEN_RE.fullmatch(c))


@settings(max_examples=500, deadline=None)
@given(graph_rows(), st.data())
def test_a_corrupted_character_is_rejected_on_its_line(rows, data):
    lines = encode_graph(*rows)
    if not lines:
        return
    index = data.draw(st.integers(0, len(lines) - 1))
    line = lines[index]
    at = data.draw(st.integers(0, len(line) - 1))
    char = data.draw(non_token_chars.filter(lambda c: c != line[at]))
    lines[index] = line[:at] + char + line[at + 1:]
    with pytest.raises(ParseError) as raised:
        decode_graph(enumerate(lines, 1))
    assert raised.value.line == index + 1


@settings(max_examples=200, deadline=None)
@given(graph_rows(), st.data())
def test_a_repeated_component_id_is_rejected_on_its_second_line(rows, data):
    components, connections = rows
    if not components:
        return
    lines = encode_graph(components, connections)
    cid, *_ = data.draw(st.sampled_from(components))
    state = data.draw(states)
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, f"component {cid} kind=k host=h state={state}")
    _, second = [i for i, line in enumerate(lines) if line.startswith(f"component {cid} ")]
    with pytest.raises(ParseError) as raised:
        decode_graph(enumerate(lines, 1))
    assert raised.value.line == second + 1
    assert str(raised.value) == f"line {raised.value.line}: duplicate component {cid!r}"


@settings(max_examples=200, deadline=None)
@given(graph_rows(), st.data())
def test_a_repeated_connection_is_rejected_on_its_second_line(rows, data):
    components, connections = rows
    if not connections:
        return
    lines = encode_graph(components, connections)
    src, src_port, dst, dst_port = data.draw(st.sampled_from(connections))
    repeated = f"connection {src} {src_port} -> {dst} {dst_port}"
    lines.insert(data.draw(st.integers(0, len(lines))), repeated)
    _, second = [i for i, line in enumerate(lines) if line == repeated]
    with pytest.raises(ParseError) as raised:
        decode_graph(enumerate(lines, 1))
    assert raised.value.line == second + 1
    assert str(raised.value) == (f"line {raised.value.line}: duplicate connection "
                                 f"{repeated[len('connection '):]!r}")


@pytest.mark.parametrize("line, message", [
    ("component a kind=web host=h1 state=bogus", "bad component line"),
    ("component a kind=web state=active", "bad component line"),
    ("component a host=h1 kind=web state=active", "bad component line"),
    ("component a kind=web host=h1 state=active extra=1", "bad component line"),
    ("component  a kind=web host=h1 state=active", "bad component line"),
    ("connection a out b in", "bad connection line"),
    ("connection a out -> b in\t", "BadToken: invalid token: 'in\\t'"),
    ("component c0!1 kind=w@b host=h$ state=active", "BadToken: invalid token: 'c0!1'"),
    ("component a kind=w@b host=h1 state=active", "BadToken: invalid token: 'w@b'"),
    ("connection a out -> b in:1", "BadToken: invalid token: 'in:1'"),
    (f"component {'a' * 65} kind=web host=h1 state=active", "BadToken: invalid token"),
    ("junk", "bad graph line 'junk'"),
    ("", "bad graph line ''"),
])
def test_rejected_lines_name_their_fault(line, message):
    lines = ["component z kind=web host=h1 state=active", line]
    with pytest.raises(ParseError) as raised:
        decode_graph(enumerate(lines, 5))
    assert raised.value.line == 6
    assert str(raised.value).startswith(f"line 6: {message}")


@settings(max_examples=200, deadline=None)
@given(names, names, states, names, names)
def test_rows_hash_and_compare_as_the_tuples_of_their_fields(a, b, state, c, d):
    # A set or dict of rows iterates as it did when rows were frozen
    # dataclasses, whose hash was the hash of this tuple.
    fields = (a, b, ComponentState(state))
    assert Component(*fields) == fields and hash(Component(*fields)) == hash(fields)
    assert Connection(a, b, c, d) == (a, b, c, d)
    assert hash(Connection(a, b, c, d)) == hash((a, b, c, d))


@settings(max_examples=200, deadline=None)
@given(graph_rows())
def test_decoded_rows_are_the_tuples_of_their_fields(rows):
    components, connections = decode_graph(enumerate(encode_graph(*rows), 1))
    for row in components + connections:
        assert row == tuple(row) and hash(row) == hash(tuple(row))
    assert all(isinstance(row, Connection) for row in connections)


def test_a_decoded_connection_is_the_graph_edge_itself():
    with open(SCENARIOS["healing"], encoding="utf-8") as fh:
        doc = parse_document(fh.read())
    edges = build_system(doc).graph.connections
    assert {id(conn) for conn in edges} == {id(row) for row in doc.connections}
