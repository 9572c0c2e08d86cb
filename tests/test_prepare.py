"""`prepare` against a full-scan reference, and the graph indexes against
a rebuild from scratch.

The reference below is the whole-graph transaction check: copy every
component and connection, apply the edits, then sort and scan every
connection. `prepare` must agree with it on every small graph, including
graphs that already hold dangling connections or port conflicts.
"""

from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from adaptdom.confgraph import (
    AddComponent,
    AddConnection,
    Component,
    ComponentState,
    ConfigGraph,
    Connection,
    MoveComponent,
    ReconfigTxn,
    RemoveComponent,
    RemoveConnection,
    ReplaceComponent,
    Violation,
    apply_in_place,
    prepare,
    structural_violations,
)
from adaptdom.errors import InvalidTxn

from conftest import applied

IDS = ("a", "b", "c", "d", "e")
HOSTS = ("h1", "h2", "h3")
KINDS = ("web", "app", "db")
PORTS = ("p", "q")


# --- the full-scan reference ---

def ref_apply_edits(graph, txn):
    comps = dict(graph.components)
    conns = set(graph.connections)
    violations, moved, replaced = [], set(), set()
    for edit in txn.edits:
        if isinstance(edit, AddComponent):
            if edit.cid in comps:
                violations.append(Violation("DuplicateComponent", edit.cid))
            else:
                comps[edit.cid] = Component(edit.kind, edit.host)
        elif isinstance(edit, RemoveComponent):
            if edit.cid not in comps:
                violations.append(Violation("UnknownComponent", edit.cid))
            else:
                del comps[edit.cid]
        elif isinstance(edit, AddConnection):
            if edit.connection in conns:
                violations.append(Violation("DuplicateConnection", edit.connection.render()))
            else:
                conns.add(edit.connection)
        elif isinstance(edit, RemoveConnection):
            if edit.connection not in conns:
                violations.append(Violation("UnknownConnection", edit.connection.render()))
            else:
                conns.discard(edit.connection)
        elif isinstance(edit, MoveComponent):
            if edit.cid not in comps:
                violations.append(Violation("UnknownComponent", edit.cid))
            else:
                comps[edit.cid] = replace(
                    comps[edit.cid], host=edit.new_host, state=ComponentState.ACTIVE
                )
                moved.add(edit.cid)
        elif isinstance(edit, ReplaceComponent):
            if edit.cid not in comps:
                violations.append(Violation("UnknownComponent", edit.cid))
            else:
                comps[edit.cid] = replace(
                    comps[edit.cid], kind=edit.new_kind, state=ComponentState.ACTIVE
                )
                replaced.add(edit.cid)
    return comps, conns, violations, moved, replaced


def ref_structural_violations(comps, conns):
    out = []
    for conn in sorted(conns, key=lambda c: c.render()):
        if conn.src not in comps or conn.dst not in comps:
            out.append(Violation("DanglingConnection", conn.render()))
    seen_ports = set()
    for conn in sorted(conns, key=lambda c: c.render()):
        key = (conn.src, conn.src_port)
        if key in seen_ports:
            out.append(Violation("PortConflict", conn.render()))
        seen_ports.add(key)
    return out


def ref_prepare(graph, txn, hosts):
    """(delta fields, violations, block set, post comps, post conns)."""
    comps, conns, violations, moved, replaced = ref_apply_edits(graph, txn)
    survivors = {cid for cid in comps if cid in graph.components}
    added = {cid for cid in comps if cid not in graph.components}
    removed = {cid for cid in graph.components if cid not in comps}
    moved &= survivors
    replaced &= survivors
    conns_added = conns - graph.connections
    conns_removed = graph.connections - conns
    violations.extend(ref_structural_violations(comps, conns))
    for cid in sorted(added | moved):
        host = comps[cid].host
        if not hosts.host_exists(host):
            violations.append(Violation("UnknownHost", f"{cid} -> {host}"))
        elif not hosts.host_is_up(host):
            violations.append(Violation("HostDown", f"{cid} -> {host}"))
    block = added | removed | moved | replaced
    for conn in conns_added | conns_removed:
        block |= {conn.src, conn.dst}
    for cid in removed | moved | replaced:
        block |= {c.src for c in graph.connections if c.dst == cid}
    delta = (added, removed, moved, replaced, conns_added, conns_removed)
    return delta, violations, block, comps, conns


class Hosts:
    """h1 is up, h2 is down, h3 does not exist."""

    def host_exists(self, host_id):
        return host_id in ("h1", "h2")

    def host_is_up(self, host_id):
        return host_id == "h1"


# --- strategies ---

components = st.builds(
    Component, st.sampled_from(KINDS), st.sampled_from(HOSTS),
    st.sampled_from(list(ComponentState)),
)
connections = st.builds(
    Connection, st.sampled_from(IDS), st.sampled_from(PORTS),
    st.sampled_from(IDS), st.sampled_from(PORTS),
)


@st.composite
def graphs(draw):
    comps = draw(st.dictionaries(st.sampled_from(IDS), components, max_size=len(IDS)))
    # Mostly well-formed graphs; sometimes any connection at all, which
    # leaves dangling connections and port conflicts in place.
    conns = draw(st.sets(connections, max_size=6))
    if draw(st.booleans()):
        seen = set()
        kept = set()
        for conn in sorted(conns, key=Connection.render):
            key = (conn.src, conn.src_port)
            if conn.src in comps and conn.dst in comps and key not in seen:
                seen.add(key)
                kept.add(conn)
        conns = kept
    return ConfigGraph(comps, conns)


ids = st.sampled_from(IDS)
edits = st.one_of(
    st.builds(AddComponent, ids, st.sampled_from(KINDS), st.sampled_from(HOSTS)),
    st.builds(RemoveComponent, ids),
    st.builds(AddConnection, connections),
    st.builds(RemoveConnection, connections),
    st.builds(MoveComponent, ids, st.sampled_from(HOSTS)),
    st.builds(ReplaceComponent, ids, st.sampled_from(KINDS)),
)
txns = st.builds(ReconfigTxn, st.just("t"), st.lists(edits, max_size=6).map(tuple))


def index_snapshot(graph):
    """The indexes as sets, without the empty entries a commit may leave."""
    ix = graph._ix
    indexes = (ix.by_host, ix.ins, ix.outs)
    return tuple({k: set(v) for k, v in idx.items() if v} for idx in indexes), ix.noted


def rebuilt(graph):
    return ConfigGraph(dict(graph.components), set(graph.connections))


# --- properties ---

@settings(max_examples=300, deadline=None)
@given(graphs(), txns)
def test_prepare_matches_full_scan_reference(graph, txn):
    before = graph.canonical_lines()
    prepared = prepare(graph, txn, Hosts())
    delta, violations, block, comps, conns = ref_prepare(graph, txn, Hosts())
    got = prepared.delta
    assert (
        set(got.added), set(got.removed), set(got.moved), set(got.replaced),
        set(got.conns_added), set(got.conns_removed),
    ) == delta
    assert list(prepared.violations) == violations
    assert prepared.block_set == block
    kinds = Counter(c.kind for c in comps.values())
    kinds.subtract(c.kind for c in graph.components.values())
    assert prepared.kind_delta == {k: n for k, n in kinds.items() if n}
    assert graph.canonical_lines() == before
    # Apply checks the post-state only: the host checks do not apply.
    if any(v.code not in ("UnknownHost", "HostDown") for v in violations):
        try:
            applied(graph, txn)
        except InvalidTxn:
            pass
        else:
            raise AssertionError("apply accepted an invalid transaction")
    else:
        post = applied(graph, txn)
        assert post.components == comps
        assert post.connections == conns
    assert graph.structural_violations() == ref_structural_violations(
        graph.components, graph.connections
    )


@settings(max_examples=150, deadline=None)
@given(graphs(), st.lists(st.tuples(txns, ids, st.sampled_from(list(ComponentState))),
                          max_size=8))
def test_indexes_match_a_rebuild_after_commits(graph, steps):
    for txn, cid, state in steps:
        try:
            apply_in_place(graph, txn)
        except InvalidTxn:
            pass
        if cid in graph.components:
            graph.set_state(cid, state)
        assert index_snapshot(graph) == index_snapshot(rebuilt(graph))


@settings(max_examples=300, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_structural_violations_from_rows_match_the_reference(graph, random):
    # Rendered connections in any order, as a report's decoded graph
    # section or a set gives them.
    rows = [c.render() for c in graph.connections]
    random.shuffle(rows)
    assert structural_violations(set(graph.components), rows) == ref_structural_violations(
        graph.components, graph.connections
    )


def test_commit_clearing_the_noted_violations_leaves_a_clean_graph():
    dangling = Connection("a", "p", "z", "p")
    graph = ConfigGraph({"a": Component("web", "h1")}, {dangling})
    assert [v.code for v in graph.structural_violations()] == ["DanglingConnection"]
    apply_in_place(graph, ReconfigTxn("fix", (RemoveConnection(dangling),)))
    assert graph.structural_violations() == []
    assert index_snapshot(graph) == index_snapshot(rebuilt(graph))
