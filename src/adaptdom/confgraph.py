"""Components-and-connections graph and its reconfiguration manager.

Reconfiguration is transactional: a transaction's ordered edits are
normalized to a single net delta, validated against the post-state, and
executed under blocking. The block set is the delta's components plus
the in-neighbors (initiators) of anything removed, replaced, or moved.
Admission is serialized; transactions whose block sets are disjoint from
everything in flight run concurrently, everything else queues FIFO.
Each admission prepares the transaction once, and that preparation is
the one it commits: no other commit can touch its block set before then.

A graph indexes its components by host and its connections by source
and by destination. `prepare` applies a transaction's edits to an
overlay over the graph, without copying it, and checks only the
components and ports the edits touch, plus any violation the graph
already had. So preparing, validating and committing a transaction cost
what it touches, not the size of the graph. Commits write into the live
graph in place through `_write`, the one function that changes the
indexes, with the preparation that admitted the transaction.

`structural_violations` is the one structural check. It works from
component ids and connections rendered as `src src_port -> dst dst_port`
and lists dangling connections, then port conflicts, each in render
order. `prepare` calls it on the connections a transaction touches, and
replay on a report's decoded graph section, without building a graph.

This module owns the graph-line grammar that documents and reports share:

    component <id> kind=<kind> host=<host> state=active|blocked|down
    connection <src> <src_port> -> <dst> <dst_port>

`encode_graph` is its one encoder and `decode_graph` its one decoder. The
decoder accepts exactly the encoder's shape: single spaces, token names
(see `paths.TOKEN_RE`), the attributes in that order, a known state, and
each component id and each connection once. It rejects anything else
with a `ParseError` naming the line. The rows it returns are private
types that `persistence.build_system` trusts: a connection row is a
`Connection` and becomes a graph's edge as it is.

`Component` and `Connection` are named tuples, so building, hashing and
comparing one runs in C; a changed copy is `_replace`.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from enum import Enum
from typing import Callable, Container, Iterable, NamedTuple, NoReturn, Optional, Protocol

from .errors import InvalidTxn, ParseError
from .paths import TOKEN_RE, check_tokens
from .trace import TraceLog


class ComponentState(Enum):
    ACTIVE = "active"
    BLOCKED = "blocked"
    DOWN = "down"


# A component or connection hashes as the tuple of its fields, as the
# frozen dataclasses they were did, so set and dict orders are unchanged.
class Component(NamedTuple):
    kind: str
    host: str
    state: ComponentState = ComponentState.ACTIVE


# A state's value to the state, for rows the grammar has checked.
STATES = {state.value: state for state in ComponentState}


class Connection(NamedTuple):
    src: str
    src_port: str
    dst: str
    dst_port: str

    def render(self) -> str:
        return f"{self.src} {self.src_port} -> {self.dst} {self.dst_port}"


class _Indexes:
    """Host -> component ids, destination -> in-edges, source -> out-edges,
    built in one pass. Edges are kept in lists: appending does not hash a
    connection. `noted` holds the connections already in violation,
    dangling or sharing a source port with another: a graph built from a
    document or a test may carry them, and `prepare` re-checks them on
    every transaction."""

    def __init__(self, components: dict[str, Component], connections: set[Connection]):
        self.by_host: dict[str, set[str]] = defaultdict(set)
        self.ins: dict[str, list[Connection]] = defaultdict(list)
        self.outs: dict[str, list[Connection]] = defaultdict(list)
        for cid, comp in components.items():
            self.by_host[comp.host].add(cid)
        for conn in connections:
            self.ins[conn.dst].append(conn)
            self.outs[conn.src].append(conn)
        noted = {
            conn for conn in connections
            if conn.src not in components or conn.dst not in components
        }
        for outs in self.outs.values():
            if len(outs) > 1:
                ports = Counter(c.src_port for c in outs)
                noted.update(c for c in outs if ports[c.src_port] > 1)
        self.noted = frozenset(noted)


@dataclass
class ConfigGraph:
    """The runtime meta-model of components and their connections. Every
    component id, kind, host and port is a token (`paths.TOKEN_RE`).

    `components` and `connections` are for reading. Edits go through
    `_write` and state changes through `set_state`, so the indexes stay
    exact.
    """

    components: dict[str, Component] = field(default_factory=dict)
    connections: set[Connection] = field(default_factory=set)

    @cached_property
    def _ix(self) -> _Indexes:
        # Built on first use: loading a large graph stays as cheap as it
        # was, and a graph nobody queries never pays for its indexes.
        return _Indexes(self.components, self.connections)

    def set_state(self, cid: str, state: ComponentState) -> None:
        self.components[cid] = self.components[cid]._replace(state=state)

    def in_neighbors(self, cid: str) -> set[str]:
        return {c.src for c in self._ix.ins.get(cid, ())}

    def incident(self, cid: str) -> set[Connection]:
        return {*self._ix.ins.get(cid, ()), *self._ix.outs.get(cid, ())}

    def components_on(self, host: str) -> list[str]:
        return sorted(self._ix.by_host.get(host, ()))

    def count_on(self, host: str) -> int:
        return len(self._ix.by_host.get(host, ()))

    def canonical_lines(self) -> list[str]:
        return encode_graph(
            ((cid, c.kind, c.host, c.state.value) for cid, c in self.components.items()),
            ((c.src, c.src_port, c.dst, c.dst_port) for c in self.connections),
        )


# --- the graph-line grammar ---

_T = TOKEN_RE.pattern
_GRAPH_LINE = re.compile(
    rf"component ({_T}) kind=({_T}) host=({_T}) state=(active|blocked|down)"
    rf"|connection ({_T}) ({_T}) -> ({_T}) ({_T})"
)


def encode_graph(components: Iterable[tuple[str, ...]],
                 connections: Iterable[tuple[str, ...]]) -> list[str]:
    """Graph lines for `(cid, kind, host, state)` and `(src, src_port,
    dst, dst_port)` rows: the components' lines sorted, then the
    connections'. For token names line order is row order, because every
    token character sorts above the space that ends a name."""
    lines = sorted(
        f"component {cid} kind={kind} host={host} state={state}"
        for cid, kind, host, state in components
    )
    lines += sorted(
        f"connection {src} {src_port} -> {dst} {dst_port}"
        for src, src_port, dst, dst_port in connections
    )
    return lines


class _ComponentRow(tuple):
    """A `(cid, kind, host, state)` row `decode_graph` read: its names are
    tokens and its state is a `ComponentState` value."""

    __slots__ = ()


class _ConnectionRow(Connection):
    """A connection `decode_graph` read: its names are tokens, so it is a
    graph's edge as it is."""

    __slots__ = ()


def decode_graph(lines: Iterable[tuple[int, str]], rows: bool = True):
    """The component and connection rows of numbered graph lines, given
    as `(line number, text)` pairs, in line order. Raises `ParseError`
    naming the first line outside the grammar or repeating a component id
    or a connection. A component row is a `(cid, kind, host, state)`
    tuple and a connection row a `Connection`; both are private types
    that `persistence.build_system` trusts without checking again. With
    `rows` false it builds no rows and keeps only what
    `structural_violations` needs: the set of component ids and the set of
    connection lines, which for this grammar are equal exactly when their
    rows are."""
    components: list[tuple[str, ...]] = []
    connections: list[Connection] = []
    ids: set[str] = set()
    edges: set[str] = set()
    match = _GRAPH_LINE.fullmatch
    new = tuple.__new__
    for lineno, line in lines:
        found = match(line)
        if found is None:
            _raise_graph_error(line, lineno)
        if found.lastindex == 8:  # a connection line
            if line in edges:
                raise ParseError(f"duplicate connection {line[len('connection '):]!r}",
                                 line=lineno)
            edges.add(line)
            if rows:
                connections.append(new(_ConnectionRow, found.group(5, 6, 7, 8)))
            continue
        cid = found[1]
        if cid in ids:
            raise ParseError(f"duplicate component {cid!r}", line=lineno)
        ids.add(cid)
        if rows:
            components.append(new(_ComponentRow, found.group(1, 2, 3, 4)))
    return (components, connections) if rows else (ids, edges)


def _raise_graph_error(line: str, lineno: int) -> NoReturn:
    """Raise the error for a line the grammar rejects: the first field
    value that is not a token, else a bad line."""
    head, _, rest = line.partition(" ")
    if head not in ("component", "connection"):
        raise ParseError(f"bad graph line {line!r}", line=lineno)
    for part in rest.split(" "):
        name = part.partition("=")[2] if "=" in part else part
        if part not in ("", "->") and not TOKEN_RE.fullmatch(name):
            raise ParseError(f"BadToken: invalid token: {name!r}", line=lineno)
    raise ParseError(f"bad {head} line {line!r}", line=lineno)


# --- edits and transactions ---

@dataclass(frozen=True)
class AddComponent:
    cid: str
    kind: str
    host: str


@dataclass(frozen=True)
class RemoveComponent:
    cid: str


@dataclass(frozen=True)
class AddConnection:
    connection: Connection


@dataclass(frozen=True)
class RemoveConnection:
    connection: Connection


@dataclass(frozen=True)
class MoveComponent:
    cid: str
    new_host: str


@dataclass(frozen=True)
class ReplaceComponent:
    cid: str
    new_kind: str


Edit = AddComponent | RemoveComponent | AddConnection | RemoveConnection | MoveComponent | ReplaceComponent


def render_edit(edit: Edit) -> str:
    """Compact single-token rendering used in traces and reports."""
    if isinstance(edit, AddComponent):
        return f"add:{edit.cid}:{edit.kind}:{edit.host}"
    if isinstance(edit, RemoveComponent):
        return f"remove:{edit.cid}"
    if isinstance(edit, AddConnection):
        c = edit.connection
        return f"connect:{c.src}.{c.src_port}>{c.dst}.{c.dst_port}"
    if isinstance(edit, RemoveConnection):
        c = edit.connection
        return f"disconnect:{c.src}.{c.src_port}>{c.dst}.{c.dst_port}"
    if isinstance(edit, MoveComponent):
        return f"move:{edit.cid}:{edit.new_host}"
    return f"replace:{edit.cid}:{edit.new_kind}"


def _edit_names(edit: Edit):
    """The names an edit carries: each of its fields, or of its connection's."""
    if isinstance(edit, (AddConnection, RemoveConnection)):
        return edit.connection
    return vars(edit).values()


@dataclass(frozen=True)
class ReconfigTxn:
    """An atomic batch of graph edits. Empty edit lists are no-ops."""

    txn_id: str
    edits: tuple[Edit, ...] = ()

    def __post_init__(self):
        check_tokens([self.txn_id, *chain.from_iterable(map(_edit_names, self.edits))])

    def render_edits(self) -> str:
        return ";".join(render_edit(e) for e in self.edits) or "noop"


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def structural_violations(component_ids: Container[str],
                          connections: Iterable[str]) -> list[Violation]:
    """The one structural check, over component ids and connections
    rendered as `src src_port -> dst dst_port` from token names: dangling
    connections, then port conflicts (every connection but the first, in
    render order, on one source port), each group in render order. It
    reads each connection once and builds no graph, so replay can check a
    decoded graph section with it directly."""
    dangling: list[str] = []
    # A source's first connection, until a second one shows the source
    # shared; then None, and its connections go by port.
    first: dict[str, Optional[str]] = {}
    by_port: dict[tuple[str, str], list[str]] = defaultdict(list)
    for name in connections:
        src, port, _, dst, _ = name.split(" ")
        if src not in component_ids or dst not in component_ids:
            dangling.append(name)
        earlier = first.setdefault(src, name)
        if earlier is not name:
            if earlier is not None:
                by_port[src, earlier.split(" ", 2)[1]].append(earlier)
                first[src] = None
            by_port[src, port].append(name)
    conflicts = [name for names in by_port.values() for name in sorted(names)[1:]]
    return ([Violation("DanglingConnection", name) for name in sorted(dangling)]
            + [Violation("PortConflict", name) for name in sorted(conflicts)])


class HostStatusView(Protocol):
    def host_exists(self, host_id: str) -> bool: ...
    def host_is_up(self, host_id: str) -> bool: ...


@dataclass(frozen=True)
class NetDelta:
    """A transaction's edits collapsed against a specific pre-state.
    `restarted` holds the surviving components it moves or replaces."""

    added: frozenset[str]
    removed: frozenset[str]
    restarted: frozenset[str]
    conns_added: frozenset[Connection]
    conns_removed: frozenset[Connection]


@dataclass(frozen=True)
class Prepared:
    """Everything admission and commit need to know about a transaction
    against one pre-state. `kind_delta` maps a component kind to its net
    change in count, zero entries dropped. The overlay holds the post
    value of every component the transaction changes (None when removed)
    and the post presence of every connection it changes."""

    delta: NetDelta
    violations: tuple[Violation, ...]
    block_set: frozenset[str]
    kind_delta: dict[str, int]
    comps: dict[str, Optional[Component]]
    conns: dict[Connection, bool]


def prepare(
    graph: ConfigGraph,
    txn: ReconfigTxn,
    hosts: Optional[HostStatusView] = None,
) -> Prepared:
    """Apply the edits to an overlay over `graph` and check the result.

    Violations come in three groups: edit application in edit order,
    structural (dangling, then port conflicts, each in render order),
    then host checks in component order. Only connections the edits touch
    and those the graph already had in violation can be in violation
    afterwards, so only they are checked. Every component the transaction
    writes active, added or restarted, must be on a host that is up.

    A move or replace is a restart, so it enters the delta even when the
    value is unchanged; so does a component removed and added again.
    Restarts of a component the transaction adds new are subsumed by the
    add.
    """
    base_comps, base_conns = graph.components, graph.connections
    comps: dict[str, Optional[Component]] = {}
    conns: dict[Connection, bool] = {}
    violations: list[Violation] = []
    restarted: set[str] = set()

    def comp(cid: str) -> Optional[Component]:
        return comps[cid] if cid in comps else base_comps.get(cid)

    def present(conn: Connection) -> bool:
        return conns[conn] if conn in conns else conn in base_conns

    for edit in txn.edits:
        if isinstance(edit, AddComponent):
            if comp(edit.cid) is not None:
                violations.append(Violation("DuplicateComponent", edit.cid))
            else:
                comps[edit.cid] = Component(edit.kind, edit.host)
                restarted.add(edit.cid)  # a survivor added back restarts
        elif isinstance(edit, (AddConnection, RemoveConnection)):
            adding = isinstance(edit, AddConnection)
            if present(edit.connection) == adding:
                code = "DuplicateConnection" if adding else "UnknownConnection"
                violations.append(Violation(code, edit.connection.render()))
            else:
                conns[edit.connection] = adding
        else:
            current = comp(edit.cid)
            if current is None:
                violations.append(Violation("UnknownComponent", edit.cid))
            elif isinstance(edit, RemoveComponent):
                comps[edit.cid] = None
            else:  # a move or a replace: a restart
                change = ({"host": edit.new_host} if isinstance(edit, MoveComponent)
                          else {"kind": edit.new_kind})
                comps[edit.cid] = current._replace(state=ComponentState.ACTIVE, **change)
                restarted.add(edit.cid)

    survivors = {cid for cid, c in comps.items() if c is not None and cid in base_comps}
    delta = NetDelta(
        frozenset(cid for cid, c in comps.items() if c is not None and cid not in base_comps),
        frozenset(cid for cid, c in comps.items() if c is None and cid in base_comps),
        frozenset(restarted & survivors),
        frozenset(c for c, there in conns.items() if there and c not in base_conns),
        frozenset(c for c, there in conns.items() if not there and c in base_conns),
    )

    suspects = set(graph._ix.noted)
    suspects.update(conn for conn, there in conns.items() if there)
    for cid in delta.removed:
        suspects |= graph.incident(cid)
    suspects = {conn for conn in suspects if present(conn)}
    # A connection on a suspect's source port is checked beside it. One
    # that is not a suspect already was clean and lost no end, so it can
    # only be in a port conflict.
    ports = {(conn.src, conn.src_port) for conn in suspects}
    suspects.update(
        c for src, port in ports
        for c in graph._ix.outs.get(src, ()) if c.src_port == port and present(c)
    )
    alive = {cid for c in suspects for cid in (c.src, c.dst) if comp(cid) is not None}
    violations.extend(structural_violations(alive, map(Connection.render, suspects)))
    if hosts is not None:
        for cid in sorted(delta.added | delta.restarted):
            host = comps[cid].host
            if not hosts.host_exists(host):
                violations.append(Violation("UnknownHost", f"{cid} -> {host}"))
            elif not hosts.host_is_up(host):
                violations.append(Violation("HostDown", f"{cid} -> {host}"))

    block: set[str] = set(delta.added | delta.removed | delta.restarted)
    for conn in delta.conns_added | delta.conns_removed:
        block.add(conn.src)
        block.add(conn.dst)
    for cid in delta.removed | delta.restarted:
        block |= graph.in_neighbors(cid)
    # Net changes only: an id added and removed again is in no block set.
    comps = {cid: c for cid, c in comps.items() if c is not None or cid in base_comps}
    conns = {c: there for c, there in conns.items() if there != (c in base_conns)}

    kinds: Counter = Counter()
    for cid, after in comps.items():
        before = base_comps.get(cid)
        if before is not None:
            kinds[before.kind] -= 1
        if after is not None:
            kinds[after.kind] += 1
    return Prepared(
        delta, tuple(violations), frozenset(block),
        {kind: n for kind, n in sorted(kinds.items()) if n}, comps, conns,
    )


def _raise_if_invalid(txn: ReconfigTxn, prepared: Prepared) -> None:
    if prepared.violations:
        report = ValidationReport(prepared.violations)
        raise InvalidTxn(f"{txn.txn_id}: {report.violations[0]}", report=report)


def _write(graph: ConfigGraph, prepared: Prepared) -> None:
    """The one place that edits a graph and its indexes. Index entries
    may be left empty. A prepared transaction without violations leaves
    no connection in violation."""
    ix = graph._ix
    for cid, after in prepared.comps.items():
        before = graph.components.get(cid)
        if before is not None:
            ix.by_host[before.host].discard(cid)
        if after is None:
            graph.components.pop(cid, None)
        else:
            graph.components[cid] = after
            ix.by_host[after.host].add(cid)
    for conn, there in prepared.conns.items():
        if there == (conn in graph.connections):
            continue
        if there:
            graph.connections.add(conn)
            ix.ins[conn.dst].append(conn)
            ix.outs[conn.src].append(conn)
        else:
            graph.connections.remove(conn)
            ix.ins[conn.dst].remove(conn)
            ix.outs[conn.src].remove(conn)
    ix.noted = frozenset()


def validate(
    graph: ConfigGraph,
    txn: ReconfigTxn,
    hosts: Optional[HostStatusView] = None,
) -> ValidationReport:
    """Check the transaction's post-state; violations are reported, not raised."""
    return ValidationReport(prepare(graph, txn, hosts).violations)


# --- the live manager ---

class Scheduler(Protocol):
    now: int
    def schedule(self, time: int, fn: Callable[[], None]) -> None: ...


@dataclass
class TxnResult:
    txn_id: str
    status: str  # committed | aborted
    block_set: frozenset[str]
    commit_time: Optional[int] = None
    reason: str = ""
    kinds_preserved: bool = True


@dataclass
class _Flight:
    txn: ReconfigTxn
    owner: Optional[object]
    prepared: Prepared
    hosts_up_at_start: frozenset[str] = frozenset()
    result: Optional[TxnResult] = None


class ConfigManager:
    """Single admission point owning the live graph.

    Admitted transactions with mutually disjoint block sets execute
    concurrently; conflicting ones queue FIFO. Execution blocks the block
    set, waits until no application traffic occupies a blocked component,
    applies the net delta atomically, then unblocks. A host failing under
    a blocked component aborts the transaction.

    A transaction is prepared at submit, and again when it leaves the
    queue. The preparation that admits it is the one it commits: until
    then any transaction whose block set meets its own queues, a host
    failure changes only states, and an edit writes its component active.

    `occupancy` (application traffic per component) is the caller's to
    write; `on_commit` and `on_abort` hear of every finished transaction.
    """

    def __init__(
        self,
        graph: ConfigGraph,
        scheduler: Scheduler,
        trace: TraceLog,
        hosts: HostStatusView,
        occupancy: dict[str, int],
        latency: int,
        on_abort: Callable[[_Flight, str], None],
        on_commit: Callable[[_Flight], None],
    ):
        self.graph = graph
        self._scheduler = scheduler
        self._trace = trace
        self._hosts = hosts
        self._occupancy = occupancy
        self._latency = max(1, latency)
        self._on_abort = on_abort
        self._on_commit = on_commit
        self._in_flight: list[_Flight] = []
        self._queue: list[_Flight] = []

    def submit(self, txn: ReconfigTxn, owner=None) -> _Flight:
        """Prepare `txn`, raising InvalidTxn when it does not validate,
        then start or queue it. Never drains, so `on_abort` may submit."""
        prepared = prepare(self.graph, txn, self._hosts)
        _raise_if_invalid(txn, prepared)
        flight = _Flight(txn, owner, prepared)
        clear = self._clear(flight, self._queue)
        self._trace.record(
            "txn_submit",
            id=txn.txn_id,
            edits=txn.render_edits(),
            block=prepared.block_set,
            status="started" if clear else "queued",
        )
        if clear:
            self._start(flight)
        else:
            self._queue.append(flight)
        return flight

    def _clear(self, flight: _Flight, ahead: Iterable[_Flight]) -> bool:
        """Whether `flight`'s block set is disjoint from everything in
        flight and from every flight queued `ahead` of it."""
        block = flight.prepared.block_set
        return not any(f.prepared.block_set & block for f in chain(self._in_flight, ahead))

    def _start(self, flight: _Flight) -> None:
        now = self._scheduler.now
        block = flight.prepared.block_set
        flight.hosts_up_at_start = frozenset(
            self.graph.components[cid].host
            for cid in block
            if cid in self.graph.components
            and self._hosts.host_is_up(self.graph.components[cid].host)
        )
        self._swap_states(flight, ComponentState.ACTIVE, ComponentState.BLOCKED)
        self._trace.record("txn_block", id=flight.txn.txn_id, components=block)
        self._in_flight.append(flight)
        self._scheduler.schedule(now + self._latency, lambda: self._check(flight))

    def _check(self, flight: _Flight) -> None:
        now = self._scheduler.now
        prepared = flight.prepared
        for cid in sorted(prepared.block_set):
            comp = self.graph.components.get(cid)
            if (comp is not None and comp.host in flight.hosts_up_at_start
                    and not self._hosts.host_is_up(comp.host)):
                self._swap_states(flight, ComponentState.BLOCKED, ComponentState.ACTIVE)
                self._finish(flight, "aborted", reason=f"host_down:{comp.host}")
                self._drain_queue()
                return
        if any(self._occupancy.get(cid, 0) > 0 for cid in prepared.block_set):
            self._scheduler.schedule(now + 1, lambda: self._check(flight))
            return
        _write(self.graph, prepared)
        self._swap_states(flight, ComponentState.BLOCKED, ComponentState.ACTIVE)
        self._finish(flight, "committed", commit_time=now,
                     kinds_preserved=not prepared.kind_delta)
        self._drain_queue()

    def _swap_states(self, flight: _Flight, old: ComponentState, new: ComponentState) -> None:
        for cid in sorted(flight.prepared.block_set):
            comp = self.graph.components.get(cid)
            if comp is not None and comp.state is old:
                self.graph.set_state(cid, new)

    def _finish(self, flight: _Flight, status: str, commit_time=None, reason="",
                kinds_preserved=True) -> None:
        block = flight.prepared.block_set
        flight.result = TxnResult(
            flight.txn.txn_id, status, block, commit_time, reason, kinds_preserved,
        )
        if flight in self._in_flight:
            self._in_flight.remove(flight)
        if status == "committed":
            self._trace.record("txn_commit", id=flight.txn.txn_id, components=block)
            self._on_commit(flight)
        else:
            self._trace.record("txn_abort", id=flight.txn.txn_id, reason=reason)
            self._on_abort(flight, reason)

    def _drain_queue(self) -> None:
        """Start each clear queued flight, prepared again on the current graph:
        one that no longer validates aborts, one whose block set grew may wait."""
        while True:
            for i, flight in enumerate(self._queue):
                if self._clear(flight, self._queue[:i]):
                    break
            else:
                return
            prepared = prepare(self.graph, flight.txn, self._hosts)
            if prepared.violations:
                del self._queue[i]
                self._finish(flight, "aborted", reason=str(prepared.violations[0]))
                continue
            flight.prepared = prepared
            if self._clear(flight, self._queue[:i]):
                del self._queue[i]
                self._start(flight)

    def mark_host_down(self, host_id: str) -> None:
        """Record a host failure in the graph: resident components go down."""
        for cid in self.graph.components_on(host_id):
            if self.graph.components[cid].state is not ComponentState.DOWN:
                self.graph.set_state(cid, ComponentState.DOWN)
