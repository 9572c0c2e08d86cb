"""Components-and-connections graph and its reconfiguration manager.

Reconfiguration is transactional: a transaction's ordered edits are
normalized to a single net delta, validated against the post-state, and
executed under blocking. The block set is the delta's components plus
the in-neighbors (initiators) of anything removed, replaced, or moved.
Admission is serialized; transactions whose block sets are disjoint from
everything in flight run concurrently, everything else queues FIFO.

A graph indexes its components by host and its connections by source
and by destination. `prepare` applies a transaction's edits to an
overlay over the graph, without copying it, and checks only the
components and ports the edits touch, plus any violation the graph
already had. So preparing, validating and committing a transaction cost
what it touches, not the size of the graph. Commits write into the live
graph in place through the one function that changes the indexes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from functools import cached_property
from enum import Enum
from typing import Callable, Optional, Protocol

from .errors import InvalidTxn
from .paths import check_token
from .trace import TraceLog


class ComponentState(Enum):
    ACTIVE = "active"
    BLOCKED = "blocked"
    DOWN = "down"


@dataclass(frozen=True)
class Component:
    kind: str
    host: str
    state: ComponentState = ComponentState.ACTIVE


@dataclass(frozen=True)
class Connection:
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
    """The runtime meta-model of components and their connections.

    `components` and `connections` are for reading. Edits go through
    `apply_in_place` and state changes through `set_state`, so the
    indexes stay exact.
    """

    components: dict[str, Component] = field(default_factory=dict)
    connections: set[Connection] = field(default_factory=set)

    @cached_property
    def _ix(self) -> _Indexes:
        # Built on first use: loading a large graph stays as cheap as it
        # was, and a graph nobody queries never pays for its indexes.
        return _Indexes(self.components, self.connections)

    def copy(self) -> "ConfigGraph":
        return ConfigGraph(dict(self.components), set(self.connections))

    def set_state(self, cid: str, state: ComponentState) -> None:
        self.components[cid] = replace(self.components[cid], state=state)

    def in_neighbors(self, cid: str) -> set[str]:
        return {c.src for c in self._ix.ins.get(cid, ())}

    def incident(self, cid: str) -> set[Connection]:
        return {*self._ix.ins.get(cid, ()), *self._ix.outs.get(cid, ())}

    def components_on(self, host: str) -> list[str]:
        return sorted(self._ix.by_host.get(host, ()))

    def count_on(self, host: str) -> int:
        return len(self._ix.by_host.get(host, ()))

    def canonical_lines(self) -> list[str]:
        lines = [
            f"component {cid} kind={comp.kind} host={comp.host} state={comp.state.value}"
            for cid, comp in sorted(self.components.items())
        ]
        lines.extend(
            f"connection {conn.render()}"
            for conn in sorted(self.connections, key=lambda c: c.render())
        )
        return lines

    def structural_violations(self) -> list["Violation"]:
        """Dangling connections, then port conflicts, each in render order."""
        return list(prepare(self, ReconfigTxn("check")).violations)


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


@dataclass(frozen=True)
class ReconfigTxn:
    """An atomic batch of graph edits. Empty edit lists are no-ops."""

    txn_id: str
    edits: tuple[Edit, ...] = ()

    def __post_init__(self):
        check_token(self.txn_id)

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


class HostStatusView(Protocol):
    def host_exists(self, host_id: str) -> bool: ...
    def host_is_up(self, host_id: str) -> bool: ...


@dataclass(frozen=True)
class NetDelta:
    """A transaction's edits collapsed against a specific pre-state."""

    added: frozenset[str]
    removed: frozenset[str]
    moved: frozenset[str]
    replaced: frozenset[str]
    conns_added: frozenset[Connection]
    conns_removed: frozenset[Connection]

    @property
    def is_noop(self) -> bool:
        return not (
            self.added or self.removed or self.moved or self.replaced
            or self.conns_added or self.conns_removed
        )


@dataclass(frozen=True)
class Prepared:
    """Everything admission and commit need to know about a transaction
    against one pre-state. `kind_delta` maps a component kind to its net
    change in count, zero entries dropped. The overlay holds the post
    value of every touched component (None when absent) and the post
    presence of every touched connection."""

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
    afterwards, so only they are checked.

    A move or same-kind replace is a restart, so it enters the delta even
    when the value is unchanged; moves and replaces of a component the
    transaction also adds are subsumed by the add.
    """
    base_comps, base_conns = graph.components, graph.connections
    comps: dict[str, Optional[Component]] = {}
    conns: dict[Connection, bool] = {}
    violations: list[Violation] = []
    moved: set[str] = set()
    replaced: set[str] = set()

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
            elif isinstance(edit, MoveComponent):
                comps[edit.cid] = replace(
                    current, host=edit.new_host, state=ComponentState.ACTIVE
                )
                moved.add(edit.cid)
            else:
                comps[edit.cid] = replace(
                    current, kind=edit.new_kind, state=ComponentState.ACTIVE
                )
                replaced.add(edit.cid)

    survivors = {cid for cid, c in comps.items() if c is not None and cid in base_comps}
    delta = NetDelta(
        frozenset(cid for cid, c in comps.items() if c is not None and cid not in base_comps),
        frozenset(cid for cid, c in comps.items() if c is None and cid in base_comps),
        frozenset(moved & survivors),
        frozenset(replaced & survivors),
        frozenset(c for c, there in conns.items() if there and c not in base_conns),
        frozenset(c for c, there in conns.items() if not there and c in base_conns),
    )

    suspects = set(graph._ix.noted)
    suspects.update(conn for conn, there in conns.items() if there)
    for cid in delta.removed:
        suspects |= graph.incident(cid)
    suspects = {conn for conn in suspects if present(conn)}
    dangling = [
        conn for conn in suspects
        if comp(conn.src) is None or comp(conn.dst) is None
    ]
    by_port: dict[tuple[str, str], set[Connection]] = defaultdict(set)
    for conn in suspects:
        by_port[conn.src, conn.src_port].add(conn)
    conflicts: list[Connection] = []
    for (src, port), sharing in by_port.items():
        sharing.update(c for c in graph._ix.outs.get(src, ()) if c.src_port == port and present(c))
        conflicts.extend(sorted(sharing, key=Connection.render)[1:])
    violations.extend(
        Violation("DanglingConnection", conn.render())
        for conn in sorted(dangling, key=Connection.render)
    )
    violations.extend(
        Violation("PortConflict", conn.render())
        for conn in sorted(conflicts, key=Connection.render)
    )
    if hosts is not None:
        for cid in sorted(delta.added | delta.moved):
            host = comps[cid].host
            if not hosts.host_exists(host):
                violations.append(Violation("UnknownHost", f"{cid} -> {host}"))
            elif not hosts.host_is_up(host):
                violations.append(Violation("HostDown", f"{cid} -> {host}"))

    block: set[str] = set(delta.added | delta.removed | delta.moved | delta.replaced)
    for conn in delta.conns_added | delta.conns_removed:
        block.add(conn.src)
        block.add(conn.dst)
    for cid in delta.removed | delta.moved | delta.replaced:
        block |= graph.in_neighbors(cid)

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


def apply_in_place(graph: ConfigGraph, txn: ReconfigTxn) -> Prepared:
    """Commit the transaction into `graph`; raises InvalidTxn, leaving the
    graph as it was, when the transaction does not validate."""
    prepared = prepare(graph, txn)
    _raise_if_invalid(txn, prepared)
    _write(graph, prepared)
    return prepared


def net_delta(graph: ConfigGraph, txn: ReconfigTxn) -> NetDelta:
    return prepare(graph, txn).delta


def validate(
    graph: ConfigGraph,
    txn: ReconfigTxn,
    hosts: Optional[HostStatusView] = None,
) -> ValidationReport:
    """Check the transaction's post-state; violations are reported, not raised."""
    return ValidationReport(prepare(graph, txn, hosts).violations)


def apply(graph: ConfigGraph, txn: ReconfigTxn) -> ConfigGraph:
    """Pure post-state computation; raises InvalidTxn on a bad transaction.

    Moved and replaced components come out active: a move is a restart on
    the target host, a replace is the restart used by rejuvenation.
    """
    out = graph.copy()
    apply_in_place(out, txn)
    return out


def compute_block_set(
    graph: ConfigGraph,
    txn: ReconfigTxn,
    hosts: Optional[HostStatusView] = None,
) -> frozenset[str]:
    """Components that must be quiescent for the transaction to apply."""
    prepared = prepare(graph, txn, hosts)
    _raise_if_invalid(txn, prepared)
    return prepared.block_set


def can_run_concurrently(
    a: ReconfigTxn, b: ReconfigTxn, graph: ConfigGraph,
    hosts: Optional[HostStatusView] = None,
) -> bool:
    return not (compute_block_set(graph, a, hosts) & compute_block_set(graph, b, hosts))


# --- the live manager ---

class Scheduler(Protocol):
    @property
    def now(self) -> int: ...
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
    block_set: frozenset[str] = frozenset()
    started_at: int = -1
    hosts_up_at_start: frozenset[str] = frozenset()
    result: Optional[TxnResult] = None

    @property
    def done(self) -> bool:
        return self.result is not None


class _AllHostsUp:
    def host_exists(self, host_id: str) -> bool:
        return True

    def host_is_up(self, host_id: str) -> bool:
        return True


class ConfigManager:
    """Single admission point owning the live graph.

    Admitted transactions with mutually disjoint block sets execute
    concurrently; conflicting ones queue FIFO. Execution blocks the block
    set, waits until no application traffic occupies a blocked component,
    applies the net delta atomically, then unblocks. A host failing under
    a blocked component aborts the transaction.
    """

    def __init__(
        self,
        graph: ConfigGraph,
        scheduler: Scheduler,
        trace: TraceLog,
        hosts: Optional[HostStatusView] = None,
        occupancy: Optional[Callable[[str], int]] = None,
        latency: int = 1,
        on_abort: Optional[Callable[[_Flight, str], None]] = None,
        on_commit: Optional[Callable[[_Flight], None]] = None,
    ):
        self.graph = graph
        self._scheduler = scheduler
        self._trace = trace
        self._hosts = hosts if hosts is not None else _AllHostsUp()
        self._occupancy = occupancy or (lambda cid: 0)
        self._latency = max(1, latency)
        self.on_abort = on_abort
        self.on_commit = on_commit
        self._in_flight: list[_Flight] = []
        self._queue: list[_Flight] = []
        self._draining = False

    def submit(self, txn: ReconfigTxn, owner=None) -> _Flight:
        now = self._scheduler.now
        block = compute_block_set(self.graph, txn, self._hosts)
        flight = _Flight(txn, owner, block)
        conflicts = self._conflicts(block)
        status = "queued" if conflicts else "started"
        self._trace.record(
            now, "txn_submit",
            id=txn.txn_id,
            edits=txn.render_edits(),
            block="|".join(sorted(block)) or "-",
            status=status,
        )
        if conflicts:
            self._queue.append(flight)
        else:
            self._start(flight)
        return flight

    def _conflicts(self, block: frozenset[str]) -> bool:
        for flight in self._in_flight:
            if not flight.done and flight.block_set & block:
                return True
        # FIFO among conflicting: anything queued ahead also blocks us.
        for flight in self._queue:
            if flight.block_set & block:
                return True
        return False

    def _start(self, flight: _Flight) -> None:
        now = self._scheduler.now
        # Recompute against the current graph: earlier commits may have
        # changed it since this transaction queued.
        prepared = prepare(self.graph, flight.txn, self._hosts)
        if prepared.violations:
            self._finish(flight, "aborted", reason=str(prepared.violations[0]))
            return
        flight.block_set = prepared.block_set
        flight.started_at = now
        flight.hosts_up_at_start = frozenset(
            self.graph.components[cid].host
            for cid in flight.block_set
            if cid in self.graph.components
            and self._hosts.host_is_up(self.graph.components[cid].host)
        )
        for cid in sorted(flight.block_set):
            comp = self.graph.components.get(cid)
            if comp is not None and comp.state is ComponentState.ACTIVE:
                self.graph.set_state(cid, ComponentState.BLOCKED)
        self._trace.record(
            now, "txn_block",
            id=flight.txn.txn_id,
            components="|".join(sorted(flight.block_set)) or "-",
        )
        self._in_flight.append(flight)
        self._scheduler.schedule(now + self._latency, lambda: self._check(flight))

    def _check(self, flight: _Flight) -> None:
        if flight.done:
            return
        now = self._scheduler.now
        for cid in sorted(flight.block_set):
            comp = self.graph.components.get(cid)
            if comp is None:
                continue
            if comp.host in flight.hosts_up_at_start and not self._hosts.host_is_up(comp.host):
                self._unblock(flight)
                self._finish(flight, "aborted", reason=f"host_down:{comp.host}")
                return
        if any(self._occupancy(cid) > 0 for cid in flight.block_set):
            self._scheduler.schedule(now + 1, lambda: self._check(flight))
            return
        prepared = apply_in_place(self.graph, flight.txn)
        self._unblock(flight)
        self._finish(flight, "committed", commit_time=now,
                     kinds_preserved=not prepared.kind_delta)

    def _unblock(self, flight: _Flight) -> None:
        for cid in sorted(flight.block_set):
            comp = self.graph.components.get(cid)
            if comp is not None and comp.state is ComponentState.BLOCKED:
                self.graph.set_state(cid, ComponentState.ACTIVE)

    def _finish(self, flight: _Flight, status: str, commit_time=None, reason="",
                kinds_preserved=True) -> None:
        now = self._scheduler.now
        flight.result = TxnResult(
            flight.txn.txn_id, status, flight.block_set, commit_time, reason,
            kinds_preserved,
        )
        if flight in self._in_flight:
            self._in_flight.remove(flight)
        if status == "committed":
            self._trace.record(
                now, "txn_commit",
                id=flight.txn.txn_id,
                components="|".join(sorted(flight.block_set)) or "-",
            )
            if self.on_commit is not None:
                self.on_commit(flight)
        else:
            self._trace.record(
                now, "txn_abort",
                id=flight.txn.txn_id,
                reason=reason or "-",
            )
            if self.on_abort is not None:
                self.on_abort(flight, reason)
        self._drain_queue()

    def _drain_queue(self) -> None:
        # Starting a queued transaction can finish it immediately (abort),
        # which re-enters here; the guard plus full re-scans keep the FIFO
        # discipline without recursion.
        if self._draining:
            return
        self._draining = True
        try:
            changed = True
            while changed:
                changed = False
                active = [f.block_set for f in self._in_flight if not f.done]
                ahead: list[frozenset] = []
                for flight in list(self._queue):
                    if any(flight.block_set & b for b in active + ahead):
                        ahead.append(flight.block_set)
                        continue
                    self._queue.remove(flight)
                    self._start(flight)
                    changed = True
                    break
        finally:
            self._draining = False

    @property
    def pending(self) -> int:
        return len(self._in_flight) + len(self._queue)

    def mark_host_down(self, host_id: str, now: int) -> list[str]:
        """Record a host failure in the graph: resident components go down."""
        affected = []
        for cid in self.graph.components_on(host_id):
            comp = self.graph.components[cid]
            if comp.state is not ComponentState.DOWN:
                self.graph.set_state(cid, ComponentState.DOWN)
                affected.append(cid)
        return affected
