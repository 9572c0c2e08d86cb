"""Graph meta-model, transactions, block sets, and the manager."""

import itertools
import random

import pytest

from adaptdom import confgraph
from adaptdom.confgraph import (
    AddComponent,
    AddConnection,
    Component,
    ComponentState,
    ConfigGraph,
    ConfigManager,
    Connection,
    MoveComponent,
    NetDelta,
    ReconfigTxn,
    RemoveComponent,
    RemoveConnection,
    ReplaceComponent,
    prepare,
    validate,
)
from adaptdom.errors import BadToken, InvalidTxn
from adaptdom.registry import Kind
from adaptdom.report import RunReport, verify_report
from adaptdom.system import Host, ScenarioSpec, System
from adaptdom.trace import TraceLog

from conftest import applied, chain_graph, copied, entries, of_kind, violations_of



def fan_in_graph():
    """A -> C and B -> C, all on one host."""
    comps = {
        "A": Component("svc", "h1"),
        "B": Component("svc", "h1"),
        "C": Component("svc", "h1"),
    }
    conns = {
        Connection("A", "out", "C", "in_a"),
        Connection("B", "out", "C", "in_b"),
    }
    return ConfigGraph(comps, conns)


class TestTxnTokens:
    @pytest.mark.parametrize("edit", [
        AddComponent("a|b", "svc", "h1"),
        AddComponent("a", "s v", "h1"),
        AddComponent("a", "svc", ""),
        RemoveComponent("a.b"),
        AddConnection(Connection("A", "out", "a>b", "in")),
        RemoveConnection(Connection("A", "o:t", "C", "in_a")),
        MoveComponent("A", "h,2"),
        ReplaceComponent("A", "x" * 65),
    ])
    def test_bad_name_in_edit_raises(self, edit):
        with pytest.raises(BadToken):
            ReconfigTxn("t1", (RemoveComponent("B"), edit))

    def test_bad_txn_id_raises(self):
        with pytest.raises(BadToken):
            ReconfigTxn("t 1", (RemoveComponent("B"),))

    def test_good_names_pass(self):
        txn = ReconfigTxn("t-1", (
            AddComponent("a_1", "svc", "h-1"),
            AddConnection(Connection("a_1", "out", "C", "in_c")),
        ))
        assert len(txn.edits) == 2


class TestValidate:
    def test_empty_txn_is_valid(self):
        assert validate(fan_in_graph(), ReconfigTxn("noop")).ok

    def test_remove_with_surviving_edge_is_dangling(self):
        report = validate(fan_in_graph(), ReconfigTxn("bad", (RemoveComponent("C"),)))
        assert not report.ok
        assert any(v.code == "DanglingConnection" for v in report.violations)

    def test_remove_with_edges_removed_in_same_txn(self):
        txn = ReconfigTxn("ok", (
            RemoveConnection(Connection("A", "out", "C", "in_a")),
            RemoveConnection(Connection("B", "out", "C", "in_b")),
            RemoveComponent("C"),
        ))
        assert validate(fan_in_graph(), txn).ok

    def test_connection_to_component_added_in_same_txn(self):
        # Oracle: apply the net delta, then re-check the graph invariants.
        txn = ReconfigTxn("grow", (
            AddComponent("D", "svc", "h1"),
            AddConnection(Connection("C", "out", "D", "in")),
        ))
        graph = fan_in_graph()
        report = validate(graph, txn)
        assert report.ok
        assert violations_of(applied(graph, txn)) == []

    def test_duplicate_port_binding(self):
        txn = ReconfigTxn("dup", (
            AddConnection(Connection("A", "out", "B", "side")),
        ))
        report = validate(fan_in_graph(), txn)
        assert any(v.code == "PortConflict" for v in report.violations)

    def test_unknown_component_moves(self):
        report = validate(fan_in_graph(), ReconfigTxn("ghost", (MoveComponent("Z", "h1"),)))
        assert any(v.code == "UnknownComponent" for v in report.violations)

    def test_host_checks_need_a_host_view(self):
        system = System()
        system.hosts.add(Host("h1", 100.0))
        graph = fan_in_graph()
        bad = ReconfigTxn("badhost", (MoveComponent("A", "nowhere"),))
        report = validate(graph, bad, system.hosts)
        assert any(v.code == "UnknownHost" for v in report.violations)
        system.hosts.add(Host("h2", 100.0))
        system.hosts.get("h2").kill(0)
        down = ReconfigTxn("downhost", (MoveComponent("A", "h2"),))
        report = validate(graph, down, system.hosts)
        assert any(v.code == "HostDown" for v in report.violations)

    def test_a_restart_in_place_on_a_down_host_is_refused(self):
        # A replace restarts its component where it is, so that host must
        # be up, as a move's target must be.
        system = manager_on(chain_graph(3))
        system.kill_host("h1")
        txn = ReconfigTxn("restart", (ReplaceComponent("c1", "svc"),))
        report = validate(system.graph, txn, system.hosts)
        assert [str(v) for v in report.violations] == ["HostDown: c1 -> h1"]
        with pytest.raises(InvalidTxn):
            system.config_manager.submit(txn)
        system.run_until(5)
        assert system.graph.components["c1"].state is ComponentState.DOWN

    def test_a_component_added_back_is_host_checked(self):
        # Removing A and adding it again restarts it on its new host, as a
        # move does.
        system = System()
        system.hosts.add(Host("h1", 100.0))
        for edits in ((MoveComponent("A", "ghost"),),
                      (RemoveComponent("A"), AddComponent("A", "svc", "ghost"))):
            report = validate(fan_in_graph(), ReconfigTxn("t", edits), system.hosts)
            assert [v.code for v in report.violations] == ["UnknownHost"]


class TestNetDelta:
    def test_add_then_remove_is_noop(self):
        txn = ReconfigTxn("phantom", (
            AddComponent("X", "svc", "h1"),
            RemoveComponent("X"),
        ))
        graph = fan_in_graph()
        assert prepare(graph, txn).delta == NetDelta(*[frozenset()] * 5)
        assert prepare(graph, txn).block_set == frozenset()

    def test_same_kind_replace_still_counts(self):
        # A restart with an identical kind is an observable reconfiguration.
        txn = ReconfigTxn("restart", (ReplaceComponent("C", "svc"),))
        delta = prepare(fan_in_graph(), txn).delta
        assert delta.restarted == {"C"}

    def test_move_back_still_counts(self):
        txn = ReconfigTxn("bounce", (
            MoveComponent("A", "h9"),
            MoveComponent("A", "h1"),
        ))
        delta = prepare(fan_in_graph(), txn).delta
        assert delta.restarted == {"A"}


class TestBlockSet:
    def test_noop_block_set_is_empty(self):
        assert prepare(fan_in_graph(), ReconfigTxn("noop")).block_set == frozenset()

    def test_remove_includes_initiators(self):
        # Oracle: the definition applied by an exhaustive in-neighbor scan.
        graph = fan_in_graph()
        txn = ReconfigTxn("drop", (
            RemoveConnection(Connection("A", "out", "C", "in_a")),
            RemoveConnection(Connection("B", "out", "C", "in_b")),
            RemoveComponent("C"),
        ))
        expected = {"C"}
        expected |= {c.src for c in graph.connections if c.dst == "C"}
        expected |= {"A", "B"}  # connection endpoints named in the delta
        assert prepare(graph, txn).block_set == expected

    def test_a_component_added_back_blocks_itself_and_its_initiators(self):
        txn = ReconfigTxn("again", (RemoveComponent("C"), AddComponent("C", "db", "h1")))
        prepared = prepare(fan_in_graph(), txn)
        assert prepared.delta.restarted == {"C"}
        assert prepared.block_set == {"A", "B", "C"}

    def test_add_only_blocks_just_the_new_component(self):
        txn = ReconfigTxn("grow", (AddComponent("D", "svc", "h1"),))
        assert prepare(fan_in_graph(), txn).block_set == {"D"}


class TestConcurrency:
    def test_disjoint_subgraphs_can_run(self):
        graph = ConfigGraph({
            "A": Component("svc", "h1"),
            "B": Component("svc", "h1"),
        })
        a = ReconfigTxn("ta", (ReplaceComponent("A", "svc"),))
        b = ReconfigTxn("tb", (ReplaceComponent("B", "svc"),))
        assert not (prepare(graph, a).block_set & prepare(graph, b).block_set)

    def test_same_component_conflicts(self):
        graph = fan_in_graph()
        a = ReconfigTxn("ta", (
            RemoveConnection(Connection("A", "out", "C", "in_a")),
            RemoveConnection(Connection("B", "out", "C", "in_b")),
            RemoveComponent("C"),
        ))
        b = ReconfigTxn("tb", (ReplaceComponent("C", "svc"),))
        assert prepare(graph, a).block_set & prepare(graph, b).block_set

    def test_noop_runs_with_anything(self):
        graph = fan_in_graph()
        noop = ReconfigTxn("noop")
        other = ReconfigTxn("t", (ReplaceComponent("C", "svc"),))
        assert not (prepare(graph, noop).block_set & prepare(graph, other).block_set)


class TestApply:
    def test_noop_identity(self):
        graph = fan_in_graph()
        out = applied(graph, ReconfigTxn("noop"))
        assert out.components == graph.components
        assert out.connections == graph.connections

    def test_inverse_edits_round_trip(self):
        # Oracle: structural graph equality after applying the inverse.
        graph = fan_in_graph()
        conn = Connection("C", "out", "A", "back")
        fwd = ReconfigTxn("fwd", (
            AddComponent("D", "svc", "h1"),
            AddConnection(conn),
        ))
        bwd = ReconfigTxn("bwd", (
            RemoveConnection(conn),
            RemoveComponent("D"),
        ))
        out = applied(applied(graph, fwd), bwd)
        assert out.components == graph.components
        assert out.connections == graph.connections

    def test_replace_preserves_incident_connections(self):
        graph = fan_in_graph()
        before = graph.incident("C")
        out = applied(graph, ReconfigTxn("swap", (ReplaceComponent("C", "cache"),)))
        assert out.incident("C") == before
        assert out.components["C"].kind == "cache"

    def test_move_and_replace_restart_components(self):
        graph = fan_in_graph()
        graph.components["A"] = Component("svc", "h1", ComponentState.DOWN)
        out = applied(graph, ReconfigTxn("mv", (MoveComponent("A", "h2"),)))
        assert out.components["A"].state is ComponentState.ACTIVE
        assert out.components["A"].host == "h2"

    def test_apply_is_pure(self):
        graph = fan_in_graph()
        snapshot = graph.canonical_lines()
        applied(graph, ReconfigTxn("swap", (ReplaceComponent("C", "cache"),)))
        assert graph.canonical_lines() == snapshot


def manager_on(graph, latency=1):
    system = System(graph=graph, scenario=ScenarioSpec({"reconfig_latency": latency}))
    system.hosts.add(Host("h1", 1000.0))
    system.hosts.add(Host("h2", 1000.0))
    return system


def block_interval(trace: TraceLog, txn_id: str):
    begin = end = None
    for entry in entries(trace):
        if entry.get("id") != txn_id:
            continue
        if entry.kind == "txn_block":
            begin = (entry.time, entry.seq)
        elif entry.kind in ("txn_commit", "txn_abort"):
            end = (entry.time, entry.seq)
    return begin, end


class TestSubmit:
    def test_single_txn_commits_with_block_interval(self):
        system = manager_on(fan_in_graph())
        txn = ReconfigTxn("t1", (ReplaceComponent("C", "svc"),))
        flight = system.config_manager.submit(txn)
        system.run_until(10)
        assert flight.result.status == "committed"
        assert flight.result.block_set == {"A", "B", "C"}
        begin, end = block_interval(system.trace, "t1")
        assert begin is not None and end is not None and begin < end
        # Components are unblocked again after commit.
        assert all(
            comp.state is ComponentState.ACTIVE
            for comp in system.graph.components.values()
        )

    def test_disjoint_txns_overlap_in_flight(self):
        graph = ConfigGraph({
            "A": Component("svc", "h1"),
            "B": Component("svc", "h1"),
        })
        system = manager_on(graph, latency=3)
        fa = system.config_manager.submit(ReconfigTxn("ta", (ReplaceComponent("A", "svc"),)))
        fb = system.config_manager.submit(ReconfigTxn("tb", (ReplaceComponent("B", "svc"),)))
        system.run_until(20)
        assert fa.result.status == fb.result.status == "committed"
        (b1, e1) = block_interval(system.trace, "ta")
        (b2, e2) = block_interval(system.trace, "tb")
        assert b1 < e2 and b2 < e1  # overlapping block intervals

    def test_conflicting_txns_serialize_fifo(self):
        system = manager_on(fan_in_graph(), latency=2)
        f1 = system.config_manager.submit(ReconfigTxn("t1", (ReplaceComponent("C", "svc"),)))
        f2 = system.config_manager.submit(ReconfigTxn("t2", (MoveComponent("C", "h2"),)))
        system.run_until(30)
        assert f1.result.status == f2.result.status == "committed"
        assert f1.result.commit_time < f2.result.commit_time
        (b1, e1) = block_interval(system.trace, "t1")
        (b2, e2) = block_interval(system.trace, "t2")
        assert not (b1 < e2 and b2 < e1)  # never overlapping
        # The second observes the first's graph: C ends up moved.
        assert system.graph.components["C"].host == "h2"

    def test_a_replace_queues_behind_a_component_added_back(self):
        system = manager_on(fan_in_graph(), latency=2)
        again = ReconfigTxn("t1", (RemoveComponent("C"), AddComponent("C", "db", "h2")))
        f1 = system.config_manager.submit(again)
        f2 = system.config_manager.submit(ReconfigTxn("t2", (ReplaceComponent("C", "web"),)))
        assert [e.get("status") for e in of_kind(system.trace, "txn_submit")] == [
            "started", "queued"]
        system.run_until(30)
        assert f1.result.commit_time < f2.result.commit_time
        assert system.graph.components["C"] == Component("web", "h2")

    def test_invalid_at_submit_raises(self):
        system = manager_on(fan_in_graph())
        with pytest.raises(InvalidTxn):
            system.config_manager.submit(ReconfigTxn("bad", (RemoveComponent("C"),)))

    def test_queued_txn_invalidated_by_earlier_commit_aborts(self):
        graph = fan_in_graph()
        system = manager_on(graph)
        rm = ReconfigTxn("rm", (
            RemoveConnection(Connection("A", "out", "C", "in_a")),
            RemoveConnection(Connection("B", "out", "C", "in_b")),
            RemoveComponent("C"),
        ))
        touch = ReconfigTxn("touch", (ReplaceComponent("C", "svc"),))
        f1 = system.config_manager.submit(rm)
        f2 = system.config_manager.submit(touch)
        system.run_until(30)
        assert f1.result.status == "committed"
        assert f2.result.status == "aborted"

    def test_host_down_during_reconfig_aborts(self):
        system = manager_on(fan_in_graph(), latency=5)
        flight = system.config_manager.submit(
            ReconfigTxn("t1", (ReplaceComponent("C", "svc"),))
        )
        system.clock.schedule(2, lambda: system.kill_host("h1"))
        system.run_until(20)
        assert flight.result.status == "aborted"
        assert "host_down" in flight.result.reason

    def test_queued_txn_aborted_by_host_down_replays_clean(self):
        # The abort reason ("HostDown: B -> h2") holds spaces; the trace
        # must still parse and the report must pass replay.
        system = manager_on(fan_in_graph(), latency=3)
        owner = system.registry.register(Kind.DOMAIN)
        system.config_manager.submit(ReconfigTxn("t1", (ReplaceComponent("B", "svc"),)), owner)
        queued = system.config_manager.submit(ReconfigTxn("t2", (MoveComponent("B", "h2"),)), owner)
        system.clock.schedule(1, lambda: system.kill_host("h2"))
        system.run_until(10)
        assert queued.result.status == "aborted"
        assert queued.result.reason == "HostDown: B -> h2"
        [event] = [e for e in of_kind(system.trace, "event") if e.get("type") == "reconfig_aborted"]
        assert "HostDown:_B_->_h2" in event.get("payload")
        report = RunReport("abort", 0, 10, system.trace.lines(), system.graph.canonical_lines())
        assert verify_report(report.render()) == []

    def test_a_queued_restart_whose_host_died_aborts(self):
        # t2 waits behind t1 for C. h1 dies under t1, which aborts; t2 is
        # prepared again as it leaves the queue and must not restart C on
        # the dead host.
        system = manager_on(fan_in_graph(), latency=3)
        system.config_manager.submit(ReconfigTxn("t1", (ReplaceComponent("C", "svc"),)))
        queued = system.config_manager.submit(ReconfigTxn("t2", (ReplaceComponent("C", "db"),)))
        system.clock.schedule(1, lambda: system.kill_host("h1"))
        system.run_until(10)
        assert queued.result.status == "aborted"
        assert queued.result.reason == "HostDown: C -> h1"
        assert system.graph.components["C"] == Component("svc", "h1", ComponentState.DOWN)

    def test_quiescence_waits_for_occupancy(self):
        system = manager_on(fan_in_graph(), latency=1)
        busy = system.occupancy
        busy["C"] = 1
        flight = system.config_manager.submit(
            ReconfigTxn("t1", (ReplaceComponent("C", "svc"),))
        )
        system.run_until(5)
        assert flight.result is None  # still waiting for traffic to drain
        busy.clear()
        system.run_until(10)
        assert flight.result.status == "committed"
        assert flight.result.commit_time > 5

    def test_a_block_set_grown_while_queued_is_cleared_again(self):
        # t1 connects X to C, so C's initiators grow while t2 (replace C)
        # waits; t3 (move X) leaves the queue first and holds X.
        graph = ConfigGraph(
            {cid: Component("svc", "h1") for cid in "ACX"},
            {Connection("A", "out", "C", "in_a")},
        )
        system = manager_on(graph, latency=2)
        submit = system.config_manager.submit
        submit(ReconfigTxn("t1", (AddConnection(Connection("X", "out", "C", "in_x")),)))
        f3 = submit(ReconfigTxn("t3", (MoveComponent("X", "h2"),)))
        f2 = submit(ReconfigTxn("t2", (ReplaceComponent("C", "svc"),)))
        system.run_until(30)
        assert f3.result.status == f2.result.status == "committed"
        assert f2.result.block_set == {"A", "C", "X"}
        b2, _ = block_interval(system.trace, "t2")
        _, e3 = block_interval(system.trace, "t3")
        assert e3 < b2  # t2 waited for t3's commit
        report = RunReport("grown", 0, 30, system.trace.lines(), system.graph.canonical_lines())
        assert verify_report(report.render()) == []

    def test_an_id_added_and_removed_again_writes_nothing(self):
        # "t1" commits after "t2", which added X while t1 was in flight.
        system = manager_on(ConfigGraph({"A": Component("svc", "h1")}), latency=2)
        f2 = system.config_manager.submit(ReconfigTxn("t2", (AddComponent("X", "svc", "h1"),)))
        phantom = ReconfigTxn("t1", (AddComponent("X", "svc", "h1"), RemoveComponent("X")))
        system.clock.schedule(1, lambda: system.config_manager.submit(phantom))
        system.run_until(10)
        assert f2.result.status == "committed"
        assert system.graph.components["X"] == Component("svc", "h1")

    def test_each_admission_prepares_once(self, monkeypatch):
        # Submit prepares; a queued transaction is prepared again when it
        # leaves the queue; commit reuses the admitting preparation.
        prepared = []

        def counting(graph, txn, hosts=None):
            prepared.append(txn.txn_id)
            return prepare(graph, txn, hosts)

        monkeypatch.setattr(confgraph, "prepare", counting)
        system = manager_on(fan_in_graph(), latency=2)
        f1 = system.config_manager.submit(ReconfigTxn("t1", (ReplaceComponent("C", "svc"),)))
        f2 = system.config_manager.submit(ReconfigTxn("t2", (MoveComponent("C", "h2"),)))
        system.run_until(30)
        assert f1.result.status == f2.result.status == "committed"
        assert prepared.count("t1") == 1  # started at submit
        assert prepared.count("t2") == 2  # queued behind t1


RANDOM_KINDS = ("web", "app", "db")


def random_graph(rng, n_components=6):
    comps = {}
    for i in range(n_components):
        comps[f"c{i}"] = Component(rng.choice(RANDOM_KINDS), rng.choice(["h1", "h2"]))
    conns = set()
    for i in range(n_components):
        j = rng.randrange(n_components)
        if j != i:
            conns.add(Connection(f"c{i}", f"p{i}", f"c{j}", "in"))
    return ConfigGraph(comps, conns)


def random_valid_txn(rng, graph, name):
    """Draw edits until a valid transaction emerges."""
    for attempt in range(50):
        edits = []
        working = graph
        for _ in range(rng.randrange(1, 4)):
            cids = sorted(working.components)
            choice = rng.randrange(4)
            if choice == 0:
                new = f"n{name}_{len(edits)}"
                edits.append(AddComponent(new, rng.choice(RANDOM_KINDS), "h1"))
            elif choice == 1 and cids:
                edits.append(MoveComponent(rng.choice(cids), rng.choice(["h1", "h2"])))
            elif choice == 2 and cids:
                edits.append(ReplaceComponent(rng.choice(cids), rng.choice(RANDOM_KINDS)))
            else:
                cid = rng.choice(cids) if cids else None
                if cid and not working.incident(cid):
                    edits.append(RemoveComponent(cid))
        txn = ReconfigTxn(f"t{name}", tuple(edits))
        if edits and validate(graph, txn).ok:
            return txn
    return ReconfigTxn(f"t{name}")


@pytest.mark.parametrize("seed", range(8))
def test_random_valid_txns_preserve_invariants(seed):
    # 8 x 1250 = 10^4 fuzz cases over the validate/apply pair.
    rng = random.Random(seed)
    graph = random_graph(rng)
    for i in range(1250):
        txn = random_valid_txn(rng, graph, str(i))
        graph = applied(graph, txn)
        assert violations_of(graph) == []


def test_serializability_matches_some_serial_order(monkeypatch):
    # Each commit writes the preparation that admitted it. Guard that it
    # equals a fresh preparation against the graph at commit.
    write = confgraph._write
    flights = []
    written = []

    def checked_write(graph, prepared):
        for flight in flights:
            if flight.prepared is prepared:
                fresh = prepare(graph, flight.txn)
                assert fresh.violations == ()
                assert (fresh.comps, fresh.conns, fresh.kind_delta, fresh.block_set) == (
                    prepared.comps, prepared.conns, prepared.kind_delta, prepared.block_set)
                written.append(flight.txn.txn_id)
        write(graph, prepared)

    monkeypatch.setattr(confgraph, "_write", checked_write)
    rng = random.Random(42)
    for case in range(40):
        graph = random_graph(rng, n_components=5)
        system = manager_on(copied(graph), latency=1)
        txns = [random_valid_txn(rng, graph, f"{case}_{k}") for k in range(3)]
        flights.clear()
        written.clear()
        for k, txn in enumerate(txns):
            system.clock.schedule(k, lambda t=txn: flights.append(
                system.config_manager.submit(t)
            ))
        system.run_until(60)
        committed = [f.txn for f in flights if f.result and f.result.status == "committed"]
        assert sorted(written) == sorted(txn.txn_id for txn in committed)
        final = system.graph.canonical_lines()
        candidates = []
        for order in itertools.permutations(committed):
            g = copied(graph)
            ok = True
            for txn in order:
                try:
                    g = applied(g, txn)
                except InvalidTxn:
                    ok = False
                    break
            if ok:
                candidates.append(g.canonical_lines())
        assert final in candidates
