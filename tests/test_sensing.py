"""Events, sensors, and mobile agents."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptdom.adaptation import ANALYZERS, AdaptationLogic, Decision, Reactive, Retroactive, Stage
from adaptdom.confgraph import ReconfigTxn, ReplaceComponent
from adaptdom.errors import (
    AdaptdomError,
    EmptyItinerary,
    InvalidTxn,
    UnknownAction,
    UnknownId,
    UnknownSensor,
)
from adaptdom.paths import PathName
from adaptdom.registry import EnumerateMode, Kind
from adaptdom.report import RunReport, verify_report
from adaptdom.sensing import AdaptationEvent, MobileAgent
from adaptdom.system import Host, System

from conftest import chain_graph, entries, of_kind, random_hierarchy


class TestSensors:
    def test_register_then_emit_routes(self, system):
        d = system.registry.register(Kind.DOMAIN)
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(system.registry.root, d, "d")
        system.registry.include(d, s, "s")
        system.hub.register_sensor(s, heartbeat=10)
        system.run_until(5)
        # Routed to /d and to / (indirect membership).
        assert system.hub.emit(s, "ping", {"v": 1}) == 2

    def test_plain_object_may_act_as_sensor(self, system):
        obj = system.registry.register(Kind.PLAIN)
        system.registry.include(system.registry.root, obj, "thing")
        system.hub.register_sensor(obj, heartbeat=0)
        system.run_until(1)
        assert system.hub.emit(obj, "observation", {}) == 1

    def test_register_unknown_id(self, system):
        from adaptdom.registry import ObjectId

        with pytest.raises(UnknownId):
            system.hub.register_sensor(ObjectId(404, Kind.SENSOR), 1)

    def test_emit_unregistered_sensor(self, system):
        s = system.registry.register(Kind.SENSOR)
        with pytest.raises(UnknownSensor):
            system.hub.emit(s, "ping", {})

    def test_time_regression(self, system):
        # Emits are stamped by the clock, so a sensor's emissions can never
        # go back in time: each one carries the clock's time when it is made.
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(system.registry.root, s, "s")
        system.hub.register_sensor(s, 0)
        system.hub.emit(s, "ping", {})
        system.run_until(10)
        system.hub.emit(s, "ping", {})
        assert [e.time for e in of_kind(system.trace, "event")] == [0, 10]
        assert system.hub.last_emit_of(s) == 10

    def test_routed_count_matches_containing_domains(self, system):
        d1 = system.registry.register(Kind.DOMAIN)
        d2 = system.registry.register(Kind.DOMAIN)
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(system.registry.root, d1, "a")
        system.registry.include(system.registry.root, d2, "b")
        system.registry.include(d1, s, "s")
        system.registry.include(d2, s, "s")
        system.hub.register_sensor(s, 0)
        # Oracle: count the domains that can enumerate the sensor.
        containing = [
            dom for dom in (system.registry.root, d1, d2)
            if any(m == s for _, m in system.registry.enumerate(dom, EnumerateMode.INDIRECT))
        ]
        assert system.hub.emit(s, "ping", {}) == len(containing) == 3

    def test_orphan_sensor_routes_nowhere(self, system):
        s = system.registry.register(Kind.SENSOR)
        system.hub.register_sensor(s, 0)
        assert system.hub.emit(s, "ping", {}) == 0

    def test_event_ids_strictly_increase_across_sources(self, system):
        sensors = []
        for i in range(3):
            s = system.registry.register(Kind.SENSOR)
            system.registry.include(system.registry.root, s, f"s{i}")
            system.hub.register_sensor(s, 0)
            sensors.append(s)
        rng = random.Random(1)
        for t in range(40):
            system.run_until(t)
            system.hub.emit(rng.choice(sensors), "tick", {})
        ids = [int(e.get("id")) for e in of_kind(system.trace, "event")]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)


    def test_an_event_is_immutable(self):
        event = AdaptationEvent(1, None, "x", {}, 0)
        for name in ("event_id", "source", "event_type", "payload", "timestamp"):
            with pytest.raises(AttributeError):
                setattr(event, name, None)
        assert event == AdaptationEvent(event_id=1, source=None, event_type="x",
                                        payload={}, timestamp=0)


def _spy_runs(ctx, events):
    """An analyzer that notes the domain whose pipeline ran and decides nothing."""
    _SPIED.append(ctx.domain)
    return None


_SPIED: list = []

route_actions = st.lists(st.tuples(
    st.sampled_from(("emit", "emit", "emit", "include", "exclude", "load", "load_retro",
                     "unload", "unload")),
    st.integers(0, 10**6), st.integers(0, 10**6)), min_size=8, max_size=40)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), route_actions)
def test_routes_follow_membership_and_logic(seed, actions):
    # Emits interleaved with membership changes and logic loads and
    # unloads: every emit reaches each containing domain, and runs the
    # pipeline of, or batches the event for, exactly those with logic.
    rng = random.Random(seed)
    system = System()
    registry, engine = system.registry, system.engine
    registry.create_root()
    objects = random_hierarchy(rng, registry, max_objects=10)
    sensor = registry.register(Kind.SENSOR)
    registry.include(rng.choice([o for o in objects if o.kind is Kind.DOMAIN]), sensor, "spy")
    objects.append(sensor)
    domains = [o for o in objects if o.kind is Kind.DOMAIN]
    # At most two sensors emit, so that most actions change a cached route.
    sensors = [o for o in objects if o.kind is Kind.SENSOR][-2:]
    for s in sensors:
        system.hub.register_sensor(s, 0)
    ANALYZERS["spy_runs"] = Stage(_spy_runs)
    try:
        for n, (op, a, b) in enumerate(actions):
            # Most actions touch the domains above one sensor, whose route
            # a later emit from it reads.
            source = sensors[b % len(sensors)]
            containing = registry.domains_containing(source)
            domain = (containing or domains)[a % len(containing or domains)]
            if op == "emit":
                batched = {d: len(engine._bindings[d].accumulated) for d in engine.bound_domains()}
                _SPIED.clear()
                assert system.hub.emit(source, "x", {}) == len(containing)
                grew = [d for d, size in batched.items()
                        if len(engine._bindings[d].accumulated) > size]
                assert sorted(_SPIED + grew) == [
                    d for d in containing if engine.logic_of(d) is not None]
            elif op == "include":
                try:
                    registry.include(domains[a % len(domains)],
                                     (source, objects[a % len(objects)])[b % 2], f"i{n}")
                except AdaptdomError:
                    pass  # a cycle, a name taken, or the root
            elif op == "exclude":
                names = sorted(registry.member_names(domain))
                if names:
                    registry.exclude(domain, names[b % len(names)])
            elif op in ("load", "load_retro"):
                strategy = Reactive() if op == "load" else Retroactive(period=10)
                engine.load_logic(domain, AdaptationLogic("spy", strategy, analyze="spy_runs"))
            else:
                loaded = [d for d in containing if engine.logic_of(d) is not None]
                if loaded:
                    engine.unload_logic(loaded[a % len(loaded)])
    finally:
        del ANALYZERS["spy_runs"]


class TestCommands:
    """A parent domain's reach into its children, which its logic acts
    through: a member's events reach every domain above it and no other."""

    def test_sibling_is_not_a_child(self, system):
        a = system.registry.register(Kind.DOMAIN)
        b = system.registry.register(Kind.DOMAIN)
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(system.registry.root, a, "a")
        system.registry.include(system.registry.root, b, "b")
        system.registry.include(b, s, "s")
        system.hub.register_sensor(s, 0)
        reached = [dom for dom, _ in system.engine.dispatch_event(AdaptationEvent(1, s, "x", {}, 0))]
        assert b in reached and a not in reached
        assert system.registry.member_path(a, b) is None

    def test_command_to_child_without_logic_is_unhandled(self, system):
        # A child with no logic decides nothing; its parent's logic still
        # decides on the child's events.
        root = system.registry.root
        child = system.registry.register(Kind.DOMAIN)
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(root, child, "child")
        system.registry.include(child, s, "s")
        system.hub.register_sensor(s, 0)
        ANALYZERS["mark"] = Stage(lambda ctx, events: Decision(ctx.domain, (events[-1].event_id,), ()))
        try:
            system.engine.load_logic(root, AdaptationLogic("m", Reactive(), analyze="mark"))
            outcomes = dict(system.engine.dispatch_event(AdaptationEvent(1, s, "x", {}, 0)))
        finally:
            del ANALYZERS["mark"]
        assert outcomes[child] is None
        assert outcomes[root] is not None and outcomes[root].domain == root

    @pytest.mark.parametrize("seed", range(8))
    def test_reachability_matches_indirect_enumeration(self, seed):
        # Brute-force cross-check on random hierarchies: a sensor's event
        # reaches a domain iff the sensor appears among that domain's
        # indirect members.
        rng = random.Random(seed)
        system = System()
        system.registry.create_root()
        objects = random_hierarchy(rng, system.registry, max_objects=50)
        domains = [o for o in objects if o.kind is Kind.DOMAIN]
        sensors = [o for o in objects if o.kind is Kind.SENSOR]
        for sensor in sensors:
            system.hub.register_sensor(sensor, 0)
        for n, sensor in enumerate(sensors):
            reached = [dom for dom, _ in system.engine.dispatch_event(
                AdaptationEvent(n, sensor, "x", {}, 0))]
            expected = sorted(d for d in domains if sensor in {
                m for _, m in system.registry.enumerate(d, EnumerateMode.INDIRECT)
            })
            assert sorted(reached) == expected
            assert system.hub.emit(sensor, "x", {}) == len(expected)


class TestClockStamps:
    def test_agents_after_the_clock_advanced_replay_clean(self, system):
        root = system.registry.root
        child = system.registry.register(Kind.DOMAIN)
        system.registry.include(root, child, "child")
        sensor = system.registry.register(Kind.SENSOR)
        system.registry.include(child, sensor, "s")
        system.hub.register_sensor(sensor, 0)
        stop = system.registry.register(Kind.PLAIN)
        system.registry.include(root, stop, "stop")
        agent = system.registry.register(Kind.AGENT)
        system.registry.include(root, agent, "agent")
        system.run_until(10)
        system.hub.emit(sensor, "ping", {})
        report = system.hub.launch_agent(
            root, MobileAgent(agent, (PathName(("stop",)),), "noop")
        )
        system.run_until(20)
        assert report.started == 10 and report.finished == 11
        assert [e.time for e in entries(system.trace)] == [10, 11, 11, 11]
        rendered = RunReport("clock", 0, 20, system.trace.lines(),
                             system.graph.canonical_lines()).render()
        assert verify_report(rendered) == []


    def test_emit_after_the_clock_advanced_keeps_time_order(self, system):
        # An emit takes its time from the clock, not from the caller.
        root = system.registry.root
        child = system.registry.register(Kind.DOMAIN)
        system.registry.include(root, child, "child")
        sensor = system.registry.register(Kind.SENSOR)
        system.registry.include(child, sensor, "s")
        system.hub.register_sensor(sensor, 0)
        system.hub.emit(sensor, "ping", {})
        system.run_until(10)
        system.hub.emit(sensor, "ping", {})
        assert [(e.time, e.kind) for e in entries(system.trace)] == [
            (0, "event"), (10, "event"),
        ]
        rendered = RunReport("clock", 0, 10, system.trace.lines(),
                             system.graph.canonical_lines()).render()
        assert verify_report(rendered) == []


    def test_abort_notice_reaches_only_its_owner(self, monkeypatch):
        system, parent, child, _ = nested_system(monkeypatch)
        flight = system.config_manager.submit(
            ReconfigTxn("t1", (ReplaceComponent("c1", "svc"),)), owner=child)
        system.kill_host("h1")
        system.run_until(5)
        assert flight.result.status == "aborted"
        [event] = of_kind(system.trace, "event")
        assert (event.get("type"), event.get("src"), event.get("domains")) == (
            "reconfig_aborted", str(child), "1")
        decisions = of_kind(system.trace, "decision")
        assert [d.get("domain") for d in decisions] == [str(child)]
        assert decisions[0].get("cause") == event.get("id")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("run"), st.integers(0, 4)),
        st.tuples(st.just("dispatch"), st.integers(0, 40)),
        st.tuples(st.sampled_from(("emit", "agent", "audit", "submit",
                                   "kill", "revive")), st.just(0)),
    ), max_size=25))
    @example([("run", 4), ("emit", 0), ("run", 4), ("dispatch", 2)])  # stamped t=2 at t=8
    def test_every_line_is_in_clock_order(self, steps):
        # Events built with any timestamp and dispatched between clock
        # steps still write their lines at the clock's time.
        with pytest.MonkeyPatch.context() as patch:
            system = self._run_steps(nested_system(patch), steps)
        rendered = RunReport("clock", 0, system.clock.now, system.trace.lines(),
                             system.graph.canonical_lines()).render()
        assert verify_report(rendered) == []

    @staticmethod
    def _run_steps(built, steps):
        system, parent, child, sensor = built
        engine, hub, hosts = system.engine, system.hub, system.hosts
        agent = MobileAgent(engine.agent_for(parent),
                            (PathName(("parent", "child", "s")), PathName(("gone",))), "noop")
        for n, (op, arg) in enumerate(steps):
            now = system.clock.now
            if op == "run":
                system.run_until(now + arg)
            elif op == "dispatch":
                engine.dispatch_event(AdaptationEvent(n, sensor, "x", {}, arg))
            elif op == "emit":
                hub.emit(sensor, "x", {"v": n})
            elif op == "agent":
                hub.launch_agent(parent, agent)
            elif op == "audit":
                engine.audit_tick(parent)
            elif op == "submit":
                # A restart on h1 while it is down is refused: HostDown.
                try:
                    system.config_manager.submit(
                        ReconfigTxn(f"t{n}", (ReplaceComponent(f"c{n % 3 + 1}", "svc"),)),
                        owner=child)
                except InvalidTxn as exc:
                    assert not hosts.get("h1").up
                    assert [v.code for v in exc.report.violations] == ["HostDown"]
            elif op == "kill":
                system.kill_host("h1")
            else:
                hosts.get("h1").revive(now)
        system.run_until(system.clock.now + 10)
        return system


def _decide_every(ctx, events):
    """An action-free decision on the latest event."""
    return Decision(ctx.domain, (events[-1].event_id,), ()) if events else None


def nested_system(patch):
    """/parent/child/s with a sensor s, both domains deciding on every
    event (through `patch`), and three components on host h1."""
    patch.setitem(ANALYZERS, "every", Stage(_decide_every))
    system = System(chain_graph(3))
    system.hosts.add(Host("h1", 100.0))
    root = system.registry.create_root()
    parent = system.registry.register(Kind.DOMAIN)
    child = system.registry.register(Kind.DOMAIN)
    sensor = system.registry.register(Kind.SENSOR)
    system.registry.include(root, parent, "parent")
    system.registry.include(parent, child, "child")
    system.registry.include(child, sensor, "s")
    system.hub.register_sensor(sensor, 3)
    logic = AdaptationLogic("every", Reactive(), analyze="every")
    for domain in (parent, child):
        system.engine.load_logic(domain, logic)
    return system, parent, child, sensor


class TestAgents:
    def _setup(self, system, n=3):
        stops = []
        for i in range(n):
            obj = system.registry.register(Kind.PLAIN)
            system.registry.include(system.registry.root, obj, f"stop{i}")
            stops.append(PathName(("stop%d" % i,)))
        agent = system.registry.register(Kind.AGENT)
        system.registry.include(system.registry.root, agent, "agent")
        return agent, stops

    def test_noop_itinerary_all_ok(self, system):
        agent_id, stops = self._setup(system)
        agent = MobileAgent(agent_id, tuple(stops), "noop")
        report = system.hub.launch_agent(system.registry.root, agent)
        system.run_until(10)
        assert [o.status for o in report.outcomes] == ["ok", "ok", "ok"]
        assert report.done

    def test_stop_excluded_mid_flight_is_skipped(self, system):
        # Scripted exclusion between hops, driven through the clock.
        agent_id, stops = self._setup(system)
        agent = MobileAgent(agent_id, tuple(stops), "noop")
        report = system.hub.launch_agent(system.registry.root, agent)
        # Hops land at t=1,2,3; exclude stop1 right after the first hop.
        system.clock.schedule(1, lambda: system.registry.exclude(system.registry.root, "stop1"))
        system.run_until(10)
        assert [o.status for o in report.outcomes] == ["ok", "skipped", "ok"]

    def test_empty_itinerary(self, system):
        agent_id, _ = self._setup(system)
        with pytest.raises(EmptyItinerary):
            system.hub.launch_agent(
                system.registry.root, MobileAgent(agent_id, (), "noop")
            )

    def test_unknown_action(self, system):
        agent_id, stops = self._setup(system)
        with pytest.raises(UnknownAction):
            system.hub.launch_agent(
                system.registry.root, MobileAgent(agent_id, tuple(stops), "warp")
            )

    def test_failing_action_is_reported_not_raised(self, system):
        agent_id, stops = self._setup(system)

        def explode(path, target):
            raise RuntimeError("boom")

        system.hub.register_action("explode", explode)
        agent = MobileAgent(agent_id, tuple(stops[:1]), "explode")
        report = system.hub.launch_agent(system.registry.root, agent)
        system.run_until(10)
        assert report.outcomes[0].status == "failed"
        assert report.outcomes[0].reason == "RuntimeError"

    def test_progress_no_stop_visited_twice(self, system):
        agent_id, stops = self._setup(system, n=4)
        agent = MobileAgent(agent_id, tuple(stops), "noop")
        report = system.hub.launch_agent(system.registry.root, agent)
        system.run_until(10)
        assert len(report.outcomes) == len(agent.itinerary)
        hops = [e for e in of_kind(system.trace, "agent_hop")]
        visited = [e.get("stop") for e in hops]
        assert len(visited) == len(set(visited)) == 4

    def test_summary_event_emitted(self, system):
        agent_id, stops = self._setup(system)
        agent = MobileAgent(agent_id, tuple(stops), "noop")
        system.hub.launch_agent(system.registry.root, agent)
        system.run_until(10)
        events = of_kind(system.trace, "event")
        assert any(e.get("type") == "agent_report" for e in events)

    def test_acting_object_symmetry(self, system):
        # One object serving as both sensor and agent: its emissions and
        # its hops appear in the same trace, ordered by virtual time.
        actor = system.registry.register(Kind.AGENT)
        system.registry.include(system.registry.root, actor, "actor")
        system.hub.register_sensor(actor, 0)
        system.run_until(1)
        system.hub.emit(actor, "observation", {})
        target = system.registry.register(Kind.PLAIN)
        system.registry.include(system.registry.root, target, "t")
        system.clock.run_until(2)
        agent = MobileAgent(actor, (PathName(("t",)),), "noop")
        system.hub.launch_agent(system.registry.root, agent)
        system.run_until(10)
        kinds = [(e.time, e.kind) for e in entries(system.trace)
                 if e.kind in ("event", "agent_hop")]
        assert kinds == sorted(kinds, key=lambda x: x[0])
        assert {k for _, k in kinds} == {"event", "agent_hop"}
