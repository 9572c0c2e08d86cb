"""Pipelines, strategies, policies, audits, and escalation."""

import math
import random

import pytest

from adaptdom.adaptation import (
    ANALYZERS,
    AdaptationLogic,
    Decision,
    Policy,
    PolicySource,
    Proactive,
    Reactive,
    Retroactive,
    plan_placement_moves,
)
from adaptdom.confgraph import Component, ConfigGraph, MoveComponent
from adaptdom.errors import (
    ConsistencyRejected,
    InvalidPolicy,
    NoLogicLoaded,
    NoParent,
    NotADomain,
    PolicySuppressed,
    UnknownSensor,
    UnknownStage,
)
from adaptdom.registry import Kind
from adaptdom.sensing import AdaptationCommand, AdaptationEvent
from adaptdom.system import Host, System


def healing_system(cooldown=0, enabled=True, count=1):
    """Two hosts, two components on hostA, reactive healing on /healing."""
    system = System()
    root = system.registry.create_root()
    healing = system.registry.register(Kind.DOMAIN)
    system.registry.include(root, healing, "healing")
    host_a = system.registry.register(Kind.PLAIN)
    host_b = system.registry.register(Kind.PLAIN)
    system.registry.include(healing, host_a, "hostA")
    system.registry.include(healing, host_b, "hostB")
    sensor = system.registry.register(Kind.SENSOR)
    system.registry.include(healing, sensor, "live")
    system.hub.register_sensor(sensor, 30)
    system.hosts.add(Host("hostA", 1000.0))
    system.hosts.add(Host("hostB", 1000.0))
    system.bind_host_object("hostA", host_a)
    system.bind_host_object("hostB", host_b)
    system.config_manager.graph = ConfigGraph({
        "w1": Component("web", "hostA"),
        "w2": Component("web", "hostA"),
        "x1": Component("db", "hostB"),
    })
    logic = AdaptationLogic(
        name="healing",
        strategy=Reactive(),
        analyze="failure_count",
        monitor="event_type_filter",
        params={"event_types": "host_failed", "count": count,
                "placement_weight": 1.0},
    )
    directives = {"cooldown": cooldown} if cooldown else {}
    system.engine.load_logic(healing, logic, Policy(directives=directives, enabled=enabled))
    return system, healing, sensor


@pytest.fixture
def marker_analyzer():
    """A trivial analyzer producing an action-free decision per event."""

    def analyze(ctx, events):
        if not events:
            return None
        return Decision(ctx.domain, (events[-1].event_id,), ())

    ANALYZERS["marker"] = analyze
    yield "marker"
    del ANALYZERS["marker"]


@pytest.fixture
def bad_target_analyzer():
    def analyze(ctx, events):
        if not events:
            return None
        return Decision(ctx.domain, (events[-1].event_id,), (),
                        target_paths=("no/such/member",))

    ANALYZERS["bad_target"] = analyze
    yield "bad_target"
    del ANALYZERS["bad_target"]


class TestLoadUnload:
    def test_member_sensor_events_run_the_pipeline(self):
        system, healing, sensor = healing_system()
        system.hub.emit(sensor, "host_failed", {"host": "hostA"}, 5)
        decisions = [e for e in system.trace.of_kind("decision")]
        assert len(decisions) == 1
        assert decisions[0].get("status") == "executed"

    def test_load_twice_discards_old_state(self, system, marker_analyzer):
        d = system.registry.register(Kind.DOMAIN)
        system.registry.include(system.registry.root, d, "d")
        logic = AdaptationLogic("m", Reactive(), analyze=marker_analyzer)
        system.engine.load_logic(d, logic)
        system.engine._bindings[d].stage_state["counter"] = 42
        system.engine.load_logic(d, logic)
        assert system.engine._bindings[d].stage_state == {}

    def test_load_onto_plain_object(self, system, marker_analyzer):
        obj = system.registry.register(Kind.PLAIN)
        system.registry.include(system.registry.root, obj, "o")
        with pytest.raises(NotADomain):
            system.engine.load_logic(
                obj, AdaptationLogic("m", Reactive(), analyze=marker_analyzer)
            )

    def test_unknown_stage_token(self, system):
        d = system.registry.register(Kind.DOMAIN)
        system.registry.include(system.registry.root, d, "d")
        with pytest.raises(UnknownStage):
            system.engine.load_logic(d, AdaptationLogic("m", Reactive(), analyze="nope"))

    def test_unload_keeps_recording_without_decisions(self):
        system, healing, sensor = healing_system()
        system.engine.unload_logic(healing)
        routed = system.hub.emit(sensor, "host_failed", {"host": "hostA"}, 5)
        assert system.trace.of_kind("decision") == []
        # The event still reaches /healing (and the root containing it).
        assert healing in system.registry.domains_containing(sensor)
        [event] = system.trace.of_kind("event")
        assert routed == 2
        assert event.get("domains") == "2"

    def test_unload_then_load_has_fresh_accumulators(self, system, marker_analyzer):
        d = system.registry.register(Kind.DOMAIN)
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(system.registry.root, d, "d")
        system.registry.include(d, s, "s")
        system.hub.register_sensor(s, 0)
        logic = AdaptationLogic("m", Retroactive(period=100), analyze=marker_analyzer)
        system.engine.load_logic(d, logic)
        system.hub.emit(s, "tick", {}, 1)
        assert len(system.engine._bindings[d].accumulated) == 1
        system.engine.unload_logic(d)
        system.engine.load_logic(d, logic)
        assert system.engine._bindings[d].accumulated == []

    def test_unload_never_loaded(self, system):
        d = system.registry.register(Kind.DOMAIN)
        system.registry.include(system.registry.root, d, "d")
        with pytest.raises(NoLogicLoaded):
            system.engine.unload_logic(d)


class TestDispatch:
    def test_sensor_in_two_domains_reaches_both(self, system, marker_analyzer):
        d1 = system.registry.register(Kind.DOMAIN)
        d2 = system.registry.register(Kind.DOMAIN)
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(system.registry.root, d1, "a")
        system.registry.include(system.registry.root, d2, "b")
        system.registry.include(d1, s, "s")
        system.registry.include(d2, s, "s")
        system.hub.register_sensor(s, 0)
        logic = AdaptationLogic("m", Reactive(), analyze=marker_analyzer)
        system.engine.load_logic(d1, logic)
        system.engine.load_logic(d2, logic)
        event = AdaptationEvent(99, s, "tick", {}, 3)
        results = system.engine.dispatch_event(event)
        domains = [d for d, _ in results]
        assert set(domains) >= {d1, d2}
        assert all(dec is not None for d, dec in results if d in (d1, d2))

    def test_event_in_logic_free_domain_recorded_only(self, system):
        d = system.registry.register(Kind.DOMAIN)
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(system.registry.root, d, "d")
        system.registry.include(d, s, "s")
        system.hub.register_sensor(s, 0)
        event = AdaptationEvent(1, s, "tick", {}, 0)
        results = system.engine.dispatch_event(event)
        assert all(dec is None for _, dec in results)
        assert [dom for dom, _ in results].count(d) == 1

    def test_unregistered_sensor_rejected(self, system):
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(system.registry.root, s, "s")
        with pytest.raises(UnknownSensor):
            system.engine.dispatch_event(AdaptationEvent(1, s, "tick", {}, 0))

    def test_reactive_failure_produces_restart_moves(self):
        # Scripted scenario with one valid placement: everything from the
        # dead hostA must land on hostB.
        system, healing, sensor = healing_system()
        system.hosts.get("hostA").kill(5)
        system.config_manager.mark_host_down("hostA", 5)
        system.hub.emit(sensor, "host_failed", {"host": "hostA"}, 5)
        system.run_until(10)
        graph = system.graph
        assert graph.components["w1"].host == "hostB"
        assert graph.components["w2"].host == "hostB"
        assert all(c.state.value == "active" for c in graph.components.values())


class TestRunPipeline:
    def test_empty_inputs_reactive_no_scenario(self):
        system, healing, _ = healing_system()
        assert system.engine.run_pipeline(healing, []) is None

    def test_no_logic_raises(self, system):
        d = system.registry.register(Kind.DOMAIN)
        system.registry.include(system.registry.root, d, "d")
        with pytest.raises(NoLogicLoaded):
            system.engine.run_pipeline(d, [])

    def test_nonexistent_target_is_consistency_rejected(self, system, bad_target_analyzer):
        d = system.registry.register(Kind.DOMAIN)
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(system.registry.root, d, "d")
        system.registry.include(d, s, "s")
        system.hub.register_sensor(s, 0)
        system.engine.load_logic(d, AdaptationLogic("m", Reactive(), analyze=bad_target_analyzer))
        event = AdaptationEvent(1, s, "tick", {}, 0)
        with pytest.raises(ConsistencyRejected):
            system.engine.run_pipeline(d, [event])
        decisions = system.trace.of_kind("decision")
        assert decisions and decisions[-1].get("ok") == "0"

    def test_refire_within_cooldown_yields_one_scenario(self):
        # Oracle: count executed scenarios in the replayed trace.
        system, healing, sensor = healing_system(cooldown=50, count=1)
        system.hosts.get("hostA").kill(5)
        system.config_manager.mark_host_down("hostA", 5)
        system.hub.emit(sensor, "host_failed", {"host": "hostA"}, 5)
        # Undo the heal so the same decision would be proposed again.
        system.run_until(10)
        from adaptdom.confgraph import MoveComponent, ReconfigTxn, apply as apply_txn

        system.config_manager.graph = apply_txn(system.graph, ReconfigTxn(
            "undo", (MoveComponent("w1", "hostA"), MoveComponent("w2", "hostA"))
        ))
        system.hub.emit(sensor, "host_failed", {"host": "hostA"}, 20)
        system.run_until(30)
        scenarios = system.trace.of_kind("scenario")
        assert len(scenarios) == 1
        sigs = [e.get("status") for e in system.trace.of_kind("decision")]
        assert sigs.count("cooldown_suppressed") == 1

    def test_policy_disabled_raises_on_direct_call(self):
        system, healing, sensor = healing_system(enabled=False)
        system.hosts.get("hostA").kill(5)
        system.config_manager.mark_host_down("hostA", 5)
        event = AdaptationEvent(1, sensor, "host_failed", {"host": "hostA"}, 5)
        with pytest.raises(PolicySuppressed):
            system.engine.run_pipeline(healing, [event])

    def test_policy_monotonicity(self):
        # Disabling the policy empties the executed-action set but leaves
        # the decision set unchanged.
        traces = {}
        for enabled in (True, False):
            system, healing, sensor = healing_system(enabled=enabled)
            system.hosts.get("hostA").kill(5)
            system.config_manager.mark_host_down("hostA", 5)
            system.hub.emit(sensor, "host_failed", {"host": "hostA"}, 5)
            system.run_until(10)
            traces[enabled] = system.trace
        d_on = [e.get("cause") for e in traces[True].of_kind("decision")]
        d_off = [e.get("cause") for e in traces[False].of_kind("decision")]
        assert d_on == d_off
        assert traces[True].of_kind("txn_submit")
        assert not traces[False].of_kind("txn_submit")
        assert not traces[False].of_kind("scenario")

    def test_failure_count_respects_window(self):
        system, healing, sensor = healing_system(count=2)
        logic = system.engine.logic_of(healing)
        system.engine.load_logic(healing, AdaptationLogic(
            name=logic.name, strategy=logic.strategy, analyze=logic.analyze,
            monitor=logic.monitor,
            params={**logic.params, "count": 2, "window": 10},
        ))
        system.hosts.get("hostA").kill(0)
        system.config_manager.mark_host_down("hostA", 0)
        # Two failures 50 ticks apart never coincide in a 10-tick window.
        system.hub.emit(sensor, "host_failed", {"host": "hostA"}, 0)
        system.hub.emit(sensor, "host_failed", {"host": "hostA"}, 50)
        assert system.trace.of_kind("decision") == []
        # Two failures 5 ticks apart do.
        system.hub.emit(sensor, "host_failed", {"host": "hostA"}, 60)
        system.hub.emit(sensor, "host_failed", {"host": "hostA"}, 65)
        assert len(system.trace.of_kind("decision")) == 1

    def test_max_actions_per_window(self, system, marker_analyzer):
        d = system.registry.register(Kind.DOMAIN)
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(system.registry.root, d, "d")
        system.registry.include(d, s, "s")
        system.hub.register_sensor(s, 0)
        system.engine.load_logic(
            d,
            AdaptationLogic("m", Reactive(), analyze=marker_analyzer),
            Policy(directives={"max_actions_per_window": 2, "window": 100}),
        )
        for t in range(4):
            system.hub.emit(s, "tick", {"n": t}, t)
        statuses = [e.get("status") for e in system.trace.of_kind("decision")]
        assert statuses == ["executed", "executed", "policy_suppressed", "policy_suppressed"]


class TestStrategies:
    def test_retroactive_fires_only_at_boundaries(self, system, marker_analyzer):
        d = system.registry.register(Kind.DOMAIN)
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(system.registry.root, d, "d")
        system.registry.include(d, s, "s")
        system.hub.register_sensor(s, 0)
        system.engine.load_logic(
            d, AdaptationLogic("m", Retroactive(period=10), analyze=marker_analyzer)
        )
        for t in (1, 3, 7, 12, 18, 23):
            system.clock.schedule(t, lambda t=t: system.hub.emit(s, "tick", {}, t))
        system.run_until(40)
        scenario_times = [e.time for e in system.trace.of_kind("scenario")]
        assert scenario_times  # batches did evaluate
        assert all(t % 10 == 0 for t in scenario_times)
        decision_times = [e.time for e in system.trace.of_kind("decision")]
        assert all(t % 10 == 0 for t in decision_times)

    def test_proactive_guard_crossing_rejuvenates(self):
        system = System()
        root = system.registry.create_root()
        rejuv = system.registry.register(Kind.DOMAIN)
        system.registry.include(root, rejuv, "rejuv")
        host_obj = system.registry.register(Kind.PLAIN)
        system.registry.include(rejuv, host_obj, "hostA")
        sensor = system.registry.register(Kind.SENSOR)
        system.registry.include(rejuv, sensor, "res")
        system.hub.register_sensor(sensor, 30)
        system.hosts.add(Host("hostA", 1000.0))
        system.bind_host_object("hostA", host_obj)
        system.config_manager.graph = ConfigGraph({
            "r1": Component("svc", "hostA"),
        })
        system.engine.load_logic(rejuv, AdaptationLogic(
            "rejuv", Proactive(window=100, critical=0.0, margin=100.0),
            analyze="linear_forecast",
        ))
        resets = []
        system.hub.register_action(
            "reset_host_resource",
            lambda ctx, path, target: resets.append(str(path)),
        )
        level = 1000.0
        t = 0
        fired = None
        while t <= 100:
            system.clock.run_until(t)
            system.hub.emit(sensor, "resource_sample", {"host": "hostA", "level": level}, t)
            if system.trace.of_kind("decision"):
                fired = (t, level)
                break
            level -= 100.0
            t += 10
        assert fired is not None
        assert fired[1] <= 100.0  # only once the guard level was crossed
        system.run_until(t + 10)
        assert resets == ["/rejuv/hostA"]
        replaced = system.trace.of_kind("txn_commit")
        assert replaced and "r1" in replaced[0].get("components")

    def test_flapping_sensor_bounded_by_cooldown(self, system, marker_analyzer):
        d = system.registry.register(Kind.DOMAIN)
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(system.registry.root, d, "d")
        system.registry.include(d, s, "s")
        system.hub.register_sensor(s, 0)
        cooldown = 25
        system.engine.load_logic(
            d, AdaptationLogic("m", Reactive(), analyze=marker_analyzer),
            Policy(directives={"cooldown": cooldown}),
        )
        horizon = 200
        for t in range(0, horizon, 5):  # interval 5 < cooldown 25
            system.hub.emit(s, "same_fault", {}, t)
        executed = len(system.trace.of_kind("scenario"))
        assert executed <= math.ceil(horizon / cooldown)
        assert executed >= 1

    def test_analyze_is_replay_deterministic(self):
        def run_once():
            system, healing, sensor = healing_system()
            system.hosts.get("hostA").kill(5)
            system.config_manager.mark_host_down("hostA", 5)
            system.hub.emit(sensor, "host_failed", {"host": "hostA"}, 5)
            system.run_until(20)
            return system.trace.lines()

        assert run_once() == run_once()


class TestCommandsIntoPipeline:
    def test_set_policy_updates_child(self):
        system, healing, _ = healing_system()
        result = system.hub.send_command(AdaptationCommand(
            system.registry.root, healing, "set_policy",
            {"cooldown": 75, "enabled": 1},
        ))
        assert result.handled
        policy = system.engine.policy_of(healing)
        assert policy.directives["cooldown"] == 75.0
        assert policy.source is PolicySource.PARENT_DOMAIN

    def test_unknown_policy_key_is_unhandled(self):
        system, healing, _ = healing_system()
        result = system.hub.send_command(AdaptationCommand(
            system.registry.root, healing, "set_policy", {"mystery": 1},
        ))
        assert not result.handled

    def test_other_verbs_enter_at_analyze(self, system, marker_analyzer):
        d = system.registry.register(Kind.DOMAIN)
        system.registry.include(system.registry.root, d, "d")
        # The monitor filter would reject command inputs; entering at
        # analyze bypasses it, so the command is handled anyway.
        system.engine.load_logic(d, AdaptationLogic(
            "m", Reactive(), analyze=marker_analyzer,
            monitor="event_type_filter", params={"event_types": "nothing"},
        ))
        result = system.hub.send_command(
            AdaptationCommand(system.registry.root, d, "poke", {}), now=3
        )
        assert result.handled


class TestAudit:
    def test_healthy_tree_is_clean(self):
        system, healing, sensor = healing_system()
        system.hub.emit(sensor, "host_failed", {"host": "hostB"}, 1)
        findings = system.engine.audit_tick(healing, 2)
        assert findings == []

    def test_stale_sensor_detected(self):
        system, healing, sensor = healing_system()
        system.hub.emit(sensor, "host_failed", {"host": "hostB"}, 1)
        findings = system.engine.audit_tick(healing, 100)
        assert any(f.kind == "sensor_stale" and f.subject == sensor for f in findings)

    def test_never_emitting_sensor_is_stale(self):
        system, healing, sensor = healing_system()
        findings = system.engine.audit_tick(healing, 31)
        assert any(f.kind == "sensor_stale" for f in findings)

    def test_dangling_reference_after_exclusion(self):
        system, healing, sensor = healing_system()
        system.hosts.get("hostA").kill(5)
        system.config_manager.mark_host_down("hostA", 5)
        system.hub.emit(sensor, "host_failed", {"host": "hostA"}, 5)
        system.run_until(10)
        system.hub.emit(sensor, "host_failed", {"host": "hostB"}, 12)
        system.registry.exclude(healing, "hostA")
        findings = system.engine.audit_tick(healing, 20)
        assert any(f.kind == "dangling_reference" and f.detail == "hostA" for f in findings)

    def test_orphans_reported(self):
        system, healing, sensor = healing_system()
        system.hub.emit(sensor, "host_failed", {"host": "hostB"}, 1)
        stray = system.registry.register(Kind.PLAIN)
        findings = system.engine.audit_tick(healing, 2)
        assert any(f.kind == "orphaned_object" and f.subject == stray for f in findings)

    def test_findings_become_events(self):
        system, healing, sensor = healing_system()
        findings = system.engine.audit_tick(healing, 100)
        routed = system.engine.findings_to_events(findings, sensor, 101)
        assert routed >= len(findings)


class TestPropagation:
    def test_child_escalates_to_parent(self, system, marker_analyzer):
        parent = system.registry.register(Kind.DOMAIN)
        child = system.registry.register(Kind.DOMAIN)
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(system.registry.root, parent, "parent")
        system.registry.include(parent, child, "child")
        system.registry.include(child, s, "s")
        system.hub.register_sensor(s, 0)
        system.engine.load_logic(
            parent, AdaptationLogic("escalation", Reactive(), analyze=marker_analyzer)
        )
        event = AdaptationEvent(7, s, "unresolved_failure", {}, 4)
        before = len(system.trace.of_kind("decision"))
        system.engine.propagate_to_parent(child, event)
        decisions = system.trace.of_kind("decision")
        assert len(decisions) == before + 1

    def test_root_has_no_parent(self, system):
        event = AdaptationEvent(1, system.registry.root, "x", {}, 0)
        with pytest.raises(NoParent):
            system.engine.propagate_to_parent(system.registry.root, event)

    def test_provenance_grows_by_one_per_hop(self, system, marker_analyzer):
        a = system.registry.register(Kind.DOMAIN)
        b = system.registry.register(Kind.DOMAIN)
        system.registry.include(system.registry.root, a, "a")
        system.registry.include(a, b, "b")
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(b, s, "s")
        system.hub.register_sensor(s, 0)
        seen = []

        def spy(ctx, events):
            seen.extend(events)
            return None

        ANALYZERS["spy"] = spy
        try:
            system.engine.load_logic(a, AdaptationLogic("spy", Reactive(), analyze="spy"))
            event = AdaptationEvent(9, s, "x", {}, 2)
            assert event.provenance == ()
            system.engine.propagate_to_parent(b, event)
            assert len(seen) == 1 and seen[0].provenance == (b,)
        finally:
            del ANALYZERS["spy"]


def test_policy_rejects_unknown_directives():
    with pytest.raises(InvalidPolicy):
        Policy(directives={"not_a_key": 1})


class _HostView:
    def __init__(self, levels, down):
        self.levels, self.down = levels, down

    def host_ids(self):
        return sorted(self.levels)

    def host_is_up(self, host_id):
        return host_id not in self.down

    def resource_level(self, host_id):
        return self.levels[host_id]


def _reference_placement(graph, hosts, from_host, weight):
    """The whole-graph linear scan the planner replaced."""
    candidates = sorted(
        h for h in hosts.host_ids() if h != from_host and hosts.host_is_up(h)
    )
    if not candidates:
        return []
    counts = {h: 0 for h in candidates}
    for comp in graph.components.values():
        if comp.host in counts:
            counts[comp.host] += 1
    moves = []
    for cid in graph.components_on(from_host):
        target, target_free = None, 0.0
        for h in candidates:
            free = hosts.resource_level(h) - weight * counts[h]
            if target is None or free > target_free:
                target, target_free = h, free
        moves.append(MoveComponent(cid, target))
        counts[target] += 1
    return moves


@pytest.mark.parametrize("seed", range(40))
def test_placement_matches_linear_scan_reference(seed):
    rng = random.Random(seed)
    names = [f"h{i}" for i in range(rng.randrange(1, 7))]
    # Few distinct levels and weights, so ties between hosts are common.
    hosts = _HostView(
        {h: rng.choice([50.0, 100.0, 100.5]) for h in names},
        {h for h in names if rng.random() < 0.2},
    )
    graph = ConfigGraph({
        f"c{i}": Component("svc", rng.choice(names)) for i in range(rng.randrange(12))
    })
    weight = rng.choice([0.0, 0.5, 1.0, 3.0, -1.0])
    for from_host in names:
        assert plan_placement_moves(graph, hosts, from_host, weight) == \
            _reference_placement(graph, hosts, from_host, weight)
