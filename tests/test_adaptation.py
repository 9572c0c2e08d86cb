"""Pipelines, strategies, policies, audits, and routing to parent domains."""

import dataclasses
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
    Stage,
    plan_placement_moves,
)
from adaptdom.confgraph import (
    Component,
    ConfigGraph,
    MoveComponent,
    ReconfigTxn,
)
from adaptdom.errors import (
    NoLogicLoaded,
    NotADomain,
    ScenarioParseError,
    UnknownSensor,
    UnknownStage,
)
from adaptdom.persistence import load_config, save_config
from adaptdom.registry import Kind
from adaptdom.report import RunReport, verify_report
from adaptdom.sensing import AdaptationEvent
from adaptdom.system import Host, System

from conftest import SCENARIOS, commit, of_kind


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

    ANALYZERS["marker"] = Stage(analyze)
    yield "marker"
    del ANALYZERS["marker"]


@pytest.fixture
def bad_target_analyzer():
    def analyze(ctx, events):
        if not events:
            return None
        return Decision(ctx.domain, (events[-1].event_id,), (),
                        target_paths=("no/such/member",))

    ANALYZERS["bad_target"] = Stage(analyze)
    yield "bad_target"
    del ANALYZERS["bad_target"]


class TestLoadUnload:
    def test_member_sensor_events_run_the_pipeline(self):
        system, healing, sensor = healing_system()
        system.run_until(5)
        system.hub.emit(sensor, "host_failed", {"host": "hostA"})
        decisions = [e for e in of_kind(system.trace, "decision")]
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
        system.run_until(5)
        routed = system.hub.emit(sensor, "host_failed", {"host": "hostA"})
        assert of_kind(system.trace, "decision") == []
        # The event still reaches /healing (and the root containing it).
        assert healing in system.registry.domains_containing(sensor)
        [event] = of_kind(system.trace, "event")
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
        system.run_until(1)
        system.hub.emit(s, "tick", {})
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
        system.kill_host("hostA")
        system.run_until(5)
        system.hub.emit(sensor, "host_failed", {"host": "hostA"})
        system.run_until(10)
        graph = system.graph
        assert graph.components["w1"].host == "hostB"
        assert graph.components["w2"].host == "hostB"
        assert all(c.state.value == "active" for c in graph.components.values())


class TestRecords:
    """The shapes the event path hands around once it is prepared."""

    def test_dispatch_returns_every_containing_domain_in_order(self, system, marker_analyzer):
        # / holds a, a holds b, and / holds c; the sensor is in b and c.
        root = system.registry.root
        a, b, c = (system.registry.register(Kind.DOMAIN) for _ in range(3))
        system.registry.include(root, a, "a")
        system.registry.include(a, b, "b")
        system.registry.include(root, c, "c")
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(b, s, "s")
        system.registry.include(c, s, "s")
        system.hub.register_sensor(s, 0)
        system.engine.load_logic(a, AdaptationLogic("m", Reactive(), analyze=marker_analyzer))
        system.engine.load_logic(c, AdaptationLogic("m", Retroactive(period=10),
                                                    analyze=marker_analyzer))
        routes = []
        for n in range(2):  # the second dispatch takes the cached route
            results = system.engine.dispatch_event(AdaptationEvent(n, s, "x", {}, 0))
            assert [domain for domain, _ in results] == sorted((root, a, b, c))
            assert [domain for domain, decision in results if decision is not None] == [a]
            assert dict(results)[a].cause == (n,)
            # A domain's own event reaches that domain alone, by a route kept as well.
            [(domain, decision)] = system.engine.dispatch_event(AdaptationEvent(n, a, "x", {}, 0))
            assert domain == a and decision.cause == (n,)
            routes.append(system.engine._routes[a])
        assert len(system.engine._bindings[c].accumulated) == 2
        assert routes[0] is routes[1]

    def test_no_decision_is_one_frozen_outcome(self, system, marker_analyzer):
        d = system.registry.register(Kind.DOMAIN)
        system.registry.include(system.registry.root, d, "d")
        system.engine.load_logic(d, AdaptationLogic("m", Reactive(), analyze=marker_analyzer))
        binding = system.engine._bindings[d]
        first = system.engine._pipeline(d, binding, [])
        assert first.status == "no_decision" and first.decision is None
        assert system.engine._pipeline(d, binding, []) is first
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.status = "executed"


class TestRunPipeline:
    def test_empty_inputs_reactive_no_scenario(self):
        # The monitor drops an event of another type: analyze gets no input.
        system, _, sensor = healing_system()
        system.hub.emit(sensor, "tick", {})
        assert of_kind(system.trace, "decision") == []
        assert of_kind(system.trace, "scenario") == []

    def test_no_logic_raises(self, system):
        d = system.registry.register(Kind.DOMAIN)
        system.registry.include(system.registry.root, d, "d")
        with pytest.raises(NoLogicLoaded):
            system.engine.retro_boundary(d)

    def test_nonexistent_target_is_consistency_rejected(self, system, bad_target_analyzer):
        d = system.registry.register(Kind.DOMAIN)
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(system.registry.root, d, "d")
        system.registry.include(d, s, "s")
        system.hub.register_sensor(s, 0)
        system.engine.load_logic(d, AdaptationLogic("m", Reactive(), analyze=bad_target_analyzer))
        system.hub.emit(s, "tick", {})
        decisions = of_kind(system.trace, "decision")
        assert decisions and decisions[-1].get("ok") == "0"
        assert decisions[-1].get("status") == "consistency_rejected"

    def test_refire_within_cooldown_yields_one_scenario(self):
        # Oracle: count executed scenarios in the replayed trace.
        system, healing, sensor = healing_system(cooldown=50, count=1)
        system.kill_host("hostA")
        system.run_until(5)
        system.hub.emit(sensor, "host_failed", {"host": "hostA"})
        # Undo the heal so the same decision would be proposed again.
        system.run_until(10)
        commit(system.graph, ReconfigTxn(
            "undo", (MoveComponent("w1", "hostA"), MoveComponent("w2", "hostA"))
        ))
        system.run_until(20)
        system.hub.emit(sensor, "host_failed", {"host": "hostA"})
        system.run_until(30)
        scenarios = of_kind(system.trace, "scenario")
        assert len(scenarios) == 1
        sigs = [e.get("status") for e in of_kind(system.trace, "decision")]
        assert sigs.count("cooldown_suppressed") == 1

    def test_policy_disabled_suppresses_execution(self):
        system, healing, sensor = healing_system(enabled=False)
        system.kill_host("hostA")
        system.run_until(5)
        system.hub.emit(sensor, "host_failed", {"host": "hostA"})
        [decision] = of_kind(system.trace, "decision")
        assert decision.get("status") == "policy_suppressed"

    def test_policy_monotonicity(self):
        # Disabling the policy empties the executed-action set but leaves
        # the decision set unchanged.
        traces = {}
        for enabled in (True, False):
            system, healing, sensor = healing_system(enabled=enabled)
            system.kill_host("hostA")
            system.run_until(5)
            system.hub.emit(sensor, "host_failed", {"host": "hostA"})
            system.run_until(10)
            traces[enabled] = system.trace
        d_on = [e.get("cause") for e in of_kind(traces[True], "decision")]
        d_off = [e.get("cause") for e in of_kind(traces[False], "decision")]
        assert d_on == d_off
        assert of_kind(traces[True], "txn_submit")
        assert not of_kind(traces[False], "txn_submit")
        assert not of_kind(traces[False], "scenario")

    def test_failure_count_respects_window(self):
        system, healing, sensor = healing_system(count=2)
        logic = system.engine.logic_of(healing)
        system.engine.load_logic(healing, AdaptationLogic(
            name=logic.name, strategy=logic.strategy, analyze=logic.analyze,
            monitor=logic.monitor,
            params={**logic.params, "count": 2, "window": 10},
        ))
        system.kill_host("hostA")
        # Two failures 50 ticks apart never coincide in a 10-tick window.
        system.hub.emit(sensor, "host_failed", {"host": "hostA"})
        system.run_until(50)
        system.hub.emit(sensor, "host_failed", {"host": "hostA"})
        assert of_kind(system.trace, "decision") == []
        # Two failures 5 ticks apart do.
        system.run_until(60)
        system.hub.emit(sensor, "host_failed", {"host": "hostA"})
        system.run_until(65)
        system.hub.emit(sensor, "host_failed", {"host": "hostA"})
        assert len(of_kind(system.trace, "decision")) == 1

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
            system.run_until(t)
            system.hub.emit(s, "tick", {"n": t})
        statuses = [e.get("status") for e in of_kind(system.trace, "decision")]
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
            system.clock.schedule(t, lambda: system.hub.emit(s, "tick", {}))
        system.run_until(40)
        scenario_times = [e.time for e in of_kind(system.trace, "scenario")]
        assert scenario_times  # batches did evaluate
        assert all(t % 10 == 0 for t in scenario_times)
        decision_times = [e.time for e in of_kind(system.trace, "decision")]
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
            lambda path, target: resets.append(str(path)),
        )
        level = 1000.0
        t = 0
        fired = None
        while t <= 100:
            system.clock.run_until(t)
            system.hub.emit(sensor, "resource_sample", {"host": "hostA", "level": level})
            if of_kind(system.trace, "decision"):
                fired = (t, level)
                break
            level -= 100.0
            t += 10
        assert fired is not None
        assert fired[1] <= 100.0  # only once the guard level was crossed
        system.run_until(t + 10)
        assert resets == ["/rejuv/hostA"]
        replaced = of_kind(system.trace, "txn_commit")
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
            system.run_until(t)
            system.hub.emit(s, "same_fault", {})
        executed = len(of_kind(system.trace, "scenario"))
        assert executed <= math.ceil(horizon / cooldown)
        assert executed >= 1

    def test_analyze_is_replay_deterministic(self):
        def run_once():
            system, healing, sensor = healing_system()
            system.kill_host("hostA")
            system.run_until(5)
            system.hub.emit(sensor, "host_failed", {"host": "hostA"})
            system.run_until(20)
            return system.trace.lines()

        assert run_once() == run_once()


def edited_healing(old: str, new: str) -> bytes:
    """The shipped healing scenario with its line `old` replaced by `new`."""
    with open(SCENARIOS["healing"]) as fh:
        text = fh.read()
    assert f"\n{old}\n" in text
    return text.replace(f"\n{old}\n", f"\n{new}\n").encode()


class TestCommandsIntoPipeline:
    """The policy a parent domain sets on a child's pipeline, carried by the
    document as `policy.source = parent` and the `policy.*` directives."""

    def test_set_policy_updates_child(self):
        text = edited_healing("policy.source = human", "policy.source = parent")
        system = load_config(text.replace(b"\npolicy.cooldown = 50\n", b"\npolicy.cooldown = 75\n"))
        [healing] = system.engine.bound_domains()
        policy = system.engine.policy_of(healing)
        assert policy.directives["cooldown"] == 75.0
        assert policy.source is PolicySource.PARENT_DOMAIN
        saved = save_config(system).decode()
        assert saved.count("\npolicy.source = parent\n") == 1
        assert saved.count("\npolicy.cooldown = 75.0\n") == 1

    def test_unknown_policy_key_is_unhandled(self):
        # A misspelled directive is a parse error naming the key, not a
        # policy with the key silently dropped.
        text = edited_healing("policy.cooldown = 50", "policy.mystery = 1")
        with pytest.raises(ScenarioParseError,
                           match="logic /healing key policy.mystery: not a policy key"):
            load_config(text)


class TestAudit:
    def test_healthy_tree_is_clean(self):
        system, healing, sensor = healing_system()
        system.run_until(1)
        system.hub.emit(sensor, "host_failed", {"host": "hostB"})
        system.run_until(2)
        findings = system.engine.audit_tick(healing)
        assert findings == []

    def test_stale_sensor_detected(self):
        system, healing, sensor = healing_system()
        system.run_until(1)
        system.hub.emit(sensor, "host_failed", {"host": "hostB"})
        system.run_until(100)
        findings = system.engine.audit_tick(healing)
        assert any(f.kind == "sensor_stale" and f.subject == sensor for f in findings)

    def test_never_emitting_sensor_is_stale(self):
        system, healing, sensor = healing_system()
        system.run_until(31)
        findings = system.engine.audit_tick(healing)
        assert any(f.kind == "sensor_stale" for f in findings)

    def test_dangling_reference_after_exclusion(self):
        system, healing, sensor = healing_system()
        system.kill_host("hostA")
        system.run_until(5)
        system.hub.emit(sensor, "host_failed", {"host": "hostA"})
        system.run_until(10)
        system.run_until(12)
        system.hub.emit(sensor, "host_failed", {"host": "hostB"})
        system.registry.exclude(healing, "hostA")
        system.run_until(20)
        findings = system.engine.audit_tick(healing)
        assert any(f.kind == "dangling_reference" and f.detail == "hostA" for f in findings)

    def test_orphans_reported(self):
        system, healing, sensor = healing_system()
        system.run_until(1)
        system.hub.emit(sensor, "host_failed", {"host": "hostB"})
        stray = system.registry.register(Kind.PLAIN)
        system.run_until(2)
        findings = system.engine.audit_tick(healing)
        assert any(f.kind == "orphaned_object" and f.subject == stray for f in findings)

    def test_audit_then_emit_replays_clean(self):
        # An audit is stamped with the clock's time, like the emit after it.
        system, healing, sensor = healing_system()
        system.run_until(40)
        findings = system.engine.audit_tick(healing)
        system.hub.emit(sensor, "host_failed", {"host": "hostB"})
        system.run_until(50)
        assert findings
        assert {e.time for e in of_kind(system.trace, "audit")} == {40}
        report = RunReport("audit", 0, 50, system.trace.lines(), system.graph.canonical_lines())
        assert verify_report(report.render()) == []

    def test_retro_boundary_then_emit_replays_clean(self):
        # A boundary is stamped with the clock's time, like the emit after it.
        system, healing, sensor = healing_system()
        assert system.clock.now == 0
        system.run_until(100)
        system.engine.retro_boundary(healing)
        system.hub.emit(sensor, "host_failed", {"host": "hostB"})
        assert {e.time for e in of_kind(system.trace, "retro_boundary")} == {100}
        report = RunReport("retro", 0, 100, system.trace.lines(), system.graph.canonical_lines())
        assert verify_report(report.render()) == []


class TestPropagation:
    """A sensor's event reaches every domain above it, so a child domain's
    events reach its parent's logic with no step of their own."""

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
        assert system.hub.emit(s, "unresolved_failure", {}) == 3  # child, parent, root
        [decision] = of_kind(system.trace, "decision")
        assert decision.get("domain") == str(parent)

    def test_root_has_no_parent(self, system):
        root = system.registry.root
        assert system.registry.domains_containing(root) == ()
        assert system.hub.emit(root, "x", {}) == 1
        assert [dom for dom, _ in system.engine.dispatch_event(
            AdaptationEvent(1, root, "x", {}, 0))] == [root]

    def test_provenance_grows_by_one_per_hop(self, system):
        a = system.registry.register(Kind.DOMAIN)
        b = system.registry.register(Kind.DOMAIN)
        system.registry.include(system.registry.root, a, "a")
        system.registry.include(a, b, "b")
        s = system.registry.register(Kind.SENSOR)
        system.registry.include(b, s, "s")
        system.hub.register_sensor(s, 0)
        seen = []

        def spy(ctx, events):
            seen.extend((ctx.domain, event) for event in events)
            return None

        ANALYZERS["spy"] = Stage(spy)
        try:
            for domain in (a, b):
                system.engine.load_logic(domain, AdaptationLogic("spy", Reactive(), analyze="spy"))
            system.hub.emit(s, "x", {})
            # Each domain up the chain sees the one event, whose source is
            # one name further from it than from the domain below.
            assert sorted(domain for domain, _ in seen) == sorted((a, b))
            assert len({(event.event_id, event.source) for _, event in seen}) == 1
            assert system.registry.member_path(b, s) == "s"
            assert system.registry.member_path(a, s) == "b/s"
            assert system.registry.member_path(system.registry.root, s) == "a/b/s"
        finally:
            del ANALYZERS["spy"]


def test_policy_rejects_unknown_directives():
    with pytest.raises(ScenarioParseError, match="key policy.not_a_key: not a policy key"):
        Policy(directives={"not_a_key": 1})


class TestDeclaredKeys:
    """A logic, a policy and a strategy built in code check their keys as
    the document's are checked, and read them typed and defaulted."""

    @pytest.mark.parametrize("build, problem", [
        (lambda: AdaptationLogic("h", Reactive(), analyze="failure_count",
                                 monitor="event_type_filter",
                                 params={"event_types": "host_failed", "cuont": 1}),
         "key param.cuont: not read by failure_count, event_type_filter or cooldown"),
        (lambda: AdaptationLogic("h", Reactive(), analyze="failure_count",
                                 monitor="event_type_filter"),
         "key param.event_types: required, and not set"),
        (lambda: AdaptationLogic("h", Reactive(), analyze="failure_count",
                                 params={"limit": 0.5}),
         "key param.limit: not read by failure_count or cooldown"),
        (lambda: AdaptationLogic("h", Reactive(), analyze="failure_count", params={"count": "x"}),
         "key param.count: 'x' is not a finite number"),
        (lambda: AdaptationLogic("h", Reactive(), analyze="failure_cout"),
         "key analyze: 'failure_cout' is not a registered analyze stage"),
        (lambda: Proactive(window="300"), "key strategy.window: '300' is not an integer"),
        (lambda: Retroactive(period=2.5), "key strategy.period: 2.5 is not an integer"),
        (lambda: Policy(source="bogus"), "key policy.source: 'bogus' is not human or parent"),
        (lambda: Policy(enabled=2), "key policy.enabled: 2 is not 0 or 1"),
    ])
    def test_a_key_built_in_code_is_checked(self, build, problem):
        with pytest.raises(ScenarioParseError) as err:
            build()
        assert str(err.value) == problem

    def test_an_unknown_stage_is_a_parse_error(self):
        with pytest.raises(UnknownStage):
            AdaptationLogic("h", Reactive(), monitor="nope")
        assert issubclass(UnknownStage, ScenarioParseError)

    def test_stages_read_typed_defaulted_settings(self):
        logic = AdaptationLogic("h", Reactive(), analyze="failure_count",
                                monitor="event_type_filter",
                                params={"event_types": "a,b", "count": 2.7, "host_field": 5})
        assert logic.params == {"event_types": "a,b", "count": 2.7, "host_field": 5}
        assert logic.settings == {
            "event_type": "host_failed", "count": 2, "window": 0, "host_field": "5",
            "placement_weight": 1.0, "event_types": frozenset({"a", "b"}),
            "cooldown": 0, "step_spacing": 0,
        }

    def test_strategy_and_policy_fields_hold_what_they_read(self):
        assert Proactive() == Proactive(window=100, critical=0.0, margin=0.0)
        assert repr(Proactive(critical=0, margin=5)) == repr(Proactive(critical=0.0, margin=5.0))
        assert Retroactive().period == 100
        policy = Policy(source="parent", directives={"cooldown": 50, "forecast_margin": 3}, enabled=0)
        assert (policy.source, policy.enabled) == (PolicySource.PARENT_DOMAIN, False)
        assert policy.directives == {"cooldown": 50.0, "forecast_margin": 3.0}
        assert policy.settings == {"cooldown": 50, "forecast_margin": 3.0,
                                   "max_actions_per_window": 0, "window": 0}
        assert Policy().settings["cooldown"] is None


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
