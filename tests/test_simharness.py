"""Scenario driver: determinism, faults, aging, traffic, and the saved
document as the view of a run between events."""

import pytest

from adaptdom.errors import ScenarioParseError, UnknownHost
from adaptdom.persistence import (
    FaultEntry, FlowDecl, ProbeDecl, build_system, capture_system, load_config, parse_document,
    save_config,
)
from adaptdom.registry import Kind
from adaptdom.report import verify_report
from adaptdom.sensing import MobileAgent
from adaptdom.simharness import Simulator
from adaptdom.system import Host, System

from conftest import SCENARIOS, of_kind

EMPTY_SCENARIO = """adaptdom-config 1
[system]
root = 1
[objects]
object 1 domain
[domain 1 /]
[scenario]
name = empty
end-config
"""


def empty_sim(seed=0):
    return Simulator(load_config(EMPTY_SCENARIO), seed=seed)


class TestDeterminism:
    def test_empty_scenario_has_empty_trace(self):
        report = empty_sim().run(100)
        assert list(report.trace_lines) == []
        assert report.until == 100

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_same_seed_same_bytes(self, name):
        path = SCENARIOS[name]
        r1 = Simulator(load_config(path), seed=11).run(500).render()
        r2 = Simulator(load_config(path), seed=11).run(500).render()
        assert r1 == r2

    def test_jittered_scenario_varies_with_seed(self):
        path = SCENARIOS["rejuvenation"]
        r1 = Simulator(load_config(path), seed=1).run(500).render()
        r2 = Simulator(load_config(path), seed=2).run(500).render()
        assert r1 != r2


class TestFaults:
    def test_kill_detected_at_first_sample_after_fault(self):
        system = load_config(SCENARIOS["healing"])
        sim = Simulator(system, seed=0)
        report = sim.run(200)
        failures = [
            line for line in report.trace_lines
            if "type=host_failed" in line and "payload=host:hostA" in line
        ]
        assert failures
        first_time = int(failures[0].split()[0][2:])
        # Liveness period is 10 and the kill lands at t=100.
        assert first_time == 100

    def test_set_leak_shows_exact_slope(self):
        with open(SCENARIOS["rejuvenation"], encoding="utf-8") as fh:
            doc = parse_document(fh.read())
        doc.scenario_keys["jitter"] = 0
        sim = Simulator(build_system(doc), seed=0)
        sim.run_until(300)
        samples = [
            (entry.time, float(dict(
                kv.split(":") for kv in entry.get("payload").split(",")
            )["level"]))
            for entry in of_kind(sim.trace, "event")
            if entry.get("type") == "resource_sample"
            and "host:hostA" in entry.get("payload")
        ]
        leaking = [(t, lvl) for t, lvl in samples if t >= 60]
        assert len(leaking) >= 3
        for (t1, l1), (t2, l2) in zip(leaking, leaking[1:]):
            assert l1 - l2 == pytest.approx(1.0 * (t2 - t1))

    def test_revive_on_up_host_is_noop(self):
        sim = empty_sim()
        sim.system.hosts.add(Host("h1", 100.0))
        sim.inject(FaultEntry(5, "revive", ("h1",)))
        sim.run_until(10)
        assert sim.system.hosts.host_is_up("h1")
        saved = save_config(sim.system).decode().splitlines()
        assert "host h1 capacity=100.0 leak=0.0 level=100.0 status=up" in saved

    def test_kill_counts_downtime_until_horizon(self):
        system = load_config(SCENARIOS["healing"])
        report = Simulator(system, seed=0).run(400)
        assert report.metrics["downtime_ticks"] == 300  # killed at t=100

    def test_unknown_host_fault_rejected(self):
        sim = empty_sim()
        with pytest.raises(UnknownHost):
            sim.inject(FaultEntry(1, "kill", ("ghost",)))

    # Each entry is built inside `pytest.raises`: a malformed one raises
    # as it is constructed, before the simulator can see it.
    @pytest.mark.parametrize("fault, problem", [
        ((1, "kill", ()), "fault kill takes <host>"),
        ((1, "leak", ("h1",)), "fault leak takes <host> <rate>"),
        ((1, "leak", ("h1", "abc")), "rate 'abc' is not a finite number"),
        ((1, "explode", ("h1",)), "unknown fault kind 'explode'"),
    ])
    def test_malformed_fault_rejected_before_it_is_scheduled(self, fault, problem):
        sim = empty_sim()
        sim.system.hosts.add(Host("h1", 100.0))
        with pytest.raises(ScenarioParseError, match=problem):
            sim.inject(FaultEntry(*fault))
        sim.run_until(10)
        assert of_kind(sim.trace, "fault") == []


class TestAging:
    @pytest.mark.parametrize("rate,period", [(0.5, 5), (1.0, 10), (2.0, 7)])
    def test_consecutive_samples_differ_by_rate_times_period(self, rate, period):
        host = Host("h", 10_000.0)
        host.set_leak(rate, 0)
        levels = [host.level(t) for t in range(0, 20 * period, period)]
        for a, b in zip(levels, levels[1:]):
            assert a - b == pytest.approx(rate * period)

    def test_level_clamped_at_zero_and_capacity(self):
        host = Host("h", 100.0)
        host.set_leak(10.0, 0)
        assert host.level(1000) == 0.0
        host.reset(1000)
        assert host.level(1000) == 100.0

    def test_down_host_freezes_level(self):
        host = Host("h", 100.0)
        host.set_leak(1.0, 0)
        host.kill(30)
        assert host.level(90) == host.level(31) == 70.0
        host.revive(90)
        assert host.level(100) == 60.0


class TestQuiescence:
    def test_traffic_refuses_blocked_components(self):
        # Healing blocks components mid-run; replay confirms no hop ever
        # traversed a blocked component.
        system = load_config(SCENARIOS["healing"])
        report = Simulator(system, seed=0).run(400)
        assert verify_report(report.render()) == []
        hops = [l for l in report.trace_lines if " app_hop " in l]
        assert hops  # traffic actually flowed

    def test_conservation_of_component_kinds(self):
        system = load_config(SCENARIOS["healing"])
        before = sorted(
            c.kind for c in system.graph.components.values()
        )
        report = Simulator(system, seed=0).run(400)
        after = sorted(
            line.split("kind=")[1].split()[0]
            for line in report.graph_lines if line.startswith("component")
        )
        assert before == after


HEAL_TRAFFIC_SCENARIO = """adaptdom-config 1
[system]
root = 1
[objects]
object 1 domain
object 2 domain
object 3 plain
object 4 plain
object 5 sensor
[domain 1 /]
healing = 2
[domain 2 /healing]
hostA = 3
hostB = 4
liveA = 5
[logic 2 /healing]
analyze = failure_count
execute = actuate
monitor = event_type_filter
name = healing
param.count = 1
param.event_types = host_failed
policy.cooldown = 50
regulate = cooldown
strategy = reactive
[sensors]
sensor 5 heartbeat=0.0
[hosts]
host hostA capacity=1000.0 leak=0.0 level=1000.0 status=up
host hostB capacity=1000.0 leak=0.0 level=1000.0 status=up
[graph]
component c1 kind=web host=hostB state=active
component c2 kind=app host=hostA state=active
component c3 kind=db host=hostB state=active
connection c1 out -> c2 in
connection c2 out -> c3 in
[scenario]
host_object.hostA = 3
host_object.hostB = 4
liveness_period = 10
name = heal-traffic
reconfig_latency = 1
resource_period = 0
fault 15 kill hostA
probe 5 liveness hostA
traffic c3,c1 period=11 start=9
traffic c2 period=10 start=16
end-config
"""


class TestTrafficThroughCommits:
    def test_stall_resumes_and_hops_see_the_moved_component(self):
        # hostA dies at 15 and is detected at 20. The heal moves c2 to hostB
        # and blocks c1 and c2 from 20 to its commit at 21. Flow 3 entered
        # c3 at 20, before the block; at 21 it finds c1 blocked and stalls,
        # because its retry was queued before the commit ran, so it enters
        # c1 one tick after the unblock. Flow 2 drops at c2 while c2 is down;
        # flow 4 hops on c2 after the commit moved it to hostB.
        sim = Simulator(load_config(HEAL_TRAFFIC_SCENARIO), seed=0)
        sim.run_until(25)
        assert sim.system.graph.components["c2"].host == "hostB"
        report = sim.run(30)
        traffic = [line for line in report.trace_lines
                   if " app_hop " in line or " app_drop " in line or " txn_" in line]
        assert traffic == [
            "t=9 s=0 app_hop flow=1 comp=c3",
            "t=10 s=1 app_hop flow=1 comp=c1",
            "t=16 s=3 app_drop flow=2 comp=c2",
            "t=20 s=4 app_hop flow=3 comp=c3",
            "t=20 s=7 txn_submit id=heal-1 edits=move:c2:hostB block=c1|c2 status=started",
            "t=20 s=8 txn_block id=heal-1 components=c1|c2",
            "t=21 s=10 txn_commit id=heal-1 components=c1|c2",
            "t=22 s=11 app_hop flow=3 comp=c1",
            "t=26 s=12 app_hop flow=4 comp=c2",
        ]
        assert verify_report(report.render()) == []


class TestDocumentsBuiltInCode:
    """A document built in code gets the scenario-line checks the parser
    makes: each entry checks itself as it is constructed, before any run."""

    @staticmethod
    def doc_with(**changes):
        doc = parse_document(HEAL_TRAFFIC_SCENARIO)
        sensor = doc.probes[0].sensor
        for name, value in changes.items():
            setattr(doc, name, [value(sensor)])
        return doc

    def test_flow_period_zero_rejected(self):
        with pytest.raises(ScenarioParseError, match="traffic period must be positive, got 0"):
            Simulator(self.doc_with(flows=lambda sensor: FlowDecl(("c1",), 0)))

    def test_probe_without_its_host_rejected(self):
        with pytest.raises(ScenarioParseError, match="probe liveness takes <host>"):
            Simulator(self.doc_with(probes=lambda sensor: ProbeDecl(sensor, "liveness", ())))

    def test_probe_of_unknown_kind_rejected(self):
        with pytest.raises(ScenarioParseError, match="unknown probe kind 'bogus'"):
            Simulator(self.doc_with(probes=lambda sensor: ProbeDecl(sensor, "bogus", ("hostA",))))

    @pytest.mark.parametrize("key, value", [
        ("jitter", "yes"), ("agent_hop_latency", 1.5), ("host_object.hostA", "abc"),
        ("exhaustion_critical", float("nan")), ("name", "a b"),
    ])
    def test_a_scenario_key_the_program_cannot_read_rejected(self, key, value):
        doc = parse_document(HEAL_TRAFFIC_SCENARIO)
        doc.scenario_keys[key] = value
        with pytest.raises(ScenarioParseError, match=f"scenario key {key}: "):
            Simulator(doc)

    @pytest.mark.parametrize("part, key, value", [
        ("policy", "cooldown", "abc"), ("policy", "enabled", 0.5), ("policy", "source", "bogus"),
        ("strategy", "window", 1.5), ("strategy", "critical", float("inf")),
    ])
    def test_a_logic_value_the_program_cannot_read_rejected(self, part, key, value):
        doc = parse_document(HEAL_TRAFFIC_SCENARIO)
        section = doc.logics[0]
        (section.policy if part == "policy" else section.strategy_params)[key] = value
        with pytest.raises(ScenarioParseError, match=f"logic {section.path} key {part}.{key}: "):
            Simulator(doc)

    @pytest.mark.parametrize("build", [
        lambda: FaultEntry(1, "kill", ()),
        lambda: ProbeDecl(1, "bogus", ("h",)),
        lambda: FlowDecl(("c1",), 0),
    ], ids=["fault", "probe", "flow"])
    def test_a_malformed_entry_raises_as_it_is_constructed(self, build):
        with pytest.raises(ScenarioParseError):
            build()


class TestSavedView:
    """Between events, a run's state is its saved document: hosts with
    their level at the clock's time and their status, the graph with its
    states, and the domains' members."""

    def test_initial_save_matches_declared_state(self):
        doc = parse_document(open(SCENARIOS["healing"]).read())
        saved = capture_system(Simulator(load_config(SCENARIOS["healing"]), seed=0).system)
        assert sorted(saved.components) == sorted(doc.components)
        assert sorted(saved.hosts) == sorted(doc.hosts)
        # A save numbers objects canonically, so members compare by name.
        def names(domains):
            return {section.path: sorted(name for name, _ in section.members) for section in domains}
        assert names(saved.domains) == names(doc.domains)

    def test_saves_without_events_are_identical(self):
        sim = Simulator(load_config(SCENARIOS["healing"]), seed=0)
        sim.run_until(55)
        host = sim.system.hosts.get("hostA")
        host.set_leak(2.0, 55)
        sim.run_until(60)
        first = save_config(sim.system)
        assert save_config(sim.system) == first
        assert "host hostA capacity=1000.0 leak=2.0 level=990.0 status=up" in first.decode()

    def test_save_after_heal_shows_all_active(self):
        sim = Simulator(load_config(SCENARIOS["healing"]), seed=0)
        sim.run_until(150)
        saved = capture_system(sim.system)
        assert saved.components and all(row[3] == "active" for row in saved.components)
        assert ("hostA", 1000.0, 1000.0, 0.0, "down") in saved.hosts


class TestHostObjects:
    """`host_id_of_object` answers what a scan of `host_objects` in binding
    order would: the first host bound to the object."""

    @staticmethod
    def scan(system, oid):
        return next((h for h, o in system.host_objects.items() if o == oid), None)

    def test_object_bound_to_two_hosts_keeps_the_first(self):
        system = System()
        shared, other = system.registry.register(Kind.PLAIN), system.registry.register(Kind.PLAIN)
        system.bind_host_object("h2", shared)
        system.bind_host_object("h1", shared)
        system.bind_host_object("h3", other)
        assert system.host_id_of_object(shared) == "h2" == self.scan(system, shared)
        assert system.host_id_of_object(other) == "h3"
        assert system.host_id_of_object(system.registry.register(Kind.PLAIN)) is None

    def test_rebound_host_keeps_its_place(self):
        system = System()
        a, b, c = (system.registry.register(Kind.PLAIN) for _ in range(3))
        system.bind_host_object("h1", a)
        system.bind_host_object("h2", a)
        system.bind_host_object("h3", b)
        assert (system.host_id_of_object(a), system.host_id_of_object(b)) == ("h1", "h3")
        system.bind_host_object("h1", b)  # h1 leaves a for b, ahead of h3
        system.bind_host_object("h2", c)  # a is left with no host
        for oid, host in ((a, None), (b, "h1"), (c, "h2")):
            assert system.host_id_of_object(oid) == host == self.scan(system, oid)


def launch_reset_agent(system, host_id):
    """Fly a `reset_host_resource` agent from the root to `host_id`'s object."""
    stop = min(system.registry.paths_of(system.host_objects[host_id]))
    agent = system.registry.register(Kind.AGENT)
    system.registry.include(system.registry.root, agent, "agent")
    return system.hub.launch_agent(
        system.registry.root, MobileAgent(agent, (stop,), "reset_host_resource"))


class TestAgentOnADeadHost:
    def test_a_reset_on_a_dead_host_fails_and_leaves_its_level(self):
        # A dead host has no pool to restore: the hop fails with HostDown,
        # writes no `host_reset` line and keeps the level the host died at.
        system = load_config(SCENARIOS["rejuvenation"])
        host = system.hosts.get("hostA")
        host.set_leak(2.0, 0)
        system.run_until(50)
        assert system.kill_host("hostA")
        level = host.level(50)
        assert level == 900.0
        report = launch_reset_agent(system, "hostA")
        system.run_until(60)
        assert [str(outcome) for outcome in report.outcomes] == ["failed:HostDown"]
        assert of_kind(system.trace, "host_reset") == []
        assert host.level(60) == level


class TestBuiltWhole:
    """A loaded System fails hosts and flies agents with no Simulator."""

    def test_a_reset_agent_flies_without_a_simulator(self):
        system = load_config(SCENARIOS["rejuvenation"])
        host = system.hosts.get("hostA")
        host.set_leak(2.0, 0)
        system.run_until(50)
        report = launch_reset_agent(system, "hostA")
        system.run_until(60)
        assert [str(outcome) for outcome in report.outcomes] == ["ok"]
        [reset] = of_kind(system.trace, "host_reset")
        assert reset.get("host") == "hostA"
        assert host.level(reset.time) == host.capacity

    def test_kill_host_takes_its_components_down_once(self):
        system = load_config(SCENARIOS["healing"])
        on_a = system.graph.components_on("hostA")
        assert on_a and system.kill_host("hostA")
        assert not system.hosts.host_is_up("hostA")
        assert {system.graph.components[cid].state.value for cid in on_a} == {"down"}
        assert not system.kill_host("hostA")
