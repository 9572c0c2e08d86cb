"""Scenario driver: determinism, faults, aging, traffic, snapshots."""

import pytest

from adaptdom.errors import ScenarioParseError, UnknownHost
from adaptdom.persistence import FaultEntry, FlowDecl, ProbeDecl, load_config, parse_document
from adaptdom.registry import Kind
from adaptdom.report import verify_report
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
        assert report.trace_lines == []
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
        system = load_config(SCENARIOS["rejuvenation"])
        system.scenario_params["jitter"] = 0
        sim = Simulator(system, seed=0)
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
        snapshot = sim.snapshot()
        assert "host h1 level=100.0 status=up" in snapshot.canonical_lines()

    def test_kill_counts_downtime_until_horizon(self):
        system = load_config(SCENARIOS["healing"])
        report = Simulator(system, seed=0).run(400)
        assert report.metrics["downtime_ticks"] == 300  # killed at t=100

    def test_unknown_host_fault_rejected(self):
        sim = empty_sim()
        with pytest.raises(UnknownHost):
            sim.inject(FaultEntry(1, "kill", ("ghost",)))

    @pytest.mark.parametrize("fault, problem", [
        (FaultEntry(1, "kill", ()), "fault kill takes <host>"),
        (FaultEntry(1, "leak", ("h1",)), "fault leak takes <host> <rate>"),
        (FaultEntry(1, "leak", ("h1", "abc")), "rate 'abc' is not a finite number"),
        (FaultEntry(1, "explode", ("h1",)), "unknown fault kind 'explode'"),
    ])
    def test_malformed_fault_rejected_before_it_is_scheduled(self, fault, problem):
        sim = empty_sim()
        sim.system.hosts.add(Host("h1", 100.0))
        with pytest.raises(ScenarioParseError, match=problem):
            sim.inject(fault)
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
    makes, when the simulator is built, before any run."""

    @staticmethod
    def doc_with(**changes):
        doc = parse_document(HEAL_TRAFFIC_SCENARIO)
        sensor = doc.probes[0].sensor
        for name, value in changes.items():
            setattr(doc, name, [value(sensor)])
        return doc

    def test_flow_period_zero_rejected(self):
        doc = self.doc_with(flows=lambda sensor: FlowDecl(("c1",), 0))
        with pytest.raises(ScenarioParseError, match="traffic period must be positive, got 0"):
            Simulator(doc)

    def test_probe_without_its_host_rejected(self):
        doc = self.doc_with(probes=lambda sensor: ProbeDecl(sensor, "liveness", ()))
        with pytest.raises(ScenarioParseError, match="probe liveness takes <host>"):
            Simulator(doc)

    def test_probe_of_unknown_kind_rejected(self):
        doc = self.doc_with(probes=lambda sensor: ProbeDecl(sensor, "bogus", ("hostA",)))
        with pytest.raises(ScenarioParseError, match="unknown probe kind 'bogus'"):
            Simulator(doc)


class TestSnapshot:
    def test_initial_snapshot_matches_declared_state(self):
        system = load_config(SCENARIOS["healing"])
        doc = parse_document(open(SCENARIOS["healing"]).read())
        sim = Simulator(system, seed=0)
        snap = sim.snapshot(0)
        for cid, kind, host, state in doc.components:
            assert f"component {cid} kind={kind} host={host} state={state}" in snap.graph_lines
        for host_id, capacity, level, leak, status in doc.hosts:
            assert f"host {host_id} level={level!r} status={status}" in snap.host_lines

    def test_snapshots_without_events_are_identical(self):
        sim = Simulator(load_config(SCENARIOS["healing"]), seed=0)
        sim.run_until(55)
        assert sim.snapshot().canonical_lines() == sim.snapshot().canonical_lines()

    def test_snapshot_after_heal_shows_all_active(self):
        sim = Simulator(load_config(SCENARIOS["healing"]), seed=0)
        sim.run_until(150)
        snap = sim.snapshot()
        assert all(
            "state=active" in line
            for line in snap.graph_lines if line.startswith("component")
        )


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
