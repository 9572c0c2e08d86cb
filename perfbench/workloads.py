"""Seeded scenario generator for the benchmark workloads.

Each workload is a function of its seed alone: the seed picks kill
targets, flow placement and leak rates. The program under test receives
only the rendered configuration text, exactly as a user would hand it a
scenario file.
"""

from __future__ import annotations

import random

from adaptdom.persistence import (
    ConfigDocument,
    DomainSection,
    FaultEntry,
    FlowDecl,
    LogicSection,
    ProbeDecl,
    render_document,
)

KINDS = ("web", "app", "db")

_COMMON_KEYS = {
    "audit_period": 0,
    "link_period": 0,
    "reconfig_latency": 1,
    "agent_hop_latency": 1,
}


def _healing_fleet(rng: random.Random, name: str, hosts: int, per_host: int,
                   flows: int, kills: int) -> ConfigDocument:
    """Reactive healing over `hosts` hosts, each running a chain of
    `per_host` components; `kills` hosts die 50 ticks apart from t=100."""
    doc = ConfigDocument(root_id=1)
    doc.objects += [(1, "domain"), (2, "domain")]
    healing = DomainSection(2, "/healing", [])
    doc.domains = [DomainSection(1, "/", [("healing", 2)]), healing]
    host_names = [f"h{i:03d}" for i in range(hosts)]
    next_id = 3
    for host in host_names:
        doc.objects.append((next_id, "plain"))
        healing.members.append((host, next_id))
        doc.scenario_keys[f"host_object.{host}"] = next_id
        doc.objects.append((next_id + 1, "sensor"))
        healing.members.append((f"live_{host}", next_id + 1))
        doc.sensors.append((next_id + 1, 30.0))
        doc.probes.append(ProbeDecl(next_id + 1, "liveness", (host,)))
        doc.hosts.append((host, 10_000.0, 10_000.0, 0.0, "up"))
        next_id += 2
    doc.logics.append(LogicSection(
        doc_id=2, path="/healing", name="healing", strategy="reactive",
        stages={"analyze": "failure_count", "monitor": "event_type_filter"},
        params={"count": 1, "event_types": "host_failed", "placement_weight": 1.0},
        policy={"cooldown": 50.0, "enabled": 1, "source": "human"},
    ))
    for h, host in enumerate(host_names):
        for j in range(per_host):
            i = h * per_host + j
            doc.components.append((f"c{i:05d}", KINDS[i % 3], host, "active"))
            if j + 1 < per_host:
                doc.connections.append((f"c{i:05d}", "out", f"c{i + 1:05d}", "in"))
    # One flow per distinct host, three consecutive hops inside its chain.
    for h in sorted(rng.sample(range(hosts), flows)):
        first = h * per_host + rng.randrange(per_host - 2)
        path = tuple(f"c{first + k:05d}" for k in range(3))
        doc.flows.append(FlowDecl(path, period=5, start=rng.randrange(5)))
    for k, h in enumerate(rng.sample(range(hosts), kills)):
        doc.faults.append(FaultEntry(100 + 50 * k, "kill", (host_names[h],)))
    doc.scenario_keys.update(_COMMON_KEYS)
    doc.scenario_keys.update({
        "name": name,
        "liveness_period": 10,
        "resource_period": 0,
        "jitter": 0,
    })
    return doc


def heal_kills(rng: random.Random) -> ConfigDocument:
    return _healing_fleet(rng, "heal-kills", hosts=200, per_host=40, flows=20, kills=20)


def traffic_heavy(rng: random.Random) -> ConfigDocument:
    return _healing_fleet(rng, "traffic-heavy", hosts=200, per_host=40, flows=200, kills=1)


def rejuv_fleet(rng: random.Random, hosts: int = 50, per_host: int = 10) -> ConfigDocument:
    """Proactive rejuvenation: every host sits in its own subdomain
    /rejuvenation/hNNN with a host object and a resource sensor, runs a
    chain of `per_host` components and starts leaking at a staggered time.
    Each host's chain feeds the next host's, so the block sets of
    rejuvenations on neighbouring hosts share a component, and with a
    reconfiguration latency of 5 ticks some of them queue behind others."""
    doc = ConfigDocument(root_id=1)
    doc.objects += [(1, "domain"), (2, "domain")]
    fleet = DomainSection(2, "/rejuvenation", [])
    doc.domains = [DomainSection(1, "/", [("rejuvenation", 2)]), fleet]
    next_id = 3
    for h in range(hosts):
        host = f"h{h:03d}"
        sub, obj, sensor = next_id, next_id + 1, next_id + 2
        next_id += 3
        doc.objects += [(sub, "domain"), (obj, "plain"), (sensor, "sensor")]
        fleet.members.append((host, sub))
        doc.domains.append(DomainSection(
            sub, f"/rejuvenation/{host}", [("host", obj), ("res", sensor)]
        ))
        doc.sensors.append((sensor, 30.0))
        doc.probes.append(ProbeDecl(sensor, "resource", (host,)))
        doc.scenario_keys[f"host_object.{host}"] = obj
        doc.hosts.append((host, 1000.0, 1000.0, 0.0, "up"))
        rate = round(rng.uniform(1.1, 1.3), 3)
        doc.faults.append(FaultEntry(50 + 10 * h + rng.randrange(10), "leak", (host, str(rate))))
        for j in range(per_host):
            cid = f"r{h:03d}_{j}"
            doc.components.append((cid, KINDS[j % 3], host, "active"))
            if j + 1 < per_host:
                doc.connections.append((cid, "out", f"r{h:03d}_{j + 1}", "in"))
        if h + 1 < hosts:
            doc.connections.append((f"r{h:03d}_{per_host - 1}", "out", f"r{h + 1:03d}_0", "in"))
        if h % 5 == 0:
            first = rng.randrange(per_host - 2)
            path = tuple(f"r{h:03d}_{first + k}" for k in range(3))
            doc.flows.append(FlowDecl(path, period=7, start=rng.randrange(7)))
    doc.logics.append(LogicSection(
        doc_id=2, path="/rejuvenation", name="rejuvenation", strategy="proactive",
        strategy_params={"critical": 0.0, "margin": 100.0, "window": 300},
        stages={"analyze": "linear_forecast", "monitor": "event_type_filter"},
        params={"event_types": "resource_sample"},
        policy={"cooldown": 100.0, "enabled": 1, "source": "human"},
    ))
    doc.scenario_keys.update(_COMMON_KEYS)
    doc.scenario_keys.update({
        "name": "rejuv-fleet",
        "reconfig_latency": 5,
        "exhaustion_critical": 0.0,
        "liveness_period": 0,
        "resource_period": 10,
        "jitter": 1,
    })
    return doc


# name -> (document function, simulated horizon in ticks)
WORKLOADS = {
    "heal-kills": (heal_kills, 1060),
    "traffic-heavy": (traffic_heavy, 1000),
    "rejuv-fleet": (rejuv_fleet, 4000),
}


def generate(workload: str, seed: int) -> tuple[str, int]:
    """Rendered configuration text and horizon for one workload and seed."""
    build, until = WORKLOADS[workload]
    return render_document(build(random.Random(seed))), until
