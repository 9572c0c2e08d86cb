"""Generated scenario documents, for properties over whole runs.

`documents()` draws a small `ConfigDocument` as a user would write one:
2 to 6 hosts, each running a chain of components, and one to three
domains under the root, each bound to a shipped logic (`failure_count`,
`threshold` or `linear_forecast`) over some of the hosts' objects, with
the liveness or resource probes that logic reads. Domains may share host
objects. The scenario section kills, revives and leaks hosts and runs
traffic flows along the chains.
"""

from __future__ import annotations

from hypothesis import strategies as st

from adaptdom.persistence import (
    ConfigDocument,
    DomainSection,
    FaultEntry,
    FlowDecl,
    LogicSection,
    ProbeDecl,
)

KINDS = ("web", "app", "db")

# The logic and the probe kind of each shipped analyzer's domains.
LOGICS = {
    "failure_count": "liveness",
    "threshold": "resource",
    "linear_forecast": "resource",
}


def _logic(draw, kind: str, doc_id: int, path: str) -> LogicSection:
    """A logic section binding analyzer `kind`, as the shipped scenarios do."""
    section = LogicSection(doc_id, path, name=path.strip("/").replace("/", "_"))
    section.policy = {"cooldown": draw(st.sampled_from((0.0, 50.0, 100.0))), "enabled": 1,
                      "source": "human"}
    if kind == "failure_count":
        section.stages = {"analyze": kind, "monitor": "event_type_filter"}
        section.params = {"count": draw(st.integers(1, 2)), "event_types": "host_failed",
                          "placement_weight": 1.0}
    elif kind == "threshold":
        section.strategy = draw(st.sampled_from(("reactive", "retroactive")))
        if section.strategy == "retroactive":
            section.strategy_params = {"period": draw(st.integers(10, 60))}
        section.stages = {"analyze": kind, "monitor": "event_type_filter"}
        section.params = {"event_type": "resource_sample", "event_types": "resource_sample",
                          "field": "level", "limit": float(draw(st.integers(200, 900))),
                          "op": "lt", "plan": "evacuate_host"}
    else:
        section.strategy = "proactive"
        section.strategy_params = {"critical": 0.0, "margin": float(draw(st.integers(0, 300))),
                                   "window": draw(st.integers(50, 300))}
        section.stages = {"analyze": kind, "monitor": "event_type_filter"}
        section.params = {"event_types": "resource_sample"}
    return section


@st.composite
def documents(draw) -> ConfigDocument:
    hosts = [f"h{i}" for i in range(draw(st.integers(2, 6)))]
    doc = ConfigDocument(root_id=1, objects=[(1, "domain")])
    root = DomainSection(1, "/")
    doc.domains.append(root)
    next_id = 2
    host_objects = {}
    for host in hosts:
        host_objects[host] = next_id
        doc.objects.append((next_id, "plain"))
        doc.scenario_keys[f"host_object.{host}"] = next_id
        doc.hosts.append((host, 1000.0, 1000.0, 0.0, "up"))
        next_id += 1
    chains = {}
    for h, host in enumerate(hosts):
        chains[host] = [f"c{h}_{j}" for j in range(draw(st.integers(1, 4)))]
        for j, cid in enumerate(chains[host]):
            doc.components.append((cid, KINDS[(h + j) % 3], host, "active"))
            if j:
                doc.connections.append((chains[host][j - 1], "out", cid, "in"))
    for d, kind in enumerate(draw(st.lists(st.sampled_from(sorted(LOGICS)), min_size=1,
                                           max_size=3))):
        domain = DomainSection(next_id, f"/{kind}{d}")
        root.members.append((f"{kind}{d}", next_id))
        doc.objects.append((next_id, "domain"))
        doc.logics.append(_logic(draw, kind, next_id, domain.path))
        next_id += 1
        for host in draw(st.lists(st.sampled_from(hosts), min_size=1, unique=True)):
            domain.members.append((host, host_objects[host]))
            doc.objects.append((next_id, "sensor"))
            domain.members.append((f"probe_{host}", next_id))
            doc.sensors.append((next_id, 30.0))
            doc.probes.append(ProbeDecl(next_id, LOGICS[kind], (host,)))
            next_id += 1
        doc.domains.append(domain)
    for _ in range(draw(st.integers(1, 4))):
        time, host = draw(st.integers(20, 300)), draw(st.sampled_from(hosts))
        fault = draw(st.sampled_from(("kill", "revive", "leak", "leak")))
        args = (host, str(draw(st.sampled_from((1.0, 2.5, 4.0, 8.0))))) if fault == "leak" else (host,)
        doc.faults.append(FaultEntry(time, fault, args))
    for _ in range(draw(st.integers(0, 3))):
        chain = chains[draw(st.sampled_from(hosts))]
        first = draw(st.integers(0, len(chain) - 1))
        path = tuple(chain[first:first + draw(st.integers(1, 3))])
        doc.flows.append(FlowDecl(path, draw(st.integers(3, 11)), draw(st.integers(0, 5))))
    doc.scenario_keys.update({
        "name": "generated", "liveness_period": 10, "resource_period": 10,
        "jitter": draw(st.integers(0, 1)), "reconfig_latency": draw(st.integers(1, 3)),
        "agent_hop_latency": 1,
    })
    return doc
