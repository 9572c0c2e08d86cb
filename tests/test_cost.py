"""Cost per unit of work, counted deterministically.

The cost of a run is the number of `adaptdom` source lines it executes,
counted under `sys.settrace`: the same on every machine and every run,
where wall-clock time on a shared machine swings by 2x. A unit's cost is
the difference between two runs that differ only in how many units they
do, divided by the difference in units, so one-time work cancels.
"""

from __future__ import annotations

import os
import sys

import adaptdom
from adaptdom.persistence import (
    ConfigDocument,
    DomainSection,
    FlowDecl,
    LogicSection,
    ProbeDecl,
    load_config,
    parse_document,
    render_document,
)
from adaptdom.simharness import Simulator

_SOURCE = os.path.dirname(adaptdom.__file__) + os.sep


def executed_lines(fn) -> int:
    """The number of `adaptdom` lines `fn()` executes."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(_SOURCE) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def _traffic_run(flows: int) -> tuple[int, int]:
    """Lines executed and hops made by 300 ticks of the healing scenario
    without its faults, carrying `flows` three-hop flows."""
    with open("scenarios/healing.cfg", encoding="utf-8") as fh:
        doc = parse_document(fh.read())
    doc.faults = []
    paths = [("c01", "c05", "c09"), ("c02", "c06", "c10"), ("c03", "c07", "c11"),
             ("c04", "c08", "c12")]
    doc.flows = [FlowDecl(paths[i % 4], period=5 + i, start=i) for i in range(flows)]
    sim = Simulator(doc, seed=3)
    lines = executed_lines(lambda: sim.run(300))
    return lines, sim.trace.count("app_hop")


def test_one_traffic_hop_costs_one_step():
    # One scheduled step per hop, one prepared trace line: about 33 lines.
    # A lambda, a leave and an enter per hop and a keyword `record` took 42.
    few_lines, few_hops = _traffic_run(1)
    many_lines, many_hops = _traffic_run(5)
    assert many_hops - few_hops > 400
    assert (many_lines - few_lines) / (many_hops - few_hops) < 36


def _healing_fleet(hosts: int, per_host: int = 40) -> tuple[str, int]:
    """The text of a reactive healing fleet, each host with a liveness
    sensor and a chain of `per_host` components, and its graph rows."""
    doc = ConfigDocument(objects=[(1, "domain"), (2, "domain")])
    healing = DomainSection(2, "/healing")
    doc.domains = [DomainSection(1, "/", [("healing", 2)]), healing]
    doc.logics = [LogicSection(
        2, "/healing", name="healing", stages={"analyze": "failure_count"},
        params={"count": 1}, policy={"cooldown": 50.0, "enabled": 1, "source": "human"},
    )]
    for h in range(hosts):
        host, oid = f"h{h:03d}", 3 + 2 * h
        doc.objects += [(oid, "plain"), (oid + 1, "sensor")]
        healing.members += [(host, oid), (f"live_{host}", oid + 1)]
        doc.scenario_keys[f"host_object.{host}"] = oid
        doc.sensors.append((oid + 1, 30.0))
        doc.probes.append(ProbeDecl(oid + 1, "liveness", (host,)))
        doc.hosts.append((host, 100.0, 100.0, 0.0, "up"))
        for j in range(per_host):
            cid = f"c{h * per_host + j:05d}"
            doc.components.append((cid, ("web", "app", "db")[j % 3], host, "active"))
            if j + 1 < per_host:
                doc.connections.append((cid, "out", f"c{h * per_host + j + 1:05d}", "in"))
    doc.scenario_keys["liveness_period"] = 10
    return render_document(doc), len(doc.components) + len(doc.connections)


def test_loading_a_graph_row_costs_about_28_lines():
    # About 28 lines a row, the hosts' other lines included: eight in the
    # parser's loop, nine in `decode_graph` and six to eight in
    # `build_system`, which trusts decoded rows. A parser that tried each
    # graph line as a section header and fetched it again by line number
    # after its loop took 34.5.
    few_text, few_rows = _healing_fleet(10)
    many_text, many_rows = _healing_fleet(40)
    few_lines = executed_lines(lambda: load_config(few_text))
    many_lines = executed_lines(lambda: load_config(many_text))
    assert (many_lines - few_lines) / (many_rows - few_rows) < 30.5


def _rejuvenation_fleet(hosts: int, per_host: int = 10) -> ConfigDocument:
    """A proactive rejuvenation fleet with no leaks and no flows: each host
    in its own subdomain /rejuvenation/hNNN with a host object and a
    resource sensor sampled every 10 ticks, and a chain of components."""
    doc = ConfigDocument(objects=[(1, "domain"), (2, "domain")])
    fleet = DomainSection(2, "/rejuvenation")
    doc.domains = [DomainSection(1, "/", [("rejuvenation", 2)]), fleet]
    for h in range(hosts):
        host, sub = f"h{h:03d}", 3 + 3 * h
        doc.objects += [(sub, "domain"), (sub + 1, "plain"), (sub + 2, "sensor")]
        fleet.members.append((host, sub))
        doc.domains.append(DomainSection(sub, f"/rejuvenation/{host}",
                                         [("host", sub + 1), ("res", sub + 2)]))
        doc.sensors.append((sub + 2, 30.0))
        doc.probes.append(ProbeDecl(sub + 2, "resource", (host,)))
        doc.scenario_keys[f"host_object.{host}"] = sub + 1
        doc.hosts.append((host, 1000.0, 1000.0, 0.0, "up"))
        for j in range(per_host):
            doc.components.append((f"r{h:03d}_{j}", ("web", "app", "db")[j % 3], host, "active"))
    doc.logics = [LogicSection(
        2, "/rejuvenation", name="rejuvenation", strategy="proactive",
        strategy_params={"critical": 0.0, "margin": 100.0, "window": 300},
        stages={"analyze": "linear_forecast", "monitor": "event_type_filter"},
        params={"event_types": "resource_sample"},
        policy={"cooldown": 100.0, "enabled": 1, "source": "human"},
    )]
    doc.scenario_keys.update({"liveness_period": 0, "resource_period": 10, "jitter": 1})
    return doc


def _lines_per_sample(hosts: int) -> float:
    """Lines executed per `resource_sample` event from t=500 to t=1000,
    once every host's window holds its full 30 samples."""
    sim = Simulator(_rejuvenation_fleet(hosts), seed=5)
    sim.run_until(500)
    events = sim.trace.count("event")
    lines = executed_lines(lambda: sim.run_until(1000))
    samples = sim.trace.count("event") - events
    assert samples == 50 * hosts
    assert sim.trace.count("decision") == 0
    return lines / samples


def test_one_rejuvenation_sample_costs_what_it_touches():
    # About 148 lines a sample at 10 hosts and 143 at 40: the probe, the
    # emit with its prepared event line, the cached route, the prepared
    # pipeline and a fit over kept columns. Building a stage context,
    # looking up the stage functions and keys, walking two logic-less
    # domains and mapping the window's products again on every sample
    # took 179 and 174.
    few = _lines_per_sample(10)
    many = _lines_per_sample(40)
    assert few < 164
    assert many < 164
    assert abs(many - few) <= 0.05 * few
