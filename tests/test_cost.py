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
