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
from adaptdom.persistence import FlowDecl, parse_document
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
