"""Deterministic discrete-event scenario driver.

Runs a configured system against a fault script: built-in probes sample
host liveness, resource levels, and link quality; application traffic
flows hop through the component graph (refusing blocked components);
adaptive domains react through their pipelines and actuators. Identical
(scenario, seed) pairs produce byte-identical reports. Between events, a
run's state is its saved document: `persistence.save_config(system)`.
"""

from __future__ import annotations

import random
from functools import partial

from .confgraph import ComponentState
from .errors import UnknownHost
from .persistence import ConfigDocument, FaultEntry, build_system
from .report import RunReport
from .system import System

_ACTIVE = ComponentState.ACTIVE
_BLOCKED = ComponentState.BLOCKED
_DOWN = ComponentState.DOWN


class Simulator:
    """Owns the clock loop for one scenario run."""

    def __init__(self, source: ConfigDocument | System, seed: int = 0):
        self.system = build_system(source) if isinstance(source, ConfigDocument) else source
        self.seed = seed
        self.rng = random.Random(seed)
        self.scenario = self.system.scenario
        self._critical = self.scenario.settings["exhaustion_critical"]
        # Bound once for the traffic and probe paths. The manager's graph is
        # built before the simulator and every commit edits its components
        # dict in place, so traffic always sees the current components here.
        self.clock = self.system.clock
        self.trace = self.system.trace
        self._occupancy = self.system.occupancy
        self._components = self.system.graph.components
        self._schedule = self.clock.schedule
        self._hosts = self.system.hosts
        self._emit = self.system.hub.emit
        self._record_hop = self.trace.recorder("app_hop", "flow", "comp")
        self._record_drop = self.trace.recorder("app_drop", "flow", "comp")
        self._down_since: dict[str, int] = {}
        self._downtime = 0
        self._exhausted: set[str] = set()
        self._exhaustions = 0
        self._flow_counter = 0
        self._installed = False

    # --- installation ---

    def _install(self) -> None:
        if self._installed:
            return
        self._installed = True
        for host_id in self.system.hosts.host_ids():
            if not self.system.hosts.host_is_up(host_id):
                self._down_since[host_id] = self.clock.now
        scenario = self.scenario
        keys = scenario.settings
        for fault in scenario.faults:
            self.inject(fault)
        probes = {
            "liveness": (keys["liveness_period"], self._probe_liveness),
            "resource": (keys["resource_period"], self._probe_resource),
            "link": (keys["link_period"], self._probe_link),
        }
        for sensor, kind, args in scenario.probes:
            period, probe = probes[kind]
            if period <= 0:
                continue
            phase = self.rng.randrange(period) if keys["jitter"] else 0
            self._every(phase, period, partial(probe, sensor, *args))
        for flow in scenario.flows:
            self._every(flow.start, flow.period, partial(self._spawn_flow, flow))
        if keys["audit_period"] > 0:
            self._every(keys["audit_period"], keys["audit_period"], self.system.run_audits)

    def _every(self, start: int, period: int, fn) -> None:
        clock, schedule = self.clock, self._schedule

        def tick():
            fn()
            schedule(clock.now + period, tick)

        schedule(start, tick)

    # --- faults ---

    def inject(self, fault: FaultEntry) -> None:
        """Schedule one fault entry; it takes effect at its own tick.
        Raises `UnknownHost` for a host the system lacks. The entry checked
        its own kind and arguments when it was built."""
        for host_arg in fault.hosts:
            if not self.system.hosts.host_exists(host_arg):
                raise UnknownHost(f"fault targets unknown host {host_arg!r}")
        self.clock.schedule(fault.time, partial(self._apply_fault, fault))

    def _apply_fault(self, fault: FaultEntry) -> None:
        now = self.clock.now
        hosts = self.system.hosts
        if fault.kind == "kill":
            if self.system.kill_host(fault.args[0]):
                self._down_since[fault.args[0]] = now
        elif fault.kind == "revive":
            host = hosts.get(fault.args[0])
            if not host.up:
                host.revive(now)
                self._downtime += now - self._down_since.pop(host.host_id, now)
        elif fault.kind == "leak":
            hosts.get(fault.args[0]).set_leak(float(fault.args[1]), now)
        elif fault.kind == "link":
            hosts.set_link_quality(fault.args[0], fault.args[1], float(fault.args[2]))
        self.trace.record("fault", type=fault.kind, args=fault.args)

    # --- probes ---

    def _probe_liveness(self, sensor, host_id: str) -> None:
        if not self._hosts.host_is_up(host_id):
            self._emit(sensor, "host_failed", {"host": host_id})

    def _probe_resource(self, sensor, host_id: str) -> None:
        host = self._hosts.get(host_id)
        if not host.up:
            return
        level = host.level(self.clock.now)
        if level <= self._critical:
            if host_id not in self._exhausted:
                self._exhausted.add(host_id)
                self._exhaustions += 1
        else:
            self._exhausted.discard(host_id)
        self._emit(sensor, "resource_sample", {"host": host_id, "level": level})

    def _probe_link(self, sensor, a: str, b: str) -> None:
        hosts = self._hosts
        if hosts.host_is_up(a) and hosts.host_is_up(b):
            self._emit(
                sensor, "link_quality",
                {"src": a, "dst": b, "quality": hosts.link_quality(a, b)},
            )

    # --- application traffic ---

    def _spawn_flow(self, flow) -> None:
        self._flow_counter += 1
        self._step(flow.path, self._flow_counter, 0, None)

    def _step(self, path: tuple[str, ...], flow_no: int, index: int, leaving) -> None:
        """One traffic hop: leave `leaving`, entered a tick ago (None on a
        flow's first step and on a retry), then try to enter `path[index]`."""
        occupancy = self._occupancy
        if leaving is not None:
            occupancy[leaving] -= 1
        if index == len(path):
            return
        now = self.clock.now
        cid = path[index]
        comp = self._components.get(cid)
        state = _DOWN if comp is None else comp.state
        if state is _ACTIVE:
            occupancy[cid] = occupancy.get(cid, 0) + 1
            self._record_hop(flow_no, cid)
            self._schedule(now + 1, partial(self._step, path, flow_no, index + 1, cid))
        elif state is _BLOCKED:
            # Quiescence: traffic never traverses a blocked component; the
            # transaction stalls at the boundary until it is unblocked.
            self._schedule(now + 1, partial(self._step, path, flow_no, index, None))
        else:
            self._record_drop(flow_no, cid)

    # --- running ---

    def run(self, until: int) -> RunReport:
        self.run_until(until)
        for host_id, since in self._down_since.items():
            self._downtime += until - since
        self._down_since = {h: until for h in self._down_since}
        metrics = {
            "adaptations_executed": self.trace.count("scenario"),
            "downtime_ticks": self._downtime,
            "events_emitted": self.trace.count("event"),
            "exhaustions_reached": self._exhaustions,
            "txns_committed": self.trace.count("txn_commit"),
        }
        return RunReport(
            scenario=self.scenario.settings["name"],
            seed=self.seed,
            until=until,
            trace_blocks=self.trace.blocks(),
            graph_lines=self.system.graph.canonical_lines(),
            metrics=metrics,
        )

    def run_until(self, until: int) -> None:
        """Advance the clock without finalizing a report (stepwise runs)."""
        self._install()
        self.system.run_until(until)
