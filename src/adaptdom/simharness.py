"""Deterministic discrete-event scenario driver.

Runs a configured system against a fault script: built-in probes sample
host liveness, resource levels, and link quality; application traffic
flows hop through the component graph (refusing blocked components);
adaptive domains react through their pipelines and actuators. Identical
(scenario, seed) pairs produce byte-identical reports.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .confgraph import ComponentState
from .errors import ScenarioParseError, UnknownHost
from .persistence import ConfigDocument, FaultEntry, build_system, fault_problem
from .registry import EnumerateMode
from .report import RunReport
from .system import System
from .trace import format_scalar

_ACTIVE = ComponentState.ACTIVE
_BLOCKED = ComponentState.BLOCKED
_DOWN = ComponentState.DOWN


@dataclass
class SystemState:
    """Consistent between-events view used by snapshots and tests."""

    time: int
    host_lines: tuple[str, ...]
    graph_lines: tuple[str, ...]
    tree_lines: tuple[str, ...]
    pending_txns: int

    def canonical_lines(self) -> list[str]:
        out = [f"time {self.time}", f"pending_txns {self.pending_txns}"]
        out.extend(self.host_lines)
        out.extend(self.graph_lines)
        out.extend(self.tree_lines)
        return out


class Simulator:
    """Owns the clock loop for one scenario run."""

    def __init__(self, source: ConfigDocument | System, seed: int = 0):
        self.system = build_system(source) if isinstance(source, ConfigDocument) else source
        self.seed = seed
        self.rng = random.Random(seed)
        params = self.system.scenario_params
        self.name = str(params.get("name", "scenario"))
        self.liveness_period = int(params.get("liveness_period", 10))
        self.resource_period = int(params.get("resource_period", 10))
        self.link_period = int(params.get("link_period", 0))
        self.audit_period = int(params.get("audit_period", 0))
        self.jitter = int(params.get("jitter", 0))
        self.exhaustion_critical = float(params.get("exhaustion_critical", 0.0))
        # Bound once for the traffic path. The manager's graph is built
        # before the simulator and every commit edits its components dict
        # in place, so traffic always sees the current components here.
        self.clock = self.system.clock
        self.trace = self.system.trace
        self._occupancy = self.system.occupancy
        self._components = self.system.graph.components
        self.system.hub.register_action(
            "reset_host_resource", functools.partial(_reset_host_resource, self.system)
        )
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
        for fault in self.system.doc_faults:
            self.inject(fault)
        for sensor, kind, args in self.system.doc_probes:
            period = {
                "liveness": self.liveness_period,
                "resource": self.resource_period,
                "link": self.link_period,
            }.get(kind, 0)
            if period <= 0:
                continue
            phase = self.rng.randrange(period) if self.jitter else 0
            if kind == "liveness":
                fn = lambda now, s=sensor, h=args[0]: self._probe_liveness(s, h)
            elif kind == "resource":
                fn = lambda now, s=sensor, h=args[0]: self._probe_resource(s, h, now)
            else:
                fn = lambda now, s=sensor, a=args[0], b=args[1]: self._probe_link(s, a, b)
            self._every(phase, period, fn)
        for flow in self.system.doc_flows:
            self._every(flow.start, flow.period,
                        lambda now, f=flow: self._spawn_flow(f, now))
        if self.audit_period > 0:
            self._every(self.audit_period, self.audit_period,
                        lambda now: self.system.run_audits())

    def _every(self, start: int, period: int, fn) -> None:
        clock = self.clock

        def tick():
            now = clock.now
            fn(now)
            clock.schedule(now + period, tick)

        clock.schedule(start, tick)

    # --- faults ---

    def inject(self, fault: FaultEntry) -> None:
        """Schedule one fault entry; it takes effect at its own tick.
        Raises `ScenarioParseError` for an entry a document could not
        hold, and `UnknownHost` for a host the system lacks."""
        problem = fault_problem(fault)
        if problem:
            raise ScenarioParseError(problem)
        for host_arg in fault.args[:2] if fault.kind == "link" else fault.args[:1]:
            if not self.system.hosts.host_exists(host_arg):
                raise UnknownHost(f"fault targets unknown host {host_arg!r}")
        self.clock.schedule(fault.time, lambda: self._apply_fault(fault))

    def _apply_fault(self, fault: FaultEntry) -> None:
        now = self.clock.now
        hosts = self.system.hosts
        if fault.kind == "kill":
            host = hosts.get(fault.args[0])
            if host.up:
                host.kill(now)
                self._down_since[host.host_id] = now
                self.system.config_manager.mark_host_down(host.host_id, now)
        elif fault.kind == "revive":
            host = hosts.get(fault.args[0])
            if not host.up:
                host.revive(now)
                self._downtime += now - self._down_since.pop(host.host_id, now)
        elif fault.kind == "leak":
            hosts.get(fault.args[0]).set_leak(float(fault.args[1]), now)
        elif fault.kind == "link":
            hosts.set_link_quality(fault.args[0], fault.args[1], float(fault.args[2]))
        self.trace.record(
            now, "fault", type=fault.kind, args="|".join(fault.args) or "-",
        )

    # --- probes ---

    def _probe_liveness(self, sensor, host_id: str) -> None:
        if not self.system.hosts.host_is_up(host_id):
            self.system.hub.emit(sensor, "host_failed", {"host": host_id})

    def _probe_resource(self, sensor, host_id: str, now: int) -> None:
        host = self.system.hosts.get(host_id)
        if not host.up:
            return
        level = host.level(now)
        if level <= self.exhaustion_critical:
            if host_id not in self._exhausted:
                self._exhausted.add(host_id)
                self._exhaustions += 1
        else:
            self._exhausted.discard(host_id)
        self.system.hub.emit(sensor, "resource_sample", {"host": host_id, "level": level})

    def _probe_link(self, sensor, a: str, b: str) -> None:
        hosts = self.system.hosts
        if hosts.host_is_up(a) and hosts.host_is_up(b):
            self.system.hub.emit(
                sensor, "link_quality",
                {"src": a, "dst": b, "quality": hosts.link_quality(a, b)},
            )

    # --- application traffic ---

    def _spawn_flow(self, flow, now: int) -> None:
        self._flow_counter += 1
        self._try_enter(flow, self._flow_counter, 0)

    def _try_enter(self, flow, txn_no: int, index: int) -> None:
        clock = self.clock
        now = clock.now
        cid = flow.path[index]
        comp = self._components.get(cid)
        state = _DOWN if comp is None else comp.state
        if state is _DOWN:
            self.trace.record(now, "app_drop", flow=txn_no, comp=cid)
            return
        if state is _BLOCKED:
            # Quiescence: traffic never traverses a blocked component; the
            # transaction stalls at the boundary until it is unblocked.
            clock.schedule(now + 1, lambda: self._try_enter(flow, txn_no, index))
            return
        assert state is _ACTIVE
        self._occupancy[cid] = self._occupancy.get(cid, 0) + 1
        self.trace.record(now, "app_hop", flow=txn_no, comp=cid)
        clock.schedule(now + 1, lambda: self._leave(flow, txn_no, index))

    def _leave(self, flow, txn_no: int, index: int) -> None:
        cid = flow.path[index]
        self._occupancy[cid] -= 1
        if index + 1 < len(flow.path):
            self._try_enter(flow, txn_no, index + 1)

    # --- running ---

    def run(self, until: int) -> RunReport:
        self._install()
        self.clock.run_until(until)
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
            scenario=self.name,
            seed=self.seed,
            until=until,
            trace_lines=self.trace.lines(),
            graph_lines=self.system.graph.canonical_lines(),
            metrics=metrics,
        )

    def run_until(self, until: int) -> None:
        """Advance the clock without finalizing a report (stepwise runs)."""
        self._install()
        self.clock.run_until(until)

    def snapshot(self, now: int | None = None) -> SystemState:
        clock_now = self.clock.now if now is None else now
        hosts = self.system.hosts
        host_lines = tuple(
            f"host {h} level={format_scalar(hosts.get(h).level(clock_now))}"
            f" status={'up' if hosts.get(h).up else 'down'}"
            for h in hosts.host_ids()
        )
        tree_lines = tuple(
            f"member {rel} {oid}"
            for rel, oid in self.system.registry.enumerate(
                self.system.registry.root, EnumerateMode.INDIRECT
            )
        )
        return SystemState(
            time=clock_now,
            host_lines=host_lines,
            graph_lines=tuple(self.system.graph.canonical_lines()),
            tree_lines=tree_lines,
            pending_txns=self.system.config_manager.pending,
        )


def _reset_host_resource(system, stop_path, target) -> None:
    """Registered agent action: restore the visited host's resource pool."""
    host_id = system.host_id_of_object(target)
    if host_id is None:
        raise UnknownHost(f"object {target} is not bound to a host")
    host = system.hosts.get(host_id)
    host.reset(system.clock.now)
    system.trace.record(system.clock.now, "host_reset", host=host_id)
