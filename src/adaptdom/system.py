"""Composition root: virtual clock, host table, and the wired framework.

A System bundles one registry, one actuation hub, one adaptation engine,
and one configuration manager around a shared deterministic clock and
trace. `System.__init__` is the one place that wires them, each through
its constructor, in this order: the scenario it runs (a `ScenarioSpec`,
checked as it is built), the clock, the trace (which stamps every line
with the clock's time), the registry (given, or a new one) and host
table; the state the System owns and lends out (the occupancy counts
that traffic writes, the host-to-object map the scenario pairs); the
configuration manager, with the System's commit and abort hooks; then
the adaptation engine, which builds its own actuation hub, and the
System's agent action `reset_host_resource`. Nothing is attached to
them afterwards. Hosts fail through `kill_host`. The simulator drives a
System through its scenario; tests may also drive one directly.

The clock is a calendar queue (R. Brown, CACM 31(10), 1988): time is
integer ticks, so each pending tick keeps a FIFO list of its callbacks
and a heap holds each pending tick once. Ties run FIFO in schedule order,
the order a heap of `(time, sequence)` entries gives. Callbacks may
schedule more, but must not call `run_until`.
"""

from __future__ import annotations

import heapq
from dataclasses import InitVar, dataclass, field
from typing import Callable, Optional

from .adaptation import AdaptationEngine
from .confgraph import ConfigGraph, ConfigManager
from .errors import HostDown, UnknownHost
from .keys import INTEGER, NUMBER, TOKEN, Key, read_keys
from .registry import ObjectId, Registry
from .trace import TraceLog


class SimClock:
    """Calendar of pending callbacks on integer ticks.

    `schedule` appends a callback to its tick's list; a time in the past
    runs at the current tick. `run_until` runs the ticks in order and each
    tick's list front to back, including callbacks appended to it while it
    runs, so ties run FIFO in schedule order and a fixed schedule always
    replays identically. If a callback raises, the ones after it stay
    queued. `run_until` must not be called from inside a callback.
    """

    def __init__(self):
        self.now = 0  # the current tick; only `run_until` advances it
        # Each pending tick once, and the callbacks of each pending tick.
        self._ticks: list[int] = []
        self._calendar: dict[int, list[Callable[[], None]]] = {}

    def schedule(self, time: int, fn: Callable[[], None]) -> None:
        if time < self.now:
            time = self.now
        bucket = self._calendar.get(time)
        if bucket is None:
            self._calendar[time] = [fn]
            heapq.heappush(self._ticks, time)
        else:
            bucket.append(fn)

    def run_until(self, until: int) -> None:
        ticks = self._ticks
        calendar = self._calendar
        while ticks and ticks[0] <= until:
            # Pending ticks are never behind the clock.
            self.now = time = ticks[0]
            bucket = calendar[time]
            try:
                # The iterator sees callbacks appended while it runs.
                for ran, fn in enumerate(bucket, 1):
                    fn()
            except BaseException:
                del bucket[:ran]
                raise
            heapq.heappop(ticks)
            del calendar[time]
        self.now = max(self.now, until)


@dataclass
class Host:
    """A simulated host: liveness, a leaking resource pool, link qualities.

    The level starts at `start_level` (else capacity) and is computed lazily
    so consecutive samples at period p differ by leak_rate * p while up.
    """

    host_id: str
    capacity: float
    leak_rate: float = 0.0
    up: bool = True
    links: dict[str, float] = None
    start_level: InitVar[Optional[float]] = None
    _mark_level: float = field(init=False)
    _mark_time: int = field(init=False, default=0)

    def __post_init__(self, start_level):
        if self.links is None:
            self.links = {}
        self._mark_level = self.capacity if start_level is None else start_level

    def level(self, now: int) -> float:
        if not self.up:
            return self._mark_level
        drained = self._mark_level - self.leak_rate * (now - self._mark_time)
        return min(self.capacity, max(0.0, drained))

    def _remark(self, now: int) -> None:
        self._mark_level = self.level(now)
        self._mark_time = now

    def set_leak(self, rate: float, now: int) -> None:
        self._remark(now)
        self.leak_rate = rate

    def kill(self, now: int) -> None:
        self._remark(now)
        self.up = False

    def revive(self, now: int) -> None:
        if self.up:
            return
        self.up = True
        self._mark_time = now

    def reset(self, now: int) -> None:
        self._mark_level = self.capacity
        self._mark_time = now


class HostTable:
    """Host registry implementing the status/resource view used by the
    configuration manager and the placement planner."""

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._hosts: dict[str, Host] = {}

    def add(self, host: Host) -> None:
        self._hosts[host.host_id] = host

    def get(self, host_id: str) -> Host:
        if host_id not in self._hosts:
            raise UnknownHost(f"unknown host {host_id!r}")
        return self._hosts[host_id]

    def host_ids(self) -> list[str]:
        return sorted(self._hosts)

    def host_exists(self, host_id: str) -> bool:
        return host_id in self._hosts

    def host_is_up(self, host_id: str) -> bool:
        return host_id in self._hosts and self._hosts[host_id].up

    def resource_level(self, host_id: str) -> float:
        return self.get(host_id).level(self._clock.now)

    def link_quality(self, a: str, b: str) -> float:
        return self.get(a).links.get(b, 1.0)

    def set_link_quality(self, a: str, b: str, quality: float) -> None:
        self.get(a).links[b] = quality
        self.get(b).links[a] = quality

    def links(self) -> list[tuple[str, str, float]]:
        out = []
        for a in self.host_ids():
            for b, quality in sorted(self._hosts[a].links.items()):
                if a < b:
                    out.append((a, b, quality))
        return out


# The `[scenario]` keys. The simulator reads each one but the latencies,
# which the System hands its configuration manager and engine.
SCENARIO_KEYS = (
    Key("agent_hop_latency", INTEGER, 1), Key("audit_period", INTEGER, 0),
    Key("exhaustion_critical", NUMBER, 0.0), Key("jitter", INTEGER, 0),
    Key("link_period", INTEGER, 0), Key("liveness_period", INTEGER, 10),
    Key("name", TOKEN, "scenario"), Key("reconfig_latency", INTEGER, 1),
    Key("resource_period", INTEGER, 10))


@dataclass(frozen=True)
class ScenarioSpec:
    """A checked `[scenario]` section: its keys as the document set them,
    which a save writes (`settings` holds every key as its reader takes
    it); the fault entries; the probes, as (sensor object, kind, args);
    the traffic flows; and the managed object each `host_object.<host>`
    key pairs with a host."""

    keys: dict = field(default_factory=dict)
    faults: tuple = ()
    probes: tuple = ()
    flows: tuple = ()
    host_objects: dict[str, ObjectId] = field(default_factory=dict)
    settings: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "settings",
                           read_keys(SCENARIO_KEYS, self.keys, "not a scenario key"))


class System:
    """One fully wired framework instance around a shared clock and trace,
    running `scenario` over `registry` (a new one by default)."""

    def __init__(self, graph: Optional[ConfigGraph] = None,
                 scenario: ScenarioSpec = ScenarioSpec(), registry: Optional[Registry] = None):
        self.scenario = scenario
        self.clock = SimClock()
        self.trace = TraceLog(self.clock)
        self.registry = registry if registry is not None else Registry()
        self.hosts = HostTable(self.clock)
        # Application traffic inside each component, written by the simulator.
        self.occupancy: dict[str, int] = {}
        # host_id <-> managed object mapping, as the scenario pairs them.
        self.host_objects: dict[str, ObjectId] = {}
        self._object_hosts: Optional[dict[ObjectId, str]] = None
        for host_id, oid in scenario.host_objects.items():
            self.bind_host_object(host_id, oid)
        self.config_manager = ConfigManager(
            graph if graph is not None else ConfigGraph(),
            self.clock,
            self.trace,
            self.hosts,
            self.occupancy,
            scenario.settings["reconfig_latency"],
            on_abort=self._on_txn_abort,
            on_commit=self._on_txn_commit,
        )
        self.engine = AdaptationEngine(
            self.registry, self.trace, self.clock, self.config_manager,
            self.hosts, self.host_objects, scenario.settings["agent_hop_latency"],
        )
        self.hub = self.engine.hub
        self.hub.register_action("reset_host_resource", self._reset_host_resource)

    @property
    def graph(self) -> ConfigGraph:
        return self.config_manager.graph

    def bind_host_object(self, host_id: str, oid: ObjectId) -> None:
        self.host_objects[host_id] = oid
        self._object_hosts = None

    def host_id_of_object(self, oid: ObjectId) -> Optional[str]:
        """The first host, in binding order, bound to `oid`."""
        if self._object_hosts is None:  # rebuilt after a binding changed
            self._object_hosts = {o: h for h, o in reversed(self.host_objects.items())}
        return self._object_hosts.get(oid)

    def run_until(self, until: int) -> None:
        self.clock.run_until(until)

    def kill_host(self, host_id: str) -> bool:
        """Take the host down at the clock's time, and its resident
        components with it. False if the host was already down."""
        host = self.hosts.get(host_id)
        if not host.up:
            return False
        host.kill(self.clock.now)
        self.config_manager.mark_host_down(host_id)
        return True

    def _reset_host_resource(self, stop_path, target) -> None:
        """Registered agent action: restore the visited host's resource pool.
        A host that is down has no pool to restore."""
        host_id = self.host_id_of_object(target)
        if host_id is None:
            raise UnknownHost(f"object {target} is not bound to a host")
        host = self.hosts.get(host_id)
        if not host.up:
            raise HostDown(f"host {host_id} is down")
        host.reset(self.clock.now)
        self.trace.record("host_reset", host=host_id)

    # --- transaction hooks ---

    def _on_txn_commit(self, flight) -> None:
        txn_id = flight.txn.txn_id
        if txn_id.split("-")[0] in ("heal", "rejuv", "evac"):
            assert flight.result.kinds_preserved, (
                f"adaptation transaction {txn_id} changed the component-kind multiset"
            )

    def _on_txn_abort(self, flight, reason: str) -> None:
        if flight.owner is not None:
            self.hub.emit(flight.owner, "reconfig_aborted",
                          {"txn": flight.txn.txn_id, "reason": reason})

    def run_audits(self) -> None:
        for domain in self.engine.bound_domains():
            self.engine.audit_tick(domain)
