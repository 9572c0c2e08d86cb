"""Adaptation events, sensors, and two actuator kinds.

Any managed object registered here may emit events; routing delivers an
event to every domain the source belongs to, directly or indirectly. A
domain's own events (a transaction's abort notice) go to that domain.
`ActuationHub.emit` is the one place that numbers and makes an event, an
immutable record, and it writes the event's line through a recorder the
hub prepares once; every event and agent line is stamped with the clock's
time. The two actuator kinds are graph transactions and mobile agents.
Mobile agents walk an itinerary of path names, executing a registered
action at each stop and reporting per-stop outcomes; an unresolvable stop
is skipped, not fatal. An event's payload, a hop's stop and outcome and a
report's outcomes go to the trace as they are; `trace.encode_value`
writes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .confgraph import ReconfigTxn
from .errors import EmptyItinerary, UnknownAction, UnknownId
from .paths import PathName
from .registry import ObjectId, Registry
from .trace import TraceLog


class AdaptationEvent(NamedTuple):
    event_id: int
    source: ObjectId
    event_type: str
    payload: dict[str, float | int | str]
    timestamp: int


# --- actuator actions ---

@dataclass(frozen=True)
class MobileAgent:
    agent_id: ObjectId
    itinerary: tuple[PathName, ...]
    action: str


@dataclass(frozen=True)
class StopOutcome:
    status: str  # ok | skipped | failed
    reason: str = ""

    def __str__(self) -> str:
        return f"failed:{self.reason}" if self.status == "failed" else self.status


@dataclass
class AgentReport:
    agent_id: ObjectId
    outcomes: list[StopOutcome] = field(default_factory=list)
    started: int = 0
    finished: Optional[int] = None

    @property
    def done(self) -> bool:
        return self.finished is not None


@dataclass(frozen=True)
class GraphEditAction:
    txn: ReconfigTxn


@dataclass(frozen=True)
class AgentLaunchAction:
    agent: MobileAgent


ActuatorAction = GraphEditAction | AgentLaunchAction


def action_signature(action: ActuatorAction) -> str:
    """Canonical rendering used for cooldown deduplication and traces."""
    if isinstance(action, GraphEditAction):
        return f"graph_edit[{action.txn.render_edits()}]"
    agent = action.agent
    stops = ",".join(p.render() for p in agent.itinerary)
    return f"agent[{agent.action}:{stops}]"


# --- the hub ---

@dataclass
class _SensorInfo:
    heartbeat: int
    last_emit: Optional[int] = None


class ActuationHub:
    """Sensor registrations, event emission, and agent flights.

    The engine builds its hub and passes itself in; every event goes to
    it. Agents fly on the clock, one hop every `agent_hop_latency`
    ticks."""

    def __init__(self, registry: Registry, trace: TraceLog, clock, engine,
                 agent_hop_latency: int = 1):
        self._registry = registry
        self._trace = trace
        self._clock = clock
        self._dispatch = engine.dispatch_event
        # The event line, prepared once: its names are checked here.
        self._record_event = trace.recorder("event", "id", "src", "type", "domains", "payload")
        self._sensors: dict[ObjectId, _SensorInfo] = {}
        self._actions: dict[str, Callable] = {"noop": lambda stop, target: None}
        self._next_event_id = 1
        self.agent_hop_latency = agent_hop_latency

    # --- sensors ---

    def register_sensor(self, sensor: ObjectId, heartbeat: int = 0) -> None:
        if not self._registry.known(sensor):
            raise UnknownId(f"unknown object {sensor}")
        self._sensors[sensor] = _SensorInfo(heartbeat)

    def is_sensor(self, sensor: ObjectId) -> bool:
        return sensor in self._sensors

    def heartbeat_of(self, sensor: ObjectId) -> int:
        return self._sensors[sensor].heartbeat

    def last_emit_of(self, sensor: ObjectId) -> Optional[int]:
        info = self._sensors.get(sensor)
        return info.last_emit if info else None

    def registered_sensors(self) -> list[ObjectId]:
        return sorted(self._sensors)

    def emit(self, source: ObjectId, event_type: str, payload: dict) -> int:
        """Build an event from a registered sensor or a domain, numbered by
        a globally monotone id and stamped with the clock's time, and route
        it; returns the number of domains reached. Raises `UnknownSensor`
        for any other source."""
        now = self._clock.now
        info = self._sensors.get(source)
        if info is not None:
            info.last_emit = now
        event_id = self._next_event_id
        self._next_event_id = event_id + 1
        payload = dict(payload)
        routed = len(self._dispatch(AdaptationEvent(event_id, source, event_type, payload, now)))
        self._record_event(event_id, source, event_type, routed, payload)
        return routed

    # --- agents ---

    def register_action(self, token: str, fn: Callable) -> None:
        """Register `fn(stop, target)`, called at each resolved stop with the
        stop's path and the object it names; bind any context beforehand."""
        self._actions[token] = fn

    def launch_agent(self, from_domain: ObjectId, agent: MobileAgent) -> AgentReport:
        """Fly the agent on the clock. Each hop is a discrete event, and the
        report fills in as the hops complete."""
        if not agent.itinerary:
            raise EmptyItinerary(f"agent {agent.agent_id} has no stops")
        if agent.action not in self._actions:
            raise UnknownAction(f"unregistered action {agent.action!r}")
        report = AgentReport(agent.agent_id, started=self._clock.now)
        # Agents report through the event channel too, so they act as
        # sensors with no heartbeat expectation.
        self._sensors.setdefault(agent.agent_id, _SensorInfo(0))
        self._schedule_hop(from_domain, agent, report, 0)
        return report

    def _schedule_hop(self, from_domain, agent, report, index) -> None:
        clock = self._clock

        def fly():
            self._hop(agent, agent.itinerary[index], report)
            if index + 1 < len(agent.itinerary):
                self._schedule_hop(from_domain, agent, report, index + 1)
            else:
                self._complete(from_domain, agent, report)

        clock.schedule(clock.now + self.agent_hop_latency, fly)

    def _hop(self, agent: MobileAgent, stop: PathName, report: AgentReport) -> None:
        try:
            target = self._registry.resolve(stop)
        except Exception:
            outcome = StopOutcome("skipped")
        else:
            try:
                self._actions[agent.action](stop, target)
                outcome = StopOutcome("ok")
            except Exception as exc:  # action failures are reported, not raised
                outcome = StopOutcome("failed", type(exc).__name__)
        report.outcomes.append(outcome)
        self._trace.record("agent_hop", agent=agent.agent_id, stop=stop, outcome=outcome)

    def _complete(self, from_domain: ObjectId, agent: MobileAgent, report: AgentReport) -> None:
        report.finished = self._clock.now
        self._trace.record("agent_report", agent=agent.agent_id, issuer=from_domain,
                           outcomes=report.outcomes)
        counts = {"ok": 0, "skipped": 0, "failed": 0}
        for outcome in report.outcomes:
            counts[outcome.status] += 1
        self.emit(agent.agent_id, "agent_report", counts)
