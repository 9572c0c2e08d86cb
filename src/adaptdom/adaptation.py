"""Per-domain loadable adaptation logic.

Each domain may carry one logic binding: five collaborating stages
(monitor, audit, analyze, regulate, execute) plus a firing strategy.
Reactive logic runs the pipeline per event; proactive logic accumulates
samples and fires when the fitted trend has crossed a guard level ahead
of the critical one; retroactive logic evaluates batches exactly at
period boundaries. Stages are registered behaviors selected by token,
so a binding stays portable and independent of member identities.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .confgraph import (
    ConfigGraph,
    MoveComponent,
    ReconfigTxn,
    ReplaceComponent,
    validate as validate_txn,
)
from .errors import (
    ConsistencyRejected,
    InsufficientSamples,
    InvalidPolicy,
    NoLogicLoaded,
    NoParent,
    NotADomain,
    PolicySuppressed,
    UnknownId,
    UnknownSensor,
    UnknownStage,
)
from .paths import PathName, check_token
from .registry import EnumerateMode, Kind, ObjectId, Registry
from .sensing import (
    ActuationHub,
    ActuatorAction,
    AdaptationCommand,
    AdaptationEvent,
    AgentLaunchAction,
    CommandAction,
    CommandResult,
    GraphEditAction,
    MobileAgent,
    action_signature,
)
from .trace import TraceLog


# --- strategies, policies, decisions ---

@dataclass(frozen=True)
class Reactive:
    pass


@dataclass(frozen=True)
class Proactive:
    window: int
    critical: float
    margin: float


@dataclass(frozen=True)
class Retroactive:
    period: int


Strategy = Reactive | Proactive | Retroactive


def strategy_name(strategy: Strategy) -> str:
    return type(strategy).__name__.lower()


POLICY_KEYS = {"max_actions_per_window", "window", "cooldown", "forecast_margin", "enabled"}


class PolicySource(Enum):
    HUMAN_MANAGER = "human"
    PARENT_DOMAIN = "parent"


@dataclass
class Policy:
    source: PolicySource = PolicySource.HUMAN_MANAGER
    directives: dict[str, float] = field(default_factory=dict)
    enabled: bool = True

    def __post_init__(self):
        unknown = set(self.directives) - POLICY_KEYS
        if unknown:
            raise InvalidPolicy(f"unknown policy keys: {sorted(unknown)}")


@dataclass(frozen=True)
class AdaptationLogic:
    name: str
    strategy: Strategy
    analyze: str
    monitor: str = "pass_through"
    audit: str = "pass_through"
    regulate: str = "cooldown"
    execute: str = "actuate"
    params: dict[str, float | int | str] = field(default_factory=dict)

    def __post_init__(self):
        check_token(self.name)


@dataclass
class Decision:
    domain: ObjectId
    cause: tuple[int, ...]
    proposed_actions: tuple[ActuatorAction, ...]
    consistency_ok: bool = False
    target_paths: tuple[str, ...] = ()
    detail: str = ""


@dataclass(frozen=True)
class Scenario:
    """An anti-oscillation action plan: time-offset steps plus a cooldown
    during which identical decisions are suppressed."""

    steps: tuple[tuple[int, ActuatorAction], ...]
    cooldown: int = 0

    def __post_init__(self):
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        offsets = [offset for offset, _ in self.steps]
        if offsets != sorted(offsets):
            raise ValueError("scenario offsets must be non-decreasing")

    def signature(self) -> str:
        body = ";".join(
            f"{offset}:{action_signature(action)}" for offset, action in self.steps
        )
        return hashlib.sha256(body.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class AuditFinding:
    kind: str  # sensor_stale | dangling_reference | orphaned_object
    domain: ObjectId
    subject: ObjectId
    detail: str = ""


# --- resource exhaustion forecasting ---

def _least_squares(samples: list[tuple[float, float]]) -> tuple[float, float]:
    n = float(len(samples))
    sx = sum(t for t, _ in samples)
    sy = sum(v for _, v in samples)
    sxx = sum(t * t for t, _ in samples)
    sxy = sum(t * v for t, v in samples)
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    return slope, intercept


def forecast_exhaustion(
    samples: list[tuple[float, float]], critical: float
) -> Optional[float]:
    """Least-squares linear fit over (time, level) samples.

    Returns the time at which the fitted line crosses `critical`, or None
    when the slope is zero or points away from it (the fitted level at the
    latest sample is receding from the critical value).
    """
    if len({t for t, _ in samples}) < 2:
        raise InsufficientSamples("need at least 2 samples with distinct times")
    slope, intercept = _least_squares(samples)
    if slope == 0.0:
        return None
    t_last = max(t for t, _ in samples)
    level_last = slope * t_last + intercept
    if (critical - level_last) * slope < 0:
        return None
    return (critical - intercept) / slope


# --- deterministic placement (healing / evacuation planner) ---

def plan_placement_moves(
    graph: ConfigGraph,
    hosts,
    from_host: str,
    weight: float = 1.0,
    exclude_hosts: tuple[str, ...] = (),
) -> list[MoveComponent]:
    """Move every component off `from_host`, one target per component.

    Target = up host with maximum free resource, where free = level -
    weight * (components currently assigned); ties break to the smallest
    host id. Counts update after each planned move so a single plan
    spreads load deterministically.
    """
    if not graph.count_on(from_host):
        return []
    levels = {
        h: hosts.resource_level(h) for h in hosts.host_ids()
        if h != from_host and h not in exclude_hosts and hosts.host_is_up(h)
    }
    counts = {h: graph.count_on(h) for h in levels}
    heap = [(-(levels[h] - weight * counts[h]), h) for h in levels]
    if not heap:
        return []
    heapq.heapify(heap)
    moves = []
    for cid in graph.components_on(from_host):
        _, target = heapq.heappop(heap)
        moves.append(MoveComponent(cid, target))
        counts[target] += 1
        heapq.heappush(heap, (-(levels[target] - weight * counts[target]), target))
    return moves


# --- pipeline stage registries ---

class StageContext:
    """What a stage behavior may see and touch while running."""

    def __init__(self, engine: "AdaptationEngine", domain: ObjectId,
                 binding: "_Binding", now: int):
        self.engine = engine
        self.domain = domain
        self.binding = binding
        self.now = now
        self.params = binding.logic.params if binding.logic else {}
        self.policy = binding.policy
        self.strategy = binding.logic.strategy if binding.logic else None
        self.state = binding.stage_state

    def member_path_of(self, oid: Optional[ObjectId]) -> Optional[str]:
        if oid is None:
            return None
        return self.engine.registry.member_path(self.domain, oid)

    def note_reference(self, rel_path: str) -> None:
        self.binding.referenced_paths[rel_path] = self.now

    def graph(self) -> Optional[ConfigGraph]:
        provider = self.engine.graph_provider
        return provider() if provider else None

    def hosts(self):
        return self.engine.hosts_provider

    def host_object(self, host_id: str) -> Optional[ObjectId]:
        return self.engine.host_objects.get(host_id)

    def absolute_path(self, rel_path: str) -> Optional[PathName]:
        bases = self.engine.registry.paths_of(self.domain)
        if not bases:
            return None
        return PathName(min(bases).segments + tuple(rel_path.split("/")))

    def next_txn_id(self, prefix: str) -> str:
        return self.engine._next_txn_id(prefix)


def _monitor_pass_through(ctx, events):
    return events


def _monitor_event_type_filter(ctx, events):
    wanted = set(str(ctx.params.get("event_types", "")).split(","))
    return [e for e in events if e.event_type in wanted]


def _audit_pass_through(ctx, events):
    return events


def _audit_drop_stale_sources(ctx, events):
    return [e for e in events if ctx.member_path_of(e.source) is not None]


def _evacuation(ctx, host: str, prefix: str) -> Optional[tuple[str, ReconfigTxn]]:
    """The host's relative path and a transaction moving every component
    off it, or None when the host is not a member or there is nothing to
    move. Shared by the analyzers that heal or evacuate a host."""
    rel = ctx.member_path_of(ctx.host_object(host))
    if rel is None:
        return None
    ctx.note_reference(rel)
    graph = ctx.graph()
    if graph is None or ctx.hosts() is None:
        return None
    weight = float(ctx.params.get("placement_weight", 1.0))
    moves = plan_placement_moves(graph, ctx.hosts(), host, weight)
    if not moves:
        return None
    return rel, ReconfigTxn(ctx.next_txn_id(prefix), tuple(moves))


def _analyze_threshold(ctx, events):
    """Fire when a payload field crosses a limit; optionally evacuate a host."""
    event_type = str(ctx.params.get("event_type", ""))
    fname = str(ctx.params.get("field", "value"))
    op = str(ctx.params.get("op", "lt"))
    limit = float(ctx.params.get("limit", 0.0))
    ops = {
        "lt": lambda v: v < limit,
        "le": lambda v: v <= limit,
        "gt": lambda v: v > limit,
        "ge": lambda v: v >= limit,
    }
    if op not in ops:
        return None
    hits = [
        e for e in events
        if e.event_type == event_type and fname in e.payload
        and ops[op](float(e.payload[fname]))
    ]
    if not hits:
        return None
    latest = hits[-1]
    plan = str(ctx.params.get("plan", "none"))
    actions: tuple[ActuatorAction, ...] = ()
    targets: tuple[str, ...] = ()
    if plan == "evacuate_host":
        host = str(latest.payload.get(str(ctx.params.get("host_field", "host")), ""))
        planned = _evacuation(ctx, host, "evac")
        if planned is None:
            return None
        rel, txn = planned
        actions = (GraphEditAction(txn),)
        targets = (rel,)
    return Decision(
        ctx.domain,
        cause=(latest.event_id,),
        proposed_actions=actions,
        target_paths=targets,
        detail=f"{fname} {op} {limit}",
    )


def _analyze_failure_count(ctx, events):
    """React to repeated failure events by restarting the failed host's
    components on the healthiest surviving hosts. With `window` set, only
    failures inside the trailing window count towards `count`."""
    event_type = str(ctx.params.get("event_type", "host_failed"))
    need = int(ctx.params.get("count", 1))
    window = int(ctx.params.get("window", 0))
    host_field = str(ctx.params.get("host_field", "host"))
    times = ctx.state.setdefault("failure_times", {})
    fired = None
    for event in events:
        if event.event_type != event_type or host_field not in event.payload:
            continue
        host = str(event.payload[host_field])
        seen = times.setdefault(host, [])
        seen.append(event.timestamp)
        if window > 0:
            seen = [t for t in seen if t > event.timestamp - window]
            times[host] = seen
        if len(seen) >= need:
            fired = (host, event)
    if fired is None:
        return None
    host, event = fired
    times[host] = []
    planned = _evacuation(ctx, host, "heal")
    if planned is None:
        return None
    rel, txn = planned
    return Decision(
        ctx.domain,
        cause=(event.event_id,),
        proposed_actions=(GraphEditAction(txn),),
        target_paths=(rel,),
        detail=f"restart {len(txn.edits)} components off {host}",
    )


def _analyze_linear_forecast(ctx, events):
    """Proactive aging watch: fit resource samples per host and rejuvenate
    once the fitted line has crossed the guard level ahead of critical."""
    strategy = ctx.strategy
    if not isinstance(strategy, Proactive):
        return None
    event_type = str(ctx.params.get("event_type", "resource_sample"))
    fname = str(ctx.params.get("field", "level"))
    host_field = str(ctx.params.get("host_field", "host"))
    margin = float(ctx.policy.directives.get("forecast_margin", strategy.margin))
    series = ctx.state.setdefault("series", {})
    touched = []
    for event in events:
        if event.event_type != event_type:
            continue
        if fname not in event.payload or host_field not in event.payload:
            continue
        host = str(event.payload[host_field])
        pts = series.setdefault(host, [])
        pts.append((event.timestamp, float(event.payload[fname]), event.event_id))
        series[host] = [p for p in pts if p[0] > ctx.now - strategy.window]
        touched.append(host)
    for host in touched:
        pts = series[host]
        if len({t for t, _, _ in pts}) < 2:
            continue
        fit_samples = [(t, v) for t, v, _ in pts]
        slope, intercept = _least_squares(fit_samples)
        if slope == 0.0:
            continue
        descending = slope < 0
        guard = strategy.critical + margin if descending else strategy.critical - margin
        level_last = fit_samples[-1][1]
        past_guard = level_last <= guard if descending else level_last >= guard
        guard_cross = (guard - intercept) / slope
        if not (past_guard or guard_cross <= ctx.now):
            continue
        rel = ctx.member_path_of(ctx.host_object(host))
        if rel is None:
            continue
        ctx.note_reference(rel)
        graph = ctx.graph()
        if graph is None:
            continue
        predicted = forecast_exhaustion(fit_samples, strategy.critical)
        edits = tuple(
            ReplaceComponent(cid, graph.components[cid].kind)
            for cid in graph.components_on(host)
        )
        actions: list[ActuatorAction] = []
        if edits:
            actions.append(GraphEditAction(ReconfigTxn(ctx.next_txn_id("rejuv"), edits)))
        stop = ctx.absolute_path(rel)
        if stop is None:
            continue
        reset_action = str(ctx.params.get("reset_action", "reset_host_resource"))
        agent_oid = ctx.engine.agent_for(ctx.domain)
        actions.append(AgentLaunchAction(MobileAgent(agent_oid, (stop,), reset_action)))
        series[host] = []
        cause = tuple(eid for _, _, eid in pts)
        return Decision(
            ctx.domain,
            cause=cause,
            proposed_actions=tuple(actions),
            target_paths=(rel,),
            detail=f"exhaustion of {host} predicted at t={predicted}",
        )
    return None


def _regulate_cooldown(ctx, decision):
    cooldown = int(ctx.policy.directives.get("cooldown", ctx.params.get("cooldown", 0)))
    # Retroactive actions execute at the boundary itself, never in between.
    spacing = 0 if isinstance(ctx.strategy, Retroactive) else int(ctx.params.get("step_spacing", 0))
    steps = tuple(
        (i * spacing, action) for i, action in enumerate(decision.proposed_actions)
    )
    return Scenario(steps=steps, cooldown=cooldown)


def _execute_actuate(ctx, scenario, decision):
    for offset, action in scenario.steps:
        ctx.engine.actuate(ctx.now + offset, action, ctx.domain)


MONITORS: dict[str, Callable] = {
    "pass_through": _monitor_pass_through,
    "event_type_filter": _monitor_event_type_filter,
}
AUDITORS: dict[str, Callable] = {
    "pass_through": _audit_pass_through,
    "drop_stale_sources": _audit_drop_stale_sources,
}
ANALYZERS: dict[str, Callable] = {
    "threshold": _analyze_threshold,
    "failure_count": _analyze_failure_count,
    "linear_forecast": _analyze_linear_forecast,
}
REGULATORS: dict[str, Callable] = {
    "cooldown": _regulate_cooldown,
}
EXECUTORS: dict[str, Callable] = {
    "actuate": _execute_actuate,
}


# --- engine ---

PIPELINE_EXECUTED = "executed"
PIPELINE_NO_DECISION = "no_decision"
PIPELINE_CONSISTENCY_REJECTED = "consistency_rejected"
PIPELINE_POLICY_SUPPRESSED = "policy_suppressed"
PIPELINE_COOLDOWN_SUPPRESSED = "cooldown_suppressed"


@dataclass
class PipelineOutcome:
    status: str
    decision: Optional[Decision] = None
    scenario: Optional[Scenario] = None


@dataclass
class _Binding:
    logic: Optional[AdaptationLogic] = None
    policy: Policy = field(default_factory=Policy)
    stage_state: dict = field(default_factory=dict)
    accumulated: list[AdaptationEvent] = field(default_factory=list)
    referenced_paths: dict[str, int] = field(default_factory=dict)
    last_executed: dict[str, int] = field(default_factory=dict)
    executions: list[int] = field(default_factory=list)
    retro_anchor: int = 0
    generation: int = 0


class AdaptationEngine:
    """Owns bindings, routes events, runs pipelines, audits domains."""

    def __init__(self, registry: Registry, hub: ActuationHub, trace: TraceLog):
        self.registry = registry
        self.hub = hub
        self.trace = trace
        self._bindings: dict[ObjectId, _Binding] = {}
        self._txn_counter = 0
        self._agents: dict[ObjectId, ObjectId] = {}
        # Wired by the composing system.
        self.graph_provider: Optional[Callable[[], ConfigGraph]] = None
        self.hosts_provider = None
        self.host_objects: dict[str, ObjectId] = {}
        self.scheduler = None
        self.actuate: Callable[[int, ActuatorAction, ObjectId], None] = self._record_only
        hub.dispatch = self.dispatch_event
        hub.deliver_command = self.deliver_command

    def _record_only(self, time: int, action: ActuatorAction, domain: ObjectId) -> None:
        self.trace.record(
            time, "action",
            domain=domain, sig=action_signature(action),
        )

    def _next_txn_id(self, prefix: str) -> str:
        self._txn_counter += 1
        return f"{prefix}-{self._txn_counter}"

    def agent_for(self, domain: ObjectId) -> ObjectId:
        """Each domain lazily owns one mobile-agent object for its plans;
        the agent is included in the domain so it has a path name there."""
        if domain not in self._agents:
            agent = self.registry.register(Kind.AGENT)
            self.registry.include(domain, agent, f"adaptation_agent_{agent.seq}")
            self._agents[domain] = agent
        return self._agents[domain]

    # --- binding lifecycle ---

    def _binding(self, domain: ObjectId) -> _Binding:
        if not self.registry.known(domain):
            raise UnknownId(f"unknown object {domain}")
        if domain.kind is not Kind.DOMAIN:
            raise NotADomain(f"{domain} is not a domain")
        return self._bindings.setdefault(domain, _Binding())

    def load_logic(self, domain: ObjectId, logic: AdaptationLogic,
                   policy: Optional[Policy] = None) -> None:
        for registry_map, token in (
            (MONITORS, logic.monitor),
            (AUDITORS, logic.audit),
            (ANALYZERS, logic.analyze),
            (REGULATORS, logic.regulate),
            (EXECUTORS, logic.execute),
        ):
            if token not in registry_map:
                raise UnknownStage(f"unregistered stage behavior {token!r}")
        binding = self._binding(domain)
        binding.logic = logic
        if policy is not None:
            binding.policy = policy
        binding.stage_state = {}
        binding.accumulated = []
        binding.referenced_paths = {}
        binding.last_executed = {}
        binding.executions = []
        binding.generation += 1
        now = self.scheduler.now if self.scheduler else 0
        binding.retro_anchor = now
        if isinstance(logic.strategy, Retroactive) and self.scheduler is not None:
            self._schedule_retro(domain, binding.generation, now + logic.strategy.period)

    def unload_logic(self, domain: ObjectId) -> None:
        binding = self._bindings.get(domain)
        if binding is None or binding.logic is None:
            raise NoLogicLoaded(f"{domain} has no adaptation logic loaded")
        binding.logic = None
        binding.generation += 1

    def logic_of(self, domain: ObjectId) -> Optional[AdaptationLogic]:
        binding = self._bindings.get(domain)
        return binding.logic if binding else None

    def policy_of(self, domain: ObjectId) -> Policy:
        return self._binding(domain).policy

    def set_policy(self, domain: ObjectId, policy: Policy) -> None:
        self._binding(domain).policy = policy

    def bound_domains(self) -> list[ObjectId]:
        return sorted(d for d, b in self._bindings.items() if b.logic is not None)

    def _schedule_retro(self, domain: ObjectId, generation: int, when: int) -> None:
        def fire():
            binding = self._bindings.get(domain)
            if binding is None or binding.generation != generation or binding.logic is None:
                return
            self.retro_boundary(domain, self.scheduler.now)
            self._schedule_retro(
                domain, generation, self.scheduler.now + binding.logic.strategy.period
            )

        self.scheduler.schedule(when, fire)

    # --- event routing ---

    def dispatch_event(self, event: AdaptationEvent) -> list[tuple[ObjectId, Optional[Decision]]]:
        if not self.hub.is_sensor(event.source):
            raise UnknownSensor(f"{event.source} is not a registered sensor")
        results: list[tuple[ObjectId, Optional[Decision]]] = []
        for domain in self.registry.domains_containing(event.source):
            results.append((domain, self._deliver(domain, event)))
        return results

    def _deliver(self, domain: ObjectId, event: AdaptationEvent) -> Optional[Decision]:
        binding = self._bindings.get(domain)
        if binding is None or binding.logic is None:
            return None
        if isinstance(binding.logic.strategy, Retroactive):
            binding.accumulated.append(event)
            return None
        outcome = self._pipeline(domain, binding, [event], event.timestamp)
        return outcome.decision

    def propagate_to_parent(self, domain: ObjectId, event: AdaptationEvent) -> None:
        parents = self.registry.parent_domains(domain)
        if not parents:
            raise NoParent(f"{domain} has no parent domain")
        escalated = AdaptationEvent(
            event.event_id,
            event.source,
            event.event_type,
            dict(event.payload),
            event.timestamp,
            event.provenance + (domain,),
        )
        self.trace.record(
            event.timestamp, "propagate",
            domain=domain, event=event.event_id, parents=len(parents),
        )
        for parent in parents:
            self._deliver(parent, escalated)

    # --- pipeline ---

    def run_pipeline(self, domain: ObjectId, inputs: list[AdaptationEvent]) -> Optional[Scenario]:
        """Public single-shot pipeline run; raises on suppression so callers
        see why nothing executed. Event-driven dispatch uses the internal
        variant, which records outcomes instead of raising."""
        binding = self._bindings.get(domain)
        if binding is None or binding.logic is None:
            raise NoLogicLoaded(f"{domain} has no adaptation logic loaded")
        now = max(
            (e.timestamp for e in inputs),
            default=self.scheduler.now if self.scheduler else 0,
        )
        outcome = self._pipeline(domain, binding, inputs, now)
        if outcome.status == PIPELINE_CONSISTENCY_REJECTED:
            raise ConsistencyRejected(outcome.decision.detail if outcome.decision else "rejected")
        if outcome.status == PIPELINE_POLICY_SUPPRESSED:
            raise PolicySuppressed(f"policy suppressed execution for {domain}")
        return outcome.scenario

    def retro_boundary(self, domain: ObjectId, now: int) -> PipelineOutcome:
        binding = self._bindings.get(domain)
        if binding is None or binding.logic is None:
            raise NoLogicLoaded(f"{domain} has no adaptation logic loaded")
        inputs = binding.accumulated
        binding.accumulated = []
        self.trace.record(now, "retro_boundary", domain=domain, batch=len(inputs))
        return self._pipeline(domain, binding, inputs, now)

    def _pipeline(
        self,
        domain: ObjectId,
        binding: _Binding,
        inputs: list[AdaptationEvent],
        now: int,
        entry: str = "monitor",
    ) -> PipelineOutcome:
        logic = binding.logic
        ctx = StageContext(self, domain, binding, now)
        events = list(inputs)
        if entry == "monitor":
            events = MONITORS[logic.monitor](ctx, events)
            events = AUDITORS[logic.audit](ctx, events)
        decision = ANALYZERS[logic.analyze](ctx, events)
        if decision is None:
            return PipelineOutcome(PIPELINE_NO_DECISION)
        ok, why = self._check_consistency(domain, decision)
        decision.consistency_ok = ok
        if not ok:
            decision.detail = why
            self._trace_decision(now, domain, logic, decision, PIPELINE_CONSISTENCY_REJECTED)
            return PipelineOutcome(PIPELINE_CONSISTENCY_REJECTED, decision)
        policy = binding.policy
        if not policy.enabled:
            self._trace_decision(now, domain, logic, decision, PIPELINE_POLICY_SUPPRESSED)
            return PipelineOutcome(PIPELINE_POLICY_SUPPRESSED, decision)
        window = int(policy.directives.get("window", 0))
        limit = int(policy.directives.get("max_actions_per_window", 0))
        if limit > 0:
            floor = now - window if window > 0 else None
            recent = [t for t in binding.executions if floor is None or t > floor]
            if len(recent) >= limit:
                self._trace_decision(now, domain, logic, decision, PIPELINE_POLICY_SUPPRESSED)
                return PipelineOutcome(PIPELINE_POLICY_SUPPRESSED, decision)
        scenario = REGULATORS[logic.regulate](ctx, decision)
        signature = scenario.signature()
        last = binding.last_executed.get(signature)
        if last is not None and scenario.cooldown > 0 and now - last < scenario.cooldown:
            self._trace_decision(now, domain, logic, decision, PIPELINE_COOLDOWN_SUPPRESSED)
            return PipelineOutcome(PIPELINE_COOLDOWN_SUPPRESSED, decision)
        self._trace_decision(now, domain, logic, decision, PIPELINE_EXECUTED)
        self.trace.record(
            now, "scenario",
            domain=domain,
            steps=len(scenario.steps),
            cooldown=scenario.cooldown,
            sig=signature,
        )
        EXECUTORS[logic.execute](ctx, scenario, decision)
        binding.last_executed[signature] = now
        binding.executions.append(now)
        return PipelineOutcome(PIPELINE_EXECUTED, decision, scenario)

    def _trace_decision(self, now, domain, logic, decision, status) -> None:
        self.trace.record(
            now, "decision",
            domain=domain,
            logic=logic.name,
            cause="|".join(str(c) for c in decision.cause) or "-",
            actions=len(decision.proposed_actions),
            ok=decision.consistency_ok,
            status=status,
            detail=decision.detail or "-",
        )

    def _check_consistency(self, domain: ObjectId, decision: Decision) -> tuple[bool, str]:
        bases = self.registry.paths_of(domain)
        for rel in decision.target_paths:
            if not bases:
                return False, f"domain {domain} unreachable from root"
            absolute = PathName(min(bases).segments + tuple(rel.split("/")))
            try:
                self.registry.resolve(absolute)
            except Exception:
                return False, f"target {rel!r} does not resolve"
        for action in decision.proposed_actions:
            if isinstance(action, GraphEditAction):
                graph = self.graph_provider() if self.graph_provider else None
                if graph is not None:
                    report = validate_txn(graph, action.txn, self.hosts_provider)
                    if not report.ok:
                        return False, f"graph edit invalid: {report.violations[0]}"
            elif isinstance(action, CommandAction):
                cmd = action.command
                if not self.registry.known(cmd.to_domain):
                    return False, f"command target {cmd.to_domain} unknown"
                if cmd.to_domain.kind is not Kind.DOMAIN:
                    return False, f"command target {cmd.to_domain} is not a domain"
                if not self.registry.is_descendant_domain(cmd.from_domain, cmd.to_domain):
                    return False, f"{cmd.to_domain} is not a child of {cmd.from_domain}"
            elif isinstance(action, AgentLaunchAction):
                agent = action.agent
                if not agent.itinerary:
                    return False, "agent itinerary empty"
                if not self.registry.known(agent.agent_id):
                    return False, f"agent {agent.agent_id} unknown"
        return True, ""

    # --- commands ---

    def deliver_command(self, cmd: AdaptationCommand, now: int) -> CommandResult:
        binding = self._bindings.get(cmd.to_domain)
        if binding is None or binding.logic is None:
            return CommandResult(False, "no logic loaded")
        if cmd.verb == "set_policy":
            directives = dict(binding.policy.directives)
            enabled = binding.policy.enabled
            for key, value in cmd.args.items():
                if key not in POLICY_KEYS:
                    return CommandResult(False, f"unknown policy key {key!r}")
                if key == "enabled":
                    enabled = bool(int(value))
                else:
                    directives[key] = float(value)
            binding.policy = Policy(PolicySource.PARENT_DOMAIN, directives, enabled)
            return CommandResult(True, "policy updated")
        # Other verbs are decisions-in-progress: they skip monitor/audit and
        # enter the pipeline directly at analyze.
        synthetic = AdaptationEvent(
            self.hub.allocate_event_id(),
            cmd.from_domain,
            f"command:{cmd.verb}",
            dict(cmd.args),
            now,
        )
        outcome = self._pipeline(cmd.to_domain, binding, [synthetic], now, entry="analyze")
        handled = outcome.status != PIPELINE_NO_DECISION
        return CommandResult(handled, outcome.status)

    # --- audits ---

    def audit_tick(self, domain: ObjectId, now: int) -> list[AuditFinding]:
        binding = self._binding(domain)
        findings: list[AuditFinding] = []
        entries = self.registry.enumerate(domain, EnumerateMode.INDIRECT)
        for rel, member in entries:
            if self.hub.is_sensor(member):
                heartbeat = self.hub.heartbeat_of(member)
                if heartbeat <= 0:
                    continue
                last = self.hub.last_emit_of(member)
                if last is None or now - last > heartbeat:
                    findings.append(AuditFinding("sensor_stale", domain, member, rel))
        members = {member for _, member in entries}
        bases = self.registry.paths_of(domain)
        for rel in sorted(binding.referenced_paths):
            resolved = None
            if bases:
                try:
                    resolved = self.registry.resolve(
                        PathName(min(bases).segments + tuple(rel.split("/")))
                    )
                except Exception:
                    resolved = None
            if resolved is None or resolved not in members:
                findings.append(AuditFinding("dangling_reference", domain, domain, rel))
        for orphan in self.registry.orphans():
            findings.append(AuditFinding("orphaned_object", domain, orphan))
        for finding in findings:
            self.trace.record(
                now, "audit",
                domain=domain,
                finding=finding.kind,
                subject=finding.subject,
                detail=finding.detail or "-",
            )
        return findings

    def findings_to_events(
        self, findings: list[AuditFinding], sensor: ObjectId, now: int
    ) -> int:
        """Convert audit findings into synthetic adaptation events."""
        routed = 0
        for finding in findings:
            routed += self.hub.emit(
                sensor, f"audit_{finding.kind}",
                {"subject": str(finding.subject)}, now,
            )
        return routed
