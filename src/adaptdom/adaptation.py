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
from operator import ge, gt, le, lt, mul
from typing import Callable, NamedTuple, Optional, Sequence

from .confgraph import (
    ConfigGraph,
    ConfigManager,
    MoveComponent,
    ReconfigTxn,
    ReplaceComponent,
    Scheduler,
    validate as validate_txn,
)
from .errors import (
    AdaptdomError,
    InsufficientSamples,
    NoLogicLoaded,
    NotADomain,
    UnknownId,
    UnknownSensor,
    UnknownStage,
)
from .keys import FLAG, NAMES, NUMBER, TEXT, WHOLE, Key, Type, keys_of, read_keys
from .paths import PathName, check_token
from .registry import EnumerateMode, Kind, ObjectId, Registry
from .sensing import (
    ActuationHub,
    ActuatorAction,
    AdaptationEvent,
    AgentLaunchAction,
    GraphEditAction,
    MobileAgent,
    action_signature,
)
from .trace import TraceLog


# --- strategies, policies, decisions ---

class _Fields:
    """A strategy's fields declare its `strategy.*` keys; each holds what its type reads."""

    def __post_init__(self):
        for name, value in read_keys(keys_of(type(self)), vars(self), "", "strategy.").items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Reactive(_Fields):
    pass


@dataclass(frozen=True)
class Proactive(_Fields):
    window: int = 100
    critical: float = 0.0
    margin: float = 0.0


@dataclass(frozen=True)
class Retroactive(_Fields):
    period: int = 100


Strategy = Reactive | Proactive | Retroactive
STRATEGIES = {"reactive": Reactive, "proactive": Proactive, "retroactive": Retroactive}


def strategy_name(strategy: Strategy) -> str:
    return type(strategy).__name__.lower()


class PolicySource(Enum):
    HUMAN_MANAGER = "human"
    PARENT_DOMAIN = "parent"


# The `policy.*` keys: the policy's `enabled` and `source`, and its directives.
# An unset `cooldown` or `forecast_margin` (None) leaves the `cooldown` stage's
# `param.cooldown` or the proactive strategy's `margin`.
POLICY_KEYS = (
    Key("cooldown", WHOLE, None), Key("enabled", FLAG, True), Key("forecast_margin", NUMBER, None),
    Key("max_actions_per_window", WHOLE, 0), Key("window", WHOLE, 0),
    Key("source", Type("human or parent", PolicySource), PolicySource.HUMAN_MANAGER))


@dataclass
class Policy:
    """A domain's policy. `directives` keeps each one set, as the float a
    save writes; `settings` holds every directive as its reader takes it."""

    source: PolicySource = PolicySource.HUMAN_MANAGER
    directives: dict[str, float] = field(default_factory=dict)
    enabled: bool = True

    def __post_init__(self):
        settings = read_keys(POLICY_KEYS, {**self.directives, "enabled": self.enabled,
                                           "source": self.source}, "not a policy key", "policy.")
        self.source, self.enabled = settings.pop("source"), settings.pop("enabled")
        self.directives = {key: float(value) for key, value in self.directives.items()}
        self.settings = settings


# The stage keys of a logic section, in the order its errors name the readers.
STAGES = ("analyze", "monitor", "audit", "regulate", "execute")


@dataclass(frozen=True)
class AdaptationLogic:
    """A logic binding: a firing strategy and five registered stages.
    `params` keeps the `param.*` values as given, which a save writes, and
    each must be a key its stages declare; `settings` holds every declared
    key as the stages read it."""

    name: str
    strategy: Strategy
    analyze: str = "threshold"
    monitor: str = "pass_through"
    audit: str = "pass_through"
    regulate: str = "cooldown"
    execute: str = "actuate"
    params: dict[str, float | int | str] = field(default_factory=dict)
    settings: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_token(self.name)
        declared: dict[str, Key] = {}
        readers: dict[str, None] = {}  # the bound stages that declare keys, in order
        for stage in STAGES:
            token = getattr(self, stage)
            if token not in _REGISTRIES[stage]:
                raise UnknownStage(f"key {stage}: {token!r} is not a registered {stage} stage")
            for key in _REGISTRIES[stage][token].params:
                declared.setdefault(key.name, key)
                readers[token] = None
        *others, last = readers or ["no stage"]
        named = f"{', '.join(others)} or {last}" if others else last
        object.__setattr__(self, "settings", read_keys(
            declared.values(), self.params, f"not read by {named}", "param."))


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

def _fit(n: int, sx, sy, sxx, sxy) -> tuple[float, float]:
    """Slope and intercept from the sums of time, level, time² and time·level."""
    n = float(n)
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    return slope, (sy - slope * sx) / n


def _least_squares(times: Sequence[float], levels: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope and intercept. The contract is builtin `sum` over
    the same values in arrival order: a loop (3.12 compensates float `sum`)
    or running window sums would change the float bits, and so the reports.
    The proactive analyzer keeps each sample's `t*t` and `t*level`, the very
    floats summed here, and sums those columns in the same order."""
    return _fit(len(times), sum(times), sum(levels),
                sum(map(mul, times, times)), sum(map(mul, times, levels)))


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
    slope, intercept = _least_squares(*zip(*samples))
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
        if h != from_host and hosts.host_is_up(h)
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
    """What a stage behavior may see and touch while running, at the
    clock's time `now`. `load_logic` builds one per binding, and each run
    sets its `now`."""

    __slots__ = ("engine", "domain", "binding", "now", "params", "policy", "strategy", "state")

    def __init__(self, engine: "AdaptationEngine", domain: ObjectId, binding: "_Binding"):
        self.engine = engine
        self.domain = domain
        self.binding = binding
        self.now = engine.clock.now
        self.params = binding.logic.settings
        self.policy = binding.policy
        self.strategy = binding.logic.strategy
        self.state = binding.stage_state

    def member_path_of(self, oid: Optional[ObjectId]) -> Optional[str]:
        if oid is None:
            return None
        return self.engine.registry.member_path(self.domain, oid)

    def note_reference(self, rel_path: str) -> None:
        self.binding.referenced_paths[rel_path] = self.now

    def graph(self) -> ConfigGraph:
        return self.engine.manager.graph

    def hosts(self):
        return self.engine.hosts

    def host_object(self, host_id: str) -> Optional[ObjectId]:
        return self.engine.host_objects.get(host_id)

    def absolute_path(self, rel_path: str) -> Optional[PathName]:
        return self.engine.absolute_path(self.domain, rel_path)

    def next_txn_id(self, prefix: str) -> str:
        return self.engine._next_txn_id(prefix)


def _monitor_pass_through(ctx, events):
    return events


def _monitor_event_type_filter(ctx, events):
    wanted = ctx.params["event_types"]
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
    moves = plan_placement_moves(ctx.graph(), ctx.hosts(), host, ctx.params["placement_weight"])
    if not moves:
        return None
    return rel, ReconfigTxn(ctx.next_txn_id(prefix), tuple(moves))


_COMPARE = {"lt": lt, "le": le, "gt": gt, "ge": ge}


def _analyze_threshold(ctx, events):
    """Fire when a payload field crosses a limit; optionally evacuate a host."""
    params = ctx.params
    event_type, fname, op, limit = params["event_type"], params["field"], params["op"], params["limit"]
    compare = _COMPARE.get(op)
    if compare is None:
        return None
    hits = [e for e in events if e.event_type == event_type and fname in e.payload
            and compare(float(e.payload[fname]), limit)]
    if not hits:
        return None
    latest = hits[-1]
    actions: tuple[ActuatorAction, ...] = ()
    targets: tuple[str, ...] = ()
    if params["plan"] == "evacuate_host":
        host = str(latest.payload.get(params["host_field"], ""))
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
    params = ctx.params
    event_type, need, window, host_field = (params["event_type"], params["count"],
                                            params["window"], params["host_field"])
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
    params = ctx.params
    event_type, fname, host_field = params["event_type"], params["field"], params["host_field"]
    # `products` holds each host's `t*t` and `t*level` columns beside its series.
    series, products = ctx.state.setdefault("series", {}), ctx.state.setdefault("products", {})
    margin = ctx.policy.settings["forecast_margin"]
    if margin is None:
        margin = strategy.margin
    cutoff = ctx.now - strategy.window
    touched = []
    for event in events:
        if event.event_type != event_type:
            continue
        payload = event.payload
        if fname not in payload or host_field not in payload:
            continue
        host = str(payload[host_field])
        # Time, level and event-id columns in arrival order; a fit reads them in place.
        if host not in series:
            series[host], products[host] = ([], [], []), ([], [])
        times, levels, ids = series[host]
        tts, tls = products[host]
        t, level = event.timestamp, float(payload[fname])
        times.append(t)
        levels.append(level)
        ids.append(event.event_id)
        tts.append(t * t)
        tls.append(t * level)
        while times and (oldest := min(times)) <= cutoff:
            at = times.index(oldest)
            del times[at], levels[at], ids[at], tts[at], tls[at]
        touched.append(host)
    for host in touched:
        times, levels, ids = series[host]
        if not times or times.count(times[0]) == len(times):  # < 2 distinct times
            continue
        slope, intercept = _fit(len(times), sum(times), sum(levels), *map(sum, products[host]))
        if slope == 0.0:
            continue
        descending = slope < 0
        guard = strategy.critical + margin if descending else strategy.critical - margin
        level_last = levels[-1]
        past_guard = level_last <= guard if descending else level_last >= guard
        guard_cross = (guard - intercept) / slope
        if not (past_guard or guard_cross <= ctx.now):
            continue
        rel = ctx.member_path_of(ctx.host_object(host))
        if rel is None:
            continue
        ctx.note_reference(rel)
        graph = ctx.graph()
        predicted = forecast_exhaustion(list(zip(times, levels)), strategy.critical)
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
        agent_oid = ctx.engine.agent_for(ctx.domain)
        actions.append(AgentLaunchAction(MobileAgent(agent_oid, (stop,), params["reset_action"])))
        series[host], products[host] = ([], [], []), ([], [])
        return Decision(
            ctx.domain,
            cause=tuple(ids),
            proposed_actions=tuple(actions),
            target_paths=(rel,),
            detail=f"exhaustion of {host} predicted at t={predicted}",
        )
    return None


def _regulate_cooldown(ctx, decision):
    cooldown = ctx.policy.settings["cooldown"]
    if cooldown is None:
        cooldown = ctx.params["cooldown"]
    # Retroactive actions execute at the boundary itself, never in between.
    spacing = 0 if isinstance(ctx.strategy, Retroactive) else ctx.params["step_spacing"]
    steps = tuple(
        (i * spacing, action) for i, action in enumerate(decision.proposed_actions)
    )
    return Scenario(steps=steps, cooldown=cooldown)


def _execute_actuate(ctx, scenario, decision):
    for offset, action in scenario.steps:
        ctx.engine.actuate(ctx.now + offset, action, ctx.domain)


class Stage(NamedTuple):
    """A registered stage behavior and the `param.*` keys it reads."""

    behavior: Callable
    params: tuple[Key, ...] = ()


# Read by the analyzers that evacuate a host through `_evacuation`.
_PLACEMENT_WEIGHT = Key("placement_weight", NUMBER, 1.0)

MONITORS: dict[str, Stage] = {
    "pass_through": Stage(_monitor_pass_through),
    # A filter with nothing to pass could never decide.
    "event_type_filter": Stage(_monitor_event_type_filter, (Key("event_types", NAMES),)),
}
AUDITORS: dict[str, Stage] = {
    "pass_through": Stage(_audit_pass_through),
    "drop_stale_sources": Stage(_audit_drop_stale_sources),
}
ANALYZERS: dict[str, Stage] = {
    "threshold": Stage(_analyze_threshold, (
        Key("event_type", TEXT, ""), Key("field", TEXT, "value"), Key("op", TEXT, "lt"),
        Key("limit", NUMBER, 0.0), Key("plan", TEXT, "none"), Key("host_field", TEXT, "host"),
        _PLACEMENT_WEIGHT)),
    "failure_count": Stage(_analyze_failure_count, (
        Key("event_type", TEXT, "host_failed"), Key("count", WHOLE, 1), Key("window", WHOLE, 0),
        Key("host_field", TEXT, "host"), _PLACEMENT_WEIGHT)),
    "linear_forecast": Stage(_analyze_linear_forecast, (
        Key("event_type", TEXT, "resource_sample"), Key("field", TEXT, "level"),
        Key("host_field", TEXT, "host"), Key("reset_action", TEXT, "reset_host_resource"))),
}
REGULATORS: dict[str, Stage] = {
    "cooldown": Stage(_regulate_cooldown, (Key("cooldown", WHOLE, 0), Key("step_spacing", WHOLE, 0))),
}
EXECUTORS: dict[str, Stage] = {
    "actuate": Stage(_execute_actuate),
}
_REGISTRIES = {"analyze": ANALYZERS, "monitor": MONITORS, "audit": AUDITORS,
               "regulate": REGULATORS, "execute": EXECUTORS}


# --- engine ---

PIPELINE_EXECUTED = "executed"
PIPELINE_NO_DECISION = "no_decision"
PIPELINE_CONSISTENCY_REJECTED = "consistency_rejected"
PIPELINE_POLICY_SUPPRESSED = "policy_suppressed"
PIPELINE_COOLDOWN_SUPPRESSED = "cooldown_suppressed"


@dataclass(frozen=True)
class PipelineOutcome:
    status: str
    decision: Optional[Decision] = None
    scenario: Optional[Scenario] = None


_NO_DECISION = PipelineOutcome(PIPELINE_NO_DECISION)


@dataclass
class _Binding:
    logic: Optional[AdaptationLogic] = None
    policy: Policy = field(default_factory=Policy)
    stage_state: dict = field(default_factory=dict)
    accumulated: list[AdaptationEvent] = field(default_factory=list)
    referenced_paths: dict[str, int] = field(default_factory=dict)
    last_executed: dict[str, int] = field(default_factory=dict)
    executions: list[int] = field(default_factory=list)
    generation: int = 0
    # Set by `load_logic`: the five stage behaviors and the stages' context.
    stages: tuple[Callable, ...] = ()
    ctx: Optional[StageContext] = None


class AdaptationEngine:
    """Owns bindings, routes events, runs pipelines, audits domains, and
    carries out the actions its pipelines decide: graph edits and agent
    launches. It builds its own hub, passing itself in, so the hub routes
    every event here; its agents take `agent_hop_latency` ticks a hop.
    Graph edits go to `manager`; analyzers read `hosts` and `host_objects`
    (host id -> managed object, a dict the caller owns and fills)."""

    def __init__(self, registry: Registry, trace: TraceLog, clock: Scheduler,
                 manager: ConfigManager, hosts, host_objects: dict[str, ObjectId],
                 agent_hop_latency: int = 1):
        self.registry = registry
        self.trace = trace
        self.clock = clock
        self.manager = manager
        self.hosts = hosts
        self.host_objects = host_objects
        self.hub = ActuationHub(registry, trace, clock, self, agent_hop_latency)
        self._bindings: dict[ObjectId, _Binding] = {}
        self._txn_counter = 0
        self._agents: dict[ObjectId, ObjectId] = {}
        # Per source: its containing domains as the registry last gave them,
        # a result with no decisions, and each domain with logic loaded: its
        # place in the result, binding and whether that logic batches events.
        self._routes: dict[ObjectId, tuple[tuple[ObjectId, ...], list, list]] = {}

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
        binding.stages = tuple(_REGISTRIES[stage][getattr(logic, stage)].behavior
                               for stage in ("monitor", "audit", "analyze", "regulate", "execute"))
        binding.ctx = StageContext(self, domain, binding)
        self._routes.clear()
        if isinstance(logic.strategy, Retroactive):
            self._schedule_retro(domain, binding.generation)

    def unload_logic(self, domain: ObjectId) -> None:
        binding = self._bindings.get(domain)
        if binding is None or binding.logic is None:
            raise NoLogicLoaded(f"{domain} has no adaptation logic loaded")
        binding.logic = None
        binding.generation += 1
        self._routes.clear()

    def logic_of(self, domain: ObjectId) -> Optional[AdaptationLogic]:
        binding = self._bindings.get(domain)
        return binding.logic if binding else None

    def policy_of(self, domain: ObjectId) -> Policy:
        return self._binding(domain).policy

    def bound_domains(self) -> list[ObjectId]:
        return sorted(d for d, b in self._bindings.items() if b.logic is not None)

    def _schedule_retro(self, domain: ObjectId, generation: int) -> None:
        """Evaluate the batch one period from now, unless the logic has been
        loaded again or unloaded by then (each bumps the generation)."""
        binding = self._bindings[domain]

        def fire():
            if binding.generation == generation:
                self.retro_boundary(domain)
                self._schedule_retro(domain, generation)

        self.clock.schedule(self.clock.now + binding.logic.strategy.period, fire)

    # --- event routing ---

    def dispatch_event(self, event: AdaptationEvent) -> list[tuple[ObjectId, Optional[Decision]]]:
        """Deliver `event` by its source: a domain's own event to that
        domain, a registered sensor's to every domain containing it. Each
        domain reached comes back, in order, with its decision: None where
        no logic is loaded, or where retroactive logic batches the event."""
        source = event.source
        route = self._routes.get(source)
        if source.kind is Kind.DOMAIN:  # its own route never changes
            domains = (source,) if route is None else route[0]
        elif self.hub.is_sensor(source):
            domains = self.registry.domains_containing(source)
        else:
            raise UnknownSensor(f"{source} is not a registered sensor")
        if route is None or route[0] is not domains:
            route = self._routes[source] = (domains, [(domain, None) for domain in domains], [
                (at, domain, binding, isinstance(binding.logic.strategy, Retroactive))
                for at, domain in enumerate(domains)
                if (binding := self._bindings.get(domain)) is not None and binding.logic])
        decided = route[1].copy()
        for at, domain, binding, batches in route[2]:
            if batches:
                binding.accumulated.append(event)
            else:
                decided[at] = (domain, self._pipeline(domain, binding, [event]).decision)
        return decided

    # --- pipeline ---

    def retro_boundary(self, domain: ObjectId) -> PipelineOutcome:
        """Run the domain's pipeline over the events accumulated since the
        last boundary, stamped with the clock's time."""
        binding = self._bindings.get(domain)
        if binding is None or binding.logic is None:
            raise NoLogicLoaded(f"{domain} has no adaptation logic loaded")
        inputs = binding.accumulated
        binding.accumulated = []
        self.trace.record("retro_boundary", domain=domain, batch=len(inputs))
        return self._pipeline(domain, binding, inputs)

    def _pipeline(
        self,
        domain: ObjectId,
        binding: _Binding,
        inputs: list[AdaptationEvent],
    ) -> PipelineOutcome:
        ctx = binding.ctx
        ctx.now = now = self.clock.now
        monitor, audit, analyze, regulate, execute = binding.stages
        # The monitor may keep `inputs`: every caller hands over a fresh list.
        decision = analyze(ctx, audit(ctx, monitor(ctx, inputs)))
        if decision is None:
            return _NO_DECISION
        logic = binding.logic
        ok, why = self._check_consistency(domain, decision)
        decision.consistency_ok = ok
        if not ok:
            decision.detail = why
            self._trace_decision(domain, logic, decision, PIPELINE_CONSISTENCY_REJECTED)
            return PipelineOutcome(PIPELINE_CONSISTENCY_REJECTED, decision)
        policy = binding.policy
        if not policy.enabled:
            self._trace_decision(domain, logic, decision, PIPELINE_POLICY_SUPPRESSED)
            return PipelineOutcome(PIPELINE_POLICY_SUPPRESSED, decision)
        window = policy.settings["window"]
        limit = policy.settings["max_actions_per_window"]
        if limit > 0:
            floor = now - window if window > 0 else None
            recent = [t for t in binding.executions if floor is None or t > floor]
            if len(recent) >= limit:
                self._trace_decision(domain, logic, decision, PIPELINE_POLICY_SUPPRESSED)
                return PipelineOutcome(PIPELINE_POLICY_SUPPRESSED, decision)
        scenario = regulate(ctx, decision)
        signature = scenario.signature()
        last = binding.last_executed.get(signature)
        if last is not None and scenario.cooldown > 0 and now - last < scenario.cooldown:
            self._trace_decision(domain, logic, decision, PIPELINE_COOLDOWN_SUPPRESSED)
            return PipelineOutcome(PIPELINE_COOLDOWN_SUPPRESSED, decision)
        self._trace_decision(domain, logic, decision, PIPELINE_EXECUTED)
        self.trace.record(
            "scenario",
            domain=domain,
            steps=len(scenario.steps),
            cooldown=scenario.cooldown,
            sig=signature,
        )
        execute(ctx, scenario, decision)
        binding.last_executed[signature] = now
        binding.executions.append(now)
        return PipelineOutcome(PIPELINE_EXECUTED, decision, scenario)

    def _trace_decision(self, domain, logic, decision, status) -> None:
        self.trace.record(
            "decision",
            domain=domain,
            logic=logic.name,
            cause=decision.cause,
            actions=len(decision.proposed_actions),
            ok=decision.consistency_ok,
            status=status,
            detail=decision.detail,
        )

    def absolute_path(self, domain: ObjectId, rel_path: str) -> Optional[PathName]:
        """`rel_path` under the domain's least path from the root, or None
        when the root does not reach the domain."""
        bases = self.registry.paths_of(domain)
        if not bases:
            return None
        return PathName(min(bases).segments + tuple(rel_path.split("/")))

    def _check_consistency(self, domain: ObjectId, decision: Decision) -> tuple[bool, str]:
        for rel in decision.target_paths:
            absolute = self.absolute_path(domain, rel)
            if absolute is None:
                return False, f"domain {domain} unreachable from root"
            try:
                self.registry.resolve(absolute)
            except Exception:
                return False, f"target {rel!r} does not resolve"
        for action in decision.proposed_actions:
            if isinstance(action, GraphEditAction):
                report = validate_txn(self.manager.graph, action.txn, self.hosts)
                if not report.ok:
                    return False, f"graph edit invalid: {report.violations[0]}"
            elif isinstance(action, AgentLaunchAction):
                agent = action.agent
                if not agent.itinerary:
                    return False, "agent itinerary empty"
                if not self.registry.known(agent.agent_id):
                    return False, f"agent {agent.agent_id} unknown"
        return True, ""

    # --- actuation ---

    def actuate(self, time: int, action: ActuatorAction, domain: ObjectId) -> None:
        """Carry out `action` for `domain` at `time`: now, or on the clock."""
        if time > self.clock.now:
            self.clock.schedule(time, lambda: self._perform(action, domain))
        else:
            self._perform(action, domain)

    def _perform(self, action: ActuatorAction, domain: ObjectId) -> None:
        try:
            if isinstance(action, GraphEditAction):
                self.manager.submit(action.txn, owner=domain)
            elif isinstance(action, AgentLaunchAction):
                self.hub.launch_agent(domain, action.agent)
        except AdaptdomError as exc:
            self.trace.record("actuator_error", domain=domain, error=type(exc).__name__)

    # --- audits ---

    def audit_tick(self, domain: ObjectId) -> list[AuditFinding]:
        """Audit `domain` at the clock's time; each finding is traced."""
        now = self.clock.now
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
        for rel in sorted(binding.referenced_paths):
            absolute = self.absolute_path(domain, rel)
            resolved = None
            if absolute is not None:
                try:
                    resolved = self.registry.resolve(absolute)
                except Exception:
                    pass
            if resolved is None or resolved not in members:
                findings.append(AuditFinding("dangling_reference", domain, domain, rel))
        for orphan in self.registry.orphans():
            findings.append(AuditFinding("orphaned_object", domain, orphan))
        for finding in findings:
            self.trace.record(
                "audit",
                domain=domain,
                finding=finding.kind,
                subject=finding.subject,
                detail=finding.detail,
            )
        return findings
