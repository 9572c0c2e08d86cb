"""Persistent domain configurations.

The on-disk format is line-oriented sectioned text: a version header,
object declarations, one section per domain (sorted member bindings),
logic bindings by registered stage names (never code), sensor
registrations, the host table, the initial component graph, and scenario
parameters. Serialization is canonical (sorted keys, fixed section
order, stable ids) so save - load - save is byte-identical, and every
document ends with an explicit terminator so truncation is detectable.

The `[graph]` section is written with `confgraph.encode_graph` and read
back with `confgraph.decode_graph` once the rest of the document is
parsed. So a graph line with a bad shape, a name that is not a token, an
unknown state, a repeated component id or a repeated connection fails
the parse, naming its line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from .adaptation import (
    AdaptationLogic,
    Policy,
    PolicySource,
    Proactive,
    Reactive,
    Retroactive,
    Strategy,
    strategy_name,
)
from .confgraph import (
    Component,
    ComponentState,
    ConfigGraph,
    Connection,
    decode_graph,
    encode_graph,
)
from .errors import (
    DanglingReference,
    DirtyRegistry,
    IoFailure,
    ParseError,
    ScenarioParseError,
    UnknownVersion,
)
from .paths import check_tokens
from .registry import Kind, ObjectId
from .system import Host, System
from .trace import format_scalar

FORMAT_HEADER = "adaptdom-config 1"
END_MARKER = "end-config"

_INT_RE = re.compile(r"^-?\d+$")
_NUM_RE = re.compile(r"^-?\d+(\.\d+)?(e[+-]?\d+)?$")


def parse_scalar(text: str):
    if _NUM_RE.match(text):
        if "." in text or "e" in text:
            return float(text)
        return int(text)
    return text


# --- document model ---

@dataclass(frozen=True)
class FaultEntry:
    time: int
    kind: str  # kill | revive | leak | link
    args: tuple[str, ...]

    def render(self) -> str:
        return f"fault {self.time} {self.kind} {' '.join(self.args)}".rstrip()


@dataclass(frozen=True)
class ProbeDecl:
    sensor: int  # document object id
    kind: str  # liveness | resource | link
    args: tuple[str, ...]

    def render(self) -> str:
        return f"probe {self.sensor} {self.kind} {' '.join(self.args)}".rstrip()


@dataclass(frozen=True)
class FlowDecl:
    path: tuple[str, ...]
    period: int
    start: int = 0

    def render(self) -> str:
        return f"traffic {','.join(self.path)} period={self.period} start={self.start}"


@dataclass
class DomainSection:
    doc_id: int
    path: str
    members: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class LogicSection:
    doc_id: int
    path: str
    name: str = ""
    strategy: str = "reactive"
    strategy_params: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    policy: dict = field(default_factory=dict)


@dataclass
class ConfigDocument:
    root_id: int = 1
    objects: list[tuple[int, str]] = field(default_factory=list)
    domains: list[DomainSection] = field(default_factory=list)
    logics: list[LogicSection] = field(default_factory=list)
    sensors: list[tuple[int, float]] = field(default_factory=list)
    hosts: list[tuple[str, float, float, float, str]] = field(default_factory=list)
    links: list[tuple[str, str, float]] = field(default_factory=list)
    components: list[tuple[str, str, str, str]] = field(default_factory=list)
    connections: list[tuple[str, str, str, str]] = field(default_factory=list)
    scenario_keys: dict = field(default_factory=dict)
    faults: list[FaultEntry] = field(default_factory=list)
    probes: list[ProbeDecl] = field(default_factory=list)
    flows: list[FlowDecl] = field(default_factory=list)


# --- rendering ---

def render_document(doc: ConfigDocument) -> str:
    lines = [FORMAT_HEADER]
    lines.append("[system]")
    lines.append(f"root = {doc.root_id}")
    lines.append("[objects]")
    for oid, kind in sorted(doc.objects):
        lines.append(f"object {oid} {kind}")
    for section in sorted(doc.domains, key=lambda s: (s.path, s.doc_id)):
        lines.append(f"[domain {section.doc_id} {section.path}]")
        for name, member in sorted(section.members):
            lines.append(f"{name} = {member}")
    for section in sorted(doc.logics, key=lambda s: (s.path, s.doc_id)):
        lines.append(f"[logic {section.doc_id} {section.path}]")
        body: dict[str, str] = {"name": section.name, "strategy": section.strategy}
        for key, value in section.strategy_params.items():
            body[f"strategy.{key}"] = format_scalar(value)
        for stage, token in section.stages.items():
            body[stage] = token
        for key, value in section.params.items():
            body[f"param.{key}"] = format_scalar(value)
        for key, value in section.policy.items():
            body[f"policy.{key}"] = format_scalar(value)
        for key in sorted(body):
            lines.append(f"{key} = {body[key]}")
    if doc.sensors:
        lines.append("[sensors]")
        for oid, heartbeat in sorted(doc.sensors):
            lines.append(f"sensor {oid} heartbeat={format_scalar(heartbeat)}")
    if doc.hosts or doc.links:
        lines.append("[hosts]")
        for host_id, capacity, level, leak, status in sorted(doc.hosts):
            lines.append(
                f"host {host_id} capacity={format_scalar(capacity)}"
                f" leak={format_scalar(leak)} level={format_scalar(level)}"
                f" status={status}"
            )
        for a, b, quality in sorted(doc.links):
            lines.append(f"link {a} {b} quality={format_scalar(quality)}")
    if doc.components or doc.connections:
        lines.append("[graph]")
        lines.extend(encode_graph(doc.components, doc.connections))
    lines.append("[scenario]")
    for key in sorted(doc.scenario_keys):
        lines.append(f"{key} = {format_scalar(doc.scenario_keys[key])}")
    for fault in sorted(doc.faults, key=lambda f: (f.time, f.kind, f.args)):
        lines.append(fault.render())
    for probe in sorted(doc.probes, key=lambda p: (p.sensor, p.kind, p.args)):
        lines.append(probe.render())
    for flow in sorted(doc.flows, key=lambda f: (f.path, f.period, f.start)):
        lines.append(flow.render())
    lines.append(END_MARKER)
    return "\n".join(lines) + "\n"


# --- parsing ---

_SECTION_RE = re.compile(r"^\[([a-z]+)( .*)?\]$")

_KIND_NAMES = {k.value: k for k in Kind}
_STAGE_KEYS = {"monitor", "audit", "analyze", "regulate", "execute"}


def parse_document(text: str) -> ConfigDocument:
    """Parse a document. Every host, link end and traffic hop it names
    must be a token, checked as its line is parsed; the graph section is
    decoded after the other lines."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        head = lines[0].strip() if lines else ""
        if head.startswith("adaptdom-config"):
            raise UnknownVersion(f"unsupported version header: {head!r}")
        raise ScenarioParseError("missing format header", line=1)
    doc = ConfigDocument()
    section: Optional[str] = None
    current_domain: Optional[DomainSection] = None
    current_logic: Optional[LogicSection] = None
    graph: list[int] = []  # line numbers, so the lines are not held twice
    terminated = False
    for lineno, raw in enumerate(lines[1:], start=2):
        line = _content(raw)
        if not line.strip():
            continue
        if terminated:
            raise ScenarioParseError("content after end marker", line=lineno)
        if line == END_MARKER:
            terminated = True
            continue
        match = _SECTION_RE.match(line)
        if match:
            section = match.group(1)
            arg = (match.group(2) or "").strip()
            current_domain = current_logic = None
            if section == "domain":
                parts = arg.split()
                if len(parts) != 2 or not _INT_RE.match(parts[0]):
                    raise ScenarioParseError(f"bad domain section header {line!r}", line=lineno)
                current_domain = DomainSection(int(parts[0]), parts[1])
                doc.domains.append(current_domain)
            elif section == "logic":
                parts = arg.split()
                if len(parts) != 2 or not _INT_RE.match(parts[0]):
                    raise ScenarioParseError(f"bad logic section header {line!r}", line=lineno)
                current_logic = LogicSection(int(parts[0]), parts[1])
                doc.logics.append(current_logic)
            elif section not in ("system", "objects", "sensors", "hosts", "graph", "scenario"):
                raise ScenarioParseError(f"unknown section {section!r}", line=lineno)
            continue
        if section is None:
            raise ScenarioParseError(f"content outside any section: {line!r}", line=lineno)
        if section == "graph":
            graph.append(lineno)
            continue
        try:
            _parse_body_line(doc, section, current_domain, current_logic, line, lineno)
        except ParseError:
            raise
        except Exception as exc:
            raise ScenarioParseError(f"{type(exc).__name__}: {exc}", line=lineno)
    doc.components, doc.connections = decode_graph(
        (lineno, _content(lines[lineno - 1])) for lineno in graph)
    if not terminated:
        raise ScenarioParseError("missing end marker (truncated file?)", line=len(lines))
    return doc


def _content(raw: str) -> str:
    """A line without its comment and trailing whitespace."""
    return raw.split("#", 1)[0].rstrip()


def _parse_kv(line: str, lineno: int) -> tuple[str, str]:
    if " = " not in line:
        raise ScenarioParseError(f"expected 'key = value': {line!r}", line=lineno)
    key, _, value = line.partition(" = ")
    return key.strip(), value.strip()


def _parse_attrs(parts: list[str], lineno: int) -> dict[str, str]:
    out = {}
    for part in parts:
        if "=" not in part:
            raise ScenarioParseError(f"expected attr=value, got {part!r}", line=lineno)
        k, _, v = part.partition("=")
        out[k] = v
    return out


def _parse_body_line(doc, section, current_domain, current_logic, line, lineno):
    if section == "system":
        key, value = _parse_kv(line, lineno)
        if key == "root":
            doc.root_id = int(value)
        else:
            raise ScenarioParseError(f"unknown system key {key!r}", line=lineno)
    elif section == "objects":
        parts = line.split()
        if len(parts) != 3 or parts[0] != "object" or parts[2] not in _KIND_NAMES:
            raise ScenarioParseError(f"bad object declaration {line!r}", line=lineno)
        doc.objects.append((int(parts[1]), parts[2]))
    elif section == "domain":
        name, value = _parse_kv(line, lineno)
        current_domain.members.append((name, int(value)))
    elif section == "logic":
        key, value = _parse_kv(line, lineno)
        if key == "name":
            current_logic.name = value
        elif key == "strategy":
            current_logic.strategy = value
        elif key.startswith("strategy."):
            current_logic.strategy_params[key[9:]] = parse_scalar(value)
        elif key in _STAGE_KEYS:
            current_logic.stages[key] = value
        elif key.startswith("param."):
            current_logic.params[key[6:]] = parse_scalar(value)
        elif key.startswith("policy."):
            current_logic.policy[key[7:]] = parse_scalar(value)
        else:
            raise ScenarioParseError(f"unknown logic key {key!r}", line=lineno)
    elif section == "sensors":
        parts = line.split()
        if len(parts) != 3 or parts[0] != "sensor":
            raise ScenarioParseError(f"bad sensor line {line!r}", line=lineno)
        attrs = _parse_attrs(parts[2:], lineno)
        doc.sensors.append((int(parts[1]), float(attrs["heartbeat"])))
    elif section == "hosts":
        parts = line.split()
        if parts[0] == "host":
            check_tokens(parts[1:2])
            attrs = _parse_attrs(parts[2:], lineno)
            doc.hosts.append((
                parts[1],
                float(attrs["capacity"]),
                float(attrs["level"]),
                float(attrs["leak"]),
                attrs["status"],
            ))
        elif parts[0] == "link":
            check_tokens(parts[1:3])
            attrs = _parse_attrs(parts[3:], lineno)
            doc.links.append((parts[1], parts[2], float(attrs["quality"])))
        else:
            raise ScenarioParseError(f"bad hosts line {line!r}", line=lineno)
    elif section == "scenario":
        parts = line.split()
        if parts[0] == "fault":
            fault = FaultEntry(int(parts[1]), parts[2], tuple(parts[3:]))
            _raise_if(fault_problem(fault), lineno)
            doc.faults.append(fault)
        elif parts[0] == "probe":
            probe = ProbeDecl(int(parts[1]), parts[2], tuple(parts[3:]))
            _raise_if(probe_problem(probe), lineno)
            doc.probes.append(probe)
        elif parts[0] == "traffic":
            path = parts[1].split(",")
            check_tokens(path)
            attrs = _parse_attrs(parts[2:], lineno)
            flow = FlowDecl(tuple(path), int(attrs["period"]), int(attrs.get("start", 0)))
            _raise_if(flow_problem(flow), lineno)
            doc.flows.append(flow)
        else:
            key, value = _parse_kv(line, lineno)
            doc.scenario_keys[key] = parse_scalar(value)


# The arguments of each fault and probe kind, in order: a host name, or a
# finite number under the name given.
_FAULT_ARGS = {
    "kill": ("host",), "revive": ("host",), "leak": ("host", "rate"),
    "link": ("host", "host", "quality"),
}
_PROBE_ARGS = {"liveness": ("host",), "resource": ("host",), "link": ("host", "host")}


def _args_problem(what: str, kind: str, args: tuple[str, ...], shapes: dict) -> Optional[str]:
    shape = shapes.get(kind)
    if shape is None:
        return f"unknown {what} kind {kind!r}"
    if len(args) != len(shape):
        return f"{what} {kind} takes {' '.join(f'<{name}>' for name in shape)}"
    for name, value in zip(shape, args):
        if name != "host":
            try:
                number = float(value)
            except ValueError:
                number = math.nan
            if not math.isfinite(number):
                return f"{what} {kind}: {name} {value!r} is not a finite number"
    return None


def fault_problem(fault: FaultEntry) -> Optional[str]:
    """Why the simulator cannot apply `fault` (an unknown kind, a wrong
    number of arguments, or a rate or quality that is not a finite
    number), or None."""
    return _args_problem("fault", fault.kind, fault.args, _FAULT_ARGS)


def probe_problem(probe: ProbeDecl) -> Optional[str]:
    """Why the simulator cannot run `probe` (an unknown kind or a wrong
    number of hosts), or None."""
    return _args_problem("probe", probe.kind, probe.args, _PROBE_ARGS)


def flow_problem(flow: FlowDecl) -> Optional[str]:
    """Why the simulator cannot run `flow`, or None. A flow re-schedules
    itself `period` ticks on: at 0 or less it would run at one tick for
    ever."""
    if flow.period <= 0:
        return f"traffic period must be positive, got {flow.period}"
    return None


def _raise_if(problem, lineno: int = 0) -> None:
    if problem:
        raise ScenarioParseError(problem, line=lineno)


# --- document -> live system ---

def _build_strategy(section: LogicSection) -> Strategy:
    if section.strategy == "reactive":
        return Reactive()
    if section.strategy == "proactive":
        sp = section.strategy_params
        return Proactive(
            window=int(sp.get("window", 100)),
            critical=float(sp.get("critical", 0.0)),
            margin=float(sp.get("margin", 0.0)),
        )
    if section.strategy == "retroactive":
        return Retroactive(period=int(section.strategy_params.get("period", 100)))
    raise DanglingReference(f"unknown strategy {section.strategy!r}")


def build_system(doc: ConfigDocument) -> System:
    """Reconstruct a live system from a parsed document."""
    latency = int(doc.scenario_keys.get("reconfig_latency", 1))
    system = System(reconfig_latency=latency)
    declared = dict(doc.objects)
    if doc.root_id not in declared:
        raise DanglingReference(f"root id {doc.root_id} not declared")
    if declared[doc.root_id] != Kind.DOMAIN.value:
        raise DanglingReference("root object must be domain-kind")
    id_map: dict[int, ObjectId] = {}
    id_map[doc.root_id] = system.registry.create_root()
    for doc_id, kind_name in sorted(doc.objects):
        if doc_id == doc.root_id:
            continue
        id_map[doc_id] = system.registry.register(_KIND_NAMES[kind_name])

    def lookup(doc_id: int) -> ObjectId:
        if doc_id not in id_map:
            raise DanglingReference(f"undeclared object id {doc_id}")
        return id_map[doc_id]

    for section in sorted(doc.domains, key=lambda s: (s.path, s.doc_id)):
        domain = lookup(section.doc_id)
        for name, member in sorted(section.members):
            system.registry.include(domain, lookup(member), name)
    for section in sorted(doc.logics, key=lambda s: (s.path, s.doc_id)):
        domain = lookup(section.doc_id)
        stages = dict(section.stages)
        logic = AdaptationLogic(
            name=section.name,
            strategy=_build_strategy(section),
            analyze=stages.get("analyze", "threshold"),
            monitor=stages.get("monitor", "pass_through"),
            audit=stages.get("audit", "pass_through"),
            regulate=stages.get("regulate", "cooldown"),
            execute=stages.get("execute", "actuate"),
            params=dict(section.params),
        )
        directives = {
            k: float(v) for k, v in section.policy.items()
            if k not in ("source", "enabled")
        }
        policy = Policy(
            source=PolicySource.PARENT_DOMAIN
            if section.policy.get("source") == "parent" else PolicySource.HUMAN_MANAGER,
            directives=directives,
            enabled=bool(int(section.policy.get("enabled", 1))),
        )
        system.engine.load_logic(domain, logic, policy)
    for doc_id, heartbeat in sorted(doc.sensors):
        system.hub.register_sensor(lookup(doc_id), int(heartbeat))
    for host_id, capacity, level, leak, status in sorted(doc.hosts):
        host = Host(host_id, capacity, leak_rate=leak, up=(status == "up"))
        host._mark_level = level
        system.hosts.add(host)
    for a, b, quality in sorted(doc.links):
        system.hosts.set_link_quality(a, b, quality)
    components = {}
    for cid, kind, host, state in sorted(doc.components):
        if not system.hosts.host_exists(host):
            raise DanglingReference(f"component {cid} on undeclared host {host!r}")
        components[cid] = Component(kind, host, ComponentState(state))
    connections = set()
    for src, sport, dst, dport in doc.connections:
        if src not in components or dst not in components:
            raise DanglingReference(f"connection references unknown component: {src}->{dst}")
        connections.add(Connection(src, sport, dst, dport))
    system.config_manager.graph = ConfigGraph(components, connections)
    system.scenario_params = dict(doc.scenario_keys)
    system.hub.agent_hop_latency = int(doc.scenario_keys.get("agent_hop_latency", 1))
    # The scenario lines' own checks, for a document built in code.
    for problem in chain(map(fault_problem, doc.faults), map(probe_problem, doc.probes),
                         map(flow_problem, doc.flows)):
        _raise_if(problem)
    for fault in doc.faults:
        if fault.kind in ("kill", "revive", "leak") and not system.hosts.host_exists(fault.args[0]):
            raise DanglingReference(f"fault references unknown host {fault.args[0]!r}")
        if fault.kind == "link" and not (
            system.hosts.host_exists(fault.args[0]) and system.hosts.host_exists(fault.args[1])
        ):
            raise DanglingReference(f"fault references unknown link {fault.args[:2]}")
    for probe in doc.probes:
        sensor = lookup(probe.sensor)
        if not system.hub.is_sensor(sensor):
            raise DanglingReference(f"probe sensor {probe.sensor} is not registered")
        for host_arg in probe.args:
            if not system.hosts.host_exists(host_arg):
                raise DanglingReference(f"probe references unknown host {host_arg!r}")
    for flow in doc.flows:
        for cid in flow.path:
            if cid not in components:
                raise DanglingReference(f"traffic flow references unknown component {cid!r}")
    # Scenario wiring consumed by the simulator.
    system.doc_faults = list(doc.faults)
    system.doc_probes = [(lookup(p.sensor), p.kind, p.args) for p in doc.probes]
    system.doc_flows = list(doc.flows)
    # Host objects: a probe on a host binds the host to the managed object
    # the scenario paired with it via `host_object` scenario keys.
    for key, value in doc.scenario_keys.items():
        if key.startswith("host_object."):
            system.bind_host_object(key[len("host_object."):], lookup(int(value)))
    return system


# --- live system -> document ---

def capture_system(system: System, allow_orphans: bool = False) -> ConfigDocument:
    registry = system.registry
    orphans = registry.orphans()
    if orphans and not allow_orphans:
        raise DirtyRegistry(
            f"{len(orphans)} orphaned objects present; pass allow_orphans to save anyway"
        )
    root = registry.root

    def min_path(oid: ObjectId) -> str:
        paths = sorted(p.render() for p in registry.paths_of(oid))
        return paths[0] if paths else "-"

    def sort_key(oid: ObjectId):
        if oid == root:
            return (0, "", 0)
        path = min_path(oid)
        if path != "-":
            return (1, path, oid.seq)
        return (2, "", oid.seq)

    ordered = sorted(registry.all_objects(), key=sort_key)
    canon = {oid: index + 1 for index, oid in enumerate(ordered)}

    doc = ConfigDocument(root_id=canon[root])
    for oid in ordered:
        doc.objects.append((canon[oid], oid.kind.value))
    for oid in ordered:
        if oid.kind is not Kind.DOMAIN:
            continue
        members = registry.member_names(oid)
        section = DomainSection(canon[oid], min_path(oid))
        for name, member in sorted(members.items()):
            section.members.append((name, canon[member]))
        doc.domains.append(section)
        logic = system.engine.logic_of(oid)
        if logic is not None:
            policy = system.engine.policy_of(oid)
            strategy = logic.strategy
            sp: dict = {}
            if isinstance(strategy, Proactive):
                sp = {"critical": strategy.critical, "margin": strategy.margin,
                      "window": strategy.window}
            elif isinstance(strategy, Retroactive):
                sp = {"period": strategy.period}
            pol: dict = {
                "enabled": 1 if policy.enabled else 0,
                "source": policy.source.value,
            }
            pol.update(policy.directives)
            doc.logics.append(LogicSection(
                doc_id=canon[oid],
                path=min_path(oid),
                name=logic.name,
                strategy=strategy_name(strategy),
                strategy_params=sp,
                stages={
                    "analyze": logic.analyze,
                    "audit": logic.audit,
                    "execute": logic.execute,
                    "monitor": logic.monitor,
                    "regulate": logic.regulate,
                },
                params=dict(logic.params),
                policy=pol,
            ))
    for sensor in system.hub.registered_sensors():
        doc.sensors.append((canon[sensor], float(system.hub.heartbeat_of(sensor))))
    now = system.clock.now
    for host_id in system.hosts.host_ids():
        host = system.hosts.get(host_id)
        doc.hosts.append((
            host_id, host.capacity, host.level(now), host.leak_rate,
            "up" if host.up else "down",
        ))
    doc.links = list(system.hosts.links())
    graph = system.graph
    for cid, comp in sorted(graph.components.items()):
        doc.components.append((cid, comp.kind, comp.host, comp.state.value))
    for conn in sorted(graph.connections, key=lambda c: c.render()):
        doc.connections.append((conn.src, conn.src_port, conn.dst, conn.dst_port))
    doc.scenario_keys = {
        k: v for k, v in system.scenario_params.items()
        if not k.startswith("host_object.")
    }
    for host_id in sorted(system.host_objects):
        doc.scenario_keys[f"host_object.{host_id}"] = canon[system.host_objects[host_id]]
    doc.faults = list(system.doc_faults)
    doc.probes = [
        ProbeDecl(canon[sensor], kind, args)
        for sensor, kind, args in system.doc_probes
    ]
    doc.flows = list(system.doc_flows)
    return doc


# --- public save / load ---

def save_config(system: System, destination=None, allow_orphans: bool = False) -> bytes:
    """Serialize the system canonically; optionally write it to a path."""
    doc = capture_system(system, allow_orphans=allow_orphans)
    data = render_document(doc).encode("utf-8")
    if destination is not None:
        try:
            with open(destination, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise IoFailure(f"cannot write {destination}: {exc}") from exc
    return data


def load_config(source) -> System:
    """Rebuild a live system from bytes, text, or a file path."""
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str) and "\n" not in source:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise IoFailure(f"cannot read {source}: {exc}") from exc
    else:
        text = source
    return build_system(parse_document(text))
