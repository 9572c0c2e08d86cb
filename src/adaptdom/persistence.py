"""Persistent domain configurations.

The on-disk format is line-oriented sectioned text: a version header,
object declarations, one section per domain (sorted member bindings),
logic bindings by registered stage names (never code), sensor
registrations, the host table, the initial component graph, and scenario
parameters. Serialization is canonical (sorted keys, fixed section
order, stable ids) so save - load - save is byte-identical, and every
document ends with an explicit terminator so truncation is detectable.

The `[graph]` section is written with `confgraph.encode_graph` and read
back with `confgraph.decode_graph`, from the lines the parser's one pass
over the text collects. So a graph line with a bad shape, a name that is
not a token, an unknown state, a repeated component id or a repeated
connection fails the parse, naming its line. `build_system` trusts the
rows the decoder returns, and checks rows built in code the same way:
their shape, their names and a component's state.

A fault, probe or traffic entry checks itself when it is constructed;
the parser adds the line to the error. So does each line's attribute
list, against `LINE_ATTRS`, and a host row, which is trusted after. Every
key is checked by what reads it (`keys`), as `build_system` builds it: a
logic, its policy and strategy, and the scenario, which reaches the
System whole. `build_system` adds the section to such an error, and it
checks the references between a document's parts.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field
from typing import Optional

from .adaptation import STAGES, STRATEGIES, AdaptationLogic, Policy, strategy_name
from .confgraph import (
    STATES,
    Component,
    ConfigGraph,
    Connection,
    _ComponentRow,
    _ConnectionRow,
    decode_graph,
    encode_graph,
)
from .errors import (
    BadToken,
    DanglingReference,
    DirtyRegistry,
    IoFailure,
    ParseError,
    ScenarioParseError,
    UnknownVersion,
)
from .keys import INTEGER, TEXT, Key, Type, keys_of, read_keys
from .paths import check_tokens
from .registry import Kind, ObjectId, Registry
from .system import Host, ScenarioSpec, System
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

# The arguments of each fault and probe kind, in order: a host name, or a
# finite number under the name given.
_FAULT_ARGS = {
    "kill": ("host",), "revive": ("host",), "leak": ("host", "rate"),
    "link": ("host", "host", "quality"),
}
_PROBE_ARGS = {"liveness": ("host",), "resource": ("host",), "link": ("host", "host")}


def _check_args(what: str, kind: str, args: tuple[str, ...], shapes: dict) -> None:
    """Raise `ScenarioParseError` for an unknown kind, a wrong number of
    arguments, or a rate or quality that is not a finite number."""
    shape = shapes.get(kind)
    if shape is None:
        raise ScenarioParseError(f"unknown {what} kind {kind!r}")
    if len(args) != len(shape):
        raise ScenarioParseError(f"{what} {kind} takes {' '.join(f'<{name}>' for name in shape)}")
    for name, value in zip(shape, args):
        if name != "host":
            try:
                number = float(value)
            except ValueError:
                number = math.nan
            if not math.isfinite(number):
                raise ScenarioParseError(f"{what} {kind}: {name} {value!r} is not a finite number")


@dataclass(frozen=True)
class FaultEntry:
    time: int
    kind: str  # kill | revive | leak | link
    args: tuple[str, ...]

    def __post_init__(self):
        _check_args("fault", self.kind, self.args, _FAULT_ARGS)

    @property
    def hosts(self) -> tuple[str, ...]:
        """The arguments that name hosts."""
        return tuple(arg for name, arg in zip(_FAULT_ARGS[self.kind], self.args) if name == "host")

    def render(self) -> str:
        return f"fault {self.time} {self.kind} {' '.join(self.args)}".rstrip()


@dataclass(frozen=True)
class ProbeDecl:
    sensor: int  # document object id
    kind: str  # liveness | resource | link
    args: tuple[str, ...]

    def __post_init__(self):
        _check_args("probe", self.kind, self.args, _PROBE_ARGS)

    def render(self) -> str:
        return f"probe {self.sensor} {self.kind} {' '.join(self.args)}".rstrip()


@dataclass(frozen=True)
class FlowDecl:
    path: tuple[str, ...]
    period: int
    start: int = 0

    def __post_init__(self):
        # A flow re-runs `period` ticks on: at 0 or less, at one tick for ever.
        if self.period <= 0:
            raise ScenarioParseError(f"traffic period must be positive, got {self.period}")

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


def parse_document(text: str) -> ConfigDocument:
    """Parse a document in one pass over its lines. Every host, link end
    and traffic hop it names must be a token, checked as its line is
    parsed. The graph section's lines are collected as the pass reaches
    them and decoded by `decode_graph` at its end, so an error on any
    other line is raised first."""
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
    # The graph section's (line number, content) pairs. A line without a
    # comment or trailing blanks is its own content, not a copy.
    graph: list[tuple[int, str]] = []
    terminated = False
    numbered = enumerate(lines[1:], start=2)
    for lineno, raw in numbered:
        # The line without its comment and trailing blanks; most have no comment.
        line = (raw.partition("#")[0] if "#" in raw else raw).rstrip()
        if not line:
            continue
        if line[0] == "[" and (match := _SECTION_RE.match(line)):
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
        if line == END_MARKER:
            terminated = True
            break
        if section == "graph":
            graph.append((lineno, line))
            continue
        if section is None:
            raise ScenarioParseError(f"content outside any section: {line!r}", line=lineno)
        try:
            _parse_body_line(doc, section, current_domain, current_logic, line, lineno)
        except ParseError as exc:
            if exc.line:
                raise
            raise type(exc)(str(exc), line=lineno) from None
        except Exception as exc:
            raise ScenarioParseError(f"{type(exc).__name__}: {exc}", line=lineno)
    for lineno, raw in numbered:  # the lines after the end marker
        if raw.partition("#")[0].strip():
            raise ScenarioParseError("content after end marker", line=lineno)
    doc.components, doc.connections = decode_graph(graph)
    if not terminated:
        raise ScenarioParseError("missing end marker (truncated file?)", line=len(lines))
    return doc


def _parse_kv(line: str, lineno: int) -> tuple[str, str]:
    if " = " not in line:
        raise ScenarioParseError(f"expected 'key = value': {line!r}", line=lineno)
    key, _, value = line.partition(" = ")
    return key.strip(), value.strip()


# The `name=value` attributes of each line kind, as the line's reader takes them.
_DECIMAL, _WHOLE = Type("a number", float), Type("an integer", int)
LINE_ATTRS = {
    "sensor": (Key("heartbeat", _DECIMAL),),
    "host": (Key("capacity", _DECIMAL), Key("leak", _DECIMAL), Key("level", _DECIMAL),
             Key("status", TEXT)),
    "link": (Key("quality", _DECIMAL),),
    "traffic": (Key("period", _WHOLE), Key("start", _WHOLE, 0)),
}


def _line_attrs(kind: str, parts: list[str]) -> dict:
    """The attributes of a line of `kind`, each given once, read by its declaration."""
    attrs = {}
    for part in parts:
        name, sep, value = part.partition("=")
        if not sep:
            raise ScenarioParseError(f"expected attr=value, got {part!r}")
        if name in attrs:
            raise ScenarioParseError(f"key {name}: repeated")
        attrs[name] = value
    return read_keys(LINE_ATTRS[kind], attrs, f"not a {kind} attribute")


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
        elif key in STAGES:
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
        doc.sensors.append((int(parts[1]), _line_attrs("sensor", parts[2:])["heartbeat"]))
    elif section == "hosts":
        parts = line.split()
        if parts[0] == "host":
            check_tokens(parts[1:2])
            attrs = _line_attrs("host", parts[2:])
            host = (parts[1], attrs["capacity"], attrs["level"], attrs["leak"], attrs["status"])
            _check_host(host)
            doc.hosts.append(tuple.__new__(_HostRow, host))
        elif parts[0] == "link":
            check_tokens(parts[1:3])
            doc.links.append((parts[1], parts[2], _line_attrs("link", parts[3:])["quality"]))
        else:
            raise ScenarioParseError(f"bad hosts line {line!r}", line=lineno)
    elif section == "scenario":
        parts = line.split()
        if parts[0] == "fault":
            doc.faults.append(FaultEntry(int(parts[1]), parts[2], tuple(parts[3:])))
        elif parts[0] == "probe":
            doc.probes.append(ProbeDecl(int(parts[1]), parts[2], tuple(parts[3:])))
        elif parts[0] == "traffic":
            path = parts[1].split(",")
            check_tokens(path)
            attrs = _line_attrs("traffic", parts[2:])
            doc.flows.append(FlowDecl(tuple(path), attrs["period"], attrs["start"]))
        else:
            key, value = _parse_kv(line, lineno)
            if key in doc.scenario_keys:
                raise ScenarioParseError(f"repeated scenario key {key!r}", line=lineno)
            doc.scenario_keys[key] = parse_scalar(value)


class _HostRow(tuple):
    """A `(host, capacity, level, leak, status)` row the parser checked."""

    __slots__ = ()


def _check_host(host: tuple[str, float, float, float, str]) -> None:
    """Raise `ScenarioParseError` for a host row the simulator cannot load:
    a status other than `up` or `down`."""
    if host[4] not in ("up", "down"):
        raise ScenarioParseError(f"host {host[0]}: status must be up or down, got {host[4]!r}")


# --- document -> live system ---

def _logic_and_policy(section: LogicSection) -> tuple[AdaptationLogic, Policy]:
    """A logic section's logic and policy, which check their own keys as
    they are built; the error names the section."""
    try:
        if section.strategy not in STRATEGIES:
            raise ScenarioParseError(f"key strategy: {section.strategy!r} is not a strategy")
        cls = STRATEGIES[section.strategy]
        strategy = cls(**read_keys(keys_of(cls), section.strategy_params,
                                   f"not a {section.strategy} strategy field", "strategy."))
        logic = AdaptationLogic(section.name, strategy, params=dict(section.params), **section.stages)
        directives = dict(section.policy)
        own = {key: directives.pop(key) for key in ("enabled", "source") if key in directives}
        return logic, Policy(directives=directives, **own)
    except ScenarioParseError as exc:
        raise ScenarioParseError(f"logic {section.path} {exc}") from None


def build_system(doc: ConfigDocument) -> System:
    """Reconstruct a live system from a parsed document."""
    bindings = [(section, *_logic_and_policy(section))
                for section in sorted(doc.logics, key=lambda s: (s.path, s.doc_id))]
    declared = dict(doc.objects)
    if doc.root_id not in declared:
        raise DanglingReference(f"root id {doc.root_id} not declared")
    if declared[doc.root_id] != Kind.DOMAIN.value:
        raise DanglingReference("root object must be domain-kind")
    registry = Registry()
    id_map: dict[int, ObjectId] = {doc.root_id: registry.create_root()}
    for doc_id, kind_name in sorted(doc.objects):
        if doc_id != doc.root_id:
            id_map[doc_id] = registry.register(_KIND_NAMES[kind_name])

    def lookup(doc_id: int) -> ObjectId:
        if doc_id not in id_map:
            raise DanglingReference(f"undeclared object id {doc_id}")
        return id_map[doc_id]

    for section in sorted(doc.domains, key=lambda s: (s.path, s.doc_id)):
        domain = lookup(section.doc_id)
        for name, member in sorted(section.members):
            registry.include(domain, lookup(member), name)
    host_ids = {row[0] for row in doc.hosts}
    for fault in doc.faults:
        for host_arg in fault.hosts:
            if host_arg not in host_ids:
                raise DanglingReference(f"fault references unknown host {host_arg!r}")
    sensor_ids = {doc_id for doc_id, _ in doc.sensors}
    probes = []
    for probe in doc.probes:
        probes.append((lookup(probe.sensor), probe.kind, probe.args))
        if probe.sensor not in sensor_ids:
            raise DanglingReference(f"probe sensor {probe.sensor} is not registered")
        for host_arg in probe.args:
            if host_arg not in host_ids:
                raise DanglingReference(f"probe references unknown host {host_arg!r}")
    keys = dict(doc.scenario_keys)
    # A `host_object.<host>` key pairs a declared host with a managed object, by its document id.
    pairs = {key: keys.pop(key) for key in list(keys) if key.startswith("host_object.")}
    try:
        pairs = read_keys([Key(key, INTEGER) for key in pairs if key[len("host_object."):] in host_ids],
                          pairs, "not a host")
        scenario = ScenarioSpec(keys, tuple(doc.faults), tuple(probes), tuple(doc.flows),
                                {key[len("host_object."):]: lookup(oid) for key, oid in pairs.items()})
    except ScenarioParseError as exc:
        raise ScenarioParseError(f"scenario {exc}") from None
    # Rows `decode_graph` returned are trusted. A row built in code gets
    # the decoder's checks as its loop reaches it: its shape, its names,
    # and a component's state.
    new = tuple.__new__  # a row built in C, not by the named tuple's Python `__new__`
    components: dict[str, Component] = {}
    for row in sorted(doc.components):
        if type(row) is not _ComponentRow:
            if len(row) != 4:
                raise ScenarioParseError(f"component row {row!r}: expected (id, kind, host, state)")
            try:
                check_tokens(row)
            except BadToken as exc:
                raise ScenarioParseError(f"component row {row!r}: BadToken: {exc}") from None
            if row[3] not in STATES:
                raise ScenarioParseError(
                    f"component row {row!r}: state {row[3]!r} is not active, blocked or down")
        cid, kind, host, state = row
        if cid in components:
            raise ScenarioParseError(f"duplicate component {cid!r}")
        if host not in host_ids:
            raise DanglingReference(f"component {cid} on undeclared host {host!r}")
        components[cid] = new(Component, (kind, host, STATES[state]))
    connections: set[Connection] = set()
    ports = set()  # the (src, src_port) pairs already connected
    for conn in doc.connections:
        if type(conn) is not _ConnectionRow:
            if len(conn) != 4:
                raise ScenarioParseError(
                    f"connection row {conn!r}: expected (src, src_port, dst, dst_port)")
            try:
                check_tokens(conn)
            except BadToken as exc:
                raise ScenarioParseError(f"connection row {conn!r}: BadToken: {exc}") from None
            conn = Connection(*conn)
        src, sport, dst, dport = conn
        if src not in components or dst not in components:
            raise DanglingReference(f"connection references unknown component: {src}->{dst}")
        port = src, sport
        if port in ports:
            raise DanglingReference(
                f"connection {src} {sport} -> {dst} {dport}: port {src} {sport} is already connected")
        ports.add(port)
        connections.add(conn)
    for flow in doc.flows:
        for cid in flow.path:
            if cid not in components:
                raise DanglingReference(f"traffic flow references unknown component {cid!r}")
    system = System(ConfigGraph(components, connections), scenario, registry)
    for section, logic, policy in bindings:
        system.engine.load_logic(lookup(section.doc_id), logic, policy)
    for doc_id, heartbeat in sorted(doc.sensors):
        system.hub.register_sensor(lookup(doc_id), int(heartbeat))
    # Rows the parser returned are checked; a row built in code is checked here.
    for row in sorted(doc.hosts):
        if type(row) is not _HostRow:
            _check_host(row)
        host_id, capacity, level, leak, status = row
        system.hosts.add(Host(host_id, capacity, leak, status == "up", start_level=level))
    for a, b, quality in sorted(doc.links):
        system.hosts.set_link_quality(a, b, quality)
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
            pol: dict = {"enabled": 1 if policy.enabled else 0, "source": policy.source.value,
                         **policy.directives}
            doc.logics.append(LogicSection(
                doc_id=canon[oid],
                path=min_path(oid),
                name=logic.name,
                strategy=strategy_name(logic.strategy),
                strategy_params=asdict(logic.strategy),
                stages={stage: getattr(logic, stage) for stage in sorted(STAGES)},
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
    scenario = system.scenario
    doc.scenario_keys = dict(scenario.keys)
    for host_id in sorted(system.host_objects):
        doc.scenario_keys[f"host_object.{host_id}"] = canon[system.host_objects[host_id]]
    doc.faults = list(scenario.faults)
    doc.probes = [ProbeDecl(canon[sensor], kind, args) for sensor, kind, args in scenario.probes]
    doc.flows = list(scenario.flows)
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
