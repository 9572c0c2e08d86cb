"""Canonical save/load round-trips."""

import hashlib
import random
import re

import pytest

from adaptdom.adaptation import AdaptationLogic, Policy, Reactive, Retroactive
from adaptdom.confgraph import Component, ConfigGraph, Connection
from adaptdom.errors import (
    DanglingReference,
    DirtyRegistry,
    ParseError,
    ScenarioParseError,
    UnknownVersion,
)
from adaptdom import persistence
from adaptdom.persistence import build_system, load_config, parse_document, save_config
from adaptdom.registry import EnumerateMode, Kind
from adaptdom.system import Host, System

from conftest import SCENARIOS


# The sha256 of each shipped scenario's load -> save, recorded when graph
# rows were frozen dataclasses: named-tuple rows hash and order as they did.
SAVED_DIGESTS = {
    "healing": "e5baa3f07993cd77b36d608599c2e020ad4627b0e06384585bc0622195ff5cd3",
    "optimization": "094d083cedf4d2ee4fbe7558d04c4d3392d917e419e0b26d48d7e17c191a44af",
    "rejuvenation": "b7f3d722d1e65e25f960d957c0039982ff7b5d62665cb9323993f9eab53f31eb",
}


def fresh_system():
    system = System()
    system.registry.create_root()
    return system


def structural_fingerprint(system):
    """Everything load(save(S)) must reproduce: per-domain enumerations,
    logic and policy bindings, sensors, hosts, and the graph."""
    registry = system.registry
    parts = []
    domain_paths = {}
    for oid in registry.all_objects():
        paths = sorted(p.render() for p in registry.paths_of(oid))
        parts.append(("object", oid.kind.value, tuple(paths)))
        if oid.kind is Kind.DOMAIN and paths:
            domain_paths[paths[0]] = oid
    for path in sorted(domain_paths):
        domain = domain_paths[path]
        listing = tuple(
            (rel, member.kind.value)
            for rel, member in registry.enumerate(domain, EnumerateMode.INDIRECT)
        )
        parts.append(("enum", path, listing))
        logic = system.engine.logic_of(domain)
        if logic:
            policy = system.engine.policy_of(domain)
            parts.append((
                "logic", path, logic.name, repr(logic.strategy),
                tuple(sorted(logic.params.items())),
                tuple(sorted(policy.directives.items())), policy.enabled,
            ))
    for sensor in system.hub.registered_sensors():
        paths = tuple(sorted(p.render() for p in registry.paths_of(sensor)))
        parts.append(("sensor", paths, system.hub.heartbeat_of(sensor)))
    for host_id in system.hosts.host_ids():
        host = system.hosts.get(host_id)
        parts.append(("host", host_id, host.capacity, host.leak_rate, host.up))
    parts.append(("graph", tuple(system.graph.canonical_lines())))
    return sorted(parts, key=repr)


def random_system(rng: random.Random, max_objects=100):
    system = fresh_system()
    registry = system.registry
    domains = [registry.root]
    sensors = []
    n = rng.randrange(5, max_objects)
    for i in range(n):
        kind = rng.choice(
            [Kind.DOMAIN, Kind.PLAIN, Kind.PLAIN, Kind.SENSOR, Kind.ACTUATOR]
        )
        oid = registry.register(kind)
        registry.include(rng.choice(domains), oid, f"m{i}")
        if kind is Kind.DOMAIN:
            domains.append(oid)
            if rng.random() < 0.3:
                try:
                    registry.include(rng.choice(domains), oid, f"alt{i}")
                except Exception:
                    pass
        elif kind is Kind.SENSOR:
            sensors.append(oid)
    for sensor in sensors:
        system.hub.register_sensor(sensor, rng.randrange(0, 100))
    for h in range(rng.randrange(1, 5)):
        system.hosts.add(Host(f"h{h}", float(rng.randrange(100, 2000))))
    hosts = system.hosts.host_ids()
    comps = {}
    for c in range(rng.randrange(0, 12)):
        comps[f"c{c}"] = Component(rng.choice(["web", "db"]), rng.choice(hosts))
    conns = set()
    for c in range(len(comps)):
        target = rng.randrange(len(comps))
        if target != c:
            conns.add(Connection(f"c{c}", f"p{c}", f"c{target}", "in"))
    system.config_manager.graph = ConfigGraph(comps, conns)
    for domain in rng.sample(domains, k=min(len(domains), 3)):
        strategy = rng.choice([Reactive(), Retroactive(period=rng.randrange(10, 99))])
        system.engine.load_logic(domain, AdaptationLogic(
            name=f"logic{domain.seq}",
            strategy=strategy,
            analyze="threshold",
            params={"event_type": "tick", "field": "v", "op": "gt",
                    "limit": float(rng.randrange(1, 50))},
        ), Policy(directives={"cooldown": float(rng.randrange(0, 60))}))
    return system


class TestCanonicalForm:
    def test_fresh_root_minimal_document(self):
        data = save_config(fresh_system()).decode()
        assert data.splitlines()[0] == "adaptdom-config 1"
        assert "[domain 1 /]" in data
        assert data.endswith("end-config\n")

    def test_save_load_save_byte_identical(self):
        rng = random.Random(7)
        for _ in range(10):
            system = random_system(rng)
            first = save_config(system)
            second = save_config(load_config(first))
            assert first == second

    def test_two_saves_identical(self):
        rng = random.Random(8)
        system = random_system(rng)
        assert save_config(system) == save_config(system)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_shipped_scenarios_round_trip(self, name):
        first = save_config(load_config(SCENARIOS[name]))
        second = save_config(load_config(first))
        assert first == second
        assert hashlib.sha256(first).hexdigest() == SAVED_DIGESTS[name]


class TestIsomorphism:
    @pytest.mark.parametrize("seed", range(10))
    def test_load_save_reconstructs_structure(self, seed):
        rng = random.Random(seed)
        system = random_system(rng)
        rebuilt = load_config(save_config(system))
        assert structural_fingerprint(system) == structural_fingerprint(rebuilt)

    def test_enumerate_identical_after_reload(self):
        system = load_config(SCENARIOS["healing"])
        rebuilt = load_config(save_config(system))
        for path in ("/", "/healing"):
            original = system.registry.enumerate(
                system.registry.resolve(path), EnumerateMode.INDIRECT
            )
            copied = rebuilt.registry.enumerate(
                rebuilt.registry.resolve(path), EnumerateMode.INDIRECT
            )
            assert [rel for rel, _ in original] == [rel for rel, _ in copied]


class TestErrors:
    def test_orphans_block_save_without_flag(self):
        system = fresh_system()
        system.registry.register(Kind.PLAIN)
        with pytest.raises(DirtyRegistry):
            save_config(system)
        assert save_config(system, allow_orphans=True)

    def test_orphans_round_trip_with_flag(self):
        system = fresh_system()
        system.registry.register(Kind.PLAIN)
        data = save_config(system, allow_orphans=True)
        rebuilt = load_config(data)
        assert len(rebuilt.registry.orphans()) == 1
        assert save_config(rebuilt, allow_orphans=True) == data

    def test_undeclared_reference(self):
        text = (
            "adaptdom-config 1\n[system]\nroot = 1\n[objects]\nobject 1 domain\n"
            "[domain 1 /]\nghost = 42\nend-config\n"
        )
        with pytest.raises(DanglingReference):
            load_config(text)

    def test_a_graph_built_in_code_must_name_tokens(self):
        # The parser rejects this connection line; a document built in
        # code is checked the same way when its system is built.
        with open(SCENARIOS["healing"]) as fh:
            doc = parse_document(fh.read())
        doc.connections.append(("c01", "out port", "c02", "in"))
        with pytest.raises(ScenarioParseError, match="BadToken: invalid token: 'out port'"):
            build_system(doc)

    @pytest.mark.parametrize("rows, row, message", [
        ("components", ("c13", "web", "hostA", "bogus"),
         "component row ('c13', 'web', 'hostA', 'bogus'): state 'bogus' is not active, blocked or down"),
        ("components", ("c13", "web", "hostA"),
         "component row ('c13', 'web', 'hostA'): expected (id, kind, host, state)"),
        ("components", ("c13", "web", "host A", "active"),
         "component row ('c13', 'web', 'host A', 'active'): BadToken: invalid token: 'host A'"),
        ("components", ("c01", "db", "hostB", "active"), "duplicate component 'c01'"),
        ("connections", ("c01", "out", "c02"),
         "connection row ('c01', 'out', 'c02'): expected (src, src_port, dst, dst_port)"),
        ("connections", ("c01", "out", "c02", "in", "x"),
         "connection row ('c01', 'out', 'c02', 'in', 'x'): expected (src, src_port, dst, dst_port)"),
    ], ids=["state", "short-component", "token", "duplicate", "short-connection",
            "long-connection"])
    def test_a_malformed_graph_row_built_in_code_is_refused(self, rows, row, message):
        # The parser refuses each of these as a line; a row appended in
        # code is refused by name when its system is built.
        with open(SCENARIOS["healing"]) as fh:
            doc = parse_document(fh.read())
        getattr(doc, rows).append(row)
        with pytest.raises(ScenarioParseError, match=re.escape(message)):
            build_system(doc)

    def test_a_host_built_in_code_must_be_up_or_down(self):
        with open(SCENARIOS["healing"]) as fh:
            doc = parse_document(fh.read())
        doc.hosts[0] = (*doc.hosts[0][:4], "Up")
        with pytest.raises(ScenarioParseError, match="status must be up or down, got 'Up'"):
            build_system(doc)

    def test_a_parsed_host_row_is_checked_once(self, monkeypatch):
        # The parser checks each host line; `build_system` trusts the rows
        # it returned and checks only the one built in code.
        checked = []
        check = persistence._check_host
        monkeypatch.setattr(persistence, "_check_host", lambda row: checked.append(row) or check(row))
        with open(SCENARIOS["healing"]) as fh:
            doc = parse_document(fh.read())
        assert [row[0] for row in checked] == ["hostA", "hostB", "hostC"]
        checked.clear()
        doc.hosts.append(("hostD", 10.0, 10.0, 0.0, "up"))
        build_system(doc)
        assert checked == [("hostD", 10.0, 10.0, 0.0, "up")]

    def test_building_assigns_nothing_onto_the_system(self, monkeypatch):
        # The scenario reaches the System whole, through its constructor.
        built = set()
        init = System.__init__

        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.add(id(self))

        def guarded_setattr(self, name, value):
            assert id(self) not in built, f"System.{name} assigned after construction"
            object.__setattr__(self, name, value)

        monkeypatch.setattr(System, "__init__", tracked_init)
        monkeypatch.setattr(System, "__setattr__", guarded_setattr)
        for path in SCENARIOS.values():
            assert id(load_config(path)) in built

    def test_truncated_file_gives_parse_error_with_location(self):
        full = save_config(load_config(SCENARIOS["healing"])).decode()
        truncated = "\n".join(full.splitlines()[:10]) + "\n"
        with pytest.raises(ParseError) as err:
            load_config(truncated)
        assert err.value.line > 0
        assert "trunc" in str(err.value) or "end marker" in str(err.value)

    def test_unknown_version(self):
        with pytest.raises(UnknownVersion):
            parse_document("adaptdom-config 99\nend-config\n")

    def test_garbage_header(self):
        with pytest.raises(ParseError):
            parse_document("not a config\n")

    def test_syntax_error_carries_line_number(self):
        text = "adaptdom-config 1\n[system]\nroot = 1\n[objects]\nobject x y\nend-config\n"
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert err.value.line == 5

    def test_exponent_float_params_keep_their_type(self):
        system = fresh_system()
        d = system.registry.register(Kind.DOMAIN)
        system.registry.include(system.registry.root, d, "d")
        system.engine.load_logic(d, AdaptationLogic(
            name="tiny", strategy=Reactive(), analyze="threshold",
            params={"limit": 1e-07, "placement_weight": 1e+16},
        ))
        rebuilt = load_config(save_config(system))
        logic = rebuilt.engine.logic_of(rebuilt.registry.resolve("/d"))
        assert logic.params["limit"] == 1e-07
        assert logic.params["placement_weight"] == 1e+16
        assert isinstance(logic.params["limit"], float)

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "adaptdom-config 1\n# a comment\n\n[system]\nroot = 1\n"
            "[objects]\nobject 1 domain  # trailing\n[domain 1 /]\n"
            "[hosts]\nhost h1 capacity=1.0 leak=0.0 level=1.0 status=up\n[graph]\n"
            "# a comment\n\ncomponent c1 kind=web host=h1 state=active  # trailing\n"
            "end-config  # trailing\n\n# a comment\n"
        )
        system = load_config(text)
        assert system.registry.root is not None
        assert system.graph.components == {"c1": Component("web", "h1")}

    def test_content_after_the_end_marker_names_its_line(self):
        text = ("adaptdom-config 1\n[system]\nroot = 1\n[graph]\n"
                "component c1 kind=web host=h1 state=active\nend-config\n# a comment\n\n"
                "component c2 kind=web host=h1 state=active\n")
        with pytest.raises(ParseError, match="content after end marker") as err:
            parse_document(text)
        assert err.value.line == 9
