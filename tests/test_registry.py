"""Domain hierarchy: membership, resolution, enumeration."""

import random

import pytest

from adaptdom.errors import (
    AlreadyInitialized,
    CycleDetected,
    DuplicateLocalName,
    Forbidden,
    NotADomain,
    NotFound,
    UnknownId,
    UnknownLocalName,
)
from adaptdom.paths import PathName
from adaptdom.registry import EnumerateMode, Kind, Registry

from conftest import exhaustive_paths, random_hierarchy


class TestRoot:
    def test_create_root_resolves_slash(self, registry):
        assert registry.resolve("/") == registry.root

    def test_create_root_twice(self, registry):
        with pytest.raises(AlreadyInitialized):
            registry.create_root()

    def test_fresh_root_is_empty(self, registry):
        assert registry.enumerate(registry.root, EnumerateMode.DIRECT) == []


class TestInclude:
    def test_include_resolve_round_trip(self, registry):
        x = registry.register(Kind.PLAIN)
        path = registry.include(registry.root, x, "a")
        assert path.render() == "/a"
        assert registry.resolve("/a") == x

    def test_duplicate_local_name(self, registry):
        x = registry.register(Kind.PLAIN)
        y = registry.register(Kind.PLAIN)
        registry.include(registry.root, x, "a")
        with pytest.raises(DuplicateLocalName):
            registry.include(registry.root, y, "a")

    def test_cycle_detected(self, registry):
        d = registry.register(Kind.DOMAIN)
        registry.include(registry.root, d, "d")
        with pytest.raises(CycleDetected):
            registry.include(d, registry.root, "up")

    def test_self_cycle_detected(self, registry):
        d = registry.register(Kind.DOMAIN)
        registry.include(registry.root, d, "d")
        with pytest.raises(CycleDetected):
            registry.include(d, d, "itself")

    def test_unknown_ids(self, registry):
        from adaptdom.registry import ObjectId

        ghost = ObjectId(999, Kind.PLAIN)
        with pytest.raises(UnknownId):
            registry.include(registry.root, ghost, "g")

    def test_include_into_non_domain(self, registry):
        x = registry.register(Kind.PLAIN)
        y = registry.register(Kind.PLAIN)
        registry.include(registry.root, x, "x")
        with pytest.raises(NotADomain):
            registry.include(x, y, "y")


class TestExclude:
    def test_exclude_removes_binding(self, registry):
        x = registry.register(Kind.PLAIN)
        registry.include(registry.root, x, "a")
        registry.exclude(registry.root, "a")
        with pytest.raises(NotFound):
            registry.resolve("/a")

    def test_other_memberships_survive(self, registry):
        # Oracle: recompute every root traversal by exhaustive graph walk.
        d = registry.register(Kind.DOMAIN)
        x = registry.register(Kind.PLAIN)
        registry.include(registry.root, d, "d")
        registry.include(registry.root, x, "a")
        registry.include(d, x, "xd")
        registry.exclude(registry.root, "a")
        assert registry.paths_of(x) == exhaustive_paths(registry, x)
        assert registry.paths_of(x) == {PathName(("d", "xd"))}

    def test_unknown_local_name(self, registry):
        with pytest.raises(UnknownLocalName):
            registry.exclude(registry.root, "missing")

    def test_excluding_root_forbidden(self, registry):
        d = registry.register(Kind.DOMAIN)
        # An orphan domain may hold the root as a member before any cycle
        # forms; excluding it must still be refused.
        registry.include(d, registry.root, "up")
        with pytest.raises(Forbidden):
            registry.exclude(d, "up")

    def test_include_exclude_restores_membership(self, registry):
        x = registry.register(Kind.PLAIN)
        y = registry.register(Kind.PLAIN)
        registry.include(registry.root, x, "keep")
        before = registry.member_names(registry.root)
        registry.include(registry.root, y, "temp")
        registry.exclude(registry.root, "temp")
        assert registry.member_names(registry.root) == before


class TestResolve:
    def test_nested_resolution(self, registry):
        healing = registry.register(Kind.DOMAIN)
        host = registry.register(Kind.PLAIN)
        registry.include(registry.root, healing, "healing")
        registry.include(healing, host, "hostA")
        assert registry.resolve("/healing/hostA") == host

    def test_not_found_carries_index(self, registry):
        healing = registry.register(Kind.DOMAIN)
        registry.include(registry.root, healing, "healing")
        with pytest.raises(NotFound) as err:
            registry.resolve("/healing/ghost/deeper")
        assert err.value.index == 1

    def test_not_a_domain_carries_index(self, registry):
        x = registry.register(Kind.PLAIN)
        registry.include(registry.root, x, "a")
        with pytest.raises(NotADomain) as err:
            registry.resolve("/a/b")
        assert err.value.index == 1


class TestPathsOf:
    def test_root_path_set(self, registry):
        assert registry.paths_of(registry.root) == {PathName.root()}

    def test_sensor_in_two_domains_has_two_paths(self, registry):
        healing = registry.register(Kind.DOMAIN)
        optim = registry.register(Kind.DOMAIN)
        sensor = registry.register(Kind.SENSOR)
        registry.include(registry.root, healing, "healing")
        registry.include(registry.root, optim, "optim")
        registry.include(healing, sensor, "s")
        registry.include(optim, sensor, "s")
        assert registry.paths_of(sensor) == {
            PathName(("healing", "s")),
            PathName(("optim", "s")),
        }

    def test_never_included_object_has_no_paths(self, registry):
        x = registry.register(Kind.PLAIN)
        assert registry.paths_of(x) == set()
        assert x in registry.orphans()


class TestEnumerate:
    def test_empty_domain(self, registry):
        assert registry.enumerate(registry.root, EnumerateMode.DIRECT) == []
        assert registry.enumerate(registry.root, EnumerateMode.INDIRECT) == []

    def test_indirect_closure(self, registry):
        # Oracle: breadth-first closure of the two-level tree.
        d = registry.register(Kind.DOMAIN)
        x = registry.register(Kind.PLAIN)
        registry.include(registry.root, d, "d")
        registry.include(d, x, "x")
        assert registry.enumerate(registry.root, EnumerateMode.INDIRECT) == [
            ("d", d), ("d/x", x),
        ]

    def test_direct_is_immediate_members_only(self, registry):
        d = registry.register(Kind.DOMAIN)
        x = registry.register(Kind.PLAIN)
        registry.include(registry.root, d, "d")
        registry.include(d, x, "x")
        assert registry.enumerate(registry.root, EnumerateMode.DIRECT) == [("d", d)]

    def test_object_appears_once_per_relative_path(self, registry):
        d1 = registry.register(Kind.DOMAIN)
        d2 = registry.register(Kind.DOMAIN)
        x = registry.register(Kind.PLAIN)
        registry.include(registry.root, d1, "a")
        registry.include(registry.root, d2, "b")
        registry.include(d1, x, "x")
        registry.include(d2, x, "x")
        entries = registry.enumerate(registry.root, EnumerateMode.INDIRECT)
        assert entries.count(("a/x", x)) == 1
        assert entries.count(("b/x", x)) == 1


def _indirect_fixpoint(registry, domain):
    """Brute-force oracle: repeat direct enumeration until closure."""
    out = {}
    frontier = [((), domain)]
    while frontier:
        segs, current = frontier.pop()
        for name, member in registry.member_names(current).items():
            rel = segs + (name,)
            out["/".join(rel)] = member
            if member.kind is Kind.DOMAIN:
                frontier.append((rel, member))
    return sorted(out.items())


def _domain_graph_acyclic(registry):
    domains = [o for o in registry.all_objects() if o.kind is Kind.DOMAIN]
    state = {}

    def visit(node):
        state[node] = "grey"
        for member in registry.member_names(node).values():
            if member.kind is not Kind.DOMAIN:
                continue
            if state.get(member) == "grey":
                return False
            if member not in state and not visit(member):
                return False
        state[node] = "black"
        return True

    return all(visit(d) for d in domains if d not in state)


class TestRandomizedProperties:
    @pytest.mark.parametrize("seed", range(12))
    def test_paths_of_matches_exhaustive_walk(self, seed):
        rng = random.Random(seed)
        registry = Registry()
        registry.create_root()
        objects = random_hierarchy(rng, registry, max_objects=50)
        for oid in objects:
            assert registry.paths_of(oid) == exhaustive_paths(registry, oid)
            for path in registry.paths_of(oid):
                assert registry.resolve(path) == oid

    @pytest.mark.parametrize("seed", range(12))
    def test_indirect_equals_direct_fixpoint(self, seed):
        rng = random.Random(seed + 100)
        registry = Registry()
        registry.create_root()
        random_hierarchy(rng, registry, max_objects=50)
        for domain in registry.all_objects():
            if domain.kind is not Kind.DOMAIN:
                continue
            assert (
                registry.enumerate(domain, EnumerateMode.INDIRECT)
                == _indirect_fixpoint(registry, domain)
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_member_path_is_first_enumerated_match(self, seed):
        rng = random.Random(seed + 300)
        registry = Registry()
        registry.create_root()
        objects = random_hierarchy(rng, registry, max_objects=50)
        for domain in objects:
            if domain.kind is not Kind.DOMAIN:
                continue
            entries = registry.enumerate(domain, EnumerateMode.INDIRECT)
            for oid in objects:
                first = next((rel for rel, member in entries if member == oid), None)
                assert registry.member_path(domain, oid) == first
                assert registry.is_descendant_domain(domain, oid) == (
                    oid.kind is Kind.DOMAIN and first is not None
                )

    @pytest.mark.parametrize("seed", range(12))
    def test_domain_graph_stays_acyclic(self, seed):
        rng = random.Random(seed + 200)
        registry = Registry()
        registry.create_root()
        random_hierarchy(rng, registry, max_objects=40)
        domains = [o for o in registry.all_objects() if o.kind is Kind.DOMAIN]
        # Hammer with random include attempts; rejected ones must not
        # leave partial state and accepted ones must preserve acyclicity.
        for i in range(50):
            a, b = rng.choice(domains), rng.choice(domains)
            try:
                registry.include(a, b, f"extra{i}")
            except (CycleDetected, DuplicateLocalName):
                pass
            assert _domain_graph_acyclic(registry)
