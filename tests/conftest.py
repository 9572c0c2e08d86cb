"""Shared builders for framework tests."""

import random

import pytest

from adaptdom.confgraph import (
    AddComponent,
    AddConnection,
    Component,
    ConfigGraph,
    Connection,
    _raise_if_invalid,
    _write,
    prepare,
    structural_violations,
)
from adaptdom.registry import Kind, Registry
from adaptdom.system import Host, System
from adaptdom.trace import TraceEntry

SCENARIOS = {
    "healing": "scenarios/healing.cfg",
    "rejuvenation": "scenarios/rejuvenation.cfg",
    "optimization": "scenarios/optimization.cfg",
}


@pytest.fixture
def registry():
    r = Registry()
    r.create_root()
    return r


@pytest.fixture
def system():
    sys_ = System()
    sys_.registry.create_root()
    return sys_


def entries(trace):
    """Every line of `trace`, parsed."""
    return [TraceEntry.parse(line) for line in trace.lines()]


def of_kind(trace, kind):
    """The parsed lines of `trace` with the given kind, in order."""
    return [entry for entry in entries(trace) if entry.kind == kind]


def copied(graph):
    """A fresh graph with `graph`'s components and connections."""
    return ConfigGraph(dict(graph.components), set(graph.connections))


def violations_of(graph):
    """The structural violations of a whole graph."""
    return structural_violations(graph.components, map(Connection.render, graph.connections))


def commit(graph, txn):
    """Commit `txn` into `graph` as the manager does, with no host checks,
    and return its preparation; raises InvalidTxn, leaving the graph as it
    was, when the transaction does not validate."""
    prepared = prepare(graph, txn)
    _raise_if_invalid(txn, prepared)
    _write(graph, prepared)
    return prepared


def applied(graph, txn):
    """The graph after `txn`, leaving `graph` as it was; raises InvalidTxn
    when the transaction does not validate."""
    out = copied(graph)
    commit(out, txn)
    return out


def make_hosts(system, names, capacity=1000.0):
    for name in names:
        system.hosts.add(Host(name, capacity))


def chain_graph(n=3, host="h1", prefix="c"):
    """A linear pipeline graph c1 -> c2 -> ... -> cn on one host."""
    components = {f"{prefix}{i}": Component("svc", host) for i in range(1, n + 1)}
    connections = {
        Connection(f"{prefix}{i}", "out", f"{prefix}{i+1}", "in")
        for i in range(1, n)
    }
    return ConfigGraph(components, connections)


def random_hierarchy(rng: random.Random, registry: Registry, max_objects=50):
    """Grow a random acyclic domain hierarchy; returns all created ids."""
    root = registry.root
    domains = [root]
    objects = [root]
    n = rng.randrange(2, max_objects)
    for i in range(n):
        kind = rng.choice([Kind.DOMAIN, Kind.PLAIN, Kind.SENSOR, Kind.ACTUATOR])
        oid = registry.register(kind)
        objects.append(oid)
        parent = rng.choice(domains)
        registry.include(parent, oid, f"n{i}")
        if kind is Kind.DOMAIN:
            domains.append(oid)
            # Occasionally give a domain a second parent.
            if rng.random() < 0.2:
                other = rng.choice(domains)
                try:
                    registry.include(other, oid, f"alt{i}")
                except Exception:
                    pass
        elif rng.random() < 0.3:
            other = rng.choice(domains)
            try:
                registry.include(other, oid, f"alt{i}")
            except Exception:
                pass
    return objects


def exhaustive_paths(registry: Registry, target):
    """Brute-force oracle: every root-anchored path reaching `target`,
    found by walking all member edges from the root."""
    from adaptdom.paths import PathName
    from adaptdom.registry import Kind

    found = set()
    stack = [(registry.root, ())]
    while stack:
        current, segs = stack.pop()
        if current == target:
            found.add(PathName(segs))
        if current.kind is Kind.DOMAIN:
            for name, member in registry.member_names(current).items():
                stack.append((member, segs + (name,)))
    return found
