"""Reach or remove: every function in `src/adaptdom` is entered by the
shipped scenarios or is listed, with a reason, in `UNREACHED`.

The workload is CI's console loop run through `cli_main`: each shipped
scenario through all five subcommands, plus a save → load → save round
trip. It runs under `sys.settrace`, which collects the qualified name of
every `adaptdom` function entered. A function is every `def` in the
package, found from the source's syntax tree; a nested one carries
`<locals>` in its name, as `co_qualname` does. Lambdas, comprehensions
and class bodies are not functions.

The list can only shrink: a listed function that becomes reached, or
that no longer exists, fails the test as a new unreached one does.
"""

from __future__ import annotations

import ast
import os
import sys
import time
from pathlib import Path

import adaptdom
from adaptdom.cli import cli_main
from adaptdom.persistence import load_config, save_config

from conftest import SCENARIOS

_SOURCE = os.path.dirname(adaptdom.__file__) + os.sep

# Every function the workload does not enter, as `module:qualname`, with
# the reason it stays.
UNREACHED: dict[str, str] = {
    # Contract that no shipped scenario shows yet.
    "adaptation:AdaptationEngine.audit_tick": "audits: no shipped scenario sets audit_period (ROADMAP item 4)",
    "adaptation:AdaptationEngine.bound_domains": "the domains an audit visits (item 4)",
    "system:System.run_audits": "the simulator's audit tick (item 4)",
    "sensing:ActuationHub.last_emit_of": "a sensor's last emission, read by audits (item 4)",
    "adaptation:_audit_drop_stale_sources": "an audit stage no shipped logic selects",
    "adaptation:_monitor_pass_through": "the default monitor; every shipped logic filters by event type",
    "system:Host.revive": "no shipped scenario revives a host",
    "system:System._on_txn_abort": "no shipped scenario aborts a transaction (item 5)",
    "confgraph:prepare.<locals>.present": "connection edits: no shipped analyzer connects or disconnects",
    "confgraph:ConfigGraph.incident": "component removal: no shipped analyzer removes a component",
    "paths:PathName.__lt__": "orders the paths of a domain with two parents; no shipped domain has two",
    # Library API.
    "sensing:AgentReport.done": "the README's agent example checks it",
    "adaptation:AdaptationEngine.unload_logic": "unbinds a domain's logic",
    "registry:Registry.exclude": "dynamic exclusion (acceptance criterion 4)",
    "paths:PathName.parse": "a path from its text, as `Registry.resolve` accepts it",
    "paths:PathName.is_root": "whether a path names the root",
    "cli:main": "the installed `adaptdom` script; the workload calls `cli_main`",
    # Error paths that tier-1 reaches.
    "confgraph:Violation.__str__": "an invalid transaction's message",
    "confgraph:_raise_graph_error": "a graph line outside the grammar",
    "errors:InvalidTxn.__init__": "an invalid transaction",
    "errors:NotADomain.__init__": "a path through a non-domain",
    "errors:NotFound.__init__": "a path that does not resolve",
    "errors:ParseError.__init__": "malformed input",
    "report:_skip": "replay of a malformed trace or graph section",
    "trace:parse_error": "a trace line outside the grammar",
    # Protocol declarations.
    "confgraph:HostStatusView.host_exists": "protocol declaration",
    "confgraph:HostStatusView.host_is_up": "protocol declaration",
    "confgraph:Scheduler.schedule": "protocol declaration",
    # Names that perfbench/ reads; they leave with ROADMAP item 10.
    "registry:Registry.enumerate": "wrapped by perfbench/layers.py; also audits",
    "report:RunReport.trace_lines": "perfbench/child.py reads the trace through it",
    "report:TraceLines.__init__": "perfbench/child.py reads the trace through it",
    "report:TraceLines.__iter__": "perfbench/child.py iterates the trace",
    "report:TraceLines.__len__": "perfbench/child.py counts the trace lines",
    "trace:TraceEntry.parse": "perfbench/child.py parses trace lines with it",
    "trace:TraceEntry.get": "perfbench/child.py reads trace fields with it",
    "trace:TraceEntry.fields": "part of TraceEntry, which perfbench/child.py parses with",
    "trace:TraceLog.lines": "wrapped by perfbench/layers.py",
}


def defined_functions() -> set[str]:
    """The qualified name of every `def` in the package, by module."""
    found: set[str] = set()

    def walk(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found.add(name)
                walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    for path in sorted(Path(_SOURCE).glob("*.py")):
        module = path.stem
        walk(ast.parse(path.read_text(encoding="utf-8")), f"{module}:")
    return found


def reached_functions(work) -> set[str]:
    """The qualified name of every package function `work()` enters."""
    reached: set[str] = set()

    def enter(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(_SOURCE):
            module = os.path.basename(code.co_filename)[:-3]
            reached.add(f"{module}:{code.co_qualname}")
        return None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        work()
    finally:
        sys.settrace(previous)
    return reached


def drive_shipped_scenarios(tmp: Path) -> None:
    """CI's console loop on every shipped scenario, then a save of a
    loaded save, which must equal the first save."""
    for name, path in sorted(SCENARIOS.items()):
        report = str(tmp / f"{name}.report")
        for argv in (
            ["validate", path],
            ["tree", path],
            ["run", path, "--seed", "13", "--until", "2000", "--report", report],
            ["replay", report],
            ["dump-graph", report],
        ):
            assert cli_main(argv) == 0, argv
        first = save_config(load_config(path))
        assert save_config(load_config(first)) == first


def test_every_function_is_reached_or_listed(tmp_path):
    started = time.perf_counter()
    reached = reached_functions(lambda: drive_shipped_scenarios(tmp_path))
    elapsed = time.perf_counter() - started
    defined = defined_functions()
    assert sorted(defined - reached - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) - defined) == []
    assert sorted(set(UNREACHED) & reached) == []
    assert elapsed <= 2.0
