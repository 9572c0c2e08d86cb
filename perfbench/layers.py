"""Per-layer timing for the traced benchmark run.

The layers are the `adaptdom` modules. Their public entry points are
wrapped from here, at run time, so the program's own files stay as they
are and report bytes are unchanged. Spans are kept in memory as per-name
aggregates: call count, inclusive time and self time (a span's duration
minus the time its wrapped children took). A few entry points also keep
every inclusive duration, for percentiles.

Install the wrappers before building the system: `ActuationHub` keeps a
bound `dispatch_event` taken when the engine is constructed.
"""

from __future__ import annotations

import functools
from time import perf_counter

from adaptdom import adaptation, confgraph, persistence, report, system, trace
from adaptdom.registry import Registry
from adaptdom.sensing import ActuationHub


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class _Layer:
    __slots__ = ("calls", "total", "self_time", "samples")

    def __init__(self, keep_samples: bool):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.samples = [] if keep_samples else None


class LayerTimer:
    """Span aggregation over wrapped entry points. The wrappers stay in
    place for the life of the process, which runs one traced iteration."""

    def __init__(self):
        self.layers: dict[str, _Layer] = {}
        self._child_time: list[float] = []

    def _timed(self, name: str, fn, keep_samples: bool = False):
        layer = self.layers.setdefault(name, _Layer(keep_samples))
        stack = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                layer.calls += 1
                layer.total += elapsed
                layer.self_time += elapsed - children
                if layer.samples is not None:
                    layer.samples.append(elapsed)
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _counted(self, name: str, fn):
        layer = self.layers.setdefault(name, _Layer(False))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        setattr(persistence, "parse_document",
                    self._timed("persistence.parse", persistence.parse_document))
        setattr(persistence, "build_system",
                    self._timed("persistence.build", persistence.build_system))
        setattr(system.SimClock, "schedule",
                    self._counted("system.clock.schedule", system.SimClock.schedule))
        setattr(system.SimClock, "run_until",
                    self._timed("system.clock", system.SimClock.run_until))
        setattr(ActuationHub, "emit", self._timed("sensing.emit", ActuationHub.emit))
        setattr(adaptation.AdaptationEngine, "dispatch_event",
                    self._timed("adaptation.dispatch",
                                adaptation.AdaptationEngine.dispatch_event,
                                keep_samples=True))
        setattr(adaptation, "plan_placement_moves",
                    self._timed("adaptation.plan_placement", adaptation.plan_placement_moves))
        for method in ("enumerate", "domains_containing", "resolve"):
            setattr(Registry, method,
                        self._timed(f"registry.{method}", getattr(Registry, method)))
        setattr(confgraph.ConfigManager, "submit",
                    self._timed("confgraph.submit", confgraph.ConfigManager.submit))
        # The adaptation module imported `validate` under its own name, so
        # both bindings must point at the one wrapper.
        validate = self._timed("confgraph.validate", confgraph.validate)
        setattr(confgraph, "validate", validate)
        setattr(adaptation, "validate_txn", validate)
        setattr(trace.TraceLog, "record", self._timed("trace.record", trace.TraceLog.record))
        setattr(trace.TraceLog, "lines", self._timed("trace.lines", trace.TraceLog.lines))
        setattr(report.RunReport, "render",
                    self._timed("report.render", report.RunReport.render))
        parse = report.RunReport.__dict__["parse"].__func__
        setattr(report.RunReport, "parse",
                    classmethod(self._timed("report.parse", parse)))
        setattr(report, "verify_report", self._timed("report.verify", report.verify_report))

    def snapshot(self) -> dict[str, dict]:
        out = {}
        for name, layer in sorted(self.layers.items()):
            entry = {"calls": layer.calls, "total_s": layer.total, "self_s": layer.self_time}
            if layer.samples:
                ordered = sorted(layer.samples)
                entry["p50_us"] = _percentile(ordered, 0.50) * 1e6
                entry["p99_us"] = _percentile(ordered, 0.99) * 1e6
            out[name] = entry
        return out
