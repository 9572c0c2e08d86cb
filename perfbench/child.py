"""One benchmark iteration, run in a fresh process by `run.py`.

    python3 perfbench/child.py --workload heal-kills --seed 1 [--traced | --setup-only]
    python3 perfbench/child.py --shipped

A workload iteration generates the scenario text for its seed, then times
the four stages of a report's life: set-up (`load_config` on the text
plus `Simulator` construction), `Simulator.run`, `RunReport.render` and
`verify_report`, which is what `adaptdom replay` does. Set-up and replay
are repeated and their medians enter `total_s`. It prints one JSON object with the timings, the report's sha256,
the `verify_report` problems, the simulated statistics and the process's
peak RSS. With `--traced` the layer wrappers of `layers.py` are installed
first and their per-layer numbers are added. `--setup-only` times only
the set-ups, so that `run.py` can sample set-up in more processes than it
runs whole iterations in. `--shipped` runs the scenario files shipped in
`scenarios/` once each, untimed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import adaptdom  # noqa: E402
from adaptdom import report as report_module  # noqa: E402
from adaptdom.persistence import load_config  # noqa: E402
from adaptdom.simharness import Simulator  # noqa: E402
from adaptdom.trace import TraceEntry  # noqa: E402

SHIPPED_SEED = 13
SHIPPED_UNTIL = 2000
# Set-up and replay are short next to a run and noisy, so an iteration
# repeats them: at least `minimum` times and until `budget_s` is spent.
SETUP_REPEAT = (3, 0.4, 40)  # minimum, budget_s, maximum
REPLAY_REPEAT = (1, 1.0, 10)


def _repeat(fn, minimum: int, budget_s: float, maximum: int):
    """Call fn() repeatedly, each time from a collected heap; returns the
    last result and the duration of every call."""
    times: list[float] = []
    result = None
    while len(times) < minimum or (sum(times) < budget_s and len(times) < maximum):
        result = None  # let the collector free the previous result first
        gc.collect()
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    return result, times


def _ticks_summary(values: list[int]) -> dict:
    if not values:
        return {"count": 0, "p50": 0, "max": 0, "sum": 0}
    return {
        "count": len(values),
        "p50": statistics.median_low(values),
        "max": max(values),
        "sum": sum(values),
    }


def simulated_stats(report) -> dict:
    """Everything about the simulated run that a pure speed change must
    leave identical: report metrics, trace counts and transaction ticks."""
    kinds: Counter = Counter()
    routed = 0
    submitted: dict[str, int] = {}
    blocked: dict[str, int] = {}
    waits: list[int] = []
    blocks: list[int] = []
    for lineno, line in enumerate(report.trace_lines, start=1):
        entry = TraceEntry.parse(line, lineno)
        kinds[entry.kind] += 1
        if entry.kind == "event" and entry.get("domains") != "0":
            routed += 1
        elif entry.kind == "txn_submit":
            submitted[entry.get("id")] = entry.time
        elif entry.kind == "txn_block":
            txn = entry.get("id")
            blocked[txn] = entry.time
            waits.append(entry.time - submitted[txn])
        elif entry.kind in ("txn_commit", "txn_abort") and entry.get("id") in blocked:
            blocks.append(entry.time - blocked.pop(entry.get("id")))
    return {
        "metrics": dict(sorted(report.metrics.items())),
        "trace_lines": len(report.trace_lines),
        "kinds": dict(sorted(kinds.items())),
        "events_routed": routed,
        "queue_wait_ticks": _ticks_summary(waits),
        "block_ticks": _ticks_summary(blocks),
    }


def _check_import() -> None:
    src = (ROOT / "src").resolve()
    if src not in Path(adaptdom.__file__).resolve().parents:
        raise SystemExit(f"adaptdom imported from {adaptdom.__file__}, not from {src}")


def _setup(text: str, seed: int) -> Simulator:
    return Simulator(load_config(text), seed=seed)


def run_setups(workload: str, seed: int) -> dict:
    from workloads import generate

    text, _ = generate(workload, seed)
    _, setups = _repeat(lambda: _setup(text, seed), *SETUP_REPEAT)
    return {"setup_samples_s": setups}


def run_workload(workload: str, seed: int, traced: bool) -> dict:
    from workloads import generate

    text, until = generate(workload, seed)
    timer = None
    if traced:
        from layers import LayerTimer

        timer = LayerTimer()
        timer.install()
    once = (1, 0.0, 1)
    sim, setups = _repeat(lambda: _setup(text, seed), *(once if traced else SETUP_REPEAT))
    gc.collect()
    start = perf_counter()
    report = sim.run(until)
    run_s = perf_counter() - start
    start = perf_counter()
    rendered = report.render()
    render_s = perf_counter() - start
    problems, replays = _repeat(lambda: report_module.verify_report(rendered),
                                *(once if traced else REPLAY_REPEAT))
    setup_s, replay_s = statistics.median(setups), statistics.median(replays)
    result = {
        "setup_samples_s": setups,
        "replay_samples_s": replays,
        "run_s": run_s,
        "render_s": render_s,
        "total_s": setup_s + run_s + render_s + replay_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sha256": hashlib.sha256(rendered.encode("utf-8")).hexdigest(),
        "problems": problems,
    }
    if timer is not None:
        result["layers"] = timer.snapshot()
    result["stats"] = simulated_stats(report)
    return result


def run_shipped() -> dict:
    out = {}
    for path in sorted((ROOT / "scenarios").glob("*.cfg")):
        rendered = Simulator(load_config(str(path)), seed=SHIPPED_SEED).run(SHIPPED_UNTIL).render()
        out[path.stem] = {
            "sha256": hashlib.sha256(rendered.encode("utf-8")).hexdigest(),
            "problems": report_module.verify_report(rendered),
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--shipped", action="store_true")
    args = parser.parse_args()
    _check_import()
    if args.shipped:
        result = run_shipped()
    elif args.setup_only:
        result = run_setups(args.workload, args.seed)
    else:
        result = run_workload(args.workload, args.seed, args.traced)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
