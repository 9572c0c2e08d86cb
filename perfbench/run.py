"""adaptdom benchmark: the time and memory a verified report costs.

    python3 perfbench/run.py --workload heal-kills --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout. Every iteration runs in a fresh
process (`child.py`), one after another: it generates the workload's
scenario from the seed, then times set-up, `Simulator.run`, report
rendering and `verify_report`. Each iteration is followed by a process
that only times set-ups. Iterations repeat until `--seconds` is spent,
alternating two PYTHONHASHSEED values, and the medians are reported.
With `--trace 1` every other iteration is traced instead, and the
per-layer split is reported.

The correctness gate runs on every invocation. The shipped scenarios must
reproduce their recorded report digests; every iteration's report must
pass `verify_report`, be byte-identical across processes and hash seeds,
and match the digest and simulated statistics recorded in `golden.json`
for its workload and seed, where one is recorded. Human-readable lines
come first; the last line of standard output is one JSON object. The exit
code is 1 when the gate fails and 2 when the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
RESULTS = HERE / "results"
HASH_SEEDS = ("1", "2")
# Two iterations, one under each hash seed, always run in full.
MIN_ITERATIONS = 2
# A child that takes longer has hung or regressed about tenfold; it fails.
CHILD_TIMEOUT_S = 80


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_child(args: list[str], hash_seed: str = HASH_SEEDS[0]) -> dict:
    """Run child.py once; returns its JSON result or {"error": ...}."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S}s", "hash_seed": hash_seed}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": tail[0], "hash_seed": hash_seed}
    result = json.loads(lines[-1])
    result["hash_seed"] = hash_seed
    return result


def load_golden() -> dict:
    if not GOLDEN.is_file():
        return {"shipped": {}, "workloads": {}}
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _diff(expected, actual, prefix: str = "") -> list[str]:
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            out += _diff(expected.get(key), actual.get(key), f"{prefix}{key}.")
        return out
    if expected != actual:
        return [f"{prefix.rstrip('.')}: expected {expected}, got {actual}"]
    return []


def check_shipped(golden: dict) -> tuple[int, list[str]]:
    """Run the shipped scenarios; returns (scenarios run, failure lines)."""
    expected = golden.get("shipped", {})
    result = run_child(["--shipped"])
    if "error" in result:
        return max(1, len(expected)), [f"shipped scenarios: {result['error']}"]
    runs = {k: v for k, v in result.items() if k != "hash_seed"}
    failures = []
    for name in sorted(set(expected) | set(runs)):
        got = runs.get(name)
        if got is None:
            failures.append(f"shipped {name}: not run")
        elif got["problems"]:
            failures.append(f"shipped {name}: {'; '.join(got['problems'])}")
        elif got["sha256"] != expected.get(name):
            failures.append(f"shipped {name}: sha256 {got['sha256']} != recorded {expected.get(name)}")
    return len(set(expected) | set(runs)), failures


def check_iteration(record: dict, reference: dict | None) -> list[str]:
    """Problems of one iteration against the recorded (or first) report."""
    if "error" in record or reference is None:
        return [f"raised: {record.get('error')}"]
    problems = [f"verify_report: {p}" for p in record["problems"]]
    if record["sha256"] != reference["sha256"]:
        problems.append(f"sha256 {record['sha256']} != {reference['sha256']}")
    problems += [f"stats {d}" for d in _diff(reference["stats"], record["stats"])]
    if "layers" in record:
        # Self-times are disjoint slices of the traced stages.
        layer_sum = sum(layer["self_s"] for layer in record["layers"].values())
        if layer_sum > record["total_s"] + 1e-6:
            problems.append(f"layer self-times sum to {layer_sum:.6f} s, "
                            f"more than the traced total {record['total_s']:.6f} s")
    return problems


def iterate(workload: str, seed: int, budget_s: float,
            trace: bool) -> tuple[list, list, list]:
    """Run iterations until `budget_s` is spent; returns the untraced
    iterations, the traced ones and the set-up-only processes.

    The first MIN_ITERATIONS always run, under different hash seeds, so
    the cross-hash-seed check never goes without one of them. After
    that, an iteration starts only if the longest step so far would end
    within the budget. Without `trace`, each iteration is followed by a
    set-up-only process, so that set-up is sampled in more processes.
    With `trace`, untraced and traced iterations alternate, so that drift
    in machine speed affects both alike, and the traced ones start at the
    second hash seed.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[dict] = []
    args = ["--workload", workload, "--seed", str(seed)]
    started = time.perf_counter()
    longest = 0.0
    while True:
        step_started = time.perf_counter()
        if trace and len(traced) < len(plain):
            traced.append(run_child(args + ["--traced"], HASH_SEEDS[(len(traced) + 1) % 2]))
        else:
            plain.append(run_child(args, HASH_SEEDS[len(plain) % 2]))
            if not trace:
                setups.append(run_child(args + ["--setup-only"], HASH_SEEDS[len(setups) % 2]))
        now = time.perf_counter()
        longest = max(longest, now - step_started)
        if len(plain) + len(traced) >= MIN_ITERATIONS and now - started + longest > budget_s:
            break
    return plain, traced, setups


def end_to_end(records: list[dict], setups: list[dict],
               units: dict[str, str]) -> dict[str, float]:
    """Each end-to-end metric as the median of its samples, printed with
    the sample count and range. `setup_s` takes the same number of
    set-ups from every process, the first ones, so that a fast process
    does not weigh more for fitting more set-ups into its time."""
    processes = [r["setup_samples_s"] for r in records + setups]
    per_process = min(len(p) for p in processes)
    samples = {
        "setup_s": [s for p in processes for s in p[:per_process]],
        "run_s": [r["run_s"] for r in records],
        "replay_s": [s for r in records for s in r["replay_samples_s"]],
        "total_s": [r["total_s"] for r in records],
        "trace_lines_per_s": [r["stats"]["trace_lines"] / r["run_s"] for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    for name, values in samples.items():
        print(f"  {name:<20} {metrics[name]:>12.6g} {units[name]:<5} median of {len(values)}, "
              f"range {min(values):.6g} .. {max(values):.6g}")
    return metrics


def per_layer(record: dict) -> dict[str, float]:
    layers, stats = record["layers"], record["stats"]
    kinds = stats["kinds"]

    def calls(name):
        return layers[name]["calls"]

    def self_s(name):
        return layers[name]["self_s"]

    submits = calls("confgraph.submit")
    metrics = {
        "persistence.parse_s": self_s("persistence.parse"),
        "persistence.build_s": self_s("persistence.build"),
        "system.clock.callbacks": calls("system.clock.schedule"),
        "system.clock.self_s": self_s("system.clock"),
        "simharness.app_hops": kinds.get("app_hop", 0),
        "simharness.app_drops": kinds.get("app_drop", 0),
        "sensing.emit.calls": calls("sensing.emit"),
        "sensing.emit.self_s": self_s("sensing.emit"),
        "sensing.agent_hops": kinds.get("agent_hop", 0),
        "adaptation.dispatch.calls": calls("adaptation.dispatch"),
        "adaptation.dispatch.self_s": self_s("adaptation.dispatch"),
        "adaptation.dispatch.p50_us": layers["adaptation.dispatch"].get("p50_us", 0.0),
        "adaptation.dispatch.p99_us": layers["adaptation.dispatch"].get("p99_us", 0.0),
        "adaptation.plan_placement.calls": calls("adaptation.plan_placement"),
        "adaptation.plan_placement.self_s": self_s("adaptation.plan_placement"),
        "adaptation.executed_ratio": kinds.get("scenario", 0) / max(1, stats["events_routed"]),
    }
    for name in ("enumerate", "domains_containing", "resolve"):
        metrics[f"registry.{name}.calls"] = calls(f"registry.{name}")
        metrics[f"registry.{name}.self_s"] = self_s(f"registry.{name}")
    metrics.update({
        "confgraph.submit.calls": submits,
        "confgraph.submit.self_s": self_s("confgraph.submit"),
        "confgraph.validate.calls": calls("confgraph.validate"),
        "confgraph.validate.self_s": self_s("confgraph.validate"),
        "confgraph.validate_per_txn": calls("confgraph.validate") / max(1, submits),
        "confgraph.commit_ratio": kinds.get("txn_commit", 0) / max(1, kinds.get("txn_submit", 0)),
        "confgraph.queue_wait_ticks.p50": stats["queue_wait_ticks"]["p50"],
        "confgraph.queue_wait_ticks.max": stats["queue_wait_ticks"]["max"],
        "confgraph.block_ticks.p50": stats["block_ticks"]["p50"],
        "confgraph.block_ticks.max": stats["block_ticks"]["max"],
        "trace.record.calls": calls("trace.record"),
        "trace.record.self_s": self_s("trace.record"),
        "trace.lines_s": self_s("trace.lines"),
        "report.render_s": self_s("report.render"),
        "report.parse_s": self_s("report.parse"),
        "report.verify.self_s": self_s("report.verify"),
    })
    return metrics


def layers(workload: str, seed: int, plain: list[dict], traced: list[dict],
           units: dict[str, str]) -> dict[str, float]:
    """Per-layer metrics as medians over the traced iterations. Every span
    aggregate goes to a results file, apart from any report."""
    rows = [per_layer(r) for r in traced]
    metrics = {name: statistics.median([row[name] for row in rows]) for name in rows[0]}
    metrics["trace_overhead_s"] = (statistics.median([r["run_s"] for r in traced])
                                   - statistics.median([r["run_s"] for r in plain]))
    kept = ("layers", "setup_samples_s", "run_s", "render_s", "replay_samples_s", "total_s")
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"layers-{workload}-seed{seed}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "iterations": [{k: r[k] for k in kept} for r in traced]},
                  fh, indent=1, sort_keys=True)
    print(f"per-layer spans written to {out.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    return metrics


def src_line_count() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (ROOT / "src").rglob("*.py")
    )


def main() -> int:
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "adaptdom" / "__init__.py").is_file():
        print(f"error: no adaptdom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = load_golden()
    shipped_runs, gate = check_shipped(golden)
    for problem in gate:
        print(f"FAIL {problem}")
    plain, traced, setups = iterate(args.workload, args.seed, args.seconds, bool(args.trace))
    records = plain + traced

    recorded = golden["workloads"].get(args.workload, {}).get(str(args.seed))
    first_ok = next((r for r in records if "error" not in r), None)
    reference = recorded or first_ok
    if recorded is None:
        print(f"note: no recorded digest for {args.workload} seed {args.seed}; "
              "checking replay and repeatability only")
    failed = len(gate)
    for index, record in enumerate(records):
        problems = check_iteration(record, reference)
        if problems:
            failed += 1
            print(f"FAIL iteration {index} (PYTHONHASHSEED={record.get('hash_seed')}): "
                  + "; ".join(problems[:20]))
    setups_good = [r for r in setups if "error" not in r]
    for record in setups:
        if "error" in record:
            failed += 1
            print(f"FAIL set-up process (PYTHONHASHSEED={record.get('hash_seed')}): "
                  f"raised: {record['error']}")
    attempted = len(records) + len(setups) + shipped_runs
    plain_good = [r for r in plain if "error" not in r]
    traced_good = [r for r in traced if "error" not in r]
    good = plain_good + traced_good
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced iterations under PYTHONHASHSEED "
          f"{', '.join(sorted({r['hash_seed'] for r in good}))}; "
          f"{len({r['sha256'] for r in good})} distinct report digest(s)")

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if not plain_good or (args.trace and not traced_good):
        metrics = {}
    elif args.trace:
        metrics = layers(args.workload, args.seed, plain_good, traced_good, units)
    else:
        metrics = end_to_end(plain_good, setups_good, units)
    print(f"  {'error_rate':<36} {failed / attempted:>14.6g} ratio ({failed} of {attempted} runs)")
    print(f"info: src/ line count {src_line_count()} (information only, not a metric)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
