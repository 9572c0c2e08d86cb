"""Record the golden report digests and simulated statistics.

    python3 perfbench/record.py --seeds 0-63

Writes `perfbench/golden.json`: the sha256 of each shipped scenario's
report at the gate's fixed seed and horizon, and for each workload and
seed the report sha256 plus the simulated statistics `run.py` compares
against. Every workload is recorded; entries for seeds not named are
kept. Two iterations run at a time: the digests and statistics do not
depend on speed. Re-record only for a change that is meant to change
reports, and say so.
"""

from __future__ import annotations

import argparse
import json
from concurrent.futures import ThreadPoolExecutor

from run import GOLDEN, ROOT, load_golden, run_child, spec

JOBS = 2


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def render_golden(golden: dict) -> str:
    """JSON with one line per workload and seed, so that a re-record shows
    in a diff as the seeds whose reports changed."""
    workloads = []
    for workload, runs in sorted(golden["workloads"].items()):
        seeds = ",\n".join(
            f"   {json.dumps(seed)}: {json.dumps(runs[seed], sort_keys=True)}"
            for seed in sorted(runs, key=int)
        )
        workloads.append(f"  {json.dumps(workload)}: {{\n{seeds}\n  }}")
    return (
        "{\n"
        f' "shipped": {json.dumps(golden["shipped"], sort_keys=True)},\n'
        ' "workloads": {\n' + ",\n".join(workloads) + "\n }\n}\n"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, required=True)
    args = parser.parse_args()
    golden = load_golden()
    shipped = run_child(["--shipped"])
    golden["shipped"] = {
        path.stem: shipped[path.stem]["sha256"]
        for path in sorted((ROOT / "scenarios").glob("*.cfg"))
        if not shipped[path.stem]["problems"]
    }
    jobs = [(w["name"], seed) for w in spec()["workloads"] for seed in args.seeds]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(
            lambda job: run_child(["--workload", job[0], "--seed", str(job[1])]), jobs
        ))
    for (workload, seed), result in zip(jobs, results):
        if "error" in result or result["problems"]:
            print(f"not recorded: {workload} seed {seed}: "
                  f"{result.get('error') or result['problems'][:3]}")
            continue
        golden["workloads"].setdefault(workload, {})[str(seed)] = {
            "sha256": result["sha256"], "stats": result["stats"],
        }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(render_golden(golden))


if __name__ == "__main__":
    main()
