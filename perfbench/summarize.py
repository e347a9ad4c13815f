"""Median, quartiles and spread of benchmark runs, per workload and metric.

Usage, from the repository root, after runs with several seeds:

    python3 perfbench/summarize.py perfbench/out/results/*-t0.json
    python3 perfbench/summarize.py perfbench/out/results/*.json --write perfbench/baseline.json

Traced records (``-t1``) are not summarized; their per-layer metrics are
copied into the written file as they are.

Spread is (q3 - q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``. For the end-to-end metrics of
BENCHMARK.json it is compared with the metric's bound: the benchmark is
steady when every spread but set-up's is below a third of its bound.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def spread_of(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--write", type=Path, help="write the summary as a baseline JSON file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]}
    records = [json.loads(path.read_text()) for path in args.results]
    traced = [r for r in records if r["trace"]]
    records = [r for r in records if not r["trace"]]
    by_workload = {}
    for record in records:
        by_workload.setdefault(record["workload"], []).append(record)
    baseline = {"git_commit": records[0]["environment"]["git_commit"], "workloads": {}}
    steady = True
    for workload, runs in sorted(by_workload.items()):
        runs.sort(key=lambda r: r["seed"])
        names = sorted({name for r in runs for name in r["summary"]})
        metrics = {}
        print(f"{workload}: {len(runs)} runs, seeds {[r['seed'] for r in runs]}")
        for name in names:
            values = [r["summary"][name]["value"] for r in runs if name in r["summary"]]
            if len(values) < 2:
                continue
            stats = metrics[name] = spread_of(values)
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                ok = name == "setup_s" or stats["spread"] < bound / 3
                steady &= ok
                note = f"bound {bound}  {'ok' if ok else 'NOT STEADY'}"
            print(f"  {name:<16} median {stats['median']:11.6f}  q1 {stats['q1']:11.6f}  "
                  f"q3 {stats['q3']:11.6f}  spread {stats['spread']:7.2%}  {note}")
        failed = sum(not op["ok"] for r in runs for op in r["ops"])
        print(f"  ops failed over all runs: {failed}")
        env = dict(runs[0]["environment"])
        for key in ("seed", "loadavg", "input_sizes"):
            env.pop(key, None)
        baseline["workloads"][workload] = {
            "seconds": runs[0]["seconds"],
            "repeats_per_run": [len(r["repeats"]) for r in runs],
            "input_sizes": runs[0]["environment"]["input_sizes"],
            "environment": env,
            "ops_failed": failed,
            "metrics": metrics,
            "digests_by_seed": {str(r["seed"]): r["digests"] for r in runs},
        }
    baseline["per_layer"] = {f"{r['workload']}-s{r['seed']}": r["metrics"] for r in traced}
    if args.write:
        args.write.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
