"""Run every workload, each in a fresh process, over several seeds; summarise.

    python3 perfbench/suite.py --seeds 1,2,3 --seconds 25 [--trace 0|1] [--out summary.json]

Runs ``perfbench/run.py`` once per (seed, workload), seeds in the outer loop
so that every workload sees the same stretch of machine load.  For each
workload and metric it prints the median over runs, the quartiles and the
spread (quartile distance as a share of the median, the figure a bound in
BENCHMARK.json is compared with), plus the human-table metrics of each run's
record file.  ``--out`` writes the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]

    metrics: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    tables: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    env = None
    failed = 0
    for seed in seeds:
        for name in names:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
                failed += 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
                failed += 1
            for metric, entry in result["metrics"].items():
                metrics[name].setdefault(metric, []).append(entry["value"])
            record_path = ROOT / ".perfbench_out" / f"{name}-seed{seed}-trace{args.trace}.json"
            record = json.loads(record_path.read_text(encoding="utf-8"))
            env = record["env"]
            for metric, row in record["table"].items():
                if row["value"] is not None:
                    tables[name].setdefault(metric, []).append(row["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{m}={e['value']:.6g}"
                                                      for m, e in result["metrics"].items()
                                                      if not m.endswith((".calls", ".us_per_call"))),
                  flush=True)

    summary = {"seconds": seconds, "seeds": seeds, "trace": args.trace, "env": env, "failed_runs": failed,
               "workloads": {name: {"metrics": {m: summarise(v) for m, v in metrics[name].items()},
                                    "table": {m: summarise(v) for m, v in tables[name].items()}}
                             for name in names}}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in names:
        print(f"\n{name}")
        for metric, row in summary["workloads"][name]["table"].items():
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = f"  bound {bound}" + ("  SPREAD OVER BOUND" if row["spread"] > bound else "")
            print(f"  {metric:36s} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g}"
                  f" spread {row['spread']:.4f} n={row['n']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
