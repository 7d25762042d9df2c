#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json on several seeds and summarise.

    python3 perfbench/trajectory.py --seeds 10 --out perfbench/history/NAME.json

Each workload runs once per seed (1..N) with --trace 0, then once with
--trace 1 on seed 1. For every end-to-end metric the summary holds the
median over the seeds and the spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median, the figure each metric's bound is judged against. A spread above
its bound is flagged. The host line of the first run is kept with it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", action="append",
                    help="only this workload (repeatable)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
               "host": None, "workloads": {}}
    for w in names:
        values, runs = {}, []
        for seed in range(1, args.seeds + 1):
            host, result = run(w, seed, bench["run_seconds"], 0)
            summary["host"] = summary["host"] or host["host"]
            runs.append({k: result[k] for k in ("correct", "attempted", "failed")})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        metrics = {}
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
            metrics[name] = {"median": med, "spread": spread, "values": v}
            flag = " OVER BOUND" if spread > bounds[name] else ""
            print(f"{w:14s} {name:18s} median {med:12.6g}  spread "
                  f"{spread:6.3f} (bound {bounds[name]}){flag}", flush=True)
        _, traced = run(w, 1, bench["run_seconds"], 1)
        summary["workloads"][w] = {
            "runs": runs, "end_to_end": metrics,
            "per_layer_seed1": {k: m["value"]
                                for k, m in traced["metrics"].items()}}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
