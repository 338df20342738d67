#!/usr/bin/env python3
"""Run every workload N times, twice, and report each metric's spread.

Usage, from any directory:

    python3 perfbench/repeat.py [--runs 10] [--sets 2] [--seconds 10]
                                [--workloads lookup-hot,update-cold]
                                [--trace 0|1]

Each set runs every workload --runs times, round-robin across the
workloads, each run with its own seed (set s, run i uses seed
s * runs + i + 1). For every workload and metric it prints each set's
median and quartiles (Python's statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, and the shift of the second set's median from the
first's in the metric's worse direction. The bounds in BENCHMARK.json
are checked against both: a spread or a shift above a metric's bound
is flagged. Every run's result line is kept in
.bench_build/perfbench/repeat-<time>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    res["wall_s"] = wall
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    log_path = os.path.join(ROOT, ".bench_build", "perfbench", time.strftime("repeat-%Y%m%d-%H%M%S.jsonl"))
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    values = {}  # (workload, set, metric) -> [values]
    fails = {}  # (workload, set) -> [failed share]
    with open(log_path, "w") as log:
        for s in range(args.sets):
            for i in range(args.runs):
                seed = s * args.runs + i + 1
                for w in workloads:
                    res = run_once(w, seed, seconds, args.trace)
                    log.write(json.dumps({"workload": w, "set": s, "seed": seed, **res}) + "\n")
                    log.flush()
                    fails.setdefault((w, s), []).append(res["failed"] / res["attempted"])
                    for name, m in res["metrics"].items():
                        values.setdefault((w, s, name), []).append(m["value"])
                    print(f"set {s} seed {seed} {w}: correct={res['correct']} failed={res['failed']}"
                          f"/{res['attempted']} wall={res['wall_s']:.1f}s", file=sys.stderr, flush=True)

    flagged = 0
    for w in workloads:
        print(f"\n{w}  (failed share per set: "
              + ", ".join(f"{max(fails[(w, s)]):.3g}" for s in range(args.sets)) + ")")
        names = sorted({k[2] for k in values if k[0] == w})
        print(f"  {'metric':34} " + " ".join(f"{'set' + str(s) + ' q1/med/q3':>36} {'spread':>7}" for s in range(args.sets))
              + f" {'shift':>7} {'bound':>6}")
        for name in names:
            d = defs.get(name, {})
            bound = d.get("bound")
            cells, meds = [], []
            for s in range(args.sets):
                vs = values[(w, s, name)]
                q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
                spread = (q3 - q1) / med if med else 0.0
                meds.append(med)
                mark = "!" if bound is not None and spread > bound else " "
                flagged += mark == "!"
                cells.append(f"{q1:>11.4g} {med:>11.4g} {q3:>11.4g}  {spread:>6.3f}{mark}")
            shift = ""
            if len(meds) > 1 and meds[0]:
                worse = (meds[1] - meds[0]) / meds[0]
                if d.get("better") == "higher":
                    worse = -worse
                mark = "!" if bound is not None and worse > bound else " "
                flagged += mark == "!"
                shift = f"{worse:>7.3f}{mark}"
            print(f"  {name:34} " + " ".join(cells) + f" {shift:>8} {'' if bound is None else bound:>6}")
    print(f"\nruns logged to {log_path}; {flagged} spread or shift above its bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
