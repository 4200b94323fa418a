#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

Run from the repository root:

    python3 perfbench/collect.py --workloads ssb-exec,serve-churn --seeds 1-10 \
        --out perfbench/results/set1.json

For every workload and end-to-end metric it reports the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread,
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json, and
each run's steal_frac: the share of the host's CPU time its hypervisor gave
to others over the measured window (from /proc/stat). With
--trace it adds one traced run per workload (the first seed) and records its
per-layer metrics.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(args, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} exited {p.returncode}:\n{p.stdout}\n{p.stderr}")
    prov = next((l[len("# provenance "):] for l in lines if l.startswith("# provenance ")), "{}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(args)} reported a failure:\n{p.stdout}")
    return res, json.loads(prov), time.time() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured seconds per run (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", help="write the summary as JSON here")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = a.seconds or bench["run_seconds"]
    out = {"seconds": seconds, "workloads": {}}
    for w in a.workloads.split(","):
        values, prov, wall, steal = {}, None, [], []
        for seed in seeds_of(a.seeds):
            res, prov, dt = run_once(bench["command"], w, seed, seconds, 0)
            wall.append(dt)
            steal.append(prov.get("steal_frac"))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {}
        print(f"{w}: {len(wall)} runs, {statistics.median(wall):.1f} s wall each (median)")
        print("  steal_frac " + " ".join("-" if x is None else f"{x:.3f}" for x in steal))
        for name, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            b = bounds.get(name)
            summary[name] = {"values": vs, "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": b}
            flag = "" if b is None or spread < b / 3 else "  <-- spread >= bound/3"
            print(f"  {name:22s} median {med:12.4f}  spread {spread:7.4f}  bound {b}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in vs))
        entry = {"provenance": prov, "run_wall_s": wall, "run_steal_frac": steal,
                 "end_to_end": summary}
        if a.trace:
            res, _, _ = run_once(bench["command"], w, seeds_of(a.seeds)[0], seconds, 1)
            entry["per_layer"] = {n: m["value"] for n, m in res["metrics"].items()}
        out["workloads"][w] = entry
    if a.out:
        with open(a.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
