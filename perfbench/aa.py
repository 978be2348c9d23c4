#!/usr/bin/env python3
"""A/A steadiness check for perfbench (see README.md).

Runs two interleaved sets of the same build, each run with its own seed,
and prints per workload and end-to-end metric each set's median, quartiles
and spread (Q3 - Q1 as a share of the median), plus how far set B's median
sits from set A's. Every value is checked against the bound in
BENCHMARK.json. With --trace-overhead it also makes one traced run per
workload and seed, and prints the tracing overhead on ops_per_s.

    python3 perfbench/aa.py --runs 10 --seconds 15
    python3 perfbench/aa.py --workloads serve --runs 5 --sets 1
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run_once(workload, seed, seconds, trace):
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: outputs failed the checks")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines:  # the timings before host-speed scaling
        if line.startswith("unscaled "):
            words = line.split()[1:]
            for k, v in zip(words[::2], words[1::2]):
                metrics["unscaled " + k] = float(v)
    return metrics


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(
        values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--runs", type=int, default=10, help="runs per set")
    p.add_argument("--sets", type=int, default=2, choices=(1, 2))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace-overhead", action="store_true")
    a = p.parse_args()
    workloads = a.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    # values[workload][set][metric] -> list; sets interleave run by run.
    values = {w: [dict() for _ in range(a.sets)] for w in workloads}
    traced = {w: [] for w in workloads}
    for i in range(a.runs):
        for w in workloads:
            order = range(a.sets) if i % 2 == 0 else reversed(range(a.sets))
            for s in order:
                seed = a.first_seed + i + 1000 * s
                metrics = run_once(w, seed, a.seconds, 0)
                for k, v in metrics.items():
                    values[w][s].setdefault(k, []).append(v)
                print(f"run {i} set {'AB'[s]} {w} seed {seed}: " +
                      " ".join(f"{k}={v:.6g}" for k, v in metrics.items()
                               if not k.startswith("unscaled")),
                      flush=True)
            if a.trace_overhead:
                m = run_once(w, a.first_seed + i, a.seconds, 1)
                traced[w].append(m["traced.ops_per_s"])

    ok = True
    print(f"\n{'workload':9} {'metric':13} {'set':3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6} {'B/A-1':>7}")
    for w in workloads:
        for name, bound in bounds.items():
            med_a = None
            for s in range(a.sets):
                vals = values[w][s][name]
                med, q1, q3, spread = summary(vals)
                drift = ""
                if s == 0:
                    med_a = med
                else:
                    d = med / med_a - 1 if med_a else 0.0
                    worse = -d if bound["better"] == "higher" else d
                    drift = f"{d:+.3f}"
                    if worse > bound["bound"]:
                        ok = False
                        drift += " !"
                flag = ""
                if name != "setup_s" and spread > bound["bound"]:
                    ok, flag = False, " !"
                elif name != "setup_s" and spread > bound["bound"] / 3:
                    flag = " ~"
                print(f"{w:9} {name:13} {'AB'[s]:3} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f} {bound['bound']:6.3f} "
                      f"{drift:>7}{flag}")
        for name in ("ops_per_s", "p50_ms", "tail_ms", "setup_s"):
            for s in range(a.sets):
                vals = values[w][s].get("unscaled " + name)
                if vals:
                    med, q1, q3, spread = summary(vals)
                    print(f"{w:9} {name:13} {'AB'[s]:3} {med:12.6g} "
                          f"{q1:12.6g} {q3:12.6g} {spread:7.3f}  unscaled")
        if a.trace_overhead:
            untraced = statistics.median(values[w][0]["ops_per_s"])
            t = statistics.median(traced[w])
            print(f"{w:9} tracing overhead on ops_per_s: "
                  f"{1 - t / untraced:+.3f} (traced median {t:.6g}, "
                  f"untraced {untraced:.6g})")
    print("\n'!' over the bound, '~' over a third of it; spread is "
          "(Q3 - Q1) / median.")
    print("all within bounds" if ok else "SOME METRIC OUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
