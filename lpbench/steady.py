#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

    python3 lpbench/steady.py --out runs.jsonl [--workloads serve-zipf,...]
        [--seeds 1-10] [--seconds 15] [--trace 0]

Runs from the current directory (the repository root) with the command in
BENCHMARK.json, appends one JSON line per run to --out ({"workload",
"seed", "detail", "result"}), and prints, per workload and end-to-end
metric, the median and the spread (IQR over median, quartiles as Python's
statistics.quantiles(values, n=4) gives them) of the host-normalised
values next to the same spread of the raw values. Two such files are what
compare.py pairs up.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def seed_range(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return {"workload": workload, "seed": seed,
            "detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    with open(a.out, "a") as out:
        for w in a.workloads.split(","):
            for seed in seed_range(a.seeds):
                r = run_once(bench["command"], w, seed, a.seconds, a.trace)
                out.write(json.dumps(r) + "\n")
                out.flush()
                runs.append(r)
                print(f"  {w} seed {seed}: correct={r['result']['correct']}", file=sys.stderr)
    if a.trace:
        return
    print(f"{'workload':<11} {'metric':<20} {'median':>12} {'spread':>7} {'raw':>7} {'bound':>6}")
    for w in a.workloads.split(","):
        rs = [r for r in runs if r["workload"] == w]
        for name, bound in bounds.items():
            norm = [r["result"]["metrics"][name]["value"] for r in rs]
            raw = [r["detail"]["raw"].get(name, 0.0) for r in rs]
            print(f"{w:<11} {name:<20} {statistics.median(norm):>12.6g} "
                  f"{spread(norm):>7.3f} {spread(raw):>7.3f} {bound:>6}")


if __name__ == "__main__":
    main()
