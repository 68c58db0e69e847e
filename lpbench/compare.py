#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 lpbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one JSON line per run, as lpbench/steady.py writes them
({"workload", "seed", "detail", "result"}). Runs are paired by workload and
seed. For every workload and end-to-end metric it prints each side's median
and quartiles, the pairs the change won (ties count for neither side), and a
verdict:

  unresolved  the parent's own spread (IQR / median) is wider than the
              metric's bound, and not every change run beats every parent run
  gain        the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's IQR
  regression  the change's median is worse than the parent's by more than
              the bound
  no change   anything else

Runs are refused unless every one of them carries the same machine line
(nproc, LSBP_THREADS, last-level cache bytes, REF_NOMINAL): timings from
different hosts or settings are not comparable, normalised or not.
"""

import json
import statistics
import sys

MACHINE_KEYS = ("nproc", "lsbp_threads", "llc_bytes", "ref_nominal_s")


def load(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, bound, better):
    """The verdict for one workload and metric (see the module docs)."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    won = sum(1 for a, b in zip(parent, change) if (b - a) * sign > 0)
    if better == "higher":
        dominates = min(change) > max(parent)
    else:
        dominates = max(change) < min(parent)
    if pm and (p3 - p1) / pm > bound and not dominates:
        return won, "unresolved"
    if won >= 0.9 * len(parent) and (cm - pm) * sign > p3 - p1:
        return won, "gain"
    if pm and (pm - cm) * sign / pm > bound:
        return won, "regression"
    return won, "no change"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    bench = json.load(open("BENCHMARK.json"))
    parent, change = load(argv[1]), load(argv[2])
    machines = {tuple(r["detail"]["machine"][k] for k in MACHINE_KEYS)
                for r in parent + change}
    if len(machines) != 1:
        sys.exit(f"refused: runs come from different machine lines {sorted(machines)}")
    by_key = lambda runs: {(r["workload"], r["seed"]): r for r in runs}
    p_runs, c_runs = by_key(parent), by_key(change)
    keys = sorted(set(p_runs) & set(c_runs))
    if not keys:
        sys.exit("refused: no (workload, seed) pair appears in both files")
    print(f"{'workload':<11} {'metric':<20} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>6}  verdict")
    for w in dict.fromkeys(k[0] for k in keys):
        pairs = [(p_runs[k], c_runs[k]) for k in keys if k[0] == w]
        for m in bench["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            pv = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["result"]["metrics"][name]["value"] for _, c in pairs]
            won, v = verdict(pv, cv, bound, better)
            fmt = lambda q: "{:>10.4g} {:>10.4g} {:>10.4g}".format(*q)
            print(f"{w:<11} {name:<20} {fmt(quartiles(pv)):>32} {fmt(quartiles(cv)):>32} "
                  f"{won:>3}/{len(pairs):<2}  {v}")


if __name__ == "__main__":
    main(sys.argv)
