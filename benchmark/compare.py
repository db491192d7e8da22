#!/usr/bin/env python3
"""Reads benchmark run logs (JSON lines written by benchmark/run.sh) and
compares them against the bounds in BENCHMARK.json.  Standard library
only.

  compare.py summary RUNS                  medians, quartiles and spread
  compare.py agree A B                     B no worse than A by > bound
  compare.py claim PARENT CHANGE METRIC WORKLOAD

Only untraced runs carry end-to-end metrics; traced runs are skipped.
`summary` flags a metric as unsteady when the spread between its
quartiles, as a share of its median, exceeds a third of its bound.
`agree` is the acceptance check: for every end-to-end metric and
workload, the median of B may be worse than the median of A by at most
the metric's bound.  `claim` applies the rule for claiming a gain: at
least 10 pairs (the i-th run of each log, run alternately), the change
wins at least 9 in 10 of them (ties count for neither), and the medians
differ by more than the parent's quartile spread.  It then prints every
other metric and workload as its own row: within bound, regressed, or
unresolved when the run-to-run spread is wider than the bound.
"""

import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                    "BENCHMARK.json")


def load_spec():
    with open(SPEC) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load_runs(path):
    """{workload: {metric: [values in log order]}} of untraced runs."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            if run.get("trace"):
                continue
            per_metric = runs.setdefault(run["workload"], {})
            for name, m in run["result"]["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(parent, change, better):
    """Relative change of `change` against `parent` in the worse
    direction (negative when it improved)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    rel = (change - parent) / abs(parent)
    return rel if better == "lower" else -rel


def summary(path):
    spec = load_spec()
    runs = load_runs(path)
    print(f"{'workload':14} {'metric':18} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    unsteady = 0
    for workload in sorted(runs):
        for name, m in spec.items():
            values = runs[workload].get(name)
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            flag = ""
            if name != "setup_s" and s > m["bound"] / 3:
                flag = "  unsteady"
                unsteady += 1
            print(f"{workload:14} {name:18} {len(values):3d} {q2:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {s:7.3f} {m['bound']:6.2f}{flag}")
    return 1 if unsteady else 0


def agree(path_a, path_b):
    spec = load_spec()
    a, b = load_runs(path_a), load_runs(path_b)
    failures = 0
    print(f"{'workload':14} {'metric':18} {'median A':>12} {'median B':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for workload in sorted(set(a) | set(b)):
        for name, m in spec.items():
            va = a.get(workload, {}).get(name)
            vb = b.get(workload, {}).get(name)
            if not va or not vb:
                print(f"{workload:14} {name:18} missing in "
                      f"{'A' if not va else 'B'}")
                failures += 1
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            w = worse_by(ma, mb, m["better"])
            ok = w <= m["bound"]
            failures += not ok
            print(f"{workload:14} {name:18} {ma:12.6g} {mb:12.6g} "
                  f"{w:9.3f} {m['bound']:6.2f}{'' if ok else '  FAIL'}")
    return 1 if failures else 0


def claim(path_parent, path_change, metric, workload):
    spec = load_spec()
    if metric not in spec:
        sys.exit(f"compare.py: {metric} is not an end-to-end metric")
    parent, change = load_runs(path_parent), load_runs(path_change)
    better = spec[metric]["better"]
    p = parent.get(workload, {}).get(metric, [])
    c = change.get(workload, {}).get(metric, [])
    pairs = list(zip(p, c))
    wins = sum(1 for x, y in pairs if worse_by(x, y, better) < 0)
    q1, mp, q3 = quartiles(p) if p else (0, 0, 0)
    mc = statistics.median(c) if c else 0
    gap_better = worse_by(mp, mc, better) < 0
    met = (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap_better
           and abs(mc - mp) > q3 - q1)
    print(f"claim {metric} on {workload}: {len(pairs)} pairs, change wins "
          f"{wins}; parent median {mp:.6g} (q1 {q1:.6g}, q3 {q3:.6g}), "
          f"change median {mc:.6g}: {'MET' if met else 'NOT MET'}")

    print(f"\n{'workload':14} {'metric':18} {'parent':>12} {'change':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    regressed = 0
    for w in sorted(set(parent) | set(change)):
        for name, m in spec.items():
            vp = parent.get(w, {}).get(name)
            vc = change.get(w, {}).get(name)
            if not vp or not vc:
                continue
            mp_, mc_ = statistics.median(vp), statistics.median(vc)
            worse = worse_by(mp_, mc_, m["better"])
            all_better = all(worse_by(x, y, m["better"]) < 0
                             for x in vp for y in vc)
            if max(spread(vp), spread(vc)) > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "within bound"
            print(f"{w:14} {name:18} {mp_:12.6g} {mc_:12.6g} {worse:9.3f} "
                  f"{m['bound']:6.2f}  {verdict}")
    return 0 if met and not regressed else 1


def main(argv):
    if len(argv) == 3 and argv[1] == "summary":
        return summary(argv[2])
    if len(argv) == 4 and argv[1] == "agree":
        return agree(argv[2], argv[3])
    if len(argv) == 6 and argv[1] == "claim":
        return claim(*argv[2:])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
