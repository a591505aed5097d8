#!/usr/bin/env python3
"""Compare the perfbench results recorded in BENCH_<pr>.json files.

    scripts/bench_compare.py BENCH_21.json              # parent vs change
    scripts/bench_compare.py BENCH_21.json BENCH_22.json  # change vs change

A BENCH file holds, per workload, perfbench's JSON result line of one
traced run (`--trace 1`) for the parent and for the change, the result
lines of alternating untraced pairs, and the median and quartiles of
each end-to-end metric over those pairs. With one file the script
compares its parent side with its change side; with two, the change
side of the first with the change side of the second.

Exact counters (the traced metrics whose unit is `count` or `bool`:
Newton iterations, device evaluations, factorisations, cache tiers, ...)
must be equal. A counter that differs is reported, and the script exits
1 unless the newer file names a reason for it under
`counter_reasons.<workload>.<metric>`. Wall-time metrics are noisy on a
shared host: their median deltas are printed as information only.
"""

import json
import sys

EXACT_UNITS = ("count", "bool")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def counters(result):
    """The exact counters of one perfbench result line."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m.get("unit") in EXACT_UNITS}


def compare_counters(workload, old, new, reasons):
    """Print counter differences; return how many lack a reason."""
    unexplained = 0
    a, b = counters(old), counters(new)
    for name in sorted(set(a) | set(b)):
        va, vb = a.get(name), b.get(name)
        if va == vb:
            continue
        reason = reasons.get(name)
        if reason:
            print(f"  {workload} {name}: {va} -> {vb} (explained: {reason})")
        else:
            print(f"  {workload} {name}: {va} -> {vb} UNEXPLAINED")
            unexplained += 1
    return unexplained


def print_wall_times(workload, old_summary, new_summary):
    for name in sorted(set(old_summary) & set(new_summary)):
        a, b = old_summary[name], new_summary[name]
        if not a["median"]:
            continue
        delta = b["median"] / a["median"] - 1.0
        print(f"  {workload} {name}: median {a['median']:.4g} "
              f"[{a['q1']:.4g}, {a['q3']:.4g}] -> {b['median']:.4g} "
              f"[{b['q1']:.4g}, {b['q3']:.4g}] ({delta:+.1%})")


def sides(doc, side):
    """Per workload: (traced result line, pair summary) of one side."""
    out = {}
    for workload, w in doc["workloads"].items():
        summary = {name: s[side] for name, s in
                   w.get("pairs", {}).get("summary", {}).items()}
        out[workload] = (w["traced"][side], summary)
    return out


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    if len(argv) == 1:
        doc = load(argv[0])
        old, new, reasons = sides(doc, "parent"), sides(doc, "change"), doc
    else:
        old_doc, doc = load(argv[0]), load(argv[1])
        old, new, reasons = sides(old_doc, "change"), sides(doc, "change"), doc
    reasons = reasons.get("counter_reasons", {})

    unexplained = 0
    print("exact counters (traced runs):")
    for workload in sorted(set(old) & set(new)):
        unexplained += compare_counters(workload, old[workload][0],
                                        new[workload][0],
                                        reasons.get(workload, {}))
    print("wall times (median [Q1, Q3] over the pairs; information only):")
    for workload in sorted(set(old) & set(new)):
        print_wall_times(workload, old[workload][1], new[workload][1])
    if unexplained:
        print(f"{unexplained} exact counter(s) changed without a reason")
        return 1
    print("exact counters: equal or explained")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
