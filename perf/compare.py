#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or show the spread inside one set.

    python3 perf/compare.py A.json B.json     # parent vs change, or twice the same code
    python3 perf/compare.py --spread A.json   # run-to-run spread of one set

The files are what ``perf/run.py --out FILE`` appends to (any number of runs
per workload; medians are compared).  Per workload and metric it prints both
medians, the relative difference and, for end-to-end metrics, the bound from
``BENCHMARK.json``; exact counts (flagged by the runner) that differ are marked.  Exits 1 if any end-to-end metric is worse than its bound allows, any
exact count differs, or B fails more ops than A.  ``--spread`` prints each
metric's interquartile range as a share of its median (the driver's
steadiness check) and exits 1 where that exceeds the bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

Key = Tuple[str, int]  # (workload, trace)


class Series:
    """One metric of one (workload, trace) group over the runs of a file."""

    def __init__(self, unit: str, exact: bool) -> None:
        self.unit = unit
        self.exact = exact
        self.values: List[float] = []


class Group:
    def __init__(self) -> None:
        self.failed = 0
        self.runs = 0
        self.series: Dict[str, Series] = {}


def load(path: str) -> Dict[Key, Group]:
    groups: Dict[Key, Group] = defaultdict(Group)
    for run in json.loads(Path(path).read_text()):
        group = groups[(run["workload"], run["trace"])]
        group.failed += run["failed"]
        group.runs += 1
        for section in ("metrics", "extras"):
            for name, m in run.get(section, {}).items():
                series = group.series.setdefault(name, Series(m["unit"], bool(m.get("exact"))))
                series.values.append(m["value"])
    return groups


def bounds() -> Dict[str, Tuple[float, str]]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (needs >= 2 values)."""
    q = quantiles(values, n=4)
    mid = median(values)
    return (q[2] - q[0]) / abs(mid) if mid else 0.0


def show_spread(path: str) -> int:
    bad = 0
    bound = bounds()
    for (workload, trace), group in sorted(load(path).items()):
        print(f"== {workload} trace={trace} ({group.runs} runs, {group.failed} failed ops)")
        for name, series in group.series.items():
            if len(series.values) < 2:
                continue
            share = spread(series.values)
            note = ""
            if name in bound and not trace:
                limit = bound[name][0]
                note = f"bound {limit:.2f}"
                if name != "setup_s" and share > limit:
                    note += "  SPREAD EXCEEDS BOUND"
                    bad += 1
                elif share > limit / 3:
                    note += "  (above a third of the bound)"
            print(f"  {name:<32} median {median(series.values):>14.4f} {series.unit:<10} "
                  f"iqr/median {share:7.4f}  {note}")
    return 1 if bad else 0


def compare(path_a: str, path_b: str) -> int:
    a, b = load(path_a), load(path_b)
    bound = bounds()
    bad = 0
    for key in sorted(set(a) | set(b)):
        workload, trace = key
        print(f"== {workload} trace={trace}")
        if key not in a or key not in b:
            print("  only in one file")
            continue
        if b[key].failed > a[key].failed:
            print(f"  MORE FAILED OPS: {a[key].failed} -> {b[key].failed}")
            bad += 1
        for name, sa in a[key].series.items():
            if name not in b[key].series:
                continue
            va, vb = median(sa.values), median(b[key].series[name].values)
            rel = (vb - va) / abs(va) if va else (0.0 if vb == va else float("inf"))
            note = ""
            if name in bound and not trace:
                limit, better = bound[name]
                worse = rel if better == "lower" else -rel
                note = f"bound {limit:.2f}"
                if worse > limit:
                    note += "  WORSE THAN BOUND"
                    bad += 1
            elif sa.exact:
                note = "exact"
                if va != vb:
                    note = "EXACT COUNT DIFFERS"
                    bad += 1
            print(f"  {name:<32} {va:>14.4f} -> {vb:>14.4f} {sa.unit:<10} {rel:+8.2%}  {note}")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--spread", action="store_true", help="spread inside one file")
    ap.add_argument("files", nargs="+")
    args = ap.parse_args()
    if args.spread:
        return max(show_spread(f) for f in args.files)
    if len(args.files) != 2:
        ap.error("give two files to compare")
    return compare(*args.files)


if __name__ == "__main__":
    sys.exit(main())
