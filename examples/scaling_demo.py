#!/usr/bin/env python3
"""Scaling demo: watch Theorems 2 and 3 in the metrics.

Builds the same dataset on machines of growing p and prints, straight from
the superstep trace, the quantities the paper's analysis is about: max
per-processor work (should fall like 1/p), communication rounds (should
not move at all), and the largest h-relation (should track s/p).

Run:  python examples/scaling_demo.py
"""

from repro import DistributedRangeTree, count
from repro.workloads import selectivity_queries, uniform_points

N, D = 2048, 2


def main() -> None:
    points = uniform_points(N, D, seed=5)
    queries = selectivity_queries(N, D, seed=6, selectivity=0.01)

    print(f"n={N}, d={D}, m={len(queries)} queries at 1% selectivity\n")
    hdr = f"{'p':>3} | {'build work':>11} {'build rnds':>10} | {'search work':>11} {'search rnds':>11} {'max h':>7} | {'speedup':>7}"
    print(hdr)
    print("-" * len(hdr))

    base_work = None
    for p in (1, 2, 4, 8, 16):
        tree = DistributedRangeTree.build(points, p=p)
        build = tree.metrics.summary()
        tree.run([count(q) for q in queries])
        search = tree.metrics.summary()

        total = build["max_work"] + search["max_work"]
        if base_work is None:
            base_work = total
        print(
            f"{p:>3} | {build['max_work']:>11} {build['rounds']:>10} |"
            f" {search['max_work']:>11} {search['rounds']:>11} {search['max_h']:>7} |"
            f" {base_work / total:>7.2f}"
        )

    print(
        "\nreading guide: 'work' is the slowest processor's charged operations\n"
        "(node visits, records sorted/built).  Rounds are h-relations; the\n"
        "paper's optimality is exactly 'work ~ sequential/p, rounds = O(1)'."
    )


if __name__ == "__main__":
    main()
