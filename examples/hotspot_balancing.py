#!/usr/bin/env python3
"""Congestion demo: why the paper copies forest groups.

Every query in this batch asks about (nearly) the same region, so after
the hat walk *all* surviving subqueries point at the same processor's
forest group.  The naive move — send them all there — melts that
processor.  Algorithm Search steps 2-4 instead count the demand, make
``c_j = ceil(demand_j / (|Q'|/p))`` copies of the congested group, and
split the subqueries across the copies.  This script shows both the
demand skew and the flattened post-balancing load, and compares the two
replication transports (direct vs doubling).

Run:  python examples/hotspot_balancing.py
"""

from repro import DistributedRangeTree
from repro.workloads import hotspot_queries, uniform_points

N, D, P = 2048, 2, 8


def bar(x: int, scale: float) -> str:
    return "#" * max(1 if x else 0, int(x * scale))


def main() -> None:
    points = uniform_points(N, D, seed=9)
    tree = DistributedRangeTree.build(points, p=P)
    queries = hotspot_queries(N, D, seed=10, half_width=0.03)
    print(f"{len(queries)} queries, all aimed at the same 6%-wide region\n")

    out = tree.search(queries)

    print("forest-group demand (subqueries wanting each processor's F_j):")
    scale = 40 / max(max(out.demands), 1)
    for j, dmd in enumerate(out.demands):
        print(f"  F_{j}: {dmd:>5} {bar(dmd, scale)}")

    print(f"\ncopies made per group (c_j): {out.copy_counts}")

    print("\nsubqueries actually processed per processor (after steps 3-4):")
    scale = 40 / max(max(out.subqueries_per_proc), 1)
    for r, cnt in enumerate(out.subqueries_per_proc):
        print(f"  P_{r}: {cnt:>5} {bar(cnt, scale)}")
    cap = -(-out.total_subqueries // P)
    print(f"  (|Q'| = {out.total_subqueries}, fair share |Q'|/p = {cap})")

    print("\nreplication transport comparison on this batch:")
    for strategy in ("direct", "doubling"):
        tree.search(queries, replication=strategy)
        m = tree.metrics
        print(f"  {strategy:>9}: rounds={m.rounds:>2}  max h-relation={m.max_h}")
    print(
        "\n'direct' ships every copy from the owner in one round (h spikes);\n"
        "'doubling' recruits holders round by round (h stays ~|F_j| per round)."
    )


if __name__ == "__main__":
    main()
