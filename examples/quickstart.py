#!/usr/bin/env python3
"""Quickstart: build a distributed range tree and run one mixed-mode batch.

This is the 60-second tour of the library: index points (plain tuples
work — no helpers needed), build the distributed range tree on a
simulated 8-processor CGM, and answer a *mixed* batch of range queries —
count, report, and associative-function descriptors side by side — in a
single Algorithm Search pass, cross-checked against a brute-force scan.

Run:  python examples/quickstart.py
"""

from repro import DistributedRangeTree, bf_count, count, report, aggregate, sum_of_dim
from repro.workloads import selectivity_queries, uniform_points


def main() -> None:
    # 1. data: any (n, d) coordinate collection indexes directly;
    #    here 2048 random points in the unit square
    points = uniform_points(n=2048, d=2, seed=7)

    # 2. build the distributed range tree on p=8 virtual processors.
    #    (Algorithm Construct: O(s/p) local work + O(1) communication rounds)
    tree = DistributedRangeTree.build(points, p=8)
    print(f"built {tree}")
    space = tree.space_report()
    print(f"  hat: {space['hat_nodes']} nodes (replicated on every processor)")
    print(f"  forest groups per processor: {space['forest_group_sizes']}")
    print(f"  construction rounds: {tree.metrics.rounds}, max h-relation: {tree.metrics.max_h}")

    # 3. one mixed-mode batch: counts for most boxes, point ids for a few,
    #    a sum-of-x aggregate for others — the engine plans them together
    #    so all three modes share one search pass.
    boxes = selectivity_queries(m=1024, d=2, seed=8, selectivity=0.01)
    batch = (
        [count(b) for b in boxes[:1016]]
        + [report(b) for b in boxes[1016:1020]]
        + [aggregate(b, sum_of_dim(0)) for b in boxes[1020:]]
    )
    rs = tree.run(batch)
    print(f"\nanswered {len(rs)} mixed queries in {rs.rounds} communication rounds")
    print(f"  one search pass for all modes: phases = {rs.metrics.phase_sequence()}")
    print(f"  first five counts: {rs.values()[:5]}")

    # cross-check a few counts against brute force
    for i in (0, 100, 500):
        assert rs.value(i) == bf_count(points, boxes[i])
    print("  spot-checked against brute force: OK")

    # 4. the report answers: matching point ids, globally sorted
    for r in rs.by_mode("report"):
        print(f"  report {r.query.box!r}: {len(r.value)} points, first few ids {r.value[:5]}")

    # 5. the aggregates: sum of x-coordinates of the matching points —
    #    no rebuild needed, the engine refit the annotations lazily
    sums = [r.value for r in rs.by_mode("aggregate")]
    print(f"  sum-of-x aggregates: {[round(s, 3) for s in sums]}")

    # 6. one-off ad-hoc query over a plain tuple box
    box = ((0.4, 0.6), (0.4, 0.6))
    print(f"\npoints in {box!r}: {tree.run(count(box)).value(0)}")


if __name__ == "__main__":
    main()
