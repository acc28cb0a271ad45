#!/usr/bin/env python3
"""Geospatial scenario: batched viewport queries over points of interest.

The paper motivates range trees with geometric and database applications;
the classic one is a map service: millions of points of interest (POIs)
and, every frame, a *batch* of rectangular viewport queries ("what's on
each connected user's screen right now?").  That is exactly the paper's
regime — m = O(n) independent range queries answered together — and the
clustered POI distribution (city centres) plus correlated viewports (most
users look at the same downtown) is the congestion case the demand-
proportional forest replication exists for.

Run:  python examples/geospatial_poi.py
"""

import numpy as np

from repro import Box, DistributedRangeTree, count, report
from repro.workloads import clustered_points

P = 8


def make_viewports(m: int, seed: int) -> list[Box]:
    """Viewports: 70% aimed at the two biggest 'cities', 30% roaming."""
    rng = np.random.default_rng(seed)
    boxes = []
    hot_centres = np.array([[0.3, 0.3], [0.7, 0.65]])
    for i in range(m):
        if rng.uniform() < 0.7:
            c = hot_centres[rng.integers(0, len(hot_centres))] + rng.normal(0, 0.02, 2)
        else:
            c = rng.uniform(0.1, 0.9, 2)
        w, h = rng.uniform(0.02, 0.08), rng.uniform(0.02, 0.06)
        boxes.append(Box([(c[0] - w, c[0] + w), (c[1] - h, c[1] + h)]))
    return boxes


def main() -> None:
    # POIs cluster around a handful of city centres
    pois = clustered_points(n=4000, d=2, seed=1, clusters=6, spread=0.05)
    tree = DistributedRangeTree.build(pois, p=P)
    print(f"indexed {pois.n} POIs on {P} processors: "
          f"forest groups {tree.space_report()['forest_group_sizes']}")

    viewports = make_viewports(m=2000, seed=2)

    # frame 1: how many POIs per viewport (cheap: associative count)
    counts = tree.run([count(v) for v in viewports]).values()
    m = tree.metrics
    print(f"\n{len(viewports)} viewport counts in {m.rounds} rounds, "
          f"max h-relation {m.max_h}")
    print(f"  busiest viewport sees {max(counts)} POIs, median "
          f"{sorted(counts)[len(counts) // 2]}")

    # show the congestion machinery at work
    out = tree.search(viewports)
    print(f"  forest demand per processor: {out.demands}")
    print(f"  copies made of each forest group: {out.copy_counts}")
    print(f"  subqueries per processor after balancing: {out.subqueries_per_proc}")

    # frame 2: actually fetch the POI ids for the 50 busiest viewports
    busiest = sorted(range(len(counts)), key=lambda i: -counts[i])[:50]
    hits = tree.run([report(viewports[i]) for i in busiest]).values()
    k = sum(len(h) for h in hits)
    print(f"\nreport mode for the 50 busiest viewports: {k} (viewport, POI) pairs "
          f"in {tree.metrics.rounds} rounds")
    print(f"  e.g. viewport #{busiest[0]} -> {len(hits[0])} POIs, "
          f"ids {hits[0][:8]} ...")


if __name__ == "__main__":
    main()
