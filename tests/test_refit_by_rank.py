"""A refit reads each stack's values by rank, whatever the point ids are.

The refit ships the lifted column once per dimension, in that
dimension's rank order, and a stack reads it at its rows' ranks
(``CompiledForest.row_ranks``).  Point ids never index anything, so ids
that are sparse, descending and far above ``n`` must refit exactly as a
build under the same annotation folds: every stack's ``aggs``, every hat
replica and every answer.  A lookup that takes ids for dense row numbers
(an index error) or for sorted ones (values of the wrong points) fails
here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DistributedRangeTree
from repro.cgm import Machine
from repro.dist import DynamicDistributedRangeTree, validate_tree
from repro.geometry import PointSet
from repro.query import aggregate, count, report
from repro.semigroup import id_set, max_of_dim, sum_group, sum_of_dim
from repro.seq import bf_aggregate, bf_count, bf_report
from repro.workloads import selectivity_queries, uniform_points

#: 500 real points pad to 512
N = 500
#: sparse, descending and at least 2^40
IDS = (1 << 40) + 977 * np.arange(N, 0, -1, dtype=np.int64)


def _points(d: int) -> PointSet:
    return PointSet(uniform_points(N, d, seed=40 + d).coords, ids=IDS)


@pytest.fixture(scope="module")
def machines():
    """One machine per ``(backend, p)``, shared by the module's trees."""
    held: dict = {}

    def get(backend: str, p: int) -> Machine:
        if (backend, p) not in held:
            held[backend, p] = Machine(p, backend=backend)
        return held[backend, p]

    yield get
    for mach in held.values():
        mach.close()


def _same_column(got, want) -> bool:
    return (
        got.kernel == want.kernel
        and got.data.dtype == want.data.dtype
        and np.array_equal(got.data, want.data)
    )


def _assert_refit_equals_a_build(tree, mach) -> None:
    """Every stack's ``aggs`` and every hat replica of ``tree`` equal
    those of a build over its points declared with its annotation — the
    product of its layers, which that build holds as its one layer."""
    assert validate_tree(tree).ok
    with DistributedRangeTree.build(tree.points, machine=mach, semigroup=tree.semigroup) as fresh:
        for r in range(mach.p):
            got, want = tree.forest_store[r], fresh.forest_store[r]
            assert got.keys() == want.keys()
            for j in got:
                assert np.array_equal(got[j].pids, want[j].pids)
                assert _same_column(got[j].aggs, want[j].aggs.layer(0))
            got_hat = tree.construct_result.hats[r]
            assert _same_column(got_hat.aggs, fresh.construct_result.hats[r].aggs.layer(0))


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("p", [1, 2, 8])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lazy_refit_equals_a_build_under_awkward_ids(machines, backend, p, d):
    pts = _points(d)
    mach = machines(backend, p)
    boxes = selectivity_queries(6, d, seed=d * 8 + p)
    sgs = [max_of_dim(d - 1), id_set(), sum_of_dim(0)]
    queries = [aggregate(b, sg) for b in boxes for sg in sgs] + [
        q for b in boxes for q in (count(b), report(b))
    ]
    with DistributedRangeTree.build(pts, machine=mach) as tree:
        got = tree.run(queries).values()  # a default build refits here
        assert [c.name for c in tree.semigroup.components] == [sg.name for sg in sgs]
        _assert_refit_equals_a_build(tree, mach)
    want = [bf_aggregate(pts, b, sg) for b in boxes for sg in sgs] + [
        a for b in boxes for a in (bf_count(pts, b), bf_report(pts, b))
    ]
    for g, w in zip(got, want):
        assert g == (pytest.approx(w) if isinstance(w, float) else w)


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_dynamic_refit_after_deletes(machines, backend):
    pts = _points(2)
    mach = machines(backend, 2)
    live = np.ones(N, dtype=bool)
    dyn = DynamicDistributedRangeTree.build(pts, machine=mach, flush_threshold=8)
    try:
        for i in range(0, N, 7):
            dyn.delete(int(IDS[i]))
            live[i] = False
        assert dyn._buckets
        boxes = selectivity_queries(8, 2, seed=5)
        got = dyn.run([aggregate(b, sum_group(1)) for b in boxes] + [report(b) for b in boxes])
        for bucket in dyn._buckets.values():
            assert [c.name for c in bucket.tree.semigroup.components] == [sum_group(1).name]
            _assert_refit_equals_a_build(bucket.tree, mach)
    finally:
        dyn.close()
    kept = PointSet(pts.coords[live], ids=IDS[live])
    want = [bf_aggregate(kept, b, sum_group(1)) for b in boxes] + [bf_report(kept, b) for b in boxes]
    for g, w in zip(got.values(), want):
        assert g == (pytest.approx(w) if isinstance(w, float) else w)
