"""A count is a node's width: COUNT is never stored.

Theorem 4 counts with ⊕ = + over f ≡ 1, and a selected node's leaf count
already is that sum.  So the plan folds every COUNT query — ``count``,
``aggregate(box, COUNT)`` and ``aggregate(box)`` on a COUNT-declared
tree — from leaf counts, and no tree stores a count layer: a default
build holds a zero-width aggregate column on every rank and hat replica,
and a refit adds only the value layers a batch folds.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cgm.machine import Machine
from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree, validate_tree
from repro.geometry import Box
from repro.query import QueryBatch, aggregate, count
from repro.semigroup import COUNT, NO_LAYERS, count_semigroup, sum_of_dim
from repro.seq import bf_count
from repro.workloads import uniform_points

DIMS = (1, 2, 3)
N = 500  # pads to 512: sentinel rows in the forest


@pytest.fixture(scope="module")
def trees():
    """``(kind, d) -> (points, tree)``: static COUNT-built trees on the
    serial and process backends, and dynamic ones holding several
    buckets plus buffered points."""
    machines = {b: Machine(4, backend=b) for b in ("serial", "process")}
    built = {}
    try:
        for d in DIMS:
            pts = uniform_points(N, d, seed=40 + d)
            for backend, mach in machines.items():
                built[backend, d] = (pts, DistributedRangeTree.build(pts, machine=mach))
            dyn = DynamicDistributedRangeTree.build(pts, p=4, flush_threshold=16)
            extra = uniform_points(40, d, seed=50 + d)
            for i, coords in enumerate(extra.coords.tolist()):
                dyn.insert(coords, pid=N + i)
            assert len(dyn.bucket_sizes) > 1 and dyn.buffered_count
            built["dynamic", d] = (dyn.live_points(), dyn)
        yield built
    finally:
        for _pts, tree in built.values():
            tree.close()
        for mach in machines.values():
            mach.close()


unit = st.floats(min_value=-0.125, max_value=1.125, allow_nan=False, width=32)


@st.composite
def case(draw):
    kind = draw(st.sampled_from(("serial", "process", "dynamic")))
    d = draw(st.sampled_from(DIMS))
    boxes = draw(
        st.lists(
            st.lists(st.tuples(unit, unit).map(sorted), min_size=d, max_size=d).map(Box),
            min_size=1,
            max_size=6,
        )
    )
    return kind, d, boxes


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=case())
def test_aggregate_count_is_count_is_brute_force(trees, case):
    kind, d, boxes = case
    pts, tree = trees[kind, d]
    m = len(boxes)
    batch = (
        [aggregate(b, COUNT) for b in boxes]
        + [count(b) for b in boxes]
        + [aggregate(b) for b in boxes]
        + [aggregate(b, count_semigroup()) for b in boxes]
    )
    got = tree.run(batch).values()
    want = [bf_count(pts, b) for b in boxes]
    assert [got[i * m : (i + 1) * m] for i in range(4)] == [want] * 4
    assert all(type(v) is int for v in got)
    if kind != "dynamic":
        plan = tree.engine.plan(QueryBatch(batch))
        assert not plan.needs_refit and [f.slot for f in plan.folds] == [None]
        assert tree.semigroup is NO_LAYERS and tree.base_semigroup is COUNT


def _aggregate_bytes(tree):
    stacks = [stack.aggs for store in tree.forest_store for stack in store.values()]
    hats = [hat.aggs for hat in tree.construct_result.hats]
    return stacks, hats


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_a_default_build_holds_no_aggregates_and_a_batch_adds_its_layer(backend):
    pts = uniform_points(N, 2, seed=61)
    box = Box([(0.2, 0.7), (0.1, 0.9)])
    with DistributedRangeTree.build(pts, p=4, backend=backend) as tree:
        assert validate_tree(tree).ok
        stacks, hats = _aggregate_bytes(tree)
        assert len(stacks) == 8 and len(hats) == 4
        assert all(col.nbytes == 0 and col.data.shape[1] == 0 for col in stacks + hats)
        # a count folds widths: no refit, still no layer
        rs = tree.run([aggregate(box), aggregate(box, COUNT), count(box)])
        assert rs.values() == [bf_count(pts, box)] * 3
        assert not any("refit" in s.label for s in rs.metrics.steps)
        assert tree.semigroup is NO_LAYERS

        rs = tree.run([aggregate(box, sum_of_dim(0))])
        inside = pts.coords[[i for i in range(N) if box.contains_point(pts.coords[i])], 0]
        assert rs.value(0) == pytest.approx(inside.sum())
        assert [c.name for c in tree.semigroup.components] == ["sum[x0]"]
        stacks, hats = _aggregate_bytes(tree)
        assert all(col.kernel.width == 1 and col.data.shape[1] == 1 for col in stacks + hats)
        assert validate_tree(tree).ok


def test_a_count_on_a_value_annotated_tree_does_not_refit():
    """COUNT is no layer to add: folding it on a ``sum[x0]`` tree reads
    widths — no refit round, the annotation as it was."""
    pts = uniform_points(N, 2, seed=62)
    box = Box([(0.1, 0.6), (0.3, 0.8)])
    with DistributedRangeTree.build(pts, p=4, semigroup=sum_of_dim(0)) as tree:
        annotation = tree.semigroup
        rs = tree.run([aggregate(box, COUNT), aggregate(box)])
        assert rs.value(0) == bf_count(pts, box)
        assert not any("refit" in s.label for s in rs.metrics.steps)
        assert tree.semigroup is annotation
        tree.reannotate(COUNT)
        assert tree.semigroup is NO_LAYERS and tree.base_semigroup is COUNT
        assert tree.hat.aggs.data.shape[1] == 0 and validate_tree(tree).ok
        assert tree.run([aggregate(box)]).value(0) == bf_count(pts, box)
