"""How a query folds is said once: a mode names its semigroup and the
plan groups the batch by it.

A batch that mixes count, report, sample and aggregates over several
semigroups — typed and object, in any order — must answer what brute
force answers, plan one :class:`~repro.query.engine.Fold` per distinct
semigroup (known before any refit), and cost the comm rounds of a
count-only batch over the same boxes.  The batches are few queries over
wide boxes, so after the shared sort every rank holds a slice of some
query's run: runs of a kernel group (leaf counts, and ``min``/``max``
while the annotation is typed) and of an object group straddle rank
boundaries and resolve through the carry round.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm import Machine
from repro.dist import DistributedRangeTree
from repro.geometry import Box
from repro.query import QueryBatch, aggregate, count, plan_batch, report, sample_report
from repro.semigroup import (
    id_set,
    max_of_dim,
    min_of_dim,
    moments_of_dim,
    sum_of_dim,
    top_k_ids,
)
from repro.semigroup.kernels import kernel_for
from repro.seq import bf_aggregate, bf_count, bf_report
from repro.workloads import make_points

DIMS = (1, 2, 3)
BASES = {"kernel": sum_of_dim(0), "object": id_set()}
KERNEL_SGS = (min_of_dim(0), max_of_dim(0))
OBJECT_SGS = (top_k_ids(2), moments_of_dim(0))
KINDS = ("count", "report", "sample", "min", "max", "object")


@pytest.fixture(
    scope="module",
    params=[(b, p, base) for b in ("serial", "process") for p in (2, 4, 8) for base in BASES],
    ids=lambda bpb: f"{bpb[0]}-p{bpb[1]}-{bpb[2]}",
)
def trees(request):
    """One tree per dimension on one shared machine (48 points pad to 64)."""
    backend, p, base = request.param
    with Machine(p, backend=backend) as mach:
        built = {}
        for d in DIMS:
            pts = make_points("uniform", 48, d, seed=70 + d)
            tree = DistributedRangeTree.build(pts, machine=mach, semigroup=BASES[base])
            built[d] = pts, tree
        yield built
        for _pts, tree in built.values():
            tree.close()


@st.composite
def wide_interval(draw):
    """From below every point to past the middle: many pieces a query."""
    hi = draw(st.floats(0.5, 1.125, allow_nan=False, width=32))
    return (-0.5, hi)


@st.composite
def mixed_batch(draw):
    d = draw(st.sampled_from(DIMS))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))
    boxes = [
        Box(draw(st.lists(wide_interval(), min_size=d, max_size=d))) for _ in kinds
    ]
    obj = draw(st.sampled_from(OBJECT_SGS))
    seed = draw(st.integers(0, 5))
    return d, kinds, boxes, obj, seed


def _query(kind, box, obj, seed):
    if kind == "count":
        return count(box), None
    if kind == "report":
        return report(box), None
    if kind == "sample":
        return sample_report(box, 3, seed=seed), None
    sg = {"min": KERNEL_SGS[0], "max": KERNEL_SGS[1], "object": obj}[kind]
    return aggregate(box, sg), sg


def _expected(pts, query, sg):
    if query.mode == "count":
        return bf_count(pts, query.box)
    if query.mode == "aggregate":
        got = bf_aggregate(pts, query.box, sg)
        # float sums fold in a different order than brute force's
        return pytest.approx(got) if sg.name.startswith("moments") else got
    ids = bf_report(pts, query.box)
    if query.mode == "sample" and len(ids) > 3:
        return sorted(random.Random(query.option("seed")).sample(ids, 3))
    return ids


def _round_labels(rs) -> list:
    return [s.label for s in rs.metrics.comm_steps()]


@settings(max_examples=12, deadline=None)
@given(case=mixed_batch())
def test_mixed_batch_folds_by_group(trees, case):
    d, kinds, boxes, obj, seed = case
    pts, tree = trees[d]
    tree.reannotate(tree.base_semigroup)  # shed the layers of earlier examples
    made = [_query(kind, box, obj, seed) for kind, box in zip(kinds, boxes)]
    batch = QueryBatch([q for q, _sg in made])

    # (b) the groups, from the plan alone: nothing has been refitted yet
    plan = plan_batch(tree, batch)
    names = {sg.name for _q, sg in made if sg is not None}
    leaf = [g for g, fold in enumerate(plan.folds) if fold.slot is None]
    assert len(leaf) == ("count" in kinds)
    assert sorted(f.semigroup.name for f in plan.folds if f.slot is not None) == sorted(names)
    assert plan.needs_refit == bool(names)
    assert plan.report.tolist() == [k in ("report", "sample") for k in kinds]
    assert (plan.group == -1).tolist() == plan.report.tolist()
    if leaf:
        assert (plan.group == leaf[0]).tolist() == [k == "count" for k in kinds]
    for (query, sg), g in zip(made, plan.group.tolist()):
        if sg is not None:
            assert plan.folds[g].semigroup.name == sg.name
            assert plan.annotations[plan.folds[g].slot].name == sg.name

    # (a) brute force
    rs = tree.run(batch)
    assert rs.values() == [_expected(pts, q, sg) for q, sg in made]

    # leaf counts always fold typed; an annotation group only off typed storage
    kernels = tree.engine._fold_kernels(plan_batch(tree, batch))
    typed_storage = tree.value_kernel is not None
    for fold, typed in zip(plan.folds, kernels):
        want = fold.slot is None or (typed_storage and kernel_for(fold.semigroup) is not None)
        assert (typed is not None) == want

    # (d) the annotation is in place now, and (c) the mix adds no round
    assert plan_batch(tree, batch).needs_refit is False
    again = tree.run(batch)
    assert again.values() == rs.values()
    counts = tree.run([count(b) for b in boxes])
    assert _round_labels(again) == _round_labels(counts)
