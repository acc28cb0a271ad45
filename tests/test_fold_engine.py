"""One fold engine: ``⊕`` is evaluated by the semigroup kernels alone.

A stack folds its heaps, the hat its rows level by level, the query demux
and the sequential tree their segments — each through its kernel's own
methods — and every product holds one
:class:`~repro.semigroup.kernels.ProductKernel` over its components' own
kernels.  Pinned here:

(i) the hat's column, after a build and after a refit, is a per-node
    ``semigroup.combine`` re-fold of the roots it seated, bit for bit,
    for every typed builtin, an object semigroup and a product mixing
    typed and object components, on both backends — and each component
    of a product annotation folds under its own kernel;
(ii) Construct, a refit and the hat dispatch no ``kernel.fold``: a fault
    plan counting the site sees none in a build or a refit and two per
    fold group in a pass;
(iii) the sequential tree folds each query's segment left from its first
    row, as the demux does, so the two agree even on a float sum's sign.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import Box, DistributedRangeTree
from repro.dist import validate_tree
from repro.errors import InjectedFault
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.runtime import injected
from repro.geometry import PointSet
from repro.query import aggregate, count, report
from repro.semigroup import (
    COUNT,
    ProductSemigroup,
    bounding_box_semigroup,
    id_set,
    max_of_dim,
    min_of_dim,
    product_semigroup,
    sum_of_dim,
    top_k_ids,
)
from repro.semigroup.kernels import ProductKernel
from repro.seq import SequentialRangeTree, bf_aggregate
from repro.workloads import selectivity_queries, uniform_points

from tests.helpers import forest_elements

MIXED = product_semigroup([id_set(), sum_of_dim(0), min_of_dim(1)])

#: every typed builtin, an object semigroup, a typed and a mixed product
DECLARED = {
    "count": COUNT,
    "sum": sum_of_dim(0),
    "min": min_of_dim(1),
    "max": max_of_dim(0),
    "bbox": bounding_box_semigroup(2),
    "typed-product": product_semigroup([sum_of_dim(1), max_of_dim(1)]),
    "id-set": id_set(),
    "mixed-product": MIXED,
}


def _same(a, b) -> bool:
    """Equal values of equal types, floats bit for bit (``repr`` tells
    ``-0.0`` from ``0.0``)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return repr(a) == repr(b) if isinstance(a, float) else a == b


def _assert_hat_is_the_refold_of_its_roots(tree) -> None:
    """Every hat leaf holds its element's root; every internal row the
    ``combine`` of its children's, folded up from those roots."""
    hat, shape, sg = tree.hat, tree.hat.shape, tree.semigroup
    want = [None] * shape.size
    for leaf, stack, t in forest_elements(tree):
        want[leaf] = stack.root_aggs()[t]
    for i in range(shape.size - 1, -1, -1):  # children follow their parent
        if not shape.leaf[i]:
            want[i] = sg.combine(want[shape.left[i]], want[shape.right[i]])
    got = hat.aggs.to_list()
    assert hat.aggs.kernel == sg.kernel
    assert all(_same(g, w) for g, w in zip(got, want, strict=True)), sg.name
    if sg.kernel.dtype is not object:
        assert hat.aggs.data.tobytes() == sg.kernel.encode(want).tobytes()


def _assert_components_fold_under_their_own_kernels(sg) -> None:
    kernel = sg.kernel
    if not isinstance(sg, ProductSemigroup):
        assert not isinstance(kernel, ProductKernel)
        return
    assert isinstance(kernel, ProductKernel)
    assert kernel.dtype is object or all(c.kernel.dtype is not object for c in sg.components)
    for i, c in enumerate(sg.components):
        assert kernel.component(i) == c.kernel and kernel.layers[i] == c.kernel


@pytest.mark.parametrize("name", list(DECLARED))
def test_hat_refolds_its_roots_after_a_build_and_a_refit(name):
    pts = uniform_points(300, 2, seed=5)
    boxes = selectivity_queries(12, 2, seed=6, selectivity=0.2)
    with DistributedRangeTree.build(pts, p=8, semigroup=DECLARED[name]) as tree:
        _assert_hat_is_the_refold_of_its_roots(tree)
        _assert_components_fold_under_their_own_kernels(tree.semigroup)
        # a lazy refit adds a typed and an object layer to whatever is held
        batch = [aggregate(b, sum_of_dim(1)) for b in boxes] + [
            aggregate(b, top_k_ids(2, 1)) for b in boxes
        ]
        got = tree.run(batch).values()
        assert got[12:] == [bf_aggregate(pts, b, top_k_ids(2, 1)) for b in boxes]
        assert np.allclose(got[:12], [bf_aggregate(pts, b, sum_of_dim(1)) for b in boxes])
        _assert_hat_is_the_refold_of_its_roots(tree)
        _assert_components_fold_under_their_own_kernels(tree.semigroup)
        assert tree.semigroup.kernel.dtype is object
        assert validate_tree(tree).ok


def test_a_mixed_product_refits_across_the_process_boundary():
    """The mixed product's object matrix — a frozenset block beside two
    float blocks — crosses the pickle in Construct's roots and a refit's,
    and every rank seats and folds the same hat."""
    pts = uniform_points(500, 2, seed=7)
    boxes = selectivity_queries(16, 2, seed=8, selectivity=0.15)
    with DistributedRangeTree.build(pts, p=4, backend="process", semigroup=MIXED) as tree:
        assert validate_tree(tree).ok
        _assert_hat_is_the_refold_of_its_roots(tree)
        got = tree.run([aggregate(b, max_of_dim(0)) for b in boxes] + [aggregate(b) for b in boxes])
        assert validate_tree(tree).ok
        _assert_hat_is_the_refold_of_its_roots(tree)
        _assert_components_fold_under_their_own_kernels(tree.semigroup)
    values = got.values()
    assert values[:16] == [bf_aggregate(pts, b, max_of_dim(0)) for b in boxes]
    for (ids, total, low), b in zip(values[16:], boxes):
        want_ids, want_total, want_low = bf_aggregate(pts, b, MIXED)
        assert ids == want_ids and low == want_low and total == pytest.approx(want_total)


# ---------------------------------------------------------------------------
# (ii) no new kernel.fold dispatch: the k-th fold is the same dispatch
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("at, fires_in", [(1, "first pass"), (6, "first pass"), (7, "second pass"),
                                          (8, "second pass"), (9, None)])
def test_kernel_fold_fires_at_the_same_dispatch(at, fires_in):
    """A build and a refit dispatch no ``kernel.fold`` (their folds call
    the kernels' methods); a pass dispatches two per fold group — its
    ranks' folds and its home folds: 6 for the first pass's three groups
    (its refit folds none), 2 for the second's one."""
    pts = uniform_points(200, 2, seed=3)
    qs = selectivity_queries(12, 2, seed=4, selectivity=0.2)
    first = (
        [aggregate(q, id_set()) for q in qs[:4]]
        + [aggregate(q, min_of_dim(1)) for q in qs[4:8]]
        + [count(q) for q in qs[8:]]
    )
    second = [aggregate(q, sum_of_dim(0)) for q in qs] + [report(q) for q in qs]
    plan = FaultPlan((FaultRule("kernel.fold", "raise", at=at),))
    stage = None
    with injected(plan, env=False):
        with DistributedRangeTree.build(pts, p=4, semigroup=sum_of_dim(0)) as tree:
            tree.reannotate(product_semigroup([id_set(), sum_of_dim(0)]))
            for stage, batch in (("first pass", first), ("second pass", second)):
                try:
                    tree.run(batch)
                except InjectedFault:
                    break
            else:
                stage = None
    assert stage == fires_in


# ---------------------------------------------------------------------------
# (iii) the sequential tree folds as the demux does
# ---------------------------------------------------------------------------
def test_sequential_and_distributed_folds_agree_on_a_float_sums_sign():
    """A float sum left-folded from the segment's first row keeps a lone
    ``-0.0``; a fold started at the identity ``0.0`` would make it
    ``0.0`` and part the sequential tree from the distributed one."""
    pts = PointSet([(-0.0, 0.5), (0.25, 0.75), (0.5, 0.25), (0.75, 0.1)])
    boxes = [Box([(-0.1, 0.1), (0.0, 1.0)]), Box([(-0.1, 0.3), (0.0, 1.0)]), Box([(2.0, 3.0)] * 2)]
    for sg in (sum_of_dim(0), min_of_dim(0), product_semigroup([sum_of_dim(0), id_set()])):
        seq = SequentialRangeTree(pts, semigroup=sg).aggregate_many(boxes)
        with DistributedRangeTree.build(pts, p=2, semigroup=sg) as tree:
            dist = tree.run([aggregate(b) for b in boxes]).values()
        assert all(_same(a, b) for a, b in zip(seq, dist, strict=True)), sg.name
        assert _same(seq[-1], sg.identity)  # an empty box folds to the identity
    assert repr(SequentialRangeTree(pts, sum_of_dim(0)).aggregate(boxes[0])) == "-0.0"
    assert math.copysign(1.0, SequentialRangeTree(pts, min_of_dim(0)).aggregate(boxes[0])) < 0

