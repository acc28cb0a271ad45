"""A stack stores each value once.

A stack's aggregate column is one heap of ``m`` internal-node rows per
width-``m`` block of ``row_block`` (row 0 the identity), then one row
per stack row holding that row's own value, in ``pids`` order
(*Alignment* in :mod:`repro.seq.compiled`); a leaf reads its row's tail
row.  These are the layout's edge cases: a width-1 tree, whose root is a
leaf; object values, which the tail holds as lifted; a product refit
that adds one layer; and a refit that raises.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.seq.compiled as compiled
from repro import DistributedRangeTree
from repro.cli import main
from repro.dist import validate_tree
from repro.geometry.box import Box
from repro.query import aggregate
from repro.semigroup import (
    KernelColumn,
    Semigroup,
    annotation_of,
    id_set,
    product_semigroup,
    sum_of_dim,
    top_k_ids,
)
from repro.seq import bf_aggregate
from repro.seq.compiled import CompiledForest
from repro.workloads import uniform_points

from tests.helpers import forest_elements, last_dim_nodes

BOX = Box(((0.1, 0.9), (0.05, 0.7)))


def _stacks(tree):
    return [stack for store in tree.forest_store for stack in store.values()]


class TestWidthOne:
    """n = 4 points on p = 8 pad to one point a processor: every forest
    tree is one leaf wide, so its root is a leaf and its value is the
    tail row of its one row."""

    def test_roots_are_tail_rows_and_the_hat_refresh_matches(self):
        pts = uniform_points(4, 2, seed=5)
        with DistributedRangeTree.build(pts, p=8, semigroup=sum_of_dim(0)) as tree:
            assert {stack.width for stack in _stacks(tree)} == {1}
            for stack in _stacks(tree):
                heads = len(stack.row_block)
                assert len(stack.aggs) == heads + len(stack.pids)
                # tree t is stack row t alone
                assert stack.root_aggs().to_list() == stack.aggs[heads:].to_list()
            for layers in ([sum_of_dim(0)], [sum_of_dim(0), sum_of_dim(1)]):
                if len(layers) > 1:
                    tree.reannotate(product_semigroup(layers))  # refreshes every hat
                for leaf, stack, t in forest_elements(tree):
                    assert tree.hat.agg(leaf) == stack.root_aggs()[t]
                assert validate_tree(tree).ok
            got = tree.run([aggregate(BOX, sum_of_dim(1))]).values()
            assert got == [pytest.approx(bf_aggregate(pts, BOX, sum_of_dim(1)))]

    @pytest.mark.parametrize("mode", ["count", "aggregate"])
    def test_the_cli_verifies_and_validates(self, mode, capsys):
        argv = ["query", "--n", "4", "--p", "8", "--mode", mode, "--verify", "--validate"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "validation: OK" in out and "verification: OK" in out


@pytest.mark.parametrize("semigroup", [id_set(), top_k_ids(2)], ids=lambda sg: sg.name)
def test_an_object_tail_holds_the_lifted_objects(semigroup):
    """60 points pad to 64: a real row's tail is its lifted value, a
    padding sentinel's the identity."""
    pts = uniform_points(60, 2, seed=6)
    coords = dict(zip(pts.ids.tolist(), pts.coords))
    with DistributedRangeTree.build(pts, p=4, semigroup=semigroup) as tree:
        sentinels = 0
        for stack in _stacks(tree):
            tail = stack.aggs.data[len(stack.row_block) :, 0].tolist()
            pids = stack.pids.tolist()
            sentinels += sum(pid < 0 for pid in pids)
            assert tail == [
                semigroup.lift(pid, coords[pid]) if pid >= 0 else semigroup.identity
                for pid in pids
            ]
        assert sentinels and validate_tree(tree).ok


def _stack(sg, trees=4, m=8, d=3, seed=7):
    """A stack of ``trees`` random ``d``-dimensional trees on ``m``
    points, annotated with ``sg``; and its points' coordinates."""
    rng = np.random.default_rng(seed)
    ranks = np.stack([np.argsort(rng.random((m, d)), axis=0) for _ in range(trees)])
    coords = rng.random((trees * m, d))
    stack = CompiledForest.from_ranks(ranks)
    stack.annotate(KernelColumn(sg.kernel, sg.kernel.lift(coords)), sg)
    return stack, ranks, coords


def test_a_product_refit_folds_only_the_added_layer(monkeypatch):
    """The held ``sum[x0]`` layer is reused as it was, only ``sum[x1]``
    is folded, and every node and every walk selection decodes to a
    fresh build's bits."""
    sum0, both = sum_of_dim(0), product_semigroup([sum_of_dim(0), sum_of_dim(1)])
    stack, ranks, coords = _stack(annotation_of(sum0))
    held = stack.aggs.data.copy()
    folded = []
    real = compiled.batched_heap_fold

    def counted(kernel, leaves, out):
        folded.append(kernel.name)
        return real(kernel, leaves, out)

    monkeypatch.setattr(compiled, "batched_heap_fold", counted)
    values = KernelColumn(both.kernel, both.kernel.lift(coords))
    stack.annotate(values, both)
    assert folded == ["sum[x1]"]
    assert stack.aggs.layer(0).data.tobytes() == held.tobytes()

    fresh = CompiledForest.from_ranks(ranks)
    fresh.annotate(values, both)
    assert stack.aggs.data.tobytes() == fresh.aggs.data.tobytes()
    rows = np.array([row for _off, _w, row in last_dim_nodes(stack)])
    trees, m, d = stack.shape[0], stack.width, ranks.shape[-1]
    rng = np.random.default_rng(8)
    a, b = rng.integers(-1, m + 1, (2, 200, d))
    sel = CompiledForest.walk([stack], np.minimum(a, b), np.maximum(a, b), rng.integers(0, trees, 200))
    assert (sel.length == 1).any() and (sel.length > 1).any()
    for nodes in (rows, sel.node):
        assert stack.aggs.take(nodes).data.tobytes() == fresh.aggs.take(nodes).data.tobytes()
        assert stack.aggs.take(nodes).to_list() == fresh.aggs.take(nodes).to_list()


def _divide_by_zero(a, b):
    return a / 0


def test_a_refit_that_raises_leaves_aggs_as_it_was():
    sum0 = sum_of_dim(0)
    stack, _ranks, coords = _stack(annotation_of(sum0))
    before, held = stack.aggs, stack.aggs.data.copy()
    poison = product_semigroup([sum0, Semigroup("poison", lambda pid, c: 1.0, _divide_by_zero, 0.0)])
    with pytest.raises(ZeroDivisionError):
        stack.annotate([(float(x), 1.0) for x in coords[:, 0]], poison)
    assert stack.aggs is before and stack.aggs.data.tobytes() == held.tobytes()
