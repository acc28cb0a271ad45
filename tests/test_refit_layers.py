"""A refit folds only the annotation layers it adds, and a failed refit or
``reannotate`` leaves the tree as it was.

Every layer of an annotation (a component of its product) is folded once, under its own kernel; the layers a stack already
holds are taken from its ``aggs``.  Whatever a refit reuses, every rank's
stacks and hat replica must equal a from-scratch build under the same
annotation, and answers must not change.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.seq.compiled as compiled
from repro import DistributedRangeTree
from repro.dist import DynamicDistributedRangeTree, validate_tree
from repro.geometry.box import Box
from repro.query import aggregate, count, report, top_k
from repro.query.engine import MAX_ANNOTATION_LAYERS
from repro.semigroup import COUNT, Semigroup, sum_of_dim
from repro.workloads import uniform_points

PTS = uniform_points(256, 2, seed=3)
BOX = Box(((0.1, 0.8), (0.2, 0.9)))


def _lift_pid(pid, coords):
    return pid


def _add_unless_seven(a, b):
    if 7 in (a, b):
        raise ZeroDivisionError("poisoned at point 7")
    return a + b


#: Picklable, so it reaches the process backend's workers; only the ranks
#: holding point 7 fail, so some ranks swap before the refit raises.
POISON_AT_SEVEN = Semigroup("poison-at-7", _lift_pid, _add_unless_seven, 0)


def _answers(tree):
    return tree.run([count(BOX), report(BOX), aggregate(BOX, sum_of_dim(0))]).values()


def _held(tree):
    """Every rank's stacks' and hat replica's aggregate column."""
    stacks = {
        (r, j): stack.aggs for r in range(tree.p) for j, stack in tree.forest_store[r].items()
    }
    return stacks, [hat.aggs for hat in tree.construct_result.hats]


def _same_column(got, want) -> bool:
    return (
        got.kernel == want.kernel
        and got.data.dtype == want.data.dtype
        and np.array_equal(got.data, want.data)
    )


def _assert_matches_a_fresh_fold(tree, backend, queries):
    """``tree`` equals a build declared with its annotation (held as that
    build's one layer): every stack and hat replica, and the answers to
    ``queries`` (which its layers cover)."""
    assert validate_tree(tree).ok
    with DistributedRangeTree.build(
        PTS, p=tree.p, backend=backend, semigroup=tree.semigroup
    ) as fresh:
        stacks, hats = _held(tree)
        want_stacks, want_hats = _held(fresh)
        want = fresh.run(queries).values()
    assert stacks.keys() == want_stacks.keys()
    assert all(_same_column(stacks[k], want_stacks[k].layer(0)) for k in stacks)
    assert all(_same_column(got, want.layer(0)) for got, want in zip(hats, want_hats))
    assert tree.run(queries).values() == want


@pytest.fixture
def folded(monkeypatch):
    """The kernel name of every heap fold a forest stack runs."""
    calls = []
    real = compiled.batched_heap_fold

    def counted(kernel, leaves, out):
        calls.append(kernel.name)
        return real(kernel, leaves, out)

    monkeypatch.setattr(compiled, "batched_heap_fold", counted)
    return calls


def _layer_names(tree):
    return [c.name for c in tree.semigroup.components]


#: build count (no layer) -> add sum[x0] -> add sum[x1] -> add object
#: layers until the engine evicts past MAX_ANNOTATION_LAYERS
STEPS = [aggregate(BOX, sum_of_dim(0)), aggregate(BOX, sum_of_dim(1))] + [
    top_k(BOX, k) for k in range(1, MAX_ANNOTATION_LAYERS + 1)
]


class TestLayeredRefit:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_every_refit_equals_a_fresh_fold(self, backend):
        with DistributedRangeTree.build(PTS, p=4, backend=backend) as tree:
            evicted = False
            for query in STEPS:
                before = _layer_names(tree)
                tree.run([query])
                after = _layer_names(tree)
                assert after != before  # each step refits
                evicted |= not set(before) <= set(after)
                _assert_matches_a_fresh_fold(tree, backend, [count(BOX), report(BOX), query])
            assert evicted and len(after) == MAX_ANNOTATION_LAYERS

    def test_adding_a_layer_folds_only_that_layer(self, folded):
        """One heap fold per stack per layer folded: a build folds its
        one value layer once a stack and a COUNT build none, a refit that
        adds one layer folds it once a stack, and one that adds nothing —
        counts, however asked for, add nothing — folds nothing."""
        with DistributedRangeTree.build(PTS, p=4, semigroup=sum_of_dim(0)) as tree:
            stacks = sum(len(store) for store in tree.forest_store)
            assert stacks and folded == ["sum[x0]"] * stacks
        folded.clear()
        with DistributedRangeTree.build(PTS, p=4) as tree:
            assert folded == []
            for query in STEPS:
                before = _layer_names(tree)
                folded.clear()
                tree.run([query])
                added = [c.kernel.name for c in tree.semigroup.components if c.name not in before]
                assert len(added) == 1 and folded == added * stacks
                folded.clear()
                tree.run([count(BOX), aggregate(BOX), aggregate(BOX, COUNT), query])
                assert folded == []

    def test_a_failed_lazy_refit_folds_nothing_to_roll_back(self, folded):
        with DistributedRangeTree.build(PTS, p=4) as tree:
            tree.run([aggregate(BOX, sum_of_dim(0))])
            prior, answers = tree.semigroup, _answers(tree)
            folded.clear()
            with pytest.raises(ZeroDivisionError):
                tree.run([aggregate(BOX, POISON_AT_SEVEN)])
            assert set(folded) == {"object[poison-at-7]"}  # the rollback folds none
            assert tree.semigroup is prior
            assert validate_tree(tree).ok
            assert _answers(tree) == answers


class TestFailedRefitRestores:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize(
        "poison",
        [POISON_AT_SEVEN, Semigroup("poison", lambda i, c: 1, lambda a, b: 1 / 0, 0)],
        ids=["some-ranks", "unpicklable"],
    )
    def test_reannotate_failure_restores_the_tree(self, backend, poison):
        with DistributedRangeTree.build(
            PTS, p=4, backend=backend, semigroup=sum_of_dim(0)
        ) as tree:
            tree.run([aggregate(BOX, sum_of_dim(1))])  # a lazily widened annotation
            prior, answers, held = tree.semigroup, _answers(tree), _held(tree)
            with pytest.raises(Exception):
                tree.reannotate(poison)
            assert tree.semigroup is prior and tree.base_semigroup.name == "sum[x0]"
            assert validate_tree(tree).ok
            stacks, hats = _held(tree)
            assert all(_same_column(stacks[k], held[0][k]) for k in held[0])
            assert all(_same_column(got, want) for got, want in zip(hats, held[1]))
            assert _answers(tree) == answers

    def test_dynamic_reannotate_failure_restores_every_bucket(self):
        def lift(pid, coords):
            if pid == 5:  # in the largest bucket, swapped last
                raise ValueError("unliftable point")
            return 1

        poison = Semigroup("unliftable-5", lift, lambda a, b: a + b, 0)
        with DynamicDistributedRangeTree.build(PTS, p=4, flush_threshold=16) as dt:
            for i in range(16):
                dt.insert((0.5 + i / 64, 0.25), pid=1000 + i)
            assert len(dt.bucket_sizes) == 2
            batch = [count(BOX), report(BOX), aggregate(BOX, sum_of_dim(0))]
            answers = dt.run(batch).values()  # every bucket widened to (sum[x0])
            trees = [b.tree for b in dt._buckets.values()]
            prior = [(t.semigroup, t.base_semigroup) for t in trees]
            with pytest.raises(ValueError, match="unliftable"):
                dt.reannotate(poison)
            assert dt.semigroup is COUNT
            assert [(t.semigroup, t.base_semigroup) for t in trees] == prior
            assert all(validate_tree(t).ok for t in trees)
            assert dt.run(batch).values() == answers
