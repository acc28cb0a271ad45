"""Construct builds topology; a declared annotation is the refit's.

A COUNT build's trace is Construct's alone.  A value-declared build is
that very trace followed by exactly the refit every re-annotation takes
— ``annotate:relabel``, the ``annotate:roots`` broadcast and
``annotate:refresh-hat`` — so ``6d + 2`` rounds, whatever ``n``; and its
stacks, hat replicas and answers are those of a COUNT build re-annotated
afterwards.  Every annotation is a product of layers, a declared
product being one layer known by its own name, so a tree declared with
one answers its first ``aggregate(box)`` batch with no refit.  A build
that raises — here in the annotating fold — leaves no rank state on a
shared machine, and a dynamic absorb that raises leaves its buckets as
they were.
"""

from __future__ import annotations

import pytest

from repro import DistributedRangeTree
from repro.cgm import Machine
from repro.dist import DynamicDistributedRangeTree, validate_tree
from repro.errors import CapacityExceeded
from repro.geometry.box import Box
from repro.query import aggregate, count
from repro.semigroup import (
    COUNT,
    ProductSemigroup,
    Semigroup,
    id_set,
    min_of_dim,
    product_semigroup,
    sum_of_dim,
)
from repro.semigroup.group import sum_group
from repro.seq import bf_aggregate
from repro.workloads import selectivity_queries, uniform_points

REFIT = ["annotate:relabel", "annotate:roots", "annotate:refresh-hat"]


def _steps(metrics):
    return [(s.label, s.kind, s.h, s.volume_bytes, s.ops) for s in metrics.steps]


def _held(tree):
    stacks = [st.aggs for store in tree.forest_store for st in store.values()]
    return stacks + [hat.aggs for hat in tree.construct_result.hats]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("sg", [sum_of_dim(0), sum_group(0), id_set()], ids=lambda sg: sg.name)
def test_a_declared_build_is_the_count_build_then_the_refit(d, sg):
    pts = uniform_points(200, d, seed=d)
    boxes = selectivity_queries(12, d, seed=20 + d)
    with DistributedRangeTree.build(pts, p=4) as plain:
        topology = _steps(plain.metrics)
        plain.reannotate(sg)
        want = plain.run([aggregate(b) for b in boxes]).values()
        want_held = _held(plain)
    assert [s[0] for s in topology if s[1] == "comm"][-1] == "construct:roots"
    with DistributedRangeTree.build(pts, p=4, semigroup=sg) as tree:
        steps = _steps(tree.metrics)
        assert steps[: len(topology)] == topology
        assert [s[0] for s in steps[len(topology) :]] == REFIT
        assert tree.metrics.rounds == 6 * d + 2
        assert isinstance(tree.semigroup, ProductSemigroup)
        assert tree.semigroup.components == (sg,)
        for got, ref in zip(_held(tree), want_held, strict=True):
            assert got.kernel == ref.kernel and got.data.dtype == ref.data.dtype
            if got.data.dtype == object:  # the values, not their addresses
                assert got.to_list() == ref.to_list()
            else:
                assert got.data.tobytes() == ref.data.tobytes()
        assert validate_tree(tree).ok
        got = tree.run([aggregate(b) for b in boxes]).values()
    assert repr(got) == repr(want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_declared_build_pays_6d_plus_2_rounds_whatever_n(d):
    for n in (64, 512):
        pts = uniform_points(n, d, seed=n)
        with DistributedRangeTree.build(pts, p=4, semigroup=sum_of_dim(0)) as tree:
            labels = [s.label for s in tree.metrics.comm_steps()]
        assert len(labels) == 6 * d + 2 and labels[-2:] == ["construct:roots", "annotate:roots"]


# ---------------------------------------------------------------------------
# a declared product is one layer: its first aggregate batch needs no refit
# ---------------------------------------------------------------------------
BOXES = selectivity_queries(16, 2, seed=7)


@pytest.mark.parametrize(
    "declared",
    [
        product_semigroup([sum_of_dim(0), min_of_dim(1)]),
        product_semigroup([COUNT, sum_of_dim(0)]),
    ],
    ids=lambda sg: sg.name,
)
def test_a_declared_product_answers_its_first_batch_unrefit(declared):
    pts = uniform_points(300, 2, seed=8)
    with DistributedRangeTree.build(pts, p=4, semigroup=declared) as tree:
        assert tree.semigroup.components == (declared,)
        width = tree.hat.aggs.data.shape[1]
        assert width == declared.kernel.width
        rs = tree.run([aggregate(b) for b in BOXES] + [count(b) for b in BOXES])
        assert not [s.label for s in rs.metrics.steps if s.label.startswith("query:refit")]
        assert tree.hat.aggs.data.shape[1] == width
        want = [bf_aggregate(pts, b, declared) for b in BOXES]
        for got, exp in zip(rs.values()[:16], want):
            assert got == pytest.approx(exp)

        # a layer is addressed by its semigroup's name: a component asked
        # for alone is a layer of its own, refit once, same answers
        sum0 = [aggregate(b, sum_of_dim(0)) for b in BOXES]
        rs = tree.run(sum0)
        refits = [s.label for s in rs.metrics.comm_steps() if s.label.startswith("query:refit")]
        assert refits == ["query:refit:roots"]
        assert [c.name for c in tree.semigroup.components] == [declared.name, "sum[x0]"]
        assert rs.values() == pytest.approx([bf_aggregate(pts, b, sum_of_dim(0)) for b in BOXES])
        assert not [s for s in tree.run(sum0).metrics.steps if "refit" in s.label]


# ---------------------------------------------------------------------------
# a build that raises leaves no rank state
# ---------------------------------------------------------------------------
def _poison_combine(a, b):
    return 1 / 0


POISON = Semigroup("poison", lambda pid, coords: 1, _poison_combine, 0)


def _keys(mach):
    return [sorted(state) for state in mach.backend.states(mach.p)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_poison_build_leaves_no_rank_state(d):
    pts = uniform_points(64, d, seed=d)
    with Machine(4) as mach:
        kept = DistributedRangeTree.build(pts, machine=mach)  # state that must stay
        before = _keys(mach)
        assert any(before)
        with pytest.raises(ZeroDivisionError):
            DistributedRangeTree.build(pts, machine=mach, semigroup=POISON)
        assert _keys(mach) == before
        with pytest.raises(ZeroDivisionError):
            DynamicDistributedRangeTree.build(pts, machine=mach, semigroup=POISON)
        assert _keys(mach) == before
        assert kept.run([count(Box.full(d, 0.0, 1.0))]).values() == [64]
        kept.close()


def test_a_construct_over_capacity_leaves_no_rank_state():
    """Construct itself may raise — here a rank holds more records than
    a CGM(s, p) machine of this capacity allows — and leaves nothing."""
    with Machine(4, capacity=400) as mach:
        kept = DistributedRangeTree.build(uniform_points(64, 2, seed=1), machine=mach)
        before = _keys(mach)
        with pytest.raises(CapacityExceeded):
            DistributedRangeTree.build(uniform_points(512, 2, seed=2), machine=mach)
        assert _keys(mach) == before
        kept.close()


class _Armed:
    """A sum whose combine raises once armed: a dynamic tree bulk-loads
    under it, then an absorb fails."""

    armed = False

    @classmethod
    def combine(cls, a, b):
        if cls.armed:
            raise ZeroDivisionError("armed")
        return a + b


def test_a_poison_absorb_leaves_the_buckets_and_the_ranks_as_they_were():
    armed = Semigroup("armed-sum", lambda pid, coords: 1, _Armed.combine, 0)
    pts = uniform_points(100, 2, seed=4)
    box = Box.full(2, 0.0, 1.0)
    with Machine(4) as mach:
        dyn = DynamicDistributedRangeTree.build(
            pts, machine=mach, semigroup=armed, flush_threshold=8
        )
        buckets, before = dict(dyn._buckets), _keys(mach)
        try:
            _Armed.armed = True
            with pytest.raises(ZeroDivisionError):
                for c in uniform_points(8, 2, seed=5).coords:
                    dyn.insert(c)
        finally:
            _Armed.armed = False
        assert dyn._buckets == buckets and _keys(mach) == before
        assert dyn.run([count(box), aggregate(box)]).values() == [108, 108]
        dyn.close()
