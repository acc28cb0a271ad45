"""How a query folds is said once: a mode names its semigroup and the
plan groups the batch by it.

A batch that mixes count, report, sample and aggregates over several
semigroups — typed and object, in any order — must answer what brute
force answers, plan one :class:`~repro.query.engine.Fold` per distinct
semigroup (known before any refit), and cost the comm rounds of a
count-only batch over the same boxes — the same ``5 + log2 p`` labels
whether the pass holds 0, 1 or 64 queries.  The batches are few queries
over wide boxes, so every rank holds pieces of most queries: each folds
its own (a kernel group — leaf counts, and ``min``/``max`` while the
annotation is typed — as array segments, an object group through
``combine``), sends one row per query it touched to the query's home
rank (``query:demux:fold``: ``h < m + p``), and the pairs of the reporting
queries are balanced to ``ceil(k/p)`` per rank (``query:demux:pairs``).
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm import Machine
from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree
from repro.geometry import Box, PointSet
from repro.query import (
    OutputMode,
    Query,
    QueryBatch,
    QueryEngine,
    aggregate,
    count,
    register_mode,
    registered_modes,
    report,
    sample_report,
)
from repro.query.modes import _REGISTRY, ReportMode
from repro.semigroup import (
    COUNT,
    ObjectKernel,
    id_set,
    max_of_dim,
    min_of_dim,
    moments_of_dim,
    product_semigroup,
    sum_of_dim,
    top_k_ids,
)
from repro.seq import bf_aggregate, bf_count, bf_report
from repro.workloads import make_points

DIMS = (1, 2, 3)
BASES = {
    "kernel": sum_of_dim(0),
    "object": id_set(),
    "product": product_semigroup([sum_of_dim(0), COUNT]),
}
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


def _round(rs, label: str):
    return next(s for s in rs.metrics.comm_steps() if s.label == label)


@settings(max_examples=12, deadline=None)
@given(case=mixed_batch())
def test_mixed_batch_folds_by_group(trees, case):
    d, kinds, boxes, obj, seed = case
    pts, tree = trees[d]
    tree.reannotate(tree.base_semigroup)  # shed the layers of earlier examples
    made = [_query(kind, box, obj, seed) for kind, box in zip(kinds, boxes)]
    batch = QueryBatch([q for q, _sg in made])

    # (b) the groups, from the plan alone: nothing has been refitted yet
    plan = QueryEngine(tree).plan(batch)
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

    # leaf counts always fold typed; an annotation group under its own
    # semigroup's kernel, whatever storage the annotation's product holds
    kernels = tree.engine._fold_kernels(QueryEngine(tree).plan(batch))
    for fold, kernel in zip(plan.folds, kernels):
        assert kernel == (COUNT.kernel if fold.slot is None else fold.semigroup.kernel)
        assert isinstance(kernel, ObjectKernel) == any(fold.semigroup is sg for sg in OBJECT_SGS)

    # (d) the annotation is in place now, and (c) the mix adds no round
    assert QueryEngine(tree).plan(batch).needs_refit is False
    again = tree.run(batch)
    assert again.values() == rs.values()
    counts = tree.run([count(b) for b in boxes])
    assert _round_labels(again) == _round_labels(counts)

    # (e) rounds do not read the data: m = 0, 1 and 64 record the same labels
    p, m = tree.p, 64
    big = [made[i % len(made)][0] for i in range(m)]
    full = tree.run(big)
    assert full.values() == [_expected(pts, *made[i % len(made)]) for i in range(m)]
    assert len(_round_labels(full)) == 5 + p.bit_length() - 1
    assert (
        _round_labels(tree.run([]))
        == _round_labels(tree.run(big[:1]))
        == _round_labels(full)
        == _round_labels(again)
    )

    # (f) partial values go home combined: a rank sends one row per folding
    # query it holds a piece of (sent <= m), a home rank receives at most p
    # per query it owns
    folding = ~QueryEngine(tree).plan(QueryBatch(big)).report
    out = tree.search([q.box for q in big], report=~folding)
    holders = sum(
        len(
            {
                q
                for sel in (out.hat_selections[r], out.forest_selections[r])
                for q in sel.col("qid").tolist()
                if folding[q]
            }
        )
        for r in range(p)
    )
    home = _round(full, "query:demux:fold")
    assert sum(home.sent) == holders
    assert max(home.sent) <= m and max(home.received) <= p * -(-m // p)

    # (g) pairs are only balanced: ceil(k/p) per rank (Theorem 5)
    k = sum(len(bf_report(pts, q.box)) for q in big if q.mode in ("report", "sample"))
    pairs = _round(full, "query:demux:pairs")
    assert sum(pairs.received) == k and max(pairs.received) <= -(-k // p)


@pytest.mark.parametrize("p", [2, 4, 8])
def test_float_sum_has_the_same_bits_on_every_backend(p):
    """Random doubles are not dyadic, so float ``+`` does not reassociate:
    the per-rank-then-home fold order is the same on every backend, and
    differs from brute force's left fold by at most the usual bound."""
    sg = sum_of_dim(0)
    pts = make_points("uniform", 96, 2, seed=77)
    boxes = [Box(((-0.5, 0.5 + 0.04 * i), (-0.5, 1.1 - 0.03 * i))) for i in range(12)]
    values = {}
    for backend in ("serial", "process"):
        with DistributedRangeTree.build(pts, p=p, backend=backend, semigroup=sg) as tree:
            values[backend] = tree.run([aggregate(b) for b in boxes]).values()
    assert values["serial"] == values["process"]
    for got, box in zip(values["serial"], boxes):
        want, n = bf_aggregate(pts, box, sg), bf_count(pts, box)
        assert n > 8 and abs(got - want) <= n * sys.float_info.epsilon * want


def test_report_groups_user_ids_of_any_size():
    """Ids are user-supplied int64 and span the whole range: the driver's
    packed sort key carries ``qid`` and an id's offset from the smallest,
    or its rank among the pass's ids when the offsets do not fit."""
    ids = [0] + [2**62 + i for i in range(63)]
    pts = PointSet(make_points("uniform", 64, 2, seed=3).coords, ids=ids)
    boxes = [Box(((0.0, 1.0), (0.0, 1.0))), Box(((0.1, 0.6), (0.2, 0.9))), Box(((2.0, 3.0),) * 2)]
    with DistributedRangeTree.build(pts, p=4) as tree:
        rs = tree.run([report(b) for b in boxes] + [count(boxes[1])])
    assert rs.values() == [bf_report(pts, b) for b in boxes] + [bf_count(pts, boxes[1])]
    assert rs.value(0) == sorted(ids)


class _AsReceived(OutputMode):
    """A reporting mode whose answer is the id list the engine hands it."""

    reports = True

    def __init__(self, name: str) -> None:
        self.name = name
        self.received: list = []

    def finalize(self, value, query):
        self.received.append(value)
        return value


@contextmanager
def _registered(mode):
    """``mode`` in the registry for the block; whatever held its name after."""
    prior = registered_modes().get(mode.name)
    register_mode(mode, replace=True)
    try:
        yield mode
    finally:
        if prior is None:
            _REGISTRY.pop(mode.name)
        else:
            register_mode(prior, replace=True)


def _strictly_ascending(ids) -> bool:
    return all(a < b for a, b in zip(ids, ids[1:]))


@pytest.mark.parametrize("span", ["narrow", "wide"])
def test_a_reporting_mode_receives_its_ids_ascending(span):
    """``finalize`` gets each query's ids ascending straight out of the
    driver's one key sort — packed over the id's offset when the ids are
    narrow, over its rank when they span about 2**62 — never sorted
    per query.  Ids are a shuffle, so arrival order is not id order."""
    rng = np.random.default_rng(11)
    n = 200
    low = 0 if span == "narrow" else 2**62
    ids = np.concatenate([[5], low + 7 * rng.permutation(n - 1) + 9])
    pts = PointSet(make_points("uniform", n, 2, seed=12).coords, ids=ids)
    boxes = [
        Box(((0.0, 1.0), (0.0, 1.0))),
        Box(((0.1, 0.7), (0.2, 0.9))),
        Box(((2.0, 3.0),) * 2),
        Box(((0.3, 1.0), (0.0, 0.6))),
    ]
    with _registered(_AsReceived("as-received")) as mode:
        with DistributedRangeTree.build(pts, p=4) as tree:
            rs = tree.run(
                [Query(box=b, mode="as-received") for b in boxes] + [count(boxes[1])]
            )
    assert mode.received == rs.values()[:-1] == [bf_report(pts, b) for b in boxes]
    assert all(_strictly_ascending(ids) for ids in mode.received)
    assert len(mode.received[0]) == n


def test_a_dynamic_pass_hands_report_its_ids_ascending():
    """Over buckets, the buffer and the tombstones the pass's report mode
    and the combiner's final ``finalize`` both receive ascending ids."""
    rng = np.random.default_rng(13)
    coords = make_points("uniform", 400, 2, seed=14).coords
    ids = 3 * rng.permutation(400) + 1
    boxes = [Box(((0.0, 1.0), (0.0, 1.0))), Box(((0.2, 0.8), (0.1, 0.7)))]

    class Recording(_AsReceived, ReportMode):
        pass

    with _registered(Recording("report")) as mode:
        with DynamicDistributedRangeTree.build(
            PointSet(coords[:300], ids=ids[:300]), p=4, flush_threshold=64
        ) as dyn:
            for pid, c in zip(ids[300:].tolist(), coords[300:]):
                dyn.insert(c, pid=pid)
            for pid in ids[:30].tolist():
                dyn.delete(pid)
            space = dyn.space_report()
            assert len(space["bucket_records"]) >= 2
            assert space["buffered"] and space["tombstones"] == 30
            rs = dyn.run([report(b) for b in boxes])
            live = dyn.live_points()
    assert rs.values() == [bf_report(live, b) for b in boxes]
    # one call per query from the pass, one from the combiner
    assert len(mode.received) == 2 * len(boxes)
    assert all(_strictly_ascending(ids) for ids in mode.received)
