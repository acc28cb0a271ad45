"""Cheap supersteps: an idle rank and an empty round cost (almost) nothing,
and nothing the theorems observe moved to get there.

A one-query pass runs the same phases, the same comm rounds under the
same labels, and charges the same ops and h-relations as a full batch's
pass; what it no longer does is dispatch pack/unpack on a pass that
moves no store, size one broadcast list ``p`` times, or run numpy over
zero rows.  The replication table below was taken at the
commit before that change and must keep holding; ``PARENT_PASS`` was
re-measured when the demux stopped sorting (a pass is ``5 + log2 p``
rounds: the sort's four rounds, its boundary round and its ``n log n``
charges left, ``query:demux:fold`` / ``pairs-count`` / ``pairs`` came).
"""

from __future__ import annotations

import hashlib
import pickle
import random

import numpy as np
import pytest

import repro.cgm.machine as machine_mod
from repro.cgm import Machine
from repro.cgm.collectives import allgather
from repro.cgm.columns import RecordBatch
from repro.cgm.metrics import Metrics
from repro.cgm.phases import ProcContext, get_phase
from repro.cgm.sort import sample_sort_cols
from repro.dist import DistributedRangeTree
from repro.dist.hat import walk_hats
from repro.errors import InjectedFault
from repro.faults import FaultPlan, FaultRule, injected
from repro.geometry.box import Box, RankBox
from repro.query import aggregate, count, report
from repro.semigroup import sum_of_dim
from repro.semigroup.kernels import KernelColumn, ObjectKernel
from repro.seq import bf_count, bf_report
from repro.workloads import make_points

from tests.helpers import (
    forest_elements,
    rank_bounds,
    reference_tree,
    search_summary,
    unkernelized,
)

BOX = Box(((0.2, 0.7), (0.1, 0.6)))
HOT = Box(((0.0, 0.25), (0.0, 1.0)))
MODES = {"count": count, "report": report, "aggregate": aggregate}

TAIL = [
    "search:route-subqueries",
    "query:demux:fold",
    "query:demux:pairs-count",
    "query:demux:pairs",
]


def expected_labels(p: int, strategy: str) -> list:
    if strategy == "direct":
        replicate = ["search:replicate:direct"]
    else:
        replicate = [
            f"search:replicate:double-{i}" for i in range(p.bit_length() - 1)
        ]
    return ["search:demands"] + replicate + TAIL


#: (mode, p) -> (rounds, total charged ops, records routed, max h,
#: sha1[:12] of repr([(label, sent, received) per comm round])) of the pass
#: answering ``BOX`` alone over make_points("uniform", 256, 2, seed=5) —
#: re-measured at the PR that replaced the demux sort (the Search rounds'
#: rows are b659289's, from before idle ranks and empty rounds got cheap).
PARENT_PASS = {
    ("count", 2): (6, 72, 12, 2, "9e78840632b5"),
    ("report", 2): (6, 72, 82, 41, "d72bd55fdd2b"),
    ("aggregate", 2): (6, 72, 12, 2, "9e78840632b5"),
    ("count", 4): (7, 74, 38, 4, "a09f6a49aca3"),
    ("report", 4): (7, 74, 107, 33, "fc8f4160ab81"),
    ("aggregate", 4): (7, 74, 38, 4, "a09f6a49aca3"),
    ("count", 8): (8, 77, 138, 8, "6402bd0d8f86"),
    ("report", 8): (8, 77, 205, 25, "220d5d57fb91"),
    ("aggregate", 8): (8, 77, 138, 8, "6402bd0d8f86"),
}


def _comm(metrics: Metrics) -> list:
    return [(s.label, s.sent, s.received) for s in metrics.comm_steps()]


def _dispatches(metrics: Metrics) -> list:
    return [s.label for s in metrics.compute_steps()]


# ---------------------------------------------------------------------------
# (a) the pass shape of one query is the parent's
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("p", [2, 4, 8])
def test_one_query_pass_shape_is_the_parents(p):
    pts = make_points("uniform", 256, 2, seed=5)
    with DistributedRangeTree.build(pts, p=p) as tree:
        for mode, make in MODES.items():
            m = tree.run([make(BOX)]).metrics
            comm = _comm(m)
            assert [c[0] for c in comm] == expected_labels(p, "doubling")
            digest = hashlib.sha1(repr(comm).encode()).hexdigest()[:12]
            got = (m.rounds, m.total_work, m.total_volume, m.max_h, digest)
            assert got == PARENT_PASS[(mode, p)], mode
            # nothing to replicate: no pack/unpack dispatch; the demux
            # sorts nothing, so the two Search phases are all of them
            assert _dispatches(m) == ["search:walk", "search:forest"]
            # Search alone (the only entry that takes a strategy; the
            # engine's pass runs ``doubling``): the pass's own rounds, and
            # under ``direct`` one empty replicate round for log2 p
            searched = comm[: len(comm) - 3]
            direct = [searched[0], ("search:replicate:direct", (0,) * p, (0,) * p), searched[-1]]
            for strategy, want in (("doubling", searched), ("direct", direct)):
                s = search_summary(tree, [BOX], strategy, report=mode == "report")[0]
                assert (_comm(s), s.total_work) == (want, m.total_work), (mode, strategy)
                assert _dispatches(s) == ["search:walk", "search:forest"]


def test_one_query_and_full_batch_share_the_round_sequence():
    pts = make_points("uniform", 256, 2, seed=5)
    boxes = [Box(((0.01 * i, 0.3 + 0.01 * i), (0.2, 0.9))) for i in range(48)]
    with DistributedRangeTree.build(pts, p=8) as tree:
        one = tree.run([count(BOX)]).metrics
        full = tree.run([count(b) for b in boxes]).metrics
    assert [c[0] for c in _comm(one)] == [c[0] for c in _comm(full)]


@pytest.mark.parametrize("strategy", ["doubling", "direct"])
def test_an_empty_batch_records_every_round_with_nothing_sent(strategy):
    # m = 0: nothing to fold or balance, yet the three demux rounds are
    # recorded like any other round — no round count reads the data
    pts = make_points("uniform", 256, 2, seed=5)
    with DistributedRangeTree.build(pts, p=8) as tree:
        rs = tree.run([])
        searched = search_summary(tree, [], strategy)[0]
        nothing_matches = tree.run([count(Box(((2.0, 3.0), (2.0, 3.0))))])
    assert rs.values() == [] and nothing_matches.values() == [0]
    assert [c[0] for c in _comm(rs.metrics)] == expected_labels(8, "doubling")
    assert [c[0] for c in _comm(searched)] == expected_labels(8, strategy)[:-3]
    demux = [c for c in _comm(rs.metrics) if c[0] in ("query:demux:fold", "query:demux:pairs")]
    assert demux == [
        ("query:demux:fold", (0,) * 8, (0,) * 8),
        ("query:demux:pairs", (0,) * 8, (0,) * 8),
    ]
    assert [c[0] for c in _comm(nothing_matches.metrics)] == expected_labels(8, "doubling")


# ---------------------------------------------------------------------------
# (b) a batch that does replicate still ships the stores
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("strategy", ["doubling", "direct"])
def test_hot_spot_still_dispatches_pack_and_unpack(strategy):
    pts = make_points("uniform", 256, 2, seed=42)
    for p in (4, 8):
        with DistributedRangeTree.build(pts, p=p) as tree:
            m, counts, _sels = search_summary(tree, [HOT] * 40, strategy)
        assert counts == [bf_count(pts, HOT)] * 40
        moving = [
            s for s in m.comm_steps() if s.label.startswith("search:replicate") and s.volume
        ]
        assert moving and all(s.volume_bytes for s in moving)
        assert len(moving) == (3 if (p, strategy) == (8, "doubling") else 1)
        # each owner packs its group once and each holder files its copies
        # once, however many rounds move them ...
        assert [l for l in _dispatches(m) if "replicate" in l] == [
            "search:replicate:pack",
            "search:replicate:unpack",
        ]
        # ... while every scheduled round is recorded either way
        assert [c[0] for c in _comm(m)] == expected_labels(p, strategy)[:-3]


#: (p, strategy) -> [(label, sent, received, volume_bytes)] of the
#: ``search:replicate:*`` rounds answering ``[count(HOT)] * 40`` over
#: make_points("uniform", 256, 2, seed=42).  The record counts were measured
#: at 37ac758, where each came from walking every nested tree of every
#: shipped element; the bytes are the shipped stacks' arrays (key blocks,
#: row_block, pids, aggregates), summed ``nbytes`` — re-pinned down when a
#: group became one stack per dimension, by exactly the rank rows and
#: values the elements had also held: 24 bytes a row at d=2 (4608 a copy
#: of a 192-row group at p=4, 3072 of a 128-row one at p=8).  Then
#: re-pinned when a stack's aggregates became one heap of 2m rows per
#: width-m block of row_block: 2·R(m, r) int64 count rows a tree instead
#: of T(m, r).  A copy is one 2-d tree (2·R(m, 2) = T(m, 2) = 2m·(log m
#: + 1), unchanged) and c 1-d trees (2·R(m, 1) = 2m = T(m, 1) + 1, one
#: row more each): +8·c bytes a copy.  At p=4 (m=64, c=2) a copy is
#: 20464 + 16 = 20480 bytes, two a round; at p=8 (m=32, c=3) it is
#: 10472 + 24 = 10496 bytes, one, two, four or seven a round.  These are
#: the bytes of a tree annotated with one 8-byte layer (``sum[x0]``).  A
#: COUNT-built tree stores no aggregate column (a count is a node's
#: width), so its copy ships 8 bytes less per heap row: 1152 rows, 11264
#: bytes at p=4; 576 rows, 5888 bytes at p=8 (:data:`COUNT_COPY_BYTES`).
#: Then re-pinned when a stack's key blocks and row_block became int32
#: (every key and row of these stacks lies below 2^31): 4 bytes less per
#: key slot and row_block slot, pids and aggregates unchanged.  At p=4 a
#: copy holds 64 + 448 + 128 key slots and 448 + 128 row_block slots,
#: 1216 slots: 20480 − 4864 = 15616 bytes (COUNT: 11264 − 4864 = 6400);
#: at p=8 224 + 96 key slots and 192 + 96 row_block slots, 608 slots:
#: 10496 − 2432 = 8064 bytes (COUNT: 5888 − 2432 = 3456).  Then
#: re-pinned when a stack's aggregate heaps dropped their leaf level and
#: a leaf became its row's own value, held once: R(m, r) + m rows a tree
#: instead of 2·R(m, r).  The 2-d tree holds R(m, 2) + m rows, the 1-d
#: trees 2m each as before.  At p=4 a copy holds 448 + 64 + 2 · 128 = 768
#: rows: 6400 + 768 · 8 = 12544 bytes; at p=8 192 + 32 + 3 · 64 = 416
#: rows: 3456 + 416 · 8 = 6784 bytes.  COUNT copies hold no aggregate
#: bytes and keep theirs.
PARENT_REPLICATION = {
    (4, "doubling"): [
        ("search:replicate:double-0", (640, 640, 0, 0), (0, 640, 640, 0), 2 * 12544),
        ("search:replicate:double-1", (0, 0, 0, 0), (0, 0, 0, 0), 0),
    ],
    (4, "direct"): [
        ("search:replicate:direct", (640, 640, 0, 0), (0, 640, 640, 0), 2 * 12544),
    ],
    (8, "doubling"): [
        ("search:replicate:double-0", (0, 0, 320, 0, 0, 0, 0, 0), (320, 0, 0, 0, 0, 0, 0, 0), 6784),
        ("search:replicate:double-1", (320, 0, 320, 0, 0, 0, 0, 0), (0, 320, 0, 320, 0, 0, 0, 0), 2 * 6784),
        ("search:replicate:double-2", (320, 320, 320, 320, 0, 0, 0, 0), (0, 0, 0, 0, 320, 320, 320, 320), 4 * 6784),
    ],
    (8, "direct"): [
        ("search:replicate:direct", (0, 0, 2240, 0, 0, 0, 0, 0), (320, 320, 0, 320, 320, 320, 320, 320), 7 * 6784),
    ],
}


#: p -> (bytes of a copy annotated with one 8-byte layer, of a COUNT-built copy)
COUNT_COPY_BYTES = {4: (12544, 6400), 8: (6784, 3456)}


def _without_aggregates(rounds, p):
    """``rounds`` with each round's copies at their COUNT-built size."""
    layered, bare = COUNT_COPY_BYTES[p]
    return [(label, sent, received, b // layered * bare) for label, sent, received, b in rounds]


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("p, strategy", sorted(PARENT_REPLICATION))
def test_replication_rounds_charge_the_parents_numbers(backend, p, strategy):
    pts = make_points("uniform", 256, 2, seed=42)

    def replication_rounds(tree):
        m, counts, _sels = search_summary(tree, [HOT] * 40, strategy)
        assert counts == [bf_count(pts, HOT)] * 40
        return [
            (s.label, s.sent, s.received, s.volume_bytes)
            for s in m.comm_steps()
            if s.label.startswith("search:replicate")
        ]

    with DistributedRangeTree.build(pts, p=p, backend=backend) as tree:
        want = PARENT_REPLICATION[(p, strategy)]
        assert replication_rounds(tree) == _without_aggregates(want, p)
        # the count is structure: a refit neither recounts nor loses it,
        # and its copies ship the one layer it adds
        tree.reannotate(sum_of_dim(0))
        assert replication_rounds(tree) == want


#: A Search pass over make_points("uniform", 256, 2, seed=42) at p=4 for
#: six HOT, three BOX and three full-range boxes of which every query but
#: each third reports — measured at 8c0069c, where that fact went into
#: ``run_search`` as the same qid set under three flags: the charged ops
#: of every dispatch, and every round's h-relation.  The step-3 pack and
#: unpack were re-labelled when each became one dispatch a pass.
PARENT_MASKED_OPS = [
    ("search:walk", (15, 15, 21, 6)),
    ("search:replicate:pack", (0, 0, 0, 0)),
    ("search:replicate:unpack", (0, 0, 0, 0)),
    ("search:forest", (134, 159, 307, 128)),
]
PARENT_MASKED_ROUNDS = [
    ("search:demands", (4, 4, 4, 4), (4, 4, 4, 4)),
    ("search:replicate:double-0", (640, 640, 0, 0), (0, 640, 640, 0)),
    ("search:replicate:double-1", (0, 0, 0, 0), (0, 0, 0, 0)),
    ("search:route-subqueries", (6, 6, 6, 8), (5, 10, 9, 2)),
]


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_a_masked_pass_charges_the_parents_numbers(backend):
    pts = make_points("uniform", 256, 2, seed=42)
    boxes = [HOT] * 6 + [BOX] * 3 + [Box.full(2, -1.0, 2.0)] * 3
    mask = np.arange(len(boxes)) % 3 != 0
    with DistributedRangeTree.build(pts, p=4, backend=backend) as tree:
        out = tree.search(boxes, report=mask)
        m = tree.metrics
    assert [(s.label, tuple(s.ops)) for s in m.compute_steps()] == PARENT_MASKED_OPS
    assert _comm(m) == PARENT_MASKED_ROUNDS
    # replication, hat selections and expansion requests all occurred
    assert out.copy_counts == [2, 2, 1, 1]
    assert sum(len(b) for b in out.hat_selections) == 3
    reported = [[] for _ in boxes]
    for batch in out.report_pairs:
        for qid, pid in batch:
            reported[qid].append(pid)
    assert [sorted(ids) for ids in reported] == [
        bf_report(pts, box) if on else [] for box, on in zip(boxes, mask)
    ]


def test_the_stored_record_count_is_the_tree_walk_and_survives_a_pickle():
    pts = make_points("uniform", 64, 3, seed=3)
    with DistributedRangeTree.build(pts, p=4) as tree:
        leaves: dict = {}
        for leaf, stack, _t in forest_elements(tree):
            trees = reference_tree(tree, leaf).iter_dim_trees()
            leaves[id(stack)] = leaves.get(id(stack), 0) + sum(t.seg.m for t in trees)
        for store in tree.forest_store:
            for stack in store.values():
                assert stack.size_records == leaves[id(stack)]
                assert pickle.loads(pickle.dumps(stack)).size_records == stack.size_records


def test_the_bytes_charged_for_an_element_are_what_its_pickle_ships():
    """A copy ships its stacks: the bytes charged for one are its arrays."""
    pts = make_points("uniform", 64, 3, seed=3)
    with DistributedRangeTree.build(pts, p=4) as tree:
        for store in tree.forest_store:
            for stack in store.values():
                arrays = (*stack.keys, stack.row_block, stack.pids, stack.aggs.data)
                assert stack.nbytes == sum(a.nbytes for a in arrays)
                # the pickle adds only its envelope (class paths, shapes, ids)
                assert 0 < len(pickle.dumps(stack)) - stack.nbytes < 2048


def test_weighted_exchange_evaluates_each_callback_once_per_record():
    calls = {"weight": 0, "nbytes": 0}

    def weight(rec):
        calls["weight"] += 1
        return rec

    def nbytes(rec):
        calls["nbytes"] += 1
        return 10 * rec

    with Machine(2) as mach:
        inboxes = mach.exchange_weighted("x", [[[3], [5, 7]], [[], [11]]], weight, nbytes)
        step = mach.metrics.steps[-1]
    assert inboxes == [[3], [5, 7, 11]]
    assert calls == {"weight": 4, "nbytes": 4}
    assert (step.sent, step.received, step.sent_bytes) == ((15, 11), (3, 23), (150, 110))


# ---------------------------------------------------------------------------
# (c) zero-row outputs have the general path's schema
# ---------------------------------------------------------------------------
def _schema(batch: RecordBatch) -> list:
    out = []
    for name, col in batch.cols.items():
        if isinstance(col, KernelColumn):
            out.append((name, "kernel", col.kernel.name, col.data.shape[1:]))
        else:
            out.append((name, "array", col.dtype, col.shape[1:]))
    return [(batch.schema, len(batch))] + out


@pytest.mark.parametrize("kernelised", [True, False])
def test_zero_row_walk_and_forest_match_the_general_path(kernelised):
    sg = sum_of_dim(0) if kernelised else unkernelized(sum_of_dim(0))
    pts = make_points("uniform", 64, 2, seed=11)
    nothing = RankBox((5, 5), (4, 9))  # empty in dimension 0: selects nothing
    with DistributedRangeTree.build(pts, p=4, semigroup=sg) as tree:
        hat = tree.hat
        idle = hat.idle  # what step 1 returns at a rank with no queries
        general = walk_hats([hat], 3, [rank_bounds([nothing])], np.ones(1, dtype=bool))
        assert idle[0].col("agg").kernel.layers == (sg.kernel,)
        assert isinstance(sg.kernel, ObjectKernel) != kernelised
        for idle_batch, general_batch in zip(idle[:3], general[:3]):
            assert _schema(idle_batch) == _schema(general_batch)
        assert idle[3].dtype == general[3].dtype and len(idle[3]) == 0

        # step 5: an empty inbox vs an inbox whose one subquery selects nothing
        ns = tree.construct_result.ns
        mach = tree.machine
        _sels, routing, _expansions, _visits = walk_hats(
            [hat], 0, [tree.ranked.to_rank_bounds(*Box.stack([BOX]))], np.zeros(1, dtype=bool)
        )
        assert len(routing)
        one = routing.take(np.array([0]))
        owner = int(one.col("location")[0])
        missing = one.with_col("los", np.asarray(one.col("his")) + 1)
        forest_cols = get_phase("dist.search.forest_cols")

        def step5(inbox):
            ctx = ProcContext(
                rank=owner, p=mach.p, state=mach.backend.states(mach.p)[owner]
            )
            return forest_cols([ctx], [(inbox, (ns,), np.zeros(1, dtype=bool))])[0], ctx.ops

        (idle_sel, idle_pairs), idle_ops = step5(routing.take(np.array([], int)))
        (gen_sel, gen_pairs), gen_ops = step5(missing)
        assert _schema(idle_sel) == _schema(gen_sel)
        assert _schema(idle_pairs) == _schema(gen_pairs)
        assert (idle_ops, gen_ops) == (0, 1)  # max(1, visits) per subquery


def test_zero_row_sort_phases():
    with Machine(4) as mach:
        state = mach.backend.states(4)[2]
        ctx = ProcContext(rank=2, p=4, state=state)
        empty = RecordBatch(
            "query.piece",
            {
                "qid": np.empty(0, np.int64),
                "pid": np.empty(0, np.int64),
                "val": np.empty(0, object),
            },
        )
        assert len(get_phase("cgm.sort.local_cols")(ctx, (empty, "qid", "t"))) == 0
        splitter = np.array([[5, 0, 0]], dtype=np.int64)  # (key, rank, index)
        assert get_phase("cgm.sort.partition_cols")(ctx, (splitter, "qid", "t")) == [None] * 4
        assert "t" not in state
        merged = get_phase("cgm.sort.merge_cols")(ctx, (empty, "qid"))
        assert _schema(merged) == _schema(empty)
        assert ctx.ops == 1 + 0 + 1  # what sorting nothing has always charged

        # the whole sort over nothing: schema-shaped output from the same
        # four rounds as any sort (the round count does not read the data)
        out = sample_sort_cols(mach, [empty] * 4, "qid", label="s")
        assert [_schema(b) for b in out] == [_schema(empty)] * 4
        assert [s.label for s in mach.metrics.comm_steps()] == [
            "s:samples",
            "s:route",
            "s:balance-count",
            "s:balance",
        ]


def test_zero_row_batch_primitives():
    paths = np.array([[1, 2], [3, -1]])
    full = RecordBatch("query.piece", {"qid": np.arange(3), "path": paths[[0, 1, 0]]})
    empty = RecordBatch.empty_like(full)
    assert _schema(empty)[1:] == [
        ("qid", "array", np.dtype(np.int64), ()),
        ("path", "array", np.dtype(np.int64), (2,)),
    ]
    assert RecordBatch.concat([empty, full, empty]) is full
    assert RecordBatch.concat([empty, empty]) is empty
    both = RecordBatch.concat([full, empty, full])
    assert len(both) == 6 and both.col("path").tolist() == [[1, 2], [3, -1], [1, 2]] * 2


# ---------------------------------------------------------------------------
# (e) record-list rounds: deterministic bytes, sized once, no generator objects
# ---------------------------------------------------------------------------
def test_record_list_round_bytes_are_deterministic_and_sized_once(monkeypatch):
    made = []

    class CountingRandom(random.Random):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    pts = make_points("uniform", 512, 2, seed=13)
    boxes = [Box(((0.01 * i, 0.4 + 0.01 * i), (0.1, 0.8))) for i in range(40)]
    batch = [(count, report, aggregate)[i % 3](b) for i, b in enumerate(boxes)]
    by_round = []
    for _ in range(2):
        with DistributedRangeTree.build(pts, p=8) as tree:
            monkeypatch.setattr(random, "Random", CountingRandom)
            steps = tree.run(batch).metrics.comm_steps()
            by_round.append([(s.label, s.h, s.volume, s.volume_bytes) for s in steps])
            monkeypatch.undo()
    assert by_round[0] == by_round[1]
    assert all(nbytes > 0 for _l, _h, records, nbytes in by_round[0] if records)
    assert made == []

    # a broadcast list is sized once per source, not once per destination
    sized = []
    real = machine_mod.estimate_box_nbytes
    monkeypatch.setattr(
        machine_mod, "estimate_box_nbytes", lambda box: sized.append(box) or real(box)
    )
    with Machine(8) as mach:
        allgather(mach, [(r, r) for r in range(8)], label="g")
        step = mach.metrics.steps[-1]
    assert len(sized) == 8
    assert step.sent == (8,) * 8 and step.received == (8,) * 8
    assert step.sent_bytes == (8 * real([(0, 0)]),) * 8


def test_batch_broadcast_bytes_are_sized_once_and_unchanged(monkeypatch):
    """A broadcast of batches sizes each distinct batch once, keeps its
    per-destination bytes, and concatenates one inbox for every rank."""
    batches = [
        RecordBatch("t", {"v": np.arange(r + 1, dtype=np.int64), "w": np.ones((r + 1, 2))})
        for r in range(8)
    ]
    want = [8 * b.nbytes for b in batches]
    sized, real = [], RecordBatch.nbytes
    monkeypatch.setattr(RecordBatch, "nbytes", property(lambda b: sized.append(b) or real.fget(b)))
    with Machine(8) as mach:
        inboxes = mach.exchange_batches("g", [[b] * 8 for b in batches], batches[0])
        step = mach.metrics.steps[-1]
    assert len(sized) == 8 and {id(b) for b in sized} == {id(b) for b in batches}
    assert step.sent_bytes == tuple(want)
    assert step.sent == tuple(8 * len(b) for b in batches) and step.received == (36,) * 8
    assert all(inbox is inboxes[0] for inbox in inboxes)
    assert inboxes[0].col("v").tolist() == [v for b in batches for v in b.col("v").tolist()]


# ---------------------------------------------------------------------------
# satellite: per-pass metrics cost nothing of the uptime
# ---------------------------------------------------------------------------
def test_pass_metrics_do_not_depend_on_or_copy_history():
    pts = make_points("uniform", 128, 2, seed=17)

    def pass_trace(preceding: int):
        with DistributedRangeTree.build(pts, p=4) as tree:
            for _ in range(preceding):
                tree.run([count(BOX), report(BOX)])
            rs = tree.run([count(BOX), report(BOX)])
            # the pass's trace is its own; the machine keeps no log of it
            assert tree.metrics is rs.metrics
            assert tree.machine.metrics.steps == []
            return [
                (s.kind, s.label, s.ops, s.sent, s.received, s.sent_bytes)
                for s in rs.metrics.steps
            ], rs.metrics.summary()["rounds"]

    assert pass_trace(0) == pass_trace(50)


# ---------------------------------------------------------------------------
# satellite: the replicate_pack fault site fires when (and only when) it runs
# ---------------------------------------------------------------------------
def test_replicate_pack_fault_fires_only_on_a_pass_that_replicates():
    plan = FaultPlan(
        rules=(FaultRule("dist.search.replicate_pack", "raise", count=0),),
        name="poison-every-pack",
    )
    pts = make_points("uniform", 64, 2, seed=42)
    with DistributedRangeTree.build(pts, p=4) as tree:
        with injected(plan, env=False):
            # nothing to replicate: the site is never dispatched, so never fires
            assert tree.run([count(BOX)]).values() == [bf_count(pts, BOX)]
            with pytest.raises(InjectedFault) as exc:
                tree.run([count(HOT)] * 20)
        assert exc.value.site == "dist.search.replicate_pack"
        assert tree.run([count(HOT)] * 20).values() == [bf_count(pts, HOT)] * 20
