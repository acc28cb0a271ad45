"""Cheap supersteps: an idle rank and an empty round cost (almost) nothing,
and nothing the theorems observe moved to get there.

A one-query pass runs the same phases, the same comm rounds under the
same labels, and charges the same ops and h-relations as a full batch's
pass; what it no longer does is dispatch pack/unpack for replication
rounds that move no store, size one broadcast list ``p`` times, or run
numpy over zero rows.  The replication table below was taken at the
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
from repro.errors import InjectedFault
from repro.faults import FaultPlan, FaultRule, injected
from repro.geometry.box import Box, RankBox, rank_bounds
from repro.query import aggregate, count, report
from repro.semigroup import sum_of_dim
from repro.semigroup.kernels import KernelColumn
from repro.seq import bf_count, bf_report
from repro.workloads import make_points

from tests.helpers import reference_tree, unkernelized

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


#: (mode, strategy, p) -> (rounds, total charged ops, records routed, max h,
#: sha1[:12] of repr([(label, sent, received) per comm round])) of the pass
#: answering ``BOX`` alone over make_points("uniform", 256, 2, seed=5) —
#: re-measured at the PR that replaced the demux sort (the Search rounds'
#: rows are b659289's, from before idle ranks and empty rounds got cheap).
PARENT_PASS = {
    ("count", "doubling", 2): (6, 72, 12, 2, "9e78840632b5"),
    ("count", "direct", 2): (6, 72, 12, 2, "ab099c65c687"),
    ("report", "doubling", 2): (6, 72, 82, 41, "d72bd55fdd2b"),
    ("report", "direct", 2): (6, 72, 82, 41, "577b6c45daa1"),
    ("aggregate", "doubling", 2): (6, 72, 12, 2, "9e78840632b5"),
    ("aggregate", "direct", 2): (6, 72, 12, 2, "ab099c65c687"),
    ("count", "doubling", 4): (7, 74, 38, 4, "a09f6a49aca3"),
    ("count", "direct", 4): (6, 74, 38, 4, "3b8dbd9264ad"),
    ("report", "doubling", 4): (7, 74, 107, 33, "fc8f4160ab81"),
    ("report", "direct", 4): (6, 74, 107, 33, "5c1c1113a6b5"),
    ("aggregate", "doubling", 4): (7, 74, 38, 4, "a09f6a49aca3"),
    ("aggregate", "direct", 4): (6, 74, 38, 4, "3b8dbd9264ad"),
    ("count", "doubling", 8): (8, 77, 138, 8, "6402bd0d8f86"),
    ("count", "direct", 8): (6, 77, 138, 8, "82d4ea6563c2"),
    ("report", "doubling", 8): (8, 77, 205, 25, "220d5d57fb91"),
    ("report", "direct", 8): (6, 77, 205, 25, "a001b6023e40"),
    ("aggregate", "doubling", 8): (8, 77, 138, 8, "6402bd0d8f86"),
    ("aggregate", "direct", 8): (6, 77, 138, 8, "82d4ea6563c2"),
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
            for strategy in ("doubling", "direct"):
                m = tree.run([make(BOX)], replication=strategy).metrics
                comm = _comm(m)
                assert [c[0] for c in comm] == expected_labels(p, strategy)
                digest = hashlib.sha1(repr(comm).encode()).hexdigest()[:12]
                got = (m.rounds, m.total_work, m.total_volume, m.max_h, digest)
                assert got == PARENT_PASS[(mode, strategy, p)], (mode, strategy)
                # nothing to replicate: no pack/unpack dispatch; the demux
                # sorts nothing, so the two Search phases are all of them
                assert _dispatches(m) == ["search:walk", "search:forest"]


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
        rs = tree.run([], replication=strategy)
        nothing_matches = tree.run([count(Box(((2.0, 3.0), (2.0, 3.0))))])
    assert rs.values() == [] and nothing_matches.values() == [0]
    assert [c[0] for c in _comm(rs.metrics)] == expected_labels(8, strategy)
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
    pts = make_points("uniform", 64, 2, seed=42)
    with DistributedRangeTree.build(pts, p=4) as tree:
        out = tree.search([HOT] * 20, replication=strategy)
        assert max(out.copy_counts) > 1
        rs = tree.run([count(HOT)] * 20, replication=strategy)
    assert rs.values() == [bf_count(pts, HOT)] * 20
    m = rs.metrics
    shipped = [
        s for s in m.comm_steps() if s.label.startswith("search:replicate")
    ]
    moving = [s for s in shipped if s.volume]
    assert moving and all(s.volume_bytes for s in moving)
    # pack/unpack run for exactly the rounds that move a store ...
    assert sum("replicate:pack" in l for l in _dispatches(m)) == len(moving)
    assert sum("replicate:unpack" in l for l in _dispatches(m)) == len(moving)
    # ... while every scheduled round is recorded either way
    assert [c[0] for c in _comm(m)] == expected_labels(4, strategy)


#: (p, strategy) -> [(label, sent, received, volume_bytes)] of the
#: ``search:replicate:*`` rounds answering ``[count(HOT)] * 40`` over
#: make_points("uniform", 256, 2, seed=42).  The record counts were measured
#: at 37ac758, where each came from walking every nested tree of every
#: shipped element; the bytes are the shipped elements' arrays (rank rows,
#: pids, values, key blocks, row_block, aggregates), summed ``nbytes``.
PARENT_REPLICATION = {
    (4, "doubling"): [
        ("search:replicate:double-0", (640, 640, 0, 0), (0, 640, 640, 0), 50144),
        ("search:replicate:double-1", (0, 0, 0, 0), (0, 0, 0, 0), 0),
    ],
    (4, "direct"): [
        ("search:replicate:direct", (640, 640, 0, 0), (0, 640, 640, 0), 50144),
    ],
    (8, "doubling"): [
        ("search:replicate:double-0", (0, 0, 320, 0, 0, 0, 0, 0), (320, 0, 0, 0, 0, 0, 0, 0), 13544),
        ("search:replicate:double-1", (320, 0, 320, 0, 0, 0, 0, 0), (0, 320, 0, 320, 0, 0, 0, 0), 27088),
        ("search:replicate:double-2", (320, 320, 320, 320, 0, 0, 0, 0), (0, 0, 0, 0, 320, 320, 320, 320), 54176),
    ],
    (8, "direct"): [
        ("search:replicate:direct", (0, 0, 2240, 0, 0, 0, 0, 0), (320, 320, 0, 320, 320, 320, 320, 320), 94808),
    ],
}


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("p, strategy", sorted(PARENT_REPLICATION))
def test_replication_rounds_charge_the_parents_numbers(backend, p, strategy):
    pts = make_points("uniform", 256, 2, seed=42)

    def replication_rounds(tree):
        rs = tree.run([count(HOT)] * 40, replication=strategy)
        assert rs.values() == [bf_count(pts, HOT)] * 40
        return [
            (s.label, s.sent, s.received, s.volume_bytes)
            for s in rs.metrics.comm_steps()
            if s.label.startswith("search:replicate")
        ]

    with DistributedRangeTree.build(pts, p=p, backend=backend) as tree:
        assert replication_rounds(tree) == PARENT_REPLICATION[(p, strategy)]
        # the count is structure: a refit neither recounts nor loses it
        tree.reannotate(sum_of_dim(0))
        assert replication_rounds(tree) == PARENT_REPLICATION[(p, strategy)]


#: A Search pass over make_points("uniform", 256, 2, seed=42) at p=4 for
#: six HOT, three BOX and three full-range boxes of which every query but
#: each third reports — measured at 8c0069c, where that fact went into
#: ``run_search`` as the same qid set under three flags: the charged ops
#: of every dispatch, and every round's h-relation.
PARENT_MASKED_OPS = [
    ("search:walk", (15, 15, 21, 6)),
    ("search:replicate:pack-0", (0, 0, 0, 0)),
    ("search:replicate:unpack-0", (0, 0, 0, 0)),
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
        snap = tree.metrics.mark()
        out = tree.search(boxes, report=mask)
        m = tree.metrics.since(snap)
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
        for store in tree.forest_store:
            for el in store.values():
                assert el.size_records == reference_tree(el).space_leaves()
                assert pickle.loads(pickle.dumps(el)).size_records == el.size_records


def test_the_bytes_charged_for_an_element_are_what_its_pickle_ships():
    pts = make_points("uniform", 64, 3, seed=3)
    with DistributedRangeTree.build(pts, p=4) as tree:
        for store in tree.forest_store:
            for el in store.values():
                soa = el.soa
                arrays = (el.ranks, el.pids, el.values.data, *soa.keys, soa.row_block, soa.agg_mat)
                assert el.nbytes == sum(a.nbytes for a in arrays)
                # the pickle adds only its envelope (class paths, shapes, ids)
                assert 0 < len(pickle.dumps(el)) - el.nbytes < 2048


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
        idle = hat.walk_batch(3, *rank_bounds([]), np.ones(0, dtype=bool))
        general = hat.walk_batch(3, *rank_bounds([nothing]), np.ones(1, dtype=bool))
        assert isinstance(idle[0].col("agg"), KernelColumn) == kernelised
        for idle_batch, general_batch in zip(idle[:3], general[:3]):
            assert _schema(idle_batch) == _schema(general_batch)
        assert idle[3].dtype == general[3].dtype and len(idle[3]) == 0

        # step 5: an empty inbox vs an inbox whose one subquery selects nothing
        ns = tree._ensure_resident()
        mach = tree.machine
        _sels, routing, _expansions, _visits = hat.walk_batch(
            0, *tree.ranked.to_rank_bounds(*Box.stack([BOX])), np.zeros(1, dtype=bool)
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
            return forest_cols(ctx, (inbox, (ns,), np.zeros(1, dtype=bool))), ctx.ops

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
        assert get_phase("cgm.sort.local_cols")(ctx, (empty, ("qid",), "t")) == []
        assert get_phase("cgm.sort.partition_cols")(ctx, ([b"x"], "t")) == [None] * 4
        assert "t" not in state
        merged = get_phase("cgm.sort.merge_cols")(ctx, empty)
        assert _schema(merged) == _schema(empty)
        assert ctx.ops == 1 + 0 + 1  # what sorting nothing has always charged

        # the whole sort over nothing: schema-shaped output from the same
        # four rounds as any sort (the round count does not read the data)
        out = sample_sort_cols(mach, [empty] * 4, ("qid",), label="s")
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
            by_round.append(tree.run(batch).metrics.comm_bytes_by_round())
            monkeypatch.undo()
    assert by_round[0] == by_round[1]
    assert all(r["bytes"] > 0 for r in by_round[0] if r["records"])
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


# ---------------------------------------------------------------------------
# satellite: per-pass metrics cost nothing of the uptime
# ---------------------------------------------------------------------------
def test_pass_metrics_do_not_depend_on_or_copy_history(monkeypatch):
    pts = make_points("uniform", 128, 2, seed=17)

    def pass_trace(preceding: int):
        with DistributedRangeTree.build(pts, p=4) as tree:
            tree.reset_metrics()
            for _ in range(preceding):
                tree.metrics.record_compute("uptime:filler", [0] * 4, [0.0] * 4)
            monkeypatch.setattr(
                Metrics, "snapshot", lambda self: pytest.fail("history copied")
            )
            rs = tree.run([count(BOX), report(BOX)])
            monkeypatch.undo()
            assert type(tree.metrics.steps) is list
            assert len(tree.metrics.steps) == preceding + len(rs.metrics.steps)
            return [
                (s.kind, s.label, s.ops, s.sent, s.received, s.sent_bytes)
                for s in rs.metrics.steps
            ], rs.metrics.summary()["rounds"]

    assert pass_trace(0) == pass_trace(5000)


def test_since_accepts_a_mark_or_a_snapshot():
    m = Metrics()
    m.record_comm("a", [1], [1])
    mark, snap = m.mark(), m.snapshot()
    m.record_comm("b", [2], [2])
    assert mark == 1
    assert [s.label for s in m.since(mark).steps] == ["b"]
    assert [s.label for s in m.since(snap).steps] == ["b"]


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
