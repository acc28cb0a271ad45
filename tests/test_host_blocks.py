"""A host runs a phase once over the block of ranks it holds.

The serial backend is one host of all ``p`` ranks; the process backend
runs ``k = min(p, usable CPUs)`` workers, worker ``h`` the host of ranks
``p*h//k`` to ``p*(h+1)//k - 1``, and the parity tests pin ``k``: one
rank a host, and blocks of several, even and uneven.  Search steps 1
and 5 are host phases: one hat walk and one
forest walk per dimension over the whole block, cut back per rank.  So
are Construct's hat build and the refit's hat refresh: built or folded
once per host, copied to each other rank's own replica.  What
a rank emits, charges, sends and receives must not depend on the block it
ran in; the fault sites still fire per rank before the body runs; and a
host's measured wall is split over its ranks by charged ops.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro import Box
from repro.cgm import Machine, register_host_phase, register_phase
from repro.cgm import backend as cgm_backend
from repro.cgm import phases
from repro.cgm.columns import RecordBatch
from repro.cgm.phases import ProcContext, get_phase
from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree, validate_tree
from repro.dist.construct import forest_key, holders_key
from repro.dist.hat import Hat, walk_hats
from repro.dist.records import KIND_SUBQUERY
from repro.errors import InjectedFault, ProtocolError
from repro.faults import FaultPlan, FaultRule, injected
from repro.query import QueryBatch, aggregate, count, engine, report
from repro.semigroup import max_of_dim, sum_of_dim
from repro.semigroup.kernels import KernelColumn
from repro.seq import bf_count, bf_report
from repro.seq.compiled import CompiledForest
from repro.workloads import make_points, make_queries

from tests.helpers import STREAM_GROUP, pin_usable_cpus


@register_host_phase("test.host_charge")
def _phase_host_charge(ctxs, payloads):
    """Charge each rank of the block its payload; one call per host."""
    for ctx, k in zip(ctxs, payloads):
        ctx.charge(k)
    return [len(ctxs)] * len(ctxs)


@register_phase("test.keep")
def _phase_keep(ctx, payload):
    """Keep ``payload`` in this rank's state under ``"kept"``."""
    ctx.state["kept"] = payload


def _rows(batch: RecordBatch) -> tuple:
    """A batch as plain values, column by column (bit-exact for floats)."""
    cols = []
    for name, col in batch.cols.items():
        data = col.data if isinstance(col, KernelColumn) else col
        cols.append((name, str(data.dtype), data.tolist()))
    return batch.schema, len(batch), tuple(cols)


def _steps(metrics) -> tuple:
    return tuple(
        (s.kind, s.label, s.ops, s.sent, s.received, s.sent_bytes) for s in metrics.steps
    )


class TestWallSplit:
    @pytest.fixture
    def clock(self, monkeypatch):
        """The backend's clock reads 0, 2, 4, ...: every host phase spans 2 s."""
        ticks = itertools.count(0.0, 2.0)
        monkeypatch.setattr(cgm_backend, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))

    @pytest.mark.parametrize("phase", ["test.host_charge", "test.charge"])
    def test_seconds_sum_to_the_host_wall_split_by_charged_ops(self, clock, phase):
        with Machine(4) as mach:
            with mach.scope() as trace:
                mach.run_phase("charged", phase, [1, 3, 0, 4])
                mach.run_phase("uncharged", phase, [0, 0, 0, 0])
        charged, uncharged = trace.steps
        assert charged.ops == (1, 3, 0, 4)
        assert charged.seconds == (0.25, 0.75, 0.0, 1.0)
        assert sum(charged.seconds) == 2.0
        assert uncharged.seconds == (0.5,) * 4  # no rank charged: equal shares
        assert trace.critical_seconds == 1.0 + 0.5

    def test_a_search_pass_splits_each_walk_by_its_ranks_charges(self, clock):
        pts = make_points("uniform", 512, 2, seed=5)
        qs = make_queries("uniform", 40, 2, seed=6)
        with DistributedRangeTree.build(pts, p=4) as tree:
            steps = tree.run([count(q) for q in qs]).metrics.compute_steps()
        walks = [s for s in steps if s.label in ("search:walk", "search:forest")]
        assert [s.label for s in walks] == ["search:walk", "search:forest"]
        for s in steps:
            assert sum(s.seconds) == pytest.approx(2.0)
        for s in walks:
            assert sum(s.ops) > 0
            assert list(s.seconds) == pytest.approx([2.0 * k / sum(s.ops) for k in s.ops])

    def test_one_call_per_host(self):
        with Machine(4) as mach:
            assert mach.run_phase("a", "test.host_charge", [1, 1, 1, 1]) == [4] * 4


@register_host_phase("test.host_short")
def _phase_host_short(ctxs, payloads):
    """One result for a whole block: a broken host body."""
    return [None]


def test_a_host_body_returns_one_result_per_rank():
    with Machine(2) as mach, pytest.raises(ProtocolError, match="block of 2 ranks"):
        mach.run_phase("short", "test.host_short", [None, None])


class TestBlockEqualsRanksAlone:
    """Steps 1 and 5 over a block give each rank what it gets alone."""

    @pytest.mark.parametrize("d, parts", [(1, 1), (2, 1), (3, 1), (2, 3)])
    def test_walk_and_forest_per_rank(self, d, parts):
        pts = [make_points("uniform", 256, d, seed=40 + b) for b in range(parts)]
        qs = make_queries("uniform", 14, d, seed=7)  # p = 4: slices 4, 4, 4, 2
        mask = np.arange(len(qs)) % 2 == 0
        trees = [DistributedRangeTree.build(x, p=4) for x in pts[:1]]
        trees += [DistributedRangeTree.build(x, machine=trees[0].machine) for x in pts[1:]]
        try:
            mach, p = trees[0].machine, 4
            nss = tuple(t.construct_result.ns for t in trees)
            bounds = [t.ranked.to_rank_bounds(*Box.stack(qs)) for t in trees]
            chunk = -(-len(qs) // p)
            walk_payloads = [
                (r * chunk, nss, [(lo[r * chunk : (r + 1) * chunk], hi[r * chunk : (r + 1) * chunk])
                                  for lo, hi in bounds], mask[r * chunk : (r + 1) * chunk])
                for r in range(p)
            ]
            walked, walk_ops = self._block_and_alone(mach, "dist.search.walk_cols", walk_payloads)
            # every rank's subqueries and expansions, routed to their owners
            routing = RecordBatch.concat([b for w in walked for b in w[1:3] if len(b)])
            owner = routing.col("location")
            inboxes = [routing.take(np.flatnonzero(owner == r)) for r in range(p)]
            inboxes[1] = inboxes[1].islice(0, 0)  # an idle rank inside the block
            self._block_and_alone(
                mach, "dist.search.forest_cols", [(inboxes[r], nss, mask) for r in range(p)]
            )
            assert sum(walk_ops) > 0
        finally:
            for t in reversed(trees):
                t.close()

    @staticmethod
    def _block_and_alone(mach, name, payloads):
        p, body, states = mach.p, get_phase(name), mach.backend.states(mach.p)
        block = [ProcContext(rank=r, p=p, state=states[r]) for r in range(p)]
        together = body(block, payloads)
        alone = []
        for r in range(p):
            ctx = ProcContext(rank=r, p=p, state=states[r])
            alone.append((body([ctx], [payloads[r]])[0], ctx.ops))
        for r in range(p):
            got, want = together[r], alone[r][0]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                if isinstance(g, RecordBatch):
                    assert _rows(g) == _rows(w), (name, r)
                else:
                    assert g.tolist() == w.tolist(), (name, r)
            assert block[r].ops == alone[r][1], (name, r)
        return together, [ctx.ops for ctx in block]

    def test_a_block_of_scattered_slices_is_refused(self):
        with DistributedRangeTree.build(make_points("uniform", 64, 2, seed=1), p=2) as tree:
            ns = tree.construct_result.ns
            lo, hi = tree.ranked.to_rank_bounds(*Box.stack(make_queries("uniform", 4, 2, seed=2)))
            payloads = [(0, (ns,), [(lo[:2], hi[:2])], np.zeros(2, bool)),
                        (3, (ns,), [(lo[2:], hi[2:])], np.zeros(2, bool))]
            states = tree.machine.backend.states(2)
            ctxs = [ProcContext(rank=r, p=2, state=states[r]) for r in range(2)]
            with pytest.raises(ProtocolError, match="consecutive"):
                get_phase("dist.search.walk_cols")(ctxs, payloads)


def test_walk_hats_orders_a_block_slice_by_slice():
    """``sizes`` only reorders: each slice's rows are its own walk's."""
    with DistributedRangeTree.build(make_points("uniform", 256, 2, seed=3), p=4) as tree:
        qs = make_queries("uniform", 9, 2, seed=4)
        lo, hi = tree.ranked.to_rank_bounds(*Box.stack(qs))
        report_mask = np.ones(9, dtype=bool)
        hats, sizes = [tree.hat, tree.hat], [4, 0, 3, 2]
        block = walk_hats(hats, 5, [(lo, hi), (lo, hi)], report_mask, sizes)
        starts = np.cumsum(sizes) - sizes
        alone = [
            walk_hats(hats, 5 + a, [(lo[a : a + n], hi[a : a + n])] * 2, report_mask[a : a + n])
            for a, n in zip(starts, sizes)
        ]
        for i in range(3):
            want = RecordBatch.concat([w[i] for w in alone])
            assert _rows(block[i]) == _rows(want)


class TestFaultPlane:
    RULE = FaultRule("dist.search.forest_cols", "raise", rank=2, at=1)

    def _failed_pass(self, backend: str):
        pts = make_points("uniform", 256, 2, seed=9)
        qs = make_queries("uniform", 24, 2, seed=10)
        with injected(FaultPlan(rules=(self.RULE,), name="raise-rank2-step5")):
            with DistributedRangeTree.build(pts, p=4, backend=backend) as tree:
                with pytest.raises(InjectedFault) as exc:
                    tree.run([count(q) for q in qs])
        return exc.value

    def test_a_raise_at_rank_2_fails_the_pass_alike_on_both_backends(self, monkeypatch):
        entered, real = [], get_phase("dist.search.forest_cols")
        monkeypatch.setitem(
            phases._PHASES,
            "dist.search.forest_cols",
            lambda ctxs, payloads: entered.append([c.rank for c in ctxs]) or real(ctxs, payloads),
        )
        serial = self._failed_pass("serial")
        assert entered == []  # the fault fired before the body: no rank produced output
        process = self._failed_pass("process")
        for exc in (serial, process):
            assert (type(exc), str(exc), exc.site, exc.rank) == (
                InjectedFault, "injected fault at dist.search.forest_cols on rank 2",
                "dist.search.forest_cols", 2,
            )


def test_a_raw_phase_on_uneven_hosts(monkeypatch):
    """``Machine(5)`` on two process hosts, blocks of 2 and 3: one host
    call per block, and the per-rank results, ops and state of serial."""
    pin_usable_cpus(monkeypatch, 2)
    seen = {}
    for backend in ("serial", "process"):
        with Machine(5, backend=backend) as mach:
            with mach.scope() as trace:
                calls = mach.run_phase("charge", "test.host_charge", [1, 2, 3, 4, 5])
                echo = mach.run_phase("echo", "test.echo")
                mach.run_phase("keep", "test.keep", [10, 11, 12, 13, 14])
            kept = mach.fetch_state("kept")
            mach.evict_state("kept")
            seen[backend] = ([len(b) for b in mach.backend.blocks(5)], calls, echo, kept,
                             mach.fetch_state("kept"), [s.ops for s in trace.steps])
    serial, process = seen["serial"], seen["process"]
    assert (serial[:2], process[:2]) == (([5], [5] * 5), ([2, 3], [2, 2, 3, 3, 3]))
    assert process[2:] == serial[2:]
    assert serial[2:5] == ([(r, 5) for r in range(5)], [10, 11, 12, 13, 14], [None] * 5)


class TestSerialProcessParity:
    """One host of p ranks (serial) against process hosts of one rank and
    of even and uneven blocks of several (pinned layouts)."""

    @staticmethod
    def _capture(monkeypatch) -> list:
        """Each pass's ``(parts, SearchOutput)``."""
        outs, real = [], engine.run_search

        def run_search(mach, parts, **kwargs):
            outs.append((len(parts), real(mach, parts, **kwargs)))
            return outs[-1][1]

        monkeypatch.setattr(engine, "run_search", run_search)
        return outs

    @staticmethod
    def _search_rows(out) -> tuple:
        return tuple(
            tuple(_rows(b) for b in batches)
            for batches in (out.hat_selections, out.forest_selections, out.report_pairs)
        )

    def _static(self, backend, d, monkeypatch, p=4):
        outs = self._capture(monkeypatch)
        pts = make_points("clustered", 300, d, seed=60 + d)
        qs = make_queries("uniform", 30, d, seed=70 + d)
        qs.append(Box([(-1.0, 2.0)] * d))  # all of the space: hat selections
        cycle = (count, report, lambda b: aggregate(b, sum_of_dim(0)))
        with DistributedRangeTree.build(pts, p=p, backend=backend) as tree:
            built = tree.metrics
            rs = tree.run(QueryBatch([cycle[i % 3](q) for i, q in enumerate(qs)]))
            blocks = [len(b) for b in tree.machine.backend.blocks(p)]
        ((_parts, out),) = outs
        return rs.values(), self._search_rows(out), _steps(built) + _steps(rs.metrics), blocks

    def _agree(self, d, monkeypatch, p, blocks):
        serial = self._static("serial", d, monkeypatch, p)
        process = self._static("process", d, monkeypatch, p)
        assert (serial[3], process[3]) == ([p], blocks)
        assert any(rows[1] for rows in serial[1][0]), "no hat selection"
        assert process[0] == serial[0]
        assert process[1] == serial[1]
        assert process[2] == serial[2]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mixed_batch(self, d, monkeypatch):
        pin_usable_cpus(monkeypatch, 4)  # a host per rank
        self._agree(d, monkeypatch, 4, [1, 1, 1, 1])

    @pytest.mark.parametrize(
        "p, cpus, blocks, d",
        [(4, 2, [2, 2], 2), (8, 3, [2, 3, 3], 2), (8, 3, [2, 3, 3], 3)],
        ids=["p4-2hosts-d2", "p8-3hosts-d2", "p8-3hosts-d3"],
    )
    def test_mixed_batch_on_blocks(self, p, cpus, blocks, d, monkeypatch):
        pin_usable_cpus(monkeypatch, cpus)
        self._agree(d, monkeypatch, p, blocks)

    def _dynamic(self, backend, monkeypatch):
        outs = self._capture(monkeypatch)
        coords = (np.random.default_rng(44).integers(0, 17, size=(160, 2)) / 16).tolist()
        boxes = [Box(((0.0, 0.5), (0.25, 1.0))), Box(((0.5, 1.0), (0.0, 0.75)))]
        boxes.append(Box(((0.25, 0.75),) * 2))
        with DynamicDistributedRangeTree.build(
            coords[:128], p=4, backend=backend, semigroup=STREAM_GROUP, flush_threshold=2
        ) as dyn:
            for c in coords[128:]:
                dyn.insert(c)
                if len(dyn.bucket_sizes) == 3:
                    break
            assert len(dyn.bucket_sizes) == 3
            outs.clear()
            rs = dyn.run([(count, report, aggregate)[i % 3](b) for i, b in enumerate(boxes * 3)])
        ((parts, out),) = outs
        assert parts == 3  # every bucket is a part of the pass
        return rs.values(), self._search_rows(out), _steps(rs.metrics)

    def test_three_bucket_dynamic_pass(self, monkeypatch):
        pin_usable_cpus(monkeypatch, 4)  # a host per rank
        serial = self._dynamic("serial", monkeypatch)
        process = self._dynamic("process", monkeypatch)
        assert process == serial

    def test_three_bucket_dynamic_pass_on_uneven_blocks(self, monkeypatch):
        pin_usable_cpus(monkeypatch, 3)  # blocks of 1, 1 and 2 ranks
        serial = self._dynamic("serial", monkeypatch)
        process = self._dynamic("process", monkeypatch)
        assert process == serial


class TestConstructAndRefitHostPhases:
    """The hat build and the hat refresh run once per host: each host
    (the serial backend's one, each process worker) builds and folds one
    hat and gives every other rank of its block its own copy."""

    @staticmethod
    def _counting(monkeypatch, tmp_path):
        """Count ``Hat.build`` and ``Hat.refresh_aggregates`` calls here and
        in workers forked after the patch (one line per call to a file)."""
        log = tmp_path / "calls"
        log.touch()
        real_build, real_refresh = Hat.build.__func__, Hat.refresh_aggregates

        def build(cls, *args, **kwargs):
            with open(log, "a") as f:
                f.write("build\n")
            return real_build(cls, *args, **kwargs)

        def refresh(self, *args, **kwargs):
            with open(log, "a") as f:
                f.write("refresh\n")
            return real_refresh(self, *args, **kwargs)

        monkeypatch.setattr(Hat, "build", classmethod(build))
        monkeypatch.setattr(Hat, "refresh_aggregates", refresh)
        return lambda: Counter(log.read_text().split())

    @staticmethod
    def _build_and_refit(backend: str):
        """A build under ``sum[x0]`` (Construct + one refit), one more
        refit; the trace of each and every rank's replica after, and the
        backend's host count."""
        pts = make_points("clustered", 300, 2, seed=81)
        with DistributedRangeTree.build(pts, p=4, backend=backend, semigroup=sum_of_dim(0)) as tree:
            built = tree.metrics
            tree.reannotate(max_of_dim(1))
            hats = list(tree.construct_result.hats)
            hosts = len(tree.machine.backend.blocks(tree.p))
            return _steps(built) + _steps(tree.metrics), hats, validate_tree(tree).ok, hosts

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_build_and_refresh_run_once_per_host(self, backend, monkeypatch, tmp_path):
        pin_usable_cpus(monkeypatch, 2)  # the process backend: 2 hosts of 2
        calls = self._counting(monkeypatch, tmp_path)
        _steps_, _hats, ok, hosts = self._build_and_refit(backend)
        assert ok and hosts == {"serial": 1, "process": 2}[backend]
        # one build; two refits (the build's annotation, the reannotate)
        assert calls() == Counter(build=hosts, refresh=2 * hosts)

    def test_every_rank_holds_its_own_replica(self):
        _steps_, hats, ok, _hosts = self._build_and_refit("serial")
        assert ok and len({id(h) for h in hats}) == 4
        first = hats[0]
        for hat in hats[1:]:
            assert hat.shape is first.shape
            for col in ("lo", "hi", "nleaves"):
                mine, theirs = getattr(hat, col), getattr(first, col)
                assert np.array_equal(mine, theirs) and not np.shares_memory(mine, theirs)
            assert hat.aggs.kernel == first.aggs.kernel
            assert np.array_equal(hat.aggs.data, first.aggs.data)
            assert not np.shares_memory(hat.aggs.data, first.aggs.data)

    def test_build_and_refit_steps_match_across_backends(self):
        serial, _hats, _ok, _hosts = self._build_and_refit("serial")
        process, _hats, _ok, _hosts = self._build_and_refit("process")
        labels = [step[1] for step in serial]
        assert "construct:build-hat" in labels and "reannotate:refresh-hat" in labels
        assert process == serial


@register_phase("test.hold_partial")
def _phase_hold_partial(ctx, payload):
    """Hold, as the copy of group ``owner``, only dimensions ``dims`` of
    this rank's own store."""
    ns, owner, dims = payload
    own = ctx.state[forest_key(ns)]
    ctx.state[holders_key(ns)] = {owner: {j: own[j] for j in dims}}


class TestOneWalkPerStack:
    """Step 5 walks each stack once per host, however many of the host's
    ranks hold it (their own group or a copy), and still serves a row only
    at a rank that holds the stack itself."""

    @staticmethod
    def _spy(monkeypatch, log):
        """Append each ``CompiledForest.walk`` call's stacks, one digest
        per stack's point ids, as a line of ``log`` (forked workers
        inherit the spy and the path)."""
        real = CompiledForest.walk

        def walk(stacks, *args, **kwargs):
            with open(log, "a") as f:
                f.write(" ".join(hashlib.sha1(s.pids.tobytes()).hexdigest() for s in stacks) + "\n")
            return real(stacks, *args, **kwargs)

        monkeypatch.setattr(CompiledForest, "walk", staticmethod(walk))

    def _hot_spot_pass(self, backend, monkeypatch, log):
        self._spy(monkeypatch, log)
        pts = make_points("uniform", 512, 2, seed=5)
        qs = make_queries("hotspot", 128, 2, seed=6)
        with DistributedRangeTree.build(pts, p=8, backend=backend) as tree:
            rs = tree.run(QueryBatch([(count, report)[i % 2](q) for i, q in enumerate(qs)]))
            blocks = [len(b) for b in tree.machine.backend.blocks(8)]
        copies = sum(s.volume for s in rs.metrics.comm_steps() if s.label.startswith("search:replicate"))
        assert copies > 0, "the hot spot replicated nothing"
        want = [(bf_count, bf_report)[i % 2](pts, q) for i, q in enumerate(qs)]
        assert rs.values() == want
        walks = [line.split() for line in log.read_text().splitlines()]
        assert walks, "step 5 walked nothing"
        for stacks in walks:
            assert len(stacks) == len(set(stacks)), f"a stack walked twice in one call: {stacks}"
        return blocks, _steps(rs.metrics)

    def test_a_hot_spot_pass_walks_each_stack_once(self, monkeypatch, tmp_path):
        pin_usable_cpus(monkeypatch, 2)  # hosts of 4 ranks, several holding copies
        serial = self._hot_spot_pass("serial", monkeypatch, tmp_path / "serial")
        process = self._hot_spot_pass("process", monkeypatch, tmp_path / "process")
        assert (serial[0], process[0]) == ([8], [4, 4])
        assert process[1] == serial[1]  # each rank's ops, sent, received and bytes

    @staticmethod
    def _inbox(shape, elements) -> RecordBatch:
        k = len(elements)
        return RecordBatch(
            "dist.search.routing",
            {
                "kind": np.full(k, KIND_SUBQUERY),
                "qid": np.arange(k),
                "los": np.zeros((k, 2), dtype=np.int64),
                "his": np.full((k, 2), 63),
                "element": elements,
                "location": shape.location[elements],
            },
        )

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_a_group_shared_with_a_rank_without_a_copy_is_refused(self, backend, monkeypatch):
        pin_usable_cpus(monkeypatch, 2)  # process: hosts of ranks 0-1 and 2-3
        with DistributedRangeTree.build(make_points("uniform", 64, 2, seed=3), p=4, backend=backend) as tree:
            ns, hat = tree.construct_result.ns, tree.hat
            elements = np.flatnonzero(hat.shape.leaf & (hat.shape.location == 0))[:2]
            inbox = self._inbox(hat.shape, elements)
            nothing = RecordBatch.empty_like(inbox)
            nobody = np.zeros(2, dtype=bool)
            # the owner (rank 0) and rank 1, one host, aim at group 0's stacks
            want = f"rank 1 received subquery for {hat.path(elements[0])} without holding a copy of group 0"
            with pytest.raises(ProtocolError, match=re.escape(want)):
                tree.machine.run_phase(
                    "t", "dist.search.forest_cols",
                    [(inbox if r < 2 else nothing, (ns,), nobody) for r in range(4)],
                )

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_a_copy_without_the_dimension_is_refused(self, backend):
        with DistributedRangeTree.build(make_points("uniform", 64, 2, seed=3), p=4, backend=backend) as tree:
            ns, hat = tree.construct_result.ns, tree.hat
            shape = hat.shape
            mine = np.flatnonzero(shape.leaf & (shape.location == 1) & (shape.dim == 0))[:1]
            theirs = np.flatnonzero(shape.leaf & (shape.location == 1) & (shape.dim == 1))[:1]
            # rank 0 holds a copy of group 1 with dimension 0 only
            tree.machine.run_phase("hold", "test.hold_partial", [(ns, 1, (0,))] * 4)
            nothing = RecordBatch.empty_like(self._inbox(shape, mine))
            nobody = np.zeros(1, dtype=bool)
            served = tree.machine.run_phase(
                "t", "dist.search.forest_cols",
                [(self._inbox(shape, mine) if r == 0 else nothing, (ns,), nobody) for r in range(4)],
            )
            assert [len(sel) for sel, _pairs in served] == [1, 0, 0, 0]
            want = f"rank 0 received subquery for {hat.path(theirs[0])} without holding a copy of group 1"
            with pytest.raises(ProtocolError, match=re.escape(want)):
                tree.machine.run_phase(
                    "t", "dist.search.forest_cols",
                    [(self._inbox(shape, theirs) if r == 0 else nothing, (ns,), nobody) for r in range(4)],
                )
