"""Forest arrays ≡ the object range tree, bit for bit, tree by tree.

:meth:`repro.seq.compiled.CompiledForest.from_ranks` emits a stack of
forest elements' range trees directly as arrays; the object
:class:`tests.helpers.RangeTree` over one element's points
(:func:`tests.helpers.reference_tree`) is the oracle for its tree.  The
walk over the arrays must reproduce ``RangeTree.canonical`` exactly —
same selections (identical leaf rows) in the same emission order, same
per-box visit counts, bit-identical aggregates, whichever tree of the
stack a box searches — because Search step 5 and every query of the
sequential tree ride the arrays.  These tests pin that
identity directly (a hypothesis property over d, start dimension, width,
stack depth and value representation), Algorithm Search's forest output
against per-subquery ``canonical`` calls, the engine's answers against
the sequential oracle, the tiling arithmetic, and what a refit and a
pickle may and may not touch.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cgm.columns import RecordBatch
from repro.cgm.phases import ProcContext, get_phase
from repro.dist import DistributedRangeTree
from repro.dist.forest import build_stack
from repro.dist.hat import walk_hats
from repro.dist.records import KIND_EXPAND, KIND_SUBQUERY
from repro.errors import GeometryError
from repro.geometry import Box
from repro.geometry.box import RankBox
from repro.query import QueryBatch, aggregate
from repro.semigroup import (
    COUNT,
    KernelColumn,
    ObjectKernel,
    bounding_box_semigroup,
    max_of_dim,
    product_semigroup,
    sum_of_dim,
    top_k_ids,
)
from repro.seq import bf_aggregate
from repro.seq.compiled import CompiledForest, _cover_bits, _layout, _path_sums, _tree_step
from repro.seq.range_tree import SequentialRangeTree
from repro.seq.segment_tree import SegTree, WalkStats
from repro.workloads import make_points, uniform_points

from tests.helpers import (
    RangeTree,
    element_pids,
    forest_elements,
    last_dim_nodes,
    random_boxes,
    rank_bounds,
    reference_tree,
    seq_reference,
    unkernelized,
)
from tests.test_hat_walk_parity import (
    BACKENDS,
    _mixed_batch,
    _rank_boxes,
    reference_search,
    search_pairs,
)

TOPOLOGY = ("keys", "row_block", "pids")


def _object_walk(ref, boxes):
    """Per-box object walk over an element's oracle tree: each selection
    as ``(leaf rows, aggregate)``, plus per-box visit counts."""
    sels, visits = [], []
    for box in boxes:
        st_ = WalkStats()
        sels.append(
            [
                (sel.rows().tolist(), repr(sel.agg()))
                for sel in ref.canonical(box, stats=st_)
            ]
        )
        visits.append(st_.nodes_visited)
    return sels, visits


def _array_walk(stack, trees, boxes):
    """The same from one stack walk, box ``i`` searching tree
    ``trees[i]``: leaf rows are its tree's own (stack row − t·width)."""
    trees = np.asarray(trees, dtype=np.int64)
    sel = CompiledForest.walk([stack], *rank_bounds(boxes), trees)
    aggs = stack.aggs.take(sel.node).to_list()
    sels = [[] for _ in boxes]
    for q, off, ln, agg in zip(sel.q, sel.off, sel.length, aggs):
        rows = stack.row_block[off : off + ln] - trees[q] * stack.width
        sels[int(q)].append((rows.tolist(), repr(agg)))
    return sels, [int(v) for v in sel.visits]


def _element_walks(stack, t, boxes):
    return _array_walk(stack, np.full(len(boxes), t), boxes)


def _emission_nodes(t, h=1):
    """The object tree's nodes in DFS emission order — ``[v] +
    order(descendant tree of v) + order(left) + order(right)``, plain
    preorder inside a last-dimension tree — as ``(leaf rows, aggregate)``
    (``None`` for a node of an earlier dimension)."""
    if t.descendants is None:
        yield t.rows_under(h), t.aggs[h]
    else:
        yield None
        yield from _emission_nodes(t.descendants[h])
    if h < t.seg.m:
        yield from _emission_nodes(t, 2 * h)
        yield from _emission_nodes(t, 2 * h + 1)


#: the annotations the node-for-node tests run under: a float max (stored
#: negated), a float sum and an object top-k.  A count is no layer — a
#: COUNT-built tree stores a zero-width column — so none is a count.
NODE_SEMIGROUPS = (max_of_dim(0), sum_of_dim(0), top_k_ids(2))


def _every_element(seed):
    """``(tree, leaf, stack, t)`` for every forest element of a padded
    p=4 build (48 points pad to 64) at d = 1, 2, 3 under each of
    :data:`NODE_SEMIGROUPS`."""
    for d in (1, 2, 3):
        for sg in NODE_SEMIGROUPS:
            pts = uniform_points(48, d, seed=seed)
            with DistributedRangeTree.build(pts, p=4, semigroup=sg) as tree:
                for leaf, stack, t in forest_elements(tree):
                    yield tree, leaf, stack, t


def _random_stack(rng, d, dim, width, count, semigroup, typed):
    """``count`` forest elements on ``width`` random rank rows each,
    stacked: contiguous and ascending in ``dim`` per tree (one hat-leaf
    segment each), arbitrary elsewhere.  Returns the stack, the per-tree
    object oracles and the rank span the boxes should cover."""
    span = 4 * width
    ranks = np.stack(
        [
            np.concatenate([rng.permutation(span)[:width] for _ in range(count)])
            for _ in range(d)
        ],
        axis=1,
    ).astype(np.int64)
    ranks[:, dim] = width + np.arange(count * width)
    coords = rng.random((count * width, d))
    values = [semigroup.lift(i, tuple(coords[i])) for i in range(count * width)]
    sg = semigroup if typed else unkernelized(semigroup)
    assert (sg.kernel.dtype is object) != typed
    column = KernelColumn.from_values(sg.kernel, values) if typed else values
    stack = build_stack(ranks, np.arange(count * width) + 7, dim, width)
    stack.annotate(column, sg)
    return stack, _oracles(ranks, values, sg, dim, width), span


def _oracles(ranks, values, sg, dim, width):
    return [
        RangeTree(ranks[s : s + width], values[s : s + width], sg, start_dim=dim)
        for s in range(0, len(ranks), width)
    ]


class TestDirectBuildAgainstTheObjectOracle:
    """Every shape (d, start dimension, width, stack depth), both value
    representations; every box names its own tree of the stack."""

    @given(
        d=st.integers(1, 4),
        data=st.data(),
        log_width=st.integers(0, 6),
        count=st.integers(1, 3),
        typed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_walk_refit_and_pickle(self, d, data, log_width, count, typed, seed):
        dim = data.draw(st.integers(0, d - 1))
        rng = np.random.default_rng(seed)
        sg = product_semigroup(
            [COUNT, sum_of_dim(0), max_of_dim(d - 1), bounding_box_semigroup(d)]
        )
        width = 1 << log_width
        stack, refs, span = _random_stack(rng, d, dim, width, count, sg, typed)
        boxes = _rank_boxes(rng, 12, d, span)
        trees = rng.integers(0, count, size=len(boxes))

        def want(refs):
            # each box's selections (identical leaf rows), emission order,
            # visit count and aggregates, from its own tree's object walk
            per_box = [_object_walk(refs[t], [box]) for box, t in zip(boxes, trees)]
            return [s[0] for s, _v in per_box], [v[0] for _s, v in per_box]

        assert _array_walk(stack, trees, boxes) == want(refs)

        # default pickling: the clone answers identically, nothing rebuilt
        clone = pickle.loads(pickle.dumps(stack))
        assert _array_walk(clone, trees, boxes) == want(refs)

        # refits to one-layer annotations, kernel -> object -> kernel:
        # topology arrays stay the *same objects*, only the aggregate
        # slots change
        held = {name: getattr(stack, name) for name in TOPOLOGY}
        ranks = np.concatenate([r.ranks for r in refs])
        for layer in (COUNT, unkernelized(sum_of_dim(0)), sum_of_dim(dim)):
            coords = rng.random((count * width, d))
            refit_sg = product_semigroup([layer])
            fresh = [refit_sg.lift(i, tuple(coords[i])) for i in range(count * width)]
            stack.annotate(KernelColumn.from_values(refit_sg.kernel, fresh), refit_sg)
            assert all(getattr(stack, name) is arr for name, arr in held.items())
            assert stack.aggs.kernel.layers == (layer.kernel,)
            assert (stack.aggs.data.dtype == object) == isinstance(layer.kernel, ObjectKernel)
            refs = _oracles(ranks, fresh, refit_sg, dim, width)
            assert _array_walk(stack, trees, boxes) == want(refs)


class TestRepeatedRanks:
    """The one-sort build is exact only for distinct ranks per tree and
    dimension: a repeat is refused, in any divided dimension."""

    @pytest.mark.parametrize("dim", [0, 1, 2])
    def test_a_rank_repeated_within_a_tree_raises(self, dim):
        rng = np.random.default_rng(dim)
        ranks = np.stack([np.stack([rng.permutation(8) for _ in range(3)], axis=1)] * 2)
        # tree 1 repeats one rank in dimension ``dim``
        ranks[1, 5, dim] = ranks[1, 2, dim]
        with pytest.raises(GeometryError, match=f"repeats within one tree in dimension {dim}"):
            CompiledForest.from_ranks(ranks)

    def test_a_rank_repeated_across_trees_is_fine(self):
        """Trees of a stack share one rank space but not their ranks: the
        same permutation in every tree builds."""
        ranks = np.stack([np.stack([np.arange(8)[::-1], np.arange(8)], axis=1)] * 3)
        stack = CompiledForest.from_ranks(ranks)
        assert stack.shape == (3, 8, 2)
        ones = product_semigroup([COUNT])
        stack.annotate([(1,)] * 24, ones)
        assert stack.root_aggs().to_list() == [(8,)] * 3


class TestOneWalkOverManyStacks:
    """One walk over several stacks dividing the same dimensions — each
    its own width, tree count and key span — is the per-stack walks laid
    end to end, bit for bit: what lets Search step 5 walk every stack a
    rank holds for a dimension in one call."""

    @given(
        r=st.integers(1, 3),
        shapes=st.lists(
            st.tuples(st.integers(0, 6), st.integers(1, 3), st.integers(0, 40)),
            min_size=1,
            max_size=5,
        ),
        nboxes=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_equals_the_per_stack_walks(self, r, shapes, nboxes, seed):
        rng = np.random.default_rng(seed)
        stacks = []
        for log_width, count, gaps in shapes:
            w = 1 << log_width
            ranks = [
                np.stack([rng.permutation(w + gaps)[:w] for _ in range(r)], axis=1)
                for _ in range(count)
            ]
            stacks.append(CompiledForest.from_ranks(np.stack(ranks)))
        # boxes grouped by stack, each in one of its stack's trees; some
        # are inverted, empty (between ranks) or out of every key range
        which = np.sort(rng.integers(0, len(stacks), size=nboxes))
        trees = np.array([rng.integers(0, stacks[s].shape[0]) for s in which], dtype=np.int64)
        top = max(stack.span for stack in stacks) + 3
        los = rng.integers(-3, top, size=(nboxes, r))
        his = los + rng.integers(-2, top, size=(nboxes, r))

        got = CompiledForest.walk(stacks, los, his, trees, which)
        parts = []
        for s, stack in enumerate(stacks):
            mine = np.flatnonzero(which == s)
            one = CompiledForest.walk([stack], los[mine], his[mine], trees[mine])
            parts.append(one._replace(q=one.q + (mine[0] if len(mine) else 0)))
        for name, col, want in zip(got._fields, got, map(np.concatenate, zip(*parts))):
            assert col.dtype == want.dtype, name
            np.testing.assert_array_equal(col, want, err_msg=name)

    def test_path_sums_of_a_narrower_tree_are_a_prefix(self):
        """Why one walk may take :func:`_path_sums` at its widest tree."""
        for q in (1, 2, 3):
            for e in range(11):
                wide = _path_sums(e, q)
                for narrow in range(e + 1):
                    for big, small in zip(wide, _path_sums(narrow, q)):
                        np.testing.assert_array_equal(big[: len(small)], small)


class TestAlignment:
    """Why one heap fold per width-``m`` block of ``row_block`` annotates
    a stack: every last-dimension tree starts at a multiple of its width,
    and those trees tile ``row_block`` exactly — so each is a subtree of
    its aligned block's heap."""

    @given(log_m=st.integers(0, 11), r=st.integers(1, 3), count=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_last_dimension_trees_are_aligned_and_tile_row_block(self, log_m, r, count):
        m = 1 << log_m
        last = _layout(m, r, count)[-1]
        starts = np.concatenate([s[:, 0] for s, _parent in last.values()])
        widths = np.repeat(list(last), [len(s) for s, _parent in last.values()])
        assert (starts % widths == 0).all()
        order = np.argsort(starts)
        ends = np.cumsum(widths[order])
        # each tree starts where the one before ends, from 0 to the last
        # row: R(m, r) = m·C(log m + r − 1, r − 1) rows a tree
        assert starts[order].tolist() == [0, *ends[:-1].tolist()]
        assert ends[-1] == count * m * math.comb(log_m + r - 1, r - 1)


class TestClosedFormCover:
    """One dimension, isolated: position arithmetic ≡ the 4-case descent."""

    @given(log_w=st.integers(0, 10), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_cover_and_visits_equal_decompose_counted(self, log_w, data):
        w = 1 << log_w
        top = 4 * w
        keys = np.array(
            sorted(data.draw(st.sets(st.integers(0, top), min_size=w, max_size=w)))
        )
        bound = st.integers(-3, top + 3)  # gaps, a > b, outside the key range
        bounds = data.draw(st.lists(st.tuples(bound, bound), min_size=1, max_size=8))
        seg = SegTree(keys)
        forest = CompiledForest.from_ranks(keys[:, None])
        sel = CompiledForest.walk(
            [forest], np.array([[a] for a, _b in bounds]), np.array([[b] for _a, b in bounds])
        )
        assert (np.diff(sel.q) >= 0).all()
        for q, (a, b) in enumerate(bounds):
            want_nodes, want_visits = seg.decompose_counted(a, b)
            mine = sel.q == q
            # heap id of the node covering [off, off + length)
            got = (w + sel.off[mine]) // sel.length[mine]
            assert got.tolist() == want_nodes
            assert int(sel.visits[q]) == want_visits
            # one tree is one width-w block: its aggregate row is that heap
            # id (a leaf's tail row w + row is too: a 1-d tree's rows ascend)
            assert sel.node[mine].tolist() == want_nodes


class TestWalkBitIdentity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_object_walk(self, d):
        # 48 points pad to n=64 with sentinel pids in the forest
        pts = uniform_points(48, d, seed=30 + d)
        with DistributedRangeTree.build(pts, p=4, semigroup=sum_of_dim(0)) as tree:
            rng = np.random.default_rng(40 + d)
            for leaf, stack, t in forest_elements(tree):
                boxes = _rank_boxes(rng, 25, d, tree.hat.n)
                exp_sels, exp_vis = _object_walk(reference_tree(tree, leaf), boxes)
                got_sels, got_vis = _element_walks(stack, t, boxes)
                # same selections, same per-query emission order
                assert got_sels == exp_sels
                # same visit accounting (empty boxes visit nothing)
                assert got_vis == exp_vis

    def test_single_leaf_elements(self):
        # n == p: every forest element is a single point
        pts = uniform_points(8, 2, seed=51)
        with DistributedRangeTree.build(pts, p=8, semigroup=sum_of_dim(0)) as tree:
            rng = np.random.default_rng(52)
            els = forest_elements(tree)
            assert els and all(stack.width == 1 for _leaf, stack, _t in els)
            for leaf, stack, t in els:
                boxes = _rank_boxes(rng, 12, 2, tree.hat.n)
                assert _object_walk(reference_tree(tree, leaf), boxes) == _element_walks(
                    stack, t, boxes
                )

    def test_empty_batch(self):
        pts = uniform_points(16, 2, seed=53)
        with DistributedRangeTree.build(pts, p=4) as tree:
            _leaf, stack, _t = forest_elements(tree)[0]
            empty = np.empty((0, 2), dtype=np.int64)
            assert all(len(part) == 0 for part in CompiledForest.walk([stack], empty, empty))
            nowhere = np.empty(0, dtype=np.int64)
            sel = CompiledForest.walk([stack], empty, empty, nowhere, nowhere)
            assert all(len(part) == 0 for part in sel)


class TestSeqBatchedAPIs:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batched_match_scalar_both_planes(self, d):
        rng = np.random.default_rng(60 + d)
        pts = make_points("uniform", 37, d, seed=60 + d)
        t = SequentialRangeTree(pts, sum_of_dim(0))
        boxes = random_boxes(rng, 20, d)
        expected = (
            [t.count(b) for b in boxes],
            [t.aggregate(b) for b in boxes],
            [t.report(b) for b in boxes],
        )
        got = (
            t.count_many(boxes),
            t.aggregate_many(boxes),
            t.report_many(boxes),
        )
        assert repr(got) == repr(expected)

    def test_batched_stats_match_scalar(self):
        """The facade's walk charges what the reference object walk
        charges, box for box: visits, selections and reported rows."""
        pts = make_points("uniform", 48, 2, seed=71)
        t = SequentialRangeTree(pts, COUNT)
        ref = seq_reference(t)
        boxes = random_boxes(np.random.default_rng(72), 15, 2)
        for b in boxes:
            rb = t.ranked.to_rank_box(b)
            ref.count(rb)
            ref.report(rb)
        t.count_many(boxes)
        t.report_many(boxes)
        assert (
            ref.stats.nodes_visited,
            ref.stats.nodes_selected,
            ref.stats.points_reported,
        ) == (
            t.stats.nodes_visited,
            t.stats.nodes_selected,
            t.stats.points_reported,
        )


class TestSearchOutputParity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_planes_agree_on_search_output(self, d):
        # a hot spot: oversubscribed groups are replicated, so subqueries
        # are served by *copies* — the forest output must not notice
        pts = make_points("uniform", 48, d, seed=700 + d)
        boxes = random_boxes(np.random.default_rng(800 + d), 10, d)
        boxes += [boxes[0]] * 12
        with DistributedRangeTree.build(pts, p=4, semigroup=sum_of_dim(0)) as tree:
            out = tree.search(boxes, report=True)
            forest_ops = next(
                s.ops for s in tree.metrics.steps if s.label == "search:forest"
            )
            _hat, _exps, forest_sels, pairs, demands, _walk, ref_forest_ops = (
                reference_search(tree, boxes, report=True)
            )
        assert (
            sorted((tuple(f) for per in out.forest_selections for f in per), key=repr)
            == forest_sels
        )
        assert search_pairs(out) == pairs
        assert out.demands == demands
        assert sum(forest_ops) == ref_forest_ops
        assert max(out.copy_counts) > 1
        # step 4's guarantee: nobody serves more than ~|Q'|/p subqueries
        cap = -(-out.total_subqueries // tree.p)
        assert max(out.subqueries_per_proc) <= 2 * cap

    def test_forest_phase_emits_the_pair_sequence(self):
        """Step 5 at one rank, driven directly: the pairs are the real
        points under each reporting query's selections, in selection
        order, then the expansion requests' elements in request order —
        padding sentinels dropped, non-reporting queries absent."""
        pts = uniform_points(48, 2, seed=26)  # pads to 64: sentinel pids
        boxes = random_boxes(np.random.default_rng(27), 10, 2)
        report = np.arange(len(boxes) + 2) % 2 == 1
        report[-2:] = True
        with DistributedRangeTree.build(pts, p=4) as tree:
            ns, mach = tree.construct_result.ns, tree.machine
            los, his = tree.ranked.to_rank_bounds(*Box.stack(boxes))
            # two rank-space rows no real box maps to: all of rank space
            # (the hat's root, 4 expansions, sentinels included) and its
            # upper three quarters (selections inside the padded element)
            los = np.vstack([los, [[0, 0], [16, 16]]])
            his = np.vstack([his, [[63, 63], [63, 63]]])
            _sels, routing, expansions, _visits = walk_hats([tree.hat], 0, [(los, his)], report)
            assert len(expansions) >= 4
            inbox = RecordBatch.concat([routing, expansions])
            owners = np.asarray(inbox.col("location"))
            stacks = {leaf: (stack, t) for leaf, stack, t in forest_elements(tree)}
            dropped = 0
            for owner in range(tree.p):
                mine = inbox.take(np.nonzero(owners == owner)[0])
                raw = []
                for rec in mine:
                    if rec.kind == KIND_SUBQUERY and report[rec.qid]:
                        pids = element_pids(*stacks[rec.element])
                        for sel in reference_tree(tree, rec.element).canonical(
                            RankBox(rec.los, rec.his), stats=WalkStats()
                        ):
                            raw += [(rec.qid, pid) for pid in pids[sel.rows()].tolist()]
                for rec in mine:
                    if rec.kind == KIND_EXPAND:
                        pids = element_pids(*stacks[rec.element])
                        raw += [(rec.qid, pid) for pid in pids.tolist()]
                ctx = ProcContext(
                    rank=owner, p=tree.p, state=mach.backend.states(tree.p)[owner]
                )
                ((sel_b, pair_b),) = get_phase("dist.search.forest_cols")(
                    [ctx], [(mine, (ns,), report)]
                )
                assert set(sel_b.cols) == {"qid", "element", "nleaves", "agg"}
                assert list(pair_b) == [pair for pair in raw if pair[1] >= 0]
                dropped += sum(1 for _q, pid in raw if pid < 0)
            assert dropped, "workload too small: no sentinel reached a pair"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_parity_across_planes_per_backend(self, backend):
        """On every backend the engine answers what the sequential range
        tree answers.  The process backend additionally exercises the
        pickle path: replicated elements arrive as the arrays they are."""
        pts = make_points("clustered", 48, 2, seed=87)
        boxes = random_boxes(np.random.default_rng(88), 9, 2)
        batch = _mixed_batch(boxes)
        seq = SequentialRangeTree(pts)
        with DistributedRangeTree.build(pts, p=4, backend=backend) as tree:
            got = tree.run(batch).values()
        for q, v in zip(batch, got):
            if q.mode == "count":
                assert v == seq.count(q.box)
            elif q.mode == "report":
                assert v == seq.report(q.box)
            else:
                assert v == pytest.approx(bf_aggregate(pts, q.box, q.semigroup))


class TestOneRepresentation:
    def test_pickle_ships_the_arrays(self):
        pts = uniform_points(32, 2, seed=18)
        with DistributedRangeTree.build(pts, p=4) as tree:
            leaf, stack, t = forest_elements(tree)[0]
            clone = pickle.loads(pickle.dumps(stack))
            for mine, theirs in zip(
                (*clone.keys, clone.row_block, clone.pids, clone.aggs.data),
                (*stack.keys, stack.row_block, stack.pids, stack.aggs.data),
            ):
                np.testing.assert_array_equal(mine, theirs)
            assert (clone.span, clone.width) == (stack.span, stack.width)
            assert clone.size_records == stack.size_records
            rng = np.random.default_rng(19)
            boxes = _rank_boxes(rng, 10, 2, tree.hat.n)
            assert _element_walks(clone, t, boxes) == _object_walk(
                reference_tree(tree, leaf), boxes
            )


class TestCompileCache:
    """Named for the bug class it guards; the cache itself is gone."""

    def test_refit_then_query_matches_object_plane(self):
        """The PR 8 cache-discipline bug class, on the forest side: a
        per-query-semigroup refit must never leave stale aggregates
        behind — there is no cache left to go stale, only the aggregate
        columns the refit rebinds on the stacks it keeps."""
        pts = uniform_points(32, 2, seed=16)
        with DistributedRangeTree.build(pts, p=4) as tree:
            held = [dict(store) for store in tree.forest_store]
            boxes = random_boxes(np.random.default_rng(17), 6, 2)
            batch = QueryBatch([aggregate(b, sum_of_dim(1)) for b in boxes])
            rs = tree.run(batch)  # refits in place
            assert all(
                store[j] is stack
                for store, kept in zip(tree.forest_store, held)
                for j, stack in kept.items()
            )
            # stale aggregates would still be counts, not sums
            assert rs.values() == pytest.approx(
                [bf_aggregate(pts, b, sum_of_dim(1)) for b in boxes]
            )

    def test_memoized_shape_arrays_are_read_only(self):
        """Every stack and walk of one shape shares the memoized layout,
        path sums, cover bits and tree step: an in-place write into one
        must raise instead of corrupting every later build and walk."""
        shared = [*_path_sums(4, 3), *_cover_bits(5), _tree_step(8, 3)]
        shared += [a for level in _layout(8, 3, 2) for pair in level.values() for a in pair]
        assert len(shared) > 5
        for a in shared:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] += 1
        for level in _layout(8, 3, 2):
            with pytest.raises(TypeError):
                level[1] = level[next(iter(level))]


class TestTilingEquivalence:
    def test_row_tilings_match_rows_under(self):
        """Every last-dimension node's ``row_block`` slice and aggregate —
        read at its block-heap row — is the object tree's ``rows_under``
        and aggregate, compared node for node in emission order, for every
        tree of every stack."""
        for tree, leaf, stack, t in _every_element(seed=21):
            every = list(_emission_nodes(reference_tree(tree, leaf).root_tree))
            assert len(every) == stack.size_nodes // stack.shape[0]
            want = [(node[0].tolist(), repr(node[1])) for node in every if node is not None]
            nodes = last_dim_nodes(stack, t)
            aggs = stack.aggs.take(np.array([row for _off, _w, row in nodes])).to_list()
            got = [
                ((stack.row_block[off : off + w] - t * stack.width).tolist(), repr(agg))
                for (off, w, _row), agg in zip(nodes, aggs)
            ]
            assert got == want

    def test_pid_block_matches_selection_pids(self):
        # padded build: sentinel (negative) pids live in the stacks
        pts = uniform_points(48, 2, seed=22)
        with DistributedRangeTree.build(pts, p=4) as tree:
            els = forest_elements(tree)
            # 48 points pad to 64: sentinels live in the high-rank elements
            assert any((element_pids(stack, t) < 0).any() for _l, stack, t in els)
            boxes = _rank_boxes(np.random.default_rng(23), 8, 2, tree.hat.n)
            for leaf, stack, t in els:
                ref = reference_tree(tree, leaf)
                sel = CompiledForest.walk([stack], *rank_bounds(boxes), np.full(len(boxes), t))
                got = stack.pids[stack.rows_flat(sel.off, sel.length)]
                want = [
                    element_pids(stack, t)[sel.rows()]
                    for box in boxes
                    for sel in ref.canonical(box, stats=WalkStats())
                ]
                np.testing.assert_array_equal(
                    got, np.concatenate(want) if want else np.empty(0, np.int64)
                )

    def test_pids_are_in_primary_rank_order(self):
        """What the in-pass hat-piece expansion emits: an element's pids
        as held, which is ascending primary-dimension rank."""
        pts = uniform_points(32, 2, seed=24)
        with DistributedRangeTree.build(pts, p=4) as tree:
            for leaf, stack, t in forest_elements(tree):
                pids = element_pids(stack, t)
                np.testing.assert_array_equal(
                    pids, pids[reference_tree(tree, leaf).root_tree.order]
                )

    def test_kernel_agg_matrix_matches_decoded(self):
        """Each real last-dimension node's raw kernel row decodes to the
        object tree's aggregate (the oracle folds Python values over the
        same child pairs), and each tree's root is its ``root_aggs``."""
        several = False
        for tree, leaf, stack, t in _every_element(seed=25):
            several |= stack.shape[0] > 1
            kernel = stack.aggs.kernel
            assert kernel == tree.semigroup.kernel
            ref = reference_tree(tree, leaf)
            want = [repr(node[1]) for node in _emission_nodes(ref.root_tree) if node is not None]
            rows = [row for _off, _w, row in last_dim_nodes(stack, t)]
            assert [repr(kernel.decode(stack.aggs.data[[j]], 0)) for j in rows] == want
            # emission opens on the root of the root's last-dimension tree
            assert repr(stack.root_aggs()[t]) == want[0]
        assert several, "want a stack of several trees"
