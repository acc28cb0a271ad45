"""The semigroup kernel engine: the ``kernel`` field, folds, and value parity.

The engine's contract is *bit-identity*: every kernel-backed fold must
reproduce the semigroup's own ``combine`` values exactly — same bits,
same Python types — across every builtin semigroup, empty and
single-element segments, and negative/sentinel pids.  These tests check
the kernels in isolation (encode/decode round trips, segmented folds vs
``Semigroup.fold``, heap folds vs the bottom-up loop) and end to end:
a builtin (typed kernel columns) against the same semigroup without its
kernel — :func:`tests.helpers.unkernelized`, and a hand-built
``Semigroup`` over the builtin's own functions — (an
:class:`~repro.semigroup.kernels.ObjectKernel`: object columns +
``combine``) on mixed batches in d = 1..3.  The kernel properties take
an ``ObjectKernel`` as one more input: over a typed builtin it decodes
to the typed kernel's values bit for bit; over a semigroup without a
typed form it folds segments left from their first row and heaps
pairwise, like the per-node ``combine`` loop.
"""

from __future__ import annotations

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm import columns
from repro.cgm.columns import estimate_object_bytes
from repro.dist import DistributedRangeTree
from repro.query import QueryBatch, aggregate, count, report, top_k
from repro.semigroup import (
    COUNT,
    ProductSemigroup,
    Semigroup,
    bounding_box_semigroup,
    count_semigroup,
    histogram_of_dim,
    id_set,
    max_of_dim,
    min_of_dim,
    moments_of_dim,
    product_semigroup,
    sum_of_dim,
    top_k_ids,
    vector_sum_group,
)
from repro.semigroup.kernels import (
    KernelColumn,
    ObjectKernel,
    batched_heap_fold,
    fold_segments,
    lift_kernel_column,
)
from repro.seq import bf_aggregate, bf_count
from repro.workloads import selectivity_queries, uniform_points

from tests.helpers import unkernelized


def _random_values(sg: Semigroup, n: int, d: int, rng: random.Random):
    """Lift ``n`` random points through ``sg`` (plain semigroup values)."""
    out = []
    for i in range(n):
        coords = [rng.uniform(-100, 100) for _ in range(d)]
        out.append(sg.lift(i, coords))
    return out


def _kernelizable(d: int):
    return [
        count_semigroup(),
        sum_of_dim(0),
        min_of_dim(0),
        max_of_dim(d - 1),
        bounding_box_semigroup(d),
        product_semigroup(
            [COUNT, sum_of_dim(0), max_of_dim(0), bounding_box_semigroup(d)]
        ),
    ]


def _max_pair(pid, coords):
    return (float(coords[0]), pid)


#: a user semigroup over module-level functions: it pickles
USER = Semigroup("user-max", _max_pair, max, (-math.inf, -1))


def _object_semigroups(d: int):
    """Semigroups without a typed form, a lambda one included."""
    return [
        id_set(),
        top_k_ids(2),
        moments_of_dim(0),
        histogram_of_dim(0, [-50.0, 0.0, 50.0]),
        vector_sum_group(d),
        USER,
        Semigroup("lambda-min", lambda p, c: (float(c[-1]), p), min, (math.inf, -1)),
    ]


def _object_kernels(d: int):
    """``(semigroup, ObjectKernel)`` pairs: over every typed builtin (its
    object twin) and over every semigroup without a typed form."""
    return [(sg, ObjectKernel(sg)) for sg in _kernelizable(d)] + [
        (sg, sg.kernel) for sg in _object_semigroups(d)
    ]


# ---------------------------------------------------------------------------
# the kernel field: set by the builtin constructors, else an ObjectKernel
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("d", [1, 2, 3])
def test_builtins_resolve_to_kernels(d):
    for sg in _kernelizable(d):
        assert not isinstance(sg.kernel, ObjectKernel), sg.name


def test_unkernelizable_semigroups_resolve_to_none():
    """No typed form: the semigroup resolves to an object kernel over its
    own functions (the field is never ``None``)."""
    for sg in (
        id_set(),
        top_k_ids(3),
        moments_of_dim(0),
        histogram_of_dim(0, [0.5]),
        product_semigroup([COUNT, top_k_ids(2)]),  # one bad component
        Semigroup("count", lambda p, c: 1, lambda a, b: max(a, b), 0),
    ):
        assert isinstance(sg.kernel, ObjectKernel) and sg.kernel.semigroup is sg, sg.name


def _handbuilt(sg: Semigroup) -> Semigroup:
    """``sg`` rebuilt by hand from its own ``lift``/``combine``/``identity``:
    nothing sniffs those functions, so no kernel comes along."""
    if isinstance(sg, ProductSemigroup):
        return product_semigroup([_handbuilt(c) for c in sg.components])
    return Semigroup(sg.name, sg.lift, sg.combine, sg.identity)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_handbuilt_semigroup_over_builtin_functions_has_no_kernel(d):
    for sg in _kernelizable(d):
        twin = _handbuilt(sg)
        assert isinstance(twin.kernel, ObjectKernel) and twin != sg, sg.name


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernelized_semigroup_pickles_with_an_equal_kernel(d):
    for sg in _kernelizable(d):
        back = pickle.loads(pickle.dumps(sg))
        assert back.kernel == sg.kernel and back.kernel is not sg.kernel
        assert back.kernel.col_ops == sg.kernel.col_ops
        # the object twin crosses a process boundary too
        twin = pickle.loads(pickle.dumps(unkernelized(sg)))
        assert isinstance(twin.kernel, ObjectKernel) and twin.name == sg.name
        assert twin.kernel.semigroup is twin


# ---------------------------------------------------------------------------
# encode/decode round trips (bits AND types)
# ---------------------------------------------------------------------------
def _assert_same_value(a, b):
    assert type(a) is type(b), (a, b)
    if isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same_value(x, y)
    else:
        assert repr(a) == repr(b), (a, b)  # repr equality == bit equality


@pytest.mark.parametrize("d", [1, 2, 3])
def test_encode_decode_roundtrip_bit_identical(d):
    rng = random.Random(d)
    kernels = [(sg, sg.kernel) for sg in _kernelizable(d)] + _object_kernels(d)
    for sg, kernel in kernels:
        values = _random_values(sg, 40, d, rng) + [sg.identity]
        mat = kernel.encode(values)
        assert mat.shape == (len(values), kernel.width)
        for i, v in enumerate(values):
            _assert_same_value(kernel.decode(mat, i), v)
        assert kernel.decode_list(mat) == values
        for got, v in zip(kernel.decode_list(mat), values):
            _assert_same_value(got, v)


# ---------------------------------------------------------------------------
# segmented folds vs Semigroup.fold — every builtin, empty/single segments
# ---------------------------------------------------------------------------
def _segments(rng: random.Random, n: int):
    """A random segmentation of ``n`` rows after an empty and a one-row
    segment (only the last non-empty segment may end at row ``n``)."""
    cuts = sorted(rng.randrange(0, n + 1) for _ in range(6))
    bounds = [0] + cuts + [n]
    segs = [(0, 0)] + [(0, 1)] * (n > 1) + list(zip(bounds[:-1], bounds[1:]))
    return tuple(np.asarray(col, dtype=np.int64) for col in zip(*segs))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fold_segments_matches_object_fold(d, seed):
    rng = random.Random(seed * 10 + d)
    for sg in _kernelizable(d):
        kernel = sg.kernel
        n = rng.randrange(1, 120)
        values = _random_values(sg, n, d, rng)
        mat = kernel.encode(values).astype(np.float64)
        starts, ends = _segments(rng, n)
        folded = fold_segments(kernel, mat, starts, ends)
        # the object twin folds the same segments to the same bits
        twin = ObjectKernel(sg)
        by_object = fold_segments(twin, twin.encode(values), starts, ends)
        for i, (s, e) in enumerate(zip(starts, ends)):
            expected = sg.fold(values[s:e])
            _assert_same_value(kernel.decode_row(folded[i]), expected)
            _assert_same_value(twin.decode_row(by_object[i]), kernel.decode_row(folded[i]))
    # no typed form: each segment is the left fold from its first row
    for sg in _object_semigroups(d):
        n = rng.randrange(1, 120)
        values = _random_values(sg, n, d, rng)
        starts, ends = _segments(rng, n)
        folded = fold_segments(sg.kernel, sg.kernel.encode(values), starts, ends)
        for i, (s, e) in enumerate(zip(starts, ends)):
            expected = sg.identity
            if e > s:
                expected = values[s]
                for v in values[s + 1 : e]:
                    expected = sg.combine(expected, v)
            _assert_same_value(sg.kernel.decode_row(folded[i]), expected)


def test_fold_segments_float_sum_is_sequential_left_fold():
    # pathological magnitudes where pairwise and sequential summation differ
    rng = random.Random(7)
    sg = sum_of_dim(0)
    kernel = sg.kernel
    values = [rng.uniform(-1, 1) * 10 ** rng.randrange(-8, 8) for _ in range(257)]
    mat = kernel.encode(values).astype(np.float64)
    folded = fold_segments(
        kernel, mat, np.asarray([0], dtype=np.int64), np.asarray([257], dtype=np.int64)
    )
    _assert_same_value(kernel.decode_row(folded[0]), sg.fold(values))


#: float-add, min and int-add columns in one kernel
_MIXED = product_semigroup([sum_of_dim(0), min_of_dim(1), COUNT]).kernel


@st.composite
def _segmented_rows(draw):
    """Rows of pathological float magnitudes and segments over them in any
    order, with gaps, of unequal lengths (empty and length-1 included);
    only the last non-empty segment may end at the last row, as in the
    engine's runs (``reduceat`` reads one past each end)."""
    n = draw(st.integers(1, 60))
    sums = draw(
        st.lists(
            st.builds(lambda x, k: x * 10.0**k, st.floats(-1, 1), st.integers(-8, 8)),
            min_size=n,
            max_size=n,
        )
    )
    mins = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    segs = []
    for _ in range(draw(st.integers(1, 8))):
        s = draw(st.integers(0, n))
        segs.append((s, draw(st.integers(s, n))))
    tail = [se for se in segs if se[0] < se[1] == n][:1]
    segs = [se for se in segs if not se[0] < se[1] == n] + tail
    return np.array([sums, mins, counts], dtype=np.float64).T.copy(), segs


@settings(max_examples=150, deadline=None)
@given(case=_segmented_rows())
def test_fold_segments_folds_each_segment_left_in_row_order(case):
    """Whatever order the segments come in, each one's float sum is its own
    left fold in row order — not a right fold, not a pairwise sum — and
    its min and count columns are exact: the fold is bit-identical."""
    mat, segs = case
    starts = np.array([s for s, _e in segs], dtype=np.int64)
    ends = np.array([e for _s, e in segs], dtype=np.int64)
    want = np.empty((len(segs), 3))
    for i, (s, e) in enumerate(segs):
        row = list(_MIXED.identity_row)
        if e > s:
            row = mat[s].tolist()
            for x, y, c in mat[s + 1 : e].tolist():
                row = [row[0] + x, min(row[1], y), row[2] + c]
        want[i] = row
    assert fold_segments(_MIXED, mat, starts, ends).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# heap folds vs the bottom-up object loop
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("m", [1, 2, 8, 64])
def test_heap_fold_matches_pairwise_combine(m):
    rng = random.Random(m)
    kernels = [(sg, sg.kernel) for sg in _kernelizable(2)] + _object_kernels(2)
    for sg, kernel in kernels:
        values = _random_values(sg, m, 2, rng)
        heap = batched_heap_fold(kernel, kernel.encode(values)[None])[0]
        # reference: the bottom-up ``combine`` loop of _build_aggs
        aggs = [None] * (2 * m)
        for k in range(m):
            aggs[m + k] = values[k]
        for node in range(m - 1, 0, -1):
            aggs[node] = sg.combine(aggs[2 * node], aggs[2 * node + 1])
        for node in range(1, 2 * m):
            _assert_same_value(kernel.decode(heap, node), aggs[node])


def test_batched_heap_fold_matches_per_tree():
    rng = random.Random(3)
    sg = product_semigroup([COUNT, sum_of_dim(0), bounding_box_semigroup(2)])
    kernel = sg.kernel
    trees = [kernel.encode(_random_values(sg, 8, 2, rng)) for _ in range(5)]
    batched = batched_heap_fold(kernel, np.stack(trees))
    for i, leaves in enumerate(trees):
        assert np.array_equal(batched[i], batched_heap_fold(kernel, leaves[None])[0])


# ---------------------------------------------------------------------------
# vectorized lifts
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lift_kernel_column_matches_pointwise_lift(d):
    pts = uniform_points(37, d, seed=5)
    n_total = 64  # power-of-two padding: rows past n_real are sentinels
    for sg in _kernelizable(d):
        kernel = sg.kernel
        col = lift_kernel_column(kernel, pts.coords, n_total)
        assert len(col) == n_total
        for i in range(len(pts)):
            _assert_same_value(
                col[i], sg.lift(pts.point_id(i), pts.coords[i])
            )
        for i in range(len(pts), n_total):
            _assert_same_value(col[i], sg.identity)


# ---------------------------------------------------------------------------
# KernelColumn: the batch-column protocol
# ---------------------------------------------------------------------------
def test_kernel_column_ops_and_exact_nbytes():
    sg = bounding_box_semigroup(2)
    kernel = sg.kernel
    rng = random.Random(0)
    values = _random_values(sg, 20, 2, rng)
    col = KernelColumn.from_values(kernel, values)
    assert list(col) == values
    assert col.nbytes == col.data.nbytes  # exact, never sampled
    taken = col.take(np.asarray([3, 1, 1, 17]))
    assert [taken[i] for i in range(4)] == [values[3], values[1], values[1], values[17]]
    assert list(col.islice(5, 9)) == values[5:9]
    assert list(col[5:9]) == values[5:9]
    rep = col.islice(0, 3).repeat(2)
    assert list(rep) == [values[0]] * 2 + [values[1]] * 2 + [values[2]] * 2
    cat = KernelColumn.concat([col.islice(0, 2), col.islice(4, 5)])
    assert list(cat) == values[0:2] + values[4:5]


def test_kernel_column_pickles():
    kernel = sum_of_dim(0).kernel
    col = KernelColumn(kernel, np.asarray([[1.5], [2.5]]))
    back = pickle.loads(pickle.dumps(col))
    assert list(back) == [1.5, 2.5]
    assert back.kernel == kernel
    # object columns cross a pickle too (a lambda semigroup's cannot)
    rng = random.Random(9)
    for sg, kernel in _object_kernels(2):
        if sg.name.startswith("lambda"):
            continue
        values = _random_values(sg, 5, 2, rng)
        back = pickle.loads(pickle.dumps(KernelColumn.from_values(kernel, values)))
        assert back.kernel == kernel and back.kernel.semigroup.name == sg.name
        for got, v in zip(back.to_list(), values):
            _assert_same_value(got, v)
        assert fold_segments(back.kernel, back.data, [0], [5])[0, 0] == sg.fold(values)


# ---------------------------------------------------------------------------
# end-to-end value parity: builtin (kernel columns) vs kernel-less (object)
# ---------------------------------------------------------------------------
_VARIANTS = {
    "builtin": lambda sg: sg,
    "wrapped": unkernelized,
    "handbuilt": _handbuilt,
}


def _assert_variants_agree(outs: dict) -> None:
    for name in _VARIANTS:
        assert outs[name] == outs["builtin"], name


def _mixed_batch(d: int, variant, topk: bool, m: int = 36):
    """Kernelized counts, reports and four aggregates (kernelized or
    not, per ``variant``) sharing one pass — with ``topk``, a
    non-kernelizing top-k rides along and the annotation product it
    joins falls back to object storage for every layer."""
    boxes = selectivity_queries(m, d, seed=21, selectivity=0.15)
    sgs = [
        variant(sg)
        for sg in (
            sum_of_dim(0),
            min_of_dim(0),
            max_of_dim(d - 1),
            bounding_box_semigroup(d),
        )
    ]
    qs = []
    for i, b in enumerate(boxes):
        k = i % 7
        if k == 0:
            qs.append(count(b))
        elif k == 1:
            qs.append(report(b))
        elif k == 2:
            qs.append(top_k(b, k=2) if topk else count(b))
        else:
            qs.append(aggregate(b, sgs[k % 4]))
    return QueryBatch(qs)


def _strip_nondeterministic(d):
    """Drop wall clock and byte figures: the two value representations
    must agree on answers, rounds, and h-relations bit for bit, while
    routed *bytes* legitimately differ (kernel columns report exact
    sizes, object columns a sampled estimate)."""
    if isinstance(d, dict):
        return {
            k: _strip_nondeterministic(v)
            for k, v in d.items()
            if k not in ("wall_seconds", "comm_bytes", "sent_bytes")
        }
    if isinstance(d, list):
        return [_strip_nondeterministic(x) for x in d]
    return d


@pytest.mark.parametrize("d", [1, 2, 3])
def test_planes_bit_identical_end_to_end(d):
    # n = 13 forces power-of-two padding => negative sentinel pids ride
    # every routed round and must fold to identity in both representations
    pts = uniform_points(13 if d < 3 else 29, d, seed=31)
    dicts = {}
    for name, variant in _VARIANTS.items():
        plain = _mixed_batch(d, variant, topk=False)
        batch = _mixed_batch(d, variant, topk=True)
        with DistributedRangeTree.build(pts, p=4) as tree:
            rs0 = tree.run(plain)  # lazy refit to a 5-layer product
            assert isinstance(tree.semigroup.kernel, ObjectKernel) == (name != "builtin")
            rs1 = tree.run(batch)  # refit again: top-k joins the product
            assert isinstance(tree.semigroup.kernel, ObjectKernel)
            rs2 = tree.run(batch)  # cached annotation
            dicts[name] = [
                repr(_strip_nondeterministic(rs.to_dict()))
                for rs in (rs0, rs1, rs2)
            ]
        for q, got in zip(batch, rs1.values()):
            if q.mode == "count":
                assert got == bf_count(pts, q.box)
            elif q.mode == "aggregate":
                # the tree's fold association differs from a linear scan,
                # so float sums agree with brute force only approximately
                # (extremes and boxes are exact)
                want = bf_aggregate(pts, q.box, q.semigroup)
                assert got == (pytest.approx(want) if isinstance(want, float) else want)
    _assert_variants_agree(dicts)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_build_semigroup_kernelized_or_not_agree(d):
    """The *declared* semigroup decides the storage kernel at build: same
    answers, rounds and h-relations from typed and object storage."""
    pts = uniform_points(45, d, seed=33)
    base = product_semigroup([COUNT, sum_of_dim(0), bounding_box_semigroup(d)])
    boxes = selectivity_queries(18, d, seed=34, selectivity=0.2)
    batch = QueryBatch(
        [aggregate(b) if i % 2 else count(b) for i, b in enumerate(boxes)]
    )
    dicts = {}
    for name, variant in _VARIANTS.items():
        with DistributedRangeTree.build(pts, p=4, semigroup=variant(base)) as tree:
            assert isinstance(tree.semigroup.kernel, ObjectKernel) == (name != "builtin")
            assert tree.hat.aggs.kernel == tree.semigroup.kernel
            built = tree.metrics
            rs = tree.run(batch)
            # construct + search + demux: every round's h-relation
            rounds = [
                (s.label, s.sent, s.received)
                for m in (built, rs.metrics)
                for s in m.comm_steps()
            ]
            dicts[name] = (repr(_strip_nondeterministic(rs.to_dict())), rounds)
    _assert_variants_agree(dicts)


def test_refit_from_kernel_to_object_storage_and_back():
    """The storage kernel follows every refit (it *is* the annotation
    semigroup's ``kernel`` field): typed -> object -> typed, with the
    answers bit-identical throughout."""
    pts = uniform_points(50, 2, seed=35)
    sg = sum_of_dim(1)
    boxes = selectivity_queries(10, 2, seed=36, selectivity=0.25)
    batch = [aggregate(b) for b in boxes]
    want = [bf_aggregate(pts, b, sg) for b in boxes]
    with DistributedRangeTree.build(pts, p=4, semigroup=sg) as tree:
        assert tree.hat.aggs.kernel == sg.kernel
        first = tree.run(batch)
        tree.reannotate(unkernelized(sg))
        assert isinstance(tree.hat.aggs.kernel, ObjectKernel)
        second = tree.run(batch)
        tree.reannotate(sg)
        assert tree.hat.aggs.kernel == sg.kernel
        third = tree.run(batch)
    for rs in (second, third):
        for got, same, exp in zip(rs.values(), first.values(), want):
            _assert_same_value(got, same)
            assert got == pytest.approx(exp)
        assert rs.rounds == first.rounds and rs.max_h == first.max_h


# a semigroup that cannot read the tree's points: typed error, tree untouched
_UNREADABLE = {
    "min[x5]": lambda: min_of_dim(5),  # kernel lift: coordinate out of range
    "bbox[3d]": lambda: bounding_box_semigroup(3),  # kernel lift: 3-d on 2-d
    "min[x5]-object": lambda: unkernelized(min_of_dim(5)),  # per-point lift
}


@pytest.mark.parametrize("via", ["reannotate", "per-query"])
@pytest.mark.parametrize("bad", list(_UNREADABLE))
def test_failed_refit_leaves_the_tree_as_it_was(bad, via):
    """A refit lifts before it rebinds anything: after the failure the
    tree still *says* and *answers* ``sum[x0]`` — it used to answer the
    x0 sum under a ``min[x5]`` label."""
    from repro.errors import DimensionMismatch
    from repro.geometry import Box

    pts = uniform_points(20, 2, seed=81)
    box = Box.full(2, 0.0, 1.0)
    sg = sum_of_dim(0)
    error = IndexError if bad.endswith("-object") else DimensionMismatch
    with DistributedRangeTree.build(pts, p=4, semigroup=sg) as tree:
        before = tree.run([aggregate(box)]).values()
        with pytest.raises(error):
            if via == "reannotate":
                tree.reannotate(_UNREADABLE[bad]())
            else:  # the engine's lazy refit, and its rollback
                tree.run([aggregate(box, _UNREADABLE[bad]())])
        assert tree.semigroup is sg and tree.base_semigroup is sg
        assert tree.semigroup.kernel == sg.kernel == tree.hat.aggs.kernel
        after = tree.run([aggregate(box)]).values()
    _assert_same_value(after[0], before[0])
    assert after[0] == pytest.approx(bf_aggregate(pts, box, sg))


def test_kernel_plane_is_the_default_and_annotates_typed():
    pts = uniform_points(64, 2, seed=41)
    with DistributedRangeTree.build(pts, p=4, semigroup=sum_of_dim(0)) as tree:
        assert not isinstance(tree.hat.aggs.kernel, ObjectKernel)
        rs = tree.run([aggregate(b) for b in selectivity_queries(8, 2, seed=42)])
        assert len(rs.values()) == 8


def test_empty_and_single_element_queries_agree():
    pts = uniform_points(32, 2, seed=51)
    # a box that matches nothing and one matching a single point
    from repro.geometry import Box

    empty = Box([(1e6, 1e7), (1e6, 1e7)])
    single = Box(
        [
            (pts.coords[0][0] - 1e-9, pts.coords[0][0] + 1e-9),
            (pts.coords[0][1] - 1e-9, pts.coords[0][1] + 1e-9),
        ]
    )
    outs = {}
    for name, variant in _VARIANTS.items():
        sgs = [
            variant(sg)
            for sg in (sum_of_dim(0), bounding_box_semigroup(2), min_of_dim(1))
        ]
        batch = QueryBatch(
            [aggregate(empty, sg) for sg in sgs]
            + [aggregate(single, sg) for sg in sgs]
            + [count(empty), count(single)]
        )
        with DistributedRangeTree.build(pts, p=4) as tree:
            outs[name] = repr(tree.run(batch).values())
    _assert_variants_agree(outs)
    # empty aggregates are the identities, typed or not
    vals = eval(outs["builtin"], {"inf": math.inf})
    assert vals[0] == 0.0 and vals[2] == math.inf and vals[6] == 0


def test_object_storage_with_kernel_demux_counts():
    """Count queries fold typed even when the tree's storage is object
    (an unkernelizable tree)."""
    pts = uniform_points(48, 2, seed=61)
    boxes = selectivity_queries(12, 2, seed=62, selectivity=0.2)
    with DistributedRangeTree.build(pts, p=4, semigroup=id_set()) as tree:
        assert isinstance(tree.semigroup.kernel, ObjectKernel)  # id_set has no typed form
        plan = tree.engine.plan(QueryBatch([count(b) for b in boxes]))
        assert tree.engine._fold_kernels(plan) == [COUNT.kernel]
        counts = tree.run([count(b) for b in boxes]).values()
    assert counts == [bf_count(pts, b) for b in boxes]


# ---------------------------------------------------------------------------
# satellite: deterministic (seeded) object-bytes sampling
# ---------------------------------------------------------------------------
def test_estimate_object_bytes_is_deterministic_and_seeded():
    items = [tuple(range(i % 7)) for i in range(1000)]
    a = estimate_object_bytes(items)
    b = estimate_object_bytes(items)
    assert a == b  # reproducible run to run
    # exact for short streams
    small = [(1, 2), (3,)]
    assert estimate_object_bytes(small) == sum(
        columns.estimate_nbytes(x) for x in small
    )


def test_object_plane_comm_bytes_reproducible():
    """Object value columns report a *sampled* byte estimate; the seeded
    sampler keeps ``comm_bytes`` reproducible run to run."""
    pts = uniform_points(64, 2, seed=71)
    sg = unkernelized(sum_of_dim(0))
    batch = QueryBatch(
        [aggregate(b) for b in selectivity_queries(16, 2, seed=72, selectivity=0.2)]
    )
    totals = []
    for _ in range(2):
        with DistributedRangeTree.build(pts, p=4, semigroup=sg) as tree:
            build_bytes = tree.metrics.total_comm_bytes
            rs = tree.run(batch)
            totals.append((build_bytes, rs.metrics.total_comm_bytes))
    assert totals[0] == totals[1]
