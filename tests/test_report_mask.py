"""A query folds or it reports: one bool mask over the batch says which.

The mask is the only thing that differs between a pass whose queries
fold and one whose queries report, so everything else must not notice
it: the selections Algorithm Search emits, the hat walk's charged ops
and the comm-round sequence are those of the unmasked pass; what the
mask adds is exactly the ``(qid, pid)`` pairs of the masked queries —
the brute-force answer, nothing for the rest — and the forest phase's
charge for expanding their hat selections.  (The parent commit's charged
ops and h-relations for a fixed masked pass are pinned as literals in
``tests/test_cheap_supersteps.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm import Machine
from repro.dist import DistributedRangeTree
from repro.dist.search import run_search
from repro.errors import ReproError
from repro.geometry import Box
from repro.seq import bf_report
from repro.workloads import make_points

DIMS = (1, 2, 3)


@pytest.fixture(
    scope="module",
    params=[(b, p) for b in ("serial", "process") for p in (2, 4, 8)],
    ids=lambda bp: f"{bp[0]}-p{bp[1]}",
)
def trees(request):
    """One tree per dimension on one shared machine: 48 points pad to
    64, so the high-rank elements hold sentinel pids."""
    backend, p = request.param
    with Machine(p, backend=backend) as mach:
        built = {}
        for d in DIMS:
            pts = make_points("uniform", 48, d, seed=30 + d)
            built[d] = pts, DistributedRangeTree.build(pts, machine=mach)
        yield built
        for _pts, tree in built.values():
            tree.close()


@st.composite
def interval(draw):
    """Full-range, from below every point (the wide boxes that resolve
    inside the hat), or anywhere."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return (-1.0, 2.0)
    unit = st.floats(0.0, 1.0, allow_nan=False, width=32)
    if kind == 1:
        return (-0.5, draw(unit))
    a, b = draw(unit), draw(unit)
    return (min(a, b), max(a, b))


@st.composite
def masked_batch(draw):
    d = draw(st.sampled_from(DIMS))
    boxes = draw(
        st.lists(st.lists(interval(), min_size=d, max_size=d).map(Box), min_size=1, max_size=8)
    )
    mask = draw(
        st.one_of(
            st.just([False] * len(boxes)),
            st.just([True] * len(boxes)),
            st.lists(st.booleans(), min_size=len(boxes), max_size=len(boxes)),
        )
    )
    return d, boxes, np.array(mask)


def _hat_rows(out) -> list:
    return [
        [(h.qid, h.node, h.nleaves, repr(h.agg)) for h in per] for per in out.hat_selections
    ]


def _steps(tree, boxes, mask):
    out = tree.search(boxes, report=mask)
    m = tree.metrics
    ops = {s.label: tuple(s.ops) for s in m.compute_steps()}
    return out, ops, [(s.label, s.sent, s.received) for s in m.comm_steps()]


@settings(max_examples=40, deadline=None)
@given(case=masked_batch())
def test_the_mask_adds_the_masked_queries_points_and_nothing_else(trees, case):
    d, boxes, mask = case
    pts, tree = trees[d]
    bare, bare_ops, bare_rounds = _steps(tree, boxes, False)
    out, ops, rounds = _steps(tree, boxes, mask)

    # (a) the selection rows do not depend on the mask
    assert [list(per) for per in out.forest_selections] == [
        list(per) for per in bare.forest_selections
    ]
    assert _hat_rows(out) == _hat_rows(bare)
    # ... and the routing round carries, beside the subqueries, one expansion
    # request per hat leaf under each masked query's hat selections
    assert sum(bare_rounds[-1][1]) == bare.total_subqueries == out.total_subqueries
    tiled = [h for per in out.hat_selections for h in per if mask[h.qid]]
    assert sum(rounds[-1][1]) - out.total_subqueries == sum(
        int(tree.hat.shape.tile_len[h.node]) for h in tiled
    )

    # (b) the pairs are brute force for the masked queries, nothing for the rest
    assert not sum(len(per) for per in bare.report_pairs)
    reported: list = [[] for _ in boxes]
    for per in out.report_pairs:
        for qid, pid in per:
            reported[qid].append(pid)
    assert [sorted(ids) for ids in reported] == [
        bf_report(pts, box) if on else [] for box, on in zip(boxes, mask)
    ]

    # (c) the mask moves no round and charges only the expansions it asks for
    assert [label for label, _s, _r in rounds] == [label for label, _s, _r in bare_rounds]
    assert rounds[:-1] == bare_rounds[:-1]  # all but search:route-subqueries
    assert ops["search:walk"] == bare_ops["search:walk"]
    assert sum(ops["search:forest"]) - sum(bare_ops["search:forest"]) == sum(
        h.nleaves for h in tiled
    )


@pytest.mark.parametrize("bad", [[True], [True] * 4, np.ones((3, 1), dtype=bool)])
def test_a_mask_of_the_wrong_length_is_refused_before_any_phase(bad):
    pts = make_points("uniform", 32, 2, seed=5)
    boxes = [Box.full(2, -1.0, 2.0)] * 3
    with DistributedRangeTree.build(pts, p=4) as tree:
        with pytest.raises(ReproError, match=r"m=3 queries") as err:
            tree.search(boxes, report=bad)
        assert str(np.shape(bad)) in str(err.value)
        assert not tree.metrics.steps
        # one flag and no flag still broadcast
        assert sum(len(b) for b in tree.search(boxes, report=True).report_pairs) == 96
        ns = tree.construct_result.ns
        bounds = tree.ranked.to_rank_bounds(*Box.stack(boxes))
        out = run_search(tree.machine, [(ns, bounds)], report=None)
        assert not sum(len(b) for b in out.report_pairs)
