"""A node has one name from Construct to Search: its hat row.

Construct names groups, elements and segment trees by the ``(p, d)``
:class:`~repro.dist.hat.HatShape` — an S-record carries one int64 tree
key, the step-5 broadcast ``(row, lo, hi, agg)`` — so no Definition 2
path crosses a round.  The property below builds over random ``n`` on
every small ``(p, d)`` and checks the build against the validator, brute
force, Corollary 1's round count and the §6 caveat's record counts.
"""

from __future__ import annotations

from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util import ilog2
from repro.cgm.machine import Machine
from repro.dist import DistributedRangeTree, validate_tree
from repro.query import count
from repro.seq import bf_count
from repro.workloads import uniform_points

from tests.helpers import random_boxes


@given(
    p=st.sampled_from([1, 2, 4, 8, 16]),
    d=st.integers(1, 3),
    n=st.integers(1, 200),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_construct_names_nodes_by_hat_row(p, d, n, seed):
    shipped = []  # every batch a Construct round routes
    real = Machine.exchange_batches

    def spy(self, label, outboxes, template=None):
        shipped.extend(b for box in outboxes for b in box if b is not None)
        return real(self, label, outboxes, template)

    pts = uniform_points(n, d, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Machine, "exchange_batches", spy)
        tree = DistributedRangeTree.build(pts, p=p)
    with tree:
        report = validate_tree(tree)
        assert report.ok, report.summary()
        # Corollary 1: 6 rounds per dimension and the root broadcast, whatever n
        labels = [s.phase for s in tree.metrics.comm_steps()]
        assert len(labels) == 6 * d + 1, labels
        # the §6 caveat: phase j sorts n·C(log p + j − 1, j) records
        h = ilog2(p)
        want = [tree.n] + [tree.n * comb(h + j - 1, j) for j in range(1, d)]
        assert tree.construct_result.phase_record_counts == want
        # an S-record names its segment tree inside one int64 sort key,
        # tree·n + rank_j, no path; the sort ships no column of its own,
        # and Construct ships no value
        for batch in shipped:
            if batch.schema == "dist.srecord":
                assert list(batch.cols) == ["key", "ranks", "pid"]
                assert batch.col("key").dtype == np.int64 and batch.col("key").ndim == 1
        boxes = random_boxes(np.random.default_rng(seed), 12, d)
        assert tree.run([count(b) for b in boxes]).values() == [bf_count(pts, b) for b in boxes]
