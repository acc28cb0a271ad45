"""Tests for Algorithm Construct (Theorem 2 / Corollary 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import ilog2
from repro.cgm import Machine
from repro.dist import DistributedRangeTree
from repro.errors import MachineError, PowerOfTwoError
from repro.geometry import pad_to_power_of_two
from repro.semigroup import NO_LAYERS
from repro.dist.construct import construct_distributed_tree
from repro.workloads import uniform_points

from tests.helpers import forest_elements


def build(n=64, d=2, p=8, seed=0, **kw):
    return DistributedRangeTree.build(uniform_points(n, d, seed=seed), p=p, **kw)


class TestValidation:
    def test_p_must_be_power_of_two(self):
        with pytest.raises(PowerOfTwoError):
            build(n=64, d=2, p=3)

    def test_p_greater_than_n_padded_up(self):
        """p larger than n: points are padded up to p, not rejected."""
        tree = DistributedRangeTree.build(uniform_points(4, 2, seed=0), p=8)
        assert tree.n == 8

    def test_machine_reuse(self):
        mach = Machine(4)
        tree = DistributedRangeTree.build(uniform_points(32, 2, seed=1), machine=mach)
        assert tree.machine is mach
        assert tree.p == 4


class TestConstantRounds:
    """Corollary 1: construction uses O(1) communication rounds, and the
    count must be *independent of n* at fixed d and p."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rounds_independent_of_n(self, d):
        rounds = []
        for n in (32, 64, 128):
            tree = build(n=n, d=d, p=4)
            rounds.append(tree.metrics.rounds)
        assert rounds[0] == rounds[1] == rounds[2], rounds

    def test_rounds_grow_only_with_d(self):
        r = [build(n=64, d=d, p=4).metrics.rounds for d in (1, 2, 3)]
        assert r[0] < r[1] < r[2]  # d phases, constant rounds each


class TestWorkScaling:
    def test_max_work_scales_with_s_over_p(self):
        """Theorem 2: local work O(s/p); doubling p ~halves max work."""
        w = {}
        for p in (2, 8):
            tree = build(n=256, d=2, p=p)
            w[p] = tree.metrics.max_work
        ratio = w[2] / w[8]
        assert 2.0 <= ratio <= 8.0, f"work ratio {ratio}"

    def test_h_relation_bounded_by_s_over_p(self):
        n, p, d = 256, 4, 2
        tree = build(n=n, d=d, p=p)
        s = n * (ilog2(n) + 1) ** (d - 1)
        assert tree.metrics.max_h <= 4 * s // p


class TestPhaseRecordCounts:
    """The Section 6 caveat: phase j sorts ~ n log^{j-1} p records."""

    def test_phase_zero_is_n(self):
        tree = build(n=64, d=3, p=8)
        assert tree.construct_result.phase_record_counts[0] == 64

    def test_phase_one_is_n_logp(self):
        n, p = 64, 8
        tree = build(n=n, d=2, p=p)
        assert tree.construct_result.phase_record_counts[1] == n * ilog2(p)

    def test_growth_with_p(self):
        n = 64
        c4 = build(n=n, d=2, p=4).construct_result.phase_record_counts[1]
        c8 = build(n=n, d=2, p=8).construct_result.phase_record_counts[1]
        assert c4 == n * 2 and c8 == n * 3

    def test_p1_later_phases_empty(self):
        tree = build(n=32, d=3, p=1)
        counts = tree.construct_result.phase_record_counts
        assert counts[0] == 32
        assert all(c == 0 for c in counts[1:])


class TestStructuralAgreement:
    def test_roots_identical_across_procs(self):
        """Step 5: the broadcast gives every proc the same root set, and
        the derived hat locations and tree indices agree with where
        elements actually live."""
        tree = build(n=64, d=2, p=8)
        hat = tree.hat
        for leaf, stack, t in forest_elements(tree):
            assert 0 <= t < stack.shape[0]
            assert stack.width == hat.nleaves[leaf]
            key = stack.keys[0].reshape(-1, stack.width)[t] % stack.span
            assert (key[0], key[-1]) == (hat.lo[leaf], hat.hi[leaf])

    def test_forest_elements_power_of_two_points(self):
        tree = build(n=64, d=3, p=4)
        for store in tree.forest_store:
            for stack in store.values():
                assert stack.width == 16

    def test_group_routing_rule(self):
        """Construct step 3: group k lands on processor k mod p, and each
        processor stacks its groups of a phase in group order."""
        tree = build(n=64, d=2, p=8)
        hat, base = tree.hat, 0
        for j in range(tree.dim):
            leaves = sorted(
                np.flatnonzero(hat.shape.leaf & (hat.shape.dim == j)).tolist(),
                key=lambda i: (hat.path(i)[1:], hat.lo[i]),  # the phase's sort order
            )
            assert hat.shape.groups[j].tolist() == leaves
            for g, leaf in enumerate(leaves):
                assert (hat.shape.location[leaf], hat.shape.tree[leaf]) == (
                    (base + g) % tree.p, g // tree.p
                )
            base += len(leaves)

    def test_capacity_accounting(self):
        """No rank holds, or receives in one round, more than 1.5x the
        whole forest's points: a machine of that capacity builds the tree
        (Construct raises ``CapacityExceeded`` on what a rank holds), and
        the build's trace shows every round's receipts under it."""
        total = sum(build(n=64, d=2, p=4).construct_result.forest_group_sizes())
        mach = Machine(4, capacity=6 * total // 4)
        with DistributedRangeTree.build(uniform_points(64, 2, seed=0), machine=mach) as tree:
            received = np.max([step.received for step in tree.metrics.comm_steps()], axis=0)
        assert received.min() > 0 and received.max() <= mach.capacity

    def test_construct_via_low_level_api(self):
        """The low-level entry point works without the facade."""
        pts = uniform_points(32, 2, seed=9)
        ranked = pad_to_power_of_two(pts, minimum=4)
        mach = Machine(4)
        res = construct_distributed_tree(mach, ranked)
        assert res.hat.size_nodes() > 0
        # topology only: the hat and every stack hold no layer
        held = [res.hat.aggs] + [st.aggs for s in res.forest_store for st in s.values()]
        assert all(c.kernel == NO_LAYERS.kernel and c.data.shape[1] == 0 for c in held)
        assert sum(st.shape[0] for s in res.forest_store for st in s.values()) == int(
            res.hat.shape.leaf.sum()
        )

    def test_p_exceeding_padded_n_rejected_low_level(self):
        pts = uniform_points(4, 1, seed=0)
        ranked = pad_to_power_of_two(pts)  # n = 4
        mach = Machine(8)
        with pytest.raises(MachineError):
            construct_distributed_tree(mach, ranked)
