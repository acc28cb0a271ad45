"""Tests for Search's group replication plan ([12])."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm import assign_copies_round_robin, compute_copy_counts
from repro.cgm.loadbalance import replication_schedule


class TestCopyCounts:
    def test_paper_formula(self):
        # c_j = ceil(demand_j / ceil(total/p))
        assert compute_copy_counts([100, 0, 4, 0], total=104, p=4) == [4, 1, 1, 1]

    def test_uniform_demand_needs_one_copy(self):
        assert compute_copy_counts([25, 25, 25, 25], total=100, p=4) == [1, 1, 1, 1]

    def test_zero_total(self):
        assert compute_copy_counts([0, 0], total=0, p=2) == [1, 1]

    def test_total_copies_bounded(self):
        """Σ c_j < p + #groups — the bound that keeps O(1) copies per proc."""
        for demands in ([7, 1, 1, 1], [10, 0, 0, 0], [3, 3, 2, 2], [0, 0, 0, 12]):
            p = 4
            total = sum(demands)
            c = compute_copy_counts(demands, total, p)
            assert sum(c) < p + len(demands) + 1

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=4, max_size=4))
    @settings(max_examples=60)
    def test_property_each_copy_serves_at_most_avg(self, demands):
        p = 4
        total = sum(demands)
        c = compute_copy_counts(demands, total, p)
        per_copy = max(1, -(-total // p))
        for d, cj in zip(demands, c):
            assert cj >= 1
            assert -(-d // cj) <= per_copy or d == 0


class TestAssignCopies:
    def test_owner_keeps_first_copy(self):
        targets = assign_copies_round_robin([1, 1, 1, 1], p=4)
        assert [t[0] for t in targets] == [0, 1, 2, 3]

    def test_copy_spread(self):
        targets = assign_copies_round_robin([4, 1, 1, 1], p=4)
        assert len(targets[0]) == 4
        # copies of group 0 land on distinct-ish ranks, O(1) per proc overall
        from collections import Counter

        per_proc = Counter(t for ts in targets for t in ts)
        assert max(per_proc.values()) <= 3


def holders(p: int, schedule: list) -> list[set[int]]:
    """Which ranks hold each group after the schedule runs, checking that
    every sender already held the copy it sends."""
    have = [{j} for j in range(p)]
    for transfers in schedule:
        for sender, owner, _dest in transfers:
            assert sender in have[owner]
        for _sender, owner, dest in transfers:
            have[owner].add(dest)
    return have


HOT = [list(range(8))] + [[j] for j in range(1, 8)]  # group 0 wanted everywhere


class TestReplicateGroups:
    @pytest.mark.parametrize("strategy", ["direct", "doubling"])
    def test_every_target_holds_copy(self, strategy):
        targets = [[0, 1, 2], [1], [2, 3], [3, 0]]
        have = holders(4, replication_schedule(4, targets, strategy))
        for j, ts in enumerate(targets):
            assert set(ts) <= have[j]

    def test_owner_always_holds_own(self):
        schedule = replication_schedule(2, [[0], [1]])
        assert holders(2, schedule) == [{0}, {1}]
        assert all(not transfers for transfers in schedule)

    def test_doubling_caps_per_round_h(self):
        """Doubling: no proc sends more than one copy of a group per round."""
        for transfers in replication_schedule(8, HOT, "doubling"):
            senders = [sender for sender, _owner, _dest in transfers]
            assert len(senders) == len(set(senders))

    def test_direct_single_round(self):
        schedule = replication_schedule(8, HOT, "direct")
        assert len(schedule) == 1
        # but the hot owner ships 7 copies in that one round
        assert [s for s, _o, _d in schedule[0]] == [0] * 7

    def test_doubling_round_count_logarithmic(self):
        """log2 p rounds whatever the demand, empty rounds included."""
        assert len(replication_schedule(8, HOT, "doubling")) == 3
        assert len(replication_schedule(8, [[j] for j in range(8)], "doubling")) == 3

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            replication_schedule(2, [[0], [1]], "magic")
