"""Group replication for load balance (§5; the technique the paper imports from [12]).

Algorithm Search (§5, Theorems 3-5) copies oversubscribed forest groups
so that no processor answers more than ``O(|Q'|/p)`` subqueries:

* :func:`compute_copy_counts` — step 2: how many copies
  ``c_j = ceil(|Q'_{F_j}| / (|Q'|/p))`` of each forest group are needed so
  each copy serves at most ``ceil(|Q'|/p)`` subqueries;
* :func:`assign_copies_round_robin` — which ranks hold those copies;
* :func:`replication_schedule` — step 3: the rounds that ship them.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "compute_copy_counts",
    "assign_copies_round_robin",
    "replication_schedule",
    "REPLICATION_STRATEGIES",
]

#: The Search step-3 strategies :func:`replication_schedule` plans.
REPLICATION_STRATEGIES = ("doubling", "direct")


def compute_copy_counts(demands: Sequence[int], total: int, p: int) -> list[int]:
    """Algorithm Search step 2: copies per forest group.

    ``c_j = ceil(demand_j / ceil(total/p))`` with a minimum of one copy for
    any group that has demand (and exactly one when demand is zero — the
    owner keeps its own copy).
    """
    if total <= 0:
        return [1] * len(demands)
    per_copy = max(1, -(-total // p))
    return [max(1, -(-d // per_copy)) for d in demands]


def assign_copies_round_robin(copy_counts: Sequence[int], p: int) -> list[list[int]]:
    """Assign group copies to processors.

    Returns ``targets[j]`` = the ranks that will hold a copy of group ``j``.
    Copies are laid out in group order round-robin over all ranks, which
    gives every rank O(total copies / p) = O(1) copies when
    ``Σ c_j <= 2p`` (guaranteed by the ceiling rule: summing
    ``ceil(d_j / ceil(D/p))`` over j with ``Σ d_j = D`` yields < p + #groups).
    The owner rank ``j`` always keeps its own copy as copy 0.
    """
    targets: list[list[int]] = []
    cursor = 0
    for j, c in enumerate(copy_counts):
        t = [j % p]
        for _ in range(c - 1):
            # skip the owner slot so copies land elsewhere when possible
            cand = cursor % p
            cursor += 1
            if cand == j % p and p > 1:
                cand = cursor % p
                cursor += 1
            t.append(cand)
        targets.append(t)
    return targets


def replication_schedule(
    p: int, targets: Sequence[Sequence[int]], strategy: str = "doubling"
) -> list[list[tuple[int, int, int]]]:
    """Algorithm Search step 3's transfer plan: which rank ships which
    group copy in which round.

    ``targets[j]`` lists the ranks that must end up holding a copy of
    group ``j`` (its owner, rank ``j``, holds it already).  Returns one
    list per communication round; each entry is a ``(sender, owner,
    dest)`` transfer: ``sender`` ships its copy of group ``owner`` to
    ``dest``.  The plan depends only on ``(p, targets, strategy)``, never
    on the groups' contents, so the driver computes it while the stores
    themselves stay rank-resident.

    ``direct``:
        one round; each owner sends every copy itself, so h spikes to
        ``c_j · |F_j|`` for a hot group.
    ``doubling`` (default):
        exactly ``ceil(log2 p)`` rounds, empty ones included, so the
        round count is a function of ``p`` alone (Theorem 3).  In each
        round every holder of group ``j`` sends it on to one pending
        target, so the holders of a group double per round and its
        ``c_j <= p`` copies land in time; a rank sends at most one copy
        per group it holds.  A new holder starts sending the round after
        it receives, and holders join in the order the exchange delivers
        them: by destination rank, then by sender.
    """
    if strategy not in REPLICATION_STRATEGIES:
        raise ValueError(
            f"unknown replication strategy {strategy!r}; "
            f"expected one of {REPLICATION_STRATEGIES}"
        )
    pending = [[t for t in dict.fromkeys(targets[j]) if t != j] for j in range(p)]
    if strategy == "direct":
        return [[(j, j, t) for j in range(p) for t in pending[j]]]

    have = [[j] for j in range(p)]
    rounds: list[list[tuple[int, int, int]]] = []
    for _ in range((p - 1).bit_length()):
        transfers: list[tuple[int, int, int]] = []
        for j in range(p):
            served = min(len(have[j]), len(pending[j]))
            transfers.extend((have[j][i], j, pending[j][i]) for i in range(served))
            pending[j] = pending[j][served:]
        for _sender, owner, dest in sorted(transfers, key=lambda t: (t[2], t[0])):
            have[owner].append(dest)
        rounds.append(transfers)
    if any(pending):
        raise RuntimeError(f"replication failed to converge in {len(rounds)} rounds")
    return rounds
