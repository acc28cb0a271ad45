"""Weighted load balancing (§5; the technique the paper imports from [12]).

Two ingredients used by Algorithms Search and Report (§5, Theorems 3-5):

* :func:`balance_by_weight` — redistribute weighted items so every
  processor carries ≈ ``ΣW/p`` total weight, via the paper's prefix-sum
  destination rule ``dest(q) = floor(p · ps_w(q) / ΣW)``.
* :func:`compute_copy_counts` — Algorithm Search step 2: how many copies
  ``c_j = ceil(|Q'_{F_j}| / (|Q'|/p))`` of each forest group are needed so
  each copy serves at most ``ceil(|Q'|/p)`` subqueries.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, TypeVar

from .collectives import partial_sum
from .machine import Machine

T = TypeVar("T")

__all__ = [
    "balance_by_weight",
    "compute_copy_counts",
    "assign_copies_round_robin",
    "replication_schedule",
    "replicate_groups",
    "REPLICATION_STRATEGIES",
]

#: The Search step-3 strategies :func:`replication_schedule` plans.
REPLICATION_STRATEGIES = ("doubling", "direct")


def balance_by_weight(
    mach: Machine,
    locals_: Sequence[Sequence[T]],
    weight: Callable[[T], int],
    label: str = "balance-weight",
) -> list[list[T]]:
    """Redistribute items so per-processor total weight is ≈ ``ΣW/p``.

    Preserves global order.  No item is split, so a processor may exceed
    the average by at most the largest single item weight (the caller
    chunks oversized items first when that matters — Algorithm Report does).
    Two rounds: partial sum + route.
    """
    weights = [[max(0, int(weight(it))) for it in box] for box in locals_]
    prefix = partial_sum(
        mach, weights, op=lambda a, b: a + b, zero=0, label=f"{label}:psum"
    )
    # total weight = last prefix of the last non-empty processor
    total = 0
    for r in range(mach.p - 1, -1, -1):
        if prefix[r]:
            total = prefix[r][-1]
            break
    if total == 0:
        # all weights zero: fall back to count balancing to keep items spread
        from .collectives import route_balanced

        return route_balanced(mach, locals_, label=label)
    out = mach.empty_outboxes()
    for r in range(mach.p):
        for it, ps in zip(locals_[r], prefix[r]):
            w = max(0, int(weight(it)))
            # destination by *exclusive* prefix (paper: floor(p * ps / ΣW))
            excl = ps - w
            dest = min(mach.p - 1, (mach.p * excl) // total)
            out[r][dest].append(it)
    return mach.exchange_weighted(
        f"{label}:route", out, weight=lambda it: max(1, int(weight(it)))
    )


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
    p: int,
    targets: Sequence[Sequence[int]],
    strategy: str = "doubling",
    fixed_rounds: int | None = None,
    present: Sequence[bool] | None = None,
) -> list[list[tuple[int, int, int]]]:
    """The transfer plan of :func:`replicate_groups`, data-independent.

    Returns one list per communication round; each entry is a
    ``(sender, owner, dest)`` transfer: ``sender`` ships its copy of
    ``owner``'s payload to ``dest``.  The plan depends only on
    ``(p, targets, strategy, fixed_rounds)`` — never on payload contents —
    which is what lets Algorithm Search compute the schedule in the
    driver while the payloads themselves (forest-element stores) stay
    rank-resident with the executors.  The simulation below mirrors the
    transport loops exactly, including the order new holders are
    recruited in (destination rank, then source rank), so a schedule
    replay is bit-identical to the legacy driver-side transport.

    ``present[j]`` marks owners that actually hold a payload (all do by
    default); an absent owner can never serve its targets, so nonempty
    targets for it fail the convergence check instead of silently
    scheduling nothing-to-send transfers.
    """
    pending: list[list[int]] = []
    for j in range(p):
        want = [t for t in dict.fromkeys(targets[j]) if t != j]
        pending.append(want)

    def settle(have: list[list[int]], transfers: list[tuple[int, int, int]]) -> None:
        # Replay the deterministic inbox merge: receivers in rank order,
        # records within a receiver ordered by source rank then send order.
        for dest in range(p):
            for _sender, owner, d in sorted(
                (t for t in transfers if t[2] == dest),
                key=lambda t: t[0],
            ):
                have[owner].append(d)

    if present is None:
        present = [True] * p

    if strategy == "direct":
        for j in range(p):
            if pending[j] and not present[j]:
                raise RuntimeError(
                    f"replication failed: owner {j} holds no payload for "
                    f"targets {pending[j]}"
                )
        transfers = [(j, j, t) for j in range(p) for t in pending[j]]
        return [transfers]

    if strategy != "doubling":
        raise ValueError(
            f"unknown replication strategy {strategy!r}; "
            f"expected one of {REPLICATION_STRATEGIES}"
        )

    have: list[list[int]] = [[j] if present[j] else [] for j in range(p)]
    rounds: list[list[tuple[int, int, int]]] = []

    if fixed_rounds is not None:
        # data-independent round count: per-owner doubling, padded.
        for _rnd in range(fixed_rounds):
            transfers: list[tuple[int, int, int]] = []
            for j in range(p):
                queue = pending[j]
                served = 0
                for h in have[j]:
                    if served >= len(queue):
                        break
                    transfers.append((h, j, queue[served]))
                    served += 1
                pending[j] = queue[served:]
            settle(have, transfers)
            rounds.append(transfers)
        if any(pending):
            raise RuntimeError(
                f"replication failed to converge in {fixed_rounds} rounds"
            )
        return rounds

    # doubling: every current holder serves one pending target per round
    rnd = 0
    while any(pending):
        transfers = []
        sent_this_round: set[int] = set()
        for j in range(p):
            queue = pending[j]
            senders = [h for h in have[j] if h not in sent_this_round]
            assigned = 0
            for h in senders:
                if assigned >= len(queue):
                    break
                transfers.append((h, j, queue[assigned]))
                sent_this_round.add(h)
                assigned += 1
            pending[j] = queue[assigned:]
        settle(have, transfers)
        rounds.append(transfers)
        rnd += 1
        if rnd > 2 * p + 2:  # safety net against protocol bugs
            raise RuntimeError("replication failed to converge")
    return rounds


def replicate_groups(
    mach: Machine,
    payloads: Sequence[Any],
    targets: Sequence[Sequence[int]],
    weight: Callable[[Any], int],
    strategy: str = "doubling",
    label: str = "replicate",
    fixed_rounds: int | None = None,
) -> list[dict[int, Any]]:
    """Distribute copies of per-owner payloads to their target ranks.

    ``payloads[j]`` lives on rank ``j`` (owner); ``targets[j]`` lists the
    ranks that must end up holding a copy (the owner itself needs no
    transfer).  Returns, per rank, ``{owner: payload}`` for every copy the
    rank holds (owners always hold their own).

    Strategies
    ----------
    ``direct``:
        one round; the owner sends every copy itself.  h can spike to
        ``c_j · |payload|`` for a hot group.
    ``doubling`` (default):
        holders recruit one new holder per round, so per-round h stays at
        ``O(|payload|)`` per processor at the cost of
        ``ceil(log2(max c_j))`` rounds.  For the uniform demand of
        Theorems 3-5 this is the same constant; the hot-spot benchmark
        (M1) shows the trade-off explicitly.

    ``fixed_rounds`` (doubling only) pins the round count: exactly that
    many doubling rounds always run, padded with empty exchanges once
    converged, so the trace is a function of the parameters alone —
    Algorithm Search uses ``log2 p`` (always sufficient, since
    ``c_j <= p``) to keep Theorem 3's round count independent of the
    data.  In this mode each holder serves one pending target *per
    owned group* per round (a rank holding copies of two hot groups
    forwards both), which is what guarantees convergence within
    ``log2 p`` rounds; per-round h stays ``O(copies held · |payload|)``.
    """
    p = mach.p
    holders: list[dict[int, Any]] = [dict() for _ in range(p)]
    for j in range(p):
        if payloads[j] is not None:
            holders[j][j] = payloads[j]

    schedule = replication_schedule(
        p,
        targets,
        strategy,
        fixed_rounds,
        present=[payloads[j] is not None for j in range(p)],
    )
    for rnd, transfers in enumerate(schedule):
        out = mach.empty_outboxes()
        for sender, owner, dest in transfers:
            out[sender][dest].append((owner, payloads[owner]))
        round_label = (
            f"{label}:direct" if strategy == "direct" else f"{label}:double-{rnd}"
        )
        inboxes = mach.exchange_weighted(
            round_label, out, weight=lambda rec: max(1, weight(rec[1]))
        )
        for r in range(p):
            for owner, payload in inboxes[r]:
                holders[r][owner] = payload
    return holders
