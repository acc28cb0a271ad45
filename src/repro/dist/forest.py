"""The forest: each processor's group ``F_i`` as one array stack per
dimension (§4, Definition 3, Theorem 1).

Cutting every segment tree of the d-dimensional range tree at level
``log2(n/p)`` leaves the replicated *hat* on top and a forest of subtrees
below.  Each subtree, together with all of its descendant trees in the
remaining dimensions, is one **forest element**: a ``(d - j)``-dimensional
range tree over exactly ``n/p`` points embedded in the *global* rank
space.  Theorem 1 packs them into groups ``F_i`` of ``O(s/p)`` records,
one group per processor, and Search step 3 replicates whole groups.

So the group is what a processor holds: per part, ``{j: stack}``, where
the stack is one :class:`~repro.seq.compiled.CompiledForest` whose trees
are the processor's phase-``j`` elements laid end to end, with the
rows' point ids in ``pids``.  An element is a tree index in its stack;
the hat leaf naming it keeps that index next to its owner
(``hat.shape.tree`` beside ``hat.shape.location``).  Construct emits each stack in
one call (:func:`build_stack`), topology only; a refit annotates it in place,
replication ships it as it is, and Search step 5 walks it once per
host's inbox, however many of the host's ranks hold it, each rank's
output and charge as if alone
(:func:`repro.dist.forest_compiled.stack_selections`).  The sequential
:class:`~repro.seq.range_tree.SequentialRangeTree` holds its one tree as
the same arrays.  The object range tree each tree of a stack is tested
against is ``tests.helpers.RangeTree``, kept beside the tests, not here.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError
from ..seq.compiled import CompiledForest

__all__ = ["build_stack"]

_I64 = np.int64


def build_stack(ranks: np.ndarray, pids: np.ndarray, dim: int, width: int) -> CompiledForest:
    """Construct step 3 at one owner: its phase-``dim`` elements as one stack.

    ``ranks`` holds the routed groups' global rank rows, ``width`` (the
    ``n/p`` of the build) rows per group, groups in arrival order — each
    tiles one hat-leaf segment, so its rows must ascend in dimension
    ``dim`` (the order Construct's sort delivers them in).  ``pids``
    align row for row.  The stack holds no layer
    (:data:`~repro.semigroup.NO_LAYERS`) until a refit annotates it.
    """
    ranks = np.asarray(ranks, dtype=_I64).reshape(-1, width, ranks.shape[1])
    key = ranks[:, :, dim]
    if (key[:, 1:] <= key[:, :-1]).any():
        raise GeometryError(f"a forest element's rows must ascend in dimension {dim}")
    stack = CompiledForest.from_ranks(ranks, start_dim=dim)
    stack.pids = np.asarray(pids, dtype=_I64)
    return stack
