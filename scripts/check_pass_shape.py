#!/usr/bin/env python3
"""CI gate: an idle rank and an empty round stay cheap, a batch pass
pays for rows, not objects, and the forest, the hat and a name each have
one representation.

Usage::

    PYTHONPATH=src python scripts/check_pass_shape.py

Builds n=512, p=8 and runs an empty, a one-query and a 64-query
``tree.run``.  Fails unless

* all three passes record the same ``5 + log2 p`` comm rounds under the
  same labels (rounds are the data-independent observable — Theorem 3 —
  ``m = 0`` included), the one-query pass makes 2 ``run_phase``
  dispatches (an empty replication round dispatches nothing, the demux
  none) and no pass constructs a ``random.Random`` (``main``);
* a batch pass calls no one-box ``to_rank_box`` and a ``dyn.run`` over
  >= 100 tombstones no ``Box.contains_point`` (``object_loop_calls``);
* on both backends a build, a lazy refit and a replicating pass construct
  no ``DimTree``/``SegTree``/``RangeTree``, no pass calls
  ``CompiledForest.from_ranks``, ``Hat.build`` runs once per rank per
  Construct and never on a pass, a refit or outside a dynamic absorb's
  Construct (``second_representation_calls``), and a refit rebinds the
  hat's aggregate column (and ``idle``) and nothing else
  (``hat_shape_failures``);
* the forest walk makes one ``searchsorted`` and one closed-form cover per
  divided dimension whether an element holds 64 points or 2048
  (``walk_shape_failures``);
* on a 64-query mixed pass no phase calls ``np.isin`` or builds a
  ``frozenset`` (the report mask is indexed, never rebuilt from a qid
  set), negative pids are dropped in one function, every column of a
  batch reaching ``Machine.exchange_batches`` or leaving Search step 5 is
  an ``np.ndarray`` or a ``KernelColumn``, and step 5 at one rank makes
  the same number of Python-level calls on 640 subqueries as on 64 over
  the same elements — a name is resolved per element, not per row
  (``report_mask_failures``);
* the 64-query count/report/aggregate batch builds exactly 2 ``Fold``s,
  resolves typed-vs-``combine`` in one ``_fold_kernels`` call, sorts
  nothing (0 ``sample_sort_cols`` calls: partial values go home, pairs
  are balanced) and calls ``fold_segments`` at most twice per rank and
  fold group (once over a rank's own pieces, once at home)
  (``fold_said_once_failures``);
* typed or object is the semigroup's ``kernel`` field and nothing else:
  a tree built under ``sum_of_dim(0)`` with its ``lift`` swapped for a
  counting one, then lazily refit to a product with ``max_of_dim(1)``,
  calls that per-point ``lift`` 0 times on the serial and process
  backends, and ``n_real`` times per lift (build, refit) once the field
  is ``None`` (``kernel_field_failures``).

That a dynamic batch is one Search pass — its rounds do not grow with
the number of buckets — is pinned by ``tests/test_dist_dynamic.py``'s
``TestOnePass``.

A later change that re-prices idle ranks, puts a per-object Python loop
back on the batch path, holds a forest element or the hat in a second
form or walks an element level by level fails here before it shows up as
a slower ``single_query`` or ``batch_d3`` row.
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
import gc
import inspect
import os
import random
import sys
import tempfile
from contextlib import contextmanager

from repro.geometry.box import Box

MAX_ONE_QUERY_DISPATCHES = 2


@contextmanager
def counting(calls: dict, *targets):
    """Count calls to each ``(class, method name)`` into ``calls[name]``."""
    saved = []
    try:
        for cls, name in targets:
            real = cls.__dict__[name]
            key = f"{cls.__name__}.{name}"
            calls.setdefault(key, 0)

            def wrapper(*args, _real=real, _key=key, **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            saved.append((cls, name, real))
            setattr(cls, name, wrapper)
        yield calls
    finally:
        for cls, name, real in saved:
            setattr(cls, name, real)


@contextmanager
def counting_across_forks(cls, name):
    """Count calls to a classmethod here *and* in worker processes forked
    while it is patched: every call appends one byte to a temp file.
    Yields a function returning the count so far."""
    real = cls.__dict__[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "calls")
        open(path, "ab").close()

        def wrapper(klass, *args, **kwargs):
            with open(path, "ab") as f:
                f.write(b".")
            return real.__func__(klass, *args, **kwargs)

        setattr(cls, name, classmethod(wrapper))
        try:
            yield lambda: os.path.getsize(path)
        finally:
            setattr(cls, name, real)


def bound_in_repro(*names) -> list:
    """Every ``(module, name)`` a loaded ``repro`` module binds one of
    ``names`` under — the targets that count every call of a function."""
    return [
        (mod, name)
        for mod in list(sys.modules.values())
        for name in names
        if getattr(mod, "__name__", "").startswith("repro.") and name in vars(mod)
    ]


def second_representation_calls() -> dict:
    """Object trees built, and array builds on a pass: all must be 0."""
    from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree
    from repro.dist.hat import Hat
    from repro.query import aggregate, count
    from repro.semigroup import sum_of_dim
    from repro.seq.compiled import CompiledForest
    from repro.seq.range_tree import DimTree, RangeTree
    from repro.seq.segment_tree import SegTree
    from repro.workloads import make_points

    calls: dict = {}
    pts = make_points("uniform", 512, 2, seed=1)
    hot_box = Box(((0.0, 0.2), (0.0, 1.0)))
    hot = [count(hot_box)] * 64
    for backend in ("serial", "process"):
        # patched before the build: the process backend forks its workers
        # at first use, and they must inherit the counter
        with counting(
            calls, (DimTree, "__init__"), (SegTree, "__init__"), (RangeTree, "__init__")
        ), counting_across_forks(CompiledForest, "from_ranks") as builds, counting_across_forks(
            Hat, "build"
        ) as hats:
            with DistributedRangeTree.build(pts, p=8, backend=backend) as tree:
                built = builds()
                calls[f"Hat.build not once per rank in Construct ({backend})"] = hats() - tree.p
                first = tree.run(hot)  # first pass after the build; replicates
                tree.run([aggregate(hot_box, sum_of_dim(0))] * 64)  # lazy refit + pass
                again = tree.run(hot)
                calls[f"CompiledForest.from_ranks on a pass ({backend})"] = builds() - built
                calls[f"Hat.build on a pass or a refit ({backend})"] = hats() - tree.p
        for rs in (first, again):
            if not any(
                s.volume for s in rs.metrics.comm_steps() if s.label.startswith("search:replicate")
            ):
                calls[f"(a hot-spot pass replicated nothing on {backend})"] = 1
        if not built:
            calls[f"(the {backend} build was not counted)"] = 1

    coords = make_points("uniform", 512, 2, seed=2).coords
    with counting_across_forks(Hat, "build") as hats, counting_across_forks(
        DistributedRangeTree, "build"
    ) as constructs:
        with DynamicDistributedRangeTree.build(coords[:300], p=4, flush_threshold=64) as dyn:
            for c in coords[300:]:
                dyn.insert(c)
            dyn.run([count(hot_box)])
            calls["Hat.build outside Construct in dynamic absorbs"] = hats() - 4 * constructs()
            if not constructs():
                calls["(no dynamic absorb was counted)"] = 1
            gc.collect()
            calls["DimTree alive after dynamic absorbs"] = sum(
                isinstance(o, DimTree) for o in gc.get_objects()
            )
    return calls


#: What a refit may rebind on a ``Hat``; every other attribute is topology.
HAT_ANNOTATION = {"semigroup", "agg_kernel", "agg_mat", "agg_obj", "idle"}


def hat_shape_failures() -> list:
    """The hat is its columns: a refit rebinds the annotation without
    constructing anything per node."""
    import numpy as np

    from repro.dist import DistributedRangeTree
    from repro.dist.hat import Hat
    from repro.semigroup import top_k_ids
    from repro.workloads import make_points

    failures = []
    calls: dict = {}
    with DistributedRangeTree.build(make_points("uniform", 512, 2, seed=1), p=8) as tree:
        hat = tree.hat
        before = dict(vars(hat))
        with counting(calls, (Hat, "__init__")):
            tree.reannotate(top_k_ids(2))  # an object column: the per-value case
        if calls["Hat.__init__"]:
            failures.append(f"a refit constructed {calls['Hat.__init__']} Hat(s)")
        after = vars(tree.hat)
        moved = sorted(k for k in after if k not in HAT_ANNOTATION and after[k] is not before.get(k))
        if tree.hat is not hat or moved or set(after) != set(before):
            failures.append(f"a refit rebuilt hat topology: {moved or 'a new Hat'}")
        per_node = sorted(
            k
            for k, v in after.items()
            if k not in HAT_ANNOTATION and not isinstance(v, (np.ndarray, int))
        )
        if per_node:
            failures.append(f"Hat holds non-array state: {per_node}")
    return failures


def object_loop_calls() -> dict:
    """Calls a batch pass must not make, counted on three small passes."""
    from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree
    from repro.geometry.rankspace import RankedPointSet, RankSpace
    from repro.query import count, report
    from repro.workloads import make_points

    calls: dict = {}
    pts = make_points("uniform", 512, 2, seed=1)
    hot = [count(Box(((0.0, 0.2), (0.0, 1.0))))] * 64
    with DistributedRangeTree.build(pts, p=8) as tree:
        tree.run(hot)
        with counting(
            calls,
            (RankSpace, "to_rank_box"),
            (RankedPointSet, "to_rank_box"),
        ):
            rs = tree.run(hot)
        moved = sum(
            s.volume for s in rs.metrics.comm_steps() if s.label.startswith("search:replicate")
        )
        if not moved:
            calls["(the hot-spot pass replicated nothing)"] = 1

    coords = make_points("uniform", 512, 2, seed=2).coords
    with DynamicDistributedRangeTree.build(coords, p=4, flush_threshold=64) as dyn:
        for pid in range(0, 240, 2):
            dyn.delete(pid)
        for c in coords[:20]:
            dyn.insert(c)
        if dyn.space_report()["tombstones"] < 100 or not dyn.buffered_count:
            calls["(the dynamic tree lost its tombstones or its buffer)"] = 1
        with counting(calls, (Box, "contains_point")):
            dyn.run([report(Box(((0.1, 0.6), (0.2, 0.9)))), count(Box(((0.0, 1.0), (0.0, 1.0))))])
    return calls


def walk_shape_failures() -> list:
    """The walk's step counts must not grow with an element's size."""
    import numpy as np

    from repro.semigroup import COUNT
    from repro.seq import compiled
    from repro.seq.compiled import CompiledForest

    failures = []
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        steps = {}
        for m in (64, 2048):
            ranks = np.stack([rng.permutation(m) for _ in range(d)], axis=1)
            forest = CompiledForest.from_ranks(ranks, [1] * m, COUNT)
            los = rng.integers(0, m // 2, size=(32, d))
            with counting({}, (np, "searchsorted"), (compiled, "_cover_bits")) as calls:
                forest.walk(los, los + m // 3)
            steps[m] = calls
        want = {"numpy.searchsorted": d, "repro.seq.compiled._cover_bits": d}
        if steps[64] != steps[2048] or steps[64] != want:
            failures.append(
                f"d={d} walk steps depend on the element's size "
                f"(want {d} of each): m=64 {steps[64]}, m=2048 {steps[2048]}"
            )
    return failures


#: The one function that may compare a pid with 0 between the hat walk
#: and the demux.
SENTINEL_FILTER = ["repro.dist.search._forest_output"]


def report_mask_failures(tree, batch) -> list:
    """One mask from plan to walk, one int64 per name: the second
    spellings of "this query reports" (qid sets, per-phase re-masking, a
    second sentinel filter) and of "this element" (a column that is not
    an array, a per-row decode in step 5) must stay gone."""
    import numpy as np

    from repro.cgm.machine import Machine
    from repro.cgm.phases import ProcContext, get_phase
    from repro.dist import forest_compiled, hat, search
    from repro.query import engine
    from repro.semigroup.kernels import KernelColumn

    failures = []
    calls = {"np.isin": 0, "frozenset": 0}
    shipped = []
    real_isin, real_frozenset = np.isin, frozenset
    real_run_phase, real_exchange = Machine.run_phase, Machine.exchange_batches

    def isin(*args, **kwargs):
        calls["np.isin"] += 1
        return real_isin(*args, **kwargs)

    class CountingFrozenset(real_frozenset):
        def __new__(cls, *args):
            calls["frozenset"] += 1
            return real_frozenset.__new__(cls, *args)

    def run_phase(self, *args, **kwargs):
        np.isin, builtins.frozenset = isin, CountingFrozenset
        try:
            return real_run_phase(self, *args, **kwargs)
        finally:
            np.isin, builtins.frozenset = real_isin, real_frozenset

    def exchange_batches(self, label, outboxes, template=None):
        shipped.extend((label, b) for box in outboxes for b in box if b is not None)
        return real_exchange(self, label, outboxes, template)

    mask = np.array([q.mode == "report" for q in batch])
    Machine.run_phase, Machine.exchange_batches = run_phase, exchange_batches
    try:
        tree.run(batch)
        out = tree.search([q.box for q in batch], report=mask)
    finally:
        Machine.run_phase, Machine.exchange_batches = real_run_phase, real_exchange
    failures += [f"{name} called in a phase: {n} (must be 0)" for name, n in calls.items() if n]
    if not sum(len(b) for b in out.report_pairs):
        failures.append("(the mixed pass reported nothing)")
    shipped += [("search:forest output", b) for b in out.forest_selections + out.report_pairs]
    odd = sorted(
        {
            f"{label}: {b.schema}.{name} is a {type(col).__name__}"
            for label, b in shipped
            for name, col in b.cols.items()
            if type(col) is not np.ndarray and not isinstance(col, KernelColumn)
        }
    )
    if odd or not shipped:
        failures.append(f"batch columns that are neither ndarray nor KernelColumn: {odd}")

    # step 5 at the busiest owner, on 64 and on 640 subqueries over the
    # same elements: what it does in Python is per element, not per row
    ns, mach = tree._ensure_resident(), tree.machine
    _sels, routing, _exps, _visits = tree.hat.walk_batch(
        0, *tree.ranked.to_rank_bounds(*Box.stack([q.box for q in batch])), mask
    )
    owners = routing.col("location")
    owner = int(np.bincount(owners).argmax())
    mine = np.flatnonzero(owners == owner)
    forest_cols = get_phase("dist.search.forest_cols")

    def step5(rows: int) -> int:
        """Python-level calls of step 5 on ``rows`` of ``owner``'s subqueries."""
        ctx = ProcContext(rank=owner, p=mach.p, state=mach.backend.states(mach.p)[owner])
        inbox = routing.take(np.resize(mine, rows))
        n = 0

        def profile(_frame, event, _arg):
            nonlocal n
            n += event == "call"

        sys.setprofile(profile)
        try:
            forest_cols(ctx, (inbox, (ns,), mask))
        finally:
            sys.setprofile(None)
        return n

    step5(64)  # warm the walk's memoised tables
    few, many = step5(64), step5(640)
    if few != many or len(np.unique(routing.col("element")[mine])) < 2:
        failures.append(
            f"step 5 made {few} Python calls on 64 subqueries and {many} on 640 "
            "over the same elements: a per-row decode?"
        )

    filters = []
    for module in (hat, search, forest_compiled, engine):
        for fn in ast.walk(ast.parse(inspect.getsource(module))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Compare)
                    and isinstance(node.ops[0], (ast.GtE, ast.Lt))
                    and isinstance(node.comparators[0], ast.Constant)
                    and node.comparators[0].value == 0
                    and "pid" in ast.unparse(node.left)
                ):
                    filters.append(f"{module.__name__}.{fn.name}")
    if filters != SENTINEL_FILTER:
        failures.append(f"negative pids are filtered in {filters}, want {SENTINEL_FILTER}")
    return failures


def fold_said_once_failures(tree, boxes) -> list:
    """A mode names its semigroup, the plan groups the batch by it: folds
    are per distinct semigroup, the kernel choice is per group and made
    once, each group folds once per rank and once at home and nothing is
    sorted."""
    from repro.query import aggregate, count, engine, report
    from repro.semigroup import sum_of_dim

    failures = []
    makers = (count, report, lambda b: aggregate(b, sum_of_dim(0)))
    batch = [makers[i % 3](b) for i, b in enumerate(boxes)]
    folds, calls = [], {}
    real_fold = engine.Fold

    def counted_fold(*args):
        folds.append(real_fold(*args))
        return folds[-1]

    engine.Fold = counted_fold
    try:
        with counting(
            calls,
            (engine.QueryEngine, "_fold_kernels"),
            *bound_in_repro("sample_sort_cols", "fold_segments"),
        ):
            tree.run(batch)
    finally:
        engine.Fold = real_fold
    got = [(f.semigroup.name, f.slot is None) for f in folds]
    if got != [("count", True), ("sum[x0]", False)]:
        failures.append(f"a 64-query c/r/a batch built Folds {got}, want leaf counts + sum[x0]")
    if calls["QueryEngine._fold_kernels"] != 1:
        failures.append(f"kernel choice made {calls} times, want once per pass")
    sorts, segs = (
        sum(n for key, n in calls.items() if key.endswith(name))
        for name in (".sample_sort_cols", ".fold_segments")
    )
    if sorts:
        failures.append(f"the pass called sample_sort_cols {sorts} time(s): the demux must not sort")
    if not 0 < segs <= 2 * tree.p * len(folds):
        failures.append(
            f"fold_segments called {segs} times on a pass, want at most 2 * p * groups "
            f"= {2 * tree.p * len(folds)}: a fold per run, not per group?"
        )
    return failures


#: where ``counting_lift`` logs a call (one byte each; a module global so
#: the function pickles by reference and forked workers inherit the path)
_LIFT_LOG = ""


def counting_lift(pid, coords) -> float:
    with open(_LIFT_LOG, "ab") as f:
        f.write(b".")
    return float(coords[0])


def kernel_field_failures() -> list:
    """The kernel travels in the semigroup's field: with it a build and a
    refit lift by columns, never per point — whatever ``lift`` is —
    and without it every lift is ``n_real`` per-point calls."""
    global _LIFT_LOG
    from repro.dist import DistributedRangeTree
    from repro.query import aggregate
    from repro.semigroup import max_of_dim, sum_of_dim
    from repro.workloads import make_points

    failures = []
    pts = make_points("uniform", 100, 2, seed=3)  # padded to 128: sentinels lift nothing
    box = Box(((0.0, 1.0), (0.0, 1.0)))
    with tempfile.TemporaryDirectory() as tmp:
        _LIFT_LOG = os.path.join(tmp, "lifts")
        for backend in ("serial", "process"):
            for kernel, want in ((sum_of_dim(0).kernel, 0), (None, 2 * pts.n)):
                open(_LIFT_LOG, "wb").close()
                sg = dataclasses.replace(sum_of_dim(0), lift=counting_lift, kernel=kernel)
                with DistributedRangeTree.build(pts, p=4, backend=backend, semigroup=sg) as tree:
                    got = tree.run([aggregate(box, max_of_dim(1))]).values()  # lazy refit
                    typed = tree.value_kernel is not None
                lifts = os.path.getsize(_LIFT_LOG)
                if lifts != want or typed != (kernel is not None) or got != [pts.coords[:, 1].max()]:
                    failures.append(
                        f"build + refit to a product under kernel={kernel!r} on {backend}: "
                        f"{lifts} per-point lift calls (want {want}), typed={typed}, answer {got}"
                    )
    return failures


def main() -> int:
    from repro.dist import DistributedRangeTree
    from repro.query import aggregate, count, report
    from repro.workloads import make_points

    pts = make_points("uniform", 512, 2, seed=1)
    boxes = [
        Box(((0.01 * i, 0.35 + 0.01 * i), (0.005 * i, 0.5 + 0.005 * i)))
        for i in range(64)
    ]
    batch = [(count, report, aggregate)[i % 3](b) for i, b in enumerate(boxes)]

    constructed = []
    real_random = random.Random

    class CountingRandom(real_random):
        def __init__(self, *args, **kwargs):
            constructed.append(args)
            super().__init__(*args, **kwargs)

    with DistributedRangeTree.build(pts, p=8) as tree:
        random.Random = CountingRandom
        try:
            none = tree.run([]).metrics
            one = tree.run(batch[:1]).metrics
            full = tree.run(batch).metrics
        finally:
            random.Random = real_random
        failures = report_mask_failures(tree, batch)
        failures += fold_said_once_failures(tree, boxes)

    none_rounds = [s.label for s in none.comm_steps()]
    one_rounds = [s.label for s in one.comm_steps()]
    full_rounds = [s.label for s in full.comm_steps()]
    if not none_rounds == one_rounds == full_rounds or len(full_rounds) != 5 + 3:
        failures.append(
            f"comm rounds differ with batch size or from 5 + log2 p = 8:\n  m=0:  {none_rounds}\n"
            f"  m=1:  {one_rounds}\n  m=64: {full_rounds}"
        )
    dispatches = [s.label for s in one.compute_steps()]
    if len(dispatches) > MAX_ONE_QUERY_DISPATCHES:
        failures.append(
            f"one-query pass made {len(dispatches)} run_phase dispatches "
            f"(max {MAX_ONE_QUERY_DISPATCHES}): {dispatches}"
        )
    if constructed:
        failures.append(
            f"{len(constructed)} random.Random constructed during the passes"
        )
    failures.extend(walk_shape_failures())
    failures.extend(hat_shape_failures())
    failures.extend(kernel_field_failures())
    object_calls = {**object_loop_calls(), **second_representation_calls()}
    for name, n in object_calls.items():
        if n:
            failures.append(f"{name}: {n} (must be 0)")
    print(
        f"empty pass: {len(none_rounds)} rounds; "
        f"one-query pass: {len(one_rounds)} rounds, {len(dispatches)} dispatches; "
        f"64-query pass: {len(full_rounds)} rounds; "
        f"random.Random constructed: {len(constructed)}; "
        f"per-object and second-representation calls: {object_calls}"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
