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
  ``m = 0`` included) and the one-query pass makes 2 ``run_phase``
  dispatches (none for an empty replication round or the demux; ``main``);
* a batch pass calls no one-box ``to_rank_box`` and a ``dyn.run`` over
  >= 100 tombstones no ``Box.contains_point`` (``object_loop_calls``);
* on both backends a build, a lazy refit and a replicating pass construct
  no ``SegTree``, no pass calls ``CompiledForest.from_ranks``,
  ``Hat.build`` runs once per host per Construct and never on a pass, a
  refit or outside a dynamic absorb's Construct, and no ``repro`` module
  holds a test reference (``RangeTree``, ``DimTree``, ``CanonicalSelection``,
  ``rank_bounds``, ``Hat.walk``; ``second_representation_calls``);
* a refit rebinds only the hat's annotation (``one_hat_shape_failures``);
* the forest walk makes one ``searchsorted`` and one closed-form cover per
  divided dimension whether an element holds 64 points or 2048
  (``walk_shape_failures``); per host, a pass over 1-6 parts or copies
  makes one hat walk and one forest walk per dimension (``forest_walk_failures``);
* on a 64-query mixed pass no phase calls ``np.isin`` or builds a
  ``frozenset`` (the report mask is indexed, never rebuilt from a qid
  set), negative pids are dropped in one function, every column of a
  batch reaching ``Machine.exchange_batches`` or leaving Search step 5 is
  an ``np.ndarray`` or a ``KernelColumn``, and step 5 at one rank makes
  the same number of Python-level calls on 640 subqueries as on 64 over
  the same elements — a name is resolved per element, not per row
  (``report_mask_failures``);
* a 64-query count/report/sum/moments batch builds exactly 3 ``Fold``s,
  picks each group's kernel in one ``_fold_kernels`` call, sorts
  nothing (0 ``sample_sort_cols`` calls: partial values go home, pairs
  are balanced; no more ``sorted`` calls than a 1-query pass: ids arrive
  ascending), lifts its lazy refit in one ``lift_kernel_column`` call
  and folds every group — the object ones included — in one to two
  ``fold_segments`` calls per pass (every rank's own pieces, then at home)
  (``fold_said_once_failures``);
* every semigroup value rides the semigroup's ``kernel``: a build under
  ``sum_of_dim(0)`` with a counting ``lift``, lazily refit to a product
  with ``max_of_dim(1)``, lifts through one ``lift_kernel_column`` call
  per lift and folds through ``fold_segments`` on both backends, calling
  that ``lift`` 0 times under its typed kernel and ``n_real`` times per
  lift under an ``ObjectKernel`` (``kernel_field_failures``).

Tier-1 tests pin the rest: a dynamic batch is one Search pass
(``tests/test_dist_dynamic.py``'s ``TestOnePass``) and a pass constructs
no ``random.Random`` (``tests/test_cheap_supersteps.py``).
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
import importlib
import inspect
import os
import pkgutil
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from repro.geometry.box import Box

MAX_ONE_QUERY_DISPATCHES = 2


@contextmanager
def counting(calls: dict, *targets, by=None):
    """Count calls to each ``(class, method name)`` into ``calls[name]``
    (and into ``calls[name, by(first argument)]`` when ``by`` is given)."""
    saved = []
    try:
        for cls, name in targets:
            real = cls.__dict__[name]
            key = f"{cls.__name__}.{name}"
            calls.setdefault(key, 0)

            def wrapper(*args, _real=real, _key=key, **kwargs):
                calls[_key] += 1
                if by is not None:
                    calls[_key, by(args[0])] = calls.get((_key, by(args[0])), 0) + 1
                return _real(*args, **kwargs)

            saved.append((cls, name, real))
            setattr(cls, name, wrapper)
        yield calls
    finally:
        for cls, name, real in saved:
            setattr(cls, name, real)


@contextmanager
def counting_across_forks(cls, name):
    """Count calls to a classmethod here *and* in workers forked while it is
    patched (one byte per call to a temp file); yields a count getter."""
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


def total(calls: dict, name: str) -> int:
    """Calls ``counting`` saw of every binding of function ``name``."""
    return sum(n for key, n in calls.items() if isinstance(key, str) and key.endswith(f".{name}"))


def replicated(rs) -> int:
    """Bytes the replication rounds of the pass behind ``rs`` moved."""
    return sum(s.volume for s in rs.metrics.comm_steps() if s.label.startswith("search:replicate"))


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
    """Test references shipped, segment trees built, array builds on a pass: all 0."""
    import repro
    from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree
    from repro.dist.hat import Hat
    from repro.query import aggregate, count
    from repro.semigroup import sum_of_dim
    from repro.seq.compiled import CompiledForest
    from repro.seq.segment_tree import SegTree
    from repro.workloads import make_points

    calls: dict = {"Hat.walk in the package": int(hasattr(Hat, "walk"))}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(info.name)
    for mod, name in bound_in_repro("RangeTree", "DimTree", "CanonicalSelection", "rank_bounds"):
        calls[f"{mod.__name__}.{name} in the package"] = 1
    pts = make_points("uniform", 512, 2, seed=1)
    hot_box = Box(((0.0, 0.2), (0.0, 1.0)))
    hot = [count(hot_box)] * 64
    for backend in ("serial", "process"):
        # patched before the build: the process backend forks its workers
        # at first use, and they must inherit the counter
        with counting(calls, (SegTree, "__init__")), counting_across_forks(
            CompiledForest, "from_ranks"
        ) as builds, counting_across_forks(Hat, "build") as hats:
            with DistributedRangeTree.build(pts, p=8, backend=backend) as tree:
                built, hosts = builds(), len(tree.machine.backend.blocks(tree.p))
                calls[f"Hat.build not once per host in Construct ({backend})"] = hats() - hosts
                first = tree.run(hot)  # first pass after the build; replicates
                tree.run([aggregate(hot_box, sum_of_dim(0))] * 64)  # lazy refit + pass
                again = tree.run(hot)
                calls[f"CompiledForest.from_ranks on a pass ({backend})"] = builds() - built
                calls[f"Hat.build on a pass or a refit ({backend})"] = hats() - hosts
        for rs in (first, again):
            if not replicated(rs):
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
            calls["Hat.build outside Construct in dynamic absorbs"] = hats() - constructs()  # one host
            if not constructs():
                calls["(no dynamic absorb was counted)"] = 1
    return calls


#: What a refit may rebind on a ``Hat``; the rest is its shape and its tree's rows.
HAT_ANNOTATION = {"semigroup", "aggs", "idle"}


def one_hat_shape_failures() -> list:
    """The hat is its ``(p, d)`` shape plus one tree's rows: a refit
    rebinds only the hat's annotation.  (That trees share the shape is
    ``tests/test_hat_shape.py::test_every_rank_holds_its_process_memo``.)"""
    from repro.dist import DistributedRangeTree, Hat
    from repro.semigroup import top_k_ids
    from repro.workloads import make_points

    calls = {}
    with DistributedRangeTree.build(make_points("uniform", 512, 2, seed=1), p=8) as tree:
        hat, before = tree.hat, dict(vars(tree.hat))
        with counting(calls, (Hat, "__init__")):
            tree.reannotate(top_k_ids(2))  # an object column: the per-value case
        after = vars(hat)
        moved = [k for k in after if k not in HAT_ANNOTATION and after[k] is not before.get(k)]
        if calls["Hat.__init__"] or tree.hat is not hat or moved or set(after) != set(before):
            return [f"a refit rebuilt the hat: {calls['Hat.__init__']} Hat(s), {moved}"]
    return []


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
        with counting(calls, (RankSpace, "to_rank_box"), (RankedPointSet, "to_rank_box")):
            if not replicated(tree.run(hot)):
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
    from repro.seq import compiled
    from repro.seq.compiled import CompiledForest

    failures = []
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        steps = {}
        for m in (64, 2048):
            ranks = np.stack([rng.permutation(m) for _ in range(d)], axis=1)
            forest = CompiledForest.from_ranks(ranks)
            los = rng.integers(0, m // 2, size=(32, d))
            with counting({}, (np, "searchsorted"), (compiled, "_cover_bits")) as calls:
                CompiledForest.walk([forest], los, los + m // 3)
            steps[m] = calls
        want = {"numpy.searchsorted": d, "repro.seq.compiled._cover_bits": d}
        if steps[64] != steps[2048] or steps[64] != want:
            failures.append(
                f"d={d} walk steps depend on the element's size "
                f"(want {d} of each): m=64 {steps[64]}, m=2048 {steps[2048]}"
            )
    return failures


def forest_walk_failures() -> list:
    """Per host (serial: all p ranks) and pass, one hat walk and one forest walk per
    dimension however many stacks its ranks hold: a p=8 hot-spot pass (copies
    replicated) and dynamic passes over 1-6 parts (p=4, as ``TestOnePass``)."""
    from unittest import mock

    from repro.cgm import phases
    from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree, search_walks
    from repro.dist.hat import hat_shape
    from repro.query import count
    from repro.seq.compiled import CompiledForest
    from repro.workloads import make_points

    hosts, calls, real_step5 = [], {}, phases.get_phase("dist.search.forest_cols")

    def step5(ctxs, payloads):  # stacks: (rank, part, owner, dimension) the subqueries reach
        shape, before, stacks = hat_shape(ctxs[0].p, 2), calls["CompiledForest.walk"], set()
        for ctx, (inbox, *_rest) in zip(ctxs, payloads):
            eid, loc = (inbox.col(name)[inbox.col("kind") == 0] for name in ("element", "location"))
            part, leaf = np.divmod(eid, shape.size)
            stacks |= {(ctx.rank, *st) for st in zip(part.tolist(), loc.tolist(), shape.dim[leaf].tolist())}
        out = real_step5(ctxs, payloads)
        hosts.append((calls["CompiledForest.walk"] - before, len({st[3] for st in stacks}), len(stacks)))
        return out

    boxes = [Box(((0.0, 0.3), (0.1, 0.9)))] * 48
    boxes += [Box(((0.0, 0.55 + 0.03 * i), (0.05 * i, 0.9))) for i in range(14)]
    cuts = [Box(((0.0, 0.5), (0.25, 1.0))), Box(((0.5, 1.0), (0.0, 0.75))), Box(((0.25, 0.75),) * 2)]
    coords, parts = (np.random.default_rng(44).integers(0, 17, size=(191, 2)) / 16).tolist(), []
    with counting(calls, (CompiledForest, "walk"), (search_walks, "walk_hats")), mock.patch.dict(
        phases._PHASES, {"dist.search.forest_cols": step5}
    ), DistributedRangeTree.build(make_points("uniform", 512, 2, seed=1), p=8) as tree:
        rs = tree.run([count(b) for b in boxes])
        with DynamicDistributedRangeTree.build(coords[:128], p=4, flush_threshold=2) as dyn:
            for n, c in enumerate(coords[128:], 1):
                dyn.insert(c)
                if not (n + 1) & n:  # 1, 2, .., 6 buckets
                    dyn.run([count(b) for b in cuts * 4])
                    parts.append(len(dyn.bucket_sizes))
    failures = [f"step 5 made {w} forest walks at a host whose subqueries reach {dims} dimension(s)"
                f" in {n} stacks: a walk per stack?" for w, dims, n in hosts if w > dims]
    if calls["repro.dist.search_walks.walk_hats"] != 1 + len(parts) or len(hosts) != 1 + len(parts):
        failures.append(f"a pass and passes over {parts} parts made {calls['repro.dist.search_walks.walk_hats']}"
                        f" hat walks and {len(hosts)} step-5 calls on one host (want one each a pass)")
    if not replicated(rs) or parts != [1, 2, 3, 4, 5, 6] or not any(n > dims for _w, dims, n in hosts):
        failures.append(f"(no replication, {parts} parts, or no rank held two stacks of a dimension)")
    return failures


#: The one function that may compare a pid with 0 between the hat walk and the demux.
SENTINEL_FILTER = ["repro.dist.search_walks._forest_output"]


def report_mask_failures(tree, batch) -> list:
    """One mask from plan to walk, one int64 per name: the second
    spellings of "this query reports" (qid sets, per-phase re-masking, a
    second sentinel filter) and of "this element" (a column that is not
    an array, a per-row decode in step 5) must stay gone."""
    from repro.cgm.machine import Machine
    from repro.cgm.phases import ProcContext, get_phase
    from repro.dist import forest_compiled, hat, search, search_walks
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
    ns, mach = tree.construct_result.ns, tree.machine
    bounds = tree.ranked.to_rank_bounds(*Box.stack([q.box for q in batch]))
    _sels, routing, _exps, _visits = hat.walk_hats([tree.hat], 0, [bounds], mask)
    owners = routing.col("location")
    owner = int(np.bincount(owners).argmax())
    mine = np.flatnonzero(owners == owner)
    forest_cols = get_phase("dist.search.forest_cols")

    def step5(rows: int) -> int:
        """Python-level calls of step 5 on ``rows`` of ``owner``'s subqueries (a block of one)."""
        ctx = ProcContext(rank=owner, p=mach.p, state=mach.backend.states(mach.p)[owner])
        inbox = routing.take(np.resize(mine, rows))
        n = 0

        def profile(_frame, event, _arg):
            nonlocal n
            n += event == "call"

        sys.setprofile(profile)
        try:
            forest_cols([ctx], [(inbox, (ns,), mask)])
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
    for module in (hat, search, search_walks, forest_compiled, engine):
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
    once, each group — typed or object — folds once over every rank's
    pieces and once at home, the lazy refit lifts one column, and nothing is sorted — not
    the pairs, and not a reporting query's ids, which come out of the
    driver's one key sort ascending (the 64-query pass calls ``sorted``
    no more often than a 1-query one)."""
    from repro.query import aggregate, count, engine, report
    from repro.semigroup import moments_of_dim, sum_of_dim

    failures = []
    makers = (count, report, lambda b: aggregate(b, sum_of_dim(0)), lambda b: aggregate(b, moments_of_dim(1)))
    batch = [makers[i % 4](b) for i, b in enumerate(boxes)]
    folds, calls, sorts = [], {}, []
    real_fold, real_sorted = engine.Fold, builtins.sorted

    def counted_fold(*args):
        folds.append(real_fold(*args))
        return folds[-1]

    def counted_sorted(*args, **kwargs):
        sorts[-1] += 1
        return real_sorted(*args, **kwargs)

    builtins.sorted = counted_sorted
    try:
        sorts.append(0)
        tree.run(batch[:1])
        sorts.append(0)
        engine.Fold = counted_fold
        targets = bound_in_repro("sample_sort_cols", "fold_segments", "lift_kernel_column")
        by_kernel = lambda first: getattr(first, "name", None)  # noqa: E731
        with counting(calls, (engine.QueryEngine, "_fold_kernels"), *targets, by=by_kernel):
            tree.run(batch)
    finally:
        engine.Fold, builtins.sorted = real_fold, real_sorted
    if sorts[1] > sorts[0]:
        failures.append(
            f"the 64-query pass called sorted {sorts[1]} times, the 1-query pass {sorts[0]}: "
            "a reporting query's ids arrive ascending, nothing sorts them per answer"
        )
    got = [(f.semigroup.name, f.slot is None) for f in folds]
    if got != [("count", True), ("sum[x0]", False), ("moments[x1]", False)]:
        failures.append(f"a 64-query c/r/a batch built Folds {got}, want counts, sum[x0], moments[x1]")
    if calls["QueryEngine._fold_kernels"] != 1:
        failures.append(f"kernel choice made {calls} times, want once per pass")
    if total(calls, "sample_sort_cols"):
        failures.append(f"the pass called sample_sort_cols {total(calls, 'sample_sort_cols')}"
                        " time(s): the demux must not sort")
    if total(calls, "lift_kernel_column") != 1:
        failures.append(f"the refit lifted {total(calls, 'lift_kernel_column')} columns, want 1")
    segs = {key[1]: n for key, n in calls.items() if key[0].endswith(".fold_segments")}
    if len(segs) != len(folds) or not all(0 < n <= 2 for n in segs.values()):
        failures.append(
            f"fold_segments calls per group kernel {segs}, want 1 to 2 per pass for each "
            f"of {len(folds)} groups: a fold per rank or run, or a group folded elsewhere?"
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
    """The kernel travels in the semigroup's field: a build and a refit
    lift one column through ``lift_kernel_column`` and fold through
    ``fold_segments`` — by columns, never per point, under a typed kernel
    whatever ``lift`` is, and by ``n_real`` per-point calls under an
    ``ObjectKernel`` (layer 0 of the build's and the refit's product)."""
    global _LIFT_LOG
    from repro.dist import DistributedRangeTree
    from repro.query import aggregate
    from repro.semigroup import ObjectKernel, max_of_dim, sum_of_dim
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
                with counting({}, *bound_in_repro("lift_kernel_column", "fold_segments")) as calls:
                    with DistributedRangeTree.build(pts, p=4, backend=backend, semigroup=sg) as tree:
                        kinds = [tree.semigroup.kernel.component(0)]  # layer 0, as built
                        got = tree.run([aggregate(box, max_of_dim(1))]).values()  # lazy refit
                        kinds.append(tree.semigroup.kernel.component(0))  # and as refit
                typed = {not isinstance(k, ObjectKernel) for k in kinds}
                lifts, columns = os.path.getsize(_LIFT_LOG), total(calls, "lift_kernel_column")
                folds, right = total(calls, "fold_segments"), got == [pts.coords[:, 1].max()]
                if (lifts, columns, typed, right) != (want, 2, {kernel is not None}, True) or not folds:
                    failures.append(
                        f"build + refit to a product under kernel={kernel!r} on {backend}: "
                        f"{lifts} per-point lift calls (want {want}), {columns} lifted columns "
                        f"(want 2), {folds} fold_segments calls, typed={typed}, answer {got}"
                    )
    return failures


def main() -> int:
    from repro.dist import DistributedRangeTree
    from repro.query import aggregate, count, report
    from repro.workloads import make_points

    pts = make_points("uniform", 512, 2, seed=1)
    boxes = [Box(((0.01 * i, 0.35 + 0.01 * i), (0.005 * i, 0.5 + 0.005 * i))) for i in range(64)]
    batch = [(count, report, aggregate)[i % 3](b) for i, b in enumerate(boxes)]

    with DistributedRangeTree.build(pts, p=8) as tree:
        none = tree.run([]).metrics
        one = tree.run(batch[:1]).metrics
        full = tree.run(batch).metrics
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
    for gate in (walk_shape_failures, forest_walk_failures, one_hat_shape_failures, kernel_field_failures):
        failures += gate()
    object_calls = {**object_loop_calls(), **second_representation_calls()}
    for name, n in object_calls.items():
        if n:
            failures.append(f"{name}: {n} (must be 0)")
    print(
        f"empty pass: {len(none_rounds)} rounds; "
        f"one-query pass: {len(one_rounds)} rounds, {len(dispatches)} dispatches; "
        f"64-query pass: {len(full_rounds)} rounds; "
        f"per-object and second-representation calls: {object_calls}"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
