"""Chaos differentials: committed fault plans vs. fault-free runs.

Run with ``pytest -m chaos`` (excluded from tier-1 via addopts).  Every
test arms a *seeded* :class:`~repro.faults.FaultPlan` — the same
dispatch dies on every run — and asserts the gate the ISSUE commits to:
surviving queries answer **bit-identically** to a fault-free run,
failures surface as *typed* errors, and nothing hangs (the conftest
hang guard turns a hang into a failure).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cgm import Machine, ProcessBackend
from repro.dist import DistributedRangeTree
from repro.errors import InjectedFault, WorkerCrash
from repro.faults import FaultPlan, FaultRule, injected
from repro.query import QueryBatch, aggregate, count, report
from repro.serve import FlushPolicy, QueryService
from repro.serve.loadgen import run_loadgen
from repro.workloads import make_points, make_queries

pytestmark = pytest.mark.chaos

D = 2
N = 64
P = 4


def _queries(m: int = 12, seed: int = 3):
    boxes = make_queries("selectivity", m, D, seed=seed, selectivity=0.1)
    cycle = (count, lambda b: report(b, limit=8), aggregate)
    return [cycle[i % 3](b) for i, b in enumerate(boxes)]


def _fault_free(backend: str = "serial"):
    pts = make_points("uniform", N, D, seed=9)
    with DistributedRangeTree.build(pts, p=P, backend=backend) as tree:
        return tree.run(QueryBatch(_queries())).values()


class TestCrashChaos:
    @pytest.mark.timeout(120)
    def test_worker_crash_with_recovery_is_bit_identical(self):
        baseline = _fault_free()
        plan = FaultPlan(
            # mid-pass: rank 1 dies entering step 5, after its walk ran and
            # the subqueries were routed.  (Occurrences count per concrete
            # site, and a pass that replicates nothing dispatches each
            # search phase once — a glob with at=2 would never fire.)
            rules=(
                FaultRule("dist.search.forest_cols", "crash", rank=1, at=1),
            ),
            name="crash-rank1-forest-dispatch",
        )
        pts = make_points("uniform", N, D, seed=9)
        backend = ProcessBackend(recovery=True)
        with injected(plan):
            with Machine(P, backend=backend) as mach:
                tree = DistributedRangeTree.build(pts, machine=mach)
                values = tree.run(QueryBatch(_queries())).values()
        assert backend.recoveries >= 1  # the crash really happened
        assert values == baseline  # ... and the answers don't show it

    @pytest.mark.timeout(120)
    def test_worker_crash_without_recovery_fails_fast(self):
        plan = FaultPlan(
            rules=(FaultRule("dist.search.*", "crash", rank=0, at=1),),
            name="crash-rank0-fails-fast",
        )
        pts = make_points("uniform", N, D, seed=9)
        backend = ProcessBackend()
        with injected(plan):
            with Machine(P, backend=backend) as mach:
                tree = DistributedRangeTree.build(pts, machine=mach)
                with pytest.raises(WorkerCrash) as exc:
                    tree.run(QueryBatch(_queries()))
        assert exc.value.rank == 0
        assert exc.value.exit_code == 73  # the injected-crash status


class TestDelayChaos:
    def test_delays_never_change_answers(self):
        baseline = _fault_free()
        plan = FaultPlan(
            rules=(
                FaultRule("dist.search.*", "delay", delay_ms=2.0, count=0),
                FaultRule("kernel.fold", "delay", delay_ms=1.0, count=0),
            ),
            name="slow-everything",
        )
        pts = make_points("uniform", N, D, seed=9)
        with injected(plan, env=False):
            with DistributedRangeTree.build(pts, p=P) as tree:
                values = tree.run(QueryBatch(_queries())).values()
        assert values == baseline


class TestRaiseChaos:
    def test_injected_raise_is_typed_and_transient(self):
        pts = make_points("uniform", N, D, seed=9)
        plan = FaultPlan(
            rules=(FaultRule("dist.search.*", "raise", at=1, count=1),),
            name="raise-once",
        )
        with DistributedRangeTree.build(pts, p=P) as tree:
            baseline = tree.run(QueryBatch(_queries())).values()
            with injected(plan, env=False):
                with pytest.raises(InjectedFault):
                    tree.run(QueryBatch(_queries()))
            # the fault was an exception, not corruption: disarmed, the
            # same tree answers the same batch identically
            assert tree.run(QueryBatch(_queries())).values() == baseline


class TestServeChaos:
    def test_poisoned_engine_pass_is_bisected_transparently(self):
        pts = make_points("uniform", N, D, seed=9)
        plan = FaultPlan(
            rules=(FaultRule("serve.execute", "raise", at=1, count=1),),
            name="poison-first-serve-pass",
        )
        with DistributedRangeTree.build(pts, p=P) as tree:
            queries = _queries(6)
            baseline = tree.run(QueryBatch(queries)).values()

            async def go():
                async with QueryService(
                    tree, FlushPolicy(max_batch=64)
                ) as svc:
                    futures = [svc.submit(q) for q in queries]
                    responses = await asyncio.gather(*futures)
                    return [r.value for r in responses], svc.metrics

            with injected(plan, env=False):
                values, metrics = asyncio.run(go())
            # the injected fault killed the shared pass; the bisection
            # re-ran the batch and every query still answered right
            assert values == baseline
            assert metrics.bisect_passes >= 1

    def test_overload_sheds_but_never_lies(self):
        pts = make_points("uniform", N, D, seed=9)
        with DistributedRangeTree.build(pts, p=P) as tree:
            row = run_loadgen(
                tree,
                m=64,
                clients=32,
                arrival="closed",
                max_inflight=2,
                transport="inproc",
            )
        assert row["errors"] > 0  # the shed really happened
        assert set(row["error_types"]) == {"Overloaded"}  # typed
        assert row["answers_match_direct"] is True  # zero wrong answers
