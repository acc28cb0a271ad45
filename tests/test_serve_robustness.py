"""Serve-layer graceful degradation: shed, deadlines, poisoned batches.

The daemon's failure contract: overload answers ``Overloaded`` at
submission (bounded backlog), expired queries answer
``DeadlineExceeded`` and are never executed past their deadline, and a
poisoned batch fails only the offending query (``QueryFailed``) — the
loop, and every innocent batch-mate, survives.  All of it crosses the
wire as typed error objects the client rebuilds.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.dist import DistributedRangeTree
from repro.errors import (
    DeadlineExceeded,
    Overloaded,
    QueryFailed,
    ServeError,
)
from repro.query import QueryBatch, aggregate, count
from repro.semigroup import Semigroup
from repro.serve import (
    FlushPolicy,
    QueryService,
    ServeClient,
    error_from_obj,
    error_to_obj,
    start_tcp_server,
)
from repro.serve.loadgen import run_loadgen
from repro.workloads import make_points

D = 2
BOX = [(0.1, 0.9), (0.1, 0.9)]


@pytest.fixture(scope="module")
def tree():
    pts = make_points("uniform", 64, D, seed=5)
    return DistributedRangeTree.build(pts, p=4)


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_shed_past_max_inflight(self, tree):
        async def go():
            async with QueryService(
                tree, FlushPolicy(max_wait_ms=50.0), max_inflight=2
            ) as svc:
                held = [svc.submit(count(BOX)) for _ in range(2)]
                with pytest.raises(Overloaded) as exc:
                    svc.submit(count(BOX))
                await asyncio.gather(*held)
                # answered queries release their slots: admission reopens
                await svc.query(count(BOX))
                return exc.value, svc.metrics

        exc, metrics = run(go())
        assert exc.inflight == 2 and exc.max_inflight == 2
        assert metrics.shed == 1
        assert metrics.peak_inflight == 2
        assert metrics.summary()["shed"] == 1

    def test_validation_errors_do_not_leak_slots(self, tree):
        async def go():
            async with QueryService(tree, max_inflight=4) as svc:
                for _ in range(10):
                    with pytest.raises(ServeError):
                        svc.submit("not a query")
                assert svc.inflight == 0
                return (await svc.query(count(BOX))).value

        assert run(go()) is not None

    def test_max_inflight_validated(self, tree):
        with pytest.raises(ServeError, match="max_inflight"):
            QueryService(tree, max_inflight=0)
        with pytest.raises(ServeError, match="default_deadline_ms"):
            QueryService(tree, default_deadline_ms=0)


# ---------------------------------------------------------------------------
# non-finite settings: NaN passes every ``<``/``<=`` check, so each names it
# ---------------------------------------------------------------------------
class TestNonFiniteSettings:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_max_wait_ms_must_be_finite(self, value):
        with pytest.raises(ServeError, match="max_wait_ms must be a finite number"):
            FlushPolicy(max_wait_ms=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_default_deadline_ms_must_be_finite(self, tree, value):
        with pytest.raises(ServeError, match="default_deadline_ms must be a finite number"):
            QueryService(tree, default_deadline_ms=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.5])
    def test_max_inflight_must_be_an_integer(self, tree, value):
        with pytest.raises(ServeError, match="max_inflight must be an integer"):
            QueryService(tree, max_inflight=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.5])
    def test_max_batch_must_be_an_integer(self, value):
        """``len(pending) >= nan`` never holds: such a window could flush
        only on its timer."""
        with pytest.raises(ServeError, match="max_batch must be an integer"):
            FlushPolicy(max_batch=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_deadline_ms_must_be_finite_at_submit(self, tree, value):
        async def go():
            async with QueryService(tree) as svc:
                with pytest.raises(ServeError, match="deadline_ms must be a finite number"):
                    svc.submit(count(BOX), deadline_ms=value)
                return svc.metrics.deadline_expired

        assert run(go()) == 0

    def test_nan_deadline_on_the_wire_answers_a_typed_error(self, tree):
        """JSON's ``NaN`` literal reaches the service from the wire: it is
        a bad request, not an expired deadline."""

        async def go():
            async with QueryService(tree) as svc:
                server = await start_tcp_server(svc, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                try:
                    async with await ServeClient.connect("127.0.0.1", port) as client:
                        with pytest.raises(ServeError) as bad:
                            await client.value(count(BOX), deadline_ms=math.nan)
                        value = await client.value(count(BOX))  # the connection lives on
                    return bad.value, value, svc.metrics.deadline_expired
                finally:
                    server.close()
                    await server.wait_closed()

        bad, value, expired = run(go())
        assert type(bad) is ServeError and "deadline_ms" in str(bad)
        assert expired == 0
        assert value == tree.run(QueryBatch([count(BOX)])).values()[0]

    def test_cli_exits_2_on_nan_max_wait_ms(self, capsys):
        from repro.cli import main

        argv = ["loadgen", "--n", "64", "--m", "4", "--clients", "1", "--max-wait-ms", "nan", "--json"]
        assert main(argv) == 2
        assert "max_wait_ms" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------
class TestDeadlines:
    def test_expired_query_answers_typed_error(self, tree):
        async def go():
            async with QueryService(
                tree, FlushPolicy(max_wait_ms=80.0)
            ) as svc:
                future = svc.submit(count(BOX), deadline_ms=1.0)
                with pytest.raises(DeadlineExceeded) as exc:
                    await future
                return exc.value, svc.metrics

        exc, metrics = run(go())
        assert exc.deadline_ms == 1.0
        assert exc.waited_ms >= 1.0
        assert metrics.deadline_expired == 1
        # never planned: no batch was executed for it
        assert metrics.batches == 0

    def test_default_deadline_applies_per_service(self, tree):
        async def go():
            async with QueryService(
                tree,
                FlushPolicy(max_wait_ms=80.0),
                default_deadline_ms=1.0,
            ) as svc:
                with pytest.raises(DeadlineExceeded):
                    await svc.query(count(BOX))

        run(go())

    def test_generous_deadline_still_answers(self, tree):
        async def go():
            async with QueryService(tree) as svc:
                resp = await svc.query(count(BOX), deadline_ms=30_000)
                return resp.value

        direct = tree.run(QueryBatch([count(BOX)])).values()[0]
        assert run(go()) == direct

    def test_bad_deadline_rejected_at_submit(self, tree):
        async def go():
            async with QueryService(tree) as svc:
                with pytest.raises(ServeError, match="deadline_ms"):
                    svc.submit(count(BOX), deadline_ms=-5)

        run(go())


# ---------------------------------------------------------------------------
# poisoned batches
# ---------------------------------------------------------------------------
def _poison():
    """A semigroup whose combine always explodes (a poisoned aggregate)."""
    return Semigroup("poison", lambda i, c: 1, lambda a, b: 1 / 0, 0)


class TestPoisonedBatch:
    def test_bisect_isolates_the_offending_query(self, tree):
        direct = tree.run(QueryBatch([count(BOX)])).values()[0]

        async def go():
            async with QueryService(
                tree, FlushPolicy(max_wait_ms=20.0, max_batch=64)
            ) as svc:
                good = [svc.submit(count(BOX)) for _ in range(3)]
                bad = svc.submit(aggregate(BOX, semigroup=_poison()))
                more = [svc.submit(count(BOX)) for _ in range(3)]
                survivors = await asyncio.gather(*(good + more))
                with pytest.raises(QueryFailed) as exc:
                    await bad
                return survivors, exc.value, svc.metrics

        survivors, failure, metrics = run(go())
        # innocent batch-mates get the exact fault-free answers
        assert [r.value for r in survivors] == [direct] * 6
        assert failure.query_id == 3  # 4th submission of the service
        assert metrics.query_failures == 1
        assert metrics.bisect_passes == 1
        assert metrics.errors == 1

    def test_a_batch_whose_planning_raises_is_bisected(self, tree, monkeypatch):
        # planning runs inside the pass: a batch whose plan raises is a
        # failing pass like any other, and only the culprit fails
        from repro.query.engine import QueryEngine

        marked = [(0.2, 0.3), (0.2, 0.3)]
        real_plan = QueryEngine.plan

        def plan(engine, batch):
            if any(q.box == count(marked).box for q in batch):
                raise RuntimeError("unplannable")
            return real_plan(engine, batch)

        monkeypatch.setattr(QueryEngine, "plan", plan)
        direct = tree.run(QueryBatch([count(BOX)])).values()[0]

        async def go():
            async with QueryService(
                tree, FlushPolicy(max_wait_ms=20.0, max_batch=64)
            ) as svc:
                good = [svc.submit(count(BOX)) for _ in range(3)]
                bad = svc.submit(count(marked))
                more = [svc.submit(count(BOX)) for _ in range(3)]
                survivors = await asyncio.gather(*(good + more))
                with pytest.raises(QueryFailed, match="unplannable") as exc:
                    await bad
                return survivors, exc.value, svc.metrics

        survivors, failure, metrics = run(go())
        assert [r.value for r in survivors] == [direct] * 6
        assert failure.query_id == 3
        assert metrics.bisect_passes == 1
        assert metrics.errors == metrics.query_failures == 1

    def test_failed_refit_rolls_the_annotation_back(self, tree):
        # a poisoned per-query semigroup raises mid-refit; the engine
        # must restore the prior annotation so later (default) aggregate
        # queries still fold the build-time semigroup correctly
        expected = tree.run(QueryBatch([aggregate(BOX)])).values()[0]
        with pytest.raises(Exception):
            tree.run(QueryBatch([aggregate(BOX, semigroup=_poison())]))
        assert tree.run(QueryBatch([aggregate(BOX)])).values()[0] == expected

    def test_daemon_survives_repeated_poisoning(self, tree):
        async def go():
            async with QueryService(
                tree, FlushPolicy(max_wait_ms=5.0)
            ) as svc:
                for _ in range(3):
                    with pytest.raises(QueryFailed):
                        await svc.query(aggregate(BOX, semigroup=_poison()))
                    # the loop keeps serving between failures
                    await svc.query(count(BOX))
                return svc.metrics

        metrics = run(go())
        assert metrics.query_failures == 3


# ---------------------------------------------------------------------------
# typed errors on the wire
# ---------------------------------------------------------------------------
class TestWireErrors:
    @pytest.mark.parametrize(
        "exc",
        [
            Overloaded(12, 8),
            DeadlineExceeded(5.0, 7.25),
            QueryFailed(42, "division by zero"),
            ServeError("plain failure"),
        ],
    )
    def test_error_objects_round_trip(self, exc):
        payload = json.loads(json.dumps(error_to_obj(exc)))
        again = error_from_obj(payload)
        assert type(again) is type(exc)
        assert str(again) == str(exc)
        assert vars(again) == vars(exc)

    def test_legacy_string_errors_still_decode(self):
        assert isinstance(error_from_obj("boom"), ServeError)
        assert str(error_from_obj("boom")) == "boom"

    def test_unknown_and_malformed_payloads_degrade(self):
        exc = error_from_obj({"type": "Future", "message": "m"})
        assert type(exc) is ServeError and str(exc) == "m"
        exc = error_from_obj({"type": "Overloaded"})  # missing fields
        assert type(exc) is ServeError

    def test_typed_errors_cross_tcp(self, tree):
        async def go():
            async with QueryService(
                tree, FlushPolicy(max_wait_ms=80.0), max_inflight=1
            ) as svc:
                server = await start_tcp_server(svc, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                try:
                    async with await ServeClient.connect(
                        "127.0.0.1", port
                    ) as client:
                        # occupy the single slot, then get shed
                        hold = asyncio.ensure_future(
                            client.value(count(BOX))
                        )
                        await asyncio.sleep(0.01)
                        with pytest.raises(Overloaded) as shed:
                            await client.value(count(BOX))
                        await hold  # free the slot before the deadline probe
                        with pytest.raises(DeadlineExceeded):
                            await client.value(
                                count(BOX), deadline_ms=0.001
                            )
                        return shed.value
                finally:
                    server.close()
                    await server.wait_closed()

        shed = run(go())
        assert shed.max_inflight == 1

    def test_client_retries_absorb_sheds(self, tree):
        callers, base_ms, cap_ms = 6, 2.0, 500.0
        # One slot: a caller can lose it about once per other caller's
        # in-flight window, plus the attempts its backoff needs to ramp
        # from base to cap (by then the others are long answered).
        retries = (callers - 1) + math.ceil(math.log2(cap_ms / base_ms)) + 2

        async def go():
            async with QueryService(
                tree, FlushPolicy(max_wait_ms=2.0), max_inflight=1
            ) as svc:
                server = await start_tcp_server(svc, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                try:
                    client = await ServeClient.connect(
                        "127.0.0.1",
                        port,
                        retries=retries,
                        retry_base_ms=base_ms,
                        retry_cap_ms=cap_ms,
                    )
                    values = await asyncio.gather(
                        *[client.value(count(BOX)) for _ in range(callers)]
                    )
                    retried = client.retried
                    await client.aclose()
                    return values, retried, svc.metrics.shed

                finally:
                    server.close()
                    await server.wait_closed()

        direct = tree.run(QueryBatch([count(BOX)])).values()[0]
        values, retried, shed = run(go())
        assert values == [direct] * 6  # every query answered, correctly
        assert shed > 0  # the service really did shed
        assert retried == shed  # ... and the client absorbed every one


# ---------------------------------------------------------------------------
# loadgen error accounting
# ---------------------------------------------------------------------------
class TestLoadgenErrors:
    def test_overload_run_records_error_budget(self, tree):
        row = run_loadgen(
            tree,
            m=48,
            clients=16,
            max_wait_ms=20.0,
            max_inflight=2,
            transport="inproc",
        )
        assert row["errors"] > 0
        assert row["error_types"].get("Overloaded", 0) == row["errors"]
        assert 0 < row["error_rate"] <= 1
        assert row["max_inflight"] == 2
        # a shed query is never a wrong answer
        assert row["answers_match_direct"] is True

    def test_retries_absorb_the_error_budget(self, tree):
        row = run_loadgen(
            tree,
            m=48,
            clients=16,
            max_wait_ms=5.0,
            max_inflight=2,
            retries=8,
            transport="inproc",
        )
        assert row["errors"] == 0
        assert row["answers_match_direct"] is True
        assert row["retries"] == 8

    def test_clean_run_has_empty_error_fields(self, tree):
        row = run_loadgen(tree, m=16, clients=2, transport="inproc")
        assert row["errors"] == 0
        assert row["error_types"] == {}
        assert row["error_rate"] == 0.0
        assert row["serve_metrics"]["shed"] == 0
