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
import socket
import struct

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
from repro.serve.client import RETRY_BASE_MS, RETRY_CAP_MS
from repro.serve.loadgen import run_loadgen
from repro.workloads import make_points
from tests.helpers import HeldWorker

D = 2
BOX = [(0.1, 0.9), (0.1, 0.9)]
#: How long a test waits for an answer due *before* a held pass ends.
SETTLE_S = 2.0


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
            async with QueryService(tree, max_inflight=2) as svc:
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
        """``len(taken) < nan`` never holds: such a cap would silently
        serve one query per pass, whatever the backlog."""
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


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------
class TestDeadlines:
    # A held worker keeps each query below queued: its deadline must
    # answer it while the pass is still held, so each awaits it with a
    # short timeout before release (a deadline that waited for the pass
    # fails fast, not at the worker's 30 s gate).
    def test_expired_query_answers_typed_error(self, tree, monkeypatch):
        held = HeldWorker(monkeypatch)

        async def go():
            async with QueryService(tree) as svc:
                try:
                    await held.occupy(svc, count(BOX))
                    future = svc.submit(count(BOX), deadline_ms=1.0)
                    with pytest.raises(DeadlineExceeded) as exc:
                        await asyncio.wait_for(future, SETTLE_S)
                finally:
                    held.release()
                return exc.value, svc.metrics

        exc, metrics = run(go())
        assert exc.deadline_ms == 1.0
        assert exc.waited_ms >= 1.0
        assert metrics.deadline_expired == 1
        # never planned: the one executed batch held the worker
        assert metrics.batches == 1
        assert [b["size"] for b in metrics.batch_log] == [1]

    def test_default_deadline_applies_per_service(self, tree, monkeypatch):
        held = HeldWorker(monkeypatch)

        async def go():
            async with QueryService(tree, default_deadline_ms=1.0) as svc:
                try:
                    # occupy() passes its own generous deadline
                    await held.occupy(svc, count(BOX))
                    with pytest.raises(DeadlineExceeded):
                        await asyncio.wait_for(svc.query(count(BOX)), SETTLE_S)
                finally:
                    held.release()

        run(go())

    def test_deadline_fires_behind_a_held_pass(self, tree, monkeypatch):
        # A and C wait behind the held pass; B's 5 ms deadline must not
        # wait for that pass, and B never rides the next one
        held = HeldWorker(monkeypatch)

        async def go():
            async with QueryService(tree) as svc:
                try:
                    await held.occupy(svc, count(BOX))
                    a = svc.submit(count(BOX))
                    await asyncio.sleep(0.02)
                    c = svc.submit(count(BOX))
                    await asyncio.sleep(0.02)
                    b = svc.submit(count(BOX), deadline_ms=5.0)
                    with pytest.raises(DeadlineExceeded) as exc:
                        await asyncio.wait_for(b, SETTLE_S)
                finally:
                    held.release()
                return exc.value, await asyncio.gather(a, c), svc.metrics

        exc, (a, c), metrics = run(go())
        assert exc.deadline_ms == 5.0 and exc.waited_ms >= 5.0
        assert metrics.deadline_expired == 1
        assert (a.batch_seq, a.batch_size) == (c.batch_seq, c.batch_size) == (1, 2)
        assert [b["size"] for b in metrics.batch_log] == [1, 2]

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
            async with QueryService(tree, FlushPolicy(max_batch=64)) as svc:
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
            async with QueryService(tree, FlushPolicy(max_batch=64)) as svc:
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
            async with QueryService(tree) as svc:
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

    def test_unknown_and_malformed_payloads_degrade(self):
        exc = error_from_obj({"type": "Future", "message": "m"})
        assert type(exc) is ServeError and str(exc) == "m"
        exc = error_from_obj({"type": "Overloaded"})  # missing fields
        assert type(exc) is ServeError
        # a bare string is no object: no server sends one
        exc = error_from_obj("boom")
        assert type(exc) is ServeError and str(exc) == "remote query failed: 'boom'"

    def test_typed_errors_cross_tcp(self, tree, monkeypatch):
        held = HeldWorker(monkeypatch)

        async def go():
            async with QueryService(tree, max_inflight=1) as svc:
                server = await start_tcp_server(svc, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                try:
                    async with await ServeClient.connect(
                        "127.0.0.1", port
                    ) as client:
                        # occupy the single slot, then get shed
                        started = held.arm()
                        hold = asyncio.ensure_future(
                            client.value(count(BOX))
                        )
                        try:
                            await started.wait()
                            with pytest.raises(Overloaded) as shed:
                                await client.value(count(BOX))
                        finally:
                            held.release()
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
        callers = 6
        # One slot: a caller can lose it about once per other caller's
        # in-flight window, plus the attempts its backoff needs to ramp
        # from base to cap (by then the others are long answered).
        retries = (callers - 1) + math.ceil(math.log2(RETRY_CAP_MS / RETRY_BASE_MS)) + 2

        async def go():
            async with QueryService(tree, max_inflight=1) as svc:
                server = await start_tcp_server(svc, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                try:
                    client = await ServeClient.connect(
                        "127.0.0.1",
                        port,
                        retries=retries,
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


    @pytest.mark.parametrize(
        "mode, key, value",
        [
            ("report", "limit", 2.7),
            ("topk", "k", "3"),
            ("topk", "k", True),
            ("topk", "dim", 0.0),
            ("sample", "seed", False),
            ("count", "deadline_ms", True),
            ("count", "deadline_ms", "5"),
        ],
    )
    def test_a_mistyped_option_is_a_bad_request(self, tree, mode, key, value):
        """An integer option takes only a JSON integer and ``deadline_ms``
        only a JSON number: nothing is coerced, and the connection lives on."""
        request = {"id": 1, "mode": mode, "box": BOX, "k": 2, key: value}
        good = {"id": 2, "mode": "count", "box": BOX}

        async def go():
            async with QueryService(tree) as svc:
                server = await start_tcp_server(svc, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                try:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    answers = []
                    for obj in (request, good):
                        writer.write(json.dumps(obj).encode() + b"\n")
                        await writer.drain()
                        answers.append(json.loads(await reader.readline()))
                    writer.close()
                    await writer.wait_closed()
                    return answers
                finally:
                    server.close()
                    await server.wait_closed()

        bad, ok = run(go())
        assert (bad["id"], bad["ok"], bad["error"]["type"]) == (1, False, "ServeError")
        assert repr(key) in bad["error"]["message"]
        direct = tree.run(QueryBatch([count(BOX)])).values()[0]
        assert (ok["id"], ok["ok"], ok["value"]) == (2, True, direct)

    @pytest.mark.parametrize("hang_up", ["close", "reset"])
    def test_requests_after_the_daemon_hangs_up_raise(self, hang_up):
        """A daemon that answers one line, then closes or resets the
        connection under the next request: that request and every later
        one raise ``ServeError``, the type a loadgen run counts, at once
        (never a bare ``ConnectionResetError``, never a wait on a reply
        that cannot come)."""

        async def answer_once(reader, writer):
            obj = json.loads(await reader.readline())
            reply = {"id": obj["id"], "ok": True, "value": 1}
            writer.write(json.dumps(reply).encode() + b"\n")
            await writer.drain()
            await reader.readline()
            if hang_up == "reset":
                linger_zero = struct.pack("ii", 1, 0)  # closing sends a RST
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, linger_zero
                )
                writer.transport.abort()
            else:
                writer.close()

        async def go():
            server = await asyncio.start_server(answer_once, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with await ServeClient.connect("127.0.0.1", port) as client:
                    first = await client.value(count(BOX))
                    errors = []
                    for _ in range(2):
                        with pytest.raises(ServeError) as exc:
                            await asyncio.wait_for(client.value(count(BOX)), 2)
                        errors.append(str(exc.value))
                    return first, errors
            finally:
                server.close()
                await server.wait_closed()

        assert run(go()) == (1, ["connection closed"] * 2)


# ---------------------------------------------------------------------------
# loadgen error accounting
# ---------------------------------------------------------------------------
class TestLoadgenErrors:
    def test_overload_run_records_error_budget(self, tree):
        row = run_loadgen(
            tree,
            m=48,
            clients=16,
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
