"""Tests for the serve layer (repro.serve): the micro-batching daemon,
its flush policy edge cases, the NDJSON/TCP transport, and loadgen."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

import repro.cgm.metrics
from repro.cli import main
from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree
from repro.errors import ServeError
from repro.query import QueryBatch, aggregate, count, report, top_k
from repro.serve import (
    FlushPolicy,
    QueryService,
    ServeClient,
    make_serve_queries,
    query_from_request,
    request_to_obj,
    run_loadgen,
    run_loadgen_remote,
    start_tcp_server,
)
from repro.serve.protocol import decode_line, encode_error, encode_response
from repro.serve.service import BATCH_LOG_LEN
from repro.workloads import make_points

D = 2
BOX = ((0.2, 0.8), (0.2, 0.8))
FAR_BOX = ((0.85, 0.95), (0.85, 0.95))


@pytest.fixture(scope="module")
def tree():
    pts = make_points("uniform", 256, D, seed=5)
    with DistributedRangeTree.build(pts, p=2) as t:
        yield t


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# answers: served == direct
# ---------------------------------------------------------------------------
def test_mixed_batch_round_trip_matches_direct(tree):
    queries = make_serve_queries(24, D, seed=9)
    expected = tree.run(QueryBatch(queries)).values()

    async def go():
        async with QueryService(tree, FlushPolicy(max_wait_ms=2.0)) as svc:
            resps = await asyncio.gather(*(svc.query(q) for q in queries))
            return [r.value for r in resps], svc.metrics

    values, metrics = run(go())
    assert values == expected
    assert metrics.queries == len(queries)
    # concurrent submissions coalesced: strictly fewer passes than queries
    assert metrics.batches < len(queries)
    assert metrics.mean_batch_size > 1


def test_response_tags_and_latency_accounting(tree):
    async def go():
        async with QueryService(tree) as svc:
            return await svc.query(count(BOX))

    resp = run(go())
    assert resp.batch_size == 1
    assert resp.queue_ms >= 0 and resp.exec_ms > 0
    assert resp.total_ms == resp.queue_ms + resp.exec_ms


def test_per_query_semigroup_and_modes_survive_serving(tree):
    queries = [top_k(BOX, 3), count(BOX), report(BOX, limit=4)]
    expected = tree.run(QueryBatch(queries)).values()

    async def go():
        async with QueryService(tree) as svc:
            resps = await asyncio.gather(*(svc.query(q) for q in queries))
            return [r.value for r in resps]

    assert run(go()) == expected


def test_dynamic_tree_service():
    with DynamicDistributedRangeTree.build(dim=D, p=2, flush_threshold=8) as dyn:
        pts = make_points("uniform", 40, D, seed=11)
        for row in pts.coords:
            dyn.insert(tuple(float(c) for c in row))
        queries = [count(BOX), report(BOX), count(FAR_BOX)]
        expected = dyn.run(QueryBatch(queries)).values()

        async def go():
            async with QueryService(dyn) as svc:
                resps = await asyncio.gather(*(svc.query(q) for q in queries))
                return [r.value for r in resps]

        assert run(go()) == expected


# ---------------------------------------------------------------------------
# flush policy edge cases
# ---------------------------------------------------------------------------
def test_flush_policy_validation():
    with pytest.raises(ServeError):
        FlushPolicy(max_batch=0)
    with pytest.raises(ServeError):
        FlushPolicy(max_wait_ms=-1.0)


def test_timer_only_flush(tree):
    # one lonely query, a huge max_batch: only the timer can flush it
    async def go():
        policy = FlushPolicy(max_wait_ms=5.0, max_batch=10_000)
        async with QueryService(tree, policy) as svc:
            resp = await svc.query(count(BOX))
            return resp, svc.metrics

    resp, metrics = run(go())
    assert resp.batch_size == 1
    assert metrics.flushes["timer"] == 1
    assert metrics.flushes["size"] == 0


def test_size_only_flush_under_burst(tree):
    # a burst larger than max_batch with an enormous window: size flushes
    async def go():
        policy = FlushPolicy(max_wait_ms=60_000.0, max_batch=4)
        async with QueryService(tree, policy) as svc:
            resps = await asyncio.gather(
                *(svc.query(count(BOX)) for _ in range(8))
            )
            return resps, svc.metrics

    resps, metrics = run(go())
    assert metrics.flushes["size"] == 2
    assert metrics.flushes["timer"] == 0
    assert all(r.batch_size == 4 for r in resps)


def test_empty_window_executes_nothing(tree):
    # every future in the window is cancelled before the timer fires:
    # the flush admits nobody and no batch runs
    async def go():
        policy = FlushPolicy(max_wait_ms=30.0, max_batch=100)
        async with QueryService(tree, policy) as svc:
            futures = [svc.submit(count(BOX)) for _ in range(3)]
            for f in futures:
                f.cancel()
            await asyncio.sleep(0.08)  # let the timer flush the window
            return svc.metrics

    metrics = run(go())
    assert metrics.batches == 0
    assert metrics.cancelled == 3
    assert metrics.flushes["timer"] == 1


def test_client_cancel_mid_batch_does_not_poison_batch(tree, monkeypatch):
    # cancel one future after its batch flushed (mid-execution): the
    # other rider still gets its exact answer
    expected = tree.run(QueryBatch([count(BOX)])).values()[0]
    real_run_batch = QueryService._run_batch
    started = None

    def slow_run_batch(self, item):
        # worker thread: an asyncio.Event is the loop's to set
        self._loop.call_soon_threadsafe(started.set)
        import time as _time

        _time.sleep(0.05)
        return real_run_batch(self, item)

    monkeypatch.setattr(QueryService, "_run_batch", slow_run_batch)

    async def go():
        nonlocal started
        started = asyncio.Event()
        policy = FlushPolicy(max_wait_ms=1.0, max_batch=2)
        async with QueryService(tree, policy) as svc:
            keep = svc.submit(count(BOX))
            drop = svc.submit(count(BOX))
            await started.wait()
            drop.cancel()
            resp = await keep
            return resp, svc.metrics

    resp, metrics = run(go())
    assert resp.value == expected
    assert resp.batch_size == 2  # the cancelled rider was still computed
    assert metrics.cancelled == 1
    # only the delivered answer counts as served
    assert metrics.queries == 1
    for stats in (metrics.queue_latency, metrics.exec_latency, metrics.total_latency):
        assert stats.count == 1, stats.name


def test_graceful_shutdown_drains_in_flight(tree):
    # close while a window is still open: the drain flush answers it
    async def go():
        policy = FlushPolicy(max_wait_ms=60_000.0, max_batch=100)
        svc = await QueryService(tree, policy).start()
        futures = [svc.submit(count(BOX)) for _ in range(3)]
        await svc.aclose()
        return [f.result() for f in futures], svc.metrics

    resps, metrics = run(go())
    assert [r.value for r in resps] == tree.run(
        QueryBatch([count(BOX)] * 3)
    ).values()
    assert metrics.flushes["drain"] == 1


def test_submit_after_close_raises(tree):
    async def go():
        svc = await QueryService(tree).start()
        await svc.aclose()
        with pytest.raises(ServeError):
            svc.submit(count(BOX))

    run(go())


def test_submit_validates_before_batching(tree):
    async def go():
        async with QueryService(tree) as svc:
            with pytest.raises(ServeError):
                svc.submit("not a query")
            with pytest.raises(ServeError):
                svc.submit(count(((0.0, 1.0),)))  # 1-d box on a 2-d tree
            # the daemon survives: a good query still answers
            return (await svc.query(count(BOX))).value

    assert run(go()) == tree.run(QueryBatch([count(BOX)])).values()[0]


def test_batch_log_timestamps_are_ordered(tree):
    # every executed batch was flushed before it started and started
    # before it ended, on the loop clock
    async def go():
        policy = FlushPolicy(max_wait_ms=1.0, max_batch=4)
        async with QueryService(tree, policy) as svc:
            for _ in range(6):
                await asyncio.gather(
                    *(svc.query(count(BOX)) for _ in range(4))
                )
            return svc.metrics.batch_log

    log = run(go())
    assert len(log) >= 6
    for entry in log:
        assert entry["t_exec_start"] >= entry["t_flush"]
        assert entry["t_exec_end"] >= entry["t_exec_start"]


def test_daemon_memory_does_not_grow_with_uptime(tree, monkeypatch):
    """200 one-query batches: the machine keeps no pass's steps (each
    ``ResultSet`` carries its own copy), the batch log is a ring, the
    latency samples are a window (shrunk here below the run's length),
    and the summary's mean batch size no longer reads the log."""
    window = 64
    monkeypatch.setattr(repro.cgm.metrics, "LATENCY_WINDOW", window)
    tree.reset_metrics()
    one_pass = len(tree.run(QueryBatch([count(BOX)])).metrics.steps)
    assert len(tree.metrics.steps) == one_pass
    batches = 200

    async def go():
        async with QueryService(tree, FlushPolicy(max_batch=1)) as svc:
            first = await svc.query(count(BOX))
            short = svc.metrics.summary(), list(svc.metrics.batch_log)
            for _ in range(batches - 1):
                await svc.query(count(FAR_BOX))
            return first, short, svc.metrics

    first, (summary, log), metrics = run(go())
    assert len(tree.metrics.steps) <= one_pass
    assert first.value == tree.run(QueryBatch([count(BOX)])).values()[0]
    # a short run: the summary the unbounded log gave
    assert summary["batches"] == len(log) == 1
    assert summary["mean_batch_size"] == sum(b["size"] for b in log) / len(log)
    # a long one: every batch counted, the last BATCH_LOG_LEN remembered
    assert BATCH_LOG_LEN < batches == metrics.batches
    assert [b["seq"] for b in metrics.batch_log] == list(
        range(batches - BATCH_LOG_LEN, batches)
    )
    assert metrics.summary()["mean_batch_size"] == 1.0
    # every query counted, the last ``window`` samples kept
    for stats in (metrics.queue_latency, metrics.exec_latency, metrics.total_latency):
        assert stats.count == batches and len(stats.values_ms) == window


# ---------------------------------------------------------------------------
# the wire: protocol + TCP server/client
# ---------------------------------------------------------------------------
def test_protocol_round_trip():
    for q in [count(BOX), report(BOX, limit=7), aggregate(BOX), top_k(BOX, 2)]:
        obj = request_to_obj(q, req_id=42)
        back = query_from_request(json.loads(json.dumps(obj)))
        assert back.mode == q.mode
        assert back.box == q.box
        assert back.options == q.options


def test_protocol_rejects_malformed():
    with pytest.raises(ServeError):
        decode_line(b"{not json\n")
    with pytest.raises(ServeError):
        decode_line(b"[1, 2]\n")
    with pytest.raises(ServeError):
        query_from_request({"mode": "count"})  # no box
    with pytest.raises(ServeError):
        query_from_request({"mode": "nope", "box": [[0, 1], [0, 1]]})
    from repro.semigroup import COUNT

    with pytest.raises(ServeError):
        # per-query semigroups are in-process only; they must not
        # silently drop on the wire
        request_to_obj(aggregate(BOX, semigroup=COUNT), 1)


def test_encode_response_and_error_lines():
    from repro.serve.service import ServeResponse

    line = encode_response(3, ServeResponse(11, 1.0, 2.0, 4, 9))
    obj = json.loads(line)
    assert obj == {
        "id": 3, "ok": True, "value": 11, "queue_ms": 1.0, "exec_ms": 2.0,
        "batch_size": 4, "batch_seq": 9,
    }
    err = json.loads(encode_error(None, "boom"))
    assert err == {
        "id": None, "ok": False,
        "error": {"type": "ServeError", "message": "boom"},
    }


def test_tcp_two_clients_and_disconnect_survival(tree):
    queries = make_serve_queries(12, D, seed=21)
    expected = tree.run(QueryBatch(queries)).values()
    from repro.query.result import _json_safe

    async def go():
        async with QueryService(tree, FlushPolicy(max_wait_ms=2.0)) as svc:
            server = await start_tcp_server(svc, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with await ServeClient.connect("127.0.0.1", port) as a:
                    async with await ServeClient.connect(
                        "127.0.0.1", port
                    ) as b:
                        conns = [a, b]
                        values = await asyncio.gather(
                            *(
                                conns[i % 2].value(q)
                                for i, q in enumerate(queries)
                            )
                        )
                # both clients now gone (one mid-session batch after the
                # other): the service must still answer a fresh client
                async with await ServeClient.connect("127.0.0.1", port) as c:
                    extra = await c.value(count(BOX))
                return values, extra
            finally:
                server.close()
                await server.wait_closed()

    values, extra = run(go())
    assert values == [_json_safe(v) for v in expected]
    assert extra == tree.run(QueryBatch([count(BOX)])).values()[0]


def test_tcp_malformed_line_gets_error_line_not_disconnect(tree):
    async def go():
        async with QueryService(tree) as svc:
            server = await start_tcp_server(svc, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(b"{broken\n")
                await writer.drain()
                err = json.loads(await reader.readline())
                writer.write(
                    json.dumps(
                        {"id": 1, "mode": "count",
                         "box": [[0.2, 0.8], [0.2, 0.8]]}
                    ).encode() + b"\n"
                )
                await writer.drain()
                ok = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return err, ok
            finally:
                server.close()
                await server.wait_closed()

    err, ok = run(go())
    assert err["ok"] is False and "malformed" in err["error"]["message"]
    assert ok["ok"] is True and ok["id"] == 1
    assert ok["value"] == tree.run(QueryBatch([count(BOX)])).values()[0]


# ---------------------------------------------------------------------------
# loadgen
# ---------------------------------------------------------------------------
def test_loadgen_closed_loop_verifies(tree):
    row = run_loadgen(
        tree, m=24, seed=2, clients=4, arrival="closed", max_wait_ms=1.0
    )
    assert row["answers_match_direct"] is True
    assert row["qps"] > 0
    assert row["p50_ms"] <= row["p99_ms"]
    assert row["mean_batch_size"] >= 1


def test_loadgen_poisson_and_tcp(tree):
    row = run_loadgen(
        tree,
        m=18,
        seed=3,
        clients=3,
        arrival="poisson",
        rate_qps=3000.0,
        transport="tcp",
        max_wait_ms=1.0,
    )
    assert row["answers_match_direct"] is True
    assert row["transport"] == "tcp"
    assert row["rate_qps"] == 3000.0


def test_loadgen_rejects_bad_knobs(tree):
    with pytest.raises(ServeError):
        run_loadgen(tree, m=4, arrival="poisson")  # no rate
    with pytest.raises(ServeError):
        run_loadgen(tree, m=4, arrival="warp")
    with pytest.raises(ServeError):
        run_loadgen(tree, m=4, transport="carrier-pigeon")


@pytest.fixture
def daemon(tree):
    """A serve daemon on its own event loop in a background thread, as
    ``repro serve`` runs one; yields its TCP port."""
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    state = {}

    async def serve():
        state["stop"] = asyncio.Event()
        async with QueryService(tree, FlushPolicy(max_wait_ms=1.0)) as svc:
            server = await start_tcp_server(svc, "127.0.0.1", 0)
            state["port"] = server.sockets[0].getsockname()[1]
            ready.set()
            await state["stop"].wait()
            server.close()
            await server.wait_closed()

    thread = threading.Thread(target=loop.run_until_complete, args=(serve(),))
    thread.start()
    assert ready.wait(30), "daemon did not start"
    yield state["port"]
    loop.call_soon_threadsafe(state["stop"].set)
    thread.join(30)
    assert not thread.is_alive(), "daemon did not stop"
    loop.close()


#: What run_loadgen_remote's docstring promises (no optional knob set).
REMOTE_ROW = {
    "transport", "arrival", "clients", "m", "qps", "p50_ms", "p95_ms", "p99_ms",
    "errors", "error_rate", "error_types", "answers_match_direct",
}


def test_loadgen_remote_drives_a_running_daemon(daemon, capsys):
    row = run_loadgen_remote("127.0.0.1", daemon, m=24, d=D, seed=4, clients=3)
    assert set(row) == REMOTE_ROW
    assert (row["errors"], row["m"], row["transport"]) == (0, 24, "tcp")
    assert row["qps"] > 0 and row["p50_ms"] <= row["p99_ms"]
    # `loadgen --connect` is the same path from the command line
    argv = ["loadgen", "--connect", f"127.0.0.1:{daemon}", "--m", "12", "--d", str(D), "--json"]
    assert main(argv) == 0
    cli_row = json.loads(capsys.readouterr().out)
    assert set(cli_row) == REMOTE_ROW and cli_row["errors"] == 0
