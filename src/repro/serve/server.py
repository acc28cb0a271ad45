"""The TCP front-end: many connections feeding one micro-batching daemon.

Each accepted connection gets a reader loop that parses NDJSON requests
(:mod:`repro.serve.protocol`) and submits them to the shared
:class:`~repro.serve.service.QueryService`; a per-request responder task
writes each answer line as soon as its batch completes (responses
interleave across requests, matched by ``id``).  A malformed line earns
an error line and the connection lives on; a *disconnect* cancels every
outstanding responder — and through it the service future — so a gone
client's queries are dropped at the next admission or demux without
poisoning the batches they shared with live clients.
"""

from __future__ import annotations

import asyncio

from ..errors import ReproError
from .protocol import (
    deadline_from_request,
    decode_line,
    encode_error,
    encode_response,
    query_from_request,
)
from .service import QueryService

__all__ = ["start_tcp_server"]


async def start_tcp_server(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Listen on ``host:port`` (0 = ephemeral), serving ``service``.

    Returns the :class:`asyncio.AbstractServer`; read the bound port
    from ``server.sockets[0].getsockname()[1]``.  Close with
    ``server.close(); await server.wait_closed()`` — then drain the
    service itself with ``await service.aclose()``.
    """

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        await _handle_connection(service, reader, writer)

    return await asyncio.start_server(handle, host=host, port=port)


async def _handle_connection(
    service: QueryService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    write_lock = asyncio.Lock()
    responders: set = set()

    async def send(payload: bytes) -> None:
        async with write_lock:
            writer.write(payload)
            await writer.drain()

    async def respond(req_id, future) -> None:
        # Cancelling this task propagates into the service future (the
        # disconnect path); every other failure becomes an error line.
        try:
            resp = await future
        except asyncio.CancelledError:
            raise
        except ReproError as exc:
            await send(encode_error(req_id, exc))
            return
        await send(encode_response(req_id, resp))

    try:
        while True:
            line = await reader.readline()
            if not line:
                break  # EOF: client closed its write side
            if not line.strip():
                continue
            req_id = None
            try:
                obj = decode_line(line)
                req_id = obj.get("id")
                future = service.submit(
                    query_from_request(obj),
                    deadline_ms=deadline_from_request(obj),
                )
            except ReproError as exc:
                # Sheds (Overloaded), deadline validation, and malformed
                # requests all answer as typed error lines; the
                # connection lives on.
                await send(encode_error(req_id, exc))
                continue
            task = asyncio.ensure_future(respond(req_id, future))
            responders.add(task)
            task.add_done_callback(responders.discard)
    except (ConnectionError, asyncio.IncompleteReadError):
        pass  # abrupt disconnect: fall through to cleanup
    finally:
        for task in list(responders):
            task.cancel()
        if responders:
            await asyncio.gather(*responders, return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
