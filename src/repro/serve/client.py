"""A minimal asyncio TCP client for the serve protocol.

Used by the load generator's TCP mode, the CLI ``loadgen --connect``
path, and the end-to-end tests.  One :class:`ServeClient` holds one
connection; concurrent ``request`` calls multiplex over it, matched
back by the auto-assigned request id (responses arrive in batch
completion order, not submission order).

Error lines come back as the *typed* exceptions the daemon raised
(:class:`~repro.errors.Overloaded`, ``DeadlineExceeded``,
``QueryFailed`` — reconstructed by
:func:`repro.serve.protocol.error_from_obj`), so callers can branch on
type instead of parsing messages.  When constructed with ``retries >
0`` the client absorbs :class:`~repro.errors.Overloaded` sheds itself:
each retry waits :func:`backoff_s` and re-sends under a fresh request
id.  Once the daemon closes or resets the connection, every request
raises ``ServeError("connection closed")``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
from typing import Any, Awaitable, Callable, Dict

from ..errors import Overloaded, ServeError
from ..query.descriptors import Query
from .protocol import decode_line, error_from_obj, request_to_obj

__all__ = ["ServeClient", "backoff_s", "retry_overloaded", "RETRY_BASE_MS", "RETRY_CAP_MS"]

#: Backoff before the first retry, in ms (before jitter); it doubles per retry.
RETRY_BASE_MS = 10
#: The longest backoff, in ms (before jitter).
RETRY_CAP_MS = 500


def backoff_s(attempt: int, rng: random.Random) -> float:
    """Jittered exponential backoff before retry ``attempt`` (0-based), in s.

    ``RETRY_BASE_MS * 2**attempt`` capped at ``RETRY_CAP_MS``, scaled by
    a uniform draw from ``rng`` in ``[0.5, 1)`` so that concurrent
    clients seeded apart desynchronize deterministically.
    """
    delay_ms = min(RETRY_CAP_MS, RETRY_BASE_MS * 2**attempt)
    return delay_ms * (0.5 + rng.random() / 2.0) / 1000.0


async def retry_overloaded(
    send: Callable[[], Awaitable[Any]],
    retries: int,
    rng: random.Random,
    on_retry: Callable[[], None] = lambda: None,
) -> Any:
    """Await ``send()``, absorbing up to ``retries``
    :class:`~repro.errors.Overloaded` sheds: before retry ``k`` (0-based)
    call ``on_retry`` and wait ``backoff_s(k, rng)``.  Any other
    error, and the shed after the last retry, propagates — a deadline or
    a poisoned query fails the same way again.  The one retry rule of
    :class:`ServeClient` and the load generator's in-process transport.
    """
    attempt = 0
    while True:
        try:
            return await send()
        except Overloaded:
            if attempt >= retries:
                raise
            on_retry()
            await asyncio.sleep(backoff_s(attempt, rng))
            attempt += 1


class ServeClient:
    """One NDJSON connection to a serve daemon."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        retries: int = 0,
        retry_seed: int = 0,
    ) -> None:
        if retries < 0:
            raise ServeError(f"retries must be >= 0, got {retries}")
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count()
        self._pending: Dict[int, asyncio.Future] = {}
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self._closed = False
        self.retries = retries
        self._rng = random.Random(retry_seed)
        self.retried = 0  # Overloaded sheds absorbed by backoff

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        retries: int = 0,
        retry_seed: int = 0,
    ) -> "ServeClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(
            reader,
            writer,
            retries=retries,
            retry_seed=retry_seed,
        )

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                obj = decode_line(line)
                future = self._pending.pop(obj.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(obj)
        except ConnectionError:
            pass  # a reset is a close: the requests still pending fail below
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ServeError("connection closed"))
            self._pending.clear()

    async def _request_once(
        self, query: Query, deadline_ms: "float | None"
    ) -> dict:
        if self._closed:
            raise ServeError("ServeClient is closed")
        if self._reader_task.done():
            # no read loop is left to answer the request
            raise ServeError("connection closed")
        req_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[req_id] = future
        self._writer.write(
            (
                json.dumps(request_to_obj(query, req_id, deadline_ms)) + "\n"
            ).encode()
        )
        await self._writer.drain()
        obj = await future
        if not obj.get("ok"):
            raise error_from_obj(obj.get("error", {}))
        return obj

    async def request(
        self,
        query: Query,
        *,
        deadline_ms: "float | None" = None,
    ) -> dict:
        """Send one query; return the raw response object.

        A daemon error line raises the *typed* exception it describes
        (``Overloaded`` / ``DeadlineExceeded`` / ``QueryFailed`` /
        ``ServeError``).  ``Overloaded`` is retried up to the client's
        ``retries`` times (:func:`retry_overloaded`), each attempt on a
        fresh request id; the other error types are never retried.
        """
        return await retry_overloaded(
            lambda: self._request_once(query, deadline_ms), self.retries, self._rng, self._absorbed
        )

    def _absorbed(self) -> None:
        self.retried += 1

    async def value(
        self, query: Query, *, deadline_ms: "float | None" = None
    ) -> Any:
        """Send one query; return just its (JSON-safe) answer value."""
        return (await self.request(query, deadline_ms=deadline_ms))["value"]

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.aclose()
