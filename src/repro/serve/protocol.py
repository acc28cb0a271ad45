"""The serve wire protocol: newline-delimited JSON (NDJSON) over TCP.

One request per line, one response per line; responses may interleave
out of submission order (batches complete when their pass does), so
every request carries a client-chosen ``id`` echoed verbatim in its
response.

Request object::

    {"id": 7, "mode": "count", "box": [[0.1, 0.4], [0.2, 0.9]],
     "limit": ..., "k": ..., "dim": ..., "seed": ...,
     "deadline_ms": ...}

``mode`` defaults to ``"count"``; ``box`` is the per-dimension
``(lo, hi)`` list the :mod:`repro.query` constructors accept; the
remaining keys are the mode-specific options (``limit`` for report,
``k``/``dim`` for topk, ``k``/``seed`` for sample), each a JSON integer.
``deadline_ms`` (optional, a JSON number) bounds the query's total
latency server-side — past it the answer is a ``DeadlineExceeded``
error line, never a late result.  A value of the wrong JSON type (a
bool, a string, a fraction where an integer is due) is a bad request,
never coerced.
Aggregate queries fold the tree's declared semigroup (``base_semigroup``;
on a COUNT-declared tree, the default, that is the selections' widths,
the same fold as ``count``) — per-query semigroups are an in-process API
(callables do not serialize).

Response object::

    {"id": 7, "ok": true, "value": 42, "queue_ms": 1.8, "exec_ms": 3.1,
     "batch_size": 128, "batch_seq": 5}

or, on failure::

    {"id": 7, "ok": false,
     "error": {"type": "Overloaded", "message": "...",
               "inflight": 8192, "max_inflight": 8192}}

Error objects are **typed**: ``type`` names the
:mod:`repro.errors` class (``Overloaded`` / ``DeadlineExceeded`` /
``QueryFailed`` / ``ServeError``), ``message`` is human-readable, and
the type-specific fields ride along so :func:`error_from_obj` can
reconstruct the exact exception client-side; any other payload decodes
to a plain ``ServeError``.
Values pass through :func:`repro.query.result._json_safe`, the same
coercion the CLI's ``--json`` contract uses.
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import DeadlineExceeded, Overloaded, QueryFailed, ServeError
from ..query.descriptors import (
    Query,
    aggregate,
    count,
    report,
    sample_report,
    top_k,
)
from ..query.result import _json_safe
from .service import ServeResponse

__all__ = [
    "query_from_request",
    "deadline_from_request",
    "request_to_obj",
    "decode_line",
    "encode_response",
    "encode_error",
    "error_to_obj",
    "error_from_obj",
]

#: Modes the wire accepts, mapped to their per-request constructors.
_WIRE_MODES = ("count", "report", "aggregate", "topk", "sample")


def decode_line(line: bytes) -> dict:
    """Parse one NDJSON line into a request/response object."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ServeError(f"malformed JSON line: {exc}") from None
    if not isinstance(obj, dict):
        raise ServeError(
            f"expected a JSON object per line, got {type(obj).__name__}"
        )
    return obj


def _number(obj: dict, key: str, types: tuple, what: str) -> Any:
    """``obj[key]`` (``None`` when absent) if it is a JSON ``what``.

    ``bool`` is an ``int`` to Python but not a number to JSON, so it is
    refused by name.
    """
    value = obj.get(key)
    if value is not None and (isinstance(value, bool) or not isinstance(value, types)):
        raise ServeError(f"{key!r} must be a JSON {what}, got {value!r}")
    return value


def _integer(obj: dict, key: str, default: Any = None) -> Any:
    value = _number(obj, key, (int,), "integer")
    return default if value is None else value


def deadline_from_request(obj: dict) -> "float | None":
    """The request's ``deadline_ms`` (``None`` when it has none)."""
    value = _number(obj, "deadline_ms", (int, float), "number")
    return None if value is None else float(value)


def query_from_request(obj: dict) -> Query:
    """Build the :class:`~repro.query.Query` one wire request describes."""
    mode = obj.get("mode", "count")
    box = obj.get("box")
    if box is None:
        raise ServeError("request is missing 'box'")
    try:
        if mode == "count":
            return count(box)
        if mode == "report":
            return report(box, limit=_integer(obj, "limit"))
        if mode == "aggregate":
            return aggregate(box)
        if mode == "topk":
            if "k" not in obj:
                raise ServeError("topk request is missing 'k'")
            return top_k(box, _integer(obj, "k"), dim=_integer(obj, "dim", 0))
        if mode == "sample":
            if "k" not in obj:
                raise ServeError("sample request is missing 'k'")
            return sample_report(
                box, _integer(obj, "k"), seed=_integer(obj, "seed", 0)
            )
    except ServeError:
        raise
    except Exception as exc:
        raise ServeError(f"malformed {mode!r} request: {exc}") from None
    raise ServeError(
        f"unknown mode {mode!r}; the wire accepts {', '.join(_WIRE_MODES)}"
    )


def request_to_obj(
    query: Query, req_id: Any, deadline_ms: "float | None" = None
) -> dict:
    """Serialize a :class:`~repro.query.Query` into one wire request.

    The inverse of :func:`query_from_request` for the wire-expressible
    descriptor subset; a per-query semigroup cannot cross the wire and
    is rejected here rather than silently dropped.  ``deadline_ms``
    rides along when set, bounding the query's latency server-side.
    """
    if query.mode not in _WIRE_MODES:
        raise ServeError(f"mode {query.mode!r} is not wire-expressible")
    if query.semigroup is not None:
        raise ServeError(
            "per-query semigroups do not serialize; use the in-process "
            "client (QueryService.submit) for custom aggregates"
        )
    obj: dict = {
        "id": req_id,
        "mode": query.mode,
        "box": [
            [float(lo), float(hi)]
            for lo, hi in zip(query.box.lo, query.box.hi)
        ],
    }
    for key in ("limit", "k", "dim", "seed"):
        val = query.option(key)
        if val is not None:
            obj[key] = val
    if deadline_ms is not None:
        obj["deadline_ms"] = float(deadline_ms)
    return obj


def _line(obj: dict) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def encode_response(req_id: Any, resp: ServeResponse) -> bytes:
    """One success line: the answer plus its latency/batch tags."""
    return _line(
        {
            "id": req_id,
            "ok": True,
            "value": _json_safe(resp.value),
            "queue_ms": round(resp.queue_ms, 4),
            "exec_ms": round(resp.exec_ms, 4),
            "batch_size": resp.batch_size,
            "batch_seq": resp.batch_seq,
        }
    )


def error_to_obj(error: Any) -> dict:
    """Serialize an exception into the typed wire error object.

    Carries the type-specific fields for the structured serve errors so
    the client can rebuild the exact exception; any other exception (or
    a bare message string) degrades to a plain ``ServeError`` payload.
    """
    obj: dict = {"message": str(error)}
    if isinstance(error, Overloaded):
        obj["type"] = "Overloaded"
        obj["inflight"] = error.inflight
        obj["max_inflight"] = error.max_inflight
    elif isinstance(error, DeadlineExceeded):
        obj["type"] = "DeadlineExceeded"
        obj["deadline_ms"] = error.deadline_ms
        obj["waited_ms"] = error.waited_ms
    elif isinstance(error, QueryFailed):
        obj["type"] = "QueryFailed"
        obj["query_id"] = error.query_id
        obj["detail"] = error.detail
    else:
        obj["type"] = "ServeError"
    return obj


def error_from_obj(payload: Any) -> ServeError:
    """Reconstruct the typed exception one error payload describes.

    A payload that is no object (a bare string included) decodes to a
    :class:`~repro.errors.ServeError` naming it; unknown types degrade to
    one carrying their message, so a newer server never breaks an older
    client.
    """
    if not isinstance(payload, dict):
        return ServeError(f"remote query failed: {payload!r}")
    etype = payload.get("type")
    message = payload.get("message", "remote query failed")
    try:
        if etype == "Overloaded":
            return Overloaded(
                int(payload["inflight"]), int(payload["max_inflight"])
            )
        if etype == "DeadlineExceeded":
            return DeadlineExceeded(
                float(payload["deadline_ms"]), float(payload["waited_ms"])
            )
        if etype == "QueryFailed":
            return QueryFailed(
                int(payload["query_id"]), str(payload.get("detail", message))
            )
    except (KeyError, TypeError, ValueError):
        pass  # malformed typed payload: fall back to the message
    return ServeError(message)


def encode_error(req_id: Any, error: Any) -> bytes:
    """One failure line (still tagged with the request id, if any)."""
    return _line({"id": req_id, "ok": False, "error": error_to_obj(error)})
