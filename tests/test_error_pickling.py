"""Every library error survives pickling with its message and attributes.

A phase that raises on a process-backend worker ships the error to the
driver by pickle; an error whose constructor takes other arguments than
its message must still come back as the same type, text and fields
(``tests/test_worker_failures.py`` raises one through a worker).
"""

from __future__ import annotations

import pickle

import pytest

from repro import errors

CASES = [
    errors.ReproError("plain"),
    errors.GeometryError("bad box"),
    errors.DimensionMismatch(2, 5, "box"),
    errors.EmptyPointSet("no points"),
    errors.MachineError("machine"),
    errors.PowerOfTwoError("p", 3),
    errors.CapacityExceeded("rank 0 holds 9 records"),
    errors.ProtocolError("protocol"),
    errors.WorkerCrash(1, "dist.search.walk_cols", -9),
    errors.InjectedFault("kernel.fold", 2),
    errors.InjectedFault("serve.pass", None, "custom text"),
    errors.ServeError("serve"),
    errors.Overloaded(9, 8),
    errors.DeadlineExceeded(5.0, 7.25),
    errors.QueryFailed(4, "boom"),
]


def test_the_cases_cover_every_exported_error():
    exported = {getattr(errors, name) for name in errors.__all__}
    assert {type(e) for e in CASES} == exported


@pytest.mark.parametrize("err", CASES, ids=lambda e: type(e).__name__)
def test_round_trip(err):
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert (str(back), back.args, vars(back)) == (str(err), err.args, vars(err))
