"""The serve_tcp workload: spawn the server child and drive it over the wire.

The benchmark speaks the NDJSON wire itself (no ``ServeClient``/``loadgen``):
two TCP connections, one generator process.  Set-up is child spawn to a
verified warm-up burst.  Phase ``light`` is a paced open-loop stream timed from
when each request was *due*; phase ``saturated`` is a closed loop of
``CALLERS`` callers in lock-step rounds.  Both run in segments bracketed by
``unit()`` calls so their times are calibrated.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean
from typing import Any, Dict, List, Optional

import numpy as np

from . import inputs, oracle
from .calib import Clock, peak_rss_mb, scale

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

CONNECTIONS = 2
CALLERS = 16
LIGHT_SEGMENT_S = 0.5
ROUNDS_PER_SEGMENT = 8
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class Child:
    """One server process; ``stop()`` always reaps it."""

    def __init__(self, points_path: Path, p: int, trace: bool, tag: str) -> None:
        self.summary_path = OUT_DIR / f"serve-summary-{os.getpid()}-{tag}.json"
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "serve_child.py"),
                "--points", str(points_path), "--p", str(p),
                "--summary", str(self.summary_path), "--trace", str(int(trace)),
            ],
            stdout=subprocess.PIPE,
            env={**os.environ, **CHILD_ENV},
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"serve child did not start (got {line!r})")
        self.port = int(line.split()[1])
        self.start_s = time.perf_counter() - self.t_spawn

    def end_of_setup(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> Optional[dict]:
        """SIGTERM, wait, and return the child's summary (None if it died)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        try:
            return json.loads(self.summary_path.read_text())
        except (OSError, ValueError):
            return None
        finally:
            self.summary_path.unlink(missing_ok=True)


class Wire:
    """``CONNECTIONS`` NDJSON/TCP connections with replies matched by id."""

    def __init__(self) -> None:
        self.writers: List[asyncio.StreamWriter] = []
        self._readers: List[asyncio.Task] = []
        self._waiting: Dict[int, asyncio.Future] = {}

    async def open(self, port: int) -> "Wire":
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            self.writers.append(writer)
            self._readers.append(asyncio.ensure_future(self._read(reader)))
        return self

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            t_recv = time.perf_counter()
            if not line:
                return
            obj = json.loads(line)
            future = self._waiting.pop(obj.get("id"), None)
            if future is not None and not future.done():
                future.set_result((t_recv, obj))

    def send(self, req_id: int, line: bytes) -> asyncio.Future:
        """Write one request line; the future resolves to ``(t_recv, reply)``."""
        future = asyncio.get_running_loop().create_future()
        self._waiting[req_id] = future
        self.writers[req_id % CONNECTIONS].write(line)
        return future

    async def close(self) -> None:
        for writer in self.writers:
            writer.close()
        for writer in self.writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        await asyncio.gather(*self._readers, return_exceptions=True)


class Requests:
    """The request lines and their expected answers, generated from the seed."""

    def __init__(self, points: np.ndarray, count: int, seed: int) -> None:
        d = points.shape[1]
        lo, hi = inputs.selectivity_boxes(inputs.rng_for(seed, 1), count, d)
        self.lo, self.hi = lo, hi
        self.modes = inputs.mode_cycle(count, "cra")
        names = {"c": "count", "r": "report", "a": "aggregate"}
        self.lines = [
            (
                json.dumps(
                    {
                        "id": i,
                        "mode": names[self.modes[i]],
                        "box": [[float(a), float(b)] for a, b in zip(lo[i], hi[i])],
                    }
                )
                + "\n"
            ).encode()
            for i in range(count)
        ]
        ids = np.arange(len(points), dtype=np.int64)
        self.expected = oracle.answers(ids, points, lo, hi, self.modes)

    def correct(self, i: int, reply: Any) -> bool:
        return (
            isinstance(reply, dict)
            and reply.get("ok") is True
            and reply.get("value") == self.expected[i]
        )


class ServeResult:
    """What one serve_tcp pass measured (``*_cal_*`` calibrated, the rest raw)."""

    def __init__(self, points: np.ndarray, requests: Requests) -> None:
        self.points = points
        self.requests = requests
        self.attempted = 0
        self.failed = 0
        self.result_ids = 0
        self.setup_cal_s: List[float] = []
        self.child_start_s: List[float] = []
        self.light_cal_ms: List[float] = []
        self.light_raw_ms: List[float] = []
        self.light_rtt_ms: List[float] = []
        self.light_late_ms: List[float] = []
        self.light_replies: List[dict] = []
        self.sat_round_qps: List[float] = []
        self.sat_rtt_ms: List[float] = []
        self.sat_replies: List[dict] = []
        self.peak_rss_mb = 0.0
        self.child_summary: Optional[dict] = None

    def judge(self, i: int, got: Optional[tuple]) -> bool:
        """Count request ``i``'s outcome; ``got`` is ``(t_recv, reply)`` or None."""
        self.attempted += 1
        if got is None or not self.requests.correct(i, got[1]):
            self.failed += 1
            return False
        if isinstance(got[1]["value"], list):
            self.result_ids += len(got[1]["value"])
        return True


REPLY_TIMEOUT_S = 30.0


async def _replies(futures: List[asyncio.Future]) -> list:
    """Each future's ``(t_recv, reply)``, or None where no reply came in time."""
    if futures:
        await asyncio.wait(futures, timeout=REPLY_TIMEOUT_S)
    return [f.result() if f.done() else None for f in futures]


async def _light(wire: Wire, res: ServeResult, clock: Clock, first: int, due: np.ndarray) -> None:
    """Paced open loop: request ``first + i`` is due at ``due[i]`` and timed from then."""
    lines = res.requests.lines
    at = 0
    before = clock.unit()
    while at < len(due):
        seg_start = due[at] - 0.005
        stop = at
        while stop < len(due) and due[stop] < seg_start + LIGHT_SEGMENT_S:
            stop += 1
        t_base = time.perf_counter() - seg_start
        sent: List[tuple] = []
        for i in range(at, stop):
            t_due = t_base + due[i]
            delay = t_due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            t_sent = time.perf_counter()
            sent.append((first + i, t_due, t_sent, wire.send(first + i, lines[first + i])))
        replies = await _replies([f for _i, _d, _s, f in sent])
        after = clock.unit()
        factor = scale(before, after)
        for (i, t_due, t_sent, _f), got in zip(sent, replies):
            if not res.judge(i, got):
                continue
            raw_ms = (got[0] - t_due) * 1000.0
            # Time spent waiting on timers — the server's batching window
            # (the reply's queue_ms) and the generator's own lateness — is
            # wall time whatever the host's speed; only the rest is scaled.
            waited_ms = got[1].get("queue_ms", 0.0) + (t_sent - t_due) * 1000.0
            res.light_raw_ms.append(raw_ms)
            res.light_cal_ms.append(waited_ms + (raw_ms - waited_ms) * factor)
            res.light_rtt_ms.append((got[0] - t_sent) * 1000.0)
            res.light_late_ms.append((t_sent - t_due) * 1000.0)
            res.light_replies.append(got[1])
        before = after
        at = stop


async def _saturated(wire: Wire, res: ServeResult, clock: Clock, ids: range) -> None:
    """Closed loop of ``CALLERS`` callers in lock-step: a round sends one request
    per caller back to back and ends when the last reply is in.

    Free-running callers fall into this rhythm by themselves (the replies of
    one batch arrive together, so the next requests leave together) or into
    split batches that alternate, at a lower throughput, and hop between the
    two by chance: 390-470 queries/s on one seed.  Rounds keep every run in
    the first.
    """
    lines = res.requests.lines
    rounds = [ids[a:a + CALLERS] for a in range(0, len(ids), CALLERS)]
    before = clock.unit()
    for seg in range(0, len(rounds), ROUNDS_PER_SEGMENT):
        timed: List[tuple] = []
        for batch in rounds[seg:seg + ROUNDS_PER_SEGMENT]:
            t0 = time.perf_counter()
            got = await _replies([wire.send(i, lines[i]) for i in batch])
            timed.append((batch, t0, time.perf_counter() - t0, got))
        after = clock.unit()
        factor = scale(before, after)
        for batch, t0, wall_s, got in timed:
            good = [g for i, g in zip(batch, got) if res.judge(i, g)]
            if len(good) < len(batch):
                continue  # a round with a failed request is no throughput sample
            res.sat_rtt_ms.extend((t_recv - t0) * 1000.0 for t_recv, _r in good)
            res.sat_replies.extend(r for _t, r in good)
            # As in `light`, timer waits are not scaled: per batch the server
            # idles from its last arrival to the window's end, which is the
            # smallest queue_ms among the batch's replies.
            idle: Dict[int, float] = {}
            for _t, r in good:
                seq, queued = r.get("batch_seq"), r.get("queue_ms", 0.0)
                idle[seq] = min(idle.get(seq, queued), queued)
            waited_s = min(sum(idle.values()) / 1000.0, wall_s)
            res.sat_round_qps.append(len(batch) / (waited_s + (wall_s - waited_s) * factor))
        before = after


async def _run(spec: Dict[str, Any], seed: int, light: int, saturated: int, clock: Clock,
               setups: int, trace: bool) -> ServeResult:
    OUT_DIR.mkdir(exist_ok=True)
    points = inputs.uniform_points(inputs.rng_for(seed, 0), spec["n"], spec["d"])
    points_path = OUT_DIR / f"serve-points-{os.getpid()}.npy"
    np.save(points_path, points)
    # requests [0, warm) are the set-up burst; then the light stream, then the rounds
    warm = spec["warmup"]
    res = ServeResult(points, Requests(points, warm + light + saturated, seed))
    lines = res.requests.lines
    due = inputs.paced_schedule(inputs.rng_for(seed, 3), light, spec["qps"])

    child: Optional[Child] = None
    wire: Optional[Wire] = None
    try:
        # Set-up, `setups` times: child spawn -> every reply of the warm-up burst
        # verified.  The burst spans the modes and the unit square, so the lazy
        # lowering a first touch pays sits inside setup_s, not in `light`'s tail.
        for i in range(setups):
            if wire is not None:
                await wire.close()
                child.stop()
            before = clock.unit()
            child = Child(points_path, spec["p"], trace, tag=str(i))
            ready = clock.unit()  # the child idles on accept(): two brackets, not one
            t0 = time.perf_counter()
            wire = await Wire().open(child.port)
            burst = await _replies([wire.send(k, lines[k]) for k in range(warm)])
            burst_s = time.perf_counter() - t0
            if all([res.judge(k, got) for k, got in enumerate(burst)]):
                res.setup_cal_s.append(
                    child.start_s * scale(before, ready) + burst_s * scale(ready, clock.unit())
                )
            res.child_start_s.append(child.start_s)
        child.end_of_setup()
        await _light(wire, res, clock, warm, due)
        await _saturated(wire, res, clock, range(warm + light, warm + light + saturated))
        res.peak_rss_mb = child.peak_rss_mb()
    finally:
        if wire is not None:
            await wire.close()
        if child is not None:
            res.child_summary = child.stop()
        points_path.unlink(missing_ok=True)
    return res


def run_serve(spec: Dict[str, Any], seed: int, light: int, saturated: int, clock: Clock,
              setups: int, trace: bool = False) -> ServeResult:
    """Drive one serve_tcp pass.  The child inherits this process's CPU affinity,
    so the kernel, the generator and the server share the CPU the runner pinned."""
    return asyncio.run(_run(spec, seed, light, saturated, clock, setups, trace))


def batch_mean(replies: List[dict]) -> float:
    """Mean size of the distinct batches the replies rode in."""
    sizes = {r["batch_seq"]: r["batch_size"] for r in replies}
    return fmean(sizes.values()) if sizes else 0.0
