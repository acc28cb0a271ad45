"""Span recording from outside the program.

The traced run wraps the public callables listed in ``perf/layers.py`` — at
run time, wherever ``sys.modules`` holds the same function object — and
records one span per call: name, layer, start, end, parent, and the op the
benchmark said it belongs to.  Spans stay in memory; ``chrome_trace`` turns
them into Chrome-trace JSON at the end.  A target that no longer exists is
skipped with a warning, never a crash.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional


class Span:
    __slots__ = (
        "id", "name", "layer", "label", "start", "end", "parent", "tag", "op",
        "thread", "attrs",
    )

    def __init__(self, sid, name, layer, parent, tag, op, thread) -> None:
        self.id = sid
        self.name = name
        self.layer = layer
        self.label: Optional[str] = None
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.tag = tag
        self.op = op
        self.thread = thread
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def dur(self) -> float:
        return self.end - self.start


#: ``note(span, args, kwargs, result)`` — optional per-target annotator.
Note = Callable[[Span, tuple, dict, Any], None]


class Tracer:
    """Owns the spans, the current (tag, op) mark, and the installed patches.

    ``op_from`` names a span that starts a new op by itself: the serve child
    sees batches, not the benchmark's marks, so there every
    ``QueryEngine.execute`` call opens the next op.
    """

    def __init__(self, op_from: Optional[str] = None) -> None:
        self.op_from = op_from
        self.spans: List[Span] = []
        self.warnings: List[str] = []
        self.tag = "setup"
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: List[tuple] = []

    def mark(self, tag: str, op: int) -> None:
        """Spans started from now on belong to ``(tag, op)``."""
        self.tag = tag
        self.op = op

    def warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)
            print(f"perf/trace warning: {message}", file=sys.stderr, flush=True)

    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        note: Optional[Note] = None,
    ) -> Callable:
        spans, local, ids = self.spans, self._local, self._ids
        tracer = self
        starts_op = name == self.op_from

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if starts_op and tracer.tag == "op":
                tracer.op += 1
            span = Span(
                next(ids), name, layer, stack[-1] if stack else -1,
                tracer.tag, tracer.op, threading.get_ident(),
            )
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                try:
                    note(span, args, kwargs, result)
                except Exception as exc:  # the program moved on; keep timing
                    tracer.warn(f"{name}: annotation failed ({exc!r})")
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    def install(self, targets: Iterable[tuple]) -> None:
        """Patch every ``(layer, name, module, attr, note)`` target."""
        by_id: Dict[int, Callable] = {}
        for layer, name, module, attr, note in targets:
            try:
                mod = importlib.import_module(module)
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name)
                    raw = owner.__dict__[method]
                else:
                    raw = getattr(mod, attr)
            except (ImportError, AttributeError, KeyError):
                self.warn(f"wrap target {module}:{attr} not found; {name} metrics dropped")
                continue
            if owner_name:
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                fn = raw.__func__ if kind else raw
                wrapped = self.wrap(fn, name, layer, note)
                self._patched.append((owner, method, raw))
                setattr(owner, method, kind(wrapped) if kind else wrapped)
            else:
                by_id[id(raw)] = self.wrap(raw, name, layer, note)
        # module-level functions: patch every module attribute that *is* one
        for mod in list(sys.modules.values()):
            names = getattr(mod, "__dict__", None)
            if not names:
                continue
            for key, value in list(names.items()):
                wrapped = by_id.get(id(value))
                if wrapped is not None and wrapped.__wrapped__ is value:
                    self._patched.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The spans as Chrome-trace ("X" complete events, microseconds)."""
        if not self.spans:
            return {"traceEvents": []}
        t0 = min(s.start for s in self.spans)
        threads = {t: i for i, t in enumerate(sorted({s.thread for s in self.spans}))}
        events = []
        for s in self.spans:
            args = {"id": s.id, "parent": s.parent, "tag": s.tag, "op": s.op}
            if s.label is not None:
                args["label"] = s.label
            if s.attrs:
                args.update(s.attrs)
            events.append(
                {
                    "name": s.name,
                    "cat": s.layer,
                    "ph": "X",
                    "ts": (s.start - t0) * 1e6,
                    "dur": s.dur * 1e6,
                    "pid": 1,
                    "tid": threads[s.thread],
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover (seconds)."""
    own = {s.id: s.dur for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.dur
    return own
