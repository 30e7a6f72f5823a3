"""Span tracing to JSONL files.

A :class:`Tracer` is installed per process (:func:`tracing` for a scoped
block, :func:`install_tracer` in a pool-worker initializer); instrumented
code calls the module-level :func:`span` helper, which collapses to a shared
no-op singleton when no tracer is installed so the disabled cost is one
attribute load and a ``None`` check.  Spans are the only record a tracer
writes.

Each completed span emits one line::

    {"event": "span", "name": "run", "span": "4242-7", "parent": "4242-6",
     "ts": 1700000000.0, "dur": 0.0123, "pid": 4242, "worker": "w1",
     "attrs": {...}, "counters": {...}}

Span ids are ``"<pid>-<n>"``, with ``n`` drawn from one process-wide
counter, so ids stay unique across every tracer a process installs and
across files appended to by several worker processes.  A tracer's
``parent`` (``None`` by default) is the parent id of its top-level spans: a
pool worker's tracer sets it to the dispatching process's open ``sweep``
span, so the worker's ``run`` spans hang under it across processes.  Lines
are written with a single ``write()`` of a complete line in append mode,
which keeps concurrent appends from interleaving on POSIX filesystems.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "NULL_SPAN",
    "Span",
    "Tracer",
    "current_tracer",
    "enabled",
    "install_tracer",
    "span",
    "tracing",
]

_EMIT_LOCK = threading.Lock()
_SPAN_NUMBERS = itertools.count(1)


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def add(self, name: str, amount: int = 1) -> None:
        pass

    def set(self, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """A timed region; use as a context manager via :func:`span`."""

    __slots__ = ("tracer", "name", "attrs", "counters", "span_id", "parent_id", "_ts", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.counters: Dict[str, int] = {}
        self.span_id = tracer._next_id()
        self.parent_id: Optional[str] = None
        self._ts = 0.0
        self._start = 0.0

    def __enter__(self) -> "Span":
        stack = self.tracer._stack
        self.parent_id = stack[-1].span_id if stack else self.tracer.parent
        stack.append(self)
        self._ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        duration = time.perf_counter() - self._start
        stack = self.tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # defensive: unwind past mis-nested spans
            while stack and stack[-1] is not self:
                stack.pop()
            if stack:
                stack.pop()
        payload: Dict[str, Any] = {
            "event": "span",
            "name": self.name,
            "span": self.span_id,
            "parent": self.parent_id,
            "ts": round(self._ts, 6),
            "dur": round(duration, 9),
        }
        if exc_type is not None:
            payload["error"] = exc_type.__name__
        if self.attrs:
            payload["attrs"] = self.attrs
        if self.counters:
            payload["counters"] = self.counters
        self.tracer.emit(payload)
        return False

    def add(self, name: str, amount: int = 1) -> None:
        """Attach (or bump) a counter reported with the span."""

        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered after the span opened."""

        self.attrs.update(attrs)


class Tracer:
    """Appends JSONL span lines to ``path``."""

    def __init__(self, path: str, worker: Optional[str] = None) -> None:
        self.path = os.fspath(path)
        self.worker = worker
        self.parent: Optional[str] = None
        self._pid = os.getpid()
        self._stack: List[Span] = []
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)

    def _next_id(self) -> str:
        return f"{self._pid}-{next(_SPAN_NUMBERS)}"

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def emit(self, payload: Dict[str, Any]) -> None:
        payload.setdefault("pid", self._pid)
        if self.worker is not None:
            payload.setdefault("worker", self.worker)
        line = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        with _EMIT_LOCK:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)


_TRACER: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    return _TRACER


def enabled() -> bool:
    return _TRACER is not None


def install_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or clear, with None) the process tracer; returns the previous one."""

    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def span(name: str, **attrs: Any) -> Any:
    """A context-manager span, or the shared no-op when tracing is off."""

    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


@contextmanager
def tracing(path: Optional[str], worker: Optional[str] = None) -> Iterator[Optional[Tracer]]:
    """Install a tracer for the duration of the block; a no-op for ``None``."""

    if path is None:
        yield _TRACER
        return
    tracer = Tracer(path, worker=worker)
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)
