"""Sidecar observability: span tracing and counters.

Everything here is stdlib-only and off by default.  Spans are the one timing
channel; the metrics registry holds counters only.  The hard invariant is
that telemetry never changes experiment outputs — BENCH rows and journal
lines are byte-identical with tracing on or off; traces and their embedded
counter snapshots only ever land in their own sidecar files.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.obs import metrics as _metrics_mod
from repro.obs import trace as _trace_mod
from repro.obs.metrics import Metrics, count, get_metrics, reset_metrics
from repro.obs.summary import format_trace_summary, load_trace_events, summarise_trace
from repro.obs.trace import NULL_SPAN, Span, Tracer, event, span, tracing

__all__ = [
    "Metrics",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "configure",
    "count",
    "event",
    "format_trace_summary",
    "get_metrics",
    "load_trace_events",
    "observed",
    "reset_metrics",
    "restore",
    "span",
    "summarise_trace",
    "tracing",
]


def configure(trace_path: Optional[str] = None, *, worker: Optional[str] = None) -> Dict[str, Any]:
    """Install observability sinks process-wide; returns state for :func:`restore`.

    A trace path turns on both span emission and metrics collection (counter
    snapshots ride along inside trace events).  Used directly by pool-worker
    initializers, where the process exits with the pool and nothing needs
    restoring.
    """

    previous = {
        "tracer": _trace_mod.current_tracer(),
        "collecting": _metrics_mod.collecting(),
    }
    if trace_path is not None:
        _trace_mod.install_tracer(Tracer(trace_path, worker=worker))
        _metrics_mod.set_collecting(True)
    return previous


def restore(previous: Dict[str, Any]) -> None:
    """Undo a :func:`configure`."""

    _trace_mod.install_tracer(previous["tracer"])
    _metrics_mod.set_collecting(previous["collecting"])


@contextmanager
def observed(
    trace_path: Optional[str] = None, *, worker: Optional[str] = None
) -> Iterator[Optional[Tracer]]:
    """Scoped :func:`configure`; yields the installed tracer (or None)."""

    if trace_path is None:
        yield _trace_mod.current_tracer()
        return
    previous = configure(trace_path, worker=worker)
    try:
        yield _trace_mod.current_tracer()
    finally:
        restore(previous)
