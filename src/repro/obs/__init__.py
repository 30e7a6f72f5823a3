"""Sidecar observability: span tracing.

Everything here is stdlib-only and off by default.  Spans are the one
record: time, counters (:meth:`Span.add`) and attributes all ride on them.
The hard invariant is that telemetry never changes experiment outputs —
BENCH rows and journal lines are byte-identical with tracing on or off;
spans only ever land in their own sidecar files.
"""

from __future__ import annotations

from repro.obs.summary import format_trace_summary, load_trace_events, summarise_trace
from repro.obs.trace import NULL_SPAN, Span, Tracer, install_tracer, span, tracing

__all__ = [
    "NULL_SPAN",
    "Span",
    "Tracer",
    "format_trace_summary",
    "install_tracer",
    "load_trace_events",
    "span",
    "summarise_trace",
    "tracing",
]
