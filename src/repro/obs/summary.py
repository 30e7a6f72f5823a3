"""Summarise JSONL span traces into a per-phase exclusive-time/counter breakdown."""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Tuple

__all__ = ["format_trace_summary", "load_trace_events", "summarise_trace"]


def load_trace_events(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Parse the span lines of one or more JSONL trace files.

    Unparseable lines are skipped (concurrent writers make a torn final line
    possible), and so are lines that are not spans (older traces also hold
    standalone events); missing files raise so typos surface loudly.
    """

    events: List[Dict[str, Any]] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    parsed = json.loads(line)
                except ValueError:
                    continue
                if isinstance(parsed, dict) and parsed.get("event") == "span":
                    events.append(parsed)
    return events


def _phase_of(name: str) -> str:
    """The phase bucket of a span name: the prefix before the first dot.

    ``engine.build`` lands in the ``engine`` bucket; ``sampler.batch`` in
    ``sampler``; ``noise.oracle_flip`` and ``noise.depolarise`` in ``noise``
    (so a noisy run's corruption cost shows up as its own phase); a name
    without a dot is its own bucket.
    """
    return name.split(".", 1)[0]


def _covered_s(intervals: List[Tuple[float, float]]) -> float:
    """The length of the union of ``(start, end)`` intervals."""

    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def summarise_trace(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate exclusive span time and counters.

    A span's self time is its ``dur`` minus the time of its direct
    children, matched by ``parent`` id (ids carry the writer's pid, so equal
    numeric suffixes from different processes never match).  Children
    written by the span's own process run one after another, so their
    ``dur`` values are summed; children from other processes (pool workers
    under a ``sweep`` span) run concurrently, so they subtract the union of
    their ``[ts, ts + dur]`` wall-clock intervals.  A span whose parent is
    absent from the loaded events — a top-level span, a torn line, another
    writer's file — is a root.  Root self time is reported as
    ``unattributed_s``; every other span counts, with its self time, in its
    phase (the name prefix before the first dot).  Phase self times plus
    ``unattributed_s`` sum to ``self_s``, and each phase's ``share`` is of
    ``self_s``; for a single-process trace ``self_s`` equals ``root_s``,
    the total duration of the ``roots`` root spans.

    Returns ``{"spans": {name: {count, total_s, self_s, max_s, errors,
    counters}}, "phases": {prefix: {span_count, self_s, share}},
    "roots": r, "root_s": t, "self_s": s, "unattributed_s": u,
    "events": n, "workers": [...]}``, where ``total_s`` is inclusive time
    and the ``spans`` table covers roots too.
    """

    span_events = list(events)
    workers = {
        str(entry.get("worker") or f"pid-{entry.get('pid', '?')}") for entry in span_events
    }
    by_id = {entry["span"]: entry for entry in span_events if entry.get("span") is not None}
    child_s: Dict[str, float] = {}
    remote: Dict[str, List[Tuple[float, float]]] = {}
    for entry in span_events:
        parent = by_id.get(entry.get("parent"))
        if parent is None:
            continue
        duration = float(entry.get("dur", 0.0))
        if entry.get("pid") == parent.get("pid"):
            child_s[parent["span"]] = child_s.get(parent["span"], 0.0) + duration
        else:
            start = float(entry.get("ts", 0.0))
            remote.setdefault(parent["span"], []).append((start, start + duration))
    for span_id, intervals in remote.items():
        child_s[span_id] = child_s.get(span_id, 0.0) + _covered_s(intervals)

    spans: Dict[str, Dict[str, Any]] = {}
    phases: Dict[str, Dict[str, Any]] = {}
    roots = 0
    root_s = self_s = unattributed_s = 0.0
    for entry in span_events:
        name = str(entry.get("name", "?"))
        duration = float(entry.get("dur", 0.0))
        own = duration - child_s.get(entry.get("span"), 0.0)
        self_s += own
        bucket = spans.setdefault(
            name,
            {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0, "errors": 0, "counters": {}},
        )
        bucket["count"] += 1
        bucket["total_s"] += duration
        bucket["self_s"] += own
        if duration > bucket["max_s"]:
            bucket["max_s"] = duration
        if "error" in entry:
            bucket["errors"] += 1
        for key, value in (entry.get("counters") or {}).items():
            bucket["counters"][key] = bucket["counters"].get(key, 0) + int(value)
        if entry.get("parent") in by_id:
            phase = phases.setdefault(_phase_of(name), {"span_count": 0, "self_s": 0.0})
            phase["span_count"] += 1
            phase["self_s"] += own
        else:
            roots += 1
            root_s += duration
            unattributed_s += own
    for phase in phases.values():
        phase["share"] = phase["self_s"] / self_s if self_s else 0.0
    return {
        "spans": {name: spans[name] for name in sorted(spans)},
        "phases": {name: phases[name] for name in sorted(phases)},
        "roots": roots,
        "root_s": root_s,
        "self_s": self_s,
        "unattributed_s": unattributed_s,
        "events": len(span_events),
        "workers": sorted(workers),
    }


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:7.2f}ms"


def format_trace_summary(summary: Dict[str, Any]) -> str:
    """Render a summary as ASCII tables: phase self time, then per-span time and counters."""

    lines: List[str] = []
    workers = summary.get("workers", [])
    lines.append(
        f"{summary.get('events', 0)} trace event(s) from "
        f"{len(workers)} writer(s): {', '.join(workers) if workers else '-'}"
    )
    if summary.get("roots"):
        self_s = summary["self_s"]
        rows = sorted(
            (
                (name, phase["span_count"], phase["self_s"])
                for name, phase in summary["phases"].items()
            ),
            key=lambda row: -row[2],
        )
        rows.append(("unattributed", summary["roots"], summary["unattributed_s"]))
        name_width = max(len(row[0]) for row in rows)
        lines.append("")
        lines.append(
            f"  exclusive time, shares of {_fmt_seconds(self_s).strip()} summed self time "
            f"({_fmt_seconds(summary['root_s']).strip()} root wall time)"
        )
        lines.append(f"  {'phase'.ljust(name_width)}  {'spans':>6}  {'self':>9}  {'share':>6}")
        for name, span_count, own in rows:
            share = own / self_s if self_s else 0.0
            lines.append(
                f"  {name.ljust(name_width)}  {span_count:>6}  "
                f"{_fmt_seconds(own):>9}  {share:>6.1%}"
            )
    spans = summary.get("spans", {})
    if spans:
        ordered = sorted(spans.items(), key=lambda item: -item[1]["self_s"])
        name_width = max(len("span"), max(len(name) for name, _ in ordered))
        lines.append("")
        lines.append(
            f"  {'span'.ljust(name_width)}  {'calls':>6}  {'self':>9}  "
            f"{'total':>9}  {'max':>9}  counters"
        )
        for name, bucket in ordered:
            counters = bucket.get("counters", {})
            counter_text = " ".join(
                f"{key}={counters[key]}" for key in sorted(counters)
            )
            if bucket.get("errors"):
                counter_text = (f"errors={bucket['errors']} " + counter_text).strip()
            lines.append(
                f"  {name.ljust(name_width)}  {bucket['count']:>6}  "
                f"{_fmt_seconds(bucket['self_s'])}  {_fmt_seconds(bucket['total_s'])}  "
                f"{_fmt_seconds(bucket['max_s'])}  {counter_text}"
            )
    return "\n".join(lines)
