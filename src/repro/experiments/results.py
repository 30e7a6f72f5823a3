"""Persistent experiment results.

One :class:`RunRecord` per ``solve_hsp`` run; a sweep's records are written
to ``BENCH_<name>.json`` together with aggregate statistics.  The payload
separates the *deterministic* part (the ``rows``: strategy, query report,
recovered generators, success flag, seed, status) from the
*machine-dependent* part (``timings``), so a sweep rerun at the same seed —
with any worker count — produces byte-identical rows, and the timing data
still rides along for the reports.

Fault tolerance rests on two mechanisms in this module:

* :func:`write_bench` is **atomic** — the payload is serialized to a
  temporary file in the output directory and moved into place with
  :func:`os.replace`, so a crash mid-write can never leave a corrupt
  ``BENCH_<name>.json`` behind;
* the **journal** (``BENCH_<name>.partial.jsonl``) records each completed
  run as one appended JSON line.  An interrupted sweep leaves the journal
  on disk; ``--resume`` replays it, skipping journaled ``status="ok"``
  ``(index, seed)`` rows (errored rows are retried), and the journal
  header pins the exact sweep spec so a resume against a different seed or
  grid is refused.

Aggregation merges the per-run query reports through
``QueryCounter.from_snapshot`` and ``QueryCounter.__add__`` — the aggregate
``query_totals`` in the file is, by construction and by test, the exact sum
of the per-run reports.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.blackbox.oracle import QueryCounter

__all__ = [
    "LedgerDivergence",
    "RunRecord",
    "SpecMismatch",
    "aggregate_records",
    "append_journal",
    "atomic_write_json",
    "bench_payload",
    "bench_path",
    "check_journal_agreement",
    "error_rows",
    "journal_path",
    "load_bench",
    "load_journal",
    "load_journal_payload",
    "load_validated_bench",
    "merge_record_streams",
    "remove_journal",
    "resolve_bench",
    "rewrite_journal",
    "rows_bytes",
    "validate_rows",
    "write_bench",
    "write_journal_header",
]

#: Journal schema version; bumped if the line format ever changes so a stale
#: journal from an older build is refused rather than misread.
JOURNAL_VERSION = 1


@dataclass
class RunRecord:
    """The outcome of one experiment run (picklable, JSON-ready).

    ``status`` is ``"ok"`` for a run that returned (successfully or not) and
    ``"error"`` for a run that raised — in which case ``error`` holds the
    formatted traceback, ``success`` is false and the query report is empty.
    """

    sweep: str
    index: int
    family: str
    params: Dict[str, object]
    repeat: int
    seed: int
    strategy: str
    success: bool
    generators: List[str]
    query_report: Dict[str, int]
    wall_time_seconds: float = 0.0
    status: str = "ok"
    error: Optional[str] = None

    def row(self) -> Dict[str, object]:
        """The deterministic JSON row (everything except wall time)."""
        return {
            "index": self.index,
            "family": self.family,
            "params": self.params,
            "repeat": self.repeat,
            "seed": self.seed,
            "strategy": self.strategy,
            "status": self.status,
            "error": self.error,
            "success": self.success,
            "generators": list(self.generators),
            "query_report": {key: int(value) for key, value in sorted(self.query_report.items())},
        }

    def to_json_dict(self) -> Dict[str, object]:
        """The full journal entry: the row plus sweep name and wall time."""
        entry = self.row()
        entry["sweep"] = self.sweep
        entry["wall_time_seconds"] = self.wall_time_seconds
        return entry

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "RunRecord":
        """Rebuild a record from :meth:`to_json_dict` output (JSON round-trip)."""
        return cls(
            sweep=str(data["sweep"]),
            index=int(data["index"]),
            family=str(data["family"]),
            params=dict(data["params"]),
            repeat=int(data["repeat"]),
            seed=int(data["seed"]),
            strategy=str(data["strategy"]),
            success=bool(data["success"]),
            generators=list(data["generators"]),
            query_report={key: int(value) for key, value in dict(data["query_report"]).items()},
            wall_time_seconds=float(data.get("wall_time_seconds", 0.0)),
            status=str(data.get("status", "ok")),
            error=data.get("error"),
        )


def aggregate_records(records: Sequence[RunRecord]) -> Dict[str, object]:
    """Summary statistics of a sweep: success rate, merged query totals, time.

    An empty record list (an empty or fully-filtered sweep) reports
    ``success_rate: None`` — never a fabricated 100%.
    """
    totals = sum(
        (QueryCounter.from_snapshot(record.query_report) for record in records), QueryCounter()
    )
    successes = sum(1 for record in records if record.success)
    errors = sum(1 for record in records if record.status == "error")
    by_strategy: Dict[str, int] = {}
    for record in records:
        by_strategy[record.strategy] = by_strategy.get(record.strategy, 0) + 1
    return {
        "runs": len(records),
        "successes": successes,
        "errors": errors,
        "success_rate": (successes / len(records)) if records else None,
        "strategies": dict(sorted(by_strategy.items())),
        "query_totals": {key: int(value) for key, value in sorted(totals.snapshot().items())},
        "wall_time_seconds": sum(record.wall_time_seconds for record in records),
    }


def bench_payload(spec, workers: int, records: Sequence[RunRecord]) -> Dict[str, object]:
    """The full ``BENCH_<name>.json`` payload for a finished sweep."""
    ordered = sorted(records, key=lambda record: record.index)
    return {
        "sweep": spec.to_json_dict(),
        "workers": int(workers),
        "rows": [record.row() for record in ordered],
        "timings": [
            {"index": record.index, "wall_time_seconds": record.wall_time_seconds}
            for record in ordered
        ],
        "aggregate": aggregate_records(ordered),
    }


def _safe_name(name: str) -> str:
    return name.replace("/", "-").replace(" ", "-")


def bench_path(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, f"BENCH_{_safe_name(name)}.json")


def journal_path(out_dir: str, name: str) -> str:
    """The checkpoint journal path of a sweep: ``BENCH_<name>.partial.jsonl``."""
    return os.path.join(out_dir, f"BENCH_{_safe_name(name)}.partial.jsonl")


def atomic_write_json(path: str, payload: Dict[str, object]) -> str:
    """Atomically write ``payload`` as sorted-key JSON to ``path``.

    The one atomic-write protocol of the results layer (BENCH and ANALYSIS
    files): serialize to a same-directory temporary file and move it into
    place with :func:`os.replace`, so readers never see a torn file —
    either the previous content or the complete new one.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp_path = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
    return path


def write_bench(out_dir: str, name: str, payload: Dict[str, object]) -> str:
    """Atomically write the payload to ``<out_dir>/BENCH_<name>.json``."""
    return atomic_write_json(bench_path(out_dir, name), payload)


def load_bench(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class SpecMismatch(ValueError):
    """A BENCH row disagrees with the file's recorded sweep spec header.

    Raised by :func:`validate_rows` when a row's grid keys (or values) are
    not the ones the ``sweep`` header declares — the signature of a stale
    BENCH file that was hand-edited or produced by an older spec.  Grouping
    such rows silently would corrupt every downstream statistic, so both
    ``report`` and ``summarise`` load through :func:`load_validated_bench`
    and refuse the file instead.
    """


def resolve_bench(target: str, out_dir: str = ".") -> str:
    """Resolve a CLI target — a BENCH file path or a workload name — to a path.

    An existing path wins; otherwise the target is treated as a sweep name
    inside ``out_dir``.  Shared by ``report``, ``summarise`` and ``plot`` so
    every reader resolves identically.
    """
    return target if os.path.exists(target) else bench_path(out_dir, target)


def _canonical(value) -> str:
    """A comparison key that ignores JSON round-trips (tuples vs lists)."""
    if isinstance(value, tuple):
        value = list(value)
    return json.dumps(value, sort_keys=True, default=list)


def validate_rows(payload: Dict[str, object], path: str = "<memory>") -> List[Dict[str, object]]:
    """The rows of a sweep payload, checked against its own spec header.

    Every row's ``params`` must use exactly the grid keys the ``sweep``
    header declares, with values drawn from the declared grid — a stale
    file edited by hand or produced by an older spec fails with a
    :class:`SpecMismatch` naming the offending keys rather than being
    silently grouped into nonsense cells.
    """
    if "sweep" not in payload or "rows" not in payload:
        raise ValueError(
            f"{path} is not a sweep BENCH file (missing 'sweep'/'rows'); "
            f"it reports {payload.get('benchmark', 'an unknown benchmark')!r}"
        )
    grid = dict(payload["sweep"].get("grid", {}))
    expected = set(grid)
    allowed = {key: {_canonical(v) for v in values} for key, values in grid.items()}
    for row in payload["rows"]:
        params = dict(row.get("params", {}))
        keys = set(params)
        if keys != expected:
            missing = sorted(expected - keys)
            extra = sorted(keys - expected)
            detail = []
            if missing:
                detail.append(f"missing grid keys {missing}")
            if extra:
                detail.append(f"unknown grid keys {extra}")
            raise SpecMismatch(
                f"{path}: row index {row.get('index')} disagrees with the recorded "
                f"sweep spec ({'; '.join(detail)}); the file is stale or was edited "
                f"— re-run the sweep instead of analysing it"
            )
        offending = sorted(
            key for key in expected if _canonical(params[key]) not in allowed[key]
        )
        if offending:
            raise SpecMismatch(
                f"{path}: row index {row.get('index')} has values outside the recorded "
                f"grid for keys {offending}; the file is stale or was edited "
                f"— re-run the sweep instead of analysing it"
            )
    return list(payload["rows"])


def load_validated_bench(path: str) -> Dict[str, object]:
    """Load a ``BENCH_<name>.json`` and validate rows against its spec header.

    The one loader behind every reader of sweep BENCH files (``report``,
    ``summarise``, ``plot``) — raises ``ValueError`` for a non-sweep payload
    and :class:`SpecMismatch` for rows that disagree with the recorded spec.
    """
    payload = load_bench(path)
    validate_rows(payload, path=path)
    return payload


def error_rows(payload: Dict[str, object]) -> List[Dict[str, object]]:
    """The ``status="error"`` rows of a sweep payload."""
    return [row for row in payload.get("rows", []) if row.get("status") == "error"]


def load_journal_payload(path: str) -> Dict[str, object]:
    """A sweep payload reconstructed from a ``.partial.jsonl`` journal.

    Lets ``summarise``/``plot`` analyse an *interrupted* sweep's completed
    rows before the final BENCH file exists.  The journal header supplies
    the spec, the journaled records become the rows (sorted by index; a
    torn trailing line is dropped as in :func:`load_journal`), and
    ``"partial": True`` marks the payload so readers can flag it.  Raises
    ``ValueError`` for a missing/foreign header.
    """
    lines = _journal_lines(path)
    header = next(lines, None)
    if not isinstance(header, dict) or "sweep" not in header:
        raise ValueError(f"{path} has no journal header; not a sweep journal")
    if header.get("journal_version") != JOURNAL_VERSION:
        raise ValueError(
            f"journal {path!r} has version {header.get('journal_version')!r}, "
            f"expected {JOURNAL_VERSION}"
        )
    records: Dict[Tuple[int, int], RunRecord] = {}
    for record in _journal_records(lines):
        records[(record.index, record.seed)] = record
    ordered = sorted(records.values(), key=lambda record: record.index)
    return {
        "sweep": header["sweep"],
        "workers": 0,
        "partial": True,
        "rows": [record.row() for record in ordered],
        "timings": [
            {"index": record.index, "wall_time_seconds": record.wall_time_seconds}
            for record in ordered
        ],
        "aggregate": aggregate_records(ordered),
    }


def rows_bytes(payload: Dict[str, object]) -> bytes:
    """The canonical byte serialization of the deterministic rows.

    Two sweep executions are considered identical exactly when these bytes
    agree; the determinism and resume tests compare them across worker
    counts and across interruptions.
    """
    return json.dumps(payload["rows"], sort_keys=True).encode("utf-8")


# ---------------------------------------------------------------------------
# The checkpoint journal
# ---------------------------------------------------------------------------


def write_journal_header(path: str, spec) -> None:
    """Start a fresh journal: one header line pinning the sweep spec."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    header = {"journal_version": JOURNAL_VERSION, "sweep": spec.to_json_dict()}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")


def rewrite_journal(path: str, spec, records: Sequence[RunRecord]) -> None:
    """Atomically rewrite a journal as header + ``records`` (compaction).

    Used when resuming: the reloaded state is written back as a clean file,
    which drops any torn trailing fragment from the crash (appending after
    a fragment would merge it with the next record into one unparseable
    line) and drops superseded rows (e.g. errors about to be retried).
    """
    tmp_path = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            header = {"journal_version": JOURNAL_VERSION, "sweep": spec.to_json_dict()}
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for record in records:
                handle.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


def append_journal(path: str, record: RunRecord) -> None:
    """Append one completed run to the journal (open-write-close, crash safe).

    The file is reopened per record so every completed row reaches the
    filesystem even if the process dies before the sweep finishes; a torn
    final line (the crash landing mid-``write``) is tolerated and dropped by
    :func:`load_journal`.
    """
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")


def _journal_lines(path: str) -> Iterator[Dict[str, object]]:
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                # A torn trailing line from a crash mid-append: everything
                # before it is intact, so stop there and let the resume
                # re-execute the run whose record was lost.
                return


def _journal_records(lines: Iterator[Dict[str, object]]) -> Iterator[RunRecord]:
    """Parse journal entries into records, stopping at the first bad one.

    A line can decode as JSON and still not be a record — a truncation that
    happens to end on a digit, interleaved writes merging two lines, a
    hand-edited file.  Everything *before* the first unparseable entry is
    intact by the append-only discipline, so (exactly as for an undecodable
    line) parsing stops there instead of crashing the reader or guessing at
    the remainder.
    """
    for entry in lines:
        if not isinstance(entry, dict):
            return
        try:
            yield RunRecord.from_json_dict(entry)
        except (KeyError, TypeError, ValueError):
            return


def load_journal(path: str, spec) -> Dict[Tuple[int, int], RunRecord]:
    """The journaled records of ``spec``, keyed by ``(index, seed)``.

    Raises ``ValueError`` when the journal header does not match ``spec``
    exactly — resuming under a different seed, grid, strategy or sampler
    would silently mix incompatible rows.
    """
    lines = _journal_lines(path)
    try:
        header = next(lines)
    except StopIteration:
        return {}
    version = header.get("journal_version") if isinstance(header, dict) else None
    if version != JOURNAL_VERSION:
        raise ValueError(
            f"journal {path!r} has version {version!r}, "
            f"expected {JOURNAL_VERSION}; delete it to start over"
        )
    expected = json.loads(json.dumps(spec.to_json_dict()))
    if header.get("sweep") != expected:
        raise ValueError(
            f"journal {path!r} was written by a different sweep configuration "
            f"(name/seed/grid/sampler mismatch); delete it or rerun without --resume"
        )
    records: Dict[Tuple[int, int], RunRecord] = {}
    for record in _journal_records(lines):
        records[(record.index, record.seed)] = record
    return records


def merge_record_streams(
    streams: Iterable[Mapping[Tuple[int, int], RunRecord]],
) -> Dict[Tuple[int, int], RunRecord]:
    """Merge per-shard record streams into one ``(index, seed)``-keyed ledger.

    A *stream* is one shard's records keyed by ``(index, seed)``; the
    transport layer produces them already validated and deduplicated
    last-wins in append order.  Duplicate keys across shards arise
    legitimately — a stale lease reclaimed after its worker already
    journaled the record means two workers executed the same run — and are
    resolved by status rank, ``ok > no_convergence > error``: a completed
    measurement beats a noise-swamped one, which beats an infrastructure
    failure.  Two records of the same rank for one run are byte-identical
    by the determinism guarantee, so which one survives is immaterial.
    """
    merged: Dict[Tuple[int, int], RunRecord] = {}
    for stream in streams:
        for key, record in stream.items():
            existing = merged.get(key)
            if existing is None or _status_rank(record.status) > _status_rank(existing.status):
                merged[key] = record
    return merged


#: Cross-shard duplicate resolution order for :func:`merge_record_streams`;
#: unknown statuses rank lowest, alongside ``error``.
_STATUS_RANK = {"error": 0, "no_convergence": 1, "ok": 2}


def _status_rank(status: str) -> int:
    return _STATUS_RANK.get(status, 0)


class LedgerDivergence(ValueError):
    """A BENCH file and its surviving journal disagree about the same runs.

    The journal is deleted when a sweep completes, so the two coexisting is
    already unusual (a crash between ``write_bench`` and the journal
    removal leaves them *in agreement*).  When they *disagree* — same
    ``(index, seed)`` key, different row content — one of the two ledgers
    is stale and there is no principled way to pick a side; every reader
    (``report``/``summarise``/``plot``) refuses the file, naming the
    divergent pairs, instead of silently preferring one source.
    """


def check_journal_agreement(payload: Dict[str, object], journal_file: str, path: str = "<memory>") -> None:
    """Raise :class:`LedgerDivergence` when a journal contradicts a BENCH payload.

    Rows are compared on the common ``(index, seed)`` keys; a journal that
    holds a *subset* of agreeing rows is fine (an in-progress fresh attempt
    of the same spec journals identical deterministic rows).  A journal
    whose header pins a different sweep configuration, or that cannot be
    read as a journal at all, is equally refused — agreement cannot be
    attested against it.
    """
    jpayload = load_journal_payload(journal_file)
    expected = json.loads(json.dumps(payload.get("sweep")))
    if jpayload["sweep"] != expected:
        raise LedgerDivergence(
            f"{path} has a surviving journal {journal_file} written by a different "
            f"sweep configuration (name/seed/grid/sampler mismatch); delete the "
            f"stale ledger before analysing"
        )
    bench_rows = {(row["index"], row["seed"]): row for row in payload.get("rows", [])}
    divergent = []
    for row in jpayload["rows"]:
        key = (row["index"], row["seed"])
        if key in bench_rows and bench_rows[key] != row:
            divergent.append(key)
    if divergent:
        shown = ", ".join(str(key) for key in divergent[:5])
        suffix = ", ..." if len(divergent) > 5 else ""
        raise LedgerDivergence(
            f"{path} and its surviving journal {journal_file} disagree on "
            f"{len(divergent)} run(s): (index, seed) pairs {shown}{suffix}; one of "
            f"the two ledgers is stale — delete the wrong one or re-run the sweep"
        )


def remove_journal(path: str) -> None:
    """Delete a journal if present (the sweep completed; nothing to resume)."""
    if os.path.exists(path):
        os.remove(path)
