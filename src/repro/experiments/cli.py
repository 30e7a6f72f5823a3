"""The ``python -m repro.experiments`` command line.

Ten subcommands make sweeps reproducible (and analysable) from a shell:

``list``
    the declared workloads and registered instance families;
``run NAME``
    expand and execute a declared sweep (optionally on a process pool) and
    write ``BENCH_<name>.json``.  ``--max-failures`` bounds how many runs
    may error before the sweep aborts, and ``--resume`` continues an
    interrupted sweep from its ``BENCH_<name>.partial.jsonl`` journal;
``enqueue NAME``
    materialise a sweep's pending runs as claimable tasks in a queue — a
    single ``QUEUE_<name>.sqlite`` WAL database under ``--out``
    (``--queue-db`` names it explicitly);
``work QUEUE``
    claim and execute queue tasks until the queue drains — any number of
    ``work`` processes on the host of the queue database cooperate via
    leased claims with heartbeat-based stale reclamation; corrupt tasks
    are quarantined and reported, never crash-looped;
``collect QUEUE``
    merge the per-worker record shards of a drained queue into a
    ``BENCH_<name>.json`` whose deterministic rows are byte-identical to a
    single-process ``run`` (``--force`` overrides the live-lease refusal);
``status QUEUE``
    a live look at a queue: pending/lease/shard counts, per-worker
    progress, and every outstanding lease with its heartbeat age
    (leases older than ``--stale-after`` are flagged STALE);
``trace summarise PATH...``
    per-phase exclusive-time/counter breakdown of the JSONL trace files
    written by ``run``/``work`` ``--trace`` (telemetry is sidecar-only —
    BENCH rows are byte-identical with tracing on or off);
``report NAME-or-PATH``
    print the per-run rows and the aggregate of a produced BENCH file;
``summarise NAME-or-PATH``
    statistics post-processing: per-cell success rates with Wilson score
    intervals, saturation fits (``success-vs-rounds*``), crossover location
    (``strategy-crossover``); writes a deterministic ``ANALYSIS_<name>.json``;
``plot NAME-or-PATH``
    the same statistics as an ASCII chart on stdout (``--svg FILE`` writes
    a dependency-free SVG as well).

Examples::

    python -m repro.experiments list
    python -m repro.experiments run smoke --workers 2 --out .benchmarks
    python -m repro.experiments run smoke --resume --out .benchmarks
    python -m repro.experiments enqueue queue-smoke --out .benchmarks
    python -m repro.experiments work .benchmarks/QUEUE_queue-smoke.sqlite &
    python -m repro.experiments work .benchmarks/QUEUE_queue-smoke.sqlite
    python -m repro.experiments collect .benchmarks/QUEUE_queue-smoke.sqlite --out .benchmarks
    python -m repro.experiments status .benchmarks/QUEUE_queue-smoke.sqlite
    python -m repro.experiments run smoke --trace .benchmarks/trace.jsonl --out .benchmarks
    python -m repro.experiments trace summarise .benchmarks/trace.jsonl
    python -m repro.experiments report smoke --out .benchmarks
    python -m repro.experiments summarise success-vs-rounds
    python -m repro.experiments plot strategy-crossover --svg crossover.svg
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments import analysis as analysis_mod
from repro.experiments import distributed
from repro.experiments.registry import families
from repro.experiments.results import (
    LedgerDivergence,
    SpecMismatch,
    check_journal_agreement,
    error_rows,
    journal_path,
    load_journal_payload,
    load_validated_bench,
    resolve_bench,
    validate_rows,
)
from repro.experiments.runner import SweepAborted, run_sweep
from repro.experiments.workloads import WORKLOADS, get_workload

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="declarative, parallel, persistent HSP experiment sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a declared sweep and write BENCH_<name>.json")
    run_parser.add_argument("name", help="a workload name from `list`")
    run_parser.add_argument("--workers", type=_positive_int, default=1, help="worker processes (default 1)")
    run_parser.add_argument("--out", default=".", help="output directory for the BENCH file")
    run_parser.add_argument("--seed", type=int, default=None, help="override the sweep master seed")
    run_parser.add_argument("--repeats", type=int, default=None, help="override the repeats per grid point")
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip runs already journaled in BENCH_<name>.partial.jsonl and execute the remainder",
    )
    run_parser.add_argument(
        "--max-failures",
        type=int,
        default=None,
        help="abort the sweep once more than this many runs have errored "
        "(default: capture all errors as rows and finish)",
    )
    _add_observability_options(run_parser)

    # No abbreviations: `--queue` would otherwise abbreviate `--queue-db`
    # and quietly turn a retired backend flag into a database path.
    enqueue_parser = sub.add_parser(
        "enqueue",
        help="materialise a sweep's pending runs as claimable queue tasks",
        allow_abbrev=False,
    )
    enqueue_parser.add_argument("name", help="a workload name from `list`")
    enqueue_parser.add_argument(
        "--out", default=".", help="directory the queue database QUEUE_<name>.sqlite is created in"
    )
    enqueue_parser.add_argument(
        "--queue-db",
        default=None,
        metavar="PATH",
        help="explicit queue database path (overrides --out)",
    )
    enqueue_parser.add_argument("--seed", type=int, default=None, help="override the sweep master seed")
    enqueue_parser.add_argument(
        "--repeats", type=int, default=None, help="override the repeats per grid point"
    )

    work_parser = sub.add_parser(
        "work", help="claim and execute queue tasks until the queue drains"
    )
    work_parser.add_argument("queue", help="the shared queue: a QUEUE_<name>.sqlite database")
    work_parser.add_argument(
        "--worker-id", default=None, help="stable worker id (default: host-pid-random)"
    )
    work_parser.add_argument(
        "--stale-after",
        type=_stale_after_seconds,
        default=300.0,
        help="seconds without a heartbeat before a lease is reclaimed (default 300)",
    )
    work_parser.add_argument(
        "--poll",
        type=_positive_seconds,
        default=1.0,
        help="seconds between checks while waiting on other workers' leases (default 1)",
    )
    work_parser.add_argument(
        "--heartbeat",
        type=_positive_seconds,
        default=None,
        help="seconds between lease liveness touches "
        "(default: min(stale-after / 10, 5); must be < stale-after)",
    )
    work_parser.add_argument(
        "--max-tasks", type=int, default=None, help="stop after executing this many tasks"
    )
    _add_observability_options(work_parser)

    collect_parser = sub.add_parser(
        "collect", help="merge a drained queue's record shards into BENCH_<name>.json"
    )
    collect_parser.add_argument("queue", help="the queue: a QUEUE_<name>.sqlite database")
    collect_parser.add_argument("--out", default=".", help="output directory for the BENCH file")
    collect_parser.add_argument(
        "--force",
        action="store_true",
        help="collect even while live leases are outstanding (the covered rows are "
        "deterministic; the still-running worker's re-execution is a harmless duplicate)",
    )

    status_parser = sub.add_parser(
        "status",
        help="pending/lease/shard counts, per-worker progress and heartbeat ages of a queue",
    )
    status_parser.add_argument("queue", help="the queue: a QUEUE_<name>.sqlite database")
    status_parser.add_argument(
        "--stale-after",
        type=_stale_after_seconds,
        default=300.0,
        help="heartbeat age after which a lease is flagged STALE (default 300; "
        "match the workers' --stale-after)",
    )

    trace_parser = sub.add_parser(
        "trace", help="inspect the JSONL trace files written by run/work --trace"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_summarise = trace_sub.add_parser(
        "summarise",
        aliases=["summarize"],
        help="per-phase exclusive time and counters aggregated over trace file(s)",
    )
    trace_summarise.add_argument("paths", nargs="+", help="trace JSONL file(s) to aggregate")

    sub.add_parser("list", help="list declared workloads and instance families")

    report_parser = sub.add_parser("report", help="print the rows and aggregate of a BENCH_<name>.json")
    report_parser.add_argument("target", help="a workload name (resolved inside --out) or a path to a BENCH file")
    report_parser.add_argument("--out", default=".", help="directory searched for BENCH_<name>.json")

    summarise_parser = sub.add_parser(
        "summarise",
        help="statistics post-processing: Wilson intervals, saturation fits, "
        "crossover location; writes ANALYSIS_<name>.json",
        aliases=["summarize"],
    )
    summarise_parser.add_argument(
        "target", help="a workload name (resolved inside --out) or a path to a BENCH file"
    )
    summarise_parser.add_argument(
        "--out",
        default=".",
        help="directory searched for BENCH_<name>.json and written with ANALYSIS_<name>.json",
    )

    plot_parser = sub.add_parser(
        "plot", help="ASCII chart of a sweep's statistics (optionally an SVG)"
    )
    plot_parser.add_argument(
        "target", help="a workload name (resolved inside --out) or a path to a BENCH file"
    )
    plot_parser.add_argument("--out", default=".", help="directory searched for BENCH_<name>.json")
    plot_parser.add_argument(
        "--svg", default=None, metavar="FILE", help="also write a dependency-free SVG chart"
    )
    return parser


def _add_observability_options(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace`` sidecar-telemetry option.

    It is strictly additive: traces land only in their own file, and the
    BENCH rows / journal lines a traced invocation produces are
    byte-identical to an untraced one.
    """
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="append JSONL trace spans to PATH (sidecar only; "
        "BENCH output is byte-identical with or without it)",
    )


def _positive_int(text: str) -> int:
    """argparse type for ``--workers``: a count of at least 1 (``0`` is the
    BENCH marker of an externally executed sweep, not a worker count)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    """argparse type for lease timings: rejects zero/negative durations at
    parse time — ``--stale-after 0`` would make every live lease instantly
    reclaimable and the queue would thrash re-executing work forever."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a duration in seconds, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"duration must be positive, got {value}")
    return value


def _stale_after_seconds(text: str) -> float:
    """argparse type for ``--stale-after``: the protocol check the worker
    loop enforces (:func:`~repro.experiments.distributed.validate_lease_timings`),
    applied at parse time for ``work`` and ``status`` alike — ``status
    --stale-after 0`` would flag every live lease STALE, the observational
    twin of the reclaim-thrash the worker check prevents."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a duration in seconds, got {text!r}")
    try:
        distributed.validate_lease_timings(value, poll=1.0, heartbeat=None)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))
    return value


def _load_target(target: str, out_dir: str):
    """Resolve and load a BENCH target through the shared validated loader.

    Accepts a workload name, a BENCH file path, or a ``.partial.jsonl``
    journal path; a name whose BENCH file does not exist yet falls back to
    its journal, so an interrupted sweep's completed rows are analysable
    before the sweep finishes.  When the BENCH file *and* its journal both
    survive, the two ledgers must agree — rows disagreeing on the same
    ``(index, seed)`` key fail loudly (:class:`LedgerDivergence`) instead
    of one source being silently preferred.  Returns ``(path, payload)`` or
    ``None`` after printing the failure — missing file, non-sweep payload,
    rows disagreeing with the recorded spec header (:class:`SpecMismatch`),
    or a diverging journal.
    """
    path = resolve_bench(target, out_dir)
    journal = None
    if target.endswith(".partial.jsonl") and os.path.exists(target):
        journal = target
    elif not os.path.exists(path):
        candidate = journal_path(out_dir, target)
        if os.path.exists(candidate):
            journal = candidate
    try:
        if journal is not None:
            payload = load_journal_payload(journal)
            validate_rows(payload, path=journal)
            print(
                f"note: analysing the in-progress journal {journal} "
                f"({len(payload['rows'])} completed row(s)); the sweep has not finished",
                file=sys.stderr,
            )
            return journal, payload
        if not os.path.exists(path):
            print(
                f"no BENCH file at {target!r} or {path!r}; run the sweep first",
                file=sys.stderr,
            )
            return None
        payload = load_validated_bench(path)
        sibling = f"{path[:-len('.json')]}.partial.jsonl" if path.endswith(".json") else None
        if sibling and os.path.exists(sibling):
            check_journal_agreement(payload, sibling, path=path)
    except (LedgerDivergence, SpecMismatch, ValueError) as error:
        print(str(error), file=sys.stderr)
        return None
    return path, payload


def _reject_all_errors(payload, path: str) -> bool:
    """True (after printing the message) when every row of the file errored.

    An all-error BENCH has no statistics to report — rendering an empty
    table or dividing by zero would both be wrong; the caller exits
    non-zero instead.
    """
    rows = payload.get("rows", [])
    errored = error_rows(payload)
    if rows and len(errored) == len(rows):
        print(
            f"{path}: all {len(rows)} run(s) errored (status=\"error\"); nothing to "
            f"analyse — inspect the 'error' fields and re-run the sweep",
            file=sys.stderr,
        )
        return True
    return False


def _command_run(args) -> int:
    try:
        spec = get_workload(args.name).with_overrides(seed=args.seed, repeats=args.repeats)
    except (KeyError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 1
    try:
        path, payload = run_sweep(
            spec,
            workers=args.workers,
            out_dir=args.out,
            max_failures=args.max_failures,
            resume=args.resume,
            trace=args.trace,
        )
    except (SweepAborted, ValueError) as error:
        # SweepAborted: the --max-failures budget ran out (journal kept for
        # --resume).  ValueError: a journal/spec mismatch on --resume.
        print(str(error), file=sys.stderr)
        return 1
    return _print_sweep_summary(spec.name, path, payload)


def _print_sweep_summary(name: str, path: str, payload) -> int:
    """The shared completion summary (and exit code) of ``run``/``collect``.

    Non-zero when the sweep produced no runs, any run errored, or any run
    recovered a wrong subgroup — the same acceptance bar however the rows
    were executed.
    """
    aggregate = payload["aggregate"]
    print(f"sweep {name!r}: {aggregate['runs']} runs on {payload['workers']} worker(s)")
    rate = aggregate["success_rate"]
    rate_text = "n/a (no runs)" if rate is None else f"{rate:.3f}"
    print(
        f"  successes: {aggregate['successes']}/{aggregate['runs']}"
        f"  errors: {aggregate.get('errors', 0)}"
        f"  success rate: {rate_text}"
        f"  wall time: {aggregate['wall_time_seconds']:.3f}s"
    )
    totals = aggregate["query_totals"]
    for key in ("classical_queries", "quantum_queries", "group_multiplications"):
        if key in totals:
            print(f"  {key}: {totals[key]}")
    print(f"  wrote {path}")
    if aggregate["runs"] == 0:
        print("  FAILED: the sweep produced no runs", file=sys.stderr)
        return 1
    no_convergence = sum(
        1 for row in payload.get("rows", []) if row.get("status") == "no_convergence"
    )
    if no_convergence:
        print(f"  no_convergence: {no_convergence} run(s) (noisy solve failed gracefully)")
    if aggregate.get("errors"):
        print(f"  FAILED: {aggregate['errors']} run(s) raised (status=\"error\" rows)", file=sys.stderr)
        return 1
    if aggregate["successes"] != aggregate["runs"]:
        wrong = aggregate["runs"] - aggregate["successes"] - no_convergence
        detail = f"{wrong} run(s) recovered a wrong subgroup"
        if no_convergence:
            detail += f", {no_convergence} run(s) did not converge"
        print(f"  FAILED: {detail}", file=sys.stderr)
        return 1
    return 0


def _command_enqueue(args) -> int:
    try:
        spec = get_workload(args.name).with_overrides(seed=args.seed, repeats=args.repeats)
    except (KeyError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 1
    queue = args.queue_db or distributed.queue_db_path(args.out, spec.name)
    try:
        counts = distributed.enqueue_sweep(spec, queue)
    except (distributed.QueueCorrupt, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 1
    done_note = (
        f" ({counts['already_done']} run(s) already ok in the shards)"
        if counts["already_done"]
        else ""
    )
    print(f"enqueued {counts['enqueued']} task(s) into {queue}{done_note}")
    print(f"  start workers with: python -m repro.experiments work {queue}")
    return 0


def _report_corrupt_tasks(queue: str) -> int:
    """Print the loud quarantined-corrupt report once; the count reported.

    The report names every quarantined task and its parse error, so a
    torn/edited task file surfaces as one actionable message instead of the
    old crash-holding-the-lease reclaim ping-pong.
    """
    try:
        quarantined = distributed.corrupt_report(queue)
    except distributed.QueueCorrupt:
        return 0  # the queue itself is unreadable; the caller already reported that
    if quarantined:
        print(
            f"CORRUPT: {len(quarantined)} task(s) quarantined in {queue} — the queue "
            f"drained around them; re-enqueue the sweep to reissue them:",
            file=sys.stderr,
        )
        for item in quarantined:
            print(f"  {item.task_id}: {item.reason}", file=sys.stderr)
    return len(quarantined)


def _command_work(args) -> int:
    try:
        stats = distributed.work_queue(
            args.queue,
            worker_id=args.worker_id,
            stale_after=args.stale_after,
            poll=args.poll,
            heartbeat=args.heartbeat,
            max_tasks=args.max_tasks,
            trace=args.trace,
        )
    except (distributed.QueueCorrupt, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 1
    print(
        f"worker drained {args.queue}: executed {stats['executed']} task(s), "
        f"{stats['errors']} error(s), reclaimed {stats['reclaimed']} stale lease(s)"
    )
    if _report_corrupt_tasks(args.queue):
        return 1
    return 0


def _command_status(args) -> int:
    """A live, read-only look at a queue: counts, progress, heartbeat ages.

    Purely observational — it never touches lease liveness, so running it
    while workers drain the queue is always safe.  The transport is
    resolved once and closed via try/finally, so the status probe itself
    never leaves a connection (or WAL sidecar files) behind.
    """
    try:
        transport = distributed.resolve_transport(args.queue)
    except (distributed.QueueCorrupt, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 1
    try:
        counts = distributed.queue_status(transport)
        progress = distributed.queue_progress(transport)
        leases = distributed.lease_report(transport)
    except (distributed.QueueCorrupt, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 1
    finally:
        transport.close()
    print(f"queue {args.queue} (sweep {progress['name']!r})")
    print(
        f"  progress: {progress['covered']}/{progress['expected']} run(s) journaled, "
        f"{progress['errors']} error(s)"
    )
    print(
        f"  pending tasks: {counts['tasks']}   live leases: {counts['leases']}   "
        f"worker shards: {counts['shards']}   quarantined: {counts['corrupt']}"
    )
    if progress["workers"]:
        print("  workers:")
        for entry in progress["workers"]:
            error_note = f", {entry['errors']} error(s)" if entry["errors"] else ""
            print(f"    {entry['worker']}: {entry['records']} record(s){error_note}")
    if leases:
        print("  leases:")
        for lease in leases:
            age = lease["age_seconds"]
            stale_note = "  STALE (reclaimable)" if age > args.stale_after else ""
            print(
                f"    {lease['task_id']} held by {lease['worker']}: "
                f"last heartbeat {age:.1f}s ago{stale_note}"
            )
    _report_corrupt_tasks(args.queue)
    return 0


def _command_trace(args) -> int:
    from repro.obs import format_trace_summary, load_trace_events, summarise_trace

    try:
        events = load_trace_events(args.paths)
    except OSError as error:
        print(str(error), file=sys.stderr)
        return 1
    if not events:
        print(f"no trace events in {', '.join(args.paths)}", file=sys.stderr)
        return 1
    print(format_trace_summary(summarise_trace(events)))
    return 0


def _command_collect(args) -> int:
    try:
        path, payload = distributed.collect_queue(args.queue, args.out, force=args.force)
    except distributed.QueueBusy as error:
        print(str(error), file=sys.stderr)
        return 1
    except (distributed.QueueCorrupt, distributed.QueueIncomplete, ValueError) as error:
        print(str(error), file=sys.stderr)
        _report_corrupt_tasks(args.queue)
        return 1
    if args.force:
        status = distributed.queue_status(args.queue)
        if status["leases"]:
            print(
                f"warning: collected with {status['leases']} live lease(s) outstanding; "
                f"the still-running worker's append will be a harmless duplicate",
                file=sys.stderr,
            )
    name = payload["sweep"]["name"]
    return _print_sweep_summary(name, path, payload)


def _command_list() -> int:
    print("declared workloads:")
    if not WORKLOADS:
        print("  (none declared)")
    else:
        width = max(len(name) for name in WORKLOADS)
        for name in sorted(WORKLOADS):
            spec = WORKLOADS[name]
            runs = len(spec.expand())
            print(f"  {name:<{width}}  [{spec.family}, {runs} runs]  {spec.description}")
    print("\ninstance families:")
    registered = families()
    if not registered:
        print("  (none registered)")
    else:
        width = max(len(name) for name in registered)
        for name, description in registered.items():
            print(f"  {name:<{width}}  {description}")
    return 0


def _command_report(args) -> int:
    loaded = _load_target(args.target, args.out)
    if loaded is None:
        return 1
    path, payload = loaded
    if _reject_all_errors(payload, path):
        return 1
    spec = payload["sweep"]
    print(f"sweep {spec['name']!r} (family {spec['family']}, seed {spec['seed']}, workers {payload['workers']})")
    timings = {entry["index"]: entry["wall_time_seconds"] for entry in payload["timings"]}
    header = f"  {'idx':>3}  {'params':<28}  {'strategy':<22}  {'ok':<3}  {'quantum':>7}  {'classical':>9}  {'time':>8}"
    print(header)
    for row in payload["rows"]:
        report = row["query_report"]
        params = ", ".join(f"{key}={value}" for key, value in sorted(row["params"].items())) or "-"
        status = row.get("status", "ok")
        ok = "ERR" if status == "error" else ("yes" if row["success"] else "NO")
        time_text = f"{timings.get(row['index'], 0.0) * 1e3:.1f}ms"
        print(
            f"  {row['index']:>3}  {params:<28.28}  {row['strategy']:<22.22}  "
            f"{ok:<3}  {report.get('quantum_queries', 0):>7}  "
            f"{report.get('classical_queries', 0):>9}  {time_text:>8}"
        )
    by_strategy: dict = {}
    for row in payload["rows"]:
        by_strategy.setdefault(row["strategy"], []).append(timings.get(row["index"], 0.0))
    if by_strategy:
        print("  per-strategy timings:")
        width = max(len(name) for name in by_strategy)
        for strategy in sorted(by_strategy):
            times = by_strategy[strategy]
            total = sum(times)
            print(
                f"    {strategy:<{width}}  runs={len(times):>3}  total={total:.3f}s  "
                f"mean={total / len(times) * 1e3:.1f}ms  max={max(times) * 1e3:.1f}ms"
            )
    aggregate = payload["aggregate"]
    print(
        f"  aggregate: {aggregate['successes']}/{aggregate['runs']} ok, "
        f"errors={aggregate.get('errors', 0)}, "
        f"quantum={aggregate['query_totals'].get('quantum_queries', 0)}, "
        f"classical={aggregate['query_totals'].get('classical_queries', 0)}, "
        f"wall={aggregate['wall_time_seconds']:.3f}s"
    )
    return 0


def _command_summarise(args) -> int:
    loaded = _load_target(args.target, args.out)
    if loaded is None:
        return 1
    path, payload = loaded
    if _reject_all_errors(payload, path):
        return 1
    analysis = analysis_mod.analyse(payload, source=path)
    name = analysis["sweep"]["name"]
    out_path = analysis_mod.write_analysis(args.out, name, analysis)
    print(
        f"sweep {name!r}: {analysis['runs']} completed run(s), "
        f"{analysis['errors']} error(s), {len(analysis['cells'])} grid cell(s)"
    )
    print(analysis_mod.format_table(analysis))
    print(analysis_mod.format_summary(analysis))
    print(f"  wrote {out_path}")
    return 0


def _command_plot(args) -> int:
    loaded = _load_target(args.target, args.out)
    if loaded is None:
        return 1
    path, payload = loaded
    if _reject_all_errors(payload, path):
        return 1
    analysis = analysis_mod.analyse(payload, source=path)
    print(f"sweep {analysis['sweep']['name']!r} ({analysis['kind']})")
    print(analysis_mod.ascii_plot(analysis))
    print(analysis_mod.format_summary(analysis))
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(analysis_mod.render_svg(analysis))
        print(f"  wrote {args.svg}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        status = _dispatch(argv)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed the pipe early (``trace summarise t.jsonl | head``).
        # Point stdout at devnull so the flush at interpreter exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


def _dispatch(argv: Optional[List[str]]) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "enqueue":
        return _command_enqueue(args)
    if args.command == "work":
        return _command_work(args)
    if args.command == "collect":
        return _command_collect(args)
    if args.command == "status":
        return _command_status(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "list":
        return _command_list()
    if args.command in ("summarise", "summarize"):
        return _command_summarise(args)
    if args.command == "plot":
        return _command_plot(args)
    return _command_report(args)
