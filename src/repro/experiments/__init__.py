"""Parallel experiment orchestration for the HSP reproduction.

The paper's algorithms are evaluated by oracle-query counts, so the
empirical questions — success probability versus rounds, query scaling
versus group order, strategy crossover points — are all answered by *sweeps*
of many independent :func:`~repro.core.solver.solve_hsp` runs.  This
subsystem turns the one-off benchmark scripts into a declarative, parallel,
persistent experiment layer:

``specs``
    dataclasses describing a sweep — a grid of (group family, instance
    parameters, solver options, seeds) — that expands deterministically into
    picklable per-run descriptors;
``registry``
    the named instance builders that rebuild each HSP instance *inside* the
    worker process (group oracles hold closures and are never pickled);
``runner``
    the fault-tolerant process-pool executor: engines are
    per-group-instance, so workers share nothing and per-run query reports
    merge by ``QueryCounter.__add__``; a raising run becomes a structured
    ``status="error"`` row (bounded by ``max_failures``) and completed rows
    are journaled so an interrupted sweep resumes where it stopped
    (errored rows are retried on resume);
``results``
    per-run JSON rows and aggregate statistics, persisted atomically as
    ``BENCH_<name>.json``, plus the ``BENCH_<name>.partial.jsonl``
    checkpoint journal behind ``--resume``, the multi-shard record merge
    (dedup by ``(index, seed)``, ranked ``ok > no_convergence > error``) and the
    BENCH-vs-journal agreement check;
``distributed``
    the queue-backed distributed runner: ``enqueue`` materialises pending
    runs as claimable tasks in a single-file SQLite WAL database
    (``BEGIN IMMEDIATE`` transactional claims), any number of ``work``
    processes on its host claim them with heartbeat-based stale
    reclamation and corrupt-task quarantine, and ``collect`` merges the
    per-worker shards into a BENCH byte-identical to a single-process run;
``transports``
    :class:`SqliteTransport`, the queue database behind ``distributed``
    (enqueue/claim/heartbeat/release/reclaim/append/enumerate/status);
``workloads``
    the declared sweeps and the per-workload analysis directives (which
    grid axes are statistical vs structural, which model to fit);
``claims``
    the paper's cost claims as one table: each entry names its theorem,
    claim and code path, with a query-count predicate over committed BENCH
    rows or ``untested``; ``tests/test_claims.py`` audits every committed
    sweep against it;
``analysis``
    statistics post-processing over BENCH rows — Wilson-interval cell
    tables, ``1-(1-p)^r`` saturation fits, strategy-crossover location —
    persisted deterministically as ``ANALYSIS_<name>.json``;
``cli``
    the ``python -m repro.experiments run/list/report/summarise/plot``
    entry point.

A sweep executed with ``workers=1`` and ``workers=N`` at the same seed
produces byte-identical result rows: every run's randomness derives from its
own :class:`numpy.random.SeedSequence`-spawned seed, not from execution
order.
"""

from repro.experiments.analysis import (
    analyse,
    analysis_path,
    fit_saturation,
    locate_crossover,
    wilson_interval,
    write_analysis,
)
from repro.experiments.distributed import (
    QueueBusy,
    QueueCorrupt,
    QueueIncomplete,
    collect_queue,
    enqueue_sweep,
    queue_db_path,
    resolve_transport,
    work_queue,
)
from repro.experiments.registry import build_instance, families
from repro.experiments.results import (
    LedgerDivergence,
    RunRecord,
    SpecMismatch,
    aggregate_records,
    bench_payload,
    check_journal_agreement,
    journal_path,
    load_bench,
    load_journal,
    load_validated_bench,
    merge_record_streams,
    resolve_bench,
    write_bench,
)
from repro.experiments.transports import SqliteTransport
from repro.experiments.runner import (
    SweepAborted,
    execute_run,
    execute_run_safe,
    run_sweep,
)
from repro.experiments.specs import DEFAULT_SEED, RunSpec, SamplerSpec, SweepSpec
from repro.experiments.workloads import (
    ANALYSES,
    WORKLOADS,
    AnalysisDirective,
    axis_roles,
    get_analysis,
    get_workload,
)

__all__ = [
    "ANALYSES",
    "DEFAULT_SEED",
    "AnalysisDirective",
    "LedgerDivergence",
    "QueueBusy",
    "QueueCorrupt",
    "QueueIncomplete",
    "RunSpec",
    "SqliteTransport",
    "SamplerSpec",
    "SpecMismatch",
    "SweepAborted",
    "SweepSpec",
    "RunRecord",
    "WORKLOADS",
    "aggregate_records",
    "analyse",
    "analysis_path",
    "axis_roles",
    "bench_payload",
    "build_instance",
    "check_journal_agreement",
    "collect_queue",
    "enqueue_sweep",
    "execute_run",
    "execute_run_safe",
    "families",
    "fit_saturation",
    "get_analysis",
    "get_workload",
    "journal_path",
    "load_bench",
    "load_journal",
    "load_validated_bench",
    "locate_crossover",
    "merge_record_streams",
    "queue_db_path",
    "resolve_bench",
    "resolve_transport",
    "run_sweep",
    "wilson_interval",
    "work_queue",
    "write_analysis",
    "write_bench",
]
