"""The fault-tolerant, resumable process-pool sweep runner.

``execute_run`` is the complete life of one experiment run — rebuild the
instance from its descriptor, solve, verify, record — and is a module-level
function of one picklable argument, so it runs unchanged inline or on a
``ProcessPoolExecutor`` worker.  Engines, oracles and counters are created
inside the run; workers share no mutable state, and the per-run query
reports merge afterwards through ``QueryCounter`` addition.

Fault tolerance: the pool executes :func:`execute_run_safe`, which converts
a raising run into a structured :class:`RunRecord` with ``status="error"``
and the formatted traceback — one bad instance never kills the sweep.
``max_failures`` caps the tolerance: once more than that many runs have
errored, :class:`SweepAborted` is raised (everything completed so far is
journaled, so ``--resume`` picks up the remainder after a fix).

Checkpointing: every completed record is appended to a
``BENCH_<name>.partial.jsonl`` journal as it arrives; ``resume=True`` loads
the journal, skips already-journaled ``(index, seed)`` rows and executes
only the remainder.  The final ``rows`` are byte-identical to an
uninterrupted run at the same seed, because each run's randomness derives
from its own per-index seed and the journal round-trips the deterministic
row content exactly.

Determinism: a run's randomness comes only from ``RunSpec.seed`` (one
generator drives instance construction and Fourier sampling, in that fixed
order), so results are independent of worker count and scheduling.  Pool
records arrive in completion order and the payload sorts rows by index.
"""

from __future__ import annotations

import os
import re
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.blackbox.noise import NoiseSpec, install_noise
from repro.blackbox.oracle import BlackBoxGroup
from repro.core.solver import solve_hsp
from repro.experiments.registry import build_instance
from repro.experiments.results import (
    RunRecord,
    append_journal,
    bench_payload,
    journal_path,
    load_journal,
    remove_journal,
    rewrite_journal,
    write_bench,
    write_journal_header,
)
from repro.experiments.specs import RunSpec, SweepSpec
from repro import obs
from repro.quantum.sampling import FourierSampler

__all__ = [
    "SweepAborted",
    "execute_run",
    "execute_run_safe",
    "run_sweep",
]

#: Recognised ``solver_options`` keys.  Strategy, sampler and engine use are
#: first-class ``SweepSpec`` fields; instance parameters belong in the grid;
#: structural promises belong to the registry family.  Validated here so a
#: typo fails the sweep with a clear message instead of a worker TypeError.
#: ``confidence`` tunes the Fourier-sampling stopping rule (success
#: probability versus rounds); ``noise`` is a :mod:`repro.blackbox.noise`
#: spec string installing a corruption channel on the oracle or sampler.
SUPPORTED_SOLVER_OPTIONS = frozenset({"confidence", "noise"})


class SweepAborted(RuntimeError):
    """Raised when a sweep exceeds its ``max_failures`` error budget.

    The journal keeps every record completed before the abort (error rows
    included), so a ``--resume`` after fixing the cause re-executes only the
    remainder — journaled *error* rows are retried on resume (see
    :func:`run_sweep`), which is what makes recovery from a transient cause
    possible at all.
    """

    def __init__(self, sweep: str, failures: int, max_failures: int, journal: Optional[str]):
        self.sweep = sweep
        self.failures = failures
        self.max_failures = max_failures
        self.journal = journal
        hint = f"; journal kept at {journal}" if journal else ""
        super().__init__(
            f"sweep {sweep!r} aborted: {failures} failed run(s) exceed "
            f"--max-failures {max_failures}{hint}"
        )


def execute_run(run: RunSpec) -> RunRecord:
    """Execute one run descriptor; raises on failure (see ``execute_run_safe``).

    Telemetry is sidecar-only: the ``run`` span lands in the trace file and
    never touches the returned record, so rows are byte-identical with
    tracing on or off.
    """
    with obs.span(
        "run", sweep=run.sweep, index=run.index, seed=run.seed, family=run.family
    ) as run_span:
        record = _execute_run_impl(run)
        run_span.set(strategy=record.strategy, success=record.success)
    return record


def _execute_run_impl(run: RunSpec) -> RunRecord:
    rng = np.random.default_rng(run.seed)
    options = run.options_dict()
    unknown = set(options) - SUPPORTED_SOLVER_OPTIONS
    if unknown:
        raise ValueError(
            f"unsupported solver_options {sorted(unknown)}; supported: "
            f"{sorted(SUPPORTED_SOLVER_OPTIONS)} (instance parameters go in the "
            "grid, promises in the registry family)"
        )
    confidence = options.pop("confidence", None)
    noise = NoiseSpec.parse(options.pop("noise", "none"))
    instance = build_instance(run.family, run.instance_params(), rng)
    base = instance.group.group if isinstance(instance.group, BlackBoxGroup) else instance.group
    sampler = FourierSampler(backend=run.sampler.backend, rng=rng)
    if noise is not None:
        # Channel randomness derives from the run seed through its own
        # domain-separated SeedSequence stream — the main ``rng`` above
        # is never consumed, so the ε=0 (uninstalled) rows are
        # byte-identical to a no-noise sweep by construction.
        install_noise(noise, instance, sampler, run.seed)
    start = time.perf_counter()
    solution = solve_hsp(
        instance,
        strategy=run.strategy,
        sampler=sampler,
        confidence=confidence,
        noise=noise,
    )
    wall = time.perf_counter() - start
    if solution.status == "no_convergence":
        # The strategy failed gracefully under the corruption channel —
        # there is no candidate to verify.
        success = False
    else:
        # Verification runs against the ground truth (concrete group
        # arithmetic), never the corrupted oracle.
        success = instance.verify(solution.generators or [base.identity()])
    serialized = solution.to_json_dict(include_timing=False)
    return RunRecord(
        sweep=run.sweep,
        index=run.index,
        family=run.family,
        params=run.params_dict(),
        repeat=run.repeat,
        seed=run.seed,
        strategy=serialized["strategy"],
        success=bool(success),
        generators=serialized["generators"],
        query_report=serialized["query_report"],
        wall_time_seconds=wall,
        status=solution.status,
    )


#: ``File "<abs path>/module.py"`` -> ``File "module.py"`` in tracebacks: the
#: captured error text lands in the *deterministic* BENCH rows, which must
#: not vary with where the repo happens to be checked out.
_TRACEBACK_PATH = re.compile(r'(File ")([^"]*[/\\])([^"/\\]+")')


def _normalize_traceback(text: str) -> str:
    return _TRACEBACK_PATH.sub(r"\1\3", text)


def execute_run_safe(run: RunSpec) -> RunRecord:
    """The pool-side entry point: a raising run becomes an ``"error"`` record.

    Only ``Exception`` is converted — ``KeyboardInterrupt`` and other
    ``BaseException`` interruptions propagate, leaving the journal intact for
    a later ``--resume``.
    """
    try:
        return execute_run(run)
    except Exception:
        return RunRecord(
            sweep=run.sweep,
            index=run.index,
            family=run.family,
            params=run.params_dict(),
            repeat=run.repeat,
            seed=run.seed,
            strategy=run.strategy,
            success=False,
            generators=[],
            query_report={},
            wall_time_seconds=0.0,
            status="error",
            error=_normalize_traceback(traceback.format_exc()),
        )


def _obs_pool_init(trace_path: Optional[str], parent: Optional[str]) -> None:
    """Pool-worker initializer: install the sweep's trace sink.

    Runs once per worker process; the worker exits with the pool, so nothing
    is restored.  ``parent`` is the dispatching process's open ``sweep``
    span, under which the worker's top-level ``run`` spans hang.  With a
    ``None`` path this is a no-op, which keeps a single code path for
    traced and untraced pools.
    """
    if trace_path is not None:
        tracer = obs.Tracer(trace_path, worker=f"pool-{os.getpid()}")
        tracer.parent = parent
        obs.install_tracer(tracer)


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    out_dir: Optional[str] = ".",
    max_failures: Optional[int] = None,
    resume: bool = False,
    trace: Optional[str] = None,
) -> Tuple[Optional[str], Dict[str, object]]:
    """Execute a sweep and persist its ``BENCH_<name>.json``.

    ``workers=1`` executes every run inline; ``workers > 1`` fans the
    expanded run list out over a process pool; the rows of the resulting
    payload are byte-identical either way.  ``workers < 1`` raises
    ``ValueError`` (``0`` marks externally executed sweeps in BENCH
    payloads).  ``out_dir=None`` skips persistence (no BENCH file, no
    journal) and just returns the payload.

    ``max_failures=None`` (the default) captures every raising run as an
    ``status="error"`` row and finishes the sweep; an integer budget raises
    :class:`SweepAborted` once more than that many runs of *this attempt*
    have failed (a resumed attempt retries previously-errored runs, so the
    budget is fresh).

    ``resume=True`` replays the ``BENCH_<name>.partial.jsonl`` journal in
    ``out_dir``: journaled ``status="ok"`` rows are skipped; journaled
    *error* rows are **retried** together with the never-journaled
    remainder (a deterministic failure reproduces the identical error row,
    a transient one heals — which is the point of resuming after a fix).
    The journal is validated against ``spec`` and removed once the sweep
    completes and the BENCH file is written.

    ``trace`` appends JSONL spans (from this process and every pool worker,
    whose ``run`` spans name this process's ``sweep`` span as parent) to the
    given sidecar path.  It changes neither the journal nor the BENCH
    payload in any byte.
    """
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    runs = spec.expand()
    jpath: Optional[str] = None
    done: Dict[Tuple[int, int], RunRecord] = {}
    if out_dir is not None:
        jpath = journal_path(out_dir, spec.name)
        if resume and os.path.exists(jpath):
            journaled = load_journal(jpath, spec)
            done = {
                key: record for key, record in journaled.items() if record.status != "error"
            }
            # Compact the journal back to exactly the state being resumed
            # from: a torn trailing fragment from the crash is dropped (so
            # this attempt's appends start on a clean line), retried error
            # rows are removed, and a headerless file gets a valid header.
            rewrite_journal(jpath, spec, list(done.values()))
        else:
            # A fresh run starts a fresh journal; a stale one (different
            # earlier attempt, not being resumed) is overwritten by the
            # header write.
            write_journal_header(jpath, spec)

    pending = [run for run in runs if (run.index, run.seed) not in done]
    records: List[RunRecord] = list(done.values())
    failures = 0

    def admit(record: RunRecord) -> None:
        nonlocal failures
        if jpath is not None:
            append_journal(jpath, record)
        records.append(record)
        if record.status == "error":
            failures += 1

    def over_budget() -> bool:
        return max_failures is not None and failures > max_failures

    with obs.tracing(trace):
        with obs.span(
            "sweep", sweep=spec.name, runs=len(runs), pending=len(pending), workers=workers
        ) as sweep_span:
            if workers == 1:
                for run in pending:
                    admit(execute_run_safe(run))
                    if over_budget():
                        break
            else:
                # Bounded incremental submission: at most 2x workers runs are
                # ever in flight, so an over-budget abort stops dispatching
                # almost immediately instead of waiting out an
                # eagerly-submitted tail.  Records may arrive out of input
                # order; rows are keyed and later sorted by index, so the
                # payload is unaffected.
                with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_obs_pool_init,
                    initargs=(trace, sweep_span.span_id),
                ) as pool:
                    queue = list(reversed(pending))
                    in_flight = set()
                    while queue or in_flight:
                        while queue and len(in_flight) < 2 * workers:
                            in_flight.add(pool.submit(execute_run_safe, queue.pop()))
                        finished, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
                        for future in finished:
                            admit(future.result())
                        if over_budget():
                            for future in in_flight:
                                future.cancel()
                            # Runs already executing cannot be cancelled; wait
                            # them out and admit their records so the ledger
                            # does not lose work that in fact completed.
                            drained, _ = wait(in_flight)
                            for future in drained:
                                if not future.cancelled():
                                    admit(future.result())
                            break
    # Failures only accumulate, so a budget exceeded mid-sweep still is.
    if over_budget():
        raise SweepAborted(spec.name, failures, max_failures, jpath)

    payload = bench_payload(spec, workers, records)
    if out_dir is None:
        return None, payload
    path = write_bench(out_dir, spec.name, payload)
    if jpath is not None:
        remove_journal(jpath)
    return path, payload
