"""The experiment-orchestration subsystem: declarative, parallel, persistent sweeps.

The paper's algorithms are judged by oracle-query counts, so the interesting
empirical questions (query scaling vs. group order, strategy behaviour,
success statistics) all require *sweeps* of many independent ``solve_hsp``
runs.  ``repro.experiments`` makes those sweeps declarative and parallel:

* a :class:`~repro.experiments.SweepSpec` describes a grid of (group family,
  instance parameters, solver options, seeds);
* the runner expands it deterministically into picklable run descriptors
  and executes them on a process pool — workers rebuild instances locally
  and share nothing; query reports merge by ``QueryCounter`` addition;
* results persist as ``BENCH_<name>.json`` (deterministic rows + timings +
  aggregate); rows are byte-identical for any worker count at a fixed seed.

Everything below is also available from the shell::

    python -m repro.experiments list
    python -m repro.experiments run smoke --workers 2 --out .benchmarks
    python -m repro.experiments report smoke --out .benchmarks

Run with:  python examples/experiment_sweeps.py
"""

import json
import tempfile

from repro.experiments import SamplerSpec, SweepSpec, WORKLOADS, run_sweep
from repro.experiments.results import rows_bytes


def declared_workloads() -> None:
    print("=== 1. The declared workload catalogue ===")
    for name in sorted(WORKLOADS)[:6]:
        spec = WORKLOADS[name]
        print(f"  {name:<28} family={spec.family:<22} runs={len(spec.expand())}")
    print(f"  ... ({len(WORKLOADS)} total; see `python -m repro.experiments list`)")
    print()


def run_a_declared_sweep(out_dir: str) -> None:
    print("=== 2. Run the CI smoke sweep on 2 worker processes ===")
    path, payload = run_sweep(WORKLOADS["smoke"], workers=2, out_dir=out_dir)
    aggregate = payload["aggregate"]
    print(f"  wrote                : {path}")
    print(f"  successes            : {aggregate['successes']}/{aggregate['runs']}")
    print(f"  total quantum queries: {aggregate['query_totals']['quantum_queries']}")
    print()


def declare_your_own(out_dir: str) -> None:
    print("=== 3. Declare a custom sweep (grid x repeats, analytic sampling) ===")
    spec = SweepSpec.from_grid(
        "custom-extraspecial",
        "extraspecial_random",
        {"p": [3, 5, 7]},
        repeats=2,
        sampler=SamplerSpec(backend="analytic"),
        description="query scaling of Theorem 11 in the commutator order p",
    )
    _, payload = run_sweep(spec, workers=2, out_dir=out_dir)
    print("  per-run quantum queries by p:")
    for row in payload["rows"]:
        report = row["query_report"]
        print(
            f"    p={row['params']['p']}  repeat={row['repeat']}  "
            f"quantum={report['quantum_queries']:>3}  classical={report['classical_queries']:>4}"
        )
    print()


def determinism(out_dir: str) -> None:
    print("=== 4. Worker-count independence ===")
    spec = WORKLOADS["smoke"]
    _, serial = run_sweep(spec, workers=1, out_dir=None)
    _, pooled = run_sweep(spec, workers=4, out_dir=None)
    identical = rows_bytes(serial) == rows_bytes(pooled)
    print(f"  workers=1 and workers=4 rows byte-identical: {identical}")
    merged = serial["aggregate"]["query_totals"]
    summed = {}
    for row in serial["rows"]:
        for key, value in row["query_report"].items():
            summed[key] = summed.get(key, 0) + value
    print(f"  aggregate equals sum of per-run reports   : {merged == summed}")


def main() -> None:
    with tempfile.TemporaryDirectory() as out_dir:
        declared_workloads()
        run_a_declared_sweep(out_dir)
        declare_your_own(out_dir)
        determinism(out_dir)


if __name__ == "__main__":
    main()
