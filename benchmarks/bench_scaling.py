"""Scaling benchmark: kernel-mode engine vs the engine-less per-element route.

The dense-id refactor makes int64 ids the currency from the hiding oracle
down to the linear algebra: groups with a per-family ``DenseKernel`` get
the id-native ``"kernel"`` engine mode, whose products are computed by
batch arithmetic (no scalar ``multiply`` in the hot loops), and coset
labels are computed a block of ids at a time.  This benchmark
commits the resulting trajectory as ``BENCH_scaling.json``: wall-clock and
query totals versus ``|G|`` for three group families, with the dihedral
family reaching ``|G| = 16384`` and the extraspecial family ``|G| = 24389``
— an order of magnitude beyond the largest group in any other committed
BENCH.

Methodology — cold end-to-end runs, not steady state: every run builds a
fresh instance (fresh group, fresh engine, fresh oracle caches) and solves
it, so the measurement includes exactly the enumeration, product and
labelling work the dense kernels accelerate.  The baseline runs with
:data:`repro.groups.engine.DEFAULT_INTERN_LIMIT` patched to 0 for the
benchmark's duration, so :func:`~repro.groups.engine.maybe_engine` declines
every group and the solve takes the per-element route that groups too large
for an engine take; everything else — seeds, batch sampler — is identical.
(The committed baseline column was measured against an earlier baseline, a
lazily filled Cayley table at ``|G| <= 4096`` and a per-pair memo above,
so it is not what a rerun measures now.)
Query accounting must not depend on the route: the benchmark asserts the
per-row query reports of the two configurations are equal and stores the
shared report in the row.

Run directly::

    PYTHONPATH=src python benchmarks/bench_scaling.py [--smoke] [--out DIR]

``--smoke`` restricts each family to its first (smallest) grid point — the
subset the CI ``scaling-smoke`` job re-measures and diffs against the
committed file (query columns only; wall-clock is machine-dependent).

Also exposed as a pytest-style check (``test_scaling_speedup``) asserting
the engine wins by >= 3x over the engine-less route on the aggregate over
the largest points.
"""

from __future__ import annotations

import argparse
import time
from contextlib import nullcontext
from typing import Dict, List, Tuple
from unittest import mock

import numpy as np

import repro.groups.engine as engine_module
from repro.core.solver import solve_hsp
from repro.experiments.registry import build_instance
from repro.experiments.results import write_bench
from repro.experiments.specs import DEFAULT_SEED, derive_seed
from repro.experiments.workloads import SCALING_AXES
from repro.quantum.sampling import FourierSampler

SEED = DEFAULT_SEED


def scaling_points(smoke: bool = False) -> List[Tuple[str, str, Dict[str, object]]]:
    """``(label, family, params)`` rows from the declared scaling axes."""
    rows: List[Tuple[str, str, Dict[str, object]]] = []
    for axis in SCALING_AXES:
        grid: Dict[str, List[object]] = dict(axis["grid"])  # type: ignore[arg-type]
        ((key, values),) = grid.items()
        for value in values[:1] if smoke else values:
            rows.append((str(axis["label"]), str(axis["family"]), {key: value}))
    return rows


def _solve_cold(family: str, params: Dict[str, object]):
    """One cold run: fresh instance (fresh group/engine/caches), then solve."""
    instance = build_instance(family, params, np.random.default_rng(derive_seed(SEED, 0)))
    sampler = FourierSampler(backend="auto", rng=np.random.default_rng(SEED))
    solution = solve_hsp(instance, sampler=sampler)
    solved = instance.verify(solution.generators or [instance.group.identity()])
    assert solved, f"{family} {params} returned a wrong subgroup"
    order = instance.group.group.order()
    return solution, instance.query_report(), int(order)


def bench_point(
    family: str, params: Dict[str, object], repeats: int = 2
) -> Dict[str, object]:
    """Cold best-of-``repeats`` timings of one grid point in both configurations."""
    timings: Dict[str, float] = {}
    reports: Dict[str, Dict[str, int]] = {}
    order = 0
    strategy = ""
    for config in ("baseline", "dense"):
        context = (
            mock.patch.object(engine_module, "DEFAULT_INTERN_LIMIT", 0) if config == "baseline" else nullcontext()
        )
        best = float("inf")
        with context:
            for _ in range(repeats):
                start = time.perf_counter()
                solution, report, order = _solve_cold(family, params)
                best = min(best, time.perf_counter() - start)
            strategy = solution.strategy
        timings[config] = best
        reports[config] = report
    assert reports["baseline"] == reports["dense"], (
        f"query accounting diverged on {family} {params}: "
        f"baseline={reports['baseline']} dense={reports['dense']}"
    )
    return {
        "family": family,
        "params": {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()},
        "group_order": order,
        "strategy": strategy,
        "baseline_seconds": timings["baseline"],
        "dense_seconds": timings["dense"],
        "speedup": timings["baseline"] / timings["dense"],
        "query_report": reports["dense"],
    }


def run_all(smoke: bool = False, repeats: int = 2) -> List[Dict[str, object]]:
    return [bench_point(family, params, repeats=repeats) for _, family, params in scaling_points(smoke)]


def aggregate_speedup(rows: List[Dict[str, object]]) -> float:
    """Aggregate speedup over the largest point of each family."""
    largest: Dict[str, Dict[str, object]] = {}
    for row in rows:
        family = str(row["family"])
        if family not in largest or row["group_order"] > largest[family]["group_order"]:
            largest[family] = row
    top = list(largest.values())
    return sum(float(r["baseline_seconds"]) for r in top) / sum(
        float(r["dense_seconds"]) for r in top
    )


def persist(rows: List[Dict[str, object]], out_dir: str = ".", smoke: bool = False) -> str:
    """Write the trajectory as ``BENCH_scaling.json``.

    The aggregate is named for the rows it is taken over: a ``--smoke`` run
    holds only each family's smallest point, so its speedup is
    ``smoke_subset_speedup``, never ``largest_point_speedup``.
    """
    key = "smoke_subset_speedup" if smoke else "largest_point_speedup"
    payload = {
        "benchmark": "scaling-dense-vs-prekernel",
        "seed": SEED,
        "rows": rows,
        "aggregate": {key: aggregate_speedup(rows)},
    }
    return write_bench(out_dir, "scaling", payload)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="first grid point per family only")
    parser.add_argument("--out", default=".", help="directory for BENCH_scaling.json")
    parser.add_argument("--repeats", type=int, default=2, help="cold runs per configuration")
    args = parser.parse_args()
    rows = run_all(smoke=args.smoke, repeats=args.repeats)
    print(f"{'family':<20} {'|G|':>7} {'strategy':<22} {'baseline':>10} {'dense':>10} {'speedup':>8}")
    for row in rows:
        print(
            f"{row['family']:<20} {row['group_order']:>7} {row['strategy']:<22} "
            f"{float(row['baseline_seconds']) * 1e3:>8.1f}ms {float(row['dense_seconds']) * 1e3:>8.1f}ms "
            f"{float(row['speedup']):>7.1f}x"
        )
    path = persist(rows, args.out, smoke=args.smoke)
    if args.smoke:
        # Only the smallest point of each family ran: no target applies.
        speedup = aggregate_speedup(rows)
        print(f"\naggregate speedup over the smoke subset (smallest points, no target): {speedup:.1f}x")
    else:
        print(f"\naggregate speedup over largest points: {aggregate_speedup(rows):.1f}x (target: >= 3x)")
    print(f"wrote {path}")


def test_scaling_speedup():
    """The engine must beat the engine-less route >= 3x on the largest points."""
    aggregate = aggregate_speedup(run_all())
    assert aggregate >= 3.0, f"aggregate speedup {aggregate:.2f}x below target"


if __name__ == "__main__":
    main()
