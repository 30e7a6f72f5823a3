"""Engine benchmark: vectorized dense-id engine path vs the scalar path.

A thin wrapper over the experiment subsystem: the workload instances come
from :mod:`repro.experiments.registry` (the same families the declared
``engine-*``/``scalar-*`` comparison sweeps use), the scalar configuration
is realised with :func:`repro.groups.engine.engine_disabled`, and the
measurements are persisted as ``BENCH_engine.json`` through
:mod:`repro.experiments.results`.

Two Fourier-sampling-dominated workloads — the extraspecial Theorem 11
solve (E6) and the hidden-normal-subgroup solve (E4) — run on the same seed
in both configurations:

``scalar``
    the pre-engine profile: min-encoding coset labels, per-element group
    arithmetic, per-round Fourier sampling (``FourierSampler(batch=False)``,
    ``use_engine=False``);
``engine``
    the batched profile: engine products and coset labels, per-oracle
    partition/decomposition caches, block sampling.

Both configurations produce verified solutions and identical query totals
per round; only the wall-clock cost of *simulating* the queries changes.
The timing methodology is steady-state: one warm-up run, then the best of
``repeats`` — the engine's one-off build (the row enumeration) is
amortised, exactly as a sweep of many runs over the same group amortises
it.  Run directly::

    PYTHONPATH=src python benchmarks/bench_engine.py

Also exposed as a pytest-style check (``test_engine_speedup``) asserting the
engine path wins by a comfortable margin on the aggregate.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.blackbox.instances import HSPInstance
from repro.core.solver import solve_hsp
from repro.experiments.registry import build_instance
from repro.experiments.results import write_bench
from repro.experiments.specs import DEFAULT_SEED, derive_seed
from repro.experiments.workloads import ENGINE_COMPARISONS, get_workload
from repro.groups.engine import engine_disabled
from repro.quantum.sampling import FourierSampler

SEED = DEFAULT_SEED


def comparison_workloads() -> List[Tuple[str, str, Dict[str, object]]]:
    """``(label, family, params)`` rows from the declared comparison pairs.

    The single source of truth is :data:`ENGINE_COMPARISONS` — the declared
    ``engine-*``/``scalar-*`` sweep pairs; this benchmark times the same
    family and grid point with the steady-state methodology below.
    """
    rows = []
    for pair in ENGINE_COMPARISONS:
        spec = get_workload(pair["engine"])
        (point,) = spec.points()
        rows.append((pair["label"], spec.family, point))
    return rows


def _timed(run: Callable[[], object], repeats: int) -> Tuple[float, object]:
    run()  # warm caches exactly once in both configurations
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_workload(family: str, params: Dict[str, object], repeats: int = 10) -> Dict[str, float]:
    """Best-of-``repeats`` solve time of one workload in both configurations."""
    timings: Dict[str, float] = {}
    for config in ("scalar", "engine"):
        engine_on = config == "engine"
        context = nullcontext() if engine_on else engine_disabled()
        with context:
            # Fresh group and oracle per configuration: no engine stickiness.
            instance = build_instance(family, params, np.random.default_rng(derive_seed(SEED, 0)))
            sampler = FourierSampler(backend="auto", rng=np.random.default_rng(SEED), batch=engine_on)

            def run():
                fresh = HSPInstance(
                    group=instance.group,
                    oracle=instance.oracle.fresh_view(),
                    hidden_generators=instance.hidden_generators,
                    promises=instance.promises,
                )
                return solve_hsp(fresh, sampler=sampler, use_engine=engine_on)

            elapsed, solution = _timed(run, repeats)
            solved = instance.verify(solution.generators or [instance.group.identity()])
        assert solved, f"{config} configuration returned a wrong subgroup"
        timings[config] = elapsed
    return timings


def bench_batch_ops(p: int = 11, pairs: int = 4096, repeats: int = 10) -> Dict[str, float]:
    """Raw batch multiplication: engine ``mul_many`` vs the scalar loop."""
    from repro.groups.engine import get_engine
    from repro.groups.extraspecial import extraspecial_group

    group = extraspecial_group(p)
    rng = np.random.default_rng(SEED)
    elements_a = [group.uniform_random_element(rng) for _ in range(pairs)]
    elements_b = [group.uniform_random_element(rng) for _ in range(pairs)]
    scalar, _ = _timed(lambda: [group.multiply(a, b) for a, b in zip(elements_a, elements_b)], repeats)
    engine = get_engine(group)
    ids_a, ids_b = engine.intern_many(elements_a), engine.intern_many(elements_b)
    engine_time, _ = _timed(lambda: engine.mul_many(ids_a, ids_b), repeats)
    return {"scalar": scalar, "engine": engine_time}


def run_all() -> List[Tuple[str, float, float, float]]:
    rows = []
    for name, family, params in comparison_workloads():
        timings = bench_workload(family, params)
        rows.append((name, timings["scalar"], timings["engine"], timings["scalar"] / timings["engine"]))
    raw = bench_batch_ops()
    rows.append(("mul_many 4096 pairs (p=11)", raw["scalar"], raw["engine"], raw["scalar"] / raw["engine"]))
    return rows


def solver_aggregate(rows: List[Tuple[str, float, float, float]]) -> float:
    """Aggregate speedup over the solver workloads (the raw-ops row excluded)."""
    solver_rows = rows[: len(ENGINE_COMPARISONS)]
    return sum(r[1] for r in solver_rows) / sum(r[2] for r in solver_rows)


def persist(rows: List[Tuple[str, float, float, float]], out_dir: str = ".") -> str:
    """Write the comparison as ``BENCH_engine.json`` (the bench trajectory file)."""
    payload = {
        "benchmark": "engine-vs-scalar",
        "seed": SEED,
        "rows": [
            {"workload": name, "scalar_seconds": scalar, "engine_seconds": engine, "speedup": speedup}
            for name, scalar, engine, speedup in rows
        ],
        "aggregate": {"solver_speedup": solver_aggregate(rows)},
    }
    return write_bench(out_dir, "engine", payload)


def main() -> None:
    rows = run_all()
    width = max(len(name) for name, *_ in rows)
    print(f"{'workload':<{width}}  {'scalar':>10}  {'engine':>10}  {'speedup':>8}")
    for name, scalar, engine, speedup in rows:
        print(f"{name:<{width}}  {scalar * 1e3:>8.2f}ms  {engine * 1e3:>8.2f}ms  {speedup:>7.1f}x")
    path = persist(rows)
    print(f"\naggregate solver speedup: {solver_aggregate(rows):.1f}x (target: >= 3x)")
    print(f"wrote {path}")


def test_engine_speedup():
    """The engine path must beat the scalar path >= 3x on the solver workloads."""
    aggregate = solver_aggregate(run_all())
    assert aggregate >= 3.0, f"aggregate speedup {aggregate:.2f}x below target"


if __name__ == "__main__":
    main()
