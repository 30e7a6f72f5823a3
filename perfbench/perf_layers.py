"""The library's layers, as the traced run sees them.

Each layer is a set of public callables (:meth:`LayerProbe.targets`)
wrapped by :mod:`perf_trace`.  :class:`LayerProbe` owns the recorder, the installed
wrappers and the engines an op touched, and :func:`layer_metrics` turns the
recorded self times and counts into the per-op ``per_layer`` metrics of
``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
from typing import Dict, List

from perf_trace import ROOT_LAYER, Instrumentation, SpanRecorder, Target

ENGINE = "repro.groups.engine:CayleyBackend"
ORACLE = "repro.blackbox.oracle:HidingOracle"
SQLITE = "repro.experiments.transports.sqlite:SqliteTransport"

ENGINE_BATCH_METHODS = (
    "mul_many",
    "inv_many",
    "conj_many",
    "intern_many",
    "orbit_closure",
    "subgroup_ids",
    "coset_label_many",
    "commutator_subgroup_ids",
)

LINALG_MODULES = (
    "repro.linalg.smith",
    "repro.linalg.hermite",
    "repro.linalg.zmodule",
    "repro.linalg.gf2",
)

#: Recorder layer -> the per-layer time metric it is reported as.
TIME_METRICS = {
    "engine.build": "engine.build_ms",
    "engine.ops": "engine.ops_ms",
    "instances.build": "instances.build_ms",
    "oracle.eval": "oracle.eval_ms",
    "sampler.sample": "sampler.sample_ms",
    "linalg": "linalg.ms",
    "solver": "solver.self_ms",
    "verify": "verify.ms",
    "runner": "runner.self_ms",
    "transport.claim": "transport.claim_ms",
    "transport.append": "transport.append_ms",
    "transport.release": "transport.release_ms",
    "results.collect": "results.collect_ms",
    ROOT_LAYER: "unattributed_ms",
}

#: Per-op count metrics: ``(metric, source)`` where the source is a recorder
#: count (``counts:``) or the number of outermost calls into a layer
#: (``calls:``).
COUNT_METRICS = (
    ("engine.builds", "counts:engine.builds"),
    ("engine.interned", "counts:engine.interned"),
    ("engine.mode_table", "counts:engine.mode_table"),
    ("engine.mode_kernel", "counts:engine.mode_kernel"),
    ("engine.mode_sparse", "counts:engine.mode_sparse"),
    ("engine.cached_products", "counts:engine.cached_products"),
    ("oracle.calls", "calls:oracle.eval"),
    ("oracle.labels", "counts:oracle.labels"),
    ("sampler.calls", "calls:sampler.sample"),
    ("sampler.samples", "counts:sampler.samples"),
    ("linalg.calls", "calls:linalg"),
    ("transport.ops", "counts:transport.ops"),
)

#: Every per-layer metric, in report order.
PER_LAYER_METRICS = (
    list(TIME_METRICS.values())
    + [name for name, _ in COUNT_METRICS]
    + ["oracle.cache_hit_ratio", "trace_overhead_ratio"]
)


def metric_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class LayerProbe:
    """The traced run's state: recorder, wrappers and engines touched by an op."""

    def __init__(self):
        self.recorder = SpanRecorder()
        self.touched: Dict[int, object] = {}
        self.instrumentation = Instrumentation(self.recorder, self.targets())

    # -- notes: work counts recorded by outermost calls -------------------------
    def _note_build(self, recorder, args, kwargs, result) -> None:
        engine = args[0]
        self.touched[id(engine)] = engine
        recorder.count("engine.builds")
        recorder.count(f"engine.mode_{engine.mode}")
        recorder.count("engine.interned", engine.interned_count)

    def _note_engine_op(self, recorder, args, kwargs, result) -> None:
        self.touched[id(args[0])] = args[0]

    # Labels are counted per request to any oracle, nested ones included (a
    # Theorem 11 coset-bundle oracle queries the instance oracle), so that
    # ``oracle.cache_hit_ratio`` compares them with every classical query.
    @staticmethod
    def _note_label(recorder, args, kwargs, result) -> None:
        recorder.count("oracle.labels")

    @staticmethod
    def _note_labels(recorder, args, kwargs, result) -> None:
        recorder.count("oracle.labels", len(result))

    @staticmethod
    def _note_element_labels(recorder, args, kwargs, result) -> None:
        # A dense-attached oracle answers evaluate_many through evaluate_ids,
        # which counts the same labels.
        if args[0].dense_engine is None:
            recorder.count("oracle.labels", len(result))

    @staticmethod
    def _note_samples(recorder, args, kwargs, result) -> None:
        recorder.count("sampler.samples", len(result))

    @staticmethod
    def _note_transport(recorder, args, kwargs, result) -> None:
        recorder.count("transport.ops")

    def targets(self) -> List[Target]:
        targets = [Target(ENGINE, "__init__", "engine.build", self._note_build)]
        targets += [
            Target(ENGINE, name, "engine.ops", self._note_engine_op) for name in ENGINE_BATCH_METHODS
        ]
        targets += [
            Target("repro.experiments.registry", "build_instance", "instances.build"),
            Target("repro.blackbox.instances:HSPInstance", "from_subgroup", "instances.build"),
            Target(ORACLE, "__call__", "oracle.eval", self._note_label, True),
            Target(ORACLE, "evaluate_many", "oracle.eval", self._note_element_labels, True),
            Target(ORACLE, "evaluate_ids", "oracle.eval", self._note_labels, True),
            Target("repro.quantum.sampling:FourierSampler", "sample", "sampler.sample", self._note_samples),
        ]
        for module_name in LINALG_MODULES:
            module = importlib.import_module(module_name)
            for name in module.__all__:
                if not isinstance(getattr(module, name, None), type):
                    targets.append(Target(module_name, name, "linalg"))
        targets += [
            Target("repro.core.solver", "solve_hsp", "solver"),
            Target("repro.blackbox.instances:HSPInstance", "verify", "verify"),
            Target("repro.experiments.runner", "execute_run_safe", "runner"),
            Target(SQLITE, "claim_next", "transport.claim", self._note_transport),
            Target(SQLITE, "append_record", "transport.append", self._note_transport),
            Target(SQLITE, "release", "transport.release", self._note_transport),
            Target("repro.experiments.distributed", "collect_queue", "results.collect"),
        ]
        return targets

    def end_op(self) -> None:
        """Fold the touched engines' cache occupancy into the counts (untimed)."""
        for engine in self.touched.values():
            self.recorder.count("engine.cached_products", engine.stats()["cached_products"])
        self.touched.clear()


def layer_metrics(
    recorder: SpanRecorder,
    ops: int,
    classical_queries: int,
    overhead_ratio: float,
) -> Dict[str, float]:
    """Per-op means of every per-layer metric (times in ms)."""
    if ops < 1:
        raise ValueError("layer metrics need at least one traced op")
    metrics: Dict[str, float] = {}
    for layer, name in TIME_METRICS.items():
        metrics[name] = recorder.self_time.get(layer, 0.0) * 1e3 / ops
    for name, source in COUNT_METRICS:
        kind, _, key = source.partition(":")
        table = recorder.calls if kind == "calls" else recorder.counts
        metrics[name] = table.get(key, 0) / ops
    labels = recorder.counts.get("oracle.labels", 0)
    metrics["oracle.cache_hit_ratio"] = 1.0 - classical_queries / labels if labels else 0.0
    metrics["trace_overhead_ratio"] = overhead_ratio
    return metrics
