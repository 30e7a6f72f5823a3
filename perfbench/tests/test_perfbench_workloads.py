"""Seeded workload generation and the metric names the benchmark publishes."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import perf_workloads  # noqa: E402
from perf_layers import PER_LAYER_METRICS, metric_unit  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PLANNED = [perf_workloads.ColdLarge, perf_workloads.ColdMix, perf_workloads.WarmResolve]


@pytest.mark.parametrize("cls", PLANNED, ids=lambda cls: cls.name)
def test_op_plan_is_a_function_of_the_seed(cls, tmp_path):
    first = cls(7, str(tmp_path))
    again = cls(7, str(tmp_path))
    other = cls(8, str(tmp_path))
    indices = list(range(24)) + [perf_workloads.PROCESS_STRIDE + i for i in range(6)]
    plans = [first.plan(i) for i in indices]
    assert plans == [again.plan(i) for i in indices]
    assert plans != [other.plan(i) for i in indices]
    # Every round of len(CHOICES) consecutive ops covers each choice once.
    k = len(cls.CHOICES)
    for start in range(0, 24, k):
        assert sorted(map(repr, (plans[i][0] for i in range(start, start + k)))) == sorted(
            map(repr, cls.CHOICES)
        )


def test_queue_sweep_is_a_function_of_the_seed(tmp_path):
    specs = [perf_workloads.QueueDrain(seed, str(tmp_path)).spec for seed in (7, 7, 8)]
    assert specs[0] == specs[1]
    assert specs[0].seed != specs[2].seed
    assert len(specs[0].expand()) == 48


def test_warm_ops_are_seeded(tmp_path):
    workload = perf_workloads.WarmResolve(3, str(tmp_path))
    workload.setup()
    runs = [workload.run_unit(i)[0] for i in range(6)]
    repeat = perf_workloads.WarmResolve(3, str(tmp_path))
    repeat.setup()
    assert all(r.ok for r in runs)
    assert [r.queries for r in runs] == [repeat.run_unit(i)[0].queries for i in range(6)]


def test_benchmark_json_names_and_limits():
    import run

    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(perf_workloads.WORKLOADS) == list(run.WORKLOADS)
    assert 2 <= len(names) <= 8
    end_to_end = BENCHMARK["end_to_end"]
    per_layer = BENCHMARK["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    all_names = names + [m["name"] for m in end_to_end + per_layer]
    assert len(all_names) == len(set(all_names))
    for name in all_names:
        assert NAME.match(name), name
    for metric in end_to_end + per_layer:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in end_to_end:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] > max(m["bound"] for m in end_to_end if m is not setup)


def test_per_layer_metrics_match_the_traced_report():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER_METRICS)
    for metric in BENCHMARK["per_layer"]:
        assert metric["unit"] == metric_unit(metric["name"])


def test_layers_json_records_every_workload_and_metric():
    layers = json.loads((HERE / "layers.json").read_text())
    assert list(layers["workloads"]) == list(perf_workloads.WORKLOADS)
    assert set(layers["per_layer"]) == set(PER_LAYER_METRICS)
