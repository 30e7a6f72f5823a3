"""The payload ``benchmarks/bench_scaling.py`` writes as ``BENCH_scaling.json``."""

import json

import pytest

from benchmarks.bench_scaling import persist


def _row(family, order, baseline, dense):
    return {
        "family": family,
        "group_order": order,
        "baseline_seconds": baseline,
        "dense_seconds": dense,
    }


ROWS = [
    _row("dihedral", 64, 0.4, 0.2),
    _row("dihedral", 8192, 9.0, 1.0),
    _row("heisenberg", 27, 0.3, 0.1),
]


@pytest.mark.parametrize(
    "smoke, key", [(False, "largest_point_speedup"), (True, "smoke_subset_speedup")]
)
def test_the_aggregate_is_named_for_the_rows_it_covers(tmp_path, smoke, key):
    path = persist(ROWS, str(tmp_path), smoke=smoke)
    payload = json.load(open(path))
    assert path == str(tmp_path / "BENCH_scaling.json")
    # Largest point per family: (9.0 + 0.3) / (1.0 + 0.1).
    assert payload["aggregate"] == {key: pytest.approx(9.3 / 1.1)}
    assert payload["rows"] == ROWS


def test_persist_defaults_to_a_full_run(tmp_path):
    payload = json.load(open(persist(ROWS, str(tmp_path))))
    assert list(payload["aggregate"]) == ["largest_point_speedup"]
