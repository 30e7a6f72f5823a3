"""Calibrated timing: each stretch of ops is scaled by the loop times around it."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import perf_child  # noqa: E402
from perf_workloads import OpRecord  # noqa: E402


class _FixedOps:
    """A workload whose units each report two ops of known latency."""

    def run_unit(self, index):
        return [OpRecord(0.01 * (index + 1), True, (0, 0, 0)), OpRecord(0.5, True, (0, 0, 0))]


def test_each_segment_is_scaled_by_the_calibrations_around_it(monkeypatch):
    readings = iter([1e-3, 3e-3, 1e-3, 2e-3])
    monkeypatch.setattr(perf_child, "calibrate", lambda: next(readings))
    monkeypatch.setattr(perf_child, "SEGMENT_S", 1e-12)  # one unit per segment
    loop = perf_child._loop(_FixedOps(), 0, seconds=0.0, min_ops=6)
    assert loop["units"] == 3
    ref = perf_child.REFERENCE_S
    scales = [ref / 2e-3, ref / 2e-3, ref / 1.5e-3]
    expected = [r.latency * scales[i // 2] for i, r in enumerate(loop["records"])]
    assert loop["calibrated"] == pytest.approx(expected)
    assert loop["cal_wall"] > 0


def test_a_steady_host_at_reference_speed_reads_wall_time(monkeypatch):
    monkeypatch.setattr(perf_child, "calibrate", lambda: perf_child.REFERENCE_S)
    loop = perf_child._loop(_FixedOps(), 0, seconds=0.0, min_ops=40)
    assert loop["calibrated"] == pytest.approx([r.latency for r in loop["records"]])
    assert loop["cal_wall"] == pytest.approx(loop["wall"])


def test_calibration_loop_is_pure_and_timed():
    results = {perf_child._calibration_loop() for _ in range(3)}
    assert len(results) == 1
    assert 0 < perf_child.calibrate(reps=3) < 1.0
