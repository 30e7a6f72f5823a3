"""One fresh benchmark process: set up a workload, then run its closed loop.

Usage (``run.py`` starts it; ``PYTHONPATH`` must include the repo's ``src``)::

    python3 perfbench/perf_child.py '{"workload": "cold-mix", "seed": 1,
        "seconds": 3.0, "process": 0, "shares": 4, "traced": false,
        "workdir": "..."}'

The process runs at least ``1/shares`` of the workload's op floor, starting
at op ``process * PROCESS_STRIDE`` so that processes run distinct ops.  It
prints one JSON object as the last line of its standard output.  A timed
process reports calibrated op latencies, verdicts and query totals; a traced
one alternates untraced blocks of ops with traced blocks of as many fresh ops
and reports per-layer metrics (raw wall times).

A timed process reports op latencies, measured-phase wall time and set-up
time in *calibrated* seconds.  A shared 2-vCPU cloud host switches between
speed states for seconds to minutes at a time (in one the same code runs
1.5-2x slower, with no steal time reported), and that swamps any change to
the library.  So the process times a fixed pure-Python loop
(:func:`calibrate`) before and after each stretch of about ``SEGMENT_S``
seconds of ops, and scales the stretch's wall times by ``REFERENCE_S`` over
the loop's mean time there: a calibrated second is a wall second on a machine
where the loop takes exactly ``REFERENCE_S``.  The loop does not touch the
library, so a faster library still reads faster.
"""

from __future__ import annotations

import time

_CAL_TABLE = {i: (i * 7919) % 4093 for i in range(4096)}
#: Wall time of one calibration loop that a calibrated time is scaled to:
#: about the loop's time in the faster state of the host it was tuned on, so
#: that calibrated and wall times read alike there.
REFERENCE_S = 0.75e-3


def _calibration_loop() -> int:
    """Dict lookups, tuple building and a keyed sort: interpreter-bound work like the library's."""
    table = _CAL_TABLE
    total = 0
    for i in range(5000):
        total += table[(i * 31) & 4095]
    pairs = [(i, table[i]) for i in range(1500)]
    pairs.sort(key=lambda pair: pair[1])
    return total + pairs[0][0]


def calibrate(reps: int = 3) -> float:
    """The median wall time of ``reps`` calibration loops, in seconds."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


START_SPEED = calibrate()
SETUP_START = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List  # noqa: E402

import perf_workloads  # noqa: E402


#: Wall seconds of ops between two calibrations.
SEGMENT_S = 0.05


def _scale(before: float, after: float) -> float:
    """Wall seconds to calibrated seconds, for work between two :func:`calibrate` readings."""
    return REFERENCE_S / ((before + after) / 2)


def _loop(workload, first_index: int, seconds: float, min_ops: int) -> Dict:
    """Run units from ``first_index`` until ``seconds`` passed and ``min_ops`` ops completed.

    Returns the op records (raw wall latencies), the same latencies
    calibrated, and the measured phase's wall time raw and calibrated.
    """
    records: List = []
    calibrated: List[float] = []
    wall = cal_wall = segment_wall = 0.0
    segment_start = 0
    speed = calibrate()
    index = first_index
    while True:
        done = wall >= seconds and len(records) >= min_ops
        if segment_wall >= SEGMENT_S or (done and segment_wall > 0):
            after = calibrate()
            scale = _scale(speed, after)
            calibrated.extend(r.latency * scale for r in records[segment_start:])
            cal_wall += segment_wall * scale
            speed, segment_start, segment_wall = after, len(records), 0.0
        if done:
            break
        # Each unit starts from a collected heap, so neither its latency nor
        # the peak RSS depends on how much cyclic garbage earlier units left.
        gc.collect()
        start = time.perf_counter()
        records.extend(workload.run_unit(index))
        elapsed = time.perf_counter() - start
        wall += elapsed
        segment_wall += elapsed
        index += 1
    return {
        "records": records,
        "calibrated": calibrated,
        "wall": wall,
        "cal_wall": cal_wall,
        "units": index - first_index,
    }


def _floor(workload, config: Dict) -> int:
    """This process's share of the workload's op floor."""
    return math.ceil(workload.min_ops / config["shares"])


def _setup(workload) -> float:
    """Set the workload up; returns the calibrated seconds since this process started."""
    workload.setup()
    # Later full collections then only walk what the measured ops allocate.
    gc.collect()
    gc.freeze()
    wall = time.perf_counter() - SETUP_START
    return wall * _scale(START_SPEED, calibrate())


def run_timed(workload, config: Dict) -> Dict:
    setup_s = _setup(workload)
    floor = _floor(workload, config)
    first = config["process"] * perf_workloads.PROCESS_STRIDE
    loop = _loop(workload, first, config["seconds"], floor)
    records = loop["records"]
    return {
        "latencies": loop["calibrated"],
        "failed": sum(1 for r in records if not r.ok),
        "missed": sum(1 for r in records if r.missed),
        "wall": loop["cal_wall"],
        "setup_s": setup_s,
        # Query totals over the first `floor` ops only: a fixed op set per
        # seed, however many ops the time budget allowed.
        "query_ops": floor,
        "query_totals": [sum(r.queries[k] for r in records[:floor]) for k in range(3)],
    }


#: Untraced/traced block pairs of a traced run.  Each traced block runs as
#: many fresh units as the untraced block before it (repeating them would
#: hit the warm groups' subgroup memos), and alternating the blocks lets slow
#: drift on the machine affect both phases alike.
TRACE_BLOCKS = 4


def run_traced(workload, config: Dict) -> Dict:
    from perf_layers import LayerProbe, layer_metrics
    from perf_trace import ROOT_LAYER

    _setup(workload)
    probe = LayerProbe()
    recorder = probe.recorder
    block_seconds = config["seconds"] / (2 * TRACE_BLOCKS)
    block_ops = math.ceil(_floor(workload, config) / TRACE_BLOCKS)
    plain: List = []
    traced: List = []
    roots: List[float] = []
    index = 0
    for _ in range(TRACE_BLOCKS):
        loop = _loop(workload, index, block_seconds, block_ops)
        plain.extend(loop["records"])
        with probe.instrumentation:
            for unit in range(index + loop["units"], index + 2 * loop["units"]):
                gc.collect()
                with recorder.span(ROOT_LAYER) as root:
                    traced.extend(workload.run_unit(unit))
                roots.append(root.elapsed)
                probe.end_op()
            probe.instrumentation.check_coverage()
        index += 2 * loop["units"]
    total_ms = sum(roots) * 1e3 / len(traced)
    # Means, not medians: the op mixes are multi-modal, and a median near a
    # gap between modes swings with the few ops that cross it.
    overhead = statistics.mean(r.latency for r in traced) / statistics.mean(
        r.latency for r in plain
    )
    classical = sum(r.queries[1] for r in traced)
    metrics = layer_metrics(recorder, len(traced), classical, overhead)
    layer_sum = sum(v for k, v in metrics.items() if k.endswith(("_ms", ".ms")))
    if abs(layer_sum - total_ms) > 1e-6 * max(total_ms, 1.0):
        raise RuntimeError(f"layer self times sum to {layer_sum} ms, traced op total is {total_ms} ms")
    return {
        "attempted": len(plain) + len(traced),
        "failed": sum(1 for r in plain + traced if not r.ok),
        "missed": sum(1 for r in plain + traced if r.missed),
        "metrics": metrics,
        "traced_op_ms": total_ms,
    }


def main(argv: List[str]) -> int:
    config = json.loads(argv[1])
    os.makedirs(config["workdir"])
    try:
        workload = perf_workloads.WORKLOADS[config["workload"]](config["seed"], config["workdir"])
        result = (run_traced if config["traced"] else run_timed)(workload, config)
        result["check"] = workload.check()
    finally:
        shutil.rmtree(config["workdir"], ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
