"""The repo benchmark: cold, warm and queued HSP solves.

Run from the repository root::

    python3 perfbench/run.py --workload cold-mix --seed 1 --seconds 20 --trace 0

Each workload is a closed loop driven by one client, one verified solve at a
time.  A timed run (``--trace 0``) starts two fresh processes one after
another, splits ``--seconds`` between them and pools their op latencies; it
reports every end-to-end metric.  Its times are calibrated against a fixed
pure-Python loop timed around every stretch of ops, so that the host's
changing speed does not read as a change of the library (see
``perf_child.py``).  A traced run (``--trace 1``) starts one process that
alternates blocks of untraced ops with blocks of ops run with every layer
wrapped, and reports the per-layer metrics.  The last line of standard
output is one JSON object.  See ``layers.json`` for why each workload and
metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-large", "cold-mix", "warm-resolve", "queue-drain")
#: Fresh processes per timed run; each runs its share of the workload's ops.
CHILDREN = 2
CHILD_TIMEOUT_S = 170.0
#: Scratch space of the benchmark processes (queue databases), inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")


def run_child(config: Dict, deadline: float) -> Dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Fixed string hashing, so set and dict orders cannot differ between runs.
    env["PYTHONHASHSEED"] = "0"
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "perf_child.py"), json.dumps(config)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"benchmark process for {config['workload']} exited {completed.returncode}")
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


def _config(args, index: int, seconds: float, shares: int, traced: bool) -> Dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "process": index,
        "shares": shares,
        "traced": traced,
        "workdir": os.path.join(WORK_ROOT, f"{os.getpid()}-{index}"),
    }


def timed_run(args, deadline: float) -> Dict:
    results = [
        run_child(_config(args, i, args.seconds / CHILDREN, CHILDREN, False), deadline)
        for i in range(CHILDREN)
    ]
    latencies = [x for r in results for x in r["latencies"]]
    attempted = len(latencies)
    failed = sum(r["failed"] for r in results)
    missed = sum(r["missed"] for r in results)
    problems = [r["check"] for r in results if r["check"]]
    totals = [sum(r["query_totals"][k] for r in results) for k in range(3)]
    query_ops = sum(r["query_ops"] for r in results)
    metrics = {
        "solve_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "solve_ms_p90": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3, "ms"),
        "solves_per_s": (attempted / sum(r["wall"] for r in results), "1/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        "quantum_queries_per_solve": (totals[0] / query_ops, "count"),
        "classical_queries_per_solve": (totals[1] / query_ops, "count"),
        "group_mults_per_solve": (totals[2] / query_ops, "count"),
    }
    print(
        f"{args.workload} seed={args.seed}: {attempted} ops in {CHILDREN} processes, "
        f"fail_ratio={failed / attempted:.6f}, retried_misses={missed}, query totals over "
        f"the seed's first {query_ops} ops (quantum, classical, group mults)={totals}"
    )
    return {"problems": problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(args, deadline: float) -> Dict:
    from perf_layers import PER_LAYER_METRICS, metric_unit

    result = run_child(_config(args, 0, float(args.seconds), 2, True), deadline)
    attempted = result["attempted"]
    problems = [result["check"]] if result["check"] else []
    print(
        f"{args.workload} seed={args.seed}: traced op total {result['traced_op_ms']:.3f} ms, "
        f"fail_ratio={result['failed'] / attempted:.6f}, retried_misses={result['missed']}"
    )
    metrics = {name: (result["metrics"][name], metric_unit(name)) for name in PER_LAYER_METRICS}
    return {"problems": problems, "attempted": attempted, "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no library sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        outcome = (traced_run if args.trace else timed_run)(args, deadline)
    finally:
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it, or it was never made
    for problem in outcome["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not outcome["problems"] and outcome["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
