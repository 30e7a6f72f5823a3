"""The benchmark's workloads: seeded op plans and one closed-loop client each.

An op is one verified solve: build (or attach) the instance, ``solve_hsp``,
then ``HSPInstance.verify``.  Each workload's plan is a pure function of the
workload seed and the op index, so every run of a seed executes the same
ops in the same order (each of its processes takes its own index range); the
solver only ever sees the generated instances.  Library entry points are called through their modules
(``registry.build_instance``) so a traced run's wrappers see every call.

Only the default code path runs here: no ``kernel_disabled``,
``engine_disabled``, ``table_limit``, ``use_engine=False`` or
``batch=False``.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.core.solver as solver
import repro.experiments.distributed as distributed
import repro.experiments.registry as registry
import repro.experiments.runner as runner
from repro.blackbox.instances import HSPInstance
from repro.experiments.results import rows_bytes
from repro.experiments.specs import SweepSpec
from repro.experiments.transports import SqliteTransport
from repro.groups.extraspecial import extraspecial_group
from repro.groups.products import dihedral_semidirect
from repro.quantum.sampling import FourierSampler

QUERY_KEYS = ("quantum_queries", "classical_queries", "group_multiplications")

#: Op seed (queue cycle index) of the discarded warm-up work; measured ops
#: start at index 0 in the first process and at multiples of
#: ``PROCESS_STRIDE`` in the others.
WARMUP_INDEX = 999_999_999
PROCESS_STRIDE = 1_000_000


@dataclass
class OpRecord:
    """One op's latency, verdict and query counts (in :data:`QUERY_KEYS` order).

    ``missed`` marks an op whose first answer failed verification and whose
    retry on fresh randomness passed.
    """

    latency: float
    ok: bool
    queries: Tuple[int, int, int]
    missed: bool = False


def _queries(report: Dict[str, int]) -> Tuple[int, int, int]:
    return tuple(int(report.get(key, 0)) for key in QUERY_KEYS)


def _solve_and_verify(instance: HSPInstance, rng: np.random.Generator) -> bool:
    solution = solver.solve_hsp(instance, sampler=FourierSampler(rng=rng))
    if solution.status != "ok":
        return False
    return instance.verify(solution.generators or [instance.group.identity()])


class Workload:
    """A closed loop of units; a unit is one op, or one queue cycle of many."""

    name = ""
    #: Ops a timed run completes at least, summed over its processes; the
    #: query metrics are means over exactly these ops.
    min_ops = 100

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir

    def setup(self) -> None:
        """Everything before the measured phase, ending in discarded warm-up work."""
        raise NotImplementedError

    def run_unit(self, index: int) -> List[OpRecord]:
        raise NotImplementedError

    def check(self) -> Optional[str]:
        """A correctness failure found outside the per-op verdicts, or ``None``."""
        return None


class _PlannedSolves(Workload):
    """Ops cycle through ``CHOICES`` in a seeded order, one permutation per round."""

    CHOICES: Sequence = ()
    SALT = 0

    def plan(self, index: int):
        """``(choice, op_seed)`` of op ``index``: deterministic in the seed."""
        k = len(self.CHOICES)
        rnd, slot = divmod(int(index), k)
        order = np.random.default_rng([self.seed, self.SALT, 0, rnd]).permutation(k)
        op_seed = int(np.random.SeedSequence([self.seed, self.SALT, 1, index]).generate_state(1)[0])
        return self.CHOICES[int(order[slot])], op_seed

    def setup(self) -> None:
        # One discarded op per choice: set-up does the same work for every seed.
        for choice in self.CHOICES:
            self.run_op(choice, WARMUP_INDEX)

    def run_unit(self, index: int) -> List[OpRecord]:
        return [self.run_op(*self.plan(index))]

    def run_op(self, choice, op_seed: int) -> OpRecord:
        rng = np.random.default_rng(op_seed)
        clock = time.perf_counter
        start = clock()
        instance = None
        missed = False
        try:
            instance = self.build(choice, rng)
            ok = _solve_and_verify(instance, rng)
            if not ok:
                # The solvers are bounded-error: with probability about
                # 2^-16 an answer is wrong (seen once in 10^4 dihedral ops).
                # Retry once on the same instance with fresh randomness, as a
                # caller amplifying success would; a second miss is a failure.
                missed = True
                ok = _solve_and_verify(instance, np.random.default_rng([op_seed, 1]))
        except Exception:
            # A raising op is a failed op: report it and keep the loop going.
            traceback.print_exc(file=sys.stderr)
            ok = False
        latency = clock() - start
        report = instance.query_report() if instance is not None else {}
        return OpRecord(latency, ok, _queries(report), missed)

    def build(self, choice, rng: np.random.Generator) -> HSPInstance:
        family, params = choice
        return registry.build_instance(family, params, rng)


class ColdLarge(_PlannedSolves):
    """Fresh kernel-mode instances: engine build and batch engine work dominate."""

    name = "cold-large"
    SALT = 1
    CHOICES = (
        ("dihedral_rotation", {"n": 8192}),
        ("extraspecial_random", {"p": 29}),
        ("metacyclic_core", {"pq": [1999, 3]}),
    )


class ColdMix(_PlannedSolves):
    """Small fresh instances of all eight solver families (table mode or lattice)."""

    name = "cold-mix"
    SALT = 2
    CHOICES = (
        ("abelian_random", {"moduli": [16, 9, 5]}),
        ("dihedral_rotation", {"n": 128}),
        ("metacyclic_core", {"pq": [127, 7]}),
        ("symmetric_alternating", {"n": 5}),
        ("extraspecial_center", {"p": 7}),
        ("extraspecial_random", {"p": 7}),
        ("dihedral_bounded_quotient", {"d": 5}),
        ("wreath_random", {"k": 3}),
    )
    min_ops = 400


class WarmResolve(_PlannedSolves):
    """New hidden subgroups on three groups whose engines set-up already built."""

    name = "warm-resolve"
    SALT = 3
    CHOICES = (("dihedral", 2048), ("extraspecial", 13), ("dihedral", 8192))
    DIHEDRAL_STEPS = (1, 2, 4, 8)
    min_ops = 800

    def setup(self) -> None:
        self.groups = {
            ("dihedral", 2048): dihedral_semidirect(2048),
            ("extraspecial", 13): extraspecial_group(13),
            ("dihedral", 8192): dihedral_semidirect(8192),
        }
        self.commutator = self.groups[("extraspecial", 13)].commutator_subgroup_elements()
        # The warm-up ops build the groups' engines (table, table, kernel).
        super().setup()

    def build(self, choice, rng: np.random.Generator) -> HSPInstance:
        group = self.groups[choice]
        if choice[0] == "dihedral":
            step = self.DIHEDRAL_STEPS[int(rng.integers(len(self.DIHEDRAL_STEPS)))]
            return HSPInstance.from_subgroup(
                group,
                [group.embed_normal((step,))],
                promises={"hidden_is_normal": True, "quotient_bound": 8 * step},
            )
        return HSPInstance.from_subgroup(
            group,
            [group.uniform_random_element(rng)],
            promises={"commutator_elements": self.commutator},
        )


class _StampedSqlite(SqliteTransport):
    """A SQLite queue that stamps the clock after each lease release."""

    def __init__(self, path: str):
        super().__init__(path)
        self.stamps: List[float] = []

    def release(self, claim) -> None:
        super().release(claim)
        self.stamps.append(time.perf_counter())


class QueueDrain(Workload):
    """Enqueue a small sweep, drain it with one in-process worker, collect it."""

    name = "queue-drain"
    # Steps 1 and 2 only: a larger step leaves a non-Abelian quotient that
    # needs a quotient bound, which this family does not promise.
    GRID = {"n": [32, 64, 96, 128], "step": [1, 2]}
    REPEATS = 6
    min_ops = 400

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        sweep_seed = int(np.random.SeedSequence([self.seed, 4]).generate_state(1)[0])
        self.spec = SweepSpec.from_grid(
            "perfbench-queue", "dihedral_rotation", self.GRID, repeats=self.REPEATS, seed=sweep_seed
        )
        self.mismatch: Optional[str] = None

    def setup(self) -> None:
        _, payload = runner.run_sweep(self.spec, out_dir=None)
        self.reference = rows_bytes(payload)
        self.run_unit(WARMUP_INDEX)

    def run_unit(self, index: int) -> List[OpRecord]:
        cycle_dir = os.path.join(self.workdir, f"cycle-{index}")
        os.makedirs(cycle_dir)
        transport = _StampedSqlite(os.path.join(cycle_dir, "QUEUE_perfbench.sqlite"))
        try:
            distributed.enqueue_sweep(self.spec, transport)
            start = time.perf_counter()
            distributed.work_queue(transport, worker_id="perfbench", poll=0.05)
            _, payload = distributed.collect_queue(transport, out_dir=cycle_dir)
        finally:
            transport.close()
            shutil.rmtree(cycle_dir)
        if rows_bytes(payload) != self.reference and self.mismatch is None:
            self.mismatch = f"cycle {index}: collected rows differ from the inline run_sweep rows"
        stamps = [start] + transport.stamps
        return [
            OpRecord(
                stamps[i + 1] - stamps[i],
                row["status"] == "ok" and bool(row["success"]),
                _queries(row["query_report"]),
            )
            for i, row in enumerate(payload["rows"])
        ]

    def check(self) -> Optional[str]:
        return self.mismatch


WORKLOADS = {cls.name: cls for cls in (ColdLarge, ColdMix, WarmResolve, QueueDrain)}
