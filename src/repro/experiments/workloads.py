"""The declared sweeps of the experiment suite.

These are the migrated workloads of ``benchmarks/bench_hidden_normal.py``
(E4) and ``benchmarks/bench_extraspecial.py`` (E6), the scaling axes of
``benchmarks/bench_scaling.py``, plus a fast ``smoke`` sweep for CI.  The
benchmark scripts are thin wrappers over these specs; ``python -m
repro.experiments list`` prints the catalogue and ``run <name>`` executes a
sweep reproducibly from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.specs import RESERVED_GRID_KEYS, SweepSpec

__all__ = [
    "WORKLOADS",
    "ANALYSES",
    "AnalysisDirective",
    "axis_roles",
    "declare",
    "declare_analysis",
    "get_analysis",
    "get_workload",
]

WORKLOADS: Dict[str, SweepSpec] = {}


def declare(spec: SweepSpec) -> SweepSpec:
    if spec.name in WORKLOADS:
        raise ValueError(f"duplicate workload name {spec.name!r}")
    WORKLOADS[spec.name] = spec
    return spec


def get_workload(name: str) -> SweepSpec:
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(f"unknown workload {name!r}; declared workloads: {known}") from None


def axis_roles(grid_keys: Sequence[str]) -> Dict[str, List[str]]:
    """Split grid axes into *statistical* and *structural* roles.

    A statistical axis (the reserved solver keys: ``strategy``,
    ``confidence``, ``noise``) varies how an instance is *solved* — it
    changes the success statistics of runs over the same groups.  A structural axis
    (``n``, ``p``, ``moduli``, ...) changes the *instance itself*.  The
    analysis subsystem groups success-rate cells by the full grid point but
    fits curves along one axis per structural slice, so it needs to know
    which is which.
    """
    statistical = sorted(key for key in grid_keys if key in RESERVED_GRID_KEYS)
    structural = sorted(key for key in grid_keys if key not in RESERVED_GRID_KEYS)
    return {"statistical": statistical, "structural": structural}


@dataclass(frozen=True)
class AnalysisDirective:
    """How ``summarise``/``plot`` should post-process one workload's rows.

    ``kind`` selects the model: ``"saturation"`` fits success probability
    along ``x_axis`` to ``1-(1-p)^r`` per structural slice; ``"crossover"``
    interpolates where the mean query cost (the summed ``cost_keys``) of the
    two ``series_axis`` values intersects along ``x_axis``; ``"table"``
    computes the cell table (rates + Wilson intervals) only.
    """

    workload: str
    kind: str
    x_axis: str
    series_axis: Optional[str] = None
    cost_keys: Tuple[str, ...] = ("quantum_queries", "classical_queries")


ANALYSES: Dict[str, AnalysisDirective] = {}


def declare_analysis(directive: AnalysisDirective) -> AnalysisDirective:
    if directive.workload in ANALYSES:
        raise ValueError(f"duplicate analysis directive for {directive.workload!r}")
    if directive.kind not in ("saturation", "crossover", "table"):
        raise ValueError(f"unknown analysis kind {directive.kind!r}")
    ANALYSES[directive.workload] = directive
    return directive


def get_analysis(name: str) -> Optional[AnalysisDirective]:
    """The declared directive of a workload, or ``None`` (caller falls back
    to a structure-derived default, see ``analysis.directive_for``)."""
    return ANALYSES.get(name)


# -- CI smoke sweep -----------------------------------------------------------

declare(
    SweepSpec.from_grid(
        "smoke",
        "dihedral_rotation",
        {"n": [8, 16]},
        repeats=2,
        description="tiny 2-point hidden-normal sweep; the CI smoke workload",
    )
)

# -- fault-tolerance drill (CI interruption/resume coverage) -----------------

declare(
    SweepSpec.from_grid(
        "fault-smoke",
        "diagnostic_fault",
        {"n": [8], "fail": [False, True]},
        repeats=2,
        description="2 healthy + 2 deterministically failing runs; drives the "
        "error-capture, --max-failures and --resume CI checks",
    )
)

# -- distributed-queue drill (CI enqueue/work/collect coverage) --------------

declare(
    SweepSpec.from_grid(
        "queue-smoke",
        "dihedral_rotation",
        {"n": [8, 12, 16]},
        repeats=2,
        description="6-run sweep sized for the distributed queue drill: "
        "enqueue + N workers + collect must reproduce `run` byte-identically",
    )
)

# -- statistics workloads (success vs rounds, strategy crossover) ------------

declare(
    SweepSpec.from_grid(
        "success-vs-rounds",
        "dihedral_rotation",
        {"n": [16, 64], "confidence": [1, 2, 4, 8, 16]},
        repeats=8,
        description="success probability vs the Fourier-sampling stopping "
        "confidence (rounds) on Theorem 8 instances",
    )
)

declare(
    SweepSpec.from_grid(
        "success-vs-rounds-abelian",
        "abelian_random",
        {"moduli": [(16, 9, 5)], "confidence": [1, 2, 4, 8, 16]},
        repeats=8,
        description="success probability vs stopping confidence on random "
        "Abelian instances (Theorem 3)",
    )
)

declare(
    SweepSpec.from_grid(
        "strategy-crossover",
        "dihedral_rotation",
        {"n": [8, 16, 32, 64, 128], "strategy": ["hidden_normal", "classical"]},
        repeats=4,
        description="query-count crossover of the quantum Theorem 8 path vs "
        "the exhaustive classical baseline as |G| grows",
    )
)

# -- noise workloads (success vs corruption rate) ----------------------------

declare(
    SweepSpec.from_grid(
        "success-vs-noise",
        "dihedral_rotation",
        {
            "n": [16],
            "noise": [
                "oracle-flip(0)",
                "oracle-flip(0.1)",
                "oracle-flip(0.25)",
                "oracle-flip(0.5)",
                "oracle-flip(1)",
            ],
            "strategy": ["hidden_normal", "classical_adaptive"],
        },
        repeats=16,
        description="success probability vs oracle-flip corruption rate on a "
        "Theorem 8 instance; the quantum path against the honest adaptive "
        "classical baseline under the same channel",
    )
)

declare(
    SweepSpec.from_grid(
        "success-vs-noise-abelian",
        "abelian_random",
        {
            "moduli": [(16, 9, 5)],
            "noise": [
                "sample-depolarise(0)",
                "sample-depolarise(0.02)",
                "sample-depolarise(0.05)",
                "sample-depolarise(0.1)",
                "sample-depolarise(0.25)",
            ],
        },
        repeats=8,
        description="success probability vs Fourier-sample depolarisation on "
        "random Abelian instances (Theorem 3)",
    )
)

# How the statistics workloads are post-processed (`summarise`/`plot`): the
# success-vs-rounds sweeps fit the saturation model along the confidence
# axis per group size; strategy-crossover interpolates the query-cost
# intersection of the two strategies along the group-size axis.

declare_analysis(AnalysisDirective("success-vs-rounds", "saturation", x_axis="confidence"))
declare_analysis(AnalysisDirective("success-vs-rounds-abelian", "saturation", x_axis="confidence"))
declare_analysis(
    AnalysisDirective("strategy-crossover", "crossover", x_axis="n", series_axis="strategy")
)
# The noise sweeps tabulate rates + Wilson intervals over the ε axis (the
# analysis layer parses noise-spec strings to their numeric ε); the dihedral
# sweep additionally splits the table by strategy.
declare_analysis(
    AnalysisDirective("success-vs-noise", "table", x_axis="noise", series_axis="strategy")
)
declare_analysis(AnalysisDirective("success-vs-noise-abelian", "table", x_axis="noise"))

# -- E4: hidden normal subgroups (Theorem 8) ---------------------------------

declare(
    SweepSpec.from_grid(
        "hidden-normal-dihedral",
        "dihedral_rotation",
        {"n": [8, 32, 128, 512]},
        description="N = <r> in D_n: Abelian quotient Z_2, scaling in log |G|",
    )
)

declare(
    SweepSpec.from_grid(
        "hidden-normal-metacyclic",
        "metacyclic_core",
        {"pq": [(7, 3), (31, 5), (127, 7)]},
        description="N = Z_p hidden in Z_p : Z_q (solvable, Abelian quotient Z_q)",
    )
)

declare(
    SweepSpec.from_grid(
        "hidden-normal-symmetric",
        "symmetric_alternating",
        {"n": [4, 5, 6]},
        description="permutation groups: N = A_n hidden in S_n",
    )
)

declare(
    SweepSpec.from_grid(
        "hidden-normal-extraspecial-center",
        "extraspecial_center",
        {"p": [3, 5, 7]},
        description="the center of the extraspecial group of order p^3",
    )
)

declare(
    SweepSpec.from_grid(
        "hidden-normal-bounded-quotient",
        "dihedral_bounded_quotient",
        {"d": [3, 5, 7]},
        description="the Schreier path: <r^d> in D_{11d} with dihedral quotient",
    )
)

# -- E6: extraspecial p-groups (Theorem 11 / Corollary 12) -------------------

declare(
    SweepSpec.from_grid(
        "extraspecial-prime",
        "extraspecial_random",
        {"p": [3, 5, 7, 11, 13]},
        description="Corollary 12 sweep: random H, |G'| = p grows",
    )
)

declare(
    SweepSpec.from_grid(
        "extraspecial-two-generators",
        "extraspecial_random",
        {"p": [5], "generators": [2]},
        description="a larger hidden subgroup (two random generators) at p = 5",
    )
)

declare(
    SweepSpec.from_grid(
        "extraspecial-heisenberg",
        "extraspecial_random",
        {"p": [3], "rank": [1, 2, 3]},
        description="H_3(n) of order 3^{2n+1}: p fixed, log |G| grows with rank",
    )
)

# -- Theorem 3 / Theorem 13 coverage -----------------------------------------

declare(
    SweepSpec.from_grid(
        "abelian-random",
        "abelian_random",
        {"moduli": [(8, 9), (16, 9, 5), (32, 27)]},
        repeats=2,
        description="random Abelian HSP instances (Theorem 3)",
    )
)

declare(
    SweepSpec.from_grid(
        "wreath-theorem13",
        "wreath_random",
        {"k": [2, 3]},
        description="Z_2^k wr Z_2 with the Theorem 13 cyclic-quotient path",
    )
)

# -- scaling trajectory (bench_scaling.py, BENCH_scaling.json) ----------------

#: Axes of the dense-kernel scaling benchmark: per family, group sizes from
#: |G| = 155 up to dihedral |G| = 16384 and extraspecial |G| = 24389, an
#: order of magnitude beyond the largest group in any other committed BENCH.
#: ``bench_scaling.py`` times each point cold (fresh group, fresh engine,
#: fresh oracle caches) with the engine and on the engine-less per-element
#: route, and asserts the two query reports are identical per point.
#: The first point of each family doubles as the CI ``scaling-smoke`` subset.
SCALING_AXES: List[Dict[str, object]] = [
    {"label": "dihedral", "family": "dihedral_rotation", "grid": {"n": [512, 2048, 8192]}},
    {"label": "metacyclic", "family": "metacyclic_core", "grid": {"pq": [(31, 5), (127, 7), (1999, 3)]}},
    {"label": "extraspecial", "family": "extraspecial_random", "grid": {"p": [7, 13, 29]}},
]

for _axis in SCALING_AXES:
    declare(
        SweepSpec.from_grid(
            f"scaling-{_axis['label']}",
            str(_axis["family"]),
            dict(_axis["grid"]),  # type: ignore[arg-type]
            repeats=1,
            description=f"scaling trajectory of the {_axis['label']} family "
            "(dense-kernel engine; timed against the engine-less route by bench_scaling.py)",
        )
    )
