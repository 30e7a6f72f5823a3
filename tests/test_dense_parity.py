"""Dense-id path vs scalar path parity across every registry family.

The dense-id refactor makes int64 ids the currency from the hiding oracle
down to the linear algebra, but the accounting contract is that the route
must be invisible: at a fixed seed, the dense path and the
:func:`repro.groups.engine.engine_disabled` scalar path must return the
same generators, the same strategy, the same query report, and — through
the experiment runner — byte-identical journal rows.  These tests pin that
contract for every family in the instance registry, and a counting test
double asserts the stronger structural claim behind the BENCH_scaling
speedups: batch-protocol groups never see a scalar ``multiply`` call
inside the Cayley table fills or the Fourier-sampling label loops.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.solver import solve_hsp
from repro.experiments.registry import build_instance, families
from repro.experiments.results import rows_bytes
from repro.experiments.runner import run_sweep
from repro.experiments.specs import DEFAULT_SEED, SweepSpec, derive_seed
from repro.groups.engine import CayleyBackend, engine_disabled, get_engine, maybe_engine
from repro.groups.products import dihedral_semidirect
from repro.quantum.sampling import FourierSampler

SEED = DEFAULT_SEED

#: One cheap grid point per registered family — kept in sync with the
#: registry by ``test_family_points_cover_registry``.
FAMILY_POINTS = [
    ("abelian_random", {"moduli": (8, 9)}),
    ("dihedral_rotation", {"n": 12}),
    ("dihedral_bounded_quotient", {"d": 3}),
    ("metacyclic_core", {"pq": (7, 3)}),
    ("symmetric_alternating", {"n": 4}),
    ("extraspecial_center", {"p": 3}),
    ("extraspecial_random", {"p": 3}),
    ("wreath_random", {"k": 2}),
    ("diagnostic_fault", {"n": 8, "fail": False}),
]


def test_family_points_cover_registry():
    assert {family for family, _ in FAMILY_POINTS} == set(families())


def _solve(family, params, dense):
    """One cold solve; ``dense=False`` forces the scalar per-element paths."""
    context = nullcontext() if dense else engine_disabled()
    with context:
        instance = build_instance(family, dict(params), np.random.default_rng(derive_seed(SEED, 0)))
        # The sampler's batch flag is a declared option that changes how many
        # rounds are drawn; the route comparison holds it fixed so any report
        # difference is an accounting divergence, not a sampler-profile one.
        sampler = FourierSampler(backend="auto", rng=np.random.default_rng(SEED), batch=True)
        solution = solve_hsp(instance, sampler=sampler, use_engine=dense)
        assert instance.verify(solution.generators or [instance.group.identity()])
    return solution, instance.query_report()


@pytest.mark.parametrize("family,params", FAMILY_POINTS, ids=[f for f, _ in FAMILY_POINTS])
def test_dense_path_matches_scalar_path(family, params):
    dense_solution, dense_report = _solve(family, params, dense=True)
    scalar_solution, scalar_report = _solve(family, params, dense=False)
    assert dense_solution.strategy == scalar_solution.strategy
    assert dense_solution.generators == scalar_solution.generators
    assert dense_report == scalar_report


@pytest.fixture
def kernel_mode_engines(monkeypatch):
    """Route every ``maybe_engine`` build to kernel mode.

    Every ``FAMILY_POINTS`` order is under the table limit, so the default
    route builds table-mode engines only; a zero table limit sends groups
    with a dense kernel to the id-native kernel mode instead.  Returns the
    modes of the engines built meanwhile.
    """
    built = []
    original = CayleyBackend.__init__

    def recording_init(engine, *args, **kwargs):
        original(engine, *args, **kwargs)
        built.append(engine.mode)

    monkeypatch.setattr(maybe_engine, "__defaults__", (0, 1 << 16))
    monkeypatch.setattr(CayleyBackend, "__init__", recording_init)
    return built


@pytest.mark.parametrize("family,params", FAMILY_POINTS, ids=[f for f, _ in FAMILY_POINTS])
def test_kernel_mode_path_matches_scalar_path(family, params, kernel_mode_engines):
    kernel_solution, kernel_report = _solve(family, params, dense=True)
    assert set(kernel_mode_engines) <= {"kernel"}
    scalar_solution, scalar_report = _solve(family, params, dense=False)
    assert kernel_solution.strategy == scalar_solution.strategy
    assert kernel_solution.generators == scalar_solution.generators
    assert kernel_report == scalar_report


def test_journal_rows_identical_across_engine_configurations():
    """The runner's journal rows must not depend on the execution route.

    Both sweeps carry the same name on purpose: every deterministic row
    field (sweep, seed, params, generators, query report) must coincide, so
    the two payloads serialize to the same bytes.
    """
    payloads = {}
    for engine in (True, False):
        spec = SweepSpec.from_grid(
            "dense-parity",
            "dihedral_rotation",
            {"n": [8, 12]},
            repeats=2,
            engine=engine,
        )
        _, payloads[engine] = run_sweep(spec, out_dir=None)
    assert rows_bytes(payloads[True]) == rows_bytes(payloads[False])


# ---------------------------------------------------------------------------
# Counting test double: no scalar multiply in the batch hot loops
# ---------------------------------------------------------------------------


class _ScalarMultiplyProbe:
    """Context manager that counts scalar ``multiply`` calls on a group."""

    def __init__(self, group):
        self.group = group
        self.calls = 0

    def __enter__(self):
        original = type(self.group).multiply

        def counting(group_self, a, b):
            self.calls += 1
            return original(group_self, a, b)

        self.group.multiply = counting.__get__(self.group)
        return self

    def __exit__(self, *exc):
        del self.group.multiply
        return False


def test_table_fill_uses_no_scalar_multiplies():
    group = dihedral_semidirect(16)
    engine = get_engine(group)
    assert engine.kernel is not None, "dihedral must expose a dense kernel"
    ids = np.arange(group.order(), dtype=np.int64)
    with _ScalarMultiplyProbe(group) as probe:
        engine.mul_many(np.repeat(ids, ids.size), np.tile(ids, ids.size))
        engine.inv_many(ids)
    assert probe.calls == 0


def test_fourier_label_loop_uses_no_scalar_multiplies():
    instance = build_instance(
        "dihedral_rotation", {"n": 12}, np.random.default_rng(derive_seed(SEED, 0))
    )
    group = instance.group.group
    elements = [group.uniform_random_element(np.random.default_rng(SEED)) for _ in range(64)]
    with _ScalarMultiplyProbe(group) as probe:
        labels = instance.oracle.evaluate_many(elements)
    assert len(labels) == len(elements)
    assert probe.calls == 0
