"""Dense-id path vs scalar path parity across every registry family.

The dense-id refactor makes int64 ids the currency from the hiding oracle
down to the linear algebra, but the accounting contract is that the route
must be invisible: at a fixed seed, the dense path and the engine-less
path (``no_engine``: the per-element fallback of groups too large for an
engine) must return the same generators, the same strategy, the same query
report, and — through the experiment runner — byte-identical journal rows.
These tests pin that contract for every family in the instance registry,
and a counting test double asserts the stronger structural claim behind
the BENCH_scaling speedups: batch-protocol groups never see a scalar
``multiply`` call inside a kernel-mode engine build, its batch products or
the Fourier-sampling label loops.
"""

from contextlib import nullcontext

import numpy as np
import pytest

import repro.experiments.runner as runner_module
from conftest import no_engine
from repro.blackbox.instances import HSPInstance
from repro.blackbox.oracle import BlackBoxGroup
from repro.core.solver import solve_hsp
from repro.experiments.registry import build_instance, families
from repro.experiments.results import rows_bytes
from repro.experiments.runner import run_sweep
from repro.experiments.specs import DEFAULT_SEED, SweepSpec, derive_seed
from repro.groups.catalog import elementary_abelian_semidirect_instance
from repro.groups.engine import CayleyBackend, get_engine
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


def _base_group(group):
    return group.group if isinstance(group, BlackBoxGroup) else group


def _solve(family, params, route=nullcontext):
    """One cold solve inside ``route``; ``no_engine`` forces the scalar paths."""
    with route():
        instance = build_instance(family, dict(params), np.random.default_rng(derive_seed(SEED, 0)))
        sampler = FourierSampler(backend="auto", rng=np.random.default_rng(SEED))
        solution = solve_hsp(instance, sampler=sampler)
        assert instance.verify(solution.generators or [instance.group.identity()])
    if route is no_engine:
        assert getattr(_base_group(instance.group), "_cayley_engine", None) is None
    return solution, instance.query_report()


@pytest.fixture
def built_modes(monkeypatch):
    """The modes of the engines built during a test, in build order."""
    built = []
    original = CayleyBackend.__init__

    def recording_init(engine, *args, **kwargs):
        original(engine, *args, **kwargs)
        built.append(engine.mode)

    monkeypatch.setattr(CayleyBackend, "__init__", recording_init)
    return built


def _assert_route_matches_scalar(family, params, route=nullcontext):
    dense_solution, dense_report = _solve(family, params, route)
    scalar_solution, scalar_report = _solve(family, params, no_engine)
    assert dense_solution.strategy == scalar_solution.strategy
    assert dense_solution.generators == scalar_solution.generators
    assert dense_report == scalar_report


@pytest.mark.parametrize("family,params", FAMILY_POINTS, ids=[f for f, _ in FAMILY_POINTS])
def test_kernel_mode_path_matches_scalar_path(family, params, built_modes):
    """The default route: every engine built is id-native kernel mode."""
    _assert_route_matches_scalar(family, params)
    assert set(built_modes) <= {"kernel"}


def _theorem13_general_solve(k, top, seed, route):
    """A Theorem 13 solve on ``Z_2^k : top`` (non-cyclic factor group) inside ``route``."""
    with route():
        group, normal_gens = elementary_abelian_semidirect_instance(k, top)
        rng = np.random.default_rng(seed)
        promises = {"normal_generators": normal_gens, "cyclic_quotient": False, "quotient_bound": 24}
        instance = HSPInstance.from_subgroup(group, [group.random_element(rng)], promises=promises)
        solution = solve_hsp(instance, sampler=FourierSampler(rng=rng))
        assert instance.verify(solution.generators or [group.identity()])
    return solution.strategy, solution.generators, instance.query_report()


@pytest.mark.parametrize("k,top", [(4, "S3"), (4, "V4"), (5, "S3"), (6, "V4")])
@pytest.mark.parametrize("seed", [SEED, SEED + 1])
def test_elementary_abelian_semidirect_kernel_route_matches_scalar(k, top, seed, built_modes):
    """The groups that gained a vectorized action now solve in kernel mode, unchanged."""
    dense = _theorem13_general_solve(k, top, seed, nullcontext)
    assert built_modes == ["kernel"]
    assert dense == _theorem13_general_solve(k, top, seed, no_engine)
    assert dense[0] == "elementary_abelian_two"


def test_journal_rows_identical_across_engine_configurations(monkeypatch):
    """The runner's journal rows must not depend on the execution route."""
    spec = SweepSpec.from_grid("dense-parity", "dihedral_rotation", {"n": [8, 12]}, repeats=2)
    _, default = run_sweep(spec, out_dir=None)
    built = []

    def recording_build(*args):
        instance = build_instance(*args)
        built.append(_base_group(instance.group))
        return instance

    monkeypatch.setattr(runner_module, "build_instance", recording_build)
    with no_engine():
        _, scalar = run_sweep(spec, out_dir=None)
    assert len(built) == 4
    assert all(getattr(group, "_cayley_engine", None) is None for group in built)
    assert rows_bytes(default) == rows_bytes(scalar)


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


def test_kernel_mode_uses_no_scalar_multiplies():
    group = dihedral_semidirect(16)
    with _ScalarMultiplyProbe(group) as probe:
        engine = get_engine(group)
        assert engine.mode == "kernel", "dihedral must expose a dense kernel"
        ids = np.arange(group.order(), dtype=np.int64)
        engine.mul_many(np.repeat(ids, ids.size), np.tile(ids, ids.size))
        engine.inv_many(ids)
        engine.subgroup_ids(ids[1:3])
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
