"""The id-native label paths of the Theorem 7/11 reduction.

Three pieces keep the Theorem 11 solver's simulation in engine ids, and each
must be invisible in the results and the query report:

* whole-group coset labels — the engine labels every element by the
  minimum id of its left coset ``x H`` at once: a coset sweep for a cyclic
  ``H`` of index at most 3, pointer doubling for any other ``H``;
* the bulk exponent-map scan — ``hidden_power_product_oracle`` labels a
  batch of exponent tuples with one product per factor and one batched
  evaluation of the hiding function, charging the per-point loop's cost;
* the vectorised coset bundle — Theorem 11's ``F(x) = {f(xc) : c in G'}``
  labels a batch of ``x`` with one counted products block.

These tests check the labels against brute force and each route against the
per-point route it replaces; the engine-less route (``no_engine``) is the
reference for whole solves.
"""

import json
from contextlib import nullcontext

import numpy as np
import pytest

import repro.hsp.oracles as oracles
from conftest import no_engine
from repro.blackbox.instances import HSPInstance, hiding_oracle_from_subgroup, subgroup_coset_label
from repro.blackbox.oracle import BlackBoxGroup, HidingOracle
from repro.core.constructive_membership import constructive_membership
from repro.core.solver import solve_hsp
from repro.experiments.registry import build_instance
from repro.experiments.runner import run_sweep
from repro.experiments.specs import DEFAULT_SEED, SweepSpec, derive_seed
from repro.groups.engine import CayleyBackend, maybe_engine
from repro.groups.perm import alternating_group, symmetric_group
from repro.groups.products import dihedral_semidirect
from repro.groups.subgroup import generate_subgroup_elements
from repro.hsp.oracles import hidden_power_product_oracle
from repro.quantum.sampling import FourierSampler, TupleFunctionOracle

SEED = DEFAULT_SEED

#: Small points of every registry family whose engine enumerates the group.
ENUMERATED_POINTS = [
    ("dihedral_rotation", {"n": 12}),
    ("dihedral_bounded_quotient", {"d": 3}),
    ("metacyclic_core", {"pq": (7, 3)}),
    ("symmetric_alternating", {"n": 4}),
    ("extraspecial_center", {"p": 3}),
    ("extraspecial_random", {"p": 5, "generators": 2}),
    ("wreath_random", {"k": 2}),
    ("diagnostic_fault", {"n": 8, "fail": False}),
]


def _enumerated_instance(family, params, rng):
    """An instance and its group's engine, which holds every element."""
    instance = build_instance(family, dict(params), rng)
    group = instance.group.group
    engine = maybe_engine(group)
    assert engine.mode == "kernel"
    assert engine.interned_count == group.order()
    return instance, group, engine


#: A cyclic subgroup of index 2 or 3 on each family that has one, as
#: ``(case name, step)`` for ``<embed_normal((step,))>``: the coset sweep's
#: index-2 branch (from a generator, and from a non-generator power whose
#: chain is walked) and its index-3 branch with its one product.
SMALL_INDEX_CYCLIC = {
    "dihedral_rotation": ("index-2 <r^5>", 5),
    "dihedral_bounded_quotient": ("index-2 <r>", 1),
    "metacyclic_core": ("index-3 <a>", 1),
    "diagnostic_fault": ("index-2 <r>", 1),
}


def _subgroup_cases(family, group, rng):
    """``(name, generators)`` of the hidden subgroups checked per family."""
    cases = [
        ("trivial", []),
        ("whole", list(group.generators())),
        ("cyclic", [group.uniform_random_element(rng)]),
    ]
    if family == "symmetric_alternating":
        cases.append(("alternating", list(alternating_group(4).generators())))
    else:
        cases.append(("two-generator", [group.uniform_random_element(rng) for _ in range(2)]))
    if family in SMALL_INDEX_CYCLIC:
        name, step = SMALL_INDEX_CYCLIC[family]
        cases.append((name, [group.embed_normal((step,))]))
    return cases


def _brute_force_labels(group, engine, generators):
    """``min(intern(g h) for h in H)`` for every id ``g``, by scalar arithmetic."""
    members = generate_subgroup_elements(group, generators) if generators else [group.identity()]
    return [
        min(engine.intern(group.multiply(g, h)) for h in members)
        for g in engine.elements_of(range(engine.interned_count))
    ]


@pytest.mark.parametrize("family,params", ENUMERATED_POINTS, ids=[f for f, _ in ENUMERATED_POINTS])
def test_whole_group_coset_labels_match_brute_force(family, params):
    _, group, engine = _enumerated_instance(family, params, np.random.default_rng(derive_seed(SEED, 0)))
    rng = np.random.default_rng(SEED)
    for name, generators in _subgroup_cases(family, group, rng):
        expected = _brute_force_labels(group, engine, generators)
        label = subgroup_coset_label(group, generators)
        scalar = [label(g) for g in engine.elements_of(range(engine.interned_count))]
        oracle = hiding_oracle_from_subgroup(group, generators)
        vectorised = oracle.evaluate_ids(np.arange(engine.interned_count, dtype=np.int64))
        assert scalar == expected, name
        assert vectorised.tolist() == expected, name
        assert oracle.counter.classical_queries == engine.interned_count


def _cosets(elements, labels):
    """The partition of ``elements`` into the level sets of ``labels``."""
    blocks = {}
    for x, value in zip(elements, labels):
        blocks.setdefault(value, set()).add(x)
    return sorted(sorted(block) for block in blocks.values())


@pytest.mark.parametrize("family,params", ENUMERATED_POINTS, ids=[f for f, _ in ENUMERATED_POINTS])
def test_engine_less_coset_labels_split_the_same_cosets(family, params):
    """The engine-less labeller (minimum encoding) partitions like the min-id one."""
    _, group, engine = _enumerated_instance(family, params, np.random.default_rng(derive_seed(SEED, 0)))
    elements = engine.elements_of(range(engine.interned_count))
    rng = np.random.default_rng(SEED)
    with no_engine():
        bare = build_instance(family, dict(params), np.random.default_rng(derive_seed(SEED, 0))).group.group
        for name, generators in _subgroup_cases(family, group, rng):
            label = subgroup_coset_label(bare, generators)
            want = _cosets(elements, _brute_force_labels(group, engine, generators))
            assert _cosets(elements, [label(x) for x in elements]) == want, name
    assert getattr(bare, "_cayley_engine", None) is None


def test_alternating_subgroup_has_two_cosets():
    instance, _, engine = _enumerated_instance("symmetric_alternating", {"n": 5}, np.random.default_rng(SEED))
    labels = instance.oracle.evaluate_ids(np.arange(engine.interned_count, dtype=np.int64))
    assert len(set(labels)) == 2
    assert labels[engine.identity_id] == engine.identity_id


# ---------------------------------------------------------------------------
# Bulk exponent-map scan
# ---------------------------------------------------------------------------


@pytest.fixture
def bulk_calls(monkeypatch):
    """Count the bulk labellers built (the bulk route is in use)."""
    calls = []
    original = oracles._bulk_power_product_labeller

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(oracles, "_bulk_power_product_labeller", recording)
    return calls


def _force_per_point(monkeypatch):
    """Offer no bulk labeller, so every scan runs the per-point loop."""
    monkeypatch.setattr(oracles, "_bulk_power_product_labeller", lambda *args: None)


def test_bulk_charge_equals_counted_power_plus_fold():
    group = dihedral_semidirect(512)
    rotation = group.embed_normal((1,))
    instance = HSPInstance.from_subgroup(group, [])
    oracle = hidden_power_product_oracle(instance.group, instance.oracle, [rotation], [512])
    assert oracle._func_many is not None
    reference = BlackBoxGroup(dihedral_semidirect(512))
    counter = instance.group.counter
    for k in range(257):
        before = counter.group_multiplications
        (value,) = oracle._func_many(np.array([[k]], dtype=np.int64))
        charged = counter.group_multiplications - before
        start = reference.counter.group_multiplications
        power = reference.power(rotation, k)
        assert charged == reference.counter.group_multiplications - start + 1, k
        assert value == instance.oracle(power)


def test_bulk_scan_matches_per_point_on_non_commuting_factors(monkeypatch):
    """With trivial ``H`` the label pins the product element, factor order included."""
    results = []
    for bulk in (True, False):
        if not bulk:
            _force_per_point(monkeypatch)
        group = symmetric_group(4)
        swap, cycle = group.generators()
        assert group.multiply(cycle, swap) != group.multiply(swap, cycle)
        instance = HSPInstance.from_subgroup(group, [])
        oracle = hidden_power_product_oracle(instance.group, instance.oracle, [cycle, swap, cycle], [4, 2, 3])
        assert (oracle._func_many is not None) == bulk
        mask = oracle.identity_coset_mask()
        report = instance.query_report()
        labels = [oracle.evaluate(x) for x in oracle.module.elements()]
        assert instance.query_report() == report, "labels after the scan must be cache hits"
        results.append((mask.tolist(), labels, report))
    assert results[0] == results[1]
    assert len(set(results[0][1])) > 1


def _theorem11_solve(p):
    instance = build_instance("extraspecial_random", {"p": p}, np.random.default_rng(derive_seed(SEED, p)))
    solution = solve_hsp(instance, sampler=FourierSampler(rng=np.random.default_rng(SEED)))
    assert instance.verify(solution.generators or [instance.group.identity()])
    return solution.strategy, solution.generators, instance.query_report()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_theorem11_bulk_route_matches_per_point(p, bulk_calls, monkeypatch):
    bulk = _theorem11_solve(p)
    assert bulk_calls, "the bulk exponent-map scan was not used"
    assert bulk[0] == "small_commutator"
    _force_per_point(monkeypatch)
    assert _theorem11_solve(p) == bulk


def _membership_run():
    group = dihedral_semidirect(45)
    instance = HSPInstance.from_subgroup(group, [group.embed_normal((9,))])
    rotation = group.embed_normal((1,))
    sampler = FourierSampler(rng=np.random.default_rng(SEED))
    found = constructive_membership(
        instance.group, [rotation], group.embed_normal((22,)), sampler=sampler,
        counter=instance.counter, hiding=instance.oracle,
    )
    missing = constructive_membership(
        instance.group, [rotation], group.embed_quotient((1,)), sampler=sampler,
        counter=instance.counter, hiding=instance.oracle,
    )
    return found, missing, instance.query_report()


def test_constructive_membership_bulk_route_matches_per_point(bulk_calls, monkeypatch):
    bulk = _membership_run()
    assert bulk_calls, "the bulk exponent-map scan was not used"
    assert bulk[0] is not None and bulk[0][0] % 9 == 22 % 9
    assert bulk[1] is None
    _force_per_point(monkeypatch)
    assert _membership_run() == bulk


def _noisy_rows(noise):
    grid = {"p": [3, 5]}
    if noise is not None:
        grid["noise"] = [noise]
    spec = SweepSpec.from_grid("theorem11-noise", "extraspecial_random", grid, repeats=2)
    _, payload = run_sweep(spec, workers=1, out_dir=None)
    return [
        dict(row, params={k: v for k, v in row["params"].items() if k != "noise"})
        for row in payload["rows"]
    ]


def test_theorem11_zero_noise_rows_identical_to_no_noise():
    plain = _noisy_rows(None)
    assert all(row["strategy"] == "small_commutator" for row in plain)
    assert json.dumps(_noisy_rows("oracle-flip(0)"), sort_keys=True) == json.dumps(plain, sort_keys=True)


def test_theorem11_noisy_rows_match_across_routes(monkeypatch):
    bulk = _noisy_rows("oracle-flip(0.3)")
    _force_per_point(monkeypatch)
    assert json.dumps(_noisy_rows("oracle-flip(0.3)"), sort_keys=True) == json.dumps(bulk, sort_keys=True)


# ---------------------------------------------------------------------------
# Vectorised coset bundle and the foreign-engine branch
# ---------------------------------------------------------------------------


@pytest.fixture
def bundle_attachments(monkeypatch):
    """``(oracle, engine, label_ids)`` of every coset-bundle oracle attached."""
    attached = []
    original = HidingOracle.attach_dense

    def recording(oracle, engine, label_ids=None):
        if oracle.description.startswith("coset bundle"):
            attached.append((oracle, engine, label_ids))
        return original(oracle, engine, label_ids)

    monkeypatch.setattr(HidingOracle, "attach_dense", recording)
    return attached


def _extraspecial_solve(p, build_context, solve_context):
    with build_context():
        rng = np.random.default_rng(derive_seed(SEED, p))
        instance = build_instance("extraspecial_random", {"p": p}, rng)
    with solve_context():
        solution = solve_hsp(instance, sampler=FourierSampler(rng=np.random.default_rng(SEED)))
    assert instance.verify(solution.generators or [instance.group.identity()])
    if solve_context is no_engine:
        assert getattr(instance.group.group, "_cayley_engine", None) is None
    return solution.generators, instance.query_report()


def test_vectorised_coset_bundle_is_attached_on_the_shared_engine(bundle_attachments):
    dense = _extraspecial_solve(5, nullcontext, nullcontext)
    ((bundle, engine, label_ids),) = bundle_attachments
    assert label_ids is not None
    ids = np.arange(engine.interned_count, dtype=np.int64)
    assert label_ids(ids) == [bundle._label(x) for x in engine.elements_of(ids)]
    scalar = _extraspecial_solve(5, no_engine, no_engine)
    assert dense == scalar


def test_foreign_engine_bundle_stays_element_keyed(bundle_attachments):
    """An oracle not keyed on the group's engine takes the element-keyed bundle.

    The instance is built without an engine (so its oracle has no dense
    attachment) and solved with one, the situation of an instance that
    outlives the engine configuration it was built under.
    """
    foreign = _extraspecial_solve(5, no_engine, nullcontext)
    assert bundle_attachments == []
    scalar = _extraspecial_solve(5, no_engine, no_engine)
    assert foreign == scalar


def test_engine_less_solve_matches_default_route():
    baseline = _extraspecial_solve(7, no_engine, no_engine)
    assert baseline == _extraspecial_solve(7, nullcontext, nullcontext)


# ---------------------------------------------------------------------------
# Vectorised labellers must return one label per input
# ---------------------------------------------------------------------------


def test_short_vectorised_labeller_fails_loudly():
    group = dihedral_semidirect(8)
    engine = CayleyBackend(group)
    oracle = HidingOracle(lambda x: 0, description="short f")
    oracle.attach_dense(engine, lambda ids: [0] * (len(ids) - 1))
    with pytest.raises(ValueError, match="short f"):
        oracle.evaluate_ids(np.arange(4, dtype=np.int64))


def test_short_bulk_labeller_fails_loudly():
    oracle = TupleFunctionOracle(
        [4, 4], lambda x: 0, description="short scan", label_many=lambda points: [0] * (len(points) + 1)
    )
    with pytest.raises(ValueError, match="short scan"):
        oracle.identity_coset_mask()
