"""The dense-attached oracle's array cache and the id-mask membership testers.

A dense-attached :class:`HidingOracle` caches labels in an array indexed by
engine id plus a boolean ``seen`` mask, and the engine-backed membership
testers keep a boolean mask of member ids.  Both are sized once by the
engine's interned count, which is the group order.  The engine-backed
closures are checked against the engine-less loop.  The accounting
property pins ``evaluate_ids`` to the scalar loop on a fresh view: same
labels, same query delta, each fresh id labelled once in first-occurrence
order, and nothing labelled on a fully cached call.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import no_engine
from repro.blackbox.instances import _coset_label_parts
from repro.blackbox.noise import OracleFlipChannel
from repro.blackbox.oracle import BlackBoxGroup, HidingOracle, shared_dense_view
from repro.groups.engine import get_engine
from repro.groups.perm import alternating_group, symmetric_group
from repro.groups.products import dihedral_semidirect
from repro.groups.subgroup import make_membership_tester, normal_closure


def _dihedral(n):
    """``D_n`` with a freshly installed engine."""
    group = dihedral_semidirect(n)
    return group, get_engine(group)


# ---------------------------------------------------------------------------
# Masks over engine ids
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("counted", [False, True], ids=["engine", "dense-view"])
def test_mask_tester_decides_membership_by_id(counted):
    group, engine = _dihedral(12)
    tester = make_membership_tester(BlackBoxGroup(group) if counted else group, [group.embed_normal((2,))])
    for element, inside in [
        (group.embed_quotient((1,)), False),
        (group.embed_normal((1,)), False),
        (group.embed_normal((4,)), True),
        (group.multiply(group.embed_normal((3,)), group.embed_quotient((1,))), False),
    ]:
        assert tester(element) is inside
    assert engine.interned_count == group.order()


def test_engine_normal_closure_matches_the_engine_free_loop():
    group, _ = _dihedral(12)
    reflection = group.embed_quotient((1,))
    with no_engine():
        bare = dihedral_semidirect(12)
        scalar = normal_closure(bare, [reflection])
    assert getattr(bare, "_cayley_engine", None) is None
    assert normal_closure(group, [reflection]) == scalar


def test_engine_commutator_subgroup_ids_match_enumeration():
    """In S_4 the generator commutator's conjugates close up to A_4."""
    engine = get_engine(symmetric_group(4))
    derived = engine.commutator_subgroup_elements()
    assert sorted(derived) == sorted(alternating_group(4).element_list())


# ---------------------------------------------------------------------------
# Array cache and dtype
# ---------------------------------------------------------------------------


def test_dense_cache_serves_interleaved_calls_and_id_batches():
    group, engine = _dihedral(20)
    label, _, label_ids = _coset_label_parts(group, [group.embed_normal((5,))])
    oracle = HidingOracle(label)
    oracle.attach_dense(engine, label_ids)
    reference = HidingOracle(label)
    elements = group.element_list()
    order = np.random.default_rng(20010202).permutation(len(elements)).tolist()
    for start in range(0, len(order), 5):
        block = [elements[k] for k in order[start : start + 5]]
        # One scalar query, then a batch over the block (repeated).
        assert oracle(block[0]) == reference(block[0])
        ids = engine.intern_many(block + block[::-1])
        assert oracle.evaluate_ids(ids).tolist() == [reference(x) for x in block + block[::-1]]
        assert oracle.counter.classical_queries == reference.counter.classical_queries
    assert oracle.counter.classical_queries == len(elements)
    assert oracle.evaluate_many(elements) == [reference(x) for x in elements]
    assert oracle.counter.classical_queries == len(elements)


def test_shared_dense_view_requires_the_oracle_keyed_on_the_group_engine():
    group, engine = _dihedral(10)
    label, _, label_ids = _coset_label_parts(group, [group.embed_normal((5,))])
    keyed = HidingOracle(label)
    keyed.attach_dense(engine, label_ids)
    counted = BlackBoxGroup(group)
    dense = shared_dense_view(counted, keyed)
    assert dense is not None and dense.engine is engine and dense.counter is counted.counter
    # An uncounted group, an element-keyed oracle and a foreign engine all decline.
    assert shared_dense_view(group, keyed) is None
    assert shared_dense_view(counted, HidingOracle(label)) is None
    other, other_engine = _dihedral(10)
    foreign = HidingOracle(label)
    foreign.attach_dense(other_engine, label_ids)
    assert shared_dense_view(counted, foreign) is None
    assert shared_dense_view(BlackBoxGroup(other), foreign).engine is other_engine


def test_non_integer_labels_use_an_object_array_and_migrate_on_attach():
    group = dihedral_semidirect(6)
    engine = get_engine(group)
    subgroup = [group.identity(), group.embed_quotient((1,))]
    labelled = []

    def label(x):
        labelled.append(x)
        return ("coset", min(engine.intern(group.multiply(x, h)) for h in subgroup))

    oracle = HidingOracle(label)
    early = group.embed_normal((2,))
    first = oracle(early)
    oracle.attach_dense(engine)
    assert oracle(early) == first
    ids = np.arange(engine.interned_count, dtype=np.int64)
    labels = oracle.evaluate_ids(ids)
    assert labels.dtype == object
    assert labels.tolist() == [label(x) for x in engine.elements_of(ids)]
    # Every element labelled once by the oracle (the migrated one included),
    # then once more by the comparison above.
    assert oracle.counter.classical_queries == engine.interned_count
    assert len(labelled) == 2 * engine.interned_count
    assert oracle.evaluate_many([early]) == [first]


def test_a_non_integer_label_after_integer_ones_widens_the_array():
    group = dihedral_semidirect(6)
    engine = get_engine(group)
    rotations = {group.embed_normal((k,)) for k in range(6)}

    def label(x):
        return 0 if x in rotations else "reflections"

    oracle = HidingOracle(label)
    oracle.attach_dense(engine)
    rotation, reflection = group.embed_normal((1,)), group.embed_quotient((1,))
    assert oracle(rotation) == 0 and oracle(group.identity()) == 0
    assert oracle(reflection) == "reflections"
    ids = np.arange(engine.interned_count, dtype=np.int64)
    assert oracle.evaluate_ids(ids).tolist() == [label(x) for x in engine.elements_of(ids)]
    assert [oracle(rotation), oracle(reflection)] == [0, "reflections"]
    assert oracle.counter.classical_queries == engine.interned_count


def test_integer_labels_come_back_as_python_ints():
    group = dihedral_semidirect(8)
    label, engine, label_ids = _coset_label_parts(group, [group.embed_normal((4,))])
    oracle = HidingOracle(label)
    oracle.attach_dense(engine, label_ids)
    labels = oracle.evaluate_ids(np.arange(engine.interned_count, dtype=np.int64))
    assert labels.dtype == np.int64
    assert all(type(value) is int for value in oracle.evaluate_many(group.element_list()))
    assert type(oracle(group.identity())) is int


# ---------------------------------------------------------------------------
# evaluate_ids accounting property
# ---------------------------------------------------------------------------

LEGS = ("honest", "oracle-flip")


@functools.lru_cache(maxsize=None)
def _leg_group(leg):
    """``D_15`` and its engine (one per leg)."""
    return _dihedral(15)


def _recording_oracle(leg):
    """A dense oracle whose vectorized labeller records every id batch it sees."""
    group, engine = _leg_group(leg)
    label, _, label_ids = _coset_label_parts(group, [group.embed_normal((5,)), group.embed_quotient((1,))])
    calls = []

    def recording(ids):
        calls.append(ids.tolist())
        return label_ids(ids)

    oracle = HidingOracle(label, description=f"recording {leg}")
    oracle.attach_dense(engine, recording)
    if leg == "oracle-flip":
        oracle.apply_noise(OracleFlipChannel(0.4, group, run_seed=5))
    return oracle, engine, calls


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(leg=st.sampled_from(LEGS), data=st.data())
def test_evaluate_ids_matches_the_scalar_loop(leg, data):
    oracle, engine, calls = _recording_oracle(leg)
    index = st.integers(min_value=0, max_value=engine.interned_count - 1)
    precached = data.draw(st.lists(index, max_size=12), label="precached")
    ids = data.draw(st.lists(index, max_size=80), label="ids")

    view = oracle.fresh_view()
    for x in engine.elements_of(precached):
        assert oracle(x) == view(x)
    assert calls == []

    before, view_before = oracle.counter.classical_queries, view.counter.classical_queries
    labels = oracle.evaluate_ids(np.asarray(ids, dtype=np.int64))
    expected = [view(x) for x in engine.elements_of(ids)]
    assert labels.dtype == np.int64
    assert labels.tolist() == expected
    assert oracle.counter.classical_queries - before == view.counter.classical_queries - view_before
    fresh = list(dict.fromkeys(i for i in ids if i not in set(precached)))
    assert calls == ([fresh] if fresh else [])

    calls.clear()
    before = oracle.counter.classical_queries
    assert oracle.evaluate_ids(np.asarray(ids, dtype=np.int64)).tolist() == expected
    assert calls == []
    assert oracle.counter.classical_queries == before
