"""Property-based tests for the vectorized dense-id group engine.

Three families of invariants:

* **interning is a bijection** — ids round-trip through ``element_of`` and
  distinct elements receive distinct ids;
* **engine arithmetic agrees with scalar group arithmetic** — ``mul_many``,
  ``inv_many``, ``conj_many``, ``power``, ``element_order``, subgroup and
  commutator closures all reproduce the per-element ``FiniteGroup`` results;
* **batch oracle accounting** — the bulk APIs on ``BlackBoxGroup`` and
  ``HidingOracle`` report exactly the totals of the equivalent scalar loops.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import no_engine
from repro.blackbox.instances import HSPInstance
from repro.blackbox.oracle import BlackBoxGroup, HidingOracle, QueryCounter
from repro.experiments.registry import build_instance, families
from repro.groups.abelian import AbelianTupleGroup, cyclic_group
from repro.groups.base import FiniteGroup, GroupError
from repro.groups.catalog import elementary_abelian_semidirect_instance
from repro.groups.engine import CayleyBackend, get_engine, maybe_engine
from repro.groups.extraspecial import extraspecial_group
from repro.groups.products import DirectProduct, dihedral_semidirect
from repro.groups.subgroup import generate_subgroup_elements
from repro.groups.perm import PermutationGroup, symmetric_group

settings.register_profile(
    "repro_engine", deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro_engine")


def heisenberg_elements(p=3, n=1):
    coord = st.integers(min_value=0, max_value=p - 1)
    vec = st.tuples(*([coord] * n))
    return st.tuples(vec, vec, coord)


def _family_group(family, params):
    """The group of a registry family's instance (its hidden subgroup is irrelevant)."""
    return build_instance(family, params, np.random.default_rng(0)).group.group


_PRIMES = (3, 5, 7, 11, 13)

#: Per registry family, a strategy drawing the parameters of a small instance.
FAMILY_PARAMS = {
    "abelian_random": st.lists(st.integers(2, 12), min_size=1, max_size=3).map(
        lambda moduli: {"moduli": moduli}
    ),
    "diagnostic_fault": st.integers(3, 40).map(lambda n: {"n": n}),
    "dihedral_bounded_quotient": st.integers(1, 6).map(lambda d: {"d": d}),
    "dihedral_rotation": st.integers(3, 64).map(lambda n: {"n": n}),
    "extraspecial_center": st.sampled_from(_PRIMES[:3]).map(lambda p: {"p": p}),
    "extraspecial_random": st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2)]).map(
        lambda pr: {"p": pr[0], "rank": pr[1]}
    ),
    "metacyclic_core": st.sampled_from(
        [(p, q) for p in _PRIMES for q in range(2, p) if (p - 1) % q == 0]
    ).map(lambda pq: {"pq": pq}),
    "symmetric_alternating": st.integers(3, 5).map(lambda n: {"n": n}),
    "wreath_random": st.integers(1, 3).map(lambda k: {"k": k}),
}

#: Closure cases: every registry family with drawn parameters, plus a
#: direct product, a permutation group of degree 20 and the S_3 semidirect
#: (a product with a stabiliser-chain factor).
CLOSURE_GROUPS = {
    **{
        family: params.map(functools.partial(_family_group, family))
        for family, params in FAMILY_PARAMS.items()
    },
    "Z_6 x D_5": st.builds(lambda: DirectProduct([cyclic_group(6), dihedral_semidirect(5)])),
    "C_20 (degree 20)": st.builds(lambda: PermutationGroup([tuple((i + 1) % 20 for i in range(20))])),
    "Z_2^3 : S_3": st.builds(lambda: elementary_abelian_semidirect_instance(3, "S3")[0]),
}


def _closure_case(source, data):
    group = data.draw(CLOSURE_GROUPS[source])
    return group, CayleyBackend(group)


def _draw_ids(engine, data, max_size):
    ids = st.integers(min_value=0, max_value=engine.interned_count - 1)
    return np.asarray(data.draw(st.lists(ids, min_size=1, max_size=max_size)), dtype=np.int64)


def _bfs_ids(engine, group, gen_ids):
    """Sorted ids of the scalar BFS closure of ``gen_ids``."""
    return np.sort(engine.intern_many(generate_subgroup_elements(group, engine.elements_of(gen_ids))))


def test_closure_cases_cover_the_registry():
    assert set(FAMILY_PARAMS) == set(families())


class TestInterning:
    @given(st.lists(heisenberg_elements(), min_size=1, max_size=24))
    def test_interning_round_trips(self, elements):
        engine = CayleyBackend(extraspecial_group(3))
        ids = engine.intern_many(elements)
        assert engine.elements_of(ids) == elements

    @given(st.lists(heisenberg_elements(), min_size=2, max_size=24))
    def test_interning_is_injective(self, elements):
        engine = CayleyBackend(extraspecial_group(3))
        ids = [engine.intern(e) for e in elements]
        for a, id_a in zip(elements, ids):
            for b, id_b in zip(elements, ids):
                assert (id_a == id_b) == (a == b)

    def test_kernel_mode_interns_whole_group(self):
        engine = CayleyBackend(extraspecial_group(3))
        assert engine.mode == "kernel"
        assert engine.interned_count == 27

    def test_kernel_mode_rejects_foreign_elements(self):
        engine = CayleyBackend(extraspecial_group(3))
        with pytest.raises(GroupError):
            engine.intern(((5,), (0,), 0))  # coordinates outside Z_3


class TestArithmeticAgreement:
    @given(data=st.data())
    def test_mul_many_agrees_with_scalar_op(self, data):
        group = extraspecial_group(3)
        engine = CayleyBackend(group)
        pairs = data.draw(
            st.lists(st.tuples(heisenberg_elements(), heisenberg_elements()), min_size=1, max_size=16)
        )
        elements_a = [a for a, _ in pairs]
        elements_b = [b for _, b in pairs]
        got = engine.multiply_elements(elements_a, elements_b)
        assert got == [group.multiply(a, b) for a, b in zip(elements_a, elements_b)]

    @given(elements=st.lists(heisenberg_elements(), min_size=1, max_size=16))
    def test_inv_many_agrees_with_scalar_inverse(self, elements):
        group = extraspecial_group(3)
        engine = CayleyBackend(group)
        assert engine.inverse_elements(elements) == [group.inverse(a) for a in elements]

    @given(data=st.data())
    def test_conj_many_agrees_with_scalar_conjugate(self, data):
        group = extraspecial_group(3)
        engine = CayleyBackend(group)
        pairs = data.draw(
            st.lists(st.tuples(heisenberg_elements(), heisenberg_elements()), min_size=1, max_size=16)
        )
        ids_g = engine.intern_many([g for g, _ in pairs])
        ids_h = engine.intern_many([h for _, h in pairs])
        got = engine.elements_of(engine.conj_many(ids_g, ids_h))
        assert got == [group.conjugate(g, h) for g, h in pairs]

    @given(element=heisenberg_elements(), exponent=st.integers(min_value=-12, max_value=12))
    def test_power_and_order_agree(self, element, exponent):
        group = extraspecial_group(3)
        engine = CayleyBackend(group)
        assert engine.element_of(engine.power(engine.intern(element), exponent)) == group.power(
            element, exponent
        )
        scalar_group = extraspecial_group(3)  # no engine installed: scalar path
        assert engine.element_order(engine.intern(element)) == FiniteGroup.element_order(
            scalar_group, element
        )

    @given(generators=st.lists(heisenberg_elements(), min_size=1, max_size=3))
    def test_subgroup_closure_agrees_with_bfs(self, generators):
        group = extraspecial_group(3)
        engine = CayleyBackend(group)
        got = set(engine.elements_of(engine.subgroup_ids(engine.intern_many(generators))))
        assert got == set(generate_subgroup_elements(group, generators))

    @pytest.mark.parametrize("source", sorted(CLOSURE_GROUPS))
    @given(data=st.data())
    def test_subgroup_closure_agrees_with_bfs_on_every_engine_family(self, source, data):
        """Every registry family and product shape; up to 40 generators, memoized or not."""
        group, engine = _closure_case(source, data)
        gen_ids = _draw_ids(engine, data, max_size=40)
        got = engine.subgroup_ids(gen_ids, memoize=data.draw(st.booleans()))
        assert np.array_equal(got, _bfs_ids(engine, group, gen_ids))

    @pytest.mark.parametrize("source", sorted(CLOSURE_GROUPS))
    @given(data=st.data())
    def test_closure_seeded_with_a_member_set(self, source, data):
        """``subgroup_ids(append(H, g))``, the normal closure's incremental re-closure."""
        group, engine = _closure_case(source, data)
        gen_ids = _draw_ids(engine, data, max_size=4)
        extra = _draw_ids(engine, data, max_size=1)
        members = engine.subgroup_ids(gen_ids)
        got = engine.subgroup_ids(np.append(members, extra), memoize=False)
        assert np.array_equal(got, _bfs_ids(engine, group, np.append(gen_ids, extra)))

    @pytest.mark.parametrize("source", sorted(CLOSURE_GROUPS))
    @given(data=st.data())
    def test_limit_raises_exactly_past_the_closure_order(self, source, data):
        """``limit`` raises iff ``|H| > limit``, on a fresh closure and from the memo."""
        group, engine = _closure_case(source, data)
        gen_ids = _draw_ids(engine, data, max_size=4)
        order = _bfs_ids(engine, group, gen_ids).size
        assume(order > 1)
        assert engine.subgroup_ids(gen_ids, limit=order, memoize=False).size == order
        with pytest.raises(GroupError):
            engine.subgroup_ids(gen_ids, limit=order - 1, memoize=False)
        with pytest.raises(GroupError):
            engine.subgroup_ids(gen_ids, limit=order - 1)
        engine.subgroup_ids(gen_ids)  # memoized now
        assert engine.subgroup_ids(gen_ids, limit=order).size == order
        with pytest.raises(GroupError):
            engine.subgroup_ids(gen_ids, limit=order - 1)

    @pytest.mark.parametrize("source", sorted(CLOSURE_GROUPS))
    @given(data=st.data())
    def test_cyclic_ids_are_the_powers_up_to_the_order_or_the_cap(self, source, data):
        """One batched chain walk: ``g^1 .. g^(min(ord g, cap) - 1)`` per id."""
        group, engine = _closure_case(source, data)
        ids = _draw_ids(engine, data, max_size=6)
        caps = data.draw(st.lists(st.integers(1, 40), min_size=ids.size, max_size=ids.size))
        for capped in (None, caps):
            chains = engine.cyclic_ids(ids, capped)
            for i, (g, chain) in enumerate(zip(ids.tolist(), chains)):
                order = FiniteGroup.element_order(group, engine.element_of(g))
                length = order - 1 if capped is None else min(order, capped[i]) - 1
                assert chain.tolist() == [engine.power(g, j) for j in range(1, length + 1)]

    def test_element_order_without_an_exponent_bound_walks_the_chain(self):
        group = DirectProduct([cyclic_group(6), dihedral_semidirect(5)])
        engine = CayleyBackend(group)
        group.exponent_bound = lambda: None
        reference = DirectProduct([cyclic_group(6), dihedral_semidirect(5)])
        for g in range(engine.interned_count):
            assert engine.element_order(g) == FiniteGroup.element_order(reference, engine.element_of(g))

    @pytest.mark.parametrize(
        "group_factory",
        [lambda: extraspecial_group(3), lambda: dihedral_semidirect(9), lambda: symmetric_group(4)],
    )
    def test_structure_queries_agree(self, group_factory):
        group = group_factory()
        engine = CayleyBackend(group)
        assert engine.is_abelian() == group.is_abelian()
        from repro.groups.subgroup import commutator_subgroup_generators

        want = set(generate_subgroup_elements(group, commutator_subgroup_generators(group)))
        assert set(engine.commutator_subgroup_elements()) == want

    @pytest.mark.parametrize("memoized", [False, True], ids=["fresh", "memoized"])
    def test_commutator_limit_raises_past_the_order(self, memoized):
        """``limit`` raises iff ``|G'| > limit``, on a fresh engine and from the memo."""
        engine = CayleyBackend(extraspecial_group(5))
        if memoized:
            assert engine.commutator_subgroup_ids().size == 5
        with pytest.raises(GroupError):
            engine.commutator_subgroup_ids(limit=3)
        with pytest.raises(GroupError):
            engine.commutator_subgroup_elements(limit=4)
        assert engine.commutator_subgroup_ids(limit=5).size == 5
        with pytest.raises(GroupError):
            engine.commutator_subgroup_ids(limit=4)

    def test_engine_batch_ops_agree_with_the_engine_less_group(self):
        """The group's batch methods give the same answers with and without an engine."""
        group = extraspecial_group(3)
        get_engine(group)
        with no_engine():
            scalar = extraspecial_group(3)
            assert maybe_engine(scalar) is None
        elements = group.element_list()[:9]
        lefts = [a for a in elements for _ in elements]
        rights = elements * len(elements)
        assert group.multiply_many(lefts, rights) == scalar.multiply_many(lefts, rights)
        assert group.inverse_many(elements) == scalar.inverse_many(elements)

    def test_coset_label_constant_exactly_on_left_cosets(self):
        group = extraspecial_group(3)
        engine = CayleyBackend(group)
        hidden = [((1,), (0,), 0)]
        subgroup_ids = engine.subgroup_ids(engine.intern_many(hidden))
        subgroup = set(engine.elements_of(subgroup_ids))
        labels = {}
        elements = group.element_list()
        for x, label in zip(elements, engine.coset_label_many(engine.intern_many(elements), subgroup_ids)):
            labels.setdefault(int(label), []).append(x)
        assert len(labels) == group.order() // len(subgroup)
        for members in labels.values():
            base = members[0]
            coset = {group.multiply(base, h) for h in subgroup}
            assert set(members) == coset


class TestEngineInstallation:
    def test_maybe_engine_unwraps_black_box(self):
        group = extraspecial_group(3)
        wrapped = BlackBoxGroup(group)
        engine = maybe_engine(wrapped)
        assert engine is not None and engine.group is group
        assert getattr(group, "_cayley_engine", None) is engine

    def test_maybe_engine_declines_unknown_order(self):
        class OpaqueGroup(FiniteGroup):
            name = "opaque"

            def identity(self):
                return 0

            def multiply(self, a, b):
                return (a + b) % 97

            def inverse(self, a):
                return (-a) % 97

            def generators(self):
                return [1]

        assert maybe_engine(OpaqueGroup()) is None

    def test_get_engine_is_idempotent(self):
        group = extraspecial_group(3)
        assert get_engine(group) is get_engine(group)

    def test_installed_engine_accelerates_default_batch_ops(self):
        group = extraspecial_group(3)
        elements = group.element_list()[:6]
        scalar = [group.multiply(a, b) for a, b in zip(elements, reversed(elements))]
        get_engine(group)
        assert group.multiply_many(elements, list(reversed(elements))) == scalar
        assert group.inverse_many(elements) == [group.inverse(a) for a in elements]


class TestBatchCounterConsistency:
    def test_multiply_many_counts_like_scalar_loop(self):
        group = extraspecial_group(3)
        elements = group.element_list()[:8]
        scalar_box = BlackBoxGroup(extraspecial_group(3), QueryCounter())
        for a, b in zip(elements, reversed(elements)):
            scalar_box.multiply(a, b)
        batch_box = BlackBoxGroup(extraspecial_group(3), QueryCounter())
        batch_box.multiply_many(elements, list(reversed(elements)))
        assert batch_box.counter.snapshot() == scalar_box.counter.snapshot()

    def test_inverse_many_counts_like_scalar_loop(self):
        group = extraspecial_group(3)
        elements = group.element_list()[:8]
        scalar_box = BlackBoxGroup(extraspecial_group(3), QueryCounter())
        for a in elements:
            scalar_box.inverse(a)
        batch_box = BlackBoxGroup(extraspecial_group(3), QueryCounter())
        batch_box.inverse_many(elements)
        assert batch_box.counter.snapshot() == scalar_box.counter.snapshot()

    def test_multiply_many_rejects_length_mismatch(self):
        box = BlackBoxGroup(extraspecial_group(3))
        with pytest.raises(ValueError):
            box.multiply_many([box.identity()], [])

    @given(
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=30),
    )
    def test_evaluate_many_counts_like_scalar_loop(self, queries):
        group = AbelianTupleGroup([8])
        elements = [(q,) for q in queries]

        def label(x):
            return x[0] % 4

        scalar = HidingOracle(label, QueryCounter())
        scalar_values = [scalar(x) for x in elements]
        batch = HidingOracle(label, QueryCounter())
        batch_values = batch.evaluate_many(elements)
        assert batch_values == scalar_values
        assert batch.counter.snapshot() == scalar.counter.snapshot()
        # Distinct uncached elements are counted exactly once each.
        assert batch.counter.classical_queries == len(set(queries))

    def test_quantum_query_bulk_counting(self):
        oracle = HidingOracle(lambda x: 0, QueryCounter())
        oracle.quantum_query()
        oracle.quantum_query(5)
        assert oracle.counter.quantum_queries == 6

    def test_counted_group_totals_match_when_commutator_is_enumerated(self):
        """No promise: G' enumeration on a counted group must count identically."""
        from repro.blackbox.instances import hiding_oracle_from_subgroup
        from repro.core.small_commutator import solve_hsp_small_commutator
        from repro.quantum.sampling import FourierSampler

        def solve():
            base = extraspecial_group(3)
            box = BlackBoxGroup(base, QueryCounter())
            oracle = hiding_oracle_from_subgroup(base, [((1,), (1,), 0)], counter=box.counter)
            result = solve_hsp_small_commutator(
                box,
                oracle,
                sampler=FourierSampler(backend="statevector", rng=np.random.default_rng(20010202)),
            )
            return result.query_report, base

        engine_report, base = solve()
        assert getattr(base, "_cayley_engine", None) is not None
        with no_engine():
            scalar_report, base = solve()
        assert getattr(base, "_cayley_engine", None) is None
        assert engine_report == scalar_report

    def test_analytic_batch_sampling_survives_int64_overflowing_moduli(self):
        """Moduli >= 2^63 must reach the exact big-integer fallback, not crash."""
        from repro.quantum.sampling import FourierSampler, SubgroupStructureOracle

        oracle = SubgroupStructureOracle([1 << 64], [(0,)])
        sampler = FourierSampler(backend="analytic", rng=np.random.default_rng(5))
        samples = sampler.sample(oracle, 4)
        assert len(samples) == 4
        assert all(0 <= s[0] < (1 << 64) for s in samples)
        assert oracle.counter.quantum_queries == 4

    def test_engine_and_scalar_solvers_report_identical_totals(self):
        """End-to-end: Theorem 11 with and without the engine, same queries."""
        from repro.core.small_commutator import solve_hsp_small_commutator
        from repro.quantum.sampling import FourierSampler

        def solve():
            group = extraspecial_group(3)
            instance = HSPInstance.from_subgroup(group, [((1,), (1,), 0)])
            rng = np.random.default_rng(20010202)
            result = solve_hsp_small_commutator(
                group,
                instance.oracle.fresh_view(),
                sampler=FourierSampler(backend="statevector", rng=rng),
                commutator_elements=group.commutator_subgroup_elements(),
            )
            assert instance.verify(result.generators or [group.identity()])
            return result.query_report, group

        engine_report, group = solve()
        assert getattr(group, "_cayley_engine", None) is not None
        with no_engine():
            scalar_report, group = solve()
        assert getattr(group, "_cayley_engine", None) is None
        assert engine_report == scalar_report
