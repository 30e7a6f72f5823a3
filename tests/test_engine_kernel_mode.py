"""Kernel-mode engine edges and the one id rule.

A :class:`~repro.groups.engine.CayleyBackend` keeps no element list: it
builds only for a group with a dense kernel, and an element's id is the
rank of its kernel row under the kernel's own bijection
(:meth:`~repro.groups.base.DenseKernel.ids_of`, whose inverse is
:meth:`~repro.groups.base.DenseKernel.row_table`), with the identity at 0.
On the exact box the rank is the row's mixed-radix key over the kernel's
declared ``radices``; a permutation row ranks by sifting through its
group's stabiliser chain, and a product row combines its factors' ranks.
Nothing is enumerated, and elements are encoded or decoded only when a
caller crosses the id/element edge.  A query row outside the radices can
alias a valid key, and a permutation row can lie outside the group; these
tests pin that such rows — and foreign elements generally — raise
:class:`~repro.groups.base.GroupError`.  They also pin the id assignment
(rank pins on every engine group), each build's kernel-call budget and the
``radices`` contract.
"""

import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blackbox.instances import hiding_oracle_from_subgroup
from repro.experiments.registry import build_instance, families
from repro.groups.base import GroupError
from repro.groups.engine import (
    DEFAULT_INTERN_LIMIT,
    CayleyBackend,
    get_engine,
    maybe_engine,
)
from repro.groups.extraspecial import extraspecial_group
from repro.groups.matrix import heisenberg_matrix_group
from repro.groups.abelian import cyclic_group
from repro.groups.catalog import elementary_abelian_semidirect_instance
from repro.groups.perm import PermutationGroup, alternating_group, compose, invert, symmetric_group
from repro.groups.abelian import AbelianTupleGroup
from repro.groups.products import (
    DirectProduct,
    dihedral_semidirect,
    generalized_dihedral,
    metacyclic_group,
    wreath_product_z2,
)
from repro.groups.subgroup import generate_subgroup_elements


def _kernel_engine(group):
    engine = CayleyBackend(group)
    assert engine.mode == "kernel"
    return engine


class TestKernelModeEdges:
    @pytest.fixture(scope="class")
    def engine(self):
        return _kernel_engine(extraspecial_group(3))

    def test_ids_are_coordinate_keys_identity_first(self, engine):
        assert engine.identity_id == 0
        assert engine.interned_count == 27
        assert engine.stats()["interned"] == 27
        # Heisenberg rows [a, b, c] over radices (3, 3, 3): id 9 a + 3 b + c.
        assert engine.intern(((1,), (2,), 0)) == 9 + 6

    def test_intern_rejects_foreign_elements(self, engine):
        with pytest.raises(GroupError):
            engine.intern(((5,), (0,), 0))  # coordinates outside Z_3

    def test_intern_many_rejects_foreign_elements(self, engine):
        with pytest.raises(GroupError):
            engine.intern_many([((0,), (0,), 0), ((0,), (-1,), 0)])

    def test_intern_rejects_elements_of_the_wrong_shape(self, engine):
        with pytest.raises(GroupError):
            engine.intern(((0, 0), (0, 0), 0))
        with pytest.raises(GroupError):
            engine.intern_many(["not an element"])

    def test_intern_many_inverts_elements_of(self, engine):
        ids = np.asarray([5, 0, 26, 5, 13], dtype=np.int64)
        assert np.array_equal(engine.intern_many(engine.elements_of(ids)), ids)
        assert [engine.intern(engine.element_of(i)) for i in ids] == ids.tolist()

    def test_elements_of_enumerates_the_group(self, engine):
        elements = engine.elements_of(np.arange(engine.interned_count))
        assert len(set(elements)) == engine.interned_count
        assert set(elements) == set(engine.group.element_list())

    def test_maybe_engine_builds_kernel_mode_on_a_large_group(self):
        group = extraspecial_group(17)
        engine = maybe_engine(group)
        assert engine.mode == "kernel" and engine.interned_count == 17**3
        elements = group.element_list()[:: 97]
        ids = engine.intern_many(elements)
        assert engine.elements_of(ids) == elements
        a, b = elements[3], elements[7]
        product = engine.mul(engine.intern(a), engine.intern(b))
        assert engine.element_of(product) == group.multiply(a, b)
        assert engine.element_of(engine.inv(engine.intern(a))) == group.inverse(a)


BUILDERS = [CayleyBackend, get_engine, maybe_engine]


class TestModeRule:
    """No knob picks the mode: kernel mode is the engine's only mode.

    A group with a dense kernel and a cheaply known order of at most
    ``DEFAULT_INTERN_LIMIT`` gets a kernel-mode engine; for any other group
    ``maybe_engine`` returns ``None`` and the other builders raise.
    """

    @pytest.mark.parametrize("build", BUILDERS)
    def test_small_group_with_a_kernel_builds_kernel_mode(self, build):
        group = dihedral_semidirect(64)
        engine = build(group)
        assert engine.mode == "kernel" and engine.interned_count == 128
        stats = engine.stats()
        assert "table_mode" not in stats and "kernel_mode" not in stats
        # Neither inverses nor products are tabled: inverses are one kernel
        # pass on demand.
        assert not hasattr(engine, "_inv_table") and "cached_inverses" not in stats
        assert stats["cached_products"] == 0
        ids = np.arange(engine.interned_count)
        inverses = engine.elements_of(engine.inv_many(ids))
        assert inverses == [group.inverse(x) for x in engine.elements_of(ids)]

    @pytest.mark.parametrize("build", BUILDERS)
    def test_group_past_the_old_table_limit_builds_kernel_mode(self, build):
        group = dihedral_semidirect(4096)
        engine = build(group)
        assert engine.mode == "kernel" and engine.interned_count == 8192
        a, b = group.embed_normal((5,)), group.generators()[-1]
        assert engine.element_of(engine.mul(engine.intern(a), engine.intern(b))) == group.multiply(a, b)

    @pytest.mark.parametrize("build", BUILDERS)
    def test_group_without_a_kernel_gets_no_engine(self, build):
        group = heisenberg_matrix_group(3)
        group.element_list()  # makes the order cheap to read
        assert group.dense_kernel() is None
        if build is maybe_engine:
            assert build(group) is None
        else:
            with pytest.raises(GroupError, match="dense kernel"):
                build(group)
        assert getattr(group, "_cayley_engine", None) is None

    @pytest.mark.parametrize("build", BUILDERS)
    def test_group_past_the_intern_limit_is_not_enumerated(self, build):
        group = dihedral_semidirect(DEFAULT_INTERN_LIMIT)
        assert group.order() > DEFAULT_INTERN_LIMIT and group.dense_kernel() is not None
        if build is maybe_engine:
            assert build(group) is None
        else:
            with pytest.raises(GroupError, match=str(DEFAULT_INTERN_LIMIT)):
                build(group)
        assert getattr(group, "_cayley_engine", None) is None

    @pytest.mark.parametrize("build", BUILDERS)
    @pytest.mark.parametrize("top", ["S3", "V4"])
    def test_elementary_abelian_semidirect_builds_kernel_mode(self, build, top):
        """``Z_2^4 : S_3`` and ``Z_2^4 : V_4`` act through a vectorized twin."""
        group, _ = elementary_abelian_semidirect_instance(4, top)
        engine = build(group)
        assert engine.mode == "kernel" and engine.interned_count == group.order()
        ids = np.arange(engine.interned_count, dtype=np.int64)
        elements = engine.elements_of(ids)
        a, b = np.repeat(ids, ids.size), np.tile(ids, ids.size)
        rows = engine._kernel_rows
        products = engine.kernel.decode_many(engine.kernel.compose_many(rows[a], rows[b]))
        assert products == [group.multiply(elements[i], elements[j]) for i, j in zip(a, b)]
        inverses = engine.kernel.decode_many(engine.kernel.inverse_many(rows))
        assert inverses == [group.inverse(x) for x in elements]


class TestAliasingRows:
    """On D_n, rows are ``[a, k]`` over ranges ``(n, 2)``: id ``2 a + k``.

    A row outside the radices can alias a valid key (``[a - 1, 2]`` has the
    key of ``[a, 0]``), so the range check is all that stands between such
    a row and a wrong id.  ``intern_many`` encodes D_n elements to rows and
    ranks them.
    """

    N = 16

    @pytest.fixture(scope="class")
    def engine(self):
        return _kernel_engine(dihedral_semidirect(self.N))

    @staticmethod
    def _lookup(engine, block):
        return engine.intern_many([((int(a),), (int(k),)) for a, k in block])

    def test_valid_rows_resolve_to_their_positions(self, engine):
        rows = engine._kernel_rows
        ids = self._lookup(engine, rows[::-1])
        assert np.array_equal(ids, np.arange(rows.shape[0])[::-1])

    def test_aliasing_row_is_rejected(self, engine):
        a = 8
        assert engine.intern(((a,), (0,))) == 2 * a
        # [a - 1, 2] has key 2 (a - 1) + 2 == 2 a, the key of [a, 0].
        with pytest.raises(GroupError):
            self._lookup(engine, [[a - 1, 2]])

    def test_negative_coordinates_are_rejected(self, engine):
        for row in ([8, -1], [-1, 1], [-8, 0]):
            # [8, -1] aliases [7, 1]; the others fall below the key range.
            with pytest.raises(GroupError):
                self._lookup(engine, [row])

    def test_one_bad_row_fails_the_whole_block(self, engine):
        block = np.concatenate([engine._kernel_rows, np.asarray([[7, 2]], dtype=np.int64)])
        with pytest.raises(GroupError):
            self._lookup(engine, block)

    def test_engine_edge_rejects_the_aliasing_element(self, engine):
        assert engine.intern(((8,), (0,))) >= 0
        with pytest.raises(GroupError):
            engine.intern(((7,), (2,)))
        with pytest.raises(GroupError):
            engine.intern_many([((8,), (0,)), ((8,), (-1,))])

    def test_an_out_of_range_product_row_raises(self, engine):
        with pytest.raises(GroupError, match=r"emitted 16 in column 0"):
            engine._row_ids(np.asarray([[3, 1], [16, 0]], dtype=np.int64))


def _family_group(family, **params):
    """The group of a registry family's instance (its hidden subgroup is irrelevant)."""
    return lambda: build_instance(family, params, np.random.default_rng(0)).group.group


def _cycle_group(degree):
    return PermutationGroup([tuple((i + 1) % degree for i in range(degree))], name=f"C{degree}")


def _chain_rank(chain, perm):
    """The scalar stabiliser-chain rank of ``perm``: its sift digits, base point first."""
    rank = 0
    for point, transversal in zip(chain.base, chain.transversals):
        orbit = list(transversal)
        image = perm[point]
        rank = rank * len(orbit) + orbit.index(image)
        perm = compose(invert(transversal[image]), perm)
    assert perm == chain.identity
    return rank


def _perm_rank(group, element):
    return _chain_rank(group.chain, element)


def _s3_semidirect_rank(group, element):
    """``Z_2^k : S_3``: the normal part's key times |S_3| plus the top's chain rank."""
    vector, top = element
    key = int(np.ravel_multi_index(vector, group.normal.moduli))
    return key * group.quotient.order() + _chain_rank(group.quotient.chain, top)


#: Groups on the exact box (radix product equal to the order): ids are the
#: rows' mixed-radix keys.
COORDINATE_GROUPS = {
    "abelian_random": _family_group("abelian_random", moduli=(16, 9, 5)),
    "dihedral_rotation": _family_group("dihedral_rotation", n=128),
    "dihedral_bounded_quotient": _family_group("dihedral_bounded_quotient", d=5),
    "metacyclic_core": _family_group("metacyclic_core", pq=(127, 7)),
    "extraspecial_center": _family_group("extraspecial_center", p=7),
    "extraspecial_random": _family_group("extraspecial_random", p=3, rank=2),
    "wreath_random": _family_group("wreath_random", k=3),
    "diagnostic_fault": _family_group("diagnostic_fault", n=8),
    # The three cold-large groups of the repo benchmark.
    "D_8192": lambda: dihedral_semidirect(8192),
    "Heisenberg_29": lambda: extraspecial_group(29),
    "metacyclic_1999_3": lambda: metacyclic_group(1999, 3),
    # The only direct-product kernel.
    "Z_6 x D_5": lambda: DirectProduct([cyclic_group(6), dihedral_semidirect(5)]),
    "Z_2^4 : V4": lambda: elementary_abelian_semidirect_instance(4, "V4")[0],
}

#: Groups whose ids are stabiliser-chain ranks, with the scalar rank of an
#: element: permutation groups (S_5's radices hold 5^5 rows for 120
#: elements, C20's 20^20 overflow int64) and the S_3 semidirect, whose
#: rank combines its Abelian key with its top's chain rank.
RANK_GROUPS = {
    "symmetric_alternating": (_family_group("symmetric_alternating", n=4), _perm_rank),
    "S_5": (lambda: symmetric_group(5), _perm_rank),
    "A_5": (lambda: alternating_group(5), _perm_rank),
    "C20": (lambda: _cycle_group(20), _perm_rank),
    "Z_2^3 : S_3": (lambda: elementary_abelian_semidirect_instance(3, "S3")[0], _s3_semidirect_rank),
}

GROUPS = {**COORDINATE_GROUPS, **{name: build for name, (build, _) in RANK_GROUPS.items()}}


@functools.lru_cache(maxsize=None)
def _cached_engine(name):
    """A kernel-mode engine on a fresh instance of the named group (built once)."""
    return _kernel_engine(GROUPS[name]())


def test_engine_groups_cover_registry():
    assert set(families()) <= set(GROUPS)


def _scalar_chain(group, g):
    """``[g, g^2, ..., g^(ord g - 1)]`` by scalar multiplication."""
    powers, power = [], g
    while not group.equal(power, group.identity()):
        powers.append(power)
        power = group.multiply(power, g)
    return powers


@pytest.mark.parametrize("name", list(GROUPS))
def test_kept_generator_chains_are_the_scalar_powers(name):
    """The build keeps each generator's chain; ``cyclic_ids`` cuts it, read-only."""
    engine = _cached_engine(name)
    generators = engine.group.generators()
    gen_ids = engine.intern_many(generators)
    walked = [engine.intern_many(_scalar_chain(engine.group, g)).tolist() for g in generators]
    orders = [len(chain) + 1 for chain in walked]
    below = [max(order // 2, 1) for order in orders]
    above = [order + 3 for order in orders]
    for caps in (None, below, orders, above):
        chains = engine.cyclic_ids(gen_ids, caps)
        for i, chain in enumerate(chains):
            length = orders[i] - 1 if caps is None else min(orders[i], caps[i]) - 1
            assert chain.tolist() == walked[i][:length]
            assert not chain.flags.writeable
    assert [engine.element_order(g) for g in gen_ids.tolist()] == orders


class TestRankIds:
    """Every engine group: id = rank, identity 0, and the ids cover the group."""

    @pytest.mark.parametrize("name", list(GROUPS))
    def test_rows_and_ids_round_trip_over_every_rank(self, name):
        engine = _cached_engine(name)
        kernel, ids = engine.kernel, np.arange(engine.interned_count)
        assert kernel.size == engine.group_order == ids.size
        assert np.array_equal(kernel.row_table(), engine._kernel_rows)
        assert np.array_equal(kernel.ids_of(engine._kernel_rows), ids)
        assert np.array_equal(kernel.ids_of(engine._kernel_rows[::-1]), ids[::-1])
        assert engine.identity_id == 0 and engine.intern(engine.group.identity()) == 0
        scalar_group = GROUPS[name]()  # a fresh group, closed by scalar BFS
        elements = generate_subgroup_elements(scalar_group, scalar_group.generators())
        enumerated = engine.elements_of(ids)
        assert len(set(enumerated)) == ids.size
        assert set(enumerated) == set(elements)

    @pytest.mark.parametrize("name", list(COORDINATE_GROUPS))
    def test_ids_are_the_mixed_radix_keys_on_the_exact_box(self, name):
        engine = _cached_engine(name)
        keys = np.ravel_multi_index(engine._kernel_rows.T, engine.kernel.radices)
        assert np.array_equal(keys, np.arange(engine.interned_count))

    @pytest.mark.parametrize("name", list(RANK_GROUPS))
    def test_ids_are_the_scalar_chain_ranks(self, name):
        engine = _cached_engine(name)
        rank = RANK_GROUPS[name][1]
        elements = engine.elements_of(np.arange(engine.interned_count))
        assert [rank(engine.group, x) for x in elements] == list(range(len(elements)))

    def test_the_trivial_group_without_generators_builds(self):
        engine = _kernel_engine(PermutationGroup([], degree=1))
        assert engine.interned_count == 1 and engine.identity_id == 0
        assert engine.elements_of([0]) == [(0,)]


#: Generating sets drawn in S_n (n <= 7): one to three random permutations.
RANDOM_PERMUTATION_GROUPS = st.integers(2, 7).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3).map(
        lambda gens: PermutationGroup([tuple(g) for g in gens], degree=n, name=f"<{len(gens)} in S_{n}>")
    )
)


class TestPermutationRanks:
    """Chain-ranked ids against the scalar ``compose``/``invert``."""

    @staticmethod
    def _check_arithmetic(group, data):
        engine = CayleyBackend(group)
        ids = st.integers(min_value=0, max_value=engine.interned_count - 1)
        a = np.asarray(data.draw(st.lists(ids, min_size=1, max_size=40)), dtype=np.int64)
        b = np.asarray(data.draw(st.lists(ids, min_size=a.size, max_size=a.size)), dtype=np.int64)
        left, right = engine.elements_of(a), engine.elements_of(b)
        assert engine.elements_of(engine.mul_many(a, b)) == [compose(x, y) for x, y in zip(left, right)]
        assert engine.elements_of(engine.inv_many(a)) == [invert(x) for x in left]
        assert np.array_equal(engine.intern_many(left), a)
        return engine

    @staticmethod
    def _assert_rejected(engine, rows):
        for row in rows:
            with pytest.raises(GroupError):
                engine._row_ids(np.asarray([row], dtype=np.int64))
            with pytest.raises(GroupError):
                engine.intern(tuple(row))

    @settings(deadline=None, max_examples=40)
    @given(group=RANDOM_PERMUTATION_GROUPS, data=st.data())
    def test_random_generating_sets(self, group, data):
        engine = self._check_arithmetic(group, data)
        n = group.degree
        foreign = data.draw(st.permutations(range(n)))
        if not group.contains_permutation(tuple(foreign)):
            self._assert_rejected(engine, [foreign])
        row = list(engine.element_of(data.draw(st.integers(0, engine.interned_count - 1))))
        column = data.draw(st.integers(0, n - 1))
        negative, too_large = list(row), list(row)
        negative[column], too_large[column] = -1, n
        self._assert_rejected(engine, [negative, too_large])

    @settings(deadline=None, max_examples=10)
    @given(n=st.integers(3, 7), data=st.data())
    def test_alternating_groups(self, n, data):
        engine = self._check_arithmetic(alternating_group(n), data)
        odd = list(engine.element_of(data.draw(st.integers(0, engine.interned_count - 1))))
        odd[0], odd[1] = odd[1], odd[0]  # one transposition more: an odd permutation
        repeated = list(range(n))
        repeated[-1] = 0  # in range, but not a permutation
        self._assert_rejected(engine, [odd, repeated])


_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

#: A small group of every family on the exact box, with drawn parameters.
EXACT_BOX_GROUPS = st.one_of(
    st.integers(3, 60).map(dihedral_semidirect),
    st.sampled_from([(p, q) for p in _PRIMES for q in range(2, p) if (p - 1) % q == 0]).map(
        lambda pq: metacyclic_group(*pq)
    ),
    st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)]).map(
        lambda pn: extraspecial_group(*pn)
    ),
    st.lists(st.integers(1, 12), min_size=1, max_size=3).map(AbelianTupleGroup),
    st.integers(1, 3).map(wreath_product_z2),
    st.tuples(st.integers(1, 6), st.integers(3, 6)).map(
        lambda mn: DirectProduct([cyclic_group(mn[0]), dihedral_semidirect(mn[1])])
    ),
    st.integers(4, 5).map(lambda k: elementary_abelian_semidirect_instance(k, "V4")[0]),
    st.lists(st.integers(2, 6), min_size=1, max_size=2).map(generalized_dihedral),
)


@settings(deadline=None, max_examples=60)
@given(group=EXACT_BOX_GROUPS)
def test_generators_fill_the_exact_box(group):
    """The scalar closure of the generators is every row inside the radices."""
    kernel = group.dense_kernel()
    assert kernel.mixed_radix and kernel.size == group.order()
    closure = generate_subgroup_elements(group, group.generators())
    ids = kernel.ids_of(kernel.encode_many(closure))
    assert np.array_equal(np.sort(ids), np.arange(kernel.size))
    assert kernel.ids_of(kernel.encode_many([group.identity()]))[0] == 0


#: Upper bounds on the ``compose_many`` calls of one build.  The only
#: products are the generators' cyclic chains, one call per doubling level
#: of the longest chain (``ceil(log2 ord) + 1`` at most): S_5's generators
#: have orders 2 and 5.
KERNEL_CALL_BUDGETS = {
    "Heisenberg_29": (lambda: extraspecial_group(29), 5),
    "D_8192": (lambda: dihedral_semidirect(8192), 13),
    "metacyclic_1999_3": (lambda: metacyclic_group(1999, 3), 11),
    "D_32": (lambda: dihedral_semidirect(32), 5),
    "D_64": (lambda: dihedral_semidirect(64), 6),
    "D_96": (lambda: dihedral_semidirect(96), 7),
    "D_128": (lambda: dihedral_semidirect(128), 7),
    "S_5": (lambda: symmetric_group(5), 3),
}


@pytest.mark.parametrize("name", list(KERNEL_CALL_BUDGETS))
def test_build_stays_within_its_kernel_call_budget(name):
    build, budget = KERNEL_CALL_BUDGETS[name]
    group = build()
    kernel = group.dense_kernel()
    compose_many = kernel.compose_many
    calls = []

    def counted(rows_a, rows_b):
        calls.append(len(rows_a))
        return compose_many(rows_a, rows_b)

    kernel.compose_many = counted
    group.dense_kernel = lambda: kernel
    engine = CayleyBackend(group)
    assert engine.interned_count == group.order()
    assert 0 < len(calls) <= budget, f"{name}: {len(calls)} kernel calls, budget {budget}"


def _rotation_subgroup(group):
    return [group.generators()[0]]


def _heisenberg_maximal_subgroup(group):
    """``<x, z>``: order p^2, one chain each and a single coset block."""
    x, y = group.generators()[:2]
    return [x, group.commutator(x, y)]


def _rotation_cube_subgroup(group):
    """``<r^3>``: all of ``<r>`` again, but from an element that is no generator."""
    return [group.power(group.generators()[0], 3)]


#: Upper bounds on the ``compose_many`` calls of one fresh ``subgroup_ids``
#: closure, with the order it must reach.  ``<r>`` in D_8192 is the first
#: generator's chain, which the build walked and kept, so it costs no call;
#: ``<r^3>`` is the same subgroup from a non-generator, whose chain is
#: walked (``ceil(log2 8192) + 1`` levels at most).  The Heisenberg
#: subgroup of order 29^2 is two chains of 5 levels and one bulk product of
#: the block ``<x> z^j`` with its probes.
CLOSURE_CALL_BUDGETS = {
    "D_8192 <r>": (lambda: dihedral_semidirect(8192), _rotation_subgroup, 8192, 0),
    "D_8192 <r^3>": (lambda: dihedral_semidirect(8192), _rotation_cube_subgroup, 8192, 14),
    "Heisenberg_29 order 841": (lambda: extraspecial_group(29), _heisenberg_maximal_subgroup, 841, 11),
}


@pytest.mark.parametrize("name", list(CLOSURE_CALL_BUDGETS))
def test_closure_stays_within_its_kernel_call_budget(name):
    build, generators, order, budget = CLOSURE_CALL_BUDGETS[name]
    group = build()
    engine = CayleyBackend(group)
    compose_many = engine.kernel.compose_many
    calls = []

    def counted(rows_a, rows_b):
        calls.append(len(rows_a))
        return compose_many(rows_a, rows_b)

    engine.kernel.compose_many = counted
    closure = engine.subgroup_ids(engine.intern_many(generators(group)))
    assert closure.size == order
    if budget == 0:
        assert not calls, f"{name}: {len(calls)} kernel calls, expected none"
    else:
        assert 0 < len(calls) <= budget, f"{name}: {len(calls)} kernel calls, budget {budget}"


def _normal_generator_subgroup(group):
    return [group.embed_normal((1,))]


def _random_element_subgroup(group):
    """One random element: of order p in a Heisenberg group, so of index p^2."""
    return [group.uniform_random_element(np.random.default_rng(20010202))]


#: The ``compose_many`` row counts of a fresh engine's whole-group coset
#: labels, on top of the closure's own calls (its chain walk), with the
#: index they must find.  A cyclic ``H`` of index 2 is a sweep with no
#: product: ``<r>`` in D_8192 costs nothing, ``<r^3>`` only its chain walk.
#: Index 3 adds one product of ``|H|`` rows; the Heisenberg p = 29 subgroup
#: of index 841 keeps pointer doubling's one product of ``|G|`` rows.
LABEL_CALL_BUDGETS = {
    "D_8192 <r>": (lambda: dihedral_semidirect(8192), _rotation_subgroup, 2, []),
    "metacyclic_1999_3 <a>": (lambda: metacyclic_group(1999, 3), _normal_generator_subgroup, 3, [1999]),
    "D_8192 <r^3>": (lambda: dihedral_semidirect(8192), _rotation_cube_subgroup, 2, []),
    "Heisenberg_29 <random>": (lambda: extraspecial_group(29), _random_element_subgroup, 841, [29**3]),
}


def _counted_kernel_calls(build, generators, action):
    """``action(engine, elements)`` on a fresh engine, and the rows of each ``compose_many`` call."""
    group = build()
    engine = get_engine(group)
    elements = generators(group)
    compose_many = engine.kernel.compose_many
    calls = []

    def counted(rows_a, rows_b):
        calls.append(len(rows_a))
        return compose_many(rows_a, rows_b)

    engine.kernel.compose_many = counted
    return action(engine, elements), calls


def _closure(engine, elements):
    return engine.subgroup_ids(engine.intern_many(elements))


def _coset_labels(engine, elements):
    oracle = hiding_oracle_from_subgroup(engine.group, elements)
    return oracle.evaluate_ids(np.arange(engine.interned_count, dtype=np.int64))


@pytest.mark.parametrize("name", list(LABEL_CALL_BUDGETS))
def test_coset_labels_stay_within_their_kernel_call_budget(name):
    build, generators, index, label_rows = LABEL_CALL_BUDGETS[name]
    _, closure = _counted_kernel_calls(build, generators, _closure)
    labels, calls = _counted_kernel_calls(build, generators, _coset_labels)
    assert len(set(labels)) == index
    assert calls == closure + label_rows, f"{name}: kernel calls of {calls} rows"


class TestRadicesContract:
    """Every row a kernel produces from group elements lies in ``[0, radices)``."""

    @pytest.mark.parametrize("name", list(GROUPS))
    def test_enumerated_rows_lie_inside_the_radices(self, name):
        engine = _cached_engine(name)
        radices = np.asarray(engine.kernel.radices)
        assert radices.shape == (engine.kernel.width,)
        rows = engine._kernel_rows
        assert ((rows >= 0) & (rows < radices)).all()

    @pytest.mark.parametrize("name", list(GROUPS))
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_kernel_outputs_on_random_rows_lie_inside_the_radices(self, name, data):
        engine = _cached_engine(name)
        kernel, rows = engine.kernel, engine._kernel_rows
        radices = np.asarray(kernel.radices)
        ids = st.integers(min_value=0, max_value=rows.shape[0] - 1)
        count = data.draw(st.integers(min_value=1, max_value=32))
        a = np.asarray(data.draw(st.lists(ids, min_size=count, max_size=count)))
        b = np.asarray(data.draw(st.lists(ids, min_size=count, max_size=count)))
        for out in (kernel.compose_many(rows[a], rows[b]), kernel.inverse_many(rows[a])):
            out = np.asarray(out)
            assert out.shape == (count, kernel.width)
            assert ((out >= 0) & (out < radices)).all()


class TestBrokenKernels:
    """A kernel breaking its contract fails the build with the cause named."""

    def _group_with_kernel(self, **overrides):
        group = dihedral_semidirect(16)
        kernel = group.dense_kernel()
        for name, value in overrides.items():
            setattr(kernel, name, value)
        group.dense_kernel = lambda: kernel
        return group

    def test_radix_one_too_small_names_the_group_and_column(self):
        group = self._group_with_kernel(radices=(15, 2))
        pattern = rf"{re.escape(group.name)} emitted 15 in column 0, outside .*\[0, 15\)"
        with pytest.raises(GroupError, match=pattern):
            CayleyBackend(group)

    def test_second_column_is_named(self):
        group = self._group_with_kernel(radices=(16, 1))
        with pytest.raises(GroupError, match=r"emitted 1 in column 1"):
            CayleyBackend(group)

    def test_radices_must_match_the_row_width(self):
        group = self._group_with_kernel(radices=(32,))
        with pytest.raises(GroupError, match=r"declares 1 radices"):
            CayleyBackend(group)

    def test_negative_values_are_out_of_range(self):
        kernel = dihedral_semidirect(16).dense_kernel()
        with pytest.raises(GroupError, match=r"emitted -1 in column 1"):
            kernel.ids_of(np.asarray([[3, 1], [4, -1]], dtype=np.int64))

    def test_a_kernel_ranking_the_wrong_number_of_rows_fails(self):
        group = cyclic_group(16)
        kernel = group.dense_kernel()
        kernel.radices = (15,)
        group.dense_kernel = lambda: kernel
        with pytest.raises(GroupError, match=r"ranks 15 rows, but the group has order 16"):
            CayleyBackend(group)

    def test_an_identity_off_rank_zero_fails(self):
        group = dihedral_semidirect(16)
        kernel = group.dense_kernel()
        encode_many = kernel.encode_many
        kernel.encode_many = lambda elements: (encode_many(elements) + [1, 0]) % [16, 2]
        group.dense_kernel = lambda: kernel
        with pytest.raises(GroupError, match=r"does not rank the identity 0"):
            CayleyBackend(group)

    def test_a_product_that_never_returns_to_the_identity_fails(self):
        # In range, but not a group: g * g = g, so g's powers never cycle.
        group = self._group_with_kernel(compose_many=lambda rows_a, rows_b: rows_b.copy())
        with pytest.raises(GroupError, match=r"cyclic chain outgrew the group order"):
            CayleyBackend(group)
