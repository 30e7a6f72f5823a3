"""Kernel-mode engine edges and the row index behind every bulk lookup.

A :class:`~repro.groups.engine.CayleyBackend` keeps no element list: it
builds only for a group with a dense kernel, ids are the indices of the
rows that kernel
enumerated, products resolve back to ids through
:class:`~repro.groups.engine._RowIndex`, and elements are encoded or decoded
only when a caller crosses the id/element edge.  The row index keys rows by
one int64 mixed-radix value over the kernel's declared ``radices`` (or by
raw bytes when their product overflows int64), so a query row outside those
ranges can alias a valid key; these tests pin that such rows — and foreign
elements generally — still raise :class:`~repro.groups.base.GroupError`.
They also pin the enumeration itself: its row order (ids are enumeration
positions) and the ``radices`` contract it keys rows by.
"""

import functools
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.registry import build_instance, families
from repro.groups.base import GroupError
from repro.groups.engine import (
    DEFAULT_INTERN_LIMIT,
    CayleyBackend,
    _RowIndex,
    _RowKeys,
    get_engine,
    maybe_engine,
)
from repro.groups.extraspecial import extraspecial_group
from repro.groups.matrix import heisenberg_matrix_group
from repro.groups.abelian import cyclic_group
from repro.groups.catalog import elementary_abelian_semidirect_instance
from repro.groups.perm import PermutationGroup, symmetric_group
from repro.groups.products import DirectProduct, dihedral_semidirect, metacyclic_group
from repro.groups.subgroup import generate_subgroup_elements


def _kernel_engine(group):
    engine = CayleyBackend(group)
    assert engine.mode == "kernel"
    return engine


class TestKernelModeEdges:
    @pytest.fixture(scope="class")
    def engine(self):
        return _kernel_engine(extraspecial_group(3))

    def test_ids_are_enumeration_rows_identity_first(self, engine):
        assert engine.identity_id == 0
        assert engine.interned_count == 27
        assert engine.stats()["interned"] == 27

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
        engine = build(dihedral_semidirect(64))
        assert engine.mode == "kernel" and engine.interned_count == 128
        stats = engine.stats()
        assert "table_mode" not in stats and "kernel_mode" not in stats
        # The inverse table is complete at build; products are not memoized.
        assert stats["cached_inverses"] == 128 and stats["cached_products"] == 0

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


class TestRowIndexAliasing:
    """On D_n, rows are ``[a, k]`` over ranges ``(n, 2)``: key ``2 a + k``."""

    N = 16

    @pytest.fixture(scope="class")
    def rows(self):
        return _kernel_engine(dihedral_semidirect(self.N))._kernel_rows

    @pytest.fixture(scope="class", params=["direct", "sorted"])
    def index(self, request, rows):
        if request.param == "direct":
            # Key range 2n <= 4n: the direct-address table.
            kept = rows
        else:
            # Rotations by multiples of 8 only: key range 2n over 4 rows, so
            # the sorted-key search serves the lookup.
            kept = rows[rows[:, 0] % 8 == 0]
        space = _RowKeys((self.N, 2), kept.shape[0], f"D_{self.N}")
        row_index = _RowIndex(kept, space.keys(kept), space)
        assert row_index.path == request.param
        assert (row_index._direct is not None) == (request.param == "direct")
        return row_index, kept

    def test_valid_rows_resolve_to_their_positions(self, index):
        row_index, rows = index
        ids = row_index.lookup(rows[::-1])
        assert np.array_equal(ids, np.arange(rows.shape[0])[::-1])

    def test_aliasing_row_is_rejected(self, index):
        row_index, rows = index
        a = 8
        assert (rows == [a, 0]).all(axis=1).any()
        # [a - 1, 2] has key 2 (a - 1) + 2 == 2 a, the key of [a, 0].
        with pytest.raises(GroupError):
            row_index.lookup(np.asarray([[a - 1, 2]], dtype=np.int64))

    def test_negative_coordinates_are_rejected(self, index):
        row_index, _ = index
        for row in ([8, -1], [-1, 1], [-8, 0]):
            # [8, -1] aliases [7, 1]; the others fall below the key range.
            with pytest.raises(GroupError):
                row_index.lookup(np.asarray([row], dtype=np.int64))

    def test_one_bad_row_fails_the_whole_block(self, index):
        row_index, rows = index
        block = np.concatenate([rows, np.asarray([[7, 2]], dtype=np.int64)])
        with pytest.raises(GroupError):
            row_index.lookup(block)

    def test_engine_edge_rejects_the_aliasing_element(self):
        engine = _kernel_engine(dihedral_semidirect(self.N))
        assert engine.intern(((8,), (0,))) >= 0
        with pytest.raises(GroupError):
            engine.intern(((7,), (2,)))
        with pytest.raises(GroupError):
            engine.intern_many([((8,), (0,)), ((8,), (-1,))])


class TestByteKeyRows:
    """Degree-20 permutations: the key range 20^20 overflows int64."""

    DEGREE = 20

    def _group(self):
        cycle = tuple((i + 1) % self.DEGREE for i in range(self.DEGREE))
        return PermutationGroup([cycle], name="C20")

    @pytest.fixture
    def engine(self):
        engine = get_engine(self._group())
        assert engine.mode == "kernel"
        assert engine._row_index.path == "bytes", "expected the byte-key branch"
        return engine

    def test_bulk_products_match_scalar_arithmetic(self, engine):
        group = engine.group
        n = engine.interned_count
        assert n == self.DEGREE
        ids = np.arange(n, dtype=np.int64)
        a, b = np.repeat(ids, n), np.tile(ids, n)
        products = engine.elements_of(engine.mul_many(a, b))
        elements = engine.elements_of(ids)
        assert products == [group.multiply(elements[i], elements[j]) for i, j in zip(a, b)]
        inverses = engine.elements_of(engine.inv_many(ids))
        assert inverses == [group.inverse(x) for x in elements]

    def test_foreign_permutation_is_rejected(self, engine):
        transposition = (1, 0) + tuple(range(2, self.DEGREE))
        with pytest.raises(GroupError):
            engine.intern(transposition)
        with pytest.raises(GroupError):
            engine.intern_many([engine.group.identity(), transposition])


def _family_group(family, **params):
    """The group of a registry family's instance (its hidden subgroup is irrelevant)."""
    return lambda: build_instance(family, params, np.random.default_rng(0)).group.group


def _cycle_group(degree):
    return PermutationGroup([tuple((i + 1) % degree for i in range(degree))], name=f"C{degree}")


#: sha256 of ``engine._kernel_rows.tobytes()`` per group.  Ids are enumeration
#: positions, so these digests pin every id assignment: any change to the
#: enumeration order shows up here before it reaches a golden.
ENUMERATION_DIGESTS = {
    "abelian_random": (
        _family_group("abelian_random", moduli=(16, 9, 5)),
        "c1ebae646e58899e68511d6df6e10abe43eae1093c8301a9a8f011e249bba60a",
    ),
    "dihedral_rotation": (
        _family_group("dihedral_rotation", n=128),
        "5c3bd1ecc067971b188f285d2e090a706486c0d5f82301776112660f0b54c86c",
    ),
    "dihedral_bounded_quotient": (
        _family_group("dihedral_bounded_quotient", d=5),
        "e66723f85ca88cf14603074412c52eaee1738bbc8eb3cdf0b6f5d5e9a2ac71f2",
    ),
    "metacyclic_core": (
        _family_group("metacyclic_core", pq=(127, 7)),
        "e7cb59ad053ec54315fe42a081d74a78f6198cfe307048c71106026c207aab5c",
    ),
    "symmetric_alternating": (
        _family_group("symmetric_alternating", n=4),
        "62c12a748c826b323472c63703059805dbcffee12dd0fa3847aed429ef2dfecf",
    ),
    "extraspecial_center": (
        _family_group("extraspecial_center", p=7),
        "816ee7febef0977f74a5293fe4a173f4ea4469d6164a0d9d0f12beaf1b1d4429",
    ),
    "extraspecial_random": (
        _family_group("extraspecial_random", p=3, rank=2),
        "10f40ec5767e5abbbd38233d3309b59561d4446d1ca1b3c14274acf69db99916",
    ),
    "wreath_random": (
        _family_group("wreath_random", k=3),
        "6181c5eab93e5e582be3d6b2fdf4eaf2b894741aebbdd65c2c979df443e4bf72",
    ),
    "diagnostic_fault": (
        _family_group("diagnostic_fault", n=8),
        "c8e648859fac2c755ae6089cdf4fb23540bca4c2f05a9c9c36dc4c79530afd56",
    ),
    # The three cold-large groups of the repo benchmark.
    "D_8192": (
        lambda: dihedral_semidirect(8192),
        "fa525498892c1c619184a83a8069a7af2f781308d7101f9f650a66b07d1414a2",
    ),
    "Heisenberg_29": (
        lambda: extraspecial_group(29),
        "45b81f5ed4a4c03d3c004755e771ca7e6c116b0fcff54574e07b9b1042872aa6",
    ),
    "metacyclic_1999_3": (
        lambda: metacyclic_group(1999, 3),
        "909f25c354f7941c600eea63e3e32d812fe1b6f2db155cf3e9a8ede024be7e49",
    ),
    # The sorted-key path: 5^5 keys for 120 elements.
    "S_5": (
        lambda: symmetric_group(5),
        "ad24a7c3b8e2aae5b180cbbcad3edeb6145bc00356a3c9ed6bb8dcf6b3f604a2",
    ),
    # The byte-key path: 20^20 overflows int64.
    "C20": (
        lambda: _cycle_group(TestByteKeyRows.DEGREE),
        "0c4758ca1608075269cb94646c049c0529276cedba4a612a36a420466a916e1b",
    ),
    # The only direct-product kernel.
    "Z_6 x D_5": (
        lambda: DirectProduct([cyclic_group(6), dihedral_semidirect(5)]),
        "254b8dc07b16664362593bf4586fa5e6256b0c444aba7be6b4e9de730153eb80",
    ),
}


@functools.lru_cache(maxsize=None)
def _enumerated(name):
    """A kernel-mode engine on a fresh instance of the named group (built once)."""
    return _kernel_engine(ENUMERATION_DIGESTS[name][0]())


def test_enumeration_groups_cover_registry():
    assert set(families()) <= set(ENUMERATION_DIGESTS)


class TestEnumerationOrder:
    @pytest.mark.parametrize("name", list(ENUMERATION_DIGESTS))
    def test_rows_match_the_pinned_enumeration(self, name):
        engine = _enumerated(name)
        digest = hashlib.sha256(engine._kernel_rows.tobytes()).hexdigest()
        assert digest == ENUMERATION_DIGESTS[name][1]
        scalar_group = ENUMERATION_DIGESTS[name][0]()  # a fresh group, closed by scalar BFS
        elements = generate_subgroup_elements(scalar_group, scalar_group.generators())
        enumerated = engine.elements_of(np.arange(engine.interned_count))
        assert len(set(enumerated)) == engine.interned_count
        assert set(enumerated) == set(elements)


#: Upper bounds on the kernel calls of one enumeration.  Batched cyclic
#: chains bring Heisenberg p = 29 from 413 calls to under 150; for the rest
#: the bounds are the call counts before the batching, which a batch of one
#: representative must not exceed.
KERNEL_CALL_BUDGETS = {
    "Heisenberg_29": (lambda: extraspecial_group(29), 150),
    "D_8192": (lambda: dihedral_semidirect(8192), 20),
    "metacyclic_1999_3": (lambda: metacyclic_group(1999, 3), 17),
    "D_32": (lambda: dihedral_semidirect(32), 12),
    "D_64": (lambda: dihedral_semidirect(64), 13),
    "D_96": (lambda: dihedral_semidirect(96), 13),
    "D_128": (lambda: dihedral_semidirect(128), 14),
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


class TestRadicesContract:
    """Every row a kernel produces from group elements lies in ``[0, radices)``."""

    @pytest.mark.parametrize("name", list(ENUMERATION_DIGESTS))
    def test_enumerated_rows_lie_inside_the_radices(self, name):
        engine = _enumerated(name)
        radices = np.asarray(engine.kernel.radices)
        assert radices.shape == (engine.kernel.width,)
        rows = engine._kernel_rows
        assert ((rows >= 0) & (rows < radices)).all()

    @pytest.mark.parametrize("name", list(ENUMERATION_DIGESTS))
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_kernel_outputs_on_random_rows_lie_inside_the_radices(self, name, data):
        engine = _enumerated(name)
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
        space = _RowKeys((16, 2), 32, "D_16")
        with pytest.raises(GroupError, match=r"emitted -1 in column 1"):
            space.checked_keys(np.asarray([[3, 1], [4, -1]], dtype=np.int64))

    def test_a_product_that_never_returns_to_the_identity_fails(self):
        # In range, but not a group: g * g = g, so g's powers never cycle.
        group = self._group_with_kernel(compose_many=lambda rows_a, rows_b: rows_b.copy())
        with pytest.raises(GroupError, match=r"cyclic chain outgrew the group order"):
            CayleyBackend(group)
