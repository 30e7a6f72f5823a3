"""Kernel-mode engine edges, coordinate ids and the row index.

A :class:`~repro.groups.engine.CayleyBackend` keeps no element list: it
builds only for a group with a dense kernel and keys rows by one int64
mixed-radix value over the kernel's declared ``radices`` (or by raw bytes
when their product overflows int64).  On the exact box — radix product
equal to the order — an element's id is its key and a row resolves by a
range check; any other group is enumerated, its ids are enumeration
positions and rows resolve through
:class:`~repro.groups.engine._RowIndex`.  Elements are encoded or decoded
only when a caller crosses the id/element edge.  A query row outside the
radices can alias a valid key; these tests pin that such rows — and foreign
elements generally — raise :class:`~repro.groups.base.GroupError` on both
resolves.  They also pin the id assignment (key order on the box, the
enumeration's row order off it) and the ``radices`` contract.
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
    """On D_n, rows are ``[a, k]`` over ranges ``(n, 2)``: key ``2 a + k``.

    Two resolves serve row -> id: the engine's keyed resolve on the exact
    box (reached through ``intern_many``, which encodes D_n elements to
    rows), and the row index's sorted-key search off it.
    """

    N = 16

    @pytest.fixture(scope="class")
    def engine(self):
        return _kernel_engine(dihedral_semidirect(self.N))

    @pytest.fixture(scope="class", params=["coordinates", "sorted"])
    def index(self, request, engine):
        rows = engine._kernel_rows
        if request.param == "coordinates":
            assert engine._space.path == "coordinates" and engine._row_index is None

            def lookup(block):
                return engine.intern_many([((int(a),), (int(k),)) for a, k in block])

            return lookup, rows
        # Rotations by multiples of 8 only: key range 2n over 4 rows, so the
        # sorted-key search serves the lookup.
        kept = rows[rows[:, 0] % 8 == 0]
        space = _RowKeys((self.N, 2), kept.shape[0], f"D_{self.N}")
        assert space.path == "sorted"
        return _RowIndex(kept, space.keys(kept), space).lookup, kept

    def test_valid_rows_resolve_to_their_positions(self, index):
        lookup, rows = index
        ids = lookup(rows[::-1])
        assert np.array_equal(ids, np.arange(rows.shape[0])[::-1])

    def test_aliasing_row_is_rejected(self, index):
        lookup, rows = index
        a = 8
        assert (rows == [a, 0]).all(axis=1).any()
        # [a - 1, 2] has key 2 (a - 1) + 2 == 2 a, the key of [a, 0].
        with pytest.raises(GroupError):
            lookup(np.asarray([[a - 1, 2]], dtype=np.int64))

    def test_negative_coordinates_are_rejected(self, index):
        lookup, _ = index
        for row in ([8, -1], [-1, 1], [-8, 0]):
            # [8, -1] aliases [7, 1]; the others fall below the key range.
            with pytest.raises(GroupError):
                lookup(np.asarray([row], dtype=np.int64))

    def test_one_bad_row_fails_the_whole_block(self, index):
        lookup, rows = index
        block = np.concatenate([rows, np.asarray([[7, 2]], dtype=np.int64)])
        with pytest.raises(GroupError):
            lookup(block)

    def test_engine_edge_rejects_the_aliasing_element(self, engine):
        assert engine.intern(((8,), (0,))) >= 0
        with pytest.raises(GroupError):
            engine.intern(((7,), (2,)))
        with pytest.raises(GroupError):
            engine.intern_many([((8,), (0,)), ((8,), (-1,))])

    def test_an_out_of_range_product_row_raises(self, engine):
        with pytest.raises(GroupError, match=r"emitted 16 in column 0"):
            engine._row_ids(np.asarray([[3, 1], [16, 0]], dtype=np.int64))


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
        assert engine._space.path == "bytes", "expected the byte-key branch"
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


#: Groups on the exact box (radix product equal to the order): ids are the
#: rows' mixed-radix keys, and nothing is enumerated.
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

#: sha256 of ``engine._kernel_rows.tobytes()`` per group off the exact box.
#: Their ids are enumeration positions, so these digests pin every id
#: assignment: any change to the enumeration order shows up here before it
#: reaches a golden.
ENUMERATION_DIGESTS = {
    "symmetric_alternating": (
        _family_group("symmetric_alternating", n=4),
        "62c12a748c826b323472c63703059805dbcffee12dd0fa3847aed429ef2dfecf",
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
}

GROUPS = {**COORDINATE_GROUPS, **{name: build for name, (build, _) in ENUMERATION_DIGESTS.items()}}


@functools.lru_cache(maxsize=None)
def _cached_engine(name):
    """A kernel-mode engine on a fresh instance of the named group (built once)."""
    return _kernel_engine(GROUPS[name]())


def _assert_ids_cover_the_scalar_closure(name):
    engine = _cached_engine(name)
    scalar_group = GROUPS[name]()  # a fresh group, closed by scalar BFS
    elements = generate_subgroup_elements(scalar_group, scalar_group.generators())
    enumerated = engine.elements_of(np.arange(engine.interned_count))
    assert len(set(enumerated)) == engine.interned_count
    assert set(enumerated) == set(elements)


def test_engine_groups_cover_registry():
    assert set(families()) <= set(GROUPS)


class TestCoordinateIds:
    @pytest.mark.parametrize("name", list(COORDINATE_GROUPS))
    def test_ids_are_keys_of_the_closed_box(self, name):
        engine = _cached_engine(name)
        assert engine._space.path == "coordinates" and engine._row_index is None
        ids = np.arange(engine.interned_count)
        assert np.array_equal(engine._kernel_rows @ engine._space.strides, ids)
        assert engine.identity_id == 0
        _assert_ids_cover_the_scalar_closure(name)

    def test_the_trivial_group_without_generators_builds(self):
        engine = _kernel_engine(PermutationGroup([], degree=1))
        assert engine._space.path == "coordinates"
        assert engine.interned_count == 1 and engine.identity_id == 0


class TestEnumerationOrder:
    @pytest.mark.parametrize("name", list(ENUMERATION_DIGESTS))
    def test_rows_match_the_pinned_enumeration(self, name):
        engine = _cached_engine(name)
        assert engine._space.path != "coordinates"
        digest = hashlib.sha256(engine._kernel_rows.tobytes()).hexdigest()
        assert digest == ENUMERATION_DIGESTS[name][1]
        _assert_ids_cover_the_scalar_closure(name)


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
    space = _RowKeys(kernel.radices, group.order(), group.name)
    assert space.path == "coordinates"
    closure = generate_subgroup_elements(group, group.generators())
    keys = space.checked_keys(kernel.encode_many(closure))[1]
    assert np.array_equal(np.sort(keys), np.arange(space.size))
    assert space.keys(np.asarray(kernel.encode_many([group.identity()])))[0] == 0


#: Upper bounds on the ``compose_many`` calls of one build.  On the exact
#: box the only products are the generators' cyclic chains, one call per
#: doubling level of the longest chain (``ceil(log2 ord) + 1`` at most);
#: S_5 is enumerated.
KERNEL_CALL_BUDGETS = {
    "Heisenberg_29": (lambda: extraspecial_group(29), 5),
    "D_8192": (lambda: dihedral_semidirect(8192), 13),
    "metacyclic_1999_3": (lambda: metacyclic_group(1999, 3), 11),
    "D_32": (lambda: dihedral_semidirect(32), 5),
    "D_64": (lambda: dihedral_semidirect(64), 6),
    "D_96": (lambda: dihedral_semidirect(96), 7),
    "D_128": (lambda: dihedral_semidirect(128), 7),
    "S_5": (lambda: symmetric_group(5), 42),
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


#: Upper bounds on the ``compose_many`` calls of one fresh ``subgroup_ids``
#: closure, with the order it must reach.  ``<r>`` in D_8192 is the first
#: generator's chain alone (``ceil(log2 8192) + 1`` levels at most); the
#: Heisenberg subgroup of order 29^2 is two chains of 5 levels and one
#: bulk product of the block ``<x> z^j`` with its probes.
CLOSURE_CALL_BUDGETS = {
    "D_8192 <r>": (lambda: dihedral_semidirect(8192), _rotation_subgroup, 8192, 14),
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
    assert 0 < len(calls) <= budget, f"{name}: {len(calls)} kernel calls, budget {budget}"


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
        space = _RowKeys((16, 2), 32, "D_16")
        with pytest.raises(GroupError, match=r"emitted -1 in column 1"):
            space.checked_keys(np.asarray([[3, 1], [4, -1]], dtype=np.int64))

    def test_a_product_that_never_returns_to_the_identity_fails(self):
        # In range, but not a group: g * g = g, so g's powers never cycle.
        group = self._group_with_kernel(compose_many=lambda rows_a, rows_b: rows_b.copy())
        with pytest.raises(GroupError, match=r"cyclic chain outgrew the group order"):
            CayleyBackend(group)
