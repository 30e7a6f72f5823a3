"""Kernel-mode engine edges and the row index behind every bulk lookup.

In ``mode == "kernel"`` a :class:`~repro.groups.engine.CayleyBackend` keeps
no element list: ids are the indices of the rows its dense kernel
enumerated, products resolve back to ids through
:class:`~repro.groups.engine._RowIndex`, and elements are encoded or decoded
only when a caller crosses the id/element edge.  The row index keys rows by
one int64 mixed-radix value over the indexed rows' column ranges (or by raw
bytes when that product overflows int64), so a query row outside those
ranges can alias a valid key; these tests pin that such rows — and foreign
elements generally — still raise :class:`~repro.groups.base.GroupError`.
"""

import numpy as np
import pytest

from repro.groups.base import GroupError
from repro.groups.engine import CayleyBackend, _RowIndex, get_engine, maybe_engine
from repro.groups.extraspecial import extraspecial_group
from repro.groups.perm import PermutationGroup
from repro.groups.products import dihedral_semidirect


def _kernel_engine(group):
    engine = CayleyBackend(group, table_limit=0, kernel_limit=1 << 16)
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

    def test_maybe_engine_builds_kernel_mode_past_the_table_limit(self):
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
            # Rotations by multiples of 8 only: key range 18 over 4 rows, so
            # the sorted-key search serves the lookup.
            kept = rows[rows[:, 0] % 8 == 0]
        row_index = _RowIndex(kept)
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

    @pytest.fixture(params=["table", "kernel"])
    def engine(self, request):
        group = self._group()
        if request.param == "table":
            engine = get_engine(group)
        else:
            engine = get_engine(group, table_limit=0, kernel_limit=1 << 16)
        assert engine.mode == request.param
        assert engine._row_index._strides is None, "expected the byte-key branch"
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
