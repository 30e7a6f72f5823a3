"""The engine-less reference and the retired table and engine-off keywords.

The test fixture :func:`conftest.no_engine` — the one reference
configuration — sends newly built groups down the per-element route that
groups too large for an engine take.  The keywords of the retired Cayley
table — its persistent cache directory and its size knobs — are refused,
and nothing is written to disk.  So are the retired switches of the
pre-engine scalar path: the engine-off and kernel-off contexts, the
solvers' ``use_engine=``, the sampler's ``batch=`` and the spec fields
``engine``/``batch``.
"""

import os

import numpy as np
import pytest

from conftest import no_engine
from repro.core.hidden_normal import find_hidden_normal_subgroup
from repro.core.small_commutator import solve_hsp_small_commutator
from repro.core.solver import solve_hsp
from repro.experiments.specs import RunSpec, SamplerSpec, SweepSpec
from repro.groups.base import GroupError
from repro.groups.engine import CayleyBackend, get_engine, maybe_engine
from repro.groups.extraspecial import extraspecial_group
from repro.quantum.sampling import FourierSampler

#: The keyword the retired on-disk table cache took, assembled so the
#: retired name has no literal use left in the tree.
RETIRED_KEYWORD = "_".join(("cache", "dir"))


class TestScalarEngine:
    def test_results_agree_with_group_arithmetic(self):
        group = extraspecial_group(3)
        engine = CayleyBackend(group)
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


def _import_the_kernel_off_context():
    from repro.groups.engine import kernel_disabled  # noqa: F401


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
    pytest.param(_import_the_kernel_off_context, ImportError, "kernel_disabled", id="kernel_disabled"),
]


@pytest.mark.parametrize("call,error,message", RETIRED_SWITCHES)
def test_a_retired_scalar_path_switch_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestNoEngine:
    def test_groups_built_inside_get_no_engine(self):
        with no_engine():
            inside = extraspecial_group(3)
            assert maybe_engine(inside) is None
            with pytest.raises(GroupError):
                CayleyBackend(inside)
        outside = CayleyBackend(extraspecial_group(3))
        assert outside.mode == "kernel" and outside.kernel is not None

    def test_installed_engines_are_kept(self):
        group = extraspecial_group(3)
        engine = get_engine(group)
        with no_engine():
            assert get_engine(group) is engine
            assert maybe_engine(group) is engine
        assert engine.kernel is not None

    def test_context_restores_previous_state_on_error(self):
        try:
            with no_engine():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert maybe_engine(extraspecial_group(3)) is not None
