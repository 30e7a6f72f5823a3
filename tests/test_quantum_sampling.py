"""Unit tests for the Fourier sampling layer and its two backends."""

import numpy as np
import pytest

from repro.linalg.zmodule import ZModule, annihilator, subgroup_contains
from repro.quantum.sampling import (
    STATEVECTOR_LIMIT,
    FourierSampler,
    SubgroupStructureOracle,
    TupleFunctionOracle,
)


class TestOracles:
    def test_subgroup_structure_oracle_labels(self):
        oracle = SubgroupStructureOracle([8, 9], [(2, 3)])
        module = oracle.module
        for h in module.subgroup_elements([(2, 3)]):
            assert oracle.evaluate(module.add((5, 1), h)) == oracle.evaluate((5, 1))
        assert oracle.evaluate((1, 0)) != oracle.evaluate((0, 0))
        assert oracle.kernel_generators() == oracle.kernel_generators()

    def test_tuple_function_oracle_declared_kernel(self):
        oracle = TupleFunctionOracle([4, 4], lambda x: (x[0] % 2, x[1]), declared_kernel=[(2, 0)])
        assert oracle.kernel_generators() == [(2, 0)]

    def test_tuple_function_oracle_enumerated_kernel(self):
        oracle = TupleFunctionOracle([6], lambda x: x[0] % 3)
        kernel = oracle.kernel_generators()
        module = ZModule([6])
        assert sorted(module.subgroup_elements(kernel)) == [(0,), (3,)]

    def test_enumeration_limit(self):
        oracle = TupleFunctionOracle([1 << 10, 1 << 10], lambda x: x, max_enumeration=100)
        with pytest.raises(ValueError):
            oracle.kernel_generators()

    def test_value_cache(self):
        calls = []
        oracle = TupleFunctionOracle([8], lambda x: calls.append(x) or x[0] % 4)
        oracle.evaluate((3,))
        oracle.evaluate((3,))
        assert len(calls) == 1

    def test_domain_size(self):
        assert TupleFunctionOracle([4, 6], lambda x: 0).domain_size() == 24


class TestSamplerBackends:
    @pytest.mark.parametrize("backend", ["analytic", "statevector"])
    def test_samples_lie_in_annihilator(self, backend, rng):
        moduli = [8, 6]
        hidden = [(2, 3)]
        oracle = SubgroupStructureOracle(moduli, hidden)
        sampler = FourierSampler(backend=backend, rng=rng)
        dual = annihilator(hidden, moduli)
        for sample in sampler.sample(oracle, 25):
            assert subgroup_contains(dual, sample, moduli)

    def test_quantum_queries_counted_per_round(self, rng):
        oracle = SubgroupStructureOracle([4, 4], [(2, 2)])
        sampler = FourierSampler(backend="analytic", rng=rng)
        sampler.sample(oracle, 7)
        assert oracle.counter.quantum_queries == 7

    def test_auto_backend_selects_by_domain_size(self, rng):
        small = SubgroupStructureOracle([4], [(2,)])
        large = SubgroupStructureOracle([1 << 10, 1 << 10], [(2, 0)])
        sampler = FourierSampler(backend="auto", rng=rng)
        assert sampler._resolve_backend(small) == "statevector"
        assert sampler._resolve_backend(large) == "analytic"
        # the committed sweep headers record this limit as 16384
        assert STATEVECTOR_LIMIT == 1 << 14
        at_limit = SubgroupStructureOracle([STATEVECTOR_LIMIT], [(0,)])
        past_limit = SubgroupStructureOracle([STATEVECTOR_LIMIT + 1], [(0,)])
        assert sampler._resolve_backend(at_limit) == "statevector"
        assert sampler._resolve_backend(past_limit) == "analytic"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            FourierSampler(backend="imaginary")

    def test_trivial_hidden_subgroup_samples_everything(self, rng):
        # H = {0}: samples should cover many dual elements (all of Z_8).
        oracle = SubgroupStructureOracle([8], [(0,)])
        sampler = FourierSampler(backend="analytic", rng=rng)
        samples = {s[0] for s in sampler.sample(oracle, 60)}
        assert len(samples) >= 5

    def test_full_hidden_subgroup_samples_only_zero(self, rng):
        oracle = SubgroupStructureOracle([6], [(1,)])
        for backend in ("analytic", "statevector"):
            sampler = FourierSampler(backend=backend, rng=rng)
            assert all(s == (0,) for s in sampler.sample(oracle, 10))

    def test_backends_agree_statistically(self, rng):
        """Chi-squared style agreement between the two backends (Simon instance)."""
        moduli = [2, 2, 2]
        hidden = [(1, 1, 0)]
        oracle = SubgroupStructureOracle(moduli, hidden)
        exact = FourierSampler(backend="analytic", rng=rng).exact_distribution(oracle)
        counts = np.zeros(exact.shape)
        sampler = FourierSampler(backend="statevector", rng=rng)
        n = 160
        for sample in sampler.sample(oracle, n):
            counts[sample] += 1
        empirical = counts / n
        # The four dual elements each have probability 1/4.
        support = exact > 0
        assert np.all(empirical[~support] == 0)
        assert np.max(np.abs(empirical[support] - exact[support])) < 0.15

    def test_exact_distribution_is_uniform_on_dual(self, rng):
        moduli = [4, 4]
        hidden = [(2, 0)]
        oracle = SubgroupStructureOracle(moduli, hidden)
        distribution = FourierSampler(rng=rng).exact_distribution(oracle)
        dual = annihilator(hidden, moduli)
        module = ZModule(moduli)
        dual_elements = module.subgroup_elements(dual)
        assert np.isclose(distribution.sum(), 1.0)
        for y in dual_elements:
            assert np.isclose(distribution[y], 1.0 / len(dual_elements))


class TestCountValidation:
    """Non-positive round counts are rejected on every path (no counter bump)."""

    @pytest.mark.parametrize("count", [0, -1, -17])
    def test_non_positive_count_raises(self, count):
        oracle = SubgroupStructureOracle([8], [(2,)])
        sampler = FourierSampler(backend="analytic", rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="positive count"):
            sampler.sample(oracle, count)
        assert oracle.counter.quantum_queries == 0

    def test_statevector_path_validates_too(self):
        oracle = SubgroupStructureOracle([8], [(2,)])
        sampler = FourierSampler(backend="statevector", rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="positive count"):
            sampler.sample(oracle, 0)
        assert oracle.counter.quantum_queries == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"shards": 2}, id="shards"),
            pytest.param({"shard_pool": None}, id="shard_pool"),
            pytest.param({"statevector_limit": 16}, id="statevector_limit"),
        ],
    )
    def test_retired_constructor_keywords_raise_type_error(self, kwargs):
        with pytest.raises(TypeError):
            FourierSampler(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [pytest.param({"shards": 2}, id="shards"), pytest.param({"pool": None}, id="pool")],
    )
    def test_retired_sample_keywords_raise_type_error(self, kwargs):
        oracle = SubgroupStructureOracle([8], [(2,)])
        with pytest.raises(TypeError):
            FourierSampler(rng=np.random.default_rng(0)).sample(oracle, 4, **kwargs)
        assert oracle.counter.quantum_queries == 0
